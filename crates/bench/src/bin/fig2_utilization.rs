//! Figures 1 & 2: pipeline bubbles and GPU utilization.
//!
//! Figure 2's message: conventional pipeline parallelism (chunked-prefill
//! hybrid batching shown in the paper) leaves the GPUs substantially idle,
//! while TD-Pipe keeps them busy. This binary reports mean utilization for
//! PP+SB, PP+HB and TD-Pipe on one configuration, a windowed utilization
//! series (the figure's time axis), and exports Gantt CSVs from which the
//! Figure 1 bubble anatomy can be plotted.

use tdpipe_baselines::{PpHbEngine, PpSbEngine};
use tdpipe_bench::{num_requests, paper_trace, save_text};
use tdpipe_core::config::EngineConfig;
use tdpipe_core::{TdPipeConfig, TdPipeEngine};
use tdpipe_hw::NodeSpec;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::OraclePredictor;
use tdpipe_sim::{SegmentKind, Timeline};
use tdpipe_trace::{FlightRecorder, TraceEvent};

/// Mean utilization across devices in each of `windows` equal slices of
/// the run.
fn windowed(timeline: &Timeline, windows: usize) -> Vec<f64> {
    let span = timeline.makespan();
    let edges: Vec<f64> = (0..=windows)
        .map(|w| span * w as f64 / windows as f64)
        .collect();
    let busy = timeline.busy_by_window(&edges).busy;
    let n = busy.len();
    edges
        .windows(2)
        .enumerate()
        .map(|(k, w)| {
            let (a, b) = (w[0], w[1]);
            if n == 0 || b <= a {
                return 0.0;
            }
            let total: f64 = busy.iter().map(|row| row[k]).sum();
            total / ((b - a) * n as f64)
        })
        .collect()
}

/// Idle seconds across all devices in five buckets: in-decode,
/// in-prefill, phase-boundary, warm-up and drain. Each journalled
/// `StageIdle` gap longer than 1 µs (shorter ones are launch jitter) is
/// classified by the `StageBusy` kinds on either side of it on its device;
/// gaps next to hybrid segments fall in no bucket.
fn idle_by_neighbours(journal: &FlightRecorder) -> [f64; 5] {
    use SegmentKind::{Decode, Prefill};
    use TraceEvent::{StageBusy, StageIdle};
    let mut events = journal.stage_events().peekable();
    let mut idle = [0.0; 5];
    // Stage events list each device's run in order, one device at a time.
    let mut before = None;
    while let Some(e) = events.next() {
        match e.event {
            StageBusy { device, kind, .. } => before = Some((device, kind)),
            StageIdle { device, dur } if dur > 1e-6 => {
                let after = match events.peek().map(|n| n.event) {
                    Some(StageBusy { device: d, kind, .. }) if d == device => Some(kind),
                    _ => None,
                };
                let before = before.filter(|&(d, _)| d == device).map(|(_, k)| k);
                let bucket = match (before, after) {
                    (None, _) => 3,
                    (_, None) => 4,
                    (Some(Decode), Some(Decode)) => 0,
                    (Some(Prefill), Some(Prefill)) => 1,
                    (Some(Prefill), Some(Decode)) | (Some(Decode), Some(Prefill)) => 2,
                    _ => continue,
                };
                idle[bucket] += dur;
            }
            _ => {}
        }
    }
    idle
}

fn print_series(name: &str, series: &[f64]) {
    let bars: String = series
        .iter()
        .map(|&u| match (u * 10.0) as u32 {
            0..=2 => '.',
            3..=4 => ':',
            5..=6 => '+',
            7..=8 => '#',
            _ => '@',
        })
        .collect();
    let mean = series.iter().sum::<f64>() / series.len() as f64;
    println!("  {name:<8} mean {:5.1}%  [{bars}]", mean * 100.0);
}

fn main() {
    let trace = paper_trace();
    let model = ModelSpec::llama2_13b();
    let node = NodeSpec::l20(4);
    let cfg = EngineConfig {
        record_timeline: true,
        record_trace: true,
        ..EngineConfig::default()
    };

    println!(
        "Figure 2 — GPU utilization over time, L20x4 + Llama2-13B, {} requests",
        num_requests()
    );
    println!("(each cell is 1/40th of the run; . <30%, : <50%, + <70%, # <90%, @ >=90%)");

    let pp_sb = PpSbEngine::new(model.clone(), &node, cfg.clone())
        .expect("fits")
        .run(&trace, &OraclePredictor);
    print_series("PP+SB", &windowed(&pp_sb.timeline, 40));

    let pp_hb = PpHbEngine::new(model.clone(), &node, cfg.clone())
        .expect("fits")
        .run(&trace, &OraclePredictor);
    print_series("PP+HB", &windowed(&pp_hb.timeline, 40));

    let mut td_cfg = TdPipeConfig::default();
    td_cfg.engine.record_timeline = true;
    td_cfg.engine.record_trace = true;
    let td = TdPipeEngine::new(model, &node, td_cfg)
        .expect("fits")
        .run(&trace, &OraclePredictor);
    print_series("TD-Pipe", &windowed(&td.timeline, 40));

    println!();
    println!(
        "mean utilization: PP+SB {:.1}%  PP+HB {:.1}%  TD-Pipe {:.1}%  (paper Fig. 2: PP ~40-60%, TD-Pipe high)",
        pp_sb.report.mean_utilization * 100.0,
        pp_hb.report.mean_utilization * 100.0,
        td.report.mean_utilization * 100.0
    );

    // Bubble decomposition (where does the idle time come from?).
    println!();
    println!("idle-time decomposition (seconds across 4 GPUs):");
    println!(
        "{:>9} {:>10} {:>10} {:>12} {:>8} {:>8}",
        "", "in-decode", "in-prefill", "phase-bound", "warmup", "drain"
    );
    for (name, out) in [("PP+SB", &pp_sb), ("PP+HB", &pp_hb), ("TD-Pipe", &td)] {
        let [decode, prefill, boundary, warmup, drain] = idle_by_neighbours(&out.journal);
        println!(
            "{name:>9} {decode:>10.1} {prefill:>10.1} {boundary:>12.1} {warmup:>8.1} {drain:>8.1}"
        );
    }

    // Figure 1 raw material: per-device Gantt segments.
    save_text("fig1_gantt_pp_sb.csv", &pp_sb.timeline.to_csv());
    save_text("fig1_gantt_pp_hb.csv", &pp_hb.timeline.to_csv());
    save_text("fig1_gantt_tdpipe.csv", &td.timeline.to_csv());
}
