//! Figure 12: KV-cache memory occupancy over time as TD-Pipe alternates
//! prefill and decode phases.
//!
//! The paper's qualitative shape: occupancy climbs through the initial
//! prefill, then the run alternates — prefill bands keep growing, decode
//! bands grow, saturate near 1.0, and decline as requests finish; high
//! occupancy is held only briefly, evidencing the AI-based greedy
//! prefill's aggressive-but-safe admission.

use tdpipe_bench::{num_requests, paper_trace, save_json, save_text};
use tdpipe_core::{TdPipeConfig, TdPipeEngine};
use tdpipe_hw::NodeSpec;
use tdpipe_kvcache::Phase;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::classifier::TrainConfig;
use tdpipe_predictor::LengthPredictor;
use tdpipe_trace::decision_table;
use tdpipe_workload::ShareGptLikeConfig;

fn main() {
    let trace = paper_trace();
    let hist = ShareGptLikeConfig::small(30_000, 7).generate();
    let predictor = LengthPredictor::train(&hist.split(7).train, &TrainConfig::default());

    // The paper's Fig. 12 plots one representative configuration. The
    // flight recorder rides along (a pure observer — the schedule is
    // unchanged) so the occupancy bands come with the per-phase decision
    // table that explains them.
    let model = ModelSpec::qwen2_5_32b();
    let node = NodeSpec::l20(4);
    // TD-Pipe's own defaults (async transfers, no sequence cap) with only
    // the observers switched on.
    let mut cfg = TdPipeConfig::default();
    cfg.engine.record_trace = true;
    cfg.engine.record_metrics = true;
    let out = TdPipeEngine::new(model.clone(), &node, cfg)
        .expect("32B fits 4xL20")
        .run(&trace, &predictor);

    println!(
        "Figure 12 — KV occupancy, TD-Pipe, L20x4 + Qwen2.5-32B, {} requests",
        num_requests()
    );
    println!("{}", out.report);
    println!(
        "phases: {}   peak occupancy: {:.3}",
        out.phases.len(),
        out.occupancy.peak()
    );

    // Per-phase summary (the bands of the figure).
    let mut shown = 0;
    for p in &out.phases {
        if shown < 24 {
            println!(
                "  {:8} [{:8.1}s .. {:8.1}s] items={:6} finished={}",
                match p.phase {
                    Phase::Prefill => "prefill",
                    Phase::Decode => "decode",
                },
                p.start,
                p.end,
                p.work_items,
                p.finished
            );
        }
        shown += 1;
    }
    if shown > 24 {
        println!("  ... ({} more phases)", shown - 24);
    }

    // Occupancy-over-time CSV (plottable as the paper's figure), the
    // scheduling decisions behind each band, and the full metrics
    // snapshot (counters, histograms, and the virtual-time series the
    // sampler records on its fixed grid).
    save_text("fig12_kv_usage.csv", &out.occupancy.to_csv());
    save_text("fig12_decision_table.txt", &decision_table(&out.journal));
    save_json("fig12.metrics.json", &out.metrics);

    // Sanity characterisation mirrored in EXPERIMENTS.md: decode bands
    // reach near-full occupancy then decline.
    let decode_peak = out
        .occupancy
        .samples()
        .filter(|s| s.phase == Phase::Decode)
        .map(|s| s.occupancy)
        .fold(0.0f64, f64::max);
    let decode_min_tail = out
        .occupancy
        .samples()
        .rev()
        .take(50)
        .map(|s| s.occupancy)
        .fold(1.0f64, f64::min);
    println!("decode-band peak occupancy: {decode_peak:.3} (expect near 1.0)");
    println!("tail occupancy declines to: {decode_min_tail:.3}");
}
