//! The metrics plane's end-to-end contract: snapshots are byte-stable,
//! the Prometheus rendering is schema-valid, turning `record_metrics` on
//! or off never changes the schedule, and the regression gate catches a
//! doctored throughput drop while passing a self-diff. Every decision
//! counter is a fold of the journalled decision events, and the two
//! instruments agree on every count.

use tdpipe::baselines::{PpHbEngine, PpSbEngine, TpHbEngine, TpSbEngine};
use tdpipe::core::config::EngineConfig;
use tdpipe::core::engine::RunOutcome;
use tdpipe::core::{TdPipeConfig, TdPipeEngine};
use tdpipe::hw::NodeSpec;
use tdpipe::kvcache::Phase;
use tdpipe::metrics::{
    default_rules, diff_snapshots, to_prom, validate_prom, MetricValue, MetricsSnapshot,
};
use tdpipe::model::ModelSpec;
use tdpipe::predictor::{OraclePredictor, OutputLenPredictor};
use tdpipe::trace::{AdmitReason, TraceEvent};
use tdpipe::workload::{ArrivalProcess, Request, ShareGptLikeConfig, Trace, Workload};

fn run(trace: &Trace, cfg: TdPipeConfig) -> RunOutcome {
    TdPipeEngine::new(ModelSpec::llama2_13b(), &NodeSpec::l20(4), cfg)
        .expect("13B fits 4xL20")
        .run(trace, &OraclePredictor)
}

/// TD-Pipe's own defaults with only the metrics plane (and optionally the
/// timeline) switched on.
fn metered_cfg(record_timeline: bool) -> TdPipeConfig {
    let mut cfg = TdPipeConfig::default();
    cfg.engine.record_metrics = true;
    cfg.engine.record_timeline = record_timeline;
    cfg
}

#[test]
fn snapshot_is_byte_identical_across_identical_runs() {
    let trace = ShareGptLikeConfig::small(150, 23).generate();
    let a = run(&trace, metered_cfg(false));
    let b = run(&trace, metered_cfg(false));
    assert!(!a.metrics.is_empty());
    assert_eq!(
        serde_json::to_string(&a.metrics).unwrap(),
        serde_json::to_string(&b.metrics).unwrap()
    );
    assert_eq!(to_prom(&a.metrics), to_prom(&b.metrics));
}

#[test]
fn recording_metrics_does_not_perturb_the_schedule() {
    // The metrics plane must be a pure observer, exactly like the flight
    // recorder: reports and phase structure match with the gate on or off.
    let trace = ShareGptLikeConfig::small(150, 7).generate();
    let on = run(&trace, metered_cfg(false));
    let off = run(&trace, TdPipeConfig::default());
    assert_eq!(on.report, off.report);
    assert_eq!(on.phases, off.phases);
    assert!(!on.metrics.is_empty());
    assert!(off.metrics.is_empty(), "disabled registry exports nothing");
}

#[test]
fn snapshot_carries_the_run_headlines_and_series() {
    let trace = ShareGptLikeConfig::small(120, 11).generate();
    let out = run(&trace, metered_cfg(true));
    let m = &out.metrics;
    assert_eq!(
        m.scalar("throughput_total"),
        Some(out.report.throughput_total())
    );
    assert_eq!(m.scalar("makespan"), Some(out.report.makespan));
    assert_eq!(
        m.scalar("phase_switches"),
        Some(out.report.phase_switches as f64)
    );
    // Latency percentiles ride along whenever the report tracked them.
    let l = out.report.latency.expect("latency tracked by default");
    assert_eq!(m.scalar("ttft_p50"), Some(l.ttft_p50));
    assert_eq!(m.scalar("tpot_p95"), Some(l.tpot_p95));
    // KV lifetime counters are live and self-consistent: every admitted
    // request allocates once per prefill (admissions == allocations).
    let allocs = m.scalar("kv_alloc_total").expect("kv counters");
    assert!(allocs >= trace.len() as f64);
    let hw = m.scalar("kv_occupancy_high_water").expect("high water");
    assert!(hw > 0.0 && hw <= 1.0, "high water {hw}");
    // The virtual-time series cover the run on the fixed grid.
    let occ = m
        .series
        .iter()
        .find(|s| s.name == "series_kv_occupancy")
        .expect("occupancy series");
    assert!(!occ.points.is_empty());
    assert!(occ.points[0].t == 0.0);
    assert!(occ.points.last().unwrap().t <= out.report.makespan);
    // With segment recording on, per-stage busy fractions are derived on
    // the same grid — one series per device.
    let stages = m
        .series
        .iter()
        .filter(|s| s.name.starts_with("series_stage_busy_fraction_"))
        .count();
    assert_eq!(stages, out.timeline.num_devices());
    // Phase counters agree with the engine's own accounting.
    let phases: f64 = [("phase", "prefill"), ("phase", "decode")]
        .iter()
        .map(|l| {
            match m
                .get_labeled("tdpipe_phase_total", &[*l])
                .expect("phase counter")
                .value
            {
                MetricValue::Counter(c) => c as f64,
                _ => unreachable!("counters stay counters"),
            }
        })
        .sum();
    assert_eq!(phases, out.phases.len() as f64);
}

/// Always underpredicts, so §3.3 overadmits and decode evicts and
/// recomputes.
struct AlwaysOne;
impl OutputLenPredictor for AlwaysOne {
    fn predict(&self, _r: &Request) -> u32 {
        1
    }
}

/// The metrics plane and the journal count every §3.3–§3.5 decision the
/// same: on a traced and metered run under eviction churn, offline and
/// Poisson, each decision counter equals its tally of journal events, the
/// phase counters count the phase log, and the report's switch count
/// counts `PhaseSwitch` events.
#[test]
fn decision_counters_equal_their_journal_counts() {
    let trace = ShareGptLikeConfig::small(400, 11).generate();
    // Arrivals fast enough that online admissions overrun memory too.
    let poisson = ArrivalProcess::Poisson {
        rate_per_s: 60.0,
        seed: 11,
    }
    .sample(trace.len());
    for (label, arrivals) in [("offline", Vec::new()), ("poisson", poisson)] {
        let mut cfg = metered_cfg(false);
        cfg.engine.record_trace = true;
        let engine = TdPipeEngine::new(ModelSpec::llama2_13b(), &NodeSpec::l20(2), cfg).unwrap();
        let work = Workload::Requests {
            trace: &trace,
            arrivals: &arrivals,
        };
        let out = engine.try_run(work, &AlwaysOne, engine.sim_plane()).unwrap();
        let counter = |name: &str, labels: &[(&str, &str)]| {
            match out.metrics.get_labeled(name, labels).map(|e| &e.value) {
                Some(MetricValue::Counter(c)) => *c,
                other => panic!("{label}: {name} {labels:?} is {other:?}"),
            }
        };
        // [first_prefill, recompute, swap_in] admits, admitted tokens,
        // [overflow, memory, arrival, budget, exhausted] stops,
        // [withhold, supplement] events and requests, switch decisions
        // and phase switches.
        let (mut admits, mut tokens, mut stops) = ([0u64; 3], 0, [0u64; 5]);
        let (mut steal_events, mut stolen) = ([0u64; 2], [0u64; 2]);
        let (mut decisions, mut switches) = (0, 0);
        for e in out.journal.events() {
            match e.event {
                TraceEvent::PrefillAdmit { reason, tokens: t, .. } => {
                    admits[reason as usize] += 1;
                    tokens += t;
                }
                TraceEvent::PrefillStop { reason, .. } => stops[reason as usize] += 1,
                TraceEvent::StealWithhold { n, .. } => {
                    steal_events[0] += 1;
                    stolen[0] += n as u64;
                }
                TraceEvent::StealSupplement { n, .. } => {
                    steal_events[1] += 1;
                    stolen[1] += n as u64;
                }
                TraceEvent::SwitchDecision { .. } => decisions += 1,
                TraceEvent::PhaseSwitch { .. } => switches += 1,
                _ => {}
            }
        }
        let recomputes = admits[AdmitReason::Recompute as usize];
        assert!(recomputes > 0, "{label}: the underpredictor forces recomputes");
        assert!(steal_events.iter().all(|&n| n > 0), "{label}: the stealer moved work both ways");
        assert!(decisions > 0 && switches > 0, "{label}: the run switched phases");
        let admit_labels = ["first_prefill", "recompute", "swap_in"];
        for (reason, want) in admit_labels.into_iter().zip(admits) {
            let got = counter("tdpipe_prefill_admit_total", &[("reason", reason)]);
            assert_eq!(got, want, "{label}: admits for {reason}");
        }
        assert_eq!(counter("tdpipe_prefill_admit_tokens_total", &[]), tokens, "{label}");
        let stop_labels = ["overflow", "memory", "arrival", "budget", "exhausted"];
        for (reason, want) in stop_labels.into_iter().zip(stops) {
            let got = counter("tdpipe_prefill_stop_total", &[("reason", reason)]);
            assert_eq!(got, want, "{label}: stops for {reason}");
        }
        let steals = [
            ("tdpipe_steal_withhold_events_total", steal_events[0]),
            ("tdpipe_steal_withheld_requests_total", stolen[0]),
            ("tdpipe_steal_supplement_events_total", steal_events[1]),
            ("tdpipe_steal_supplemented_requests_total", stolen[1]),
        ];
        for (name, want) in steals {
            assert_eq!(counter(name, &[]), want, "{label}: {name}");
        }
        assert_eq!(counter("tdpipe_switch_decisions_total", &[]), decisions, "{label}");
        for (phase, kind) in [("prefill", Phase::Prefill), ("decode", Phase::Decode)] {
            let want = out.phases.iter().filter(|p| p.phase == kind).count() as u64;
            let got = counter("tdpipe_phase_total", &[("phase", phase)]);
            assert_eq!(got, want, "{label}: {phase} phases");
        }
        assert_eq!(u64::from(out.report.phase_switches), switches, "{label}");
    }
}

#[test]
fn prom_rendering_passes_the_validator() {
    let trace = ShareGptLikeConfig::small(120, 11).generate();
    let out = run(&trace, metered_cfg(false));
    let text = to_prom(&out.metrics);
    let check = validate_prom(&text).expect("valid exposition format");
    assert!(check.samples > 0);
    assert!(check.histograms > 0, "histogram families render buckets");
    assert_eq!(check.families, {
        let mut names: Vec<&str> = out.metrics.metrics.iter().map(|m| m.name.as_str()).collect();
        names.dedup(); // snapshot is sorted by name
        names.len()
    });
}

#[test]
fn all_four_baselines_export_the_shared_taxonomy() {
    let trace = ShareGptLikeConfig::small(64, 9).generate();
    let model = ModelSpec::llama2_13b();
    let node = NodeSpec::l20(4);
    let cfg = EngineConfig {
        record_metrics: true,
        ..EngineConfig::default()
    };
    let outs: Vec<(&str, MetricsSnapshot)> = vec![
        (
            "TP+SB",
            TpSbEngine::new(model.clone(), &node, cfg.clone())
                .unwrap()
                .run(&trace, &OraclePredictor)
                .metrics,
        ),
        (
            "TP+HB",
            TpHbEngine::new(model.clone(), &node, cfg.clone())
                .unwrap()
                .run(&trace, &OraclePredictor)
                .metrics,
        ),
        (
            "PP+SB",
            PpSbEngine::new(model.clone(), &node, cfg.clone())
                .unwrap()
                .run(&trace, &OraclePredictor)
                .metrics,
        ),
        (
            "PP+HB",
            PpHbEngine::new(model, &node, cfg)
                .unwrap()
                .run(&trace, &OraclePredictor)
                .metrics,
        ),
    ];
    for (name, m) in &outs {
        // The gate set every scheduler shares, so `metrics-diff` can
        // compare any two of them.
        for gated in ["throughput_total", "throughput_output", "makespan"] {
            assert!(m.scalar(gated).is_some(), "{name} exports {gated}");
        }
        assert!(m.scalar("kv_alloc_total").unwrap() > 0.0, "{name}");
        assert!(
            m.scalar("tdpipe_decode_steps_total").unwrap() > 0.0,
            "{name}"
        );
        validate_prom(&to_prom(m)).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    // Hybrid batching is what records chunk sizes.
    let chunks = |m: &MetricsSnapshot| match m.get("tdpipe_chunk_tokens").map(|e| &e.value) {
        Some(MetricValue::Histogram { count, .. }) => *count,
        _ => 0,
    };
    assert!(chunks(&outs[1].1) > 0, "TP+HB chunks prefills");
    assert_eq!(chunks(&outs[0].1), 0, "TP+SB never chunks");
}

#[test]
fn diff_gate_passes_self_and_fails_doctored_throughput() {
    let trace = ShareGptLikeConfig::small(100, 5).generate();
    let out = run(&trace, metered_cfg(false));
    let rules = default_rules();

    let clean = diff_snapshots(&out.metrics, &out.metrics, &rules);
    assert!(clean.is_clean(), "self-diff must be clean: {clean:?}");

    // Doctor a 5% throughput drop — beyond the 2% tolerance.
    let mut doctored = out.metrics.clone();
    for e in &mut doctored.metrics {
        if e.name == "throughput_total" {
            if let MetricValue::Gauge(g) = &mut e.value {
                *g *= 0.95;
            }
        }
    }
    let bad = diff_snapshots(&out.metrics, &doctored, &rules);
    assert_eq!(bad.regressions, 1);
    let f = bad
        .findings
        .iter()
        .find(|f| f.metric == "throughput_total")
        .expect("the doctored metric is reported");
    assert!(f.regression);
    assert!((f.rel_change + 0.05).abs() < 1e-9);
}
