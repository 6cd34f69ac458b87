//! Harness tests: argument handling, the summary line, wrapper purity,
//! and tiny runs of every workload against `BENCHMARK.json`.

use super::*;
use crate::layers::{CountingPredictor, ExecStats, TimedExecutor};
use crate::run::run_workload;
use std::rc::Rc;
use tdpipe::core::exec::SimExecutor;
use tdpipe::core::{EngineConfig, TdPipeConfig, TdPipeEngine};
use tdpipe::fleet::{
    parse_pool, run_fleet_with_threads, FleetConfig, FleetWorkload, Replica, ReplicaSpec,
    RouterConfig, RouterPolicy,
};
use tdpipe::hw::NodeSpec;
use tdpipe::model::ModelSpec;
use tdpipe::predictor::classifier::TrainConfig;
use tdpipe::predictor::LengthPredictor;
use tdpipe::workload::{ArrivalProcess, SessionConfig, ShareGptLikeConfig};

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

fn predictor() -> LengthPredictor {
    let history = ShareGptLikeConfig::small(2_000, 7).generate();
    LengthPredictor::train(&history.split(7).train, &TrainConfig::default())
}

#[test]
fn arguments_parse_and_validate() {
    let s = spec();
    let a = parse_args(
        &argv("--workload online --seed 9 --seconds 3 --trace 0"),
        &s,
    )
    .unwrap();
    assert_eq!(a.workloads, ["online"]);
    assert_eq!((a.seed, a.seconds, a.trace), (9, 3, TraceMode::Off));
    let all = parse_args(&[], &s).unwrap();
    assert_eq!(all.workloads, s.workloads);
    assert_eq!(
        (all.seed, all.seconds, all.trace),
        (42, s.run_seconds, TraceMode::Both)
    );
    for bad in [
        "--workload nope",
        "--seed x",
        "--seconds 0",
        "--trace 2",
        "--compare only-one",
        "--frobnicate 1",
    ] {
        assert!(parse_args(&argv(bad), &s).is_err(), "{bad}");
    }
}

/// The probes must not move a single modelled byte: the predictor
/// wrapper forwards its per-request overhead and the plane wrapper its
/// queue-depth statistics, both of which reach the report or snapshot.
#[test]
fn wrappers_leave_an_online_run_byte_identical() {
    let p = predictor();
    let trace = ShareGptLikeConfig::small(200, 3).generate();
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s: 4.0,
        seed: 5,
    }
    .sample(trace.len());
    let cfg = TdPipeConfig {
        engine: EngineConfig {
            record_metrics: true,
            ..EngineConfig::default()
        },
        ..TdPipeConfig::default()
    };
    let engine =
        TdPipeEngine::new(ModelSpec::llama2_13b(), &NodeSpec::l20(4), cfg.clone()).unwrap();
    let plain = engine.run_with_arrivals(&trace, &arrivals, &p);

    let counting = CountingPredictor::new(&p);
    let stats = Rc::new(ExecStats::default());
    let sim = SimExecutor::new(
        engine.cost().num_stages(),
        cfg.engine.transfer_mode,
        cfg.engine.record_timeline,
    );
    let plane = Box::new(TimedExecutor::new(Box::new(sim), Rc::clone(&stats)));
    let probed = engine
        .try_run_on(&trace, &arrivals, &counting, plane)
        .unwrap();

    let bytes = |o: &tdpipe::core::engine::RunOutcome| {
        (
            serde_json::to_string(&o.report).unwrap(),
            serde_json::to_string(&o.metrics).unwrap(),
        )
    };
    assert_eq!(bytes(&plain), bytes(&probed));
    assert!(plain.report.latency.is_some());
    assert_eq!(
        counting.calls(),
        trace.len() as u64,
        "one prediction per request"
    );
    assert!(stats.launches.get() > 0);
    assert!(
        stats.queue_depth_hw.get() > 0,
        "plane stats were read through the wrapper"
    );
}

#[test]
fn counting_predictor_leaves_a_two_replica_fleet_byte_identical() {
    let p = predictor();
    let mut sc = SessionConfig::small(30, 4);
    sc.arrival = ArrivalProcess::Poisson {
        rate_per_s: 8.0,
        seed: 6,
    };
    let sessions = sc.generate();
    let replicas: Vec<Replica> = parse_pool("l20:1,a100:1", 4)
        .unwrap()
        .into_iter()
        .map(|(label, node)| {
            Replica::new(ReplicaSpec::new(
                &label,
                ModelSpec::llama2_13b(),
                node,
                TdPipeConfig::default(),
            ))
            .unwrap()
        })
        .collect();
    let cfg = FleetConfig {
        router: RouterConfig {
            policy: RouterPolicy::SessionAffine,
            seed: 11,
            ..RouterConfig::default()
        },
        ..FleetConfig::default()
    };
    let workload = FleetWorkload::Sessions(&sessions);
    let plain = run_fleet_with_threads(&replicas, &workload, &cfg, &p, 2);
    let counting = CountingPredictor::new(&p);
    let probed = run_fleet_with_threads(&replicas, &workload, &cfg, &counting, 2);
    assert_eq!(
        serde_json::to_string(&plain.report).unwrap(),
        serde_json::to_string(&probed.report).unwrap()
    );
    // Routing predicts every turn once, and each replica's engine again.
    assert_eq!(counting.calls(), 2 * sessions.len() as u64);
}

#[test]
fn token_budget_trace_is_the_longest_prefix_within_budget() {
    let budget = 90_000;
    let cut = crate::workloads::token_budget_trace(3, budget);
    let tokens =
        |t: &tdpipe::workload::Trace| -> u64 { t.requests().iter().map(|r| r.total_len()).sum() };
    assert!(tokens(&cut) <= budget);
    let one_more = ShareGptLikeConfig::small(cut.len() + 1, 3).generate();
    assert!(
        tokens(&one_more) > budget,
        "one more request would exceed the budget"
    );
    assert_eq!(
        one_more.requests()[..cut.len()],
        cut.requests()[..],
        "a prefix of the seed's trace"
    );
}

/// Every metric `BENCHMARK.json` names comes out of a tiny run of every
/// workload, finite and in the spec's unit, and every output check passes.
#[test]
fn tiny_runs_emit_every_named_metric() {
    let s = spec();
    for w in &s.workloads {
        let res = run_workload(w, &Sizes::tiny(), 42, 0.0, true);
        assert!(res.failures.is_empty(), "{w}: {:?}", res.failures);
        assert!(res.reps >= run::MIN_REPS, "{w}: {} reps", res.reps);
        assert!(res.attempted() >= 1);
        for m in s.end_to_end.iter().chain(&s.per_layer) {
            let got = res
                .metrics
                .iter()
                .find(|x| x.metric.name == m.name)
                .unwrap_or_else(|| panic!("{w}: {} not emitted", m.name));
            assert!(
                got.metric.value.is_finite(),
                "{w}: {} = {}",
                m.name,
                got.metric.value
            );
            assert_eq!(got.metric.unit, m.unit, "{w}: {}", m.name);
        }
        for name in [
            "setup_s",
            "wall_s",
            "peak_rss_mb",
            "throughput_tok_s",
            "ttft_p99_s",
        ] {
            assert!(res.get(name).unwrap() > 0.0, "{w}: {name} must never be 0");
        }
        assert!(!res.spans.is_empty(), "{w}: the traced reps recorded spans");
        let v = res.to_value();
        let mut correct = true;
        let line = summary(&[(w.to_string(), v)], &s, TraceMode::Both, &mut correct);
        assert!(correct, "{w}");
        let metrics = field(&line, "metrics").unwrap();
        assert!(field(metrics, "wall_s").is_some() && field(metrics, "core.run_s").is_some());
    }
}

#[test]
fn summary_flags_a_missing_metric() {
    let s = spec();
    let empty = Value::Map(vec![
        ("attempted".to_string(), Value::UInt(5)),
        ("failed".to_string(), Value::UInt(0)),
        ("metrics".to_string(), Value::Map(Vec::new())),
    ]);
    let mut correct = true;
    let line = summary(
        &[("offline".to_string(), empty)],
        &s,
        TraceMode::Off,
        &mut correct,
    );
    assert!(!correct);
    let failed = field(&line, "failed").and_then(as_f64).unwrap();
    assert_eq!(failed, s.end_to_end.len() as f64);
}
