//! Cross-crate conservation tests: every scheduler must serve every
//! request exactly once, generate exactly the oracle token counts, and
//! leave the KV pool empty — regardless of memory pressure or layout.

use tdpipe::baselines::{PpHbEngine, PpSbEngine, TpHbEngine, TpSbEngine};
use tdpipe::core::config::EngineConfig;
use tdpipe::core::{TdPipeConfig, TdPipeEngine};
use tdpipe::hw::NodeSpec;
use tdpipe::model::ModelSpec;
use tdpipe::predictor::OraclePredictor;
use tdpipe::sim::RunReport;
use tdpipe::workload::{ShareGptLikeConfig, Trace, Workload};

fn check(report: &RunReport, trace: &Trace) {
    assert_eq!(report.num_requests, trace.len());
    assert_eq!(report.output_tokens, trace.total_output_tokens());
    // First-time prefills cover exactly the prompts; recomputation is
    // tracked separately.
    assert_eq!(report.input_tokens, trace.total_input_tokens());
    assert!(report.makespan > 0.0);
    assert!(report.mean_utilization > 0.0 && report.mean_utilization <= 1.0);
}

fn all_engines(model: ModelSpec, node: &NodeSpec, trace: &Trace) -> Vec<RunReport> {
    let cfg = EngineConfig::default();
    let mut out = Vec::new();
    if let Ok(e) = TpSbEngine::new(model.clone(), node, cfg.clone()) {
        out.push(e.run(trace, &OraclePredictor).report);
    }
    if let Ok(e) = TpHbEngine::new(model.clone(), node, cfg.clone()) {
        out.push(e.run(trace, &OraclePredictor).report);
    }
    if let Ok(e) = PpSbEngine::new(model.clone(), node, cfg.clone()) {
        out.push(e.run(trace, &OraclePredictor).report);
    }
    if let Ok(e) = PpHbEngine::new(model.clone(), node, cfg) {
        out.push(e.run(trace, &OraclePredictor).report);
    }
    if let Ok(e) = TdPipeEngine::new(model, node, TdPipeConfig::default()) {
        out.push(e.run(trace, &OraclePredictor).report);
    }
    out
}

#[test]
fn every_engine_conserves_on_every_layout() {
    let trace = ShareGptLikeConfig::small(150, 5).generate();
    for gpus in [1u32, 2, 3, 4] {
        for node in [NodeSpec::l20(gpus), NodeSpec::a100(gpus)] {
            let reports = all_engines(ModelSpec::llama2_13b(), &node, &trace);
            assert!(!reports.is_empty());
            for r in &reports {
                check(r, &trace);
            }
        }
    }
}

#[test]
fn conservation_under_heavy_memory_pressure() {
    // A tiny test GPU forces constant eviction/recompute cycles; the
    // lifecycle accounting must survive them.
    let trace = ShareGptLikeConfig::small(60, 11).generate();
    let model = ModelSpec::tiny_test();
    let node = NodeSpec::tiny_test(4);
    for r in all_engines(model, &node, &trace) {
        check(&r, &trace);
    }
}

#[test]
fn recompute_is_counted_not_lost() {
    // With pressure, recomputed tokens must show up in the report and the
    // totals must still balance.
    let trace = ShareGptLikeConfig::small(400, 3).generate();
    let model = ModelSpec::llama2_13b();
    let node = NodeSpec::l20(1); // smallest memory of the real configs
    let e = TpSbEngine::new(model, &node, EngineConfig::default()).unwrap();
    let r = e.run(&trace, &OraclePredictor).report;
    check(&r, &trace);
    // (Recompute may legitimately be zero if the trace drains gracefully;
    // the point is the accounting identity held inside `check`.)
    assert!(r.recompute_overhead() >= 0.0);
}

#[test]
fn huge_single_request_is_a_clean_panic() {
    // A request that cannot fit KV memory even alone must fail loudly,
    // not hang — with the same diagnostic from every scheduler.
    let mut requests = ShareGptLikeConfig::small(3, 1).generate().requests().to_vec();
    requests[1].input_len = 2_000_000; // no KV pool holds this
    let trace = Trace::new(requests);
    let node = NodeSpec::tiny_test(1);
    let engine =
        TdPipeEngine::new(ModelSpec::tiny_test(), &node, TdPipeConfig::default()).unwrap();
    let t = trace.clone();
    let result = std::panic::catch_unwind(move || engine.run(&t, &OraclePredictor));
    assert!(result.is_err(), "oversized request must panic, not hang");

    use tdpipe_bench::{run_scheduler, Scheduler};
    for s in Scheduler::ALL {
        let trace = trace.clone();
        let err = std::panic::catch_unwind(move || {
            let (model, node) = (ModelSpec::llama2_13b(), NodeSpec::l20(2));
            run_scheduler(
                s,
                &model,
                &node,
                Workload::offline(&trace),
                &OraclePredictor,
            )
        })
        .expect_err("oversized request must panic, not hang");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("(2000000 tokens) exceeds KV capacity ("),
            "{} rejected with the wrong diagnostic: {msg:?}",
            s.name()
        );
    }
}

#[test]
fn online_arrivals_conserve_across_all_engines() {
    use tdpipe::workload::ArrivalProcess;
    use tdpipe_bench::{run_scheduler, Scheduler};
    let trace = ShareGptLikeConfig::small(150, 5).generate();
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s: 2.0,
        seed: 3,
    }
    .sample(trace.len());
    let (model, node) = (ModelSpec::llama2_13b(), NodeSpec::l20(4));
    let online = Workload::Requests {
        trace: &trace,
        arrivals: &arrivals,
    };
    // Each scheduler from its defaults: the baselines on
    // `EngineConfig::default()`, TD-Pipe on `TdPipeConfig::default()`.
    let reports: Vec<_> = Scheduler::ALL
        .into_iter()
        .map(|s| run_scheduler(s, &model, &node, online, &OraclePredictor).unwrap())
        .collect();
    let last_arrival = *arrivals.last().unwrap();
    for r in &reports {
        check(r, &trace);
        // No engine can finish before the last request even arrives.
        assert!(
            r.makespan >= last_arrival,
            "{}: makespan {} < last arrival {last_arrival}",
            r.scheduler,
            r.makespan
        );
        // Arrival-relative latencies are non-negative.
        let l = r.latency.expect("tracked");
        assert!(
            l.ttft_mean >= 0.0 && l.completion_p99 >= 0.0,
            "{}: ttft_mean {} completion_p99 {}",
            r.scheduler,
            l.ttft_mean,
            l.completion_p99
        );
    }
}
