//! Determinism and seed-sensitivity across the whole stack.

use tdpipe::core::{TdPipeConfig, TdPipeEngine};
use tdpipe::hw::NodeSpec;
use tdpipe::model::ModelSpec;
use tdpipe::predictor::classifier::TrainConfig;
use tdpipe::predictor::{LengthPredictor, OraclePredictor};
use tdpipe::workload::ShareGptLikeConfig;

#[test]
fn end_to_end_run_is_bitwise_deterministic() {
    let trace = ShareGptLikeConfig::small(200, 77).generate();
    let run = || {
        TdPipeEngine::new(
            ModelSpec::llama2_13b(),
            &NodeSpec::l20(4),
            TdPipeConfig::default(),
        )
        .unwrap()
        .run(&trace, &OraclePredictor)
    };
    let a = run();
    let b = run();
    assert_eq!(a.report, b.report);
    assert_eq!(a.phases.len(), b.phases.len());
    assert_eq!(a.occupancy.samples().len(), b.occupancy.samples().len());
}

#[test]
fn trained_predictor_pipeline_is_deterministic() {
    let data = ShareGptLikeConfig::small(6_000, 13).generate();
    let splits = data.split(13);
    let cfg = TrainConfig {
        epochs: 3,
        ..TrainConfig::default()
    };
    let p1 = LengthPredictor::train(&splits.train, &cfg);
    let p2 = LengthPredictor::train(&splits.train, &cfg);
    assert_eq!(p1, p2);

    let trace = ShareGptLikeConfig::small(150, 3).generate();
    let engine = TdPipeEngine::new(
        ModelSpec::llama2_13b(),
        &NodeSpec::l20(2),
        TdPipeConfig::default(),
    )
    .unwrap();
    assert_eq!(
        engine.run(&trace, &p1).report,
        engine.run(&trace, &p2).report
    );
}

/// The hot-path refactor's golden gate: every scheduler, run twice over a
/// fixed trace, must produce *byte-identical* serialized reports — and the
/// parallel sweep must produce those same bytes at every thread count.
/// Catches any scheduling change that leaks into simulated results, and
/// any thread-count dependence in `run_cells_parallel`.
#[test]
fn all_schedulers_serialize_bit_identically_across_runs_and_thread_counts() {
    use tdpipe_bench::{run_cells_parallel_with_threads, run_scheduler, Scheduler};

    let trace = ShareGptLikeConfig::small(120, 5).generate();
    let cells: Vec<_> = Scheduler::ALL
        .into_iter()
        .map(|s| (s, ModelSpec::llama2_13b(), NodeSpec::l20(4)))
        .collect();

    let serialize = |r: &Option<tdpipe::sim::RunReport>| -> String {
        serde_json::to_string(r.as_ref().expect("13B fits 4xL20")).expect("serialize report")
    };

    // Golden: one serial pass; a second serial pass must match it exactly.
    let golden: Vec<String> = cells
        .iter()
        .map(|(s, m, n)| serialize(&run_scheduler(*s, m, n, &trace, &OraclePredictor)))
        .collect();
    for ((s, m, n), want) in cells.iter().zip(&golden) {
        let again = serialize(&run_scheduler(*s, m, n, &trace, &OraclePredictor));
        assert_eq!(&again, want, "{} rerun differs", s.name());
    }

    // The parallel sweep must reproduce the golden bytes in input order,
    // no matter how many workers carve up the cells.
    for threads in [1, 2, 3, 8] {
        let reports =
            run_cells_parallel_with_threads(&cells, &trace, &[], &OraclePredictor, threads);
        let got: Vec<String> = reports.iter().map(&serialize).collect();
        assert_eq!(got, golden, "{threads}-thread sweep differs");
    }
}

/// Golden gate for the million-request sweep path: a 10k-request
/// multi-seed sweep, serialized byte-for-byte, must be identical whether
/// the specs run serially or through `run_sweep_parallel_with_threads` at
/// any worker count. Unlike the cell sweep above, each spec here generates
/// its *own* trace inside the worker, so this also pins trace generation
/// determinism under concurrency.
#[test]
fn ten_k_multi_seed_sweep_is_bit_identical_serial_vs_parallel() {
    use tdpipe_bench::{run_sweep_parallel_with_threads, Scheduler, SweepSpec};

    let mut specs = Vec::new();
    for seed in [5u64, 6] {
        for s in [Scheduler::PpSb, Scheduler::TdPipe] {
            specs.push(SweepSpec::paper_cell(
                s,
                ModelSpec::llama2_13b(),
                NodeSpec::l20(4),
                10_000,
                seed,
            ));
        }
    }

    let serialize = |r: &Option<tdpipe::sim::RunReport>| -> String {
        serde_json::to_string(r.as_ref().expect("13B fits 4xL20")).expect("serialize report")
    };

    let golden: Vec<String> = specs
        .iter()
        .map(|spec| serialize(&spec.run(&OraclePredictor)))
        .collect();

    for threads in [1, 2, 8] {
        let reports = run_sweep_parallel_with_threads(&specs, &OraclePredictor, threads);
        let got: Vec<String> = reports.iter().map(&serialize).collect();
        assert_eq!(got, golden, "{threads}-thread sweep differs");
    }
}

/// Online extension of the golden gate: all five schedulers fed the same
/// Poisson arrival vector must serialize byte-identically run-over-run,
/// and the parallel sweep must reproduce those bytes at every thread
/// count. Also proves the cross-engine arrival contract: one vector is
/// *accepted* identically everywhere (the rejection side lives in
/// `cross_engine_arrival_rejection_is_uniform`).
#[test]
fn online_poisson_runs_serialize_bit_identically_across_schedulers_and_threads() {
    use tdpipe::workload::ArrivalProcess;
    use tdpipe_bench::{run_cells_parallel_with_threads, run_scheduler_with_arrivals, Scheduler};

    let trace = ShareGptLikeConfig::small(96, 5).generate();
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s: 12.0,
        seed: 17,
    }
    .sample(trace.len());
    let cells: Vec<_> = Scheduler::ALL
        .into_iter()
        .map(|s| (s, ModelSpec::llama2_13b(), NodeSpec::l20(4)))
        .collect();

    let serialize = |r: &Option<tdpipe::sim::RunReport>| -> String {
        serde_json::to_string(r.as_ref().expect("13B fits 4xL20")).expect("serialize report")
    };

    let golden: Vec<String> = cells
        .iter()
        .map(|(s, m, n)| {
            serialize(&run_scheduler_with_arrivals(
                *s,
                m,
                n,
                &trace,
                &arrivals,
                &OraclePredictor,
            ))
        })
        .collect();
    for ((s, m, n), want) in cells.iter().zip(&golden) {
        let again = serialize(&run_scheduler_with_arrivals(
            *s,
            m,
            n,
            &trace,
            &arrivals,
            &OraclePredictor,
        ));
        assert_eq!(&again, want, "{} online rerun differs", s.name());
    }
    for threads in [1, 2, 8] {
        let reports =
            run_cells_parallel_with_threads(&cells, &trace, &arrivals, &OraclePredictor, threads);
        let got: Vec<String> = reports.iter().map(&serialize).collect();
        assert_eq!(got, golden, "{threads}-thread online sweep differs");
    }
}

/// A `Waves` arrival vector (sorted contiguous bursts since the contract
/// fix) must run through every engine's `run_with_arrivals` without
/// tripping the `arrivals must be sorted` assertion.
#[test]
fn waves_arrivals_run_through_every_scheduler() {
    use tdpipe::workload::ArrivalProcess;
    use tdpipe_bench::{run_scheduler_with_arrivals, Scheduler};

    let trace = ShareGptLikeConfig::small(48, 21).generate();
    let arrivals = ArrivalProcess::Waves {
        waves: 4,
        interval_s: 15.0,
    }
    .sample(trace.len());
    for s in Scheduler::ALL {
        let r = run_scheduler_with_arrivals(
            s,
            &ModelSpec::llama2_13b(),
            &NodeSpec::l20(2),
            &trace,
            &arrivals,
            &OraclePredictor,
        )
        .expect("13B fits 2xL20");
        assert_eq!(r.num_requests, 48, "{}", s.name());
    }
}

/// The idle-advance invariant is now shared: an arrival vector whose tail
/// never arrives (`+inf`) must be *rejected* by every engine with the
/// same stuck-clock diagnostic, instead of spinning, jumping the clock to
/// infinity, or mis-reporting a KV-capacity failure.
#[test]
fn cross_engine_arrival_rejection_is_uniform() {
    use tdpipe_bench::{run_scheduler_with_arrivals, Scheduler};

    let trace = ShareGptLikeConfig::small(8, 33).generate();
    let mut arrivals = vec![0.0; trace.len()];
    arrivals[trace.len() - 1] = f64::INFINITY; // still sorted, never arrives
    for s in Scheduler::ALL {
        let trace = trace.clone();
        let arrivals = arrivals.clone();
        let outcome = std::panic::catch_unwind(move || {
            run_scheduler_with_arrivals(
                s,
                &ModelSpec::llama2_13b(),
                &NodeSpec::l20(2),
                &trace,
                &arrivals,
                &OraclePredictor,
            )
        });
        let err = outcome.expect_err("a never-arriving request must be rejected");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("nothing arriving"),
            "{} rejected with the wrong diagnostic: {msg:?}",
            s.name()
        );
    }
}

/// The other half of the shared arrival contract: an unsorted arrival
/// vector is rejected up front by every engine with the same message.
#[test]
fn cross_engine_unsorted_arrivals_are_rejected_uniformly() {
    use tdpipe_bench::{run_scheduler_with_arrivals, Scheduler};

    let trace = ShareGptLikeConfig::small(8, 33).generate();
    let mut arrivals: Vec<f64> = (0..trace.len()).map(|i| i as f64).collect();
    arrivals.swap(2, 5);
    for s in Scheduler::ALL {
        let trace = trace.clone();
        let arrivals = arrivals.clone();
        let err = std::panic::catch_unwind(move || {
            run_scheduler_with_arrivals(
                s,
                &ModelSpec::llama2_13b(),
                &NodeSpec::l20(2),
                &trace,
                &arrivals,
                &OraclePredictor,
            )
        })
        .expect_err("unsorted arrivals must be rejected");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("arrivals must be sorted"),
            "{} rejected with the wrong diagnostic: {msg:?}",
            s.name()
        );
    }
}

/// Pin: the session knobs must be invisible to non-session entry points —
/// flipping them cannot move a byte of an offline run's serialized report.
#[test]
fn session_knobs_leave_offline_runs_bit_identical() {
    let trace = ShareGptLikeConfig::small(120, 5).generate();
    let run = |reuse: bool, frac: f64| {
        let mut cfg = TdPipeConfig::default();
        cfg.engine.session_reuse = reuse;
        cfg.engine.session_retain_frac = frac;
        let out = TdPipeEngine::new(ModelSpec::llama2_13b(), &NodeSpec::l20(4), cfg)
            .unwrap()
            .run(&trace, &OraclePredictor);
        serde_json::to_string(&out.report).expect("serialize report")
    };
    let base = run(true, 0.5);
    assert_eq!(base, run(false, 0.0));
    assert_eq!(base, run(true, 1.0));
}

/// Fleet golden gate: under every router policy, a heterogeneous
/// L20+A100 fleet must serialize its aggregated `FleetReport`
/// byte-identically run-over-run, and the parallel execution path must
/// reproduce the serial bytes at every thread count (the same contract
/// the bench sweeps carry, one level up).
#[test]
fn fleet_reports_serialize_bit_identically_across_policies_and_threads() {
    use tdpipe::fleet::{
        parse_pool, run_fleet_serial, run_fleet_with_threads, FleetConfig, FleetWorkload, Replica,
        ReplicaSpec, RouterConfig, RouterPolicy,
    };
    use tdpipe::workload::ArrivalProcess;

    let trace = ShareGptLikeConfig::small(96, 5).generate();
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s: 12.0,
        seed: 17,
    }
    .sample(trace.len());
    let workload = FleetWorkload::Requests {
        trace: &trace,
        arrivals: &arrivals,
    };
    let replicas: Vec<Replica> = parse_pool("l20:2,a100:1", 2)
        .unwrap()
        .into_iter()
        .map(|(label, node)| {
            Replica::new(ReplicaSpec::td(&label, ModelSpec::llama2_13b(), node)).unwrap()
        })
        .collect();

    for policy in RouterPolicy::ALL {
        let cfg = FleetConfig {
            router: RouterConfig {
                policy,
                seed: 42,
                ..RouterConfig::default()
            },
            ..FleetConfig::default()
        };
        let golden = serde_json::to_string(
            &run_fleet_serial(&replicas, &workload, &cfg, &OraclePredictor).report,
        )
        .expect("serialize fleet report");
        let again = serde_json::to_string(
            &run_fleet_serial(&replicas, &workload, &cfg, &OraclePredictor).report,
        )
        .unwrap();
        assert_eq!(again, golden, "{} serial rerun differs", policy.name());
        for threads in [2, 3, 8] {
            let got = serde_json::to_string(
                &run_fleet_with_threads(&replicas, &workload, &cfg, &OraclePredictor, threads)
                    .report,
            )
            .unwrap();
            assert_eq!(
                got,
                golden,
                "{} {threads}-thread fleet differs",
                policy.name()
            );
        }
    }
}

/// The closed-loop variant of the fleet gate: whole sessions route
/// atomically, and the aggregated report (plus the replica-labelled
/// metrics merge) is byte-identical serial vs parallel.
#[test]
fn session_fleet_is_bit_identical_serial_vs_parallel() {
    use tdpipe::fleet::{
        parse_pool, run_fleet_serial, run_fleet_with_threads, FleetConfig, FleetWorkload, Replica,
        ReplicaSpec, RouterConfig, RouterPolicy,
    };
    use tdpipe::workload::SessionConfig;

    let sessions = SessionConfig::small(48, 19).generate();
    let workload = FleetWorkload::Sessions(&sessions);
    let mut cfg = TdPipeConfig::default();
    cfg.engine.record_metrics = true;
    let replicas: Vec<Replica> = parse_pool("l20:1,a100:1", 2)
        .unwrap()
        .into_iter()
        .map(|(label, node)| {
            Replica::new(ReplicaSpec::new(
                &label,
                ModelSpec::llama2_13b(),
                node,
                cfg.clone(),
            ))
            .unwrap()
        })
        .collect();
    let fleet_cfg = FleetConfig {
        router: RouterConfig {
            policy: RouterPolicy::SessionAffine,
            seed: 7,
            ..RouterConfig::default()
        },
        ..FleetConfig::default()
    };
    let serial = run_fleet_serial(&replicas, &workload, &fleet_cfg, &OraclePredictor);
    assert_eq!(serial.report.num_requests, sessions.len());
    for threads in [2, 8] {
        let parallel =
            run_fleet_with_threads(&replicas, &workload, &fleet_cfg, &OraclePredictor, threads);
        assert_eq!(
            serde_json::to_string(&serial.report).unwrap(),
            serde_json::to_string(&parallel.report).unwrap(),
            "{threads}-thread session fleet differs"
        );
        assert_eq!(
            serde_json::to_string(&serial.metrics).unwrap(),
            serde_json::to_string(&parallel.metrics).unwrap(),
            "{threads}-thread merged metrics differ"
        );
    }
}

/// A one-replica fleet is the degenerate cluster: whatever the policy,
/// the engine outcome must be bit-identical to calling the engine
/// directly — the router and aggregation layers add nothing.
#[test]
fn single_replica_fleet_is_bit_identical_to_direct_engine_run() {
    use tdpipe::fleet::{
        run_fleet_serial, FleetConfig, FleetWorkload, Replica, ReplicaSpec, RouterConfig,
        RouterPolicy,
    };

    let trace = ShareGptLikeConfig::small(80, 23).generate();
    let replica = Replica::new(ReplicaSpec::td(
        "solo",
        ModelSpec::llama2_13b(),
        NodeSpec::l20(2),
    ))
    .unwrap();
    let direct = TdPipeEngine::new(
        ModelSpec::llama2_13b(),
        &NodeSpec::l20(2),
        TdPipeConfig::default(),
    )
    .unwrap()
    .run(&trace, &OraclePredictor);
    let direct_bytes = serde_json::to_string(&direct.report).unwrap();
    for policy in RouterPolicy::ALL {
        let cfg = FleetConfig {
            router: RouterConfig {
                policy,
                ..RouterConfig::default()
            },
            ..FleetConfig::default()
        };
        let fleet = run_fleet_serial(
            std::slice::from_ref(&replica),
            &FleetWorkload::Requests {
                trace: &trace,
                arrivals: &[],
            },
            &cfg,
            &OraclePredictor,
        );
        assert_eq!(
            serde_json::to_string(&fleet.outcomes[0].report).unwrap(),
            direct_bytes,
            "policy {} perturbed a single-replica run",
            policy.name()
        );
    }
}

#[test]
fn different_workload_seeds_change_results() {
    let engine = TdPipeEngine::new(
        ModelSpec::llama2_13b(),
        &NodeSpec::l20(2),
        TdPipeConfig::default(),
    )
    .unwrap();
    let a = engine.run(
        &ShareGptLikeConfig::small(200, 1).generate(),
        &OraclePredictor,
    );
    let b = engine.run(
        &ShareGptLikeConfig::small(200, 2).generate(),
        &OraclePredictor,
    );
    assert_ne!(a.report.makespan, b.report.makespan);
}

#[test]
fn predictor_quality_degrades_gracefully_not_catastrophically() {
    // The engine must complete correctly even with a terrible predictor
    // (here: one that always predicts a single token), just with more
    // recompute waste than the oracle.
    struct AlwaysOne;
    impl tdpipe::predictor::OutputLenPredictor for AlwaysOne {
        fn predict(&self, _r: &tdpipe::workload::Request) -> u32 {
            1
        }
    }
    let trace = ShareGptLikeConfig::small(300, 9).generate();
    let engine = TdPipeEngine::new(
        ModelSpec::llama2_13b(),
        &NodeSpec::l20(2),
        TdPipeConfig::default(),
    )
    .unwrap();
    let bad = engine.run(&trace, &AlwaysOne);
    let good = engine.run(&trace, &OraclePredictor);
    assert_eq!(bad.report.output_tokens, good.report.output_tokens);
    assert!(
        bad.report.recompute_overhead() >= good.report.recompute_overhead(),
        "underprediction must not reduce recompute ({} vs {})",
        bad.report.recompute_overhead(),
        good.report.recompute_overhead()
    );
}

#[test]
fn determinism_rule_set_covers_every_report_feeding_crate() {
    // Every crate whose output can reach a report or a committed snapshot
    // must sit under the analyzer's determinism rule set, so wall-clock
    // reads and iteration-order hazards cannot creep back in. The only
    // crates allowed outside it must be named here, with a reason.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let cfg = analyzer::Config::load(&root.join("analyzer.toml"))
        .expect("analyzer.toml parses");
    let covered: Vec<&str> = cfg.paths_with_rule("no-instant-now");
    assert!(
        covered.contains(&"src"),
        "the root tdpipe crate must be under the determinism set"
    );
    assert!(
        covered.contains(&"crates/trace/src"),
        "the flight recorder serializes journals that are byte-compared \
         across runs — it must stay under the determinism set"
    );
    assert!(
        covered.contains(&"crates/metrics/src"),
        "metrics snapshots are byte-compared across runs and diffed \
         against a committed baseline — the registry must stay under \
         the determinism set"
    );
    assert!(
        covered.contains(&"crates/fleet/src"),
        "fleet reports are byte-compared serial-vs-parallel and across \
         thread counts — the router and aggregation must stay under the \
         determinism set"
    );
    assert!(
        covered.contains(&"crates/spans/src"),
        "span/bubble reports are byte-compared across thread counts and \
         validated bit-exactly — the causal-analysis layer must stay \
         under the determinism set"
    );

    // Exempt: `runtime` really runs threads and timeouts (wall-clock use
    // is its job; its safety rules live in the panic-safety set), and
    // `analyzer` is the lint tool itself, not part of the simulation.
    let exempt = ["runtime", "analyzer"];

    let mut missing = Vec::new();
    let mut entries: Vec<String> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|e| e.expect("read crates/ entry").file_name().into_string().expect("utf-8 crate name"))
        .collect();
    entries.sort();
    for name in &entries {
        if exempt.contains(&name.as_str()) {
            continue;
        }
        let src = format!("crates/{name}/src");
        if !covered.contains(&src.as_str()) {
            missing.push(src);
        }
    }
    assert!(
        missing.is_empty(),
        "crates outside the determinism rule set (add them to analyzer.toml \
         or to the exempt list above with a rationale): {missing:?}"
    );
}
