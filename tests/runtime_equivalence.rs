//! The threaded hierarchy-controller and the deterministic simulator must
//! agree on realistic engine-generated job streams, in every transfer
//! mode — this is what licenses using the fast simulator for the paper's
//! experiments while claiming the concurrent §3.2 architecture.

use std::time::Duration;
use tdpipe::core::cost::PpCost;
use tdpipe::hw::NodeSpec;
use tdpipe::model::ModelSpec;
use tdpipe::runtime::{Cluster, JobSpec};
use tdpipe::sim::{PipelineSim, SegmentKind, TransferMode};

const WAIT: Duration = Duration::from_secs(10);

fn engine_like_stream(cost: &PpCost, jobs: usize) -> Vec<(Vec<f64>, Vec<f64>, SegmentKind)> {
    let mut out = Vec::with_capacity(jobs);
    let mut x = 0xDEADBEEFu64;
    for i in 0..jobs {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if i % 7 == 0 {
            let a = 64 + (x % 900) as u32;
            let b = 64 + ((x >> 16) % 900) as u32;
            let j = cost.prefill_job(&[a, b]);
            out.push((j.exec, j.xfer, SegmentKind::Prefill));
        } else {
            let batch = 16 + (x % 200) as usize;
            let j = cost.decode_job(batch, batch as u64 * (100 + (x >> 24) % 400));
            out.push((j.exec, j.xfer, SegmentKind::Decode));
        }
    }
    out
}

fn assert_equivalent(mode: TransferMode, world: u32) {
    let cost = PpCost::new(ModelSpec::llama2_13b(), &NodeSpec::l20(world));
    let stream = engine_like_stream(&cost, 300);

    let mut sim = PipelineSim::new(world, mode, false);
    let expected: Vec<f64> = stream
        .iter()
        .enumerate()
        .map(|(id, (e, x, k))| sim.launch(0.0, e, x, *k, id as u64).finish)
        .collect();

    let mut cluster = Cluster::spawn(world, mode);
    for (id, (e, x, k)) in stream.iter().enumerate() {
        cluster
            .launch(JobSpec {
                id: id as u64,
                ready: 0.0,
                exec: e.clone(),
                xfer: x.clone(),
                kind: *k,
            })
            .expect("launch on healthy cluster");
    }
    for (id, want) in expected.iter().enumerate() {
        let got = cluster.next_completion(WAIT).expect("completion");
        assert_eq!(got.id as usize, id);
        assert!(
            (got.finish - want).abs() < 1e-9,
            "{mode:?} job {id}: threads {} vs sim {want}",
            got.finish
        );
    }
    let logs = cluster.shutdown(WAIT).expect("clean shutdown");
    assert_eq!(logs.len(), world as usize);
    assert!(logs.iter().all(|l| l.jobs() == 300));
}

#[test]
fn async_mode_is_equivalent_4_stages() {
    assert_equivalent(TransferMode::Async, 4);
}

#[test]
fn blocking_mode_is_equivalent_4_stages() {
    assert_equivalent(TransferMode::Blocking, 4);
}

#[test]
fn rendezvous_mode_is_equivalent_4_stages() {
    assert_equivalent(TransferMode::Rendezvous, 4);
}

#[test]
fn equivalence_holds_for_2_and_8_stages() {
    assert_equivalent(TransferMode::Async, 2);
    assert_equivalent(TransferMode::Rendezvous, 2);
    assert_equivalent(TransferMode::Async, 8);
}

#[test]
fn worker_segments_reconstruct_busy_time() {
    // The threaded workers' activity logs must reproduce the simulator's
    // per-stage busy time (utilization parity).
    let world = 4u32;
    let cost = PpCost::new(ModelSpec::llama2_13b(), &NodeSpec::l20(world));
    let stream = engine_like_stream(&cost, 100);

    let mut sim = PipelineSim::new(world, TransferMode::Async, true);
    for (id, (e, x, k)) in stream.iter().enumerate() {
        sim.launch(0.0, e, x, *k, id as u64);
    }

    let mut cluster = Cluster::spawn(world, TransferMode::Async);
    for (id, (e, x, k)) in stream.iter().enumerate() {
        cluster
            .launch(JobSpec {
                id: id as u64,
                ready: 0.0,
                exec: e.clone(),
                xfer: x.clone(),
                kind: *k,
            })
            .expect("launch on healthy cluster");
    }
    for _ in 0..stream.len() {
        cluster.next_completion(WAIT).unwrap();
    }
    let logs = cluster.shutdown(WAIT).expect("clean shutdown");
    for (rank, log) in logs.iter().enumerate() {
        let threaded_busy: f64 = log.segments().iter().map(|s| s.end - s.start).sum();
        let sim_busy = sim.timeline().busy_time(rank as u32);
        assert!(
            (threaded_busy - sim_busy).abs() < 1e-9,
            "stage {rank}: {threaded_busy} vs {sim_busy}"
        );
    }
}

#[test]
fn full_tdpipe_engine_runs_identically_on_real_threads() {
    // The headline §3.2 validation: the unmodified TD-Pipe scheduling loop
    // driving the threaded hierarchy-controller produces the exact same
    // report as the deterministic simulator.
    use tdpipe::core::exec::SimExecutor;
    use tdpipe::core::{TdPipeConfig, TdPipeEngine};
    use tdpipe::predictor::OraclePredictor;
    use tdpipe::runtime::ThreadedExecutor;
    use tdpipe::workload::{ShareGptLikeConfig, Workload};

    let trace = ShareGptLikeConfig::small(200, 42).generate();
    let cfg = TdPipeConfig::default();
    let engine = TdPipeEngine::new(
        ModelSpec::llama2_13b(),
        &NodeSpec::l20(4),
        cfg.clone(),
    )
    .unwrap();

    let sim_out = engine
        .try_run(
            Workload::offline(&trace),
            &OraclePredictor,
            Box::new(SimExecutor::new(4, cfg.engine.transfer_mode, false)),
        )
        .expect("the simulator cannot fail");
    let thr_out = engine
        .try_run(
            Workload::offline(&trace),
            &OraclePredictor,
            Box::new(ThreadedExecutor::spawn(4, cfg.engine.transfer_mode, false)),
        )
        .expect("healthy plane");
    assert_eq!(sim_out.report, thr_out.report);
    assert_eq!(sim_out.phases, thr_out.phases);
}

#[test]
fn every_baseline_runs_identically_on_real_threads() {
    // The baselines share TD-Pipe's execution-plane seam: each one's
    // scheduling loop, driving the threaded hierarchy-controller, must
    // reproduce its simulator report exactly.
    use tdpipe::baselines::{BaselineEngine, Batching, Layout};
    use tdpipe::core::config::EngineConfig;
    use tdpipe::predictor::OraclePredictor;
    use tdpipe::runtime::ThreadedExecutor;
    use tdpipe::workload::ShareGptLikeConfig;

    let trace = ShareGptLikeConfig::small(120, 42).generate();
    let cfg = EngineConfig::default();
    for layout in Layout::ALL {
        for batching in Batching::ALL {
            let engine = BaselineEngine::new(
                layout,
                batching,
                ModelSpec::llama2_13b(),
                &NodeSpec::l20(4),
                cfg.clone(),
            )
            .expect("13B fits 4xL20");
            let sim = engine.run(&trace, &OraclePredictor);
            let plane = ThreadedExecutor::spawn(engine.num_stages(), cfg.transfer_mode, false);
            let threaded = engine
                .try_run_on(&trace, &[], &OraclePredictor, Box::new(plane))
                .expect("healthy plane");
            assert_eq!(sim.report, threaded.report, "{}", engine.name());
        }
    }
}

/// Online arrivals exercise the shared loop's idle fast-forward and the
/// arrival checks on real threads: every scheduler, driving the threaded
/// hierarchy-controller under Poisson arrivals, reproduces its simulator
/// report exactly (and TD-Pipe its phase log too).
#[test]
fn every_scheduler_runs_poisson_arrivals_identically_on_real_threads() {
    use tdpipe::baselines::{BaselineEngine, Batching, Layout};
    use tdpipe::core::config::EngineConfig;
    use tdpipe::core::exec::SimExecutor;
    use tdpipe::core::{TdPipeConfig, TdPipeEngine};
    use tdpipe::predictor::OraclePredictor;
    use tdpipe::runtime::ThreadedExecutor;
    use tdpipe::workload::{ArrivalProcess, ShareGptLikeConfig, Workload};

    let poisson = |n: usize| {
        let trace = ShareGptLikeConfig::small(n, 42).generate();
        let arrivals = ArrivalProcess::Poisson {
            rate_per_s: 4.0,
            seed: 42,
        }
        .sample(n);
        (trace, arrivals)
    };

    let (trace, arrivals) = poisson(200);
    let cfg = TdPipeConfig::default();
    let engine = TdPipeEngine::new(ModelSpec::llama2_13b(), &NodeSpec::l20(4), cfg.clone())
        .expect("13B fits 4xL20");
    let mode = cfg.engine.transfer_mode;
    let online = Workload::Requests {
        trace: &trace,
        arrivals: &arrivals,
    };
    let sim = engine
        .try_run(online, &OraclePredictor, Box::new(SimExecutor::new(4, mode, false)))
        .expect("the simulator cannot fail");
    let threaded = engine
        .try_run(
            online,
            &OraclePredictor,
            Box::new(ThreadedExecutor::spawn(4, mode, false)),
        )
        .expect("healthy plane");
    assert!(sim.report.phase_switches > 2, "arrivals must split the run into phases");
    assert_eq!(sim.report, threaded.report, "TD-Pipe");
    assert_eq!(sim.phases, threaded.phases, "TD-Pipe");

    let (trace, arrivals) = poisson(120);
    let cfg = EngineConfig::default();
    for layout in Layout::ALL {
        for batching in Batching::ALL {
            let engine = BaselineEngine::new(
                layout,
                batching,
                ModelSpec::llama2_13b(),
                &NodeSpec::l20(4),
                cfg.clone(),
            )
            .expect("13B fits 4xL20");
            let sim = engine
                .try_run_on(&trace, &arrivals, &OraclePredictor, engine.sim_plane())
                .expect("the simulator cannot fail");
            let plane = ThreadedExecutor::spawn(engine.num_stages(), cfg.transfer_mode, false);
            let threaded = engine
                .try_run_on(&trace, &arrivals, &OraclePredictor, Box::new(plane))
                .expect("healthy plane");
            assert_eq!(sim.report, threaded.report, "{}", engine.name());
        }
    }
}

#[test]
fn threaded_engine_utilization_matches_sim() {
    use tdpipe::core::exec::SimExecutor;
    use tdpipe::core::{TdPipeConfig, TdPipeEngine};
    use tdpipe::predictor::OraclePredictor;
    use tdpipe::runtime::ThreadedExecutor;
    use tdpipe::workload::{ShareGptLikeConfig, Workload};

    let trace = ShareGptLikeConfig::small(120, 7).generate();
    let mut cfg = TdPipeConfig::default();
    cfg.engine.record_timeline = true;
    let engine =
        TdPipeEngine::new(ModelSpec::qwen2_5_32b(), &NodeSpec::a100(4), cfg.clone()).unwrap();
    let sim_out = engine
        .try_run(
            Workload::offline(&trace),
            &OraclePredictor,
            Box::new(SimExecutor::new(4, cfg.engine.transfer_mode, true)),
        )
        .expect("the simulator cannot fail");
    let thr_out = engine
        .try_run(
            Workload::offline(&trace),
            &OraclePredictor,
            Box::new(ThreadedExecutor::spawn(4, cfg.engine.transfer_mode, true)),
        )
        .expect("healthy plane");
    assert!(
        (sim_out.report.mean_utilization - thr_out.report.mean_utilization).abs() < 1e-6,
        "sim {} vs threads {}",
        sim_out.report.mean_utilization,
        thr_out.report.mean_utilization
    );
}
