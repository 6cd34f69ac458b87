//! Shared harness for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one of the paper's tables or
//! figures (see DESIGN.md §4 for the index). This library holds the pieces
//! they share: the standard 5,000-request ShareGPT-like workload, the four
//! node/model combinations, a run wrapper over the [`Scheduler`] table
//! (`tdpipe-baselines`), and small plumbing for emitting results as
//! aligned text and JSON.

#![forbid(unsafe_code)]

use serde::Serialize;
use std::path::PathBuf;
use tdpipe_baselines::tdpipe_config;
pub use tdpipe_baselines::Scheduler;
use tdpipe_core::engine::RunOutcome;
use tdpipe_core::parallel::map_indexed_parallel;
use tdpipe_hw::NodeSpec;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::OutputLenPredictor;
use tdpipe_sim::RunReport;
use tdpipe_workload::{ShareGptLikeConfig, Trace, Workload};

/// Seed used for every headline experiment (determinism across binaries).
pub const PAPER_SEED: u64 = 42;

/// The paper's request count (§4.1: "randomly sample 5,000 input
/// sentences"). Override with the `TDPIPE_REQUESTS` environment variable
/// for quick runs.
pub fn num_requests() -> usize {
    std::env::var("TDPIPE_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5_000)
}

/// The standard benchmark workload.
pub fn paper_trace() -> Trace {
    ShareGptLikeConfig::small(num_requests(), PAPER_SEED).generate()
}

/// One Figure 11 combination: label, model, and node constructor.
pub type Combo = (&'static str, ModelSpec, fn(u32) -> NodeSpec);

/// The four node/model combinations of Figure 11.
pub fn paper_combos() -> Vec<Combo> {
    vec![
        (
            "L20+13B",
            ModelSpec::llama2_13b(),
            NodeSpec::l20 as fn(u32) -> NodeSpec,
        ),
        ("L20+32B", ModelSpec::qwen2_5_32b(), NodeSpec::l20),
        ("A100+32B", ModelSpec::qwen2_5_32b(), NodeSpec::a100),
        ("A100+70B", ModelSpec::llama2_70b(), NodeSpec::a100),
    ]
}

/// Run one scheduler on one configuration from its defaults (the
/// [`Scheduler`] table), observers off. Returns `None` when the model
/// does not fit the node in the scheduler's layout, or when a baseline is
/// handed sessions.
pub fn run_scheduler<P: OutputLenPredictor + ?Sized>(
    which: Scheduler,
    model: &ModelSpec,
    node: &NodeSpec,
    work: Workload<'_>,
    predictor: &P,
) -> Option<RunReport> {
    run_outcome(which, model, node, work, predictor).map(|o| o.report)
}

/// [`run_scheduler`] with the whole outcome, not only its report.
pub fn run_outcome<P: OutputLenPredictor + ?Sized>(
    which: Scheduler,
    model: &ModelSpec,
    node: &NodeSpec,
    work: Workload<'_>,
    predictor: &P,
) -> Option<RunOutcome> {
    let td = tdpipe_config(false, false, true);
    which.run(model.clone(), node, work, predictor, td).ok()
}

/// Run many `(scheduler, model, node)` cells over one trace on every host
/// core through [`map_indexed_parallel`]. Each cell is an independent
/// deterministic simulation, so the results are identical to a serial
/// sweep — only the wall time shrinks. Results come back in input order.
pub fn run_cells_parallel<P: OutputLenPredictor + Sync + ?Sized>(
    cells: &[(Scheduler, ModelSpec, NodeSpec)],
    trace: &Trace,
    predictor: &P,
) -> Vec<Option<RunReport>> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    map_indexed_parallel(cells, threads, |_, (s, model, node)| {
        run_scheduler(*s, model, node, Workload::offline(trace), predictor)
    })
}

/// Directory the binaries drop machine-readable results into.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("TDPIPE_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Persist a JSON result document.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(name);
    let file = std::fs::File::create(&path).expect("create result file");
    serde_json::to_writer_pretty(file, value).expect("serialise result");
    println!("[saved {}]", path.display());
}

/// Persist a text/CSV artifact.
pub fn save_text(name: &str, contents: &str) {
    let path = results_dir().join(name);
    std::fs::write(&path, contents).expect("write result file");
    println!("[saved {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_predictor::OraclePredictor;

    #[test]
    fn dispatch_runs_every_scheduler_on_a_tiny_trace() {
        let trace = ShareGptLikeConfig::small(24, 1).generate();
        let model = ModelSpec::llama2_13b();
        let node = NodeSpec::l20(2);
        for s in Scheduler::ALL {
            let work = Workload::offline(&trace);
            let r =
                run_scheduler(s, &model, &node, work, &OraclePredictor).expect("13B fits 2xL20");
            assert_eq!(r.num_requests, 24, "{}", s.name());
        }
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let trace = ShareGptLikeConfig::small(40, 2).generate();
        let cells: Vec<(Scheduler, ModelSpec, NodeSpec)> = Scheduler::ALL
            .into_iter()
            .map(|s| (s, ModelSpec::llama2_13b(), NodeSpec::l20(2)))
            .collect();
        let par = run_cells_parallel(&cells, &trace, &OraclePredictor);
        for ((s, m, n), got) in cells.iter().zip(&par) {
            let serial = run_scheduler(*s, m, n, Workload::offline(&trace), &OraclePredictor);
            assert_eq!(got.as_ref().map(|r| r.makespan), serial.map(|r| r.makespan));
        }
    }

    #[test]
    fn infeasible_returns_none() {
        let trace = ShareGptLikeConfig::small(4, 1).generate();
        let r = run_scheduler(
            Scheduler::TdPipe,
            &ModelSpec::llama2_70b(),
            &NodeSpec::l20(1),
            Workload::offline(&trace),
            &OraclePredictor,
        );
        assert!(r.is_none());
    }
}
