//! Shared harness for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one of the paper's tables or
//! figures (see DESIGN.md §4 for the index). This library holds the pieces
//! they share: the standard 5,000-request ShareGPT-like workload, the four
//! node/model combinations, a scheduler dispatch wrapper, and small
//! plumbing for emitting results as aligned text and JSON.

#![forbid(unsafe_code)]

use serde::Serialize;
use std::path::PathBuf;
use tdpipe_baselines::{BaselineEngine, Batching, Layout};
use tdpipe_core::config::EngineConfig;
use tdpipe_core::engine::RunOutcome;
use tdpipe_core::{TdPipeConfig, TdPipeEngine};
use tdpipe_hw::NodeSpec;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::OutputLenPredictor;
use tdpipe_sim::RunReport;
use tdpipe_workload::{ShareGptLikeConfig, Trace};

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

/// The five schedulers of Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Scheduler {
    /// Tensor parallel + separate batching.
    TpSb,
    /// Tensor parallel + hybrid batching (chunked prefill).
    TpHb,
    /// Pipeline parallel + separate batching.
    PpSb,
    /// Pipeline parallel + hybrid batching (chunked prefill).
    PpHb,
    /// This paper's system.
    TdPipe,
}

impl Scheduler {
    /// All five, in the paper's presentation order.
    pub const ALL: [Scheduler; 5] = [
        Scheduler::TpSb,
        Scheduler::TpHb,
        Scheduler::PpSb,
        Scheduler::PpHb,
        Scheduler::TdPipe,
    ];

    /// Display name matching the paper.
    pub const fn name(self) -> &'static str {
        ["TP+SB", "TP+HB", "PP+SB", "PP+HB", "TD-Pipe"][self as usize]
    }

    /// The baseline's `(layout, batching)` cell of the policy grid, or
    /// `None` for TD-Pipe.
    pub fn baseline(self) -> Option<(Layout, Batching)> {
        // The four baselines walk the grid row by row.
        let layout = *Layout::ALL.get(self as usize / 2)?;
        Some((layout, Batching::ALL[self as usize % 2]))
    }
}

/// Run one scheduler on one configuration. Returns `None` when the model
/// does not fit the node in the scheduler's layout.
pub fn run_scheduler<P: OutputLenPredictor + ?Sized>(
    which: Scheduler,
    model: &ModelSpec,
    node: &NodeSpec,
    trace: &Trace,
    predictor: &P,
) -> Option<RunReport> {
    run_scheduler_with_arrivals(which, model, node, trace, &[], predictor)
}

/// [`run_scheduler`] with per-request arrival times (the online
/// extension). All five engines share the `run_with_arrivals` contract:
/// arrivals non-decreasing (else `arrivals must be sorted`) and aligned
/// with the trace, latencies arrival-relative, and the same panic for a
/// request that exceeds KV capacity and for a clock that cannot advance.
pub fn run_scheduler_with_arrivals<P: OutputLenPredictor + ?Sized>(
    which: Scheduler,
    model: &ModelSpec,
    node: &NodeSpec,
    trace: &Trace,
    arrivals: &[f64],
    predictor: &P,
) -> Option<RunReport> {
    match which.baseline() {
        Some((l, b)) => BaselineEngine::new(l, b, model.clone(), node, EngineConfig::default())
            .ok()
            .map(|e| e.run_with_arrivals(trace, arrivals, predictor).report),
        None => TdPipeEngine::new(model.clone(), node, TdPipeConfig::default())
            .ok()
            .map(|e| e.run_with_arrivals(trace, arrivals, predictor).report),
    }
}

/// The lock-free parallel-map substrate every sweep in this crate runs on
/// (and `tdpipe-fleet` reuses for replica execution): workers claim item
/// indices off a shared atomic counter (so long items do not serialise
/// behind short ones), buffer `(index, result)` pairs locally, and the
/// scope's join handles deliver each worker's buffer back to the caller,
/// which scatters them into input order. No mutex is held anywhere, and
/// nothing is contended but the counter. Because each item's computation
/// is independent and deterministic, the result vector is byte-identical
/// to a serial map for *any* `threads`.
pub fn map_indexed_parallel<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        done.push((i, f(i, &items[i])));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("worker panicked") {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index claimed exactly once"))
        .collect()
}

/// Run TD-Pipe with an explicit configuration (ablations).
pub fn run_tdpipe<P: OutputLenPredictor + ?Sized>(
    model: &ModelSpec,
    node: &NodeSpec,
    trace: &Trace,
    predictor: &P,
    cfg: TdPipeConfig,
) -> Option<RunOutcome> {
    TdPipeEngine::new(model.clone(), node, cfg)
        .ok()
        .map(|e| e.run(trace, predictor))
}

/// Run many `(scheduler, model, node)` cells in parallel with scoped
/// threads. Each cell is an independent deterministic simulation, so the
/// results are identical to a serial sweep — only the wall time shrinks.
/// Results come back in input order.
pub fn run_cells_parallel<P: OutputLenPredictor + Sync + ?Sized>(
    cells: &[(Scheduler, ModelSpec, NodeSpec)],
    trace: &Trace,
    predictor: &P,
) -> Vec<Option<RunReport>> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    run_cells_parallel_with_threads(cells, trace, &[], predictor, threads)
}

/// [`run_cells_parallel`] with an explicit worker count (the determinism
/// tests sweep this to prove thread count cannot affect results) and
/// per-request `arrivals` shared by every cell (empty = offline, all at
/// t = 0; see [`run_scheduler_with_arrivals`]).
///
/// Lock-free: workers claim cells off a shared atomic counter (so long
/// cells do not serialise behind short ones), buffer `(index, report)`
/// pairs locally, and the scope's join handles deliver each worker's
/// buffer back to the caller, which scatters them into input order. No
/// mutex is held anywhere, and nothing is contended but the counter.
pub fn run_cells_parallel_with_threads<P: OutputLenPredictor + Sync + ?Sized>(
    cells: &[(Scheduler, ModelSpec, NodeSpec)],
    trace: &Trace,
    arrivals: &[f64],
    predictor: &P,
    threads: usize,
) -> Vec<Option<RunReport>> {
    map_indexed_parallel(cells, threads, |_, (s, model, node)| {
        run_scheduler_with_arrivals(*s, model, node, trace, arrivals, predictor)
    })
}

/// One unit of a multi-cell, multi-seed sweep: a scheduler/model/node cell
/// plus the workload configuration it runs on. Unlike
/// [`run_cells_parallel`], which shares one pre-generated trace across all
/// cells, a sweep generates each spec's trace *inside* the claiming worker,
/// so trace construction for large (100k–1M request) workloads parallelises
/// along with the simulation itself.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Which scheduler to run.
    pub scheduler: Scheduler,
    /// Model weights/shape.
    pub model: ModelSpec,
    /// Node the model is placed on.
    pub node: NodeSpec,
    /// Workload generator configuration (request count + seed + shape).
    pub workload: ShareGptLikeConfig,
}

impl SweepSpec {
    /// The standard paper workload at `num_requests` requests under `seed`.
    pub fn paper_cell(
        scheduler: Scheduler,
        model: ModelSpec,
        node: NodeSpec,
        num_requests: usize,
        seed: u64,
    ) -> Self {
        SweepSpec {
            scheduler,
            model,
            node,
            workload: ShareGptLikeConfig::small(num_requests, seed),
        }
    }

    /// Run this spec serially: generate the trace, then run the scheduler.
    pub fn run<P: OutputLenPredictor + ?Sized>(&self, predictor: &P) -> Option<RunReport> {
        let trace = self.workload.generate();
        run_scheduler(self.scheduler, &self.model, &self.node, &trace, predictor)
    }
}

/// Run a multi-cell, multi-seed sweep on `threads` scoped workers.
///
/// Each spec is an independent deterministic simulation over its own
/// generated trace, so the results are byte-identical to calling
/// [`SweepSpec::run`] on each spec in order for any `threads` (the
/// determinism tests sweep it) — only the wall time shrinks. Results come
/// back in input order.
///
/// Same lock-free shape as [`run_cells_parallel_with_threads`]: workers
/// claim specs off a shared atomic counter, generate the spec's trace
/// locally, run it, buffer `(index, report)` pairs, and the caller
/// scatters the buffers back into input order.
pub fn run_sweep_parallel_with_threads<P: OutputLenPredictor + Sync + ?Sized>(
    specs: &[SweepSpec],
    predictor: &P,
    threads: usize,
) -> Vec<Option<RunReport>> {
    map_indexed_parallel(specs, threads, |_, spec| spec.run(predictor))
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
    fn map_indexed_parallel_preserves_input_order_for_any_thread_count() {
        let items: Vec<usize> = (0..37).collect();
        let want: Vec<usize> = (0..37).map(|i| i * 1001).collect();
        for threads in [1, 2, 5, 64] {
            let out = map_indexed_parallel(&items, threads, |i, &x| i * 1000 + x);
            assert_eq!(out, want, "{threads} threads");
        }
        let empty: Vec<usize> = Vec::new();
        assert!(map_indexed_parallel(&empty, 4, |i, _| i).is_empty());
    }

    #[test]
    fn scheduler_names() {
        assert_eq!(Scheduler::TdPipe.name(), "TD-Pipe");
        assert_eq!(Scheduler::ALL.len(), 5);
        // Each baseline's grid cell spells its paper name.
        for s in Scheduler::ALL {
            let cell = s
                .baseline()
                .map(|(l, b)| format!("{}+{}", l.abbrev(), b.abbrev()));
            assert_eq!(cell.as_deref().unwrap_or("TD-Pipe"), s.name());
        }
    }

    #[test]
    fn dispatch_runs_every_scheduler_on_a_tiny_trace() {
        let trace = ShareGptLikeConfig::small(24, 1).generate();
        let model = ModelSpec::llama2_13b();
        let node = NodeSpec::l20(2);
        for s in Scheduler::ALL {
            let r = run_scheduler(s, &model, &node, &trace, &OraclePredictor)
                .expect("13B fits 2xL20");
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
            let serial = run_scheduler(*s, m, n, &trace, &OraclePredictor);
            assert_eq!(got.as_ref().map(|r| r.makespan), serial.map(|r| r.makespan));
        }
    }

    #[test]
    fn multi_seed_sweep_matches_serial() {
        // Mixed cells *and* seeds: every spec generates its own trace.
        let mut specs = Vec::new();
        for seed in [1u64, 2, 3] {
            for s in [Scheduler::PpSb, Scheduler::TdPipe] {
                specs.push(SweepSpec::paper_cell(
                    s,
                    ModelSpec::llama2_13b(),
                    NodeSpec::l20(2),
                    32,
                    seed,
                ));
            }
        }
        let par = run_sweep_parallel_with_threads(&specs, &OraclePredictor, 4);
        for (spec, got) in specs.iter().zip(&par) {
            let serial = spec.run(&OraclePredictor);
            assert_eq!(got.as_ref().map(|r| r.makespan), serial.map(|r| r.makespan));
        }
        // Different seeds genuinely produce different workloads.
        assert_ne!(
            par[0].as_ref().map(|r| r.makespan),
            par[2].as_ref().map(|r| r.makespan),
        );
    }

    #[test]
    fn infeasible_returns_none() {
        let trace = ShareGptLikeConfig::small(4, 1).generate();
        let r = run_scheduler(
            Scheduler::TdPipe,
            &ModelSpec::llama2_70b(),
            &NodeSpec::l20(1),
            &trace,
            &OraclePredictor,
        );
        assert!(r.is_none());
    }
}
