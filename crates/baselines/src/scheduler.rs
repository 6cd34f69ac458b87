//! The five schedulers of Figure 11 as one table: each one's paper name,
//! its command-line spelling, and the configuration it is built from.
//! [`Scheduler::run`] is the one dispatch: any scheduler over any
//! [`Workload`], with a typed [`RunError`] where a scheduler cannot serve
//! it.

use crate::engine::{BaselineEngine, Batching, Layout};
use tdpipe_core::config::EngineConfig;
use tdpipe_core::engine::{InfeasibleConfig, RunOutcome};
use tdpipe_core::{TdPipeConfig, TdPipeEngine};
use tdpipe_hw::NodeSpec;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::OutputLenPredictor;
use tdpipe_workload::Workload;

/// The five schedulers of Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

    /// The command-line spelling (`--scheduler tp-sb`, …, `td`).
    pub const fn cli_name(self) -> &'static str {
        ["tp-sb", "tp-hb", "pp-sb", "pp-hb", "td"][self as usize]
    }

    /// The scheduler whose command-line spelling is `name`, ignoring case.
    pub fn parse(name: &str) -> Option<Scheduler> {
        Scheduler::ALL
            .into_iter()
            .find(|s| s.cli_name().eq_ignore_ascii_case(name))
    }

    /// The baseline's `(layout, batching)` cell of the policy grid, or
    /// `None` for TD-Pipe.
    pub fn baseline(self) -> Option<(Layout, Batching)> {
        // The four baselines walk the grid row by row.
        let layout = *Layout::ALL.get(self as usize / 2)?;
        Some((layout, Batching::ALL[self as usize % 2]))
    }

    /// Whether this is TD-Pipe, the one scheduler that serves sessions
    /// and runs as a fleet replica.
    pub const fn is_tdpipe(self) -> bool {
        matches!(self, Scheduler::TdPipe)
    }

    /// Run this scheduler over `work` on the simulator. TD-Pipe runs with
    /// `td`, its own configuration (build it with [`tdpipe_config`]); a
    /// baseline runs the conventional engine's `EngineConfig::default()`
    /// and takes only `td`'s metrics switch (it keeps neither a journal
    /// nor a timeline). Fails when the model does not fit the node, or
    /// when a baseline is handed closed-loop sessions, which only TD-Pipe
    /// serves.
    ///
    /// # Panics
    /// On scheduling preconditions only, as every engine's entry point:
    /// misaligned or unsorted arrivals, a request that exceeds KV
    /// capacity, or a clock that cannot advance.
    pub fn run<P: OutputLenPredictor + ?Sized>(
        self,
        model: ModelSpec,
        node: &NodeSpec,
        work: Workload<'_>,
        predictor: &P,
        td: TdPipeConfig,
    ) -> Result<RunOutcome, RunError> {
        let run = match (self.baseline(), work) {
            (None, work) => {
                let e = TdPipeEngine::new(model, node, td).map_err(RunError::Infeasible)?;
                e.try_run(work, predictor, e.sim_plane())
            }
            (Some(_), work) if work.is_sessions() => return Err(RunError::Sessions(self)),
            (Some((layout, batching)), work) => {
                let cfg = EngineConfig {
                    record_metrics: td.engine.record_metrics,
                    ..EngineConfig::default()
                };
                let e = BaselineEngine::new(layout, batching, model, node, cfg)
                    .map_err(RunError::Infeasible)?;
                e.try_run(work, predictor, e.sim_plane())
            }
        };
        Ok(run.unwrap_or_else(|e| unreachable!("the simulator cannot fail: {e}")))
    }
}

/// Why [`Scheduler::run`] has no outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The model does not fit the node in the scheduler's layout.
    Infeasible(InfeasibleConfig),
    /// A baseline was handed closed-loop sessions, which only TD-Pipe
    /// serves.
    Sessions(Scheduler),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Infeasible(e) => e.fmt(f),
            RunError::Sessions(s) => write!(
                f,
                "closed-loop sessions run on the TD-Pipe scheduler only (got {})",
                s.name()
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// TD-Pipe's own configuration (`TdPipeConfig::default()`: async
/// transfers, no sequence cap) with only the observer and session
/// switches set: `record` turns the journal and the timeline on together.
pub fn tdpipe_config(record_metrics: bool, record: bool, session_reuse: bool) -> TdPipeConfig {
    let mut cfg = TdPipeConfig::default();
    let e = &mut cfg.engine;
    e.record_metrics = record_metrics;
    e.record_trace = record;
    e.record_timeline = record;
    e.session_reuse = session_reuse;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_predictor::OraclePredictor;
    use tdpipe_workload::{ArrivalProcess, SessionConfig, ShareGptLikeConfig};

    /// The one dispatch over both workload kinds: every scheduler serves
    /// open-loop requests, offline and online; TD-Pipe's sessions run is
    /// exactly a direct engine run on the simulator; and a baseline handed
    /// sessions returns the typed error instead of panicking.
    #[test]
    fn every_scheduler_runs_both_workload_kinds() {
        let (model, node) = (ModelSpec::llama2_13b(), NodeSpec::l20(2));
        let trace = ShareGptLikeConfig::small(16, 3).generate();
        let arrivals = ArrivalProcess::Poisson {
            rate_per_s: 4.0,
            seed: 3,
        }
        .sample(trace.len());
        let sessions = SessionConfig::small(6, 5).generate();
        let td = || tdpipe_config(true, false, true);
        for s in Scheduler::ALL {
            let online = Workload::Requests {
                trace: &trace,
                arrivals: &arrivals,
            };
            for work in [Workload::offline(&trace), online] {
                let out = s
                    .run(model.clone(), &node, work, &OraclePredictor, td())
                    .unwrap();
                assert_eq!(out.report.num_requests, trace.len(), "{}", s.name());
            }
            let work = Workload::Sessions(&sessions);
            let got = s.run(model.clone(), &node, work, &OraclePredictor, td());
            if s.is_tdpipe() {
                let e = TdPipeEngine::new(model.clone(), &node, td()).unwrap();
                let direct = e.try_run(work, &OraclePredictor, e.sim_plane()).unwrap();
                let got = got.unwrap();
                assert_eq!(got.report.num_requests, sessions.len());
                assert_eq!(got.report, direct.report);
                assert_eq!(got.metrics, direct.metrics);
            } else {
                let err = got.unwrap_err();
                assert_eq!(err, RunError::Sessions(s));
                assert!(err.to_string().contains("TD-Pipe scheduler only"), "{err}");
            }
        }
    }

    /// Per-request run state is O(requests in flight): on a 20k-request
    /// offline trace (Llama-2-13B on 4×L20), every scheduler's id windows
    /// — the request pool's, the KV allocators', the §3.3 planner's —
    /// stay under a quarter of the trace. A window spans the requests
    /// admitted while its oldest unfinished one decodes: 2.3k–3.4k ids
    /// here, and about as many on a trace four times as long, except the
    /// pipeline baselines' pool windows, which also span the drift between
    /// their statically bound lanes (4.2k here, 6.4k at 80k requests).
    #[test]
    fn every_window_stays_under_a_quarter_of_an_offline_trace() {
        let (model, node) = (ModelSpec::llama2_13b(), NodeSpec::l20(4));
        let trace = ShareGptLikeConfig::small(20_000, 42).generate();
        let bound = trace.len() / 4;
        for s in Scheduler::ALL {
            let work = Workload::offline(&trace);
            let td = tdpipe_config(false, false, false);
            let out = s.run(model.clone(), &node, work, &OraclePredictor, td).unwrap();
            let w = out.windows;
            assert!(w.pool > 0 && w.kv > 0, "{}: {w:?}", s.name());
            assert_eq!(w.planner > 0, s.is_tdpipe(), "{}: {w:?}", s.name());
            for (table, span) in [("pool", w.pool), ("kv", w.kv), ("planner", w.planner)] {
                let name = s.name();
                assert!(span < bound, "{name}: {table} window spans {span} of {}", trace.len());
            }
        }
    }

    #[test]
    fn names_and_spellings() {
        assert_eq!(Scheduler::TdPipe.name(), "TD-Pipe");
        // Each baseline's grid cell spells its paper name.
        for s in Scheduler::ALL {
            let cell = s
                .baseline()
                .map(|(l, b)| format!("{}+{}", l.abbrev(), b.abbrev()));
            assert_eq!(cell.as_deref().unwrap_or("TD-Pipe"), s.name());
            assert_eq!(s.is_tdpipe(), cell.is_none());
            assert_eq!(Scheduler::parse(s.cli_name()), Some(s));
            assert_eq!(Scheduler::parse(&s.cli_name().to_uppercase()), Some(s));
        }
        assert_eq!(Scheduler::parse("TD"), Some(Scheduler::TdPipe));
        assert_eq!(Scheduler::parse("magic"), None);
        assert_eq!(Scheduler::parse("TD-Pipe"), None);
    }
}
