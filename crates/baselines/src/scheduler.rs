//! The five schedulers of Figure 11 as one table: each one's paper name,
//! its command-line spelling, and the configuration it is built from.

use crate::engine::{BaselineEngine, Batching, Layout};
use tdpipe_core::config::EngineConfig;
use tdpipe_core::engine::{InfeasibleConfig, RunOutcome};
use tdpipe_core::{TdPipeConfig, TdPipeEngine};
use tdpipe_hw::NodeSpec;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::OutputLenPredictor;
use tdpipe_workload::Trace;

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

    /// Whether this is TD-Pipe, the one scheduler that serves sessions,
    /// keeps a journal and runs as a fleet replica.
    pub const fn is_tdpipe(self) -> bool {
        matches!(self, Scheduler::TdPipe)
    }

    /// Run this scheduler over `trace`, built from the configuration it
    /// is evaluated with: [`tdpipe_config`] for TD-Pipe, the conventional
    /// engine's `EngineConfig::default()` for a baseline. `arrivals` is
    /// empty (everything queued at t = 0) or one non-decreasing time per
    /// request. `record_metrics` switches the metrics plane on; `record`
    /// switches TD-Pipe's journal and timeline on (the baselines keep
    /// neither). Fails when the model does not fit the node.
    ///
    /// # Panics
    /// As every engine's `run_with_arrivals`: on misaligned or unsorted
    /// arrivals, a request that exceeds KV capacity, or a clock that
    /// cannot advance.
    #[allow(clippy::too_many_arguments)]
    pub fn run<P: OutputLenPredictor + ?Sized>(
        self,
        model: ModelSpec,
        node: &NodeSpec,
        trace: &Trace,
        arrivals: &[f64],
        predictor: &P,
        record_metrics: bool,
        record: bool,
    ) -> Result<RunOutcome, InfeasibleConfig> {
        Ok(match self.baseline() {
            Some((layout, batching)) => {
                let cfg = EngineConfig {
                    record_metrics,
                    ..EngineConfig::default()
                };
                BaselineEngine::new(layout, batching, model, node, cfg)?
                    .run_with_arrivals(trace, arrivals, predictor)
            }
            None => TdPipeEngine::new(model, node, tdpipe_config(record_metrics, record, true))?
                .run_with_arrivals(trace, arrivals, predictor),
        })
    }
}

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
