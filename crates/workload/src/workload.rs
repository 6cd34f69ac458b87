//! The one description of a run: what an engine, a scheduler, a fleet
//! replica or the whole fleet is asked to serve.

use crate::{SessionTrace, Trace};

/// A run's offered workload, borrowed from the caller.
#[derive(Debug, Clone, Copy)]
pub enum Workload<'a> {
    /// Open-loop requests. `arrivals` is one non-decreasing time per
    /// request, or empty for the paper's offline setting (everything
    /// queued at t = 0); latencies come out arrival-relative.
    Requests {
        trace: &'a Trace,
        arrivals: &'a [f64],
    },
    /// Closed-loop multi-turn sessions: each resumed turn arrives only
    /// after its predecessor finishes plus think time.
    Sessions(&'a SessionTrace),
}

impl<'a> Workload<'a> {
    /// The paper's offline setting: every request of `trace` queued at
    /// t = 0.
    pub fn offline(trace: &'a Trace) -> Self {
        Workload::Requests {
            trace,
            arrivals: &[],
        }
    }

    /// Total requests (turns, for sessions) offered.
    pub fn len(&self) -> usize {
        match self {
            Workload::Requests { trace, .. } => trace.len(),
            Workload::Sessions(st) => st.len(),
        }
    }

    /// Whether there is nothing to serve.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
