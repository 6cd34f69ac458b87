//! Message types and the SPMD communication context.

use tdpipe_sim::SegmentKind;

/// One pipeline job as the engine describes it to the execution plane.
///
/// Times are *virtual seconds* produced by the analytical cost model; the
/// runtime's job is to order and overlap them exactly as real kernels
/// would be.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Engine-assigned identifier (returned in the [`Completion`]).
    pub id: u64,
    /// Earliest virtual time the job may start on stage 0.
    pub ready: f64,
    /// Per-stage execution seconds (`len == world`).
    pub exec: Vec<f64>,
    /// Per-boundary transfer seconds (`len == world - 1`).
    pub xfer: Vec<f64>,
    /// Activity class (for tracing parity with the simulator).
    pub kind: SegmentKind,
}

/// Completion record sent by the last stage back to the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Job identifier.
    pub id: u64,
    /// Virtual time the job left the last stage.
    pub finish: f64,
}

/// What an SPMD worker knows about its place in the world (paper §3.2.2:
/// "a worker knows its position based on the global communication
/// context").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommContext {
    /// This worker's pipeline rank (stage index).
    pub rank: u32,
    /// Total number of stages.
    pub world: u32,
}

impl CommContext {
    /// Whether this worker runs the last stage.
    #[inline]
    pub fn is_last(&self) -> bool {
        self.rank + 1 == self.world
    }
}

/// Messages flowing down the worker chain.
#[derive(Debug, Clone)]
pub enum StageMsg {
    /// A job's activations arrive from upstream (or from the engine for
    /// stage 0) at `arrive` virtual time.
    Job {
        /// The job being forwarded.
        spec: JobSpec,
        /// Virtual arrival time at this stage.
        arrive: f64,
    },
    /// Orderly shutdown; forwarded down the chain.
    Shutdown,
}

/// Acknowledgement used by the blocking/rendezvous transfer styles: the
/// downstream worker reports when it actually *started* the job, holding
/// the sender until then.
#[derive(Debug, Clone, Copy)]
pub struct StartAck {
    /// Virtual time the downstream stage started executing the job.
    pub started: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_context_edges() {
        let first = CommContext { rank: 0, world: 4 };
        let last = CommContext { rank: 3, world: 4 };
        let only = CommContext { rank: 0, world: 1 };
        assert!(!first.is_last());
        assert!(last.is_last());
        assert!(only.is_last());
    }
}
