//! Control-plane timing model of a conventional engine.
//!
//! Between a batch returning from the GPUs and its successor launching, an
//! inference engine does CPU work: process sampled tokens, detokenise,
//! update the scheduler, assemble and transmit the next batch. In a
//! conventional engine (vLLM 0.5.x) this work is synchronous with
//! execution and serialised on one driver thread across all virtual
//! engines — with large decode batches it stalls the GPUs. The baselines
//! pay it through [`ControlPlane`]. TD-Pipe's hierarchy-controller (§3.2)
//! decouples the control plane from the execution plane, overlapping that
//! work with the other in-flight batches, so only the launch cost
//! ([`ENGINE_OVERHEAD`]) remains visible.

use crate::config::{CONTROL_PER_SEQ, ENGINE_OVERHEAD};

/// The serialised CPU control-plane resource of a conventional engine.
#[derive(Debug, Clone, Default)]
pub struct ControlPlane {
    cpu_free: f64,
}

impl ControlPlane {
    /// A batch of `batch` sequences returned at `ready`; returns the
    /// earliest time a dependent successor job may launch, after
    /// `ENGINE_OVERHEAD + CONTROL_PER_SEQ·batch` of work on the single
    /// CPU thread.
    pub fn process(&mut self, ready: f64, batch: usize) -> f64 {
        let start = ready.max(self.cpu_free);
        let done = start + ENGINE_OVERHEAD + CONTROL_PER_SEQ * batch as f64;
        self.cpu_free = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CPU work for one returned batch of `n` sequences.
    fn work(n: usize) -> f64 {
        ENGINE_OVERHEAD + CONTROL_PER_SEQ * n as f64
    }

    #[test]
    fn calibration_constants_price_a_batch() {
        // 1 ms launch + 100 × 30 µs of per-sequence processing.
        assert!((work(100) - 0.004).abs() < 1e-12);
        assert!((work(10) - 0.0013).abs() < 1e-12);
    }

    #[test]
    fn coupled_serialises_on_one_cpu() {
        let mut c = ControlPlane::default();
        // Two batches of 100 seqs return at the same instant: the second
        // waits for the first's CPU work.
        let a = c.process(1.0, 100);
        let b = c.process(1.0, 100);
        assert!((a - (1.0 + work(100))).abs() < 1e-12);
        assert!((b - (1.0 + 2.0 * work(100))).abs() < 1e-12);
    }

    #[test]
    fn coupled_idles_between_sparse_events() {
        let mut c = ControlPlane::default();
        c.process(0.0, 10);
        // Much later event does not queue behind stale work.
        let t = c.process(100.0, 10);
        assert!((t - (100.0 + work(10))).abs() < 1e-12);
    }
}
