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
//! (`EngineConfig::engine_overhead`) remains visible.

use crate::config::EngineConfig;

/// The serialised CPU control-plane resource of a conventional engine.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    base: f64,
    per_seq: f64,
    cpu_free: f64,
}

impl ControlPlane {
    /// Build from engine configuration.
    pub fn new(cfg: &EngineConfig) -> Self {
        ControlPlane {
            base: cfg.engine_overhead,
            per_seq: cfg.control_per_seq,
            cpu_free: 0.0,
        }
    }

    /// A batch of `batch` sequences returned at `ready`; returns the
    /// earliest time a dependent successor job may launch, after
    /// `base + per_seq·batch` of work on the single CPU thread.
    pub fn process(&mut self, ready: f64, batch: usize) -> f64 {
        let start = ready.max(self.cpu_free);
        let done = start + self.base + self.per_seq * batch as f64;
        self.cpu_free = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane() -> ControlPlane {
        ControlPlane::new(&EngineConfig {
            engine_overhead: 1e-3,
            control_per_seq: 50e-6,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn coupled_serialises_on_one_cpu() {
        let mut c = plane();
        // Two batches of 100 seqs return at the same instant: the second
        // waits for the first's CPU work.
        let a = c.process(1.0, 100);
        let b = c.process(1.0, 100);
        assert!((a - 1.006).abs() < 1e-12);
        assert!((b - 1.012).abs() < 1e-12);
    }

    #[test]
    fn coupled_idles_between_sparse_events() {
        let mut c = plane();
        c.process(0.0, 10);
        // Much later event does not queue behind stale work.
        let t = c.process(100.0, 10);
        assert!((t - 100.0015).abs() < 1e-12);
    }
}
