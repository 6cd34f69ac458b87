//! Spatial-temporal intensity comparison (paper §3.5, Fig. 10).
//!
//! *Spatial intensity* prices staying in decode: the ratio of the decode
//! throughput achieved at the current batch size to the peak achievable
//! throughput (profiled offline, Eq. 1). It decays as requests complete
//! and batches shrink.
//!
//! *Temporal intensity* prices switching to prefill now: `1 − bubble/total`
//! (Eq. 2), where `bubble` is the pipeline gap a switch would open — the
//! difference between the longest pending prefill and the current decode
//! step — and `total` is the length of the hypothetical next prefill phase.
//!
//! The engine switches from decode to prefill the moment spatial intensity
//! drops below temporal intensity.

#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
#![deny(clippy::allow_attributes_without_reason, unfulfilled_lint_expectations)]

use tdpipe_hw::DecodeProfile;

/// A priced hypothetical "next prefill phase".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefillPhaseEstimate {
    /// End-to-end latency of the *longest* pending prefill job.
    pub longest_job: f64,
    /// Total duration of the pending prefills (sum of per-job bottleneck
    /// stage times — the steady-state phase length once the pipe fills).
    pub phase_len: f64,
}

/// One evaluated spatial-vs-temporal comparison — what
/// [`IntensityComparator::decide`] returns so the flight recorder can
/// journal the decision with the numbers that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchScores {
    /// Eq. 1 spatial intensity at the observed batch size.
    pub spatial: f64,
    /// Eq. 2 temporal intensity for switching now.
    pub temporal: f64,
    /// The verdict: `spatial < temporal`.
    pub switch: bool,
}

/// The decode→prefill decision rule.
#[derive(Debug, Clone)]
pub struct IntensityComparator {
    profile: DecodeProfile,
}

impl IntensityComparator {
    /// Wrap an offline decode profile.
    pub fn new(profile: DecodeProfile) -> Self {
        IntensityComparator { profile }
    }

    /// Eq. 1: `Achieved(batch) / Peak`.
    pub fn spatial(&self, batch: usize) -> f64 {
        self.profile.spatial_intensity(batch)
    }

    /// Eq. 2: `1 − bubble / total` for switching *now*, given the current
    /// decode step time and the estimate of the pending prefill phase.
    ///
    /// Returns 0.0 when the hypothetical prefill phase is empty (no free
    /// memory or nothing pending fits): switching then buys nothing and
    /// would be pure bubble.
    pub fn temporal(&self, estimate: &PrefillPhaseEstimate, current_decode_step: f64) -> f64 {
        if estimate.phase_len <= 0.0 {
            return 0.0;
        }
        let bubble = (estimate.longest_job - current_decode_step).max(0.0);
        let total = estimate.phase_len + bubble;
        1.0 - bubble / total
    }

    /// The decision: switch when spatial intensity falls below temporal.
    /// Returns the verdict with the two intensities it compared, for the
    /// flight recorder.
    pub fn decide(
        &self,
        batch: usize,
        estimate: &PrefillPhaseEstimate,
        current_decode_step: f64,
    ) -> SwitchScores {
        let spatial = self.spatial(batch);
        let temporal = self.temporal(estimate, current_decode_step);
        SwitchScores {
            spatial,
            temporal,
            switch: spatial < temporal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_hw::{GpuSpec, KernelModel};
    use tdpipe_model::ModelSpec;

    fn comparator() -> IntensityComparator {
        let k = KernelModel::calibrated(GpuSpec::l20());
        let m = ModelSpec::llama2_13b();
        let profile = DecodeProfile::build(512, |b| {
            k.stage_time(
                &m.decode_layer_work(b, b as u64 * 300),
                m.layers,
                &[m.lm_head_work(b as u64)],
            )
        });
        IntensityComparator::new(profile)
    }

    #[test]
    fn full_batches_stay_in_decode() {
        let c = comparator();
        // Long prefill backlog, decode still at high intensity.
        let est = PrefillPhaseEstimate {
            longest_job: 2.0,
            phase_len: 20.0,
        };
        assert!(!c.decide(512, &est, 0.05).switch);
    }

    #[test]
    fn drained_batches_switch() {
        let c = comparator();
        let est = PrefillPhaseEstimate {
            longest_job: 2.0,
            phase_len: 20.0,
        };
        assert!(c.decide(4, &est, 0.02).switch);
    }

    #[test]
    fn bigger_pending_backlog_switches_earlier() {
        // With a longer next prefill phase the same bubble matters less:
        // temporal intensity rises, so the switch happens at a larger batch.
        let c = comparator();
        let small_backlog = PrefillPhaseEstimate {
            longest_job: 3.0,
            phase_len: 3.0,
        };
        let big_backlog = PrefillPhaseEstimate {
            longest_job: 3.0,
            phase_len: 60.0,
        };
        let step = 0.05;
        // Find the largest batch at which each backlog triggers a switch.
        let threshold = |est: &PrefillPhaseEstimate| {
            (1..=512)
                .rev()
                .find(|&b| c.decide(b, est, step).switch)
                .unwrap_or(0)
        };
        assert!(threshold(&big_backlog) >= threshold(&small_backlog));
    }

    #[test]
    fn zero_bubble_means_temporal_one() {
        let c = comparator();
        // Decode step longer than the longest prefill: switching is free.
        let est = PrefillPhaseEstimate {
            longest_job: 0.1,
            phase_len: 1.0,
        };
        assert_eq!(c.temporal(&est, 0.5), 1.0);
    }

    #[test]
    fn empty_backlog_never_switches() {
        let c = comparator();
        let est = PrefillPhaseEstimate {
            longest_job: 0.0,
            phase_len: 0.0,
        };
        assert_eq!(c.temporal(&est, 0.01), 0.0);
        assert!(!c.decide(1, &est, 0.01).switch);
    }
}
