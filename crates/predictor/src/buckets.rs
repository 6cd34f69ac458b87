//! Percentile buckets over historical output lengths (µ-Serve style).

use tdpipe_workload::stats::percentile;

/// The percentile boundaries the paper quotes: `[P0,P25) … [P99,+)`.
const BOUNDARY_PERCENTILES: [f64; 5] = [25.0, 50.0, 75.0, 90.0, 99.0];

/// Number of buckets.
pub const NUM_BUCKETS: usize = BOUNDARY_PERCENTILES.len() + 1;

/// Output-length buckets derived from historical inference data.
///
/// `bounds[i]` is the lower edge of bucket `i + 1`; bucket `i` covers
/// `[bounds[i-1], bounds[i])`. `means[i]` is the average historical length
/// inside bucket `i` — the value [`crate::LengthPredictor`] returns when the
/// classifier picks bucket `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct PercentileBuckets {
    bounds: [f64; BOUNDARY_PERCENTILES.len()],
    means: [f64; NUM_BUCKETS],
}

impl PercentileBuckets {
    /// Fit boundaries and bucket means from historical output lengths.
    ///
    /// # Panics
    /// Panics on an empty history.
    pub fn fit(historical_lengths: &[u32]) -> Self {
        assert!(!historical_lengths.is_empty(), "need historical data");
        let as_f64: Vec<f64> = historical_lengths.iter().map(|&l| l as f64).collect();
        let mut bounds = [0.0; BOUNDARY_PERCENTILES.len()];
        for (i, &p) in BOUNDARY_PERCENTILES.iter().enumerate() {
            bounds[i] = percentile(&as_f64, p);
        }

        let mut sums = [0.0f64; NUM_BUCKETS];
        let mut counts = [0u64; NUM_BUCKETS];
        let mut this = PercentileBuckets {
            bounds,
            means: [0.0; NUM_BUCKETS],
        };
        for &l in historical_lengths {
            let b = this.bucket_of(l);
            sums[b] += l as f64;
            counts[b] += 1;
        }
        for i in 0..NUM_BUCKETS {
            this.means[i] = if counts[i] > 0 {
                sums[i] / counts[i] as f64
            } else {
                // Degenerate distributions can leave a bucket empty; fall
                // back to its lower boundary.
                if i == 0 {
                    0.0
                } else {
                    this.bounds[i - 1]
                }
            };
        }
        this
    }

    /// Bucket index of a length.
    pub fn bucket_of(&self, len: u32) -> usize {
        let l = len as f64;
        self.bounds.iter().position(|&b| l < b).unwrap_or(NUM_BUCKETS - 1)
    }

    /// Predicted length when the classifier picks `bucket` (the bucket's
    /// training-set mean, rounded up so capacity simulations err safe).
    ///
    /// # Panics
    /// Panics if `bucket >= NUM_BUCKETS`.
    pub fn predicted_len(&self, bucket: usize) -> u32 {
        self.means[bucket].ceil() as u32
    }

    /// Number of buckets (always [`NUM_BUCKETS`]).
    pub const fn num_buckets(&self) -> usize {
        NUM_BUCKETS
    }

    /// The fitted boundaries (P25, P50, P75, P90, P99).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_line_in_order() {
        let hist: Vec<u32> = (1..=1000).collect();
        let b = PercentileBuckets::fit(&hist);
        assert_eq!(b.bucket_of(0), 0);
        assert_eq!(b.bucket_of(1), 0);
        // Monotone bucket index in length.
        let mut prev = 0;
        for l in (0..=1100).step_by(10) {
            let cur = b.bucket_of(l);
            assert!(cur >= prev);
            prev = cur;
        }
        assert_eq!(b.bucket_of(100_000), NUM_BUCKETS - 1);
    }

    #[test]
    fn quartile_masses_are_correct() {
        let hist: Vec<u32> = (1..=10_000).collect();
        let b = PercentileBuckets::fit(&hist);
        let mut counts = [0usize; NUM_BUCKETS];
        for &l in &hist {
            counts[b.bucket_of(l)] += 1;
        }
        let n = hist.len() as f64;
        let frac: Vec<f64> = counts.iter().map(|&c| c as f64 / n).collect();
        for (i, expect) in [0.25, 0.25, 0.25, 0.15, 0.09, 0.01].iter().enumerate() {
            assert!(
                (frac[i] - expect).abs() < 0.01,
                "bucket {i}: got {} want {expect}",
                frac[i]
            );
        }
    }

    #[test]
    fn bucket_means_sit_inside_their_bucket() {
        let hist: Vec<u32> = (1..=5000).map(|i| i % 700 + 1).collect();
        let b = PercentileBuckets::fit(&hist);
        let bounds = b.bounds();
        for i in 0..NUM_BUCKETS {
            let m = b.means[i];
            if i > 0 {
                assert!(m >= bounds[i - 1], "bucket {i} mean {m} below lower bound");
            }
            if i < bounds.len() {
                assert!(m <= bounds[i], "bucket {i} mean {m} above upper bound");
            }
        }
    }

    #[test]
    fn constant_history_degenerates_gracefully() {
        let b = PercentileBuckets::fit(&[100; 50]);
        // Everything lands in the last bucket (all bounds == 100, and
        // 100 < 100 is false), whose mean is 100.
        assert_eq!(b.bucket_of(100), NUM_BUCKETS - 1);
        assert_eq!(b.predicted_len(NUM_BUCKETS - 1), 100);
    }

    #[test]
    #[should_panic(expected = "historical")]
    fn empty_history_panics() {
        PercentileBuckets::fit(&[]);
    }
}
