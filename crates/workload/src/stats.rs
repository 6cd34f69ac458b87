//! Summary statistics over traces (and the percentile helper the
//! length-predictor's bucket boundaries reuse).

use crate::trace::Trace;
use serde::{Deserialize, Serialize};

/// Percentile of a sample by linear interpolation between order statistics.
///
/// `p` is in `[0, 100]`. The input does not need to be sorted.
///
/// # Panics
/// Panics on an empty sample or `p` outside `[0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, p)
}

/// [`percentile`] over an already-sorted sample: callers that need several
/// percentiles of the same field sort once and interpolate many times,
/// instead of paying a clone + sort per call.
///
/// `sorted` must be ascending (total order); `p` is in `[0, 100]`.
///
/// # Panics
/// Panics on an empty sample or `p` outside `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&p), "p={p} out of range");
    debug_assert!(
        sorted.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
        "sample must be sorted"
    );
    interpolate(sorted.len(), p, |r| sorted[r])
}

/// [`percentile_sorted`] at each of `ps` (ascending) over an unsorted
/// sample, bit for bit: instead of sorting, it selects only the order
/// statistics the percentiles read (`select_nth_unstable_by` with
/// `f64::total_cmp`, one O(n) pass per rank), leaving `sample` partially
/// reordered. Elements equal under the total order have equal bits, so
/// each selected value is exactly the sorted copy's.
///
/// # Panics
/// Panics on an empty sample, a `p` outside `[0, 100]`, or descending `ps`.
pub fn percentiles_selected<const N: usize>(sample: &mut [f64], ps: [f64; N]) -> [f64; N] {
    assert!(!sample.is_empty(), "percentile of empty sample");
    assert!(
        ps.windows(2).all(|w| w[0] <= w[1]),
        "percentiles must ascend"
    );
    // `sample[..fixed]` holds the `fixed` smallest values, the last of them
    // in its sorted place; ranks ascend, so a rank below `fixed` was
    // selected already.
    let mut fixed = 0;
    ps.map(|p| {
        assert!((0.0..=100.0).contains(&p), "p={p} out of range");
        interpolate(sample.len(), p, |r| {
            if r >= fixed {
                sample[fixed..].select_nth_unstable_by(r - fixed, f64::total_cmp);
                fixed = r + 1;
            }
            sample[r]
        })
    })
}

/// Linear interpolation between the order statistics (read through `at`)
/// around percentile `p` of a sample of `len` values: the one formula
/// behind [`percentile_sorted`] and [`percentiles_selected`].
fn interpolate(len: usize, p: f64, mut at: impl FnMut(usize) -> f64) -> f64 {
    let rank = p / 100.0 * (len - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        at(lo)
    } else {
        let frac = rank - lo as f64;
        at(lo) * (1.0 - frac) + at(hi) * frac
    }
}

/// Descriptive statistics of a trace, printed by examples and benches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Number of requests.
    pub count: usize,
    /// Mean / p50 / p90 / max of input lengths.
    pub input: FieldStats,
    /// Mean / p50 / p90 / max of output lengths.
    pub output: FieldStats,
    /// Total tokens (inputs + outputs).
    pub total_tokens: u64,
}

/// Moments of one length field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FieldStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Maximum.
    pub max: u32,
}

impl FieldStats {
    fn compute(values: &[f64]) -> Self {
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        // One sort serves every order statistic (p50, p90, max) — the old
        // code cloned + re-sorted per percentile call.
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        // Total-order max: under total_cmp a NaN sorts *after* every
        // number (unlike the old `fold(0.0, f64::max)`, which silently
        // swallowed NaN and clamped negatives to 0), so the checked cast
        // below rejects it instead of wrapping.
        let max = *sorted.last().unwrap_or(&f64::NAN);
        assert!(
            max.is_finite() && (0.0..=u32::MAX as f64).contains(&max),
            "field max {max} not representable as u32"
        );
        FieldStats {
            mean,
            p50: percentile_sorted(&sorted, 50.0),
            p90: percentile_sorted(&sorted, 90.0),
            // Range-checked above: finite and within [0, u32::MAX], so the
            // cast is exact up to integer truncation of a length that was
            // integral to begin with.
            max: max as u32,
        }
    }
}

impl TraceStats {
    /// Compute statistics for a non-empty trace.
    ///
    /// # Panics
    /// Panics on an empty trace.
    pub fn compute(trace: &Trace) -> Self {
        assert!(!trace.is_empty(), "stats of empty trace");
        let inputs: Vec<f64> = trace.requests().iter().map(|r| r.input_len as f64).collect();
        let outputs: Vec<f64> = trace.requests().iter().map(|r| r.output_len as f64).collect();
        TraceStats {
            count: trace.len(),
            input: FieldStats::compute(&inputs),
            output: FieldStats::compute(&outputs),
            total_tokens: trace.total_input_tokens() + trace.total_output_tokens(),
        }
    }
}

impl std::fmt::Display for TraceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "requests: {}", self.count)?;
        writeln!(
            f,
            "input  tokens: mean {:.1}, p50 {:.0}, p90 {:.0}, max {}",
            self.input.mean, self.input.p50, self.input.p90, self.input.max
        )?;
        writeln!(
            f,
            "output tokens: mean {:.1}, p50 {:.0}, p90 {:.0}, max {}",
            self.output.mean, self.output.p50, self.output.p90, self.output.max
        )?;
        write!(f, "total tokens: {}", self.total_tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::ShareGptLikeConfig;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert!((percentile(&v, 25.0) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn percentile_handles_unsorted_input() {
        let v = [9.0, 1.0, 5.0];
        assert_eq!(percentile(&v, 50.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn percentile_sorted_matches_percentile() {
        let v = [9.0, 1.0, 5.0, 2.0, 2.0, 7.5];
        let mut sorted = v.to_vec();
        sorted.sort_by(f64::total_cmp);
        for p in [0.0, 10.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(percentile(&v, p), percentile_sorted(&sorted, p), "p={p}");
        }
    }

    /// Selecting the ranks gives the sorted copy's percentiles bit for bit,
    /// duplicates and signed zeros included.
    #[test]
    fn selected_percentiles_match_the_sorted_reference() {
        let samples: [&[f64]; 6] = [
            &[42.5],
            &[0.0, -0.0, 0.0, -0.0],
            &[3.0, -1.0, 7.0, 7.0, 2.0, -0.0, 0.0],
            &[1.0; 9],
            &[5.0, 4.0, 3.0, 2.0, 1.0, 0.0, -0.0, -1.0],
            &[
                2.5, 2.5, -0.0, 9.0, 0.0, 2.5, -3.0, 9.0, 0.0, 1e-300, -1e-300, 2.5,
            ],
        ];
        let bits = |v: [f64; 4]| v.map(f64::to_bits);
        for v in samples {
            let mut sorted = v.to_vec();
            sorted.sort_by(f64::total_cmp);
            let ps = [0.0, 50.0, 95.0, 99.0];
            let mut scratch = v.to_vec();
            let got = percentiles_selected(&mut scratch, ps);
            assert_eq!(
                bits(got),
                bits(ps.map(|p| percentile_sorted(&sorted, p))),
                "{v:?}"
            );
            let mut scratch = v.to_vec();
            let [p99] = percentiles_selected(&mut scratch, [99.0]);
            assert_eq!(p99.to_bits(), percentile_sorted(&sorted, 99.0).to_bits());
        }
        // A larger sample with many ties, at repeated and extreme ranks.
        let v: Vec<f64> = (0..1000)
            .map(|i| ((i * 7919) % 37) as f64 * 0.25 - 4.0)
            .collect();
        let mut sorted = v.clone();
        sorted.sort_by(f64::total_cmp);
        for ps in [[50.0, 95.0, 99.0], [50.0, 50.0, 100.0], [0.0, 0.1, 99.9]] {
            let got = percentiles_selected(&mut v.clone(), ps);
            let want = ps.map(|p| percentile_sorted(&sorted, p));
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{ps:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_sorted_rejects_bad_p() {
        percentile_sorted(&[1.0], 101.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_sorted_empty_panics() {
        percentile_sorted(&[], 50.0);
    }

    #[test]
    fn percentile_single_sample_is_that_sample_at_every_p() {
        // rank = p/100 * 0 = 0 for all p, so lo == hi == 0: no
        // interpolation path and no out-of-bounds `hi`.
        for p in [0.0, 13.7, 50.0, 100.0] {
            assert_eq!(percentile(&[42.5], p), 42.5, "p={p}");
            assert_eq!(percentile_sorted(&[42.5], p), 42.5, "p={p}");
        }
    }

    #[test]
    fn percentile_endpoints_are_exact_order_statistics() {
        // p=0 and p=100 must return min/max exactly — a rank of
        // (len-1).0 must not index one past the end.
        let v = [3.0, -1.0, 7.0, 7.0, 2.0];
        assert_eq!(percentile(&v, 0.0), -1.0);
        assert_eq!(percentile(&v, 100.0), 7.0);
        // Duplicates at the top: interpolation between equal order
        // statistics stays exact.
        assert_eq!(percentile(&v, 90.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "not representable")]
    fn field_stats_reject_nan_max() {
        // The old fold(0.0, f64::max) swallowed NaN silently; the
        // total-order max surfaces it.
        FieldStats::compute(&[1.0, f64::NAN]);
    }

    #[test]
    fn stats_are_internally_consistent() {
        let t = ShareGptLikeConfig::small(2_000, 1).generate();
        let s = TraceStats::compute(&t);
        assert_eq!(s.count, 2_000);
        assert!(s.input.p50 <= s.input.p90);
        assert!(s.input.p90 <= s.input.max as f64);
        assert!(s.output.p50 <= s.output.p90);
        assert_eq!(
            s.total_tokens,
            t.total_input_tokens() + t.total_output_tokens()
        );
        // Display renders without panicking.
        let _ = s.to_string();
    }
}
