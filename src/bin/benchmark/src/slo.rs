//! The serving latency limit, and the highest offered rate that meets it.

use tdpipe::fleet::ttft_attainment;
use tdpipe::sim::LatencySummary;

/// TTFT limit on the 99th percentile (seconds).
pub const TTFT_P99_LIMIT_S: f64 = 10.0;
/// TPOT limit on the 95th percentile, the highest TPOT percentile a
/// `RunReport` carries (seconds).
pub const TPOT_P95_LIMIT_S: f64 = 0.25;
/// A rung whose completions fall below this share of the offered rate is
/// building a backlog, whatever its percentiles say.
pub const MIN_COMPLETION_SHARE: f64 = 0.95;

/// One rung of an open-loop arrival-rate ladder, as the run reported it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered Poisson rate (requests per second).
    pub rate: f64,
    pub offered: usize,
    pub completed: usize,
    /// Modelled seconds from the first launch to the last completion.
    pub makespan: f64,
    /// `None` when the run tracked no latency (nothing completed).
    pub latency: Option<LatencySummary>,
}

impl Rung {
    /// Whether this rung meets the SLO: no failures (a failed request
    /// counts as a miss, so any failure sinks the rung), completions keep
    /// up with the offered rate, and both percentile limits hold.
    pub fn meets_slo(&self) -> bool {
        let Some(l) = self.latency else {
            return false;
        };
        self.completed == self.offered
            && self.makespan > 0.0
            && self.completed as f64 / self.makespan >= MIN_COMPLETION_SHARE * self.rate
            && l.ttft_p99 <= TTFT_P99_LIMIT_S
            && l.tpot_p95 <= TPOT_P95_LIMIT_S
    }

    /// Share of offered requests whose TTFT met the limit; requests that
    /// never completed count as misses.
    pub fn attainment(&self) -> f64 {
        match (self.latency, self.offered) {
            (Some(l), offered) if offered > 0 => {
                ttft_attainment(&l, TTFT_P99_LIMIT_S) * self.completed as f64 / offered as f64
            }
            _ => 0.0,
        }
    }

    /// Requests per modelled second that completed within the TTFT limit.
    pub fn goodput(&self) -> f64 {
        if self.makespan > 0.0 {
            self.attainment() * self.offered as f64 / self.makespan
        } else {
            0.0
        }
    }
}

/// The highest offered rate whose rung meets the SLO (0 when none does).
pub fn max_rate_at_slo(rungs: &[Rung]) -> f64 {
    rungs
        .iter()
        .filter(|r| r.meets_slo())
        .map(|r| r.rate)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency(ttft_p99: f64, tpot_p95: f64) -> LatencySummary {
        LatencySummary {
            ttft_mean: ttft_p99 / 4.0,
            ttft_p50: ttft_p99 / 5.0,
            ttft_p95: ttft_p99 / 2.0,
            ttft_p99,
            tpot_p50: tpot_p95 / 2.0,
            tpot_p95,
            completion_mean: 30.0,
            completion_p50: 25.0,
            completion_p99: 90.0,
        }
    }

    fn rung(rate: f64, ttft_p99: f64) -> Rung {
        Rung {
            rate,
            offered: 1000,
            completed: 1000,
            makespan: 1000.0 / rate,
            latency: Some(latency(ttft_p99, 0.2)),
        }
    }

    #[test]
    fn highest_passing_rung_wins() {
        let ladder = [
            rung(2.0, 0.5),
            rung(4.0, 3.0),
            rung(6.0, 9.9),
            rung(8.0, 30.0),
        ];
        assert_eq!(max_rate_at_slo(&ladder), 6.0);
        assert_eq!(max_rate_at_slo(&ladder[3..]), 0.0);
        assert_eq!(max_rate_at_slo(&[]), 0.0);
    }

    #[test]
    fn tpot_limit_is_enforced() {
        let mut r = rung(4.0, 1.0);
        r.latency = Some(latency(1.0, 0.26));
        assert!(!r.meets_slo());
    }

    #[test]
    fn a_growing_backlog_fails_even_with_good_percentiles() {
        let mut r = rung(8.0, 1.0);
        // Completions at 7.5 req/s against 8 offered: below the 0.95 share.
        r.makespan = r.completed as f64 / 7.5;
        assert!(!r.meets_slo());
        r.makespan = r.completed as f64 / 7.7;
        assert!(r.meets_slo(), "7.7 >= 0.95 x 8");
    }

    #[test]
    fn a_failed_request_counts_as_a_miss() {
        let mut r = rung(2.0, 0.5);
        r.completed = 999;
        assert!(!r.meets_slo(), "any failure sinks the rung");
        assert!((r.attainment() - 0.999).abs() < 1e-12);
        let none = Rung {
            latency: None,
            completed: 0,
            ..rung(2.0, 0.5)
        };
        assert!(!none.meets_slo());
        assert_eq!(none.attainment(), 0.0);
        assert_eq!(max_rate_at_slo(&[r, none, rung(1.0, 0.1)]), 1.0);
    }

    #[test]
    fn goodput_counts_attained_requests_per_second() {
        let r = rung(2.0, 0.5);
        assert!((r.attainment() - 1.0).abs() < 1e-12);
        assert!((r.goodput() - 2.0).abs() < 1e-9);
    }
}
