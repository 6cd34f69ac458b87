//! Inter-batch work stealing (paper §3.4).
//!
//! During the decode phase, requests complete at random, so the `n`
//! in-flight batches drift apart in size — and, because decode steps of
//! one batch must run back-to-back, the *largest* batch paces the pipeline
//! while smaller batches leave bubbles. The stealer rebalances on the fly:
//!
//! * a sliding window (length = number of batches) tracks the most recent
//!   submitted batch sizes;
//! * when a batch returns, the engine removes its finished requests and
//!   hands it to the stealer with the number just finished;
//! * the target size is `(window_sum − finished_now) / window_len`
//!   (integer floor, exactly the arithmetic of the paper's Fig. 9 walk-
//!   through);
//! * over-target batches have their excess *withheld* into a pool;
//!   under-target batches are topped up from the pool.

use std::collections::VecDeque;

/// What one [`WorkStealer::rebalance`] call did — the numbers the flight
/// recorder journals as `StealWithhold`/`StealSupplement` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RebalanceOutcome {
    /// The sliding-window target the batch was balanced toward.
    pub target: usize,
    /// Requests moved from the batch into the withheld pool.
    pub withheld: usize,
    /// Requests moved from the withheld pool into the batch.
    pub supplemented: usize,
}

/// The sliding-window work stealer.
///
/// ```
/// use tdpipe_core::steal::WorkStealer;
///
/// let mut stealer = WorkStealer::new(&[128, 128]);
/// let mut heavy: Vec<usize> = (0..128).collect();
/// // Every member holds 10 context tokens.
/// let mut ctx = 128 * 10;
/// // 60 requests of the other batch finished: this batch is now over the
/// // sliding-window target and gets trimmed.
/// let moved = stealer.rebalance(&mut heavy, 60, &mut ctx, |_| 10);
/// assert_eq!(heavy.len(), moved.target);
/// assert_eq!(stealer.withheld().len(), moved.withheld);
/// assert_eq!(ctx, 10 * heavy.len() as u64);
/// ```
#[derive(Debug, Clone)]
pub struct WorkStealer {
    window: VecDeque<usize>,
    withheld: Vec<usize>,
}

impl WorkStealer {
    /// Start a decode phase with the given initial batch sizes (the window
    /// seeds from them; paper Fig. 9 starts from `[128, 128, 128, 128]`).
    pub fn new(initial_sizes: &[usize]) -> Self {
        assert!(!initial_sizes.is_empty(), "need at least one batch");
        WorkStealer {
            window: initial_sizes.iter().copied().collect(),
            withheld: Vec::new(),
        }
    }

    /// Re-seed for a new decode phase, reusing the window and pool
    /// storage (capacity survives, so the steady-state engine allocates
    /// nothing per phase switch).
    ///
    /// # Panics
    /// Panics if `initial_sizes` is empty.
    pub fn reset(&mut self, initial_sizes: &[usize]) {
        assert!(!initial_sizes.is_empty(), "need at least one batch");
        self.window.clear();
        self.window.extend(initial_sizes.iter().copied());
        self.withheld.clear();
    }

    /// Rebalance a returned batch. `members` must already have finished
    /// requests removed; `finished_now` is how many were just removed.
    ///
    /// Over-average members are moved into the withheld pool (newest last —
    /// the tail of `members` is withheld first); under-average batches are
    /// topped up from the pool. The submitted size is recorded in the
    /// window. The target never drops below 1, and the withheld pool
    /// counts as live work in it.
    ///
    /// The batch's running context-token total `ctx` stays consistent as
    /// members move: withheld members subtract their `resident` tokens,
    /// supplements add theirs. This is what lets the engine maintain
    /// `total_ctx` incrementally instead of rescanning the batch every
    /// decode step.
    ///
    /// Returns what moved (for the flight recorder).
    pub fn rebalance(
        &mut self,
        members: &mut Vec<usize>,
        finished_now: usize,
        ctx: &mut u64,
        resident: impl Fn(usize) -> u64,
    ) -> RebalanceOutcome {
        // The withheld pool is live work too — counting it in the target is
        // what drains the pool back into light batches instead of letting
        // stolen requests linger.
        let sum: usize = self.window.iter().sum::<usize>() + self.withheld.len();
        // Floor the target at 1: stealing a live batch to zero would retire
        // it from the pipeline entirely, which is never a balance win.
        let target = (sum.saturating_sub(finished_now) / self.window.len()).max(1);
        let mut outcome = RebalanceOutcome {
            target,
            ..RebalanceOutcome::default()
        };
        if members.len() > target {
            for &m in &members[target..] {
                *ctx -= resident(m);
            }
            let excess = members.split_off(target);
            outcome.withheld = excess.len();
            self.withheld.extend(excess);
        } else if members.len() < target && !self.withheld.is_empty() {
            let need = (target - members.len()).min(self.withheld.len());
            let from = self.withheld.len() - need;
            for &m in &self.withheld[from..] {
                *ctx += resident(m);
            }
            members.extend(self.withheld.drain(from..));
            outcome.supplemented = need;
        }
        self.window.pop_front();
        self.window.push_back(members.len());
        outcome
    }

    /// Requests currently withheld (waiting to supplement a light batch).
    #[inline]
    pub fn withheld(&self) -> &[usize] {
        &self.withheld
    }

    /// Move the withheld pool into `out` without giving up this stealer's
    /// buffer capacity (the last live batch absorbs strays this way).
    pub fn take_withheld_into(&mut self, out: &mut Vec<usize>) {
        out.extend_from_slice(&self.withheld);
        self.withheld.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays the walk-through of the paper's Figure 9.
    #[test]
    fn fig9_walkthrough() {
        // 512 requests, 4 batches of 128.
        let mut s = WorkStealer::new(&[128, 128, 128, 128]);

        // Batch 0 returns: 48 finished, 80 left. Avg = (512-48)/4 = 116.
        // 80 < 116 and the pool is empty → submit all 80.
        let mut b0: Vec<usize> = (0..80).collect();
        s.rebalance(&mut b0, 48, &mut 0, |_| 0);
        assert_eq!(b0.len(), 80);
        assert!(s.withheld().is_empty());

        // Batch 1 returns: 8 finished, 120 left.
        // Avg = (80+128+128+128-8)/4 = 114 → steal 6, submit 114.
        let mut b1: Vec<usize> = (100..220).collect();
        s.rebalance(&mut b1, 8, &mut 0, |_| 0);
        assert_eq!(b1.len(), 114);
        assert_eq!(s.withheld().len(), 6);

        // Batch 2 returns: none finished, 128 left. Our target counts the
        // withheld pool (required for the pool to drain; Fig. 9's prose
        // omits it): (128+80+114+128 + 6)/4 = 114 → steal 14.
        let mut b2: Vec<usize> = (300..428).collect();
        s.rebalance(&mut b2, 0, &mut 0, |_| 0);
        assert_eq!(b2.len(), 114);
        assert_eq!(s.withheld().len(), 6 + 14);

        // Batch 3 returns: none finished, 128 left.
        // (80+114+114+128 + 20)/4 = 114 → steal 14.
        let mut b3: Vec<usize> = (500..628).collect();
        s.rebalance(&mut b3, 0, &mut 0, |_| 0);
        assert_eq!(b3.len(), 114);
        assert_eq!(s.withheld().len(), 34);

        // Batch 0 comes around again: (114+114+114+80 + 34)/4 = 114 — the
        // light batch absorbs the whole pool, balancing all four batches.
        let mut b0_again = b0;
        s.rebalance(&mut b0_again, 0, &mut 0, |_| 0);
        assert_eq!(b0_again.len(), 114);
        assert!(s.withheld().is_empty());
    }

    #[test]
    fn stealing_conserves_requests() {
        let mut s = WorkStealer::new(&[10, 10, 10]);
        let mut batches: Vec<Vec<usize>> = vec![
            (0..10).collect(),
            (10..20).collect(),
            (20..30).collect(),
        ];
        // Simulate uneven completion for a few rounds.
        let mut alive: Vec<usize> = (0..30).collect();
        for round in 0..20 {
            for b in batches.iter_mut() {
                // "Finish" the first request of this batch on even rounds.
                let finished = if round % 2 == 0 && !b.is_empty() {
                    let gone = b.remove(0);
                    alive.retain(|&x| x != gone);
                    1
                } else {
                    0
                };
                s.rebalance(b, finished, &mut 0, |_| 0);
            }
            // Conservation: batches + withheld == alive, no duplicates.
            let mut all: Vec<usize> = batches.iter().flatten().copied().collect();
            all.extend(s.withheld());
            all.sort_unstable();
            let mut expect = alive.clone();
            expect.sort_unstable();
            assert_eq!(all, expect, "round {round}");
        }
    }

    #[test]
    fn converges_toward_balance() {
        // Start wildly imbalanced; with no completions the spread must
        // shrink to ≤ 1 within a few rounds.
        let mut s = WorkStealer::new(&[200, 10, 10, 10]);
        let mut batches: Vec<Vec<usize>> = vec![
            (0..200).collect(),
            (200..210).collect(),
            (210..220).collect(),
            (220..230).collect(),
        ];
        for _ in 0..6 {
            for b in batches.iter_mut() {
                s.rebalance(b, 0, &mut 0, |_| 0);
            }
        }
        let sizes: Vec<usize> = batches.iter().map(|b| b.len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        let withheld = s.withheld().len();
        assert!(
            max - min <= 2 && withheld <= 4,
            "not balanced: {sizes:?} withheld={withheld}"
        );
    }

    #[test]
    fn target_counts_the_withheld_pool() {
        // Build a state with a non-empty withheld pool so the formula's
        // pool term is observable.
        let mut s = WorkStealer::new(&[128, 128]);
        let mut heavy: Vec<usize> = (0..128).collect();
        s.rebalance(&mut heavy, 60, &mut 0, |_| 0);
        assert!(!s.withheld().is_empty(), "setup must withhold something");
        // The target is (window_sum + withheld) / len with finished_now = 0
        // (the window now holds [128, heavy.len()]), and a large returning
        // batch is trimmed to exactly it.
        let expect = (128 + heavy.len() + s.withheld().len()) / 2;
        let mut big: Vec<usize> = (1000..1300).collect();
        let o = s.rebalance(&mut big, 0, &mut 0, |_| 0);
        assert_eq!(o.target, expect);
        assert_eq!(big.len(), expect);
    }

    #[test]
    fn target_never_drops_to_zero() {
        // All-empty window: the target floors at 1 instead of 0.
        let mut s = WorkStealer::new(&[0, 0, 0]);
        assert_eq!(s.rebalance(&mut Vec::new(), 0, &mut 0, |_| 0).target, 1);
    }

    #[test]
    fn rebalance_outcome_reports_the_moves() {
        let mut s = WorkStealer::new(&[128, 128]);
        // Over-target return: the excess shows up as `withheld`.
        let mut heavy: Vec<usize> = (0..128).collect();
        let o = s.rebalance(&mut heavy, 60, &mut 0, |_| 0);
        assert_eq!(o.withheld, 128 - o.target);
        assert_eq!(o.supplemented, 0);
        assert_eq!(o.withheld, s.withheld().len());
        // Under-target return: the top-up shows up as `supplemented`.
        let mut light: Vec<usize> = (200..204).collect();
        let before = light.len();
        let o2 = s.rebalance(&mut light, 0, &mut 0, |_| 0);
        assert_eq!(o2.withheld, 0);
        assert_eq!(o2.supplemented, light.len() - before);
        assert!(o2.supplemented > 0, "pool had stock to hand out");
    }

    #[test]
    fn reset_matches_fresh_stealer() {
        let mut used = WorkStealer::new(&[4, 4]);
        let mut big: Vec<usize> = (0..10).collect();
        used.rebalance(&mut big, 0, &mut 0, |_| 0);
        assert!(!used.withheld().is_empty());
        used.reset(&[7, 9, 3]);
        let fresh = WorkStealer::new(&[7, 9, 3]);
        assert!(used.withheld().is_empty());
        let mut a: Vec<usize> = (0..20).collect();
        let mut b = a.clone();
        let mut u = used;
        let mut f = fresh;
        let oa = u.rebalance(&mut a, 1, &mut 0, |_| 0);
        let ob = f.rebalance(&mut b, 1, &mut 0, |_| 0);
        assert_eq!(oa, ob);
        assert_eq!(a, b);
    }

    #[test]
    fn take_withheld_into_moves_the_pool() {
        let mut s = WorkStealer::new(&[4, 4]);
        let mut big: Vec<usize> = (0..10).collect();
        s.rebalance(&mut big, 0, &mut 0, |_| 0);
        let n = s.withheld().len();
        assert!(n > 0);
        let mut out = vec![99];
        s.take_withheld_into(&mut out);
        assert_eq!(out.len(), 1 + n);
        assert!(s.withheld().is_empty());
    }
}
