//! Memoized decode→prefill phase pricing.
//!
//! The spatial-temporal switch (§3.5) prices the *hypothetical next
//! prefill phase* at every decode step that finds the pending queue's
//! head arrived: pack pending requests by predicted
//! KV need into the currently free capacity, batch them like the real
//! prefill packer, and report the longest job plus the phase length. The
//! only per-step variable is how much KV is currently free, so the packing
//! walk is cached and a query on a walk that already reaches its cut costs
//! two binary searches plus at most one O(stages) job pricing.
//!
//! The walk reads only the pending queue's order and each pending
//! request's prefill tokens and predicted remaining output, so the engine
//! invalidates exactly where one of those changes: a prefill admission or
//! swap-in popping the queue's front, an eviction pushing a victim back
//! onto it, a session successor's release moving it within the queue (and
//! granting it a reuse discount), and retained session KV being reclaimed
//! (revoking discounts). Nothing else touches pending requests, so decode
//! steps and phase switches keep the cache. Online, §3.5 is asked only
//! once the queue's head has arrived, and a switch then admits it, so a
//! decode phase usually walks once, at its first decision, and the
//! decisions after it reuse that walk until one switches. The next query
//! after an invalidation starts a new walk from the queue's front.
//!
//! The walk is lazy: a query extends it only to the batch holding its
//! free-token cut, and [`PrefillEstimateCache::certifies_switch`] extends
//! it one batch at a time and stops as soon as the batches so far prove
//! that §3.5 switches (DESIGN.md §5 *Certified switch*). Both read the
//! queue through [`Queue`]: the pending requests, then the unreleased
//! session turns.
//!
//! Bit-identity with the naive walk is by construction: each member stores
//! exactly the accumulators the naive loop would hold at its position
//! (need and token sums in integers, attention FLOPs accumulated in queue
//! order) counted from its batch's start, each step accumulates the
//! cumulative need, the closed-batch phase length and the longest job over
//! the batches in queue order, and batch jobs are rebuilt through
//! [`PpCost::prefill_job_from_parts`], which shares every float operation
//! with the slice-based pricing. A debug assertion in the engine compares
//! the cached estimate against the naive recomputation on every query.

use crate::config::PREFILL_TOKEN_BUDGET;
use crate::cost::{PpCost, StagedJob};
use crate::intensity::PrefillPhaseEstimate;
use crate::request::RequestPool;
use std::collections::VecDeque;
use tdpipe_kvcache::SessionKv;

/// Slack the certificate keeps above spatial intensity: far more than the
/// few ulps of rounding in `1 − b/(P + b)` on values in `[0, 1]`.
const CERTIFY_MARGIN: f64 = 1e-9;

/// The pending queue as the walk reads it: `pending` (arrived and future
/// requests), then `unreleased` (session turns whose predecessor has not
/// finished), and the retained session KV that discounts their prefills.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queue<'a> {
    pub pending: &'a VecDeque<u32>,
    pub unreleased: &'a VecDeque<u32>,
    pub kv: &'a SessionKv,
}

impl<'a> Queue<'a> {
    pub fn get(&self, pos: usize) -> Option<usize> {
        let idx = match pos.checked_sub(self.pending.len()) {
            None => self.pending.get(pos),
            Some(rest) => self.unreleased.get(rest),
        };
        idx.map(|&i| i as usize)
    }

    pub fn iter(self) -> impl Iterator<Item = usize> + 'a {
        self.pending.iter().chain(self.unreleased).map(|&i| i as usize)
    }

    /// Tokens request `idx`'s next prefill computes: its prompt and any
    /// tokens recomputed after an eviction, less the prefix its retained
    /// session KV already holds. Every planning surface (the packer, this
    /// walk, its debug oracle) reads this one method.
    pub fn prefill_tokens(&self, pool: &RequestPool, idx: usize) -> u32 {
        let discount = u32::try_from(self.kv.discount(idx as u64)).unwrap_or(u32::MAX);
        pool.prefill_tokens(idx).saturating_sub(discount)
    }
}

/// Running sums of a batch, *after* including one of its members.
#[derive(Debug, Clone, Copy, Default)]
struct Member {
    /// Predicted KV need (prefill tokens + predicted remaining).
    need: u64,
    /// Prefill tokens.
    tokens: u64,
    /// Attention FLOPs, accumulated in queue order.
    attn: f64,
}

/// One prefill batch the walk packed, and its place in the walk.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Its members' range in [`PrefillEstimateCache::members`].
    start: usize,
    end: usize,
    /// Cumulative need over the batches before this one and through it —
    /// monotone, so the batch a free-token budget reaches into is a
    /// `partition_point`.
    need_before: u64,
    need_end: u64,
    /// Phase length over the batches before this one.
    closed_phase_len: f64,
    /// Longest job over the batches before this one.
    closed_longest: f64,
    /// The whole batch, priced.
    latency: f64,
    bottleneck: f64,
}

/// Cache of the estimate-packing walk over the pending queue's prefix.
///
/// Invalidate whenever the pending queue or a pending request's prices
/// can have changed (see the module docs); the next query starts a new
/// walk, and every query extends the walk only as far as it reads.
#[derive(Debug, Default)]
pub(crate) struct PrefillEstimateCache {
    valid: bool,
    /// The walk's batches, in queue order.
    steps: Vec<Step>,
    /// The running sums at every position the walk covered, in queue
    /// order: the walk's frontier is `members.len()`.
    members: Vec<Member>,
    /// The cumulative need, phase length and longest job through the
    /// walk's last batch.
    need: u64,
    phase_len: f64,
    longest: f64,
    /// Bounds the latency of every batch the packer can form in this run
    /// (`l_cap`; see `TdPipeEngine::prefill_latency_cap`). Debug builds
    /// check every priced batch against it.
    pub(crate) latency_cap: f64,
    job: StagedJob,
    /// Packing walks started over the cache's lifetime — a deterministic
    /// work count for tests.
    pub(crate) rebuilds: u64,
    /// Positions the walks covered, each packed and priced once.
    pub(crate) walked: u64,
    /// Batches the walks covered.
    pub(crate) walked_batches: u64,
}

impl PrefillEstimateCache {
    /// Drop the cached walk (the pending queue changed).
    #[inline]
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Make room for a walk of `batches` batches over `positions` queue
    /// positions.
    pub fn reserve(&mut self, batches: usize, positions: usize) {
        self.steps.reserve(batches);
        self.members.reserve(positions);
    }

    /// Price the hypothetical next prefill phase given `free_tokens` of
    /// currently free KV, extending the walk to the batch holding the cut.
    pub fn query(
        &mut self,
        queue: Queue<'_>,
        pool: &RequestPool,
        cost: &PpCost,
        free_tokens: u64,
    ) -> PrefillPhaseEstimate {
        self.start();
        while self.steps.last().is_none_or(|s| s.need_end <= free_tokens)
            && self.extend(queue, pool, cost).is_some()
        {}
        // Whole batches that fit, then the members of the next one that do.
        let k = self.steps.partition_point(|s| s.need_end <= free_tokens);
        if let Some(s) = self.steps.get(k) {
            let members = &self.members[s.start..s.end];
            let j = members.partition_point(|m| s.need_before + m.need <= free_tokens);
            if j > 0 {
                let m = members[j - 1];
                cost.prefill_job_from_parts(m.tokens, m.attn, j as u64, &mut self.job);
                debug_assert!(
                    self.job.latency() <= self.latency_cap,
                    "batch latency above l_cap"
                );
                return PrefillPhaseEstimate {
                    longest_job: s.closed_longest.max(self.job.latency()),
                    phase_len: s.closed_phase_len + self.job.bottleneck(),
                };
            }
        }
        let Some(s) = k.checked_sub(1).map(|k| self.steps[k]) else {
            return PrefillPhaseEstimate {
                longest_job: 0.0,
                phase_len: 0.0,
            };
        };
        PrefillPhaseEstimate {
            longest_job: s.closed_longest.max(s.latency),
            phase_len: s.closed_phase_len + s.bottleneck,
        }
    }

    /// The phase length `P` of the walk's whole batches within the
    /// `free_tokens` cut (a lower bound on the estimate's), if it proves
    /// that §3.5 switches: temporal intensity `1 − b/(P + b)` above
    /// `spatial`, with `b = bubble_cap`, a bound on the estimate's bubble.
    /// The walk is extended one batch at a time and stops at the first
    /// that proves it. `None` means only "not proven": the exact estimate
    /// must decide, over a walk that has reached the cut or the queue's
    /// end.
    pub fn certifies_switch(
        &mut self,
        queue: Queue<'_>,
        pool: &RequestPool,
        cost: &PpCost,
        free_tokens: u64,
        spatial: f64,
        bubble_cap: f64,
    ) -> Option<f64> {
        self.start();
        let proves =
            |p: f64| (1.0 - bubble_cap / (p + bubble_cap) > spatial + CERTIFY_MARGIN).then_some(p);
        let k = self.steps.partition_point(|s| s.need_end <= free_tokens);
        if let Some(s) = self.steps.get(k) {
            // The walk already reaches the cut: its batches before it are
            // all a certificate can use.
            return proves(s.closed_phase_len);
        }
        loop {
            if let Some(p) = proves(self.phase_len) {
                return Some(p);
            }
            if self.extend(queue, pool, cost)?.need_end > free_tokens {
                return None;
            }
        }
    }

    /// Start a new walk from the queue's front unless the current one is
    /// still valid.
    fn start(&mut self) {
        if self.valid {
            return;
        }
        self.valid = true;
        self.rebuilds += 1;
        self.steps.clear();
        self.members.clear();
        self.need = 0;
        self.phase_len = 0.0;
        self.longest = 0.0;
    }

    /// Pack and price the batch at the walk's frontier, exactly as the
    /// naive packer would, and return its step; `None` at the end of the
    /// queue.
    fn extend(&mut self, queue: Queue<'_>, pool: &RequestPool, cost: &PpCost) -> Option<Step> {
        let start = self.members.len();
        let mut pos = start;
        let model = cost.model();
        let mut m = Member::default();
        let mut budget = 0u32;
        while let Some(idx) = queue.get(pos) {
            let t = queue.prefill_tokens(pool, idx);
            // Close the batch exactly where the naive packer would (same
            // u32 budget arithmetic).
            if pos > start && budget + t > PREFILL_TOKEN_BUDGET {
                break;
            }
            m.need += (t + pool.predicted_remaining(idx)) as u64;
            m.tokens += t as u64;
            m.attn += model.prefill_attn_flops(t);
            budget += t;
            self.members.push(m);
            pos += 1;
        }
        if pos == start {
            return None;
        }
        let seqs = (pos - start) as u64;
        cost.prefill_job_from_parts(m.tokens, m.attn, seqs, &mut self.job);
        let step = Step {
            start,
            end: pos,
            need_before: self.need,
            need_end: self.need + m.need,
            closed_phase_len: self.phase_len,
            closed_longest: self.longest,
            latency: self.job.latency(),
            bottleneck: self.job.bottleneck(),
        };
        debug_assert!(
            step.latency <= self.latency_cap,
            "batch latency above l_cap"
        );
        self.need = step.need_end;
        self.longest = self.longest.max(step.latency);
        self.phase_len += step.bottleneck;
        self.walked += seqs;
        self.walked_batches += 1;
        self.steps.push(step);
        Some(step)
    }
}

#[cfg(test)]
mod tests {
    use super::{PrefillEstimateCache, Queue};
    use crate::request::RequestPool;
    use std::collections::VecDeque;
    use tdpipe_kvcache::{BlockAllocator, Blocks, SessionKv};
    use tdpipe_workload::{ShareGptLikeConfig, Workload};

    /// A retained prefix discounts its successor's prefill, not its
    /// residency, and the full cost returns once the prefix is dropped or
    /// claimed.
    #[test]
    fn a_retained_prefix_shrinks_prefill_but_not_residency() {
        let t = ShareGptLikeConfig::small(2, 1).generate();
        let pool = RequestPool::for_workload(&Workload::offline(&t), |r| r.output_len);
        let input = pool.input_len(1);
        let shared = u64::from(input.min(10));
        // Request 0 finishes holding the prefix request 1 will resume.
        let mut alloc = BlockAllocator::new(Blocks::new(64), 16);
        alloc.allocate(0, shared).unwrap();
        let mut kv = SessionKv::new(Blocks::new(64));
        kv.finish(&mut alloc, 0, Some(1), |_| {}).unwrap();
        let (pending, unreleased) = (VecDeque::from([1]), VecDeque::new());
        let prefill = |kv: &SessionKv, idx| {
            let q = Queue {
                pending: &pending,
                unreleased: &unreleased,
                kv,
            };
            q.prefill_tokens(&pool, idx)
        };
        assert_eq!(u64::from(prefill(&kv, 1)), u64::from(input) - shared);
        assert_eq!(pool.resident_tokens(1), u64::from(input));
        assert_eq!(prefill(&kv, 0), pool.input_len(0), "sibling untouched");
        // Dropped under pressure: the successor prefills in full.
        let (mut dropped, mut a) = (kv.clone(), alloc.clone());
        assert!(dropped
            .reclaim(&mut a, Blocks::new(64), None, |_| {})
            .unwrap());
        assert_eq!(prefill(&dropped, 1), input);
        // Claimed at admission: a later recompute prefills in full too.
        assert_eq!(kv.admit(&mut alloc, 1, u64::from(input)), Ok(Some(shared)));
        assert_eq!(prefill(&kv, 1), input);
    }

    impl PrefillEstimateCache {
        /// Whether the current walk still matches the queue (a query
        /// extends it rather than starting a new one).
        pub(crate) fn is_valid(&self) -> bool {
            self.valid
        }
    }
}
