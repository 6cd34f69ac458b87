//! Memoized decode→prefill phase pricing.
//!
//! The spatial-temporal switch (§3.5) prices the *hypothetical next
//! prefill phase* on every decode step: pack pending requests by predicted
//! KV need into the currently free capacity, batch them like the real
//! prefill packer, and report the longest job plus the phase length. The
//! only per-step variable is how much KV is currently free, so the packing
//! walk is cached and each query reduced to two binary searches plus at
//! most one O(stages) job pricing.
//!
//! The walk reads only the pending queue's order and each pending
//! request's prefill tokens and predicted remaining output, so the engine
//! invalidates exactly where one of those changes: a prefill admission or
//! swap-in popping the queue's front, an eviction pushing a victim back
//! onto it, a session successor's release moving it within the queue (and
//! granting it a reuse discount), and retained session KV being reclaimed
//! (revoking discounts). Nothing else touches pending requests, so a
//! prefill phase that admits nothing — the common case online, where the
//! queue's head has not arrived yet — keeps the cache across the phase
//! switch.
//!
//! A rebuild re-prices only the batches a change touched. A batch depends
//! on nothing before it: its members run from its first request up to the
//! one before the request whose prefill tokens overflow the token budget,
//! and its sums and pricing follow from those members' prices alone. So
//! the walk's batches outlive it, and a rebuild that starts a batch at a
//! request which started a batch of the previous walk reuses that batch —
//! its token, attention-FLOP and need sums and its priced job — when the
//! queue still holds the same requests after it (one slice comparison)
//! and the request after them, if any, still overflows it. A request's
//! prices change only while it is out of the queue (decoding, between its
//! admission and an eviction) or when its reuse discount is granted or
//! revoked; the engine reports both through [`PrefillEstimateCache::forget`],
//! which retires the one batch holding the request. Front pops, eviction
//! pushes and mid-queue releases therefore re-price the batches near the
//! change until the walk falls back in step with an old batch boundary,
//! and the rest costs a comparison per request and O(1) per batch.
//!
//! Bit-identity with the naive walk is by construction: each batch stores
//! exactly the accumulators the naive loop would hold at each of its
//! positions (need and token sums in integers, attention FLOPs accumulated
//! in queue order) counted from the batch's start, the walk re-accumulates
//! the cumulative need, the closed-batch phase length and the longest job
//! over the batches in queue order, and batch jobs are rebuilt through
//! [`PpCost::prefill_job_from_parts`], which shares every float operation
//! with the slice-based pricing. A debug assertion in the engine compares
//! the cached estimate against the naive recomputation on every query, and
//! debug builds check every reused batch against the pool's prices.

use crate::config::PREFILL_TOKEN_BUDGET;
use crate::cost::{PpCost, StagedJob};
use crate::intensity::PrefillPhaseEstimate;
use crate::request::RequestPool;
use std::collections::VecDeque;

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

/// One prefill batch the walk packed.
#[derive(Debug, Default)]
struct PackBatch {
    /// Its requests, in queue order.
    ids: Vec<usize>,
    /// The running sums after each of them.
    members: Vec<Member>,
    /// The packer's `u32` budget accumulator over the whole batch (kept
    /// in the packer's own width so the flush boundaries match exactly).
    budget: u32,
    /// The whole batch, priced.
    latency: f64,
    bottleneck: f64,
    /// The walk that last held it. Only a batch of the previous walk may
    /// be reused; [`PrefillEstimateCache::forget`] sets 0 to rule it out.
    walk: u32,
}

/// One batch's place in the walk.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Index into [`PrefillEstimateCache::batches`].
    batch: u32,
    /// Cumulative need over the batches before this one and through it —
    /// monotone, so the batch a free-token budget reaches into is a
    /// `partition_point`.
    need_before: u64,
    need_end: u64,
    /// Phase length over the batches before this one.
    closed_phase_len: f64,
    /// Longest job over the batches before this one.
    closed_longest: f64,
}

/// Cache of the estimate-packing walk over the pending queue's prefix.
///
/// Invalidate whenever the pending queue can have changed, and
/// [`Self::forget`] a request whose prices changed or that left the queue
/// (see the module docs); queries lazily rebuild, reusing the previous
/// walk's batches where the queue still holds them.
#[derive(Debug, Default)]
pub(crate) struct PrefillEstimateCache {
    valid: bool,
    /// The current walk, and the one before it while rebuilding.
    steps: Vec<Step>,
    prev_steps: Vec<Step>,
    /// Every batch packed so far; free ones keep their buffers.
    batches: Vec<PackBatch>,
    free: Vec<u32>,
    /// Per request: the batch it was last packed into.
    batch_of: Vec<u32>,
    /// The current walk's number (walks count from 1).
    walk: u32,
    job: StagedJob,
    /// Packing walks rebuilt over the cache's lifetime — a deterministic
    /// work count for tests.
    pub(crate) rebuilds: u64,
    /// Positions the rebuilt walks covered: what pricing every walk from
    /// scratch would cost.
    pub(crate) walked: u64,
    /// Positions packed and priced afresh because no batch of the previous
    /// walk could be reused for them.
    pub(crate) priced: u64,
}

impl PrefillEstimateCache {
    /// Drop the cached walk (the pending queue changed). Its batches stay
    /// on hand for the rebuild to reuse.
    #[inline]
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Request `idx` left the queue, or its prefill tokens changed (a
    /// reuse discount granted or revoked): invalidate, and never reuse the
    /// batch it was packed into.
    pub fn forget(&mut self, idx: usize) {
        self.valid = false;
        if let Some(&b) = self.batch_of.get(idx) {
            if let Some(batch) = self.batches.get_mut(b as usize) {
                batch.walk = 0;
            }
        }
    }

    /// Price the hypothetical next prefill phase given `free_tokens` of
    /// currently free KV. `token_capacity` bounds how deep the walk can
    /// ever be queried (free tokens never exceed the pool), so the cache
    /// stops building there.
    pub fn query(
        &mut self,
        pending: &VecDeque<usize>,
        pool: &RequestPool,
        cost: &PpCost,
        token_capacity: u64,
        free_tokens: u64,
    ) -> PrefillPhaseEstimate {
        if !self.valid {
            self.rebuild(pending, pool, cost, token_capacity);
        }
        // Whole batches that fit, then the members of the next one that do.
        let k = self.steps.partition_point(|s| s.need_end <= free_tokens);
        if let Some(s) = self.steps.get(k) {
            let members = &self.batches[s.batch as usize].members;
            let j = members.partition_point(|m| s.need_before + m.need <= free_tokens);
            if j > 0 {
                let m = members[j - 1];
                cost.prefill_job_from_parts(m.tokens, m.attn, j as u64, &mut self.job);
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
        let b = &self.batches[s.batch as usize];
        PrefillPhaseEstimate {
            longest_job: s.closed_longest.max(b.latency),
            phase_len: s.closed_phase_len + b.bottleneck,
        }
    }

    fn rebuild(
        &mut self,
        pending: &VecDeque<usize>,
        pool: &RequestPool,
        cost: &PpCost,
        token_capacity: u64,
    ) {
        self.rebuilds += 1;
        let prev = self.walk;
        self.walk += 1;
        std::mem::swap(&mut self.steps, &mut self.prev_steps);
        self.steps.clear();
        if self.batch_of.len() < pool.len() {
            self.batch_of.resize(pool.len(), u32::MAX);
        }
        let mut need = 0u64;
        let mut closed_phase_len = 0.0f64;
        let mut closed_longest = 0.0f64;
        let mut pos = 0;
        // No query can reach past the first position whose cumulative need
        // exceeds the pool (free tokens are bounded by its capacity), so
        // the walk stops with the batch holding that position.
        while pos < pending.len() && need <= token_capacity {
            let old = self.batch_of[pending[pos]];
            let b = if self.reusable(old, prev, pending, pos, pool) {
                old
            } else {
                self.pack(pending, pos, pool, cost)
            };
            let batch = &mut self.batches[b as usize];
            batch.walk = self.walk;
            pos += batch.ids.len();
            let need_end = need + batch.members.last().map_or(0, |m| m.need);
            self.steps.push(Step {
                batch: b,
                need_before: need,
                need_end,
                closed_phase_len,
                closed_longest,
            });
            need = need_end;
            closed_longest = closed_longest.max(batch.latency);
            closed_phase_len += batch.bottleneck;
        }
        self.walked += pos as u64;
        // The previous walk's batches this one did not take up are free.
        for s in &self.prev_steps {
            if self.batches[s.batch as usize].walk != self.walk {
                self.free.push(s.batch);
            }
        }
        self.valid = true;
    }

    /// Whether batch `b`, if the previous walk (`prev`) held it, is what
    /// the packer would make of the queue from `pos` on: the queue holds
    /// its requests there, and the request after them, if any, still
    /// overflows its budget.
    fn reusable(
        &self,
        b: u32,
        prev: u32,
        pending: &VecDeque<usize>,
        pos: usize,
        pool: &RequestPool,
    ) -> bool {
        let Some(batch) = self.batches.get(b as usize).filter(|x| x.walk == prev) else {
            return false;
        };
        let end = pos + batch.ids.len();
        if end > pending.len() || !holds(pending, pos, &batch.ids) {
            return false;
        }
        // Debug check: no member's prices changed since the batch was
        // priced (the engine forgets every request whose prices change).
        #[cfg(debug_assertions)]
        {
            let mut before = Member::default();
            for (&idx, m) in batch.ids.iter().zip(&batch.members) {
                let t = pool.prefill_tokens(idx);
                debug_assert_eq!(m.tokens - before.tokens, t as u64, "stale batch reused");
                let need = (t + pool.predicted_remaining(idx)) as u64;
                debug_assert_eq!(m.need - before.need, need, "stale batch reused");
                before = *m;
            }
        }
        pending
            .get(end)
            .is_none_or(|&next| batch.budget + pool.prefill_tokens(next) > PREFILL_TOKEN_BUDGET)
    }

    /// Pack and price a new batch from the queue's position `pos`, exactly
    /// as the naive packer would. Returns its index.
    fn pack(
        &mut self,
        pending: &VecDeque<usize>,
        mut pos: usize,
        pool: &RequestPool,
        cost: &PpCost,
    ) -> u32 {
        let b = self.free.pop().unwrap_or_else(|| {
            self.batches.push(PackBatch::default());
            (self.batches.len() - 1) as u32
        });
        let batch = &mut self.batches[b as usize];
        batch.ids.clear();
        batch.members.clear();
        let model = cost.model();
        let mut m = Member::default();
        let mut budget = 0u32;
        while let Some(&idx) = pending.get(pos) {
            let t = pool.prefill_tokens(idx);
            // Close the batch exactly where the naive packer would (same
            // u32 budget arithmetic).
            if !batch.ids.is_empty() && budget + t > PREFILL_TOKEN_BUDGET {
                break;
            }
            m.need += (t + pool.predicted_remaining(idx)) as u64;
            m.tokens += t as u64;
            m.attn += model.prefill_attn_flops(t);
            budget += t;
            batch.ids.push(idx);
            batch.members.push(m);
            self.batch_of[idx] = b;
            pos += 1;
        }
        self.priced += batch.ids.len() as u64;
        let seqs = batch.ids.len() as u64;
        cost.prefill_job_from_parts(m.tokens, m.attn, seqs, &mut self.job);
        batch.budget = budget;
        batch.latency = self.job.latency();
        batch.bottleneck = self.job.bottleneck();
        b
    }
}

/// Whether `pending[pos..pos + ids.len()]` is exactly `ids` (in range).
fn holds(pending: &VecDeque<usize>, pos: usize, ids: &[usize]) -> bool {
    let (front, back) = pending.as_slices();
    let end = pos + ids.len();
    if pos >= front.len() {
        back[pos - front.len()..end - front.len()] == *ids
    } else if end <= front.len() {
        front[pos..end] == *ids
    } else {
        let (a, b) = ids.split_at(front.len() - pos);
        front[pos..] == *a && back[..end - front.len()] == *b
    }
}
