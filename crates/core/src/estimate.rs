//! Memoized decode→prefill phase pricing.
//!
//! The spatial-temporal switch (§3.5) prices the *hypothetical next
//! prefill phase* on every decode step: pack pending requests by predicted
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
//! (revoking discounts). Nothing else touches pending requests, so a
//! prefill phase that admits nothing — the common case online, where the
//! queue's head has not arrived yet — keeps the cache across the phase
//! switch.
//!
//! A new walk re-prices only the batches a change touched. A batch depends
//! on nothing before it: its members run from its first request up to the
//! one before the request whose prefill tokens overflow the token budget,
//! and its sums and pricing follow from those members' prices alone. So
//! the walk's batches outlive it, and a walk that starts a batch at a
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
//! The walk is lazy: a query extends it only to the batch holding its
//! free-token cut, and [`PrefillEstimateCache::certifies_switch`] extends
//! it one batch at a time and stops as soon as the batches so far prove
//! that §3.5 switches (DESIGN.md §5 *Certified switch*). Both read the
//! queue through [`Queue`]: the pending requests, then the unreleased
//! session turns.
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

/// Slack the certificate keeps above spatial intensity: far more than the
/// few ulps of rounding in `1 − b/(P + b)` on values in `[0, 1]`.
const CERTIFY_MARGIN: f64 = 1e-9;

/// The pending queue as the walk reads it: `pending` (arrived and future
/// requests), then `unreleased` (session turns whose predecessor has not
/// finished).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queue<'a> {
    pub pending: &'a VecDeque<usize>,
    pub unreleased: &'a VecDeque<usize>,
}

impl<'a> Queue<'a> {
    pub fn len(&self) -> usize {
        self.pending.len() + self.unreleased.len()
    }

    pub fn get(&self, pos: usize) -> Option<usize> {
        match pos.checked_sub(self.pending.len()) {
            None => self.pending.get(pos).copied(),
            Some(rest) => self.unreleased.get(rest).copied(),
        }
    }

    pub fn iter(self) -> impl Iterator<Item = usize> + 'a {
        self.pending.iter().chain(self.unreleased).copied()
    }

    /// Whether `self[pos..pos + ids.len()]` is exactly `ids` (in range).
    fn holds(&self, pos: usize, ids: &[usize]) -> bool {
        let split = self.pending.len().saturating_sub(pos).min(ids.len());
        let (head, tail) = ids.split_at(split);
        let tail_pos = (pos + split).saturating_sub(self.pending.len());
        (head.is_empty() || holds(self.pending, pos, head))
            && (tail.is_empty() || holds(self.unreleased, tail_pos, tail))
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
    /// The last walk that took it up. Only a batch of the previous walk
    /// may be reused, and the walk after that frees it unless it was.
    walk: u32,
    /// A member's prices changed, or it left the queue, since the batch
    /// was priced ([`PrefillEstimateCache::forget`]): never reuse it.
    stale: bool,
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
/// (see the module docs); the next query starts a new walk, reusing the
/// previous walk's batches where the queue still holds them, and every
/// query extends the walk only as far as it reads.
#[derive(Debug, Default)]
pub(crate) struct PrefillEstimateCache {
    valid: bool,
    /// The current walk, and the one before it.
    steps: Vec<Step>,
    prev_steps: Vec<Step>,
    /// Every batch packed so far; free ones keep their buffers.
    batches: Vec<PackBatch>,
    free: Vec<u32>,
    /// Per request: the batch it was last packed into.
    batch_of: Vec<u32>,
    /// The current walk's number (walks count from 1).
    walk: u32,
    /// The walk's frontier: the next queue position, and the cumulative
    /// need, phase length and longest job through its last batch.
    pos: usize,
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
    /// Positions the walks covered: what pricing every walk from scratch
    /// would cost.
    pub(crate) walked: u64,
    /// Batches the walks covered, reused or packed.
    pub(crate) walked_batches: u64,
    /// Positions packed and priced afresh because no batch of the previous
    /// walk could be reused for them.
    pub(crate) priced: u64,
}

impl PrefillEstimateCache {
    /// Drop the cached walk (the pending queue changed). Its batches stay
    /// on hand for the next walk to reuse.
    #[inline]
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Make room for walks of `batches` batches: this walk's and the
    /// previous one's steps, and their batches.
    pub fn reserve(&mut self, batches: usize) {
        self.steps.reserve(batches);
        self.prev_steps.reserve(batches);
        self.batches.reserve(2 * batches);
        self.free.reserve(2 * batches);
    }

    /// Whether the current walk still matches the queue (a query extends
    /// it rather than starting a new one).
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Request `idx` left the queue, or its prefill tokens changed (a
    /// reuse discount granted or revoked): invalidate, and never reuse the
    /// batch it was packed into.
    pub fn forget(&mut self, idx: usize) {
        self.valid = false;
        if let Some(&b) = self.batch_of.get(idx) {
            if let Some(batch) = self.batches.get_mut(b as usize) {
                batch.stale = true;
            }
        }
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
        self.start(pool);
        while self.steps.last().is_none_or(|s| s.need_end <= free_tokens)
            && self.extend(queue, pool, cost).is_some()
        {}
        // Whole batches that fit, then the members of the next one that do.
        let k = self.steps.partition_point(|s| s.need_end <= free_tokens);
        if let Some(s) = self.steps.get(k) {
            let members = &self.batches[s.batch as usize].members;
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
        let b = &self.batches[s.batch as usize];
        PrefillPhaseEstimate {
            longest_job: s.closed_longest.max(b.latency),
            phase_len: s.closed_phase_len + b.bottleneck,
        }
    }

    /// Whether the walk's whole batches within the `free_tokens` cut
    /// prove that §3.5 switches: temporal intensity `1 − b/(P + b)` above
    /// `spatial`, with `P` the phase length through them (a lower bound on
    /// the estimate's) and `b = bubble_cap`, a bound on its bubble. The
    /// walk is extended one batch at a time and stops at the first that
    /// proves it. `false` means only "not proven": the exact estimate must
    /// decide, over a walk that has reached the cut or the queue's end.
    pub fn certifies_switch(
        &mut self,
        queue: Queue<'_>,
        pool: &RequestPool,
        cost: &PpCost,
        free_tokens: u64,
        spatial: f64,
        bubble_cap: f64,
    ) -> bool {
        self.start(pool);
        let proves = |p: f64| 1.0 - bubble_cap / (p + bubble_cap) > spatial + CERTIFY_MARGIN;
        let k = self.steps.partition_point(|s| s.need_end <= free_tokens);
        if let Some(s) = self.steps.get(k) {
            // The walk already reaches the cut: its batches before it are
            // all a certificate can use.
            return proves(s.closed_phase_len);
        }
        if proves(self.phase_len) {
            return true;
        }
        while let Some(s) = self.extend(queue, pool, cost) {
            if s.need_end > free_tokens {
                return false;
            }
            if proves(self.phase_len) {
                return true;
            }
        }
        false
    }

    /// Start a new walk unless the current one is still valid: free the
    /// batches of the walk before last that the last walk did not take
    /// up, and keep the last walk's as the ones to reuse.
    fn start(&mut self, pool: &RequestPool) {
        if self.valid {
            return;
        }
        self.valid = true;
        self.rebuilds += 1;
        let stale_walk = self.walk.wrapping_sub(1);
        for s in &self.prev_steps {
            if self.batches[s.batch as usize].walk == stale_walk {
                self.free.push(s.batch);
            }
        }
        std::mem::swap(&mut self.steps, &mut self.prev_steps);
        self.steps.clear();
        self.walk += 1;
        if self.batch_of.len() < pool.len() {
            self.batch_of.resize(pool.len(), u32::MAX);
        }
        self.pos = 0;
        self.need = 0;
        self.phase_len = 0.0;
        self.longest = 0.0;
    }

    /// Append the batch at the walk's frontier — the previous walk's, if
    /// it is still what the packer would make there — and return its step;
    /// `None` at the end of the queue.
    fn extend(&mut self, queue: Queue<'_>, pool: &RequestPool, cost: &PpCost) -> Option<Step> {
        let first = queue.get(self.pos)?;
        let old = self.batch_of[first];
        let b = if self.reusable(old, queue, self.pos, pool) {
            old
        } else {
            self.pack(queue, self.pos, pool, cost)
        };
        let batch = &mut self.batches[b as usize];
        batch.walk = self.walk;
        let step = Step {
            batch: b,
            need_before: self.need,
            need_end: self.need + batch.members.last().map_or(0, |m| m.need),
            closed_phase_len: self.phase_len,
            closed_longest: self.longest,
        };
        self.pos += batch.ids.len();
        self.need = step.need_end;
        self.longest = self.longest.max(batch.latency);
        self.phase_len += batch.bottleneck;
        self.walked += batch.ids.len() as u64;
        self.walked_batches += 1;
        self.steps.push(step);
        Some(step)
    }

    /// Whether batch `b`, if the previous walk took it up and none of its
    /// members was forgotten since, is what the packer would make of the
    /// queue from `pos` on: the queue holds its requests there, and the
    /// request after them, if any, still overflows its budget.
    fn reusable(&self, b: u32, queue: Queue<'_>, pos: usize, pool: &RequestPool) -> bool {
        let prev = self.walk - 1;
        let Some(batch) = self
            .batches
            .get(b as usize)
            .filter(|x| x.walk == prev && !x.stale)
        else {
            return false;
        };
        let end = pos + batch.ids.len();
        if end > queue.len() || !queue.holds(pos, &batch.ids) {
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
        queue
            .get(end)
            .is_none_or(|next| batch.budget + pool.prefill_tokens(next) > PREFILL_TOKEN_BUDGET)
    }

    /// Pack and price a new batch from the queue's position `pos`, exactly
    /// as the naive packer would. Returns its index.
    fn pack(&mut self, queue: Queue<'_>, mut pos: usize, pool: &RequestPool, cost: &PpCost) -> u32 {
        let b = self.free.pop().unwrap_or_else(|| {
            self.batches.push(PackBatch::default());
            (self.batches.len() - 1) as u32
        });
        let batch = &mut self.batches[b as usize];
        batch.ids.clear();
        batch.members.clear();
        batch.stale = false;
        let model = cost.model();
        let mut m = Member::default();
        let mut budget = 0u32;
        while let Some(idx) = queue.get(pos) {
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
        debug_assert!(
            batch.latency <= self.latency_cap,
            "batch latency above l_cap"
        );
        b
    }
}

/// Whether `deque[pos..pos + ids.len()]` is exactly `ids` (in range).
fn holds(deque: &VecDeque<usize>, pos: usize, ids: &[usize]) -> bool {
    let (front, back) = deque.as_slices();
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
