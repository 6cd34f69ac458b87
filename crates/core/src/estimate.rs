//! Memoized decode→prefill phase pricing.
//!
//! The spatial-temporal switch (§3.5) prices the *hypothetical next
//! prefill phase* on every decode step: pack pending requests by predicted
//! KV need into the currently free capacity, batch them like the real
//! prefill packer, and report the longest job plus the phase length. The
//! pending queue's *prefix* is stable for a whole decode phase (only
//! evictions push to the front), while the only per-step variable is how
//! much KV is currently free — so the packing walk can be cached once and
//! each query reduced to a binary search plus one O(stages) job pricing.
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
//! Bit-identity with the naive walk is by construction: the per-position
//! cache stores exactly the accumulators the naive loop would hold at that
//! position (cumulative need in `u64`, per-batch token/attention-FLOP sums
//! accumulated in queue order), and the batch jobs are rebuilt through
//! [`PpCost::prefill_job_from_parts`], which shares every float operation
//! with the slice-based pricing. A debug assertion in the engine compares
//! the cached estimate against the naive recomputation on every query.

use crate::config::PREFILL_TOKEN_BUDGET;
use crate::cost::{PpCost, StagedJob};
use crate::intensity::PrefillPhaseEstimate;
use crate::request::RequestPool;
use std::collections::VecDeque;

/// Per-pending-position snapshot of the packing walk, *after* including
/// that position's request.
#[derive(Debug, Clone, Copy)]
struct PackPoint {
    /// Cumulative predicted KV need (prefill tokens + predicted remaining)
    /// over pending positions `0..=i` — monotone, so the number of packed
    /// requests for a given free-token budget is a `partition_point`.
    cum_need: u64,
    /// Phase length over batches already flushed at this position.
    closed_phase_len: f64,
    /// Longest-job running max over batches already flushed.
    closed_longest: f64,
    /// Token total of the open (not yet flushed) batch.
    open_tokens: u64,
    /// Attention FLOPs of the open batch, accumulated in queue order.
    open_attn: f64,
    /// Sequence count of the open batch.
    open_seqs: u64,
    /// The packer's `u32` budget accumulator for the open batch (kept in
    /// the packer's own width so the flush boundaries match exactly).
    open_budget: u32,
}

/// Cache of the estimate-packing walk over the pending queue's prefix.
///
/// Invalidate whenever the pending queue or a pending request's prices can
/// have changed (see the module docs); queries lazily rebuild.
#[derive(Debug, Default)]
pub(crate) struct PrefillEstimateCache {
    valid: bool,
    points: Vec<PackPoint>,
    job: StagedJob,
    /// Packing walks rebuilt over the cache's lifetime — a deterministic
    /// work count for tests.
    pub(crate) rebuilds: u64,
}

impl PrefillEstimateCache {
    /// Drop the cached walk (the pending prefix changed).
    #[inline]
    pub fn invalidate(&mut self) {
        self.valid = false;
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
        let packed = self
            .points
            .partition_point(|pt| pt.cum_need <= free_tokens);
        if packed == 0 {
            return PrefillPhaseEstimate {
                longest_job: 0.0,
                phase_len: 0.0,
            };
        }
        let pt = &self.points[packed - 1];
        let mut longest = pt.closed_longest;
        let mut phase_len = pt.closed_phase_len;
        if pt.open_seqs > 0 {
            cost.prefill_job_from_parts(pt.open_tokens, pt.open_attn, pt.open_seqs, &mut self.job);
            longest = longest.max(self.job.latency());
            phase_len += self.job.bottleneck();
        }
        PrefillPhaseEstimate {
            longest_job: longest,
            phase_len,
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
        self.points.clear();
        let model = cost.model();
        let mut pt = PackPoint {
            cum_need: 0,
            closed_phase_len: 0.0,
            closed_longest: 0.0,
            open_tokens: 0,
            open_attn: 0.0,
            open_seqs: 0,
            open_budget: 0,
        };
        for &idx in pending {
            let t = pool.prefill_tokens(idx);
            pt.cum_need += (t + pool.predicted_remaining(idx)) as u64;
            if pt.open_seqs > 0 && pt.open_budget + t > PREFILL_TOKEN_BUDGET {
                // Flush the open batch, exactly where the naive packer
                // would (same u32 budget arithmetic).
                cost.prefill_job_from_parts(
                    pt.open_tokens,
                    pt.open_attn,
                    pt.open_seqs,
                    &mut self.job,
                );
                pt.closed_longest = pt.closed_longest.max(self.job.latency());
                pt.closed_phase_len += self.job.bottleneck();
                pt.open_tokens = 0;
                pt.open_attn = 0.0;
                pt.open_seqs = 0;
                pt.open_budget = 0;
            }
            pt.open_tokens += t as u64;
            pt.open_attn += model.prefill_attn_flops(t);
            pt.open_seqs += 1;
            pt.open_budget += t;
            self.points.push(pt);
            if pt.cum_need > token_capacity {
                // No query can reach past this point: free tokens are
                // bounded by the pool capacity.
                break;
            }
        }
        self.valid = true;
    }
}
