//! Algorithm 1: the AI-based greedy prefill switch (paper §3.3).
//!
//! The planner simulates future KV usage at a grid of `futurePoints` —
//! decode-step offsets from the moment the decode phase will start. A
//! request with resident tokens `c` and predicted remaining output `p`
//! contributes `c + fp` tokens at future point `fp` if `fp ≤ p` and nothing
//! otherwise (by then it is predicted to have finished and freed its KV).
//! Prefill keeps going while the simulated peak stays within capacity —
//! that is what lets TD-Pipe start decode phases with far fuller memory
//! than a naive "stop at X% occupancy" rule, without overflowing later.
//!
//! The planner is **incremental**: it tracks each admitted request's exact
//! contribution, so admitting, finishing/evicting ([`GreedyPrefillPlanner::
//! remove_request`]) or advancing a request by a batch of decode steps
//! ([`GreedyPrefillPlanner::advance`]) is O(1) difference-array updates
//! plus one O(log futurePoints) search. A request is live at a prefix of
//! the grid, so the grid is kept as two difference arrays over the
//! future-point index — resident-token sums and live counts — and point
//! `k`'s usage is `tokens[k] + count[k] × fp_k`. Only the readers
//! ([`GreedyPrefillPlanner::would_overflow`], [`GreedyPrefillPlanner::
//! peak_usage`], [`GreedyPrefillPlanner::usage`]) materialise the grid, in
//! O(futurePoints). All arithmetic is exact wrapping `u64`, and the true
//! sums never leave `u64`, so the prefix sums are bit-identical to a
//! from-scratch rebuild (the equivalence proptest and a debug assertion in
//! the engine both pin this).

use tdpipe_kvcache::{BlockAllocator, IdWindow};

/// The future-usage simulator behind Algorithm 1.
///
/// ```
/// use tdpipe_core::greedy::GreedyPrefillPlanner;
///
/// let mut planner = GreedyPrefillPlanner::new(vec![32, 64, 128], 10_000);
/// assert!(!planner.would_overflow());
/// assert_eq!(planner.token_capacity(), 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct GreedyPrefillPlanner {
    /// Future decode-step offsets (e.g. 32, 64, …, 1024).
    future_points: Vec<u32>,
    /// Difference array of the resident tokens live at each future point
    /// (one entry past the grid, where every live prefix ends).
    tokens: Vec<u64>,
    /// Difference array of the requests live at each future point.
    counts: Vec<u64>,
    /// Token capacity of the KV pool.
    token_capacity: u64,
    /// Per-request tracked contribution, id-indexed: `(current_tokens,
    /// predicted_remaining)` exactly as accounted into the grid, or
    /// [`UNTRACKED`] for requests the planner is not currently tracking.
    /// A window from the oldest tracked id to the newest one admitted:
    /// removals retire the untracked entries at its front.
    tracked: IdWindow<Tracked>,
}

/// One tracking-table entry: `(current_tokens, predicted_remaining)`, or
/// [`UNTRACKED`].
type Tracked = (u32, u32);

// One entry per request in flight (every request, for a closed-loop
// share's reserved table): a field that widens the entry multiplies into
// the run's peak memory.
const _: () = assert!(std::mem::size_of::<Tracked>() == 8);

/// The entry of a request the planner is not tracking.
const UNTRACKED: Tracked = (u32::MAX, 0);

/// `current_tokens` as an entry's token count. A request an engine holds
/// in KV has at most the allocator's per-request limit, just below the
/// sentinel; the clamp only keeps misuse from reading as untracked.
#[inline]
fn pack(current_tokens: u64) -> u32 {
    let max = BlockAllocator::MAX_RECORD_TOKENS;
    debug_assert!(current_tokens <= max, "{current_tokens} tokens");
    current_tokens.min(max) as u32
}

impl GreedyPrefillPlanner {
    /// A planner for the given `futurePoints` grid and pool capacity.
    ///
    /// # Panics
    /// Panics if the grid is empty or unsorted.
    pub fn new(future_points: Vec<u32>, token_capacity: u64) -> Self {
        assert!(!future_points.is_empty(), "need at least one future point");
        assert!(
            future_points.windows(2).all(|w| w[0] < w[1]),
            "future points must be strictly increasing"
        );
        let n = future_points.len() + 1;
        GreedyPrefillPlanner {
            future_points,
            tokens: vec![0; n],
            counts: vec![0; n],
            token_capacity,
            tracked: IdWindow::new(),
        }
    }

    /// Make room in the tracking table for ids `0..n` up front, for runs
    /// that admit ids far out of order (see
    /// [`BlockAllocator::reserve_ids`]).
    pub fn reserve_ids(&mut self, n: usize) {
        self.tracked.reserve(n);
    }

    /// The most ids the tracking table ever spanned.
    pub fn window_high_water(&self) -> usize {
        self.tracked.high_water()
    }

    /// Forget every tracked request and zero the usage grid.
    pub fn clear(&mut self) {
        self.tokens.fill(0);
        self.counts.fill(0);
        self.tracked.clear();
    }

    /// Algorithm 1's `UpdateUsage`: account one just-admitted request with
    /// `current_tokens` of resident KV and `predicted_remaining` output
    /// tokens still expected. `current_tokens` is at most the allocator's
    /// per-request limit ([`BlockAllocator::MAX_RECORD_TOKENS`]).
    ///
    /// # Panics
    /// Panics (debug) if `id` is already tracked — remove it first — or
    /// if `current_tokens` passes the per-request limit.
    pub fn admit(&mut self, id: usize, current_tokens: u64, predicted_remaining: u32) {
        let slot = self.tracked.entry(id, |_| UNTRACKED);
        debug_assert!(*slot == UNTRACKED, "request {id} already tracked");
        let entry = (pack(current_tokens), predicted_remaining);
        *slot = entry;
        self.add(entry);
    }

    /// Remove a tracked request (it finished, or was evicted/swapped out):
    /// its exact stored contribution is subtracted, so the grid returns to
    /// the state it would have had without the request. No settling is
    /// required first — the stored `(c, p)` pair is whatever was last
    /// admitted/advanced, and that is exactly what was accounted.
    pub fn remove_request(&mut self, id: usize) {
        let entry = self.tracked.get_mut(id).map_or(UNTRACKED, |e| std::mem::replace(e, UNTRACKED));
        if entry == UNTRACKED {
            // Planner misuse is an engine bug; the debug-assert oracle in
            // the engine catches drift earlier.
            panic!("removing untracked request {id}")
        }
        self.tracked.retire_front(|&e| e == UNTRACKED);
        self.sub(entry);
    }

    /// Advance a tracked request by `steps` decode steps: its resident
    /// tokens grow by `steps` and its predicted remaining output shrinks
    /// (saturating), so advancing by `a` then `b` equals advancing by
    /// `a + b`.
    pub fn advance(&mut self, id: usize, steps: u32) {
        if steps == 0 {
            return;
        }
        let Some(slot) = self.tracked.get_mut(id).filter(|e| **e != UNTRACKED) else {
            // Planner misuse is an engine bug; the debug-assert oracle in
            // the engine catches drift earlier.
            panic!("advancing untracked request {id}")
        };
        let entry = *slot;
        let (c, p) = entry;
        let advanced = (
            pack(u64::from(c) + u64::from(steps)),
            p.saturating_sub(steps),
        );
        *slot = advanced;
        self.sub(entry);
        self.add(advanced);
    }

    /// Account `c + fp` tokens at every future point `fp ≤ p`.
    #[inline]
    fn add(&mut self, (c, p): Tracked) {
        let c = u64::from(c);
        let live = self.live_prefix(p);
        self.tokens[0] = self.tokens[0].wrapping_add(c);
        self.tokens[live] = self.tokens[live].wrapping_sub(c);
        self.counts[0] = self.counts[0].wrapping_add(1);
        self.counts[live] = self.counts[live].wrapping_sub(1);
    }

    /// Undo [`Self::add`]`((c, p))`.
    #[inline]
    fn sub(&mut self, (c, p): Tracked) {
        let c = u64::from(c);
        let live = self.live_prefix(p);
        self.tokens[0] = self.tokens[0].wrapping_sub(c);
        self.tokens[live] = self.tokens[live].wrapping_add(c);
        self.counts[0] = self.counts[0].wrapping_sub(1);
        self.counts[live] = self.counts[live].wrapping_add(1);
    }

    /// The future points a request with `predicted_remaining` output is
    /// still alive at form a prefix of the (strictly increasing) grid.
    #[inline]
    fn live_prefix(&self, predicted_remaining: u32) -> usize {
        self.future_points
            .partition_point(|&fp| fp <= predicted_remaining)
    }

    /// Predicted resident tokens at each future point, in grid order: the
    /// difference arrays' running sums.
    fn grid(&self) -> impl Iterator<Item = u64> + '_ {
        let (mut tokens, mut count) = (0u64, 0u64);
        self.future_points.iter().enumerate().map(move |(k, &fp)| {
            tokens = tokens.wrapping_add(self.tokens[k]);
            count = count.wrapping_add(self.counts[k]);
            tokens + count * fp as u64
        })
    }

    /// Algorithm 1's `CheckSwitch`: `true` when the simulated peak usage
    /// exceeds capacity — time to switch to decode.
    pub fn would_overflow(&self) -> bool {
        self.grid().any(|u| u > self.token_capacity)
    }

    /// The simulated peak across future points.
    pub fn peak_usage(&self) -> u64 {
        self.grid().max().unwrap_or(0)
    }

    /// The usage grid itself (one entry per future point) — exposed so
    /// tests and the engine's debug oracle can compare incremental state
    /// against a from-scratch rebuild.
    pub fn usage(&self) -> Vec<u64> {
        self.grid().collect()
    }

    /// Capacity the planner guards.
    #[inline]
    pub fn token_capacity(&self) -> u64 {
        self.token_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planner(cap: u64) -> GreedyPrefillPlanner {
        GreedyPrefillPlanner::new(vec![32, 64, 128, 256], cap)
    }

    #[test]
    fn short_outputs_free_memory_at_later_points() {
        let mut p = planner(1_000_000);
        // Predicted 50 output tokens: present at fp=32, gone at fp=64+.
        p.admit(0, 100, 50);
        assert_eq!(p.peak_usage(), 100 + 32);
        // A long request dominates later points.
        p.admit(1, 200, 300);
        // fp=32: 132 + 232 = 364; fp=256: 200 + 256 = 456 dominates.
        assert_eq!(p.peak_usage(), 456);
    }

    #[test]
    fn overflow_triggers_exactly_at_capacity_boundary() {
        let mut p = planner(164);
        p.admit(0, 100, 64);
        // usage at fp=32 → 132; fp=64 → 164. Capacity 164: not exceeded.
        assert!(!p.would_overflow());
        let mut p2 = planner(163);
        p2.admit(0, 100, 64);
        assert!(p2.would_overflow());
    }

    #[test]
    fn aggressive_admission_beats_fixed_threshold() {
        // The point of Algorithm 1: many short-output requests can be
        // admitted far past a naive occupancy threshold because they free
        // KV during decode.
        let cap = 10_000u64;
        let mut p = planner(cap);
        let mut admitted_tokens = 0u64;
        let mut n = 0usize;
        loop {
            p.admit(n, 100, 20); // present only at fp ≤ 20 → never at 32!
            if p.would_overflow() {
                break;
            }
            admitted_tokens += 100;
            n += 1;
            if n > 10_000 {
                break;
            }
        }
        // Requests predicted to finish before the first future point never
        // register usage — admission is limited by actual allocation, not
        // the planner. (The allocator backstops reality.)
        assert!(admitted_tokens > cap, "planner should allow oversubscription of short requests");
    }

    #[test]
    fn remove_restores_prior_state() {
        let mut p = planner(1_000);
        p.admit(0, 140, 60);
        // fp=32 ≤ 60: 140 + 32 = 172; fp=64 > 60: 0.
        assert_eq!(p.peak_usage(), 172);
        p.admit(1, 50, 500);
        p.remove_request(1);
        assert_eq!(p.peak_usage(), 172);
        p.remove_request(0);
        assert_eq!(p.peak_usage(), 0);
    }

    #[test]
    fn advance_matches_readmission() {
        let mut a = planner(u64::MAX);
        a.admit(0, 140, 100);
        a.advance(0, 40);
        // Equivalent from-scratch: 180 resident, 60 remaining.
        let mut b = planner(u64::MAX);
        b.admit(0, 180, 60);
        assert_eq!(a.usage(), b.usage());
        // Saturating: advancing past the prediction zeroes the request's
        // live prefix but keeps counting its resident tokens growth path.
        a.advance(0, 100);
        let mut c = planner(u64::MAX);
        c.admit(0, 280, 0);
        assert_eq!(a.usage(), c.usage());
    }

    #[test]
    fn advance_composes() {
        let mut a = planner(u64::MAX);
        a.admit(7, 300, 200);
        a.advance(7, 30);
        a.advance(7, 50);
        let mut b = planner(u64::MAX);
        b.admit(7, 300, 200);
        b.advance(7, 80);
        assert_eq!(a.usage(), b.usage());
    }

    #[test]
    fn clear_empties_everything() {
        let mut p = planner(1_000);
        p.admit(0, 100, 40);
        p.admit(1, 100, 400);
        p.clear();
        assert_eq!(p.peak_usage(), 0);
        // Ids are re-admittable after a clear.
        p.admit(0, 10, 33);
        assert_eq!(p.peak_usage(), 42);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_grid_panics() {
        GreedyPrefillPlanner::new(vec![64, 32], 10);
    }
}
