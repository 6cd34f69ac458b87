//! The paged block allocator.

use crate::window::IdWindow;
use crate::Blocks;
use serde::{Deserialize, Serialize};

/// Errors the allocator can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// Not enough free blocks for the requested growth.
    OutOfMemory {
        /// Blocks the operation needed.
        needed: Blocks,
        /// Blocks currently free.
        available: Blocks,
    },
    /// `allocate` called twice for the same request.
    DuplicateRequest(u64),
    /// `extend_one`/`free`/`tokens_of` called for an unknown request.
    UnknownRequest(u64),
    /// `allocate` or `extend_one` would leave a request holding more than
    /// [`BlockAllocator::MAX_RECORD_TOKENS`] tokens, which its residency
    /// record cannot store. Only a pool whose token capacity passes that
    /// bound can get this far; smaller pools reject the growth as
    /// `OutOfMemory` first.
    RecordOverflow {
        /// The request.
        id: u64,
        /// Tokens it would have held.
        tokens: u64,
    },
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::OutOfMemory { needed, available } => {
                write!(f, "out of KV blocks: need {needed}, have {available}")
            }
            KvError::DuplicateRequest(id) => write!(f, "request {id} already allocated"),
            KvError::UnknownRequest(id) => write!(f, "request {id} not allocated"),
            KvError::RecordOverflow { id, tokens } => write!(
                f,
                "request {id}: {tokens} tokens exceed the per-request limit of {}",
                BlockAllocator::MAX_RECORD_TOKENS
            ),
        }
    }
}

impl std::error::Error for KvError {}

/// A residency-table entry that holds no request.
const VACANT: u32 = u32::MAX;

/// Lifetime operation counts and the occupancy high-water mark,
/// maintained unconditionally (plain integer adds — the allocator never
/// branches on them, so they cannot perturb a schedule). The metrics
/// plane exports them when `record_metrics` is on; eviction counts are
/// engine-level (the allocator cannot distinguish an eviction `free` from
/// a completion `free`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocStats {
    /// Successful `allocate` calls.
    pub allocs: u64,
    /// Successful `free` calls.
    pub frees: u64,
    /// Tokens appended to residents (one per decode-step extend).
    pub extends: u64,
    /// Extends and `allocate` calls rejected with `OutOfMemory`.
    pub oom_rejections: u64,
    /// Most blocks ever in use at once.
    pub used_blocks_high_water: u64,
}

impl AllocStats {
    /// Elementwise sum, for aggregating over disjoint per-lane pools.
    /// High-water marks add too: the lanes' pools are disjoint, so their
    /// peaks bound the combined peak from above (callers divide by the
    /// *total* block count).
    pub fn merged(self, other: AllocStats) -> AllocStats {
        AllocStats {
            allocs: self.allocs + other.allocs,
            frees: self.frees + other.frees,
            extends: self.extends + other.extends,
            oom_rejections: self.oom_rejections + other.oom_rejections,
            used_blocks_high_water: self.used_blocks_high_water + other.used_blocks_high_water,
        }
    }
}

/// `used` of `num_blocks` blocks as a fraction in `[0, 1]`; an empty pool
/// reads full. The one formula behind [`BlockAllocator::occupancy`] and
/// [`OccupancyTrace`](crate::OccupancyTrace)'s samples.
pub fn used_fraction(used: Blocks, num_blocks: Blocks) -> f64 {
    if num_blocks == Blocks::ZERO {
        return 1.0;
    }
    used.get() as f64 / num_blocks.get() as f64
}

/// A fixed pool of KV blocks with per-request accounting.
///
/// `block_size` tokens fit in one block; a request holding `t` tokens owns
/// `ceil(t / block_size)` blocks (the trailing block is partially filled,
/// exactly like paged attention). All operations are O(1) — request ids
/// are dense pool indices in this codebase, so residency lives in a flat
/// table indexed by id rather than a hash map. The table is an
/// [`IdWindow`]: it spans only the ids from the oldest resident to the
/// newest one allocated, since a free retires the vacant entries at its
/// front. An entry is one `u32`: the request's resident tokens, or
/// `u32::MAX` when vacant. Its block count is not stored — it is always
/// `ceil(tokens / block_size)`, so every reader derives it. Decode steps
/// do not touch the table per member: a cohort step moves the pool
/// counters once through [`extend_cohort`](Self::extend_cohort) or
/// [`extend_survivors`](Self::extend_survivors) and settles a member's
/// record only when it is read ([`advance_tokens`](Self::advance_tokens)).
///
/// ```
/// use tdpipe_kvcache::{BlockAllocator, Blocks};
///
/// let mut pool = BlockAllocator::new(Blocks::new(100), 16);
/// pool.allocate(1, 300).unwrap();   // prefill: 19 blocks
/// pool.extend_one(1).unwrap();      // one decode step
/// assert_eq!(pool.tokens_of(1).unwrap(), 301);
/// assert_eq!(pool.free(1).unwrap(), 301);
/// assert_eq!(pool.occupancy(), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct BlockAllocator {
    block_size: u32,
    num_blocks: Blocks,
    used_blocks: Blocks,
    /// Residency table indexed by request id, over the ids in flight.
    residents: IdWindow<Record>,
    /// Count of non-`VACANT` entries in `residents`.
    num_residents: usize,
    /// Sum of `tokens` over resident requests, maintained incrementally so
    /// `resident_tokens()` stays O(1).
    resident_tokens: u64,
    /// Lifetime operation counters (see [`AllocStats`]).
    stats: AllocStats,
}

/// One residency-table entry: the request's resident tokens, at most
/// [`BlockAllocator::MAX_RECORD_TOKENS`], or `VACANT`.
type Record = u32;

// One entry per request in flight per pool (every request, for a
// closed-loop share's reserved table): a field that widens the entry
// multiplies into the run's peak memory.
const _: () = assert!(std::mem::size_of::<Record>() == 4);

impl BlockAllocator {
    /// Most tokens one request's record holds: `u32::MAX - 1`, since
    /// `u32::MAX` marks a vacant entry.
    pub const MAX_RECORD_TOKENS: u64 = VACANT as u64 - 1;

    /// A pool of `num_blocks` blocks of `block_size` tokens.
    ///
    /// # Panics
    /// Panics if `block_size == 0`.
    pub fn new(num_blocks: Blocks, block_size: u32) -> Self {
        assert!(block_size > 0, "block size must be positive");
        BlockAllocator {
            block_size,
            num_blocks,
            used_blocks: Blocks::ZERO,
            residents: IdWindow::new(),
            num_residents: 0,
            resident_tokens: 0,
            stats: AllocStats::default(),
        }
    }

    /// Make room in the residency table for ids `0..n` up front. For runs
    /// that allocate ids far out of order (closed-loop shares release
    /// turns out of id order), where the window spans most ids anyway and
    /// regrowing it mid-run only churns the heap.
    pub fn reserve_ids(&mut self, n: usize) {
        self.residents.reserve(n);
    }

    /// The most ids the residency table ever spanned.
    #[inline]
    pub fn window_high_water(&self) -> usize {
        self.residents.high_water()
    }

    /// `id`'s resident tokens, if it is resident.
    #[inline]
    fn slot(&self, id: u64) -> Option<u64> {
        let tokens = self.residents.read(usize::try_from(id).ok()?, VACANT, VACANT);
        (tokens != VACANT).then_some(u64::from(tokens))
    }

    /// `tokens` as an entry, if it is at most
    /// [`MAX_RECORD_TOKENS`](Self::MAX_RECORD_TOKENS).
    #[inline]
    fn record(tokens: u64) -> Option<Record> {
        u32::try_from(tokens).ok().filter(|&t| t != VACANT)
    }

    /// `id`'s table entry, if it is resident.
    #[inline]
    fn slot_mut(&mut self, id: u64) -> Option<&mut Record> {
        self.residents
            .get_mut(usize::try_from(id).ok()?)
            .filter(|tokens| **tokens != VACANT)
    }

    /// Tokens per block.
    #[inline]
    pub fn block_size(&self) -> u32 {
        self.block_size
    }

    /// Pool size in blocks.
    #[inline]
    pub fn num_blocks(&self) -> Blocks {
        self.num_blocks
    }

    /// Blocks currently allocated.
    #[inline]
    pub fn used_blocks(&self) -> Blocks {
        self.used_blocks
    }

    /// Blocks currently free.
    #[inline]
    pub fn free_blocks(&self) -> Blocks {
        self.num_blocks - self.used_blocks
    }

    /// Used fraction of the pool in `[0, 1]` — Figure 12's y-axis.
    pub fn occupancy(&self) -> f64 {
        used_fraction(self.used_blocks, self.num_blocks)
    }

    /// Number of resident requests.
    #[inline]
    pub fn num_residents(&self) -> usize {
        self.num_residents
    }

    /// Total tokens resident across requests (maintained incrementally).
    #[inline]
    pub fn resident_tokens(&self) -> u64 {
        self.resident_tokens
    }

    /// Lifetime operation counters and the occupancy high-water mark.
    #[inline]
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// Admit a request with `tokens` tokens (its prompt after prefill).
    pub fn allocate(&mut self, id: u64, tokens: u64) -> Result<(), KvError> {
        if self.slot(id).is_some() {
            return Err(KvError::DuplicateRequest(id));
        }
        let needed = Blocks::for_tokens(tokens, self.block_size);
        let available = self.free_blocks();
        if needed > available {
            self.stats.oom_rejections += 1;
            return Err(KvError::OutOfMemory { needed, available });
        }
        let record = Self::record(tokens).ok_or(KvError::RecordOverflow { id, tokens })?;
        #[expect(clippy::cast_possible_truncation, reason = "ids are request-pool indices, `usize` \
            values widened to `u64`")]
        let idx = id as usize;
        self.used_blocks += needed;
        self.num_residents += 1;
        self.resident_tokens += tokens;
        self.stats.allocs += 1;
        self.raise_high_water();
        *self.residents.entry(idx, |_| VACANT) = record;
        Ok(())
    }

    /// Append one token to a resident request: one decode step for one
    /// member, the per-member reference the cohort accounting
    /// ([`extend_cohort`](Self::extend_cohort)) must match. A new block is
    /// needed exactly when the token count is a multiple of the block size
    /// (the trailing block is full, or there is none). On `OutOfMemory` or
    /// `RecordOverflow` the request is left unchanged.
    pub fn extend_one(&mut self, id: u64) -> Result<(), KvError> {
        let free = self.free_blocks();
        let block_size = self.block_size;
        let r = self.slot_mut(id).ok_or(KvError::UnknownRequest(id))?;
        let grows = *r % block_size == 0;
        if grows && free == Blocks::ZERO {
            self.stats.oom_rejections += 1;
            return Err(KvError::OutOfMemory {
                needed: Blocks::new(1),
                available: free,
            });
        }
        if u64::from(*r) == Self::MAX_RECORD_TOKENS {
            let tokens = Self::MAX_RECORD_TOKENS + 1;
            return Err(KvError::RecordOverflow { id, tokens });
        }
        *r += 1;
        self.resident_tokens += 1;
        self.stats.extends += 1;
        if grows {
            self.used_blocks += Blocks::new(1);
            self.raise_high_water();
        }
        Ok(())
    }

    /// Lift the high-water mark to the blocks in use now.
    #[inline]
    fn raise_high_water(&mut self) {
        let used = self.used_blocks.get();
        if used > self.stats.used_blocks_high_water {
            self.stats.used_blocks_high_water = used;
        }
    }

    /// Aggregate accounting for one event-driven decode step (see
    /// `tdpipe_core::cohort`): `live` residents each gained one token and
    /// `grows` of them crossed a block boundary. Pool counters and stats
    /// move exactly as `live` sequential [`extend_one`](Self::extend_one)
    /// calls would (used blocks are monotone within the step, so one final
    /// high-water update is identical); the per-id records are settled
    /// later via [`advance_tokens`](Self::advance_tokens).
    ///
    /// # Panics
    /// Panics if the step overflows the pool — callers must guard
    /// `free_blocks() >= grows` before the step.
    pub fn extend_cohort(&mut self, live: u64, grows: Blocks) {
        debug_assert!(grows.get() <= live, "more block growths than live members");
        self.used_blocks += grows;
        // A guard violation is a caller bug; the per-call path would have
        // rejected the overflowing extend.
        assert!(
            self.used_blocks <= self.num_blocks,
            "extend_cohort caller must guard free_blocks() >= grows"
        );
        self.resident_tokens += live;
        self.stats.extends += live;
        self.raise_high_water();
    }

    /// [`extend_cohort`](Self::extend_cohort) for a banked decode step
    /// that evicted: `survivors` members stay banked (one token each),
    /// the step's extends consumed `grows` blocks (including blocks taken
    /// by members evicted later in the same step — their `free` already
    /// returned them, which is why this runs after the victims settle),
    /// `extra_extends` victims received their step token before being
    /// evicted, and the walk hit OutOfMemory `rejections` times (once per
    /// eviction). Each rejection happened with the pool saturated, so the
    /// high-water mark pins to the full pool exactly as the per-call
    /// path's transient peak did.
    ///
    /// # Panics
    /// Panics if the net step overflows the pool (a caller bug: the
    /// per-call path cannot end a step above capacity).
    pub fn extend_survivors(
        &mut self,
        survivors: u64,
        grows: Blocks,
        extra_extends: u64,
        rejections: u64,
    ) {
        self.used_blocks += grows;
        // See extend_cohort.
        assert!(
            self.used_blocks <= self.num_blocks,
            "extend_survivors ended the step above capacity"
        );
        self.resident_tokens += survivors + extra_extends;
        self.stats.extends += survivors + extra_extends;
        self.stats.oom_rejections += rejections;
        if rejections > 0 {
            self.stats.used_blocks_high_water = self.num_blocks.get();
        } else {
            self.raise_high_water();
        }
    }

    /// Settle `steps` banked single-token extends on one resident whose
    /// aggregate accounting was already applied by
    /// [`extend_cohort`](Self::extend_cohort): only the per-id record
    /// moves (no pool counters, no stats), and its block count follows
    /// from the new token count. Must run before any per-id read —
    /// [`free`](Self::free), [`tokens_of`](Self::tokens_of) — and before
    /// the request's next non-cohort extend.
    ///
    /// # Panics
    /// Panics if `id` is not resident, or if the settled count passes
    /// [`MAX_RECORD_TOKENS`](Self::MAX_RECORD_TOKENS) (a step
    /// [`extend_one`](Self::extend_one) would have rejected).
    pub fn advance_tokens(&mut self, id: u64, steps: u64) {
        if steps == 0 {
            return;
        }
        let r = self
            .slot_mut(id)
            // Same contract as the per-call path: cohort members are
            // always resident.
            .expect("cohort member resident");
        // Members grow only by steps their pool had blocks for; only in a
        // pool past the limit could one reach it, and then only with ~4G
        // tokens of prompt plus output, which no workload generates. The
        // per-call path returns `RecordOverflow` instead.
        *r = Self::record(u64::from(*r) + steps).expect("banked tokens within the record limit");
    }

    /// Release a request's blocks (completion, or recompute-eviction).
    /// Returns the number of tokens that were resident.
    pub fn free(&mut self, id: u64) -> Result<u64, KvError> {
        let r = self.slot_mut(id).ok_or(KvError::UnknownRequest(id))?;
        let tokens = u64::from(std::mem::replace(r, VACANT));
        self.residents.retire_front(|&t| t == VACANT);
        self.used_blocks -= Blocks::for_tokens(tokens, self.block_size);
        self.num_residents -= 1;
        self.resident_tokens -= tokens;
        self.stats.frees += 1;
        Ok(tokens)
    }

    /// Tokens currently resident for `id`.
    pub fn tokens_of(&self, id: u64) -> Result<u64, KvError> {
        self.slot(id).ok_or(KvError::UnknownRequest(id))
    }

    /// Whether `id` is resident.
    pub fn contains(&self, id: u64) -> bool {
        self.slot(id).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` decode steps of resident `id`.
    fn grow(a: &mut BlockAllocator, id: u64, n: u64) {
        for _ in 0..n {
            a.extend_one(id).unwrap();
        }
    }

    #[test]
    fn allocate_extend_free_roundtrip() {
        let mut a = BlockAllocator::new(Blocks::new(10), 16);
        a.allocate(1, 17).unwrap(); // 2 blocks
        assert_eq!(a.used_blocks(), Blocks::new(2));
        assert_eq!(a.tokens_of(1).unwrap(), 17);

        // 15 more tokens fill block 2 exactly (32 total): no new block.
        grow(&mut a, 1, 15);
        assert_eq!(a.used_blocks(), Blocks::new(2));
        // One more token opens block 3.
        a.extend_one(1).unwrap();
        assert_eq!(a.used_blocks(), Blocks::new(3));

        assert_eq!(a.free(1).unwrap(), 33);
        assert_eq!(a.used_blocks(), Blocks::ZERO);
        assert_eq!(a.occupancy(), 0.0);
    }

    #[test]
    fn out_of_memory_is_clean() {
        let mut a = BlockAllocator::new(Blocks::new(2), 16);
        a.allocate(1, 16).unwrap();
        let err = a.allocate(2, 17).unwrap_err();
        assert_eq!(
            err,
            KvError::OutOfMemory {
                needed: Blocks::new(2),
                available: Blocks::new(1)
            }
        );
        // Failed allocation leaves no residue.
        assert_eq!(a.used_blocks(), Blocks::new(1));
        assert!(!a.contains(2));
    }

    #[test]
    fn failed_extend_leaves_request_intact() {
        let mut a = BlockAllocator::new(Blocks::new(1), 4);
        a.allocate(1, 4).unwrap();
        let err = a.extend_one(1).unwrap_err();
        assert!(matches!(err, KvError::OutOfMemory { .. }));
        assert_eq!(a.tokens_of(1).unwrap(), 4);
        assert_eq!(a.used_blocks(), Blocks::new(1));
    }

    #[test]
    fn duplicate_and_unknown_ids() {
        let mut a = BlockAllocator::new(Blocks::new(10), 16);
        a.allocate(1, 1).unwrap();
        assert_eq!(a.allocate(1, 1).unwrap_err(), KvError::DuplicateRequest(1));
        assert_eq!(a.extend_one(9).unwrap_err(), KvError::UnknownRequest(9));
        assert_eq!(a.free(9).unwrap_err(), KvError::UnknownRequest(9));
    }

    #[test]
    fn zero_token_allocation_uses_no_blocks() {
        let mut a = BlockAllocator::new(Blocks::new(4), 16);
        a.allocate(1, 0).unwrap();
        assert_eq!(a.used_blocks(), Blocks::ZERO);
        assert!(a.contains(1));
        a.extend_one(1).unwrap();
        assert_eq!(a.used_blocks(), Blocks::new(1));
    }

    #[test]
    fn occupancy_of_empty_pool_is_full() {
        let mut a = BlockAllocator::new(Blocks::ZERO, 16);
        assert_eq!(a.occupancy(), 1.0);
        assert!(a.allocate(1, 1).is_err());
        assert!(a.allocate(2, 0).is_ok());
    }

    #[test]
    fn stats_count_operations_and_high_water() {
        let mut a = BlockAllocator::new(Blocks::new(4), 16);
        a.allocate(1, 32).unwrap(); // 2 blocks
        a.allocate(2, 32).unwrap(); // 4 blocks → high water
        assert!(a.allocate(3, 16).is_err()); // OOM rejection
        a.free(1).unwrap();
        a.extend_one(2).unwrap(); // opens a third block for id 2
        let s = a.stats();
        assert_eq!(s.allocs, 2);
        assert_eq!(s.frees, 1);
        assert_eq!(s.extends, 1);
        assert_eq!(s.oom_rejections, 1);
        assert_eq!(s.used_blocks_high_water, 4);
    }

    #[test]
    fn cohort_extends_match_sequential_extends() {
        // Lazy cohort accounting (aggregate now, per-id settle later)
        // must be indistinguishable from per-step `extend_one` calls.
        let mut fast = BlockAllocator::new(Blocks::new(100), 4);
        let mut slow = BlockAllocator::new(Blocks::new(100), 4);
        for id in 0..3u64 {
            fast.allocate(id, 3 + id).unwrap();
            slow.allocate(id, 3 + id).unwrap();
        }
        let steps = 10u64;
        for s in 0..steps {
            // Member `id` (3 + id tokens at join) grows when its token
            // count entering the step is a multiple of the block size.
            let grows = (0..3u64).filter(|id| (3 + id + s) % 4 == 0).count() as u64;
            fast.extend_cohort(3, Blocks::new(grows));
            for id in 0..3u64 {
                slow.extend_one(id).unwrap();
            }
            assert_eq!(fast.used_blocks(), slow.used_blocks());
            assert_eq!(fast.stats(), slow.stats());
            assert_eq!(fast.resident_tokens(), slow.resident_tokens());
        }
        for id in 0..3u64 {
            fast.advance_tokens(id, steps);
            assert_eq!(fast.tokens_of(id).unwrap(), slow.tokens_of(id).unwrap());
            assert_eq!(fast.free(id).unwrap(), slow.free(id).unwrap());
        }
        assert_eq!(fast.used_blocks(), Blocks::ZERO);
        assert_eq!(fast.stats(), slow.stats());
    }

    #[test]
    #[should_panic(expected = "guard")]
    fn cohort_extend_overflow_is_a_caller_bug() {
        let mut a = BlockAllocator::new(Blocks::new(2), 4);
        a.allocate(0, 8).unwrap();
        a.extend_cohort(1, Blocks::new(1));
    }

    #[test]
    fn advance_tokens_zero_steps_is_a_noop() {
        let mut a = BlockAllocator::new(Blocks::new(10), 4);
        a.allocate(7, 5).unwrap();
        a.advance_tokens(7, 0);
        assert_eq!(a.tokens_of(7).unwrap(), 5);
    }

    #[test]
    fn a_count_past_the_record_limit_is_a_typed_error() {
        // A pool whose token capacity exceeds `u32::MAX`: the record
        // limit, not the pool, is what binds.
        let mut a = BlockAllocator::new(Blocks::new(1 << 29), 16);
        assert!(a.num_blocks().tokens(16) >= 2 * u32::MAX as u64);
        let max = BlockAllocator::MAX_RECORD_TOKENS;
        for tokens in [max + 1, u32::MAX as u64 + 1, u64::from(u32::MAX) * 2] {
            let err = a.allocate(1, tokens).unwrap_err();
            assert_eq!(err, KvError::RecordOverflow { id: 1, tokens });
            assert!(err.to_string().contains(&max.to_string()), "{err}");
        }
        assert!(!a.contains(1));
        assert_eq!((a.used_blocks(), a.num_residents()), (Blocks::ZERO, 0));
        assert_eq!(a.stats(), AllocStats::default());

        a.allocate(2, max).unwrap();
        assert_eq!(a.tokens_of(2), Ok(max));
        let used = a.used_blocks();
        assert_eq!(used, Blocks::for_tokens(max, 16));
        let err = a.extend_one(2).unwrap_err();
        let tokens = max + 1;
        assert_eq!(err, KvError::RecordOverflow { id: 2, tokens });
        assert_eq!(a.tokens_of(2), Ok(max));
        assert_eq!((a.used_blocks(), a.stats().extends), (used, 0));
        assert_eq!(a.free(2), Ok(max));
        assert_eq!(a.used_blocks(), Blocks::ZERO);
    }

    #[test]
    fn resident_tokens_tracks_sum() {
        let mut a = BlockAllocator::new(Blocks::new(100), 16);
        a.allocate(1, 10).unwrap();
        a.allocate(2, 20).unwrap();
        grow(&mut a, 2, 5);
        assert_eq!(a.resident_tokens(), 35);
        assert_eq!(a.num_residents(), 2);
    }
}
