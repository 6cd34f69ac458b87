//! Session-affine KV retention across conversation turns.
//!
//! When a closed-loop session's turn finishes, its KV blocks hold exactly
//! the next turn's shared prefix (prior prompt + answer). Instead of
//! freeing them, the engine can *retain* them — the blocks stay allocated
//! in the [`crate::BlockAllocator`] under the finished request's id — so
//! the resumed turn only prefills its fresh suffix. This module is the
//! bookkeeping for that: which successor request each retained allocation
//! is reserved for, how many blocks the idle pool holds against its
//! budget, and the oldest-first reclamation order when memory is needed
//! for live work.
//!
//! Everything is index-addressed (dense `Vec`s plus a `VecDeque` in
//! retain order) — no hashing, no wall clock — so runs stay bit-identical.

use std::collections::VecDeque;

/// One retained allocation, reserved for a specific successor request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetainedKv {
    /// The finished request whose allocator entry still holds the blocks.
    pub donor: u64,
    /// Tokens resident in the retained allocation (the shared prefix the
    /// successor can reuse).
    pub tokens: u64,
    /// Blocks the retained allocation occupies.
    pub blocks: u64,
}

/// Lifetime counters for the retention pool (plain adds — never branched
/// on, so they cannot perturb a schedule).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetainStats {
    /// Allocations retained at turn finish.
    pub retains: u64,
    /// Retained allocations claimed by their successor (reuse hits).
    pub claims: u64,
    /// Retained allocations reclaimed before reuse (budget or pressure).
    pub drops: u64,
    /// Sum of tokens over claimed allocations (tokens never re-prefilled).
    pub claimed_tokens: u64,
    /// Most blocks the idle retention pool ever held at once.
    pub retained_blocks_high_water: u64,
}

/// The idle-session retention pool: retained allocations keyed by the
/// *successor* request id, reclaimed oldest-first.
///
/// The blocks themselves stay owned by the [`crate::BlockAllocator`]
/// (under the donor's id); this structure only decides which allocations
/// survive and who may claim them. Retained entries are never refreshed,
/// so insertion order *is* least-recently-used order.
#[derive(Debug, Clone)]
pub struct SessionRetainer {
    /// Max blocks the idle pool may hold; `retain` refuses beyond it.
    budget_blocks: u64,
    /// Entry per successor id; `None` = nothing retained for it.
    entries: Vec<Option<RetainedKv>>,
    /// Successor ids in retain order (front = oldest).
    order: VecDeque<u64>,
    retained_blocks: u64,
    retained_tokens: u64,
    stats: RetainStats,
}

impl SessionRetainer {
    /// A pool allowed to hold at most `budget_blocks` idle blocks.
    pub fn new(budget_blocks: u64) -> Self {
        SessionRetainer {
            budget_blocks,
            entries: Vec::new(),
            order: VecDeque::new(),
            retained_blocks: 0,
            retained_tokens: 0,
            stats: RetainStats::default(),
        }
    }

    /// Pre-size the entry table for successor ids `0..n`.
    pub fn reserve_ids(&mut self, n: usize) {
        if self.entries.len() < n {
            self.entries.resize(n, None);
        }
    }

    /// The configured block budget.
    #[inline]
    pub fn budget_blocks(&self) -> u64 {
        self.budget_blocks
    }

    /// Blocks currently held idle by retained allocations.
    #[inline]
    pub fn retained_blocks(&self) -> u64 {
        self.retained_blocks
    }

    /// Tokens currently held idle by retained allocations.
    #[inline]
    pub fn retained_tokens(&self) -> u64 {
        self.retained_tokens
    }

    /// Number of retained allocations.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when nothing is retained.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Lifetime counters.
    #[inline]
    pub fn stats(&self) -> RetainStats {
        self.stats
    }

    /// Whether `blocks` more idle blocks would still fit the budget.
    pub fn fits(&self, blocks: u64) -> bool {
        self.retained_blocks + blocks <= self.budget_blocks
    }

    /// Retain `donor`'s live allocation (`tokens` tokens in `blocks`
    /// blocks) for `successor`. Returns `false` — and retains nothing —
    /// when the budget cannot cover it even after the caller reclaimed
    /// (callers evict via [`Self::pop_oldest_except`] first). At most one
    /// retained entry may exist per successor.
    ///
    /// # Panics
    /// Panics if `successor` already has a retained entry (a turn has
    /// exactly one predecessor, so this is an engine bug).
    pub fn retain(&mut self, successor: u64, donor: u64, tokens: u64, blocks: u64) -> bool {
        if !self.fits(blocks) {
            return false;
        }
        #[expect(clippy::cast_possible_truncation, reason = "successors are request-pool indices, \
            `usize` values widened to `u64`")]
        let idx = successor as usize;
        if idx >= self.entries.len() {
            self.entries.resize(idx + 1, None);
        }
        assert!(
            self.entries[idx].is_none(),
            "successor {successor} already has retained KV"
        );
        self.entries[idx] = Some(RetainedKv {
            donor,
            tokens,
            blocks,
        });
        self.order.push_back(successor);
        self.retained_blocks += blocks;
        self.retained_tokens += tokens;
        self.stats.retains += 1;
        if self.retained_blocks > self.stats.retained_blocks_high_water {
            self.stats.retained_blocks_high_water = self.retained_blocks;
        }
        true
    }

    /// The retained entry reserved for `successor`, if it survived.
    pub fn peek(&self, successor: u64) -> Option<RetainedKv> {
        self.entries.get(usize::try_from(successor).ok()?).copied().flatten()
    }

    /// Claim the entry reserved for `successor` (a reuse hit): removes it
    /// from the pool and returns it. The caller owns the donor's allocator
    /// entry from here (typically: free the donor, allocate the successor
    /// at full prefix+suffix length).
    pub fn claim(&mut self, successor: u64) -> Option<RetainedKv> {
        let e = self.entries.get_mut(usize::try_from(successor).ok()?)?.take()?;
        self.remove_from_order(successor);
        self.retained_blocks -= e.blocks;
        self.retained_tokens -= e.tokens;
        self.stats.claims += 1;
        self.stats.claimed_tokens += e.tokens;
        Some(e)
    }

    /// Reclaim the oldest retained allocation (budget or memory pressure),
    /// never the entry reserved for `keep` — which is `Some` while making
    /// room to admit `keep` itself, whose own prefix is about to be
    /// claimed, not sacrificed. Returns `(successor, entry)`; the caller
    /// must free the donor's allocator entry and clear any successor-side
    /// reuse discount.
    pub fn pop_oldest_except(&mut self, keep: Option<u64>) -> Option<(u64, RetainedKv)> {
        let pos = self
            .order
            .iter()
            .position(|&s| Some(s) != keep)?;
        // `order` and `entries` move in lockstep: every queued successor
        // has a live entry.
        let successor = self.order.remove(pos).expect("position is in range");
        #[expect(clippy::cast_possible_truncation, reason = "queued successors were indices into \
            `entries` when retained")]
        let e = self.entries[successor as usize]
            .take()
            .expect("queued successor has an entry");
        self.retained_blocks -= e.blocks;
        self.retained_tokens -= e.tokens;
        self.stats.drops += 1;
        Some((successor, e))
    }

    fn remove_from_order(&mut self, successor: u64) {
        if let Some(p) = self.order.iter().position(|&s| s == successor) {
            self.order.remove(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retain_claim_roundtrip() {
        let mut r = SessionRetainer::new(10);
        assert!(r.retain(5, 2, 33, 3));
        assert_eq!(r.retained_blocks(), 3);
        assert_eq!(r.retained_tokens(), 33);
        assert_eq!(r.peek(5).unwrap().donor, 2);
        let e = r.claim(5).unwrap();
        assert_eq!(e, RetainedKv { donor: 2, tokens: 33, blocks: 3 });
        assert!(r.is_empty());
        assert!(r.claim(5).is_none());
        let s = r.stats();
        assert_eq!((s.retains, s.claims, s.claimed_tokens), (1, 1, 33));
    }

    #[test]
    fn budget_refuses_and_oldest_drops_first() {
        let mut r = SessionRetainer::new(5);
        assert!(r.retain(1, 10, 16, 2));
        assert!(r.retain(2, 11, 32, 3));
        // Budget full: a third retain is refused outright.
        assert!(!r.retain(3, 12, 16, 1));
        assert_eq!(r.len(), 2);
        // Reclaim oldest-first.
        let (succ, e) = r.pop_oldest_except(None).unwrap();
        assert_eq!((succ, e.donor), (1, 10));
        assert!(r.retain(3, 12, 16, 1), "freed budget admits again");
        assert_eq!(r.stats().drops, 1);
        assert_eq!(r.stats().retained_blocks_high_water, 5);
    }

    #[test]
    fn claim_out_of_order_keeps_queue_consistent() {
        let mut r = SessionRetainer::new(100);
        r.retain(1, 10, 8, 1);
        r.retain(2, 11, 8, 1);
        r.retain(3, 12, 8, 1);
        assert!(r.claim(2).is_some());
        let (a, _) = r.pop_oldest_except(None).unwrap();
        let (b, _) = r.pop_oldest_except(None).unwrap();
        assert_eq!((a, b), (1, 3));
        assert!(r.pop_oldest_except(None).is_none());
        assert_eq!(r.retained_blocks(), 0);
    }

    #[test]
    fn pop_oldest_except_protects_the_kept_entry() {
        let mut r = SessionRetainer::new(100);
        r.retain(1, 10, 8, 1);
        r.retain(2, 11, 8, 1);
        // Entry 1 is oldest, but it is the one being admitted: skip it.
        let (succ, _) = r.pop_oldest_except(Some(1)).unwrap();
        assert_eq!(succ, 2);
        assert!(r.pop_oldest_except(Some(1)).is_none());
        assert!(r.peek(1).is_some(), "kept entry survives");
    }

    #[test]
    #[should_panic(expected = "already has retained KV")]
    fn double_retain_for_one_successor_is_a_bug() {
        let mut r = SessionRetainer::new(100);
        r.retain(1, 10, 8, 1);
        r.retain(1, 11, 8, 1);
    }
}
