//! Session-affine KV retention across conversation turns.
//!
//! When a closed-loop session's turn finishes, its KV blocks hold exactly
//! the next turn's shared prefix (prior prompt + answer). Instead of
//! freeing them, the engine can *retain* them — the blocks stay allocated
//! in the [`BlockAllocator`] under the finished request's id — so the
//! resumed turn only prefills its fresh suffix. [`SessionKv`] owns that
//! protocol end to end: it decides which finished allocations survive
//! under the budget, drops the oldest when memory is needed for live
//! work, hands a surviving prefix to its successor at admission, and
//! makes every allocator call those transitions need. The caller sees
//! what happened through [`SessionEvent`]s, in order.
//!
//! Everything is index-addressed (dense `Vec`s plus a `VecDeque` in
//! retain order) — no hashing, no wall clock — so runs stay bit-identical.
//! A test drives the type and a real allocator through every interleaving
//! of a bounded sweep of sessions, by breadth-first search.

use crate::{BlockAllocator, Blocks, KvError};
use std::collections::VecDeque;

/// One retained allocation, reserved for a specific successor request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RetainedKv {
    /// The finished request whose allocator entry still holds the blocks.
    donor: u64,
    /// Tokens resident in the retained allocation (the shared prefix the
    /// successor can reuse).
    tokens: u64,
    /// Blocks the retained allocation occupies.
    blocks: Blocks,
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
    pub retained_blocks_high_water: Blocks,
}

/// What a [`SessionKv`] transition did, reported in the order it did it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEvent {
    /// A finished turn's `tokens` are now held for `successor`.
    Retain {
        /// The request the blocks are reserved for.
        successor: u64,
        /// Tokens held.
        tokens: u64,
    },
    /// The entry held for `successor` was dropped and its donor freed:
    /// `successor` will prefill in full.
    Drop {
        /// The request that lost its prefix.
        successor: u64,
        /// Tokens given back to the live pool.
        tokens: u64,
    },
}

/// The idle-session retention pool: retained allocations keyed by the
/// *successor* request id, reclaimed oldest-first, and the allocator
/// calls that retain, drop and claim them.
///
/// The blocks stay owned by the [`BlockAllocator`] (under the donor's
/// id); this type decides which allocations survive and who may claim
/// them. Retained entries are never refreshed, so insertion order *is*
/// least-recently-used order. A budget of zero retains nothing.
#[derive(Debug, Clone)]
pub struct SessionKv {
    /// Max blocks the idle pool may hold.
    budget: Blocks,
    /// Entry per successor id; `None` = nothing retained for it.
    entries: Vec<Option<RetainedKv>>,
    /// Successor ids in retain order (front = oldest).
    order: VecDeque<u64>,
    retained_blocks: Blocks,
    stats: RetainStats,
}

impl SessionKv {
    /// A pool allowed to hold at most `budget` idle blocks.
    pub fn new(budget: Blocks) -> Self {
        SessionKv {
            budget,
            entries: Vec::new(),
            order: VecDeque::new(),
            retained_blocks: Blocks::ZERO,
            stats: RetainStats::default(),
        }
    }

    /// Pre-size the entry table for successor ids `0..n`.
    pub fn reserve_ids(&mut self, n: usize) {
        if self.entries.len() < n {
            self.entries.resize(n, None);
        }
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

    /// Prefill tokens `id` skips at admission: its retained prefix, or 0.
    /// The one record of a request's reuse discount.
    #[inline]
    pub fn discount(&self, id: u64) -> u64 {
        self.peek(id).map_or(0, |e| e.tokens)
    }

    /// Request `donor` finished; `successor` is its session's next turn,
    /// if any. Retain its allocation for the successor when the budget
    /// can cover it after dropping older entries oldest-first, free it
    /// otherwise. Returns the tokens `donor` held.
    ///
    /// # Panics
    /// Panics if `successor` already has a retained entry (a turn has
    /// exactly one predecessor, so this is a caller bug).
    pub fn finish(
        &mut self,
        alloc: &mut BlockAllocator,
        donor: u64,
        successor: Option<u64>,
        mut sink: impl FnMut(SessionEvent),
    ) -> Result<u64, KvError> {
        let Some(successor) = successor else {
            return alloc.free(donor);
        };
        let tokens = alloc.tokens_of(donor)?;
        let blocks = Blocks::for_tokens(tokens, alloc.block_size());
        while !self.fits(blocks) && self.drop_oldest(alloc, None, &mut sink)? {}
        if !self.fits(blocks) {
            return alloc.free(donor);
        }
        let idx = usize::try_from(successor).expect("successors are request-pool indices");
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
        self.stats.retains += 1;
        self.stats.retained_blocks_high_water = self
            .stats
            .retained_blocks_high_water
            .max(self.retained_blocks);
        sink(SessionEvent::Retain { successor, tokens });
        Ok(tokens)
    }

    /// Drop the oldest entries, never the one reserved for `keep`, until
    /// `alloc` has `target` free blocks. Returns whether it got there
    /// before the pool ran dry.
    pub fn reclaim(
        &mut self,
        alloc: &mut BlockAllocator,
        target: Blocks,
        keep: Option<u64>,
        mut sink: impl FnMut(SessionEvent),
    ) -> Result<bool, KvError> {
        while alloc.free_blocks() < target {
            if !self.drop_oldest(alloc, keep, &mut sink)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The admission check for `id`, which needs `needed` blocks once
    /// resident: its own retained blocks come back at the claim, so only
    /// the rest must be free, and other entries are dropped until it is.
    /// Returns whether `id` fits.
    pub fn make_room(
        &mut self,
        alloc: &mut BlockAllocator,
        id: u64,
        needed: Blocks,
        sink: impl FnMut(SessionEvent),
    ) -> Result<bool, KvError> {
        let own = self.peek(id).map_or(Blocks::ZERO, |e| e.blocks);
        self.reclaim(alloc, needed.saturating_sub(own), Some(id), sink)
    }

    /// Admit `id` at `tokens` resident tokens: claim its retained prefix,
    /// if one survived, freeing the donor, then allocate. Returns the
    /// claimed prefix's tokens on a reuse hit.
    pub fn admit(
        &mut self,
        alloc: &mut BlockAllocator,
        id: u64,
        tokens: u64,
    ) -> Result<Option<u64>, KvError> {
        let claimed = self.take(id);
        if let Some(e) = claimed {
            self.stats.claims += 1;
            self.stats.claimed_tokens += e.tokens;
            alloc.free(e.donor)?;
        }
        alloc.allocate(id, tokens)?;
        Ok(claimed.map(|e| e.tokens))
    }

    /// Whether `blocks` more idle blocks fit the budget.
    fn fits(&self, blocks: Blocks) -> bool {
        self.retained_blocks + blocks <= self.budget
    }

    /// The entry reserved for `successor`, if it survived.
    fn peek(&self, successor: u64) -> Option<RetainedKv> {
        self.entries
            .get(usize::try_from(successor).ok()?)
            .copied()
            .flatten()
    }

    /// Remove and return the entry reserved for `successor`.
    fn take(&mut self, successor: u64) -> Option<RetainedKv> {
        let e = self
            .entries
            .get_mut(usize::try_from(successor).ok()?)?
            .take()?;
        if let Some(p) = self.order.iter().position(|&s| s == successor) {
            self.order.remove(p);
        }
        self.retained_blocks -= e.blocks;
        Some(e)
    }

    /// Drop the oldest entry not reserved for `keep` and free its donor.
    /// Returns `false` when there is none.
    fn drop_oldest(
        &mut self,
        alloc: &mut BlockAllocator,
        keep: Option<u64>,
        sink: &mut impl FnMut(SessionEvent),
    ) -> Result<bool, KvError> {
        let Some(&successor) = self.order.iter().find(|&&s| Some(s) != keep) else {
            return Ok(false);
        };
        let Some(e) = self.take(successor) else {
            return Ok(false);
        };
        self.stats.drops += 1;
        alloc.free(e.donor)?;
        sink(SessionEvent::Drop {
            successor,
            tokens: e.tokens,
        });
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tokens per block in the unit tests and the model check.
    const BS: u32 = 4;

    /// An allocator of `blocks` blocks holding `(id, tokens)` residents.
    fn alloc_with(blocks: u64, residents: &[(u64, u64)]) -> BlockAllocator {
        let mut a = BlockAllocator::new(Blocks::new(blocks), BS);
        for &(id, tokens) in residents {
            a.allocate(id, tokens).unwrap();
        }
        a
    }

    /// Runs `f` with a sink and returns what it reported.
    fn events<T>(f: impl FnOnce(&mut dyn FnMut(SessionEvent)) -> T) -> (T, Vec<SessionEvent>) {
        let mut log = Vec::new();
        let out = f(&mut |e| log.push(e));
        (out, log)
    }

    #[test]
    fn retain_then_claim_frees_the_donor_and_allocates_in_full() {
        let mut a = alloc_with(10, &[(2, 11)]);
        let mut kv = SessionKv::new(Blocks::new(10));
        let (held, log) = events(|s| kv.finish(&mut a, 2, Some(5), s).unwrap());
        assert_eq!(held, 11);
        assert_eq!(
            log,
            [SessionEvent::Retain {
                successor: 5,
                tokens: 11
            }]
        );
        assert_eq!((kv.discount(5), kv.discount(2)), (11, 0));
        assert_eq!(a.tokens_of(2), Ok(11), "the donor stays resident");
        let (fits, log) = events(|s| kv.make_room(&mut a, 5, Blocks::new(10), s).unwrap());
        assert!(
            fits && log.is_empty(),
            "its own 3 blocks come back at the claim"
        );
        assert_eq!(kv.admit(&mut a, 5, 20), Ok(Some(11)));
        assert!(!a.contains(2) && a.tokens_of(5) == Ok(20));
        assert!(kv.is_empty() && kv.discount(5) == 0);
        let s = kv.stats();
        assert_eq!((s.retains, s.claims, s.claimed_tokens), (1, 1, 11));
    }

    #[test]
    fn budget_drops_oldest_first_and_refuses_what_cannot_fit() {
        let mut a = alloc_with(20, &[(10, 8), (11, 12), (12, 4), (13, 24)]);
        let mut kv = SessionKv::new(Blocks::new(5));
        kv.finish(&mut a, 10, Some(1), |_| {}).unwrap();
        kv.finish(&mut a, 11, Some(2), |_| {}).unwrap();
        assert_eq!(kv.stats().retained_blocks_high_water, Blocks::new(5));
        // Full: the oldest entry (for 1) makes room for a 1-block prefix.
        let (_, log) = events(|s| kv.finish(&mut a, 12, Some(3), s).unwrap());
        let drop1 = SessionEvent::Drop {
            successor: 1,
            tokens: 8,
        };
        assert_eq!(
            log,
            [
                drop1,
                SessionEvent::Retain {
                    successor: 3,
                    tokens: 4
                }
            ]
        );
        assert!(!a.contains(10) && kv.discount(1) == 0);
        // 6 blocks never fit a budget of 5: everything is dropped, then
        // the donor is freed.
        let (held, log) = events(|s| kv.finish(&mut a, 13, Some(4), s).unwrap());
        assert_eq!((held, log.len()), (24, 2));
        assert!(kv.is_empty() && a.used_blocks() == Blocks::ZERO);
        assert_eq!(kv.stats().drops, 3);
    }

    #[test]
    fn a_zero_budget_and_a_last_turn_free_at_once() {
        let mut a = alloc_with(4, &[(0, 5), (1, 5)]);
        let mut kv = SessionKv::new(Blocks::ZERO);
        let (held, log) = events(|s| kv.finish(&mut a, 0, Some(2), s).unwrap());
        assert_eq!((held, log.len(), a.contains(0)), (5, 0, false));
        let mut kv = SessionKv::new(Blocks::new(100));
        let (held, log) = events(|s| kv.finish(&mut a, 1, None, s).unwrap());
        assert_eq!((held, log.len(), a.used_blocks()), (5, 0, Blocks::ZERO));
    }

    #[test]
    fn reclaim_spares_the_kept_entry_and_stops_when_dry() {
        let mut a = alloc_with(6, &[(10, 4), (11, 4), (12, 4)]);
        let mut kv = SessionKv::new(Blocks::new(100));
        for (donor, succ) in [(10, 1), (11, 2), (12, 3)] {
            kv.finish(&mut a, donor, Some(succ), |_| {}).unwrap();
        }
        // A claim out of order leaves the queue consistent.
        assert_eq!(kv.admit(&mut a, 2, 4), Ok(Some(4)));
        let (met, log) = events(|s| kv.reclaim(&mut a, Blocks::new(6), Some(1), s).unwrap());
        assert!(
            !met,
            "only entry 3 may go, and 4 free blocks are short of 6"
        );
        assert_eq!(
            log,
            [SessionEvent::Drop {
                successor: 3,
                tokens: 4
            }]
        );
        assert_eq!(kv.discount(1), 4, "the kept entry survives");
        assert!(kv.reclaim(&mut a, Blocks::new(5), None, |_| {}).unwrap());
        assert!(kv.is_empty());
    }

    #[test]
    fn admission_counts_its_own_prefix_and_allocator_errors_come_back() {
        let mut a = alloc_with(3, &[(0, 4)]);
        let mut kv = SessionKv::new(Blocks::new(2));
        kv.finish(&mut a, 0, Some(1), |_| {}).unwrap();
        // 1 needs all 3 blocks: 2 are free and its donor holds the third.
        let (fits, log) = events(|s| kv.make_room(&mut a, 1, Blocks::new(3), s).unwrap());
        assert!(fits && log.is_empty());
        // Any other request needing 3 drops 1's prefix first.
        let (mut other, mut b) = (kv.clone(), a.clone());
        assert!(other.make_room(&mut b, 7, Blocks::new(3), |_| {}).unwrap());
        assert_eq!((other.discount(1), b.free_blocks()), (0, Blocks::new(3)));
        // A miss allocates at once, and the allocator's refusal comes back.
        let err = kv.admit(&mut a, 7, 12).unwrap_err();
        assert!(matches!(err, KvError::OutOfMemory { .. }), "{err}");
        assert_eq!(kv.admit(&mut a, 1, 12), Ok(Some(4)));
        assert_eq!(a.free_blocks(), Blocks::ZERO);
    }

    #[test]
    #[should_panic(expected = "already has retained KV")]
    fn double_retain_for_one_successor_is_a_bug() {
        let mut a = alloc_with(10, &[(10, 4), (11, 4)]);
        let mut kv = SessionKv::new(Blocks::new(100));
        kv.finish(&mut a, 10, Some(1), |_| {}).unwrap();
        let _ = kv.finish(&mut a, 11, Some(1), |_| {});
    }

    /// The retention protocol, model-checked on the real code: every
    /// interleaving of admit, reclaim-for-admit and finish over a bounded
    /// sweep of sessions drives [`SessionKv`] and a real
    /// [`BlockAllocator`], called as the engine calls them.
    mod protocol {
        use super::*;
        use analyzer::explore::{explore, Step, Violation};
        use std::cmp::Ordering;

        /// `sessions` closed-loop sessions of `turns` turns each over a
        /// pool of `pool` blocks and a retention budget; turn `t` holds
        /// `2 + t` blocks (transcripts grow).
        #[derive(Debug, Clone, Copy)]
        struct Scenario {
            sessions: u64,
            turns: u64,
            pool: Blocks,
            budget: Blocks,
        }

        impl Scenario {
            fn n(&self) -> u64 {
                self.sessions * self.turns
            }
            fn turn(&self, r: u64) -> u64 {
                r % self.turns
            }
            fn blocks(&self, r: u64) -> Blocks {
                Blocks::new(2 + self.turn(r))
            }
            /// Resident tokens: the last block partly filled.
            fn tokens(&self, r: u64) -> u64 {
                self.blocks(r).tokens(BS) - 1
            }
            fn successor(&self, r: u64) -> Option<u64> {
                (self.turn(r) + 1 < self.turns).then_some(r + 1)
            }
        }

        /// A request id as an index into the scenario's tables.
        fn ix(r: u64) -> usize {
            usize::try_from(r).expect("scenario ids are small")
        }

        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum Turn {
            /// Its predecessor has not finished.
            NotArrived,
            Pending,
            Active,
            Finished,
        }

        /// One explored state. Its identity is protocol state only: what
        /// each id holds, the free blocks, the entries in order and the
        /// turns' phases, not the lifetime counters.
        #[derive(Debug, Clone)]
        struct State {
            kv: SessionKv,
            alloc: BlockAllocator,
            turn: Vec<Turn>,
        }

        type Key = (
            Vec<Option<u64>>,
            Blocks,
            Vec<(u64, u64, u64, Blocks)>,
            Vec<Turn>,
        );

        impl State {
            fn key(&self) -> Key {
                let held = (0..self.turn.len() as u64).map(|r| self.alloc.tokens_of(r).ok());
                let entry = |&s: &u64| self.kv.peek(s).map(|e| (s, e.donor, e.tokens, e.blocks));
                let entries = self.kv.order.iter().filter_map(entry);
                (
                    held.collect(),
                    self.alloc.free_blocks(),
                    entries.collect(),
                    self.turn.clone(),
                )
            }
        }

        impl PartialEq for State {
            fn eq(&self, other: &Self) -> bool {
                self.key() == other.key()
            }
        }

        impl Eq for State {}

        impl PartialOrd for State {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        impl Ord for State {
            fn cmp(&self, other: &Self) -> Ordering {
                self.key().cmp(&other.key())
            }
        }

        fn label(head: String, log: &[SessionEvent]) -> String {
            log.iter().fold(head, |mut out, e| {
                out += &match *e {
                    SessionEvent::Retain { successor, .. } => format!(", retain for r{successor}"),
                    SessionEvent::Drop { successor, .. } => format!(", drop r{successor}'s"),
                };
                out
            })
        }

        /// The safety properties every reached state must hold.
        fn invariants(sc: &Scenario, s: &State) -> Option<String> {
            let blocks = |r: u64| {
                s.alloc
                    .tokens_of(r)
                    .map_or(Blocks::ZERO, |t| Blocks::for_tokens(t, BS))
            };
            let live: Blocks = (0..sc.n()).map(blocks).sum();
            if s.alloc.free_blocks() + live != sc.pool || s.alloc.used_blocks() != live {
                return Some(format!(
                    "block conservation broken: free {} + held {live} != pool {}",
                    s.alloc.free_blocks(),
                    sc.pool
                ));
            }
            let retained: Blocks = s.kv.entries.iter().flatten().map(|e| e.blocks).sum();
            let queued = s.kv.entries.iter().flatten().count();
            if retained != s.kv.retained_blocks || queued != s.kv.order.len() {
                return Some(format!(
                    "retained accounting drifted: entries hold {retained} blocks, the pool \
                     counts {} in {} queued entries",
                    s.kv.retained_blocks,
                    s.kv.order.len()
                ));
            }
            if retained > sc.budget {
                return Some(format!(
                    "retention budget exceeded: {retained} idle blocks > budget {}",
                    sc.budget
                ));
            }
            for r in 0..sc.n() {
                let donor_of = s.kv.entries.iter().flatten().find(|e| e.donor == r);
                let phase = s.turn[ix(r)];
                let held = s.alloc.tokens_of(r).ok();
                let expect = match (phase, donor_of) {
                    (Turn::Active, _) => Some(sc.tokens(r)),
                    (Turn::Finished, Some(e)) => Some(e.tokens),
                    _ => None,
                };
                if held != expect {
                    return Some(format!(
                        "claim-after-drop hazard or block leak: r{r} ({phase:?}, retained: {}) \
                         holds {held:?} tokens, expected {expect:?}",
                        donor_of.is_some()
                    ));
                }
                if s.kv.discount(r) > 0 && phase != Turn::Pending {
                    return Some(format!(
                        "r{r} ({phase:?}) still carries a prefill discount of {}",
                        s.kv.discount(r)
                    ));
                }
            }
            None
        }

        fn refused(e: KvError) -> String {
            format!("allocator refused: {e}")
        }

        /// A transition: its label lists what the session KV reported,
        /// and without a verdict of its own the reached state's
        /// invariants decide.
        fn step(
            sc: &Scenario,
            next: State,
            head: String,
            log: &[SessionEvent],
            violation: Option<String>,
        ) -> Step<State> {
            let violation = violation.or_else(|| invariants(sc, &next));
            (label(head, log), next, violation)
        }

        /// The packer's step for pending `r`: `make_room`, then `admit`.
        /// A `make_room` that fails is a step only if it dropped entries.
        fn admit(sc: &Scenario, s: &State, r: u64) -> Option<Step<State>> {
            let mut next = s.clone();
            let mut log = Vec::new();
            // The packer reads the prefill cost before the check.
            let discount = next.kv.discount(r);
            let kind = if sc.turn(r) == 0 { "first" } else { "miss" };
            let (head, violation) = match next
                .kv
                .make_room(&mut next.alloc, r, sc.blocks(r), |e| log.push(e))
            {
                Err(e) => (format!("make room for r{r}"), Some(refused(e))),
                Ok(false) if log.is_empty() => return None,
                Ok(false) => (format!("reclaim for r{r}"), None),
                Ok(true) => {
                    next.turn[ix(r)] = Turn::Active;
                    match next.kv.admit(&mut next.alloc, r, sc.tokens(r)) {
                        Err(e) => (format!("admit r{r}"), Some(refused(e))),
                        Ok(Some(t)) => (
                            format!("admit-hit r{r}"),
                            (t != discount).then(|| {
                                format!("r{r} claimed {t} tokens, discounted by {discount}")
                            }),
                        ),
                        Ok(None) => (
                            format!("admit-{kind} r{r}"),
                            (discount > 0).then(|| {
                                format!(
                                    "r{r} admitted as a reuse miss with a prefill discount \
                                         of {discount}: it would under-prefill"
                                )
                            }),
                        ),
                    }
                }
            };
            Some(step(sc, next, head, &log, violation))
        }

        /// Active `r` finishes, as the decode step retires it.
        fn finish(sc: &Scenario, s: &State, r: u64) -> Step<State> {
            let mut next = s.clone();
            let mut log = Vec::new();
            next.turn[ix(r)] = Turn::Finished;
            let succ = sc.successor(r);
            if let Some(succ) = succ {
                next.turn[ix(succ)] = Turn::Pending;
            }
            let violation = match next.kv.finish(&mut next.alloc, r, succ, |e| log.push(e)) {
                Err(e) => Some(refused(e)),
                Ok(held) => {
                    (held != sc.tokens(r)).then(|| format!("r{r} finished holding {held} tokens"))
                }
            };
            step(sc, next, format!("finish r{r}"), &log, violation)
        }

        fn successors(sc: &Scenario, s: &State) -> Vec<Step<State>> {
            (0..sc.n())
                .filter_map(|r| match s.turn[ix(r)] {
                    Turn::Pending => admit(sc, s, r),
                    Turn::Active => Some(finish(sc, s, r)),
                    Turn::NotArrived | Turn::Finished => None,
                })
                .collect()
        }

        /// What one scenario's exhaustive pass saw.
        #[derive(Debug, Default)]
        struct Summary {
            states: usize,
            hits: usize,
            misses: usize,
            drops: usize,
        }

        fn check(sc: &Scenario) -> Result<Summary, Violation> {
            let n = ix(sc.n());
            let mut alloc = BlockAllocator::new(sc.pool, BS);
            alloc.reserve_ids(n);
            let mut kv = SessionKv::new(sc.budget);
            kv.reserve_ids(n);
            let turn = (0..sc.n())
                .map(|r| {
                    if sc.turn(r) == 0 {
                        Turn::Pending
                    } else {
                        Turn::NotArrived
                    }
                })
                .collect();
            let mut summary = Summary::default();
            let terminal = |s: &State| {
                let done = s.turn.iter().all(|&t| t == Turn::Finished);
                let clean = s.alloc.free_blocks() == sc.pool && s.kv.is_empty();
                done.then(|| {
                    clean.then_some(()).ok_or_else(|| {
                        format!(
                            "block leak at end of run: {} of {} blocks free, {} entries retained",
                            s.alloc.free_blocks(),
                            sc.pool,
                            s.kv.order.len()
                        )
                    })
                })
            };
            let discovered = |label: &str| {
                summary.hits += usize::from(label.starts_with("admit-hit"));
                summary.misses += usize::from(label.starts_with("admit-miss"));
                summary.drops += label.matches(", drop").count();
            };
            let states = explore(
                State { kv, alloc, turn },
                "deadlock: turns outstanding but no transition enabled",
                |s| successors(sc, s),
                terminal,
                discovered,
            )?;
            Ok(Summary { states, ..summary })
        }

        /// Up to 3 sessions of up to 2 turns, over pools tight enough to
        /// force pressure drops and roomy enough for clean claims, and
        /// budgets that disable, contend for and comfortably hold
        /// retention.
        fn sweep() -> impl Iterator<Item = Scenario> {
            (1..=3).flat_map(|sessions| {
                (1..=2).flat_map(move |turns| {
                    [3, 6, 7].map(Blocks::new).into_iter().flat_map(move |pool| {
                        [0, 2, 4].map(|budget| Scenario {
                            sessions,
                            turns,
                            pool,
                            budget: Blocks::new(budget),
                        })
                    })
                })
            })
        }

        #[test]
        fn every_interleaving_of_the_sweep_keeps_the_retention_properties() {
            let mut total = Summary::default();
            let mut scenarios = 0;
            for sc in sweep() {
                let s = check(&sc).unwrap_or_else(|v| panic!("{sc:?} breaks the protocol:\n{v}"));
                total.states += s.states;
                total.hits += s.hits;
                total.misses += s.misses;
                total.drops += s.drops;
                scenarios += 1;
            }
            assert_eq!(scenarios, 54, "the sweep lost coverage");
            // Not vacuous: every path of the protocol is reached.
            assert!(total.states > 1_000, "{total:?}");
            assert!(
                total.hits > 0 && total.misses > 0 && total.drops > 0,
                "{total:?}"
            );
        }

        #[test]
        fn a_zero_budget_only_misses() {
            let sc = Scenario {
                sessions: 2,
                turns: 2,
                pool: Blocks::new(7),
                budget: Blocks::ZERO,
            };
            let s = check(&sc).unwrap();
            assert_eq!((s.hits, s.drops), (0, 0));
            assert!(s.misses > 0, "{s:?}");
        }
    }
}
