//! Layer-2 model checker for the session-KV retention protocol.
//!
//! Mirrors the `SessionRetainer` contract between
//! `crates/kvcache/src/session.rs` and the engine's finish
//! (`TdStepHooks::retire`), `reclaim_retained` and admission-claim paths
//! (`crates/core/src/engine.rs`): when a turn finishes, its KV blocks may
//! be *retained* for the session's next turn (the donor keeps its
//! allocator slot); the successor's admission *claims* the entry (frees
//! the donor, allocates full length, prefills only the fresh suffix);
//! memory pressure or the retention budget *drops* entries oldest-first,
//! which must revoke the successor's prefill discount.
//!
//! The checker explores every interleaving of admit / reclaim / finish
//! over ≤3 sessions × ≤2 turns by BFS and verifies, at every state:
//!
//! * **conservation / no-block-leak** — free + live allocations always
//!   equals pool size, and a fully-finished run ends with everything
//!   free and the retainer empty;
//! * **budget-never-exceeded** — idle retained blocks never exceed the
//!   configured budget;
//! * **no-claim-after-drop** — a retained entry's donor still holds
//!   exactly the retained blocks when the successor claims;
//! * **miss ⇒ full-prefill** — a successor admitted without a surviving
//!   entry must carry no prefill discount (else it would under-prefill);
//! * **no deadlock** — some transition is enabled until all turns finish.
//!
//! [`SessionMutation`]s seed protocol bugs (skipped budget check, stale
//! discount after a drop, donor never freed on claim) and the test suite
//! asserts each yields a counterexample trace — the checker is not
//! vacuously green.

use crate::explore::{explore, Step, Violation};

/// Seeded protocol bugs proving the checker catches what it claims to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionMutation {
    /// Faithful protocol.
    None,
    /// `retain` skips the budget check (no make-room loop, no `fits`).
    BudgetBlind,
    /// Dropping a retained entry forgets to clear the successor's
    /// prefill discount.
    NoDiscountClear,
    /// Claiming an entry forgets to free the donor's allocator slot.
    DonorLeak,
}

/// One bounded scenario: `sessions` closed-loop sessions of `turns`
/// turns each, a KV pool of `total_blocks`, a retention budget, and a
/// per-turn footprint of `turn_blocks + turn_index` blocks (transcripts
/// grow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionScenario {
    /// Concurrent sessions (1..=3 in the checked sweep).
    pub sessions: u8,
    /// Turns per session (1..=2 in the checked sweep).
    pub turns: u8,
    /// KV pool size in blocks.
    pub total_blocks: u16,
    /// Retention budget in blocks (0 = retention disabled).
    pub budget_blocks: u16,
    /// Base per-turn footprint in blocks.
    pub turn_blocks: u16,
    /// Seeded bug, if any.
    pub mutation: SessionMutation,
}

impl SessionScenario {
    /// Request index for `(session, turn)`.
    fn req(&self, session: u8, turn: u8) -> usize {
        session as usize * self.turns as usize + turn as usize
    }

    /// Total request count.
    fn n(&self) -> usize {
        self.sessions as usize * self.turns as usize
    }

    /// Turn index of request `r`.
    fn turn_of(&self, r: usize) -> u8 {
        (r % self.turns as usize) as u8
    }

    /// Blocks request `r` occupies while resident.
    fn demand(&self, r: usize) -> u16 {
        self.turn_blocks + self.turn_of(r) as u16
    }

    /// The same-session next turn, if any.
    fn successor(&self, r: usize) -> Option<usize> {
        let t = self.turn_of(r);
        (t + 1 < self.turns).then(|| r + 1)
    }
}

/// Request lifecycle in the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    /// Successor turn whose predecessor has not finished yet.
    NotArrived,
    /// Released, waiting for admission.
    Pending,
    /// Resident and decoding.
    Active,
    /// Finished (its blocks may linger as a retained donor slot).
    Finished,
}

/// One explored state of the retention protocol.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    phase: Vec<Phase>,
    /// Blocks held in the allocator under each request id (actives and
    /// retained donors).
    live: Vec<u16>,
    /// Free pool blocks.
    free: u16,
    /// Retained entry per successor id: `(donor, blocks)`.
    entries: Vec<Option<(u8, u16)>>,
    /// Successor ids in retain order (front = oldest).
    order: Vec<u8>,
    /// Idle retained blocks (Σ entry blocks).
    retained_total: u16,
    /// Successor-side prefill discount flags.
    discount: Vec<bool>,
}

/// What an exhaustive pass over one scenario saw.
#[derive(Debug, Clone, Default)]
pub struct SessionSummary {
    /// Distinct states explored.
    pub states: usize,
    /// `admit` transitions that claimed a retained prefix.
    pub hits: usize,
    /// `admit` transitions of a resumed turn with no surviving entry.
    pub misses: usize,
    /// Entries dropped (pressure reclaim or budget make-room).
    pub drops: usize,
    /// `retain` transitions taken.
    pub retains: usize,
}

fn initial(sc: &SessionScenario) -> State {
    let n = sc.n();
    let mut phase = vec![Phase::NotArrived; n];
    for s in 0..sc.sessions {
        phase[sc.req(s, 0)] = Phase::Pending;
    }
    State {
        phase,
        live: vec![0; n],
        free: sc.total_blocks,
        entries: vec![None; n],
        order: Vec::new(),
        retained_total: 0,
        discount: vec![false; n],
    }
}

/// Drop the oldest retained entry whose successor is not `keep`.
/// Returns `false` when nothing was poppable.
fn pop_oldest_except(
    sc: &SessionScenario,
    s: &mut State,
    keep: Option<usize>,
) -> bool {
    let Some(pos) = s
        .order
        .iter()
        .position(|&succ| Some(succ as usize) != keep)
    else {
        return false;
    };
    let succ = s.order.remove(pos) as usize;
    let Some((donor, blocks)) = s.entries[succ].take() else {
        return false; // internal inconsistency; invariants() reports it
    };
    s.retained_total -= blocks;
    s.free += blocks;
    s.live[donor as usize] = 0;
    if sc.mutation != SessionMutation::NoDiscountClear {
        s.discount[succ] = false;
    }
    true
}

/// Per-state safety invariants; `None` = all hold.
fn invariants(sc: &SessionScenario, s: &State) -> Option<String> {
    let live_sum: u32 = s.live.iter().map(|&b| b as u32).sum();
    if s.free as u32 + live_sum != sc.total_blocks as u32 {
        return Some(format!(
            "block conservation broken: free {} + live {} != pool {}",
            s.free, live_sum, sc.total_blocks
        ));
    }
    if s.retained_total > sc.budget_blocks {
        return Some(format!(
            "retention budget exceeded: {} idle blocks > budget {}",
            s.retained_total, sc.budget_blocks
        ));
    }
    let entry_sum: u32 = s
        .entries
        .iter()
        .flatten()
        .map(|&(_, b)| b as u32)
        .sum();
    if entry_sum != s.retained_total as u32 {
        return Some(format!(
            "retained accounting drifted: entries hold {entry_sum}, counter says {}",
            s.retained_total
        ));
    }
    for (succ, e) in s.entries.iter().enumerate() {
        if let Some((donor, blocks)) = e {
            if s.live[*donor as usize] != *blocks {
                return Some(format!(
                    "claim-after-drop hazard: entry for successor {succ} expects donor \
                     {donor} to hold {blocks} blocks, allocator holds {}",
                    s.live[*donor as usize]
                ));
            }
        }
    }
    for (r, &d) in s.discount.iter().enumerate() {
        if d && s.entries[r].is_none() {
            return Some(format!(
                "request {r} carries a prefill discount with no retained entry — a \
                 reuse miss would under-prefill"
            ));
        }
    }
    None
}

/// Every transition enabled in `s`. A transition's own violation covers
/// what [`invariants`] cannot see in the state it reaches; without one,
/// the reached state's [`invariants`] decide.
fn successors(sc: &SessionScenario, s: &State) -> Vec<Step<State>> {
    let mut out = Vec::new();
    for r in 0..sc.n() {
        match s.phase[r] {
            Phase::Pending => {
                let dem = sc.demand(r);
                let donor_blocks = s.entries[r].map_or(0, |(_, b)| b);
                if s.free + donor_blocks >= dem {
                    // Admission: claim the retained prefix (hit) or admit
                    // at full prefill (miss).
                    let mut n = s.clone();
                    let mut violation = None;
                    let label;
                    if let Some((donor, blocks)) = n.entries[r].take() {
                        label = format!("admit-hit r{r} (claims donor {donor})");
                        if let Some(p) = n.order.iter().position(|&x| x as usize == r) {
                            n.order.remove(p);
                        }
                        n.retained_total -= blocks;
                        if sc.mutation != SessionMutation::DonorLeak {
                            n.free += blocks;
                            n.live[donor as usize] = 0;
                        }
                    } else {
                        label = format!("admit-miss r{r}");
                        if n.discount[r] {
                            violation = Some(format!(
                                "request {r} admitted as a reuse miss but its prefill \
                                 discount was never revoked (would under-prefill)"
                            ));
                        }
                    }
                    n.discount[r] = false;
                    match n.free.checked_sub(dem) {
                        Some(f) => n.free = f,
                        None => {
                            violation = violation.or_else(|| {
                                Some(format!(
                                    "allocator over-committed admitting request {r}: \
                                     demand {dem} > free {}",
                                    n.free
                                ))
                            });
                            n.free = 0;
                        }
                    }
                    n.live[r] = dem;
                    n.phase[r] = Phase::Active;
                    out.push((label, n, violation));
                } else if s.order.iter().any(|&succ| succ as usize != r) {
                    // Memory pressure: reclaim an idle retained prefix
                    // (never the one reserved for `r` itself).
                    let mut n = s.clone();
                    pop_oldest_except(sc, &mut n, Some(r));
                    out.push((format!("reclaim (making room for r{r})"), n, None));
                }
            }
            Phase::Active => {
                let mut n = s.clone();
                let held = n.live[r];
                let mut label = format!("finish r{r}");
                let mut retained = false;
                if let Some(succ) = sc.successor(r) {
                    if sc.budget_blocks > 0 {
                        if sc.mutation != SessionMutation::BudgetBlind {
                            // Make room in the retention budget,
                            // oldest-first.
                            while n.retained_total + held > sc.budget_blocks {
                                if !pop_oldest_except(sc, &mut n, None) {
                                    break;
                                }
                            }
                        }
                        let fits = n.retained_total + held <= sc.budget_blocks;
                        if fits || sc.mutation == SessionMutation::BudgetBlind {
                            n.entries[succ] = Some((r as u8, held));
                            n.order.push(succ as u8);
                            n.retained_total += held;
                            n.discount[succ] = true;
                            retained = true;
                            label = format!("finish r{r} (retains for r{succ})");
                        }
                    }
                    n.phase[succ] = Phase::Pending;
                }
                if !retained {
                    n.free += held;
                    n.live[r] = 0;
                }
                n.phase[r] = Phase::Finished;
                out.push((label, n, None));
            }
            Phase::NotArrived | Phase::Finished => {}
        }
    }
    for (_, next, violation) in &mut out {
        if violation.is_none() {
            *violation = invariants(sc, next);
        }
    }
    out
}

/// Terminal-state properties once every turn has finished.
fn terminal_check(sc: &SessionScenario, s: &State) -> Option<String> {
    if s.free != sc.total_blocks {
        let leaked: Vec<String> = s
            .live
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > 0)
            .map(|(r, &b)| format!("r{r}:{b}"))
            .collect();
        return Some(format!(
            "block leak at end of run: {} of {} blocks free (leaked: {})",
            s.free,
            sc.total_blocks,
            leaked.join(", ")
        ));
    }
    if !s.order.is_empty() || s.entries.iter().any(Option::is_some) {
        return Some("retainer not empty after all sessions finished".to_string());
    }
    None
}

/// Exhaustively check one scenario over all interleavings.
pub fn check_session(sc: &SessionScenario) -> Result<SessionSummary, Violation> {
    assert!(sc.sessions >= 1 && sc.turns >= 1, "need at least one turn");
    assert!(
        sc.total_blocks >= sc.turn_blocks + sc.turns as u16 - 1,
        "pool must fit the largest single turn or every run deadlocks"
    );
    let mut summary = SessionSummary::default();
    let terminal = |s: &State| {
        let done = s.phase.iter().all(|&p| p == Phase::Finished);
        done.then(|| terminal_check(sc, s).map_or(Ok(()), Err))
    };
    let discovered = |label: &str| {
        if label.starts_with("admit-hit") {
            summary.hits += 1;
        } else if label.starts_with("admit-miss") {
            summary.misses += 1;
        } else if label.starts_with("reclaim") {
            summary.drops += 1;
        } else if label.contains("retains") {
            summary.retains += 1;
        }
    };
    let states = explore(
        initial(sc),
        "deadlock: turns outstanding but no transition enabled",
        |s| successors(sc, s),
        terminal,
        discovered,
    )?;
    Ok(SessionSummary { states, ..summary })
}

/// Every faithful scenario in the bounded sweep: session/turn counts up
/// to the caps, pools tight enough to force pressure reclaims and roomy
/// enough to see clean claims, budgets spanning disabled / contended /
/// comfortable retention.
pub fn all_session_scenarios(max_sessions: u8, max_turns: u8) -> Vec<SessionScenario> {
    let mut out = Vec::new();
    for sessions in 1..=max_sessions {
        for turns in 1..=max_turns {
            for &total_blocks in &[3u16, 6, 7] {
                for &budget_blocks in &[0u16, 2, 4] {
                    out.push(SessionScenario {
                        sessions,
                        turns,
                        total_blocks,
                        budget_blocks,
                        turn_blocks: 2,
                        mutation: SessionMutation::None,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SessionScenario {
        SessionScenario {
            sessions: 2,
            turns: 2,
            total_blocks: 7,
            budget_blocks: 2,
            turn_blocks: 2,
            mutation: SessionMutation::None,
        }
    }

    #[test]
    fn faithful_base_scenario_passes() {
        let summary = check_session(&base()).unwrap();
        assert!(summary.states > 10, "{summary:?}");
    }

    #[test]
    fn single_session_reuse_hit_path() {
        let sc = SessionScenario {
            sessions: 1,
            budget_blocks: 4,
            ..base()
        };
        let summary = check_session(&sc).unwrap();
        assert!(summary.hits > 0, "retained prefix never claimed: {summary:?}");
    }

    #[test]
    fn budget_zero_disables_retention() {
        let sc = SessionScenario {
            budget_blocks: 0,
            ..base()
        };
        let summary = check_session(&sc).unwrap();
        assert_eq!(summary.hits, 0);
        assert!(summary.misses > 0, "{summary:?}");
    }

    #[test]
    fn budget_blind_mutation_is_caught() {
        let sc = SessionScenario {
            mutation: SessionMutation::BudgetBlind,
            ..base()
        };
        let v = check_session(&sc).unwrap_err();
        assert!(v.message.contains("budget exceeded"), "{v}");
        assert!(!v.trace.is_empty());
    }

    #[test]
    fn no_discount_clear_mutation_is_caught() {
        let sc = SessionScenario {
            mutation: SessionMutation::NoDiscountClear,
            ..base()
        };
        let v = check_session(&sc).unwrap_err();
        assert!(v.message.contains("discount"), "{v}");
        assert!(!v.trace.is_empty());
    }

    #[test]
    fn donor_leak_mutation_is_caught() {
        let sc = SessionScenario {
            sessions: 1,
            budget_blocks: 4,
            mutation: SessionMutation::DonorLeak,
            ..base()
        };
        let v = check_session(&sc).unwrap_err();
        assert!(
            v.message.contains("leak") || v.message.contains("over-committed"),
            "{v}"
        );
        assert!(!v.trace.is_empty());
    }
}
