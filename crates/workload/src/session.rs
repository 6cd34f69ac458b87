//! Closed-loop multi-turn sessions.
//!
//! A *session* is one user holding a conversation: turn *k*'s prompt is
//! the whole prior transcript (turn *k−1*'s input + answer) plus a fresh
//! user suffix, and turn *k* cannot arrive before turn *k−1* finishes —
//! the user has to read the answer and type. That makes the per-session
//! arrival process **closed-loop** (think time after completion) while
//! session *starts* stay **open-loop** (an [`ArrivalProcess`] across
//! users). The split matters for prefill economics: a resumed turn whose
//! session KV is still resident only needs its fresh suffix prefilled,
//! which is what the engine's session-affine reuse path exploits.
//!
//! Each turn keeps its linkage (session id, turn index, shared-prefix
//! length, think time) so an engine can replay the closed loop and reuse
//! KV across turns.

use crate::arrival::ArrivalProcess;
use crate::generator::{sample_category, sample_std_normal, ShareGptLikeConfig};
use crate::request::{Request, RequestId};
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the seeded session generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Base single-turn statistics (output lengths, categories, features,
    /// seed, and the `input_max` transcript filter).
    pub base: ShareGptLikeConfig,
    /// Number of sessions (users).
    pub num_sessions: usize,
    /// Mean number of turns per session (geometric distribution, ≥ 1).
    pub mean_turns: f64,
    /// Log-normal µ (log-space) of fresh user tokens added per turn.
    pub turn_mu: f64,
    /// Log-normal σ of the per-turn fresh-suffix length.
    pub turn_sigma: f64,
    /// Log-normal µ (log-space) of think time in seconds between a turn
    /// finishing and the same user's next turn arriving.
    pub think_mu: f64,
    /// Log-normal σ of think time.
    pub think_sigma: f64,
    /// How session *starts* (turn 0 of each session) enter the system.
    pub arrival: ArrivalProcess,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            base: ShareGptLikeConfig::default(),
            mean_turns: 2.8,
            turn_mu: 4.3,
            turn_sigma: 0.9,
            // exp(1.9) ≈ 6.7 s median think time, heavy-tailed.
            think_mu: 1.9,
            think_sigma: 0.8,
            arrival: ArrivalProcess::Poisson {
                rate_per_s: 2.0,
                seed: 0x5E55_10,
            },
            num_sessions: 1_000,
        }
    }
}

impl SessionConfig {
    /// A small config for unit tests and smoke runs.
    pub fn small(num_sessions: usize, seed: u64) -> Self {
        SessionConfig {
            base: ShareGptLikeConfig::small(0, seed),
            num_sessions,
            ..Self::default()
        }
    }

    /// Generate the session trace (deterministic for equal configs).
    pub fn generate(&self) -> SessionTrace {
        assert!(self.num_sessions > 0, "need at least one session");
        let mut rng = StdRng::seed_from_u64(self.base.seed ^ 0x5E55_1045);
        let continue_p = 1.0 - 1.0 / self.mean_turns.max(1.0);
        let starts = self.arrival.sample(self.num_sessions);

        // Per-session turn lists, then flattened turn-0-first below.
        struct RawTurn {
            request: Request,
            turn: u32,
            shared_prefix: u32,
            think_s: f64,
        }
        let mut sessions: Vec<Vec<RawTurn>> = Vec::with_capacity(self.num_sessions);
        for _ in 0..self.num_sessions {
            let category = sample_category(&mut rng);
            let mut turns = Vec::new();
            let mut context = 0u64; // transcript tokens so far
            loop {
                let fresh = (self.turn_mu + self.turn_sigma * sample_std_normal(&mut rng))
                    .exp()
                    .max(1.0) as u64;
                let input_len = (context + fresh).min(u32::MAX as u64) as u32;
                if !turns.is_empty() && input_len >= self.base.input_max {
                    break; // transcript outgrew the filter: session ends
                }
                let output_len = self.base.sample_output_for(&mut rng, category);
                let think_s = if turns.is_empty() {
                    0.0
                } else {
                    (self.think_mu + self.think_sigma * sample_std_normal(&mut rng)).exp()
                };
                turns.push(RawTurn {
                    request: Request {
                        // Placeholder id; assigned after global ordering.
                        id: RequestId(0),
                        input_len: input_len.max(1).min(self.base.input_max - 1),
                        output_len,
                        category: category as u8,
                        features: self.base.sample_features_for(&mut rng, category),
                    },
                    turn: turns.len() as u32,
                    shared_prefix: context.min(u32::MAX as u64) as u32,
                    think_s,
                });
                context = turns.last().map(|t| t.request.input_len).unwrap_or(0) as u64
                    + output_len as u64;
                if rng.random::<f64>() > continue_p {
                    break;
                }
            }
            sessions.push(turns);
        }

        // Global order: every session's turn 0 first (session starts are
        // already non-decreasing, so the initial arrival vector stays
        // sorted), then the closed-loop turns in (session, turn) order.
        let mut requests = Vec::new();
        let mut turns = Vec::new();
        let mut start_arrivals = Vec::new();
        let mut first_idx = vec![0u32; sessions.len()];
        for (s, session) in sessions.iter().enumerate() {
            first_idx[s] = requests.len() as u32;
            let t0 = &session[0];
            requests.push(t0.request.clone());
            start_arrivals.push(starts[s]);
            turns.push(SessionTurn {
                session: s as u32,
                turn: 0,
                shared_prefix: 0,
                think_s: 0.0,
                prev: None,
                next: None,
            });
        }
        for (s, session) in sessions.iter().enumerate() {
            let mut prev = first_idx[s];
            for t in session.iter().skip(1) {
                let idx = requests.len() as u32;
                requests.push(t.request.clone());
                turns.push(SessionTurn {
                    session: s as u32,
                    turn: t.turn,
                    shared_prefix: t.shared_prefix,
                    think_s: t.think_s,
                    prev: Some(prev),
                    next: None,
                });
                turns[prev as usize].next = Some(idx);
                prev = idx;
            }
        }
        for (i, r) in requests.iter_mut().enumerate() {
            r.id = RequestId(i as u64);
        }
        let st = SessionTrace {
            trace: Trace::new(requests),
            turns,
            start_arrivals,
            num_sessions: self.num_sessions,
        };
        st.check_invariants();
        st
    }
}

/// Per-request session linkage, parallel to [`SessionTrace::trace`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionTurn {
    /// Which session (user) this request belongs to.
    pub session: u32,
    /// Turn index within the session (0-based).
    pub turn: u32,
    /// Tokens of the prompt that are the prior transcript — exactly the
    /// previous turn's `input_len + output_len`, i.e. exactly the KV a
    /// session-affine cache still holds when the previous turn finished.
    /// Zero for turn 0.
    pub shared_prefix: u32,
    /// Seconds between the previous turn finishing and this request
    /// arriving (user think time). Zero for turn 0.
    pub think_s: f64,
    /// Request index (into the trace) of the previous turn, if any.
    pub prev: Option<u32>,
    /// Request index of the next turn, if any.
    pub next: Option<u32>,
}

impl SessionTurn {
    /// Tokens of the prompt that are new this turn (must be prefilled
    /// even on a perfect KV-reuse hit).
    pub fn fresh_tokens(&self, input_len: u32) -> u32 {
        input_len - self.shared_prefix
    }
}

/// A generated session workload: the flat request trace plus the turn
/// linkage and the open-loop start time of each session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionTrace {
    /// The requests, turn-0s of all sessions first (in session order),
    /// then resumed turns in (session, turn) order.
    pub trace: Trace,
    /// Per-request linkage, parallel to `trace.requests()`.
    pub turns: Vec<SessionTurn>,
    /// Arrival time of each session's turn 0, non-decreasing, indexed by
    /// session id.
    pub start_arrivals: Vec<f64>,
    /// Number of sessions.
    pub num_sessions: usize,
}

impl SessionTrace {
    /// Number of requests (turns) across all sessions.
    pub fn len(&self) -> usize {
        self.turns.len()
    }

    /// True when the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.turns.is_empty()
    }

    /// The initial per-request arrival vector for a closed-loop run:
    /// turn-0 requests carry their session's open-loop start time, and
    /// every resumed turn is `f64::INFINITY` until the engine *releases*
    /// it (previous turn finished + think time). Non-decreasing by
    /// construction.
    pub fn initial_arrivals(&self) -> Vec<f64> {
        self.turns
            .iter()
            .map(|t| {
                if t.turn == 0 {
                    self.start_arrivals[t.session as usize]
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }

    /// Extract the sub-workload of the given sessions (old session ids,
    /// strictly increasing so the per-session start arrivals stay
    /// non-decreasing), re-numbering sessions to `0..sessions.len()` and
    /// requests into the same turn-0s-first layout
    /// [`SessionConfig::generate`] produces. This is how a fleet router
    /// splits one closed-loop workload across replicas: a session is an
    /// atomic routing unit (turn *k*'s arrival depends on turn *k−1*
    /// finishing *inside* a replica), so each replica receives a
    /// self-contained `SessionTrace` that passes
    /// [`Self::check_invariants`]. Selecting every session reproduces the
    /// original workload exactly; an empty selection yields an empty
    /// workload (a starved replica).
    ///
    /// # Panics
    /// Panics if `sessions` is not strictly increasing or indexes a
    /// session out of range.
    pub fn subset_sessions(&self, sessions: &[u32]) -> SessionTrace {
        assert!(
            sessions.windows(2).all(|w| w[1] > w[0]),
            "session subset must be strictly increasing"
        );
        // New session id per old id (u32::MAX = not selected).
        let mut new_of = vec![u32::MAX; self.num_sessions];
        for (k, &s) in sessions.iter().enumerate() {
            assert!((s as usize) < self.num_sessions, "session {s} out of range");
            new_of[s as usize] = k as u32;
        }
        // Old request indices per selected session, in turn order (the
        // global layout already lists each session's turns in increasing
        // turn order, so one forward pass collects them sorted).
        let mut turn_idx: Vec<Vec<u32>> = vec![Vec::new(); sessions.len()];
        for (i, t) in self.turns.iter().enumerate() {
            let n = new_of[t.session as usize];
            if n != u32::MAX {
                turn_idx[n as usize].push(i as u32);
            }
        }
        let reqs = self.trace.requests();
        let mut requests = Vec::new();
        let mut turns = Vec::new();
        let mut start_arrivals = Vec::new();
        let mut first_idx = vec![0u32; sessions.len()];
        for (k, idxs) in turn_idx.iter().enumerate() {
            first_idx[k] = requests.len() as u32;
            requests.push(reqs[idxs[0] as usize].clone());
            start_arrivals.push(self.start_arrivals[sessions[k] as usize]);
            turns.push(SessionTurn {
                session: k as u32,
                turn: 0,
                shared_prefix: 0,
                think_s: 0.0,
                prev: None,
                next: None,
            });
        }
        for (k, idxs) in turn_idx.iter().enumerate() {
            let mut prev = first_idx[k];
            for &i in &idxs[1..] {
                let old = &self.turns[i as usize];
                let idx = requests.len() as u32;
                requests.push(reqs[i as usize].clone());
                turns.push(SessionTurn {
                    session: k as u32,
                    turn: old.turn,
                    shared_prefix: old.shared_prefix,
                    think_s: old.think_s,
                    prev: Some(prev),
                    next: None,
                });
                turns[prev as usize].next = Some(idx);
                prev = idx;
            }
        }
        for (i, r) in requests.iter_mut().enumerate() {
            r.id = RequestId(i as u64);
        }
        let st = SessionTrace {
            trace: Trace::new(requests),
            turns,
            start_arrivals,
            num_sessions: sessions.len(),
        };
        st.check_invariants();
        st
    }

    /// Structural invariants the engine's reuse path relies on; panics on
    /// violation (generator bugs, hand-built traces).
    pub fn check_invariants(&self) {
        assert_eq!(self.trace.len(), self.turns.len(), "turn table length");
        assert!(
            self.start_arrivals.windows(2).all(|w| w[1] >= w[0]),
            "session starts must be non-decreasing"
        );
        let reqs = self.trace.requests();
        for (i, t) in self.turns.iter().enumerate() {
            assert!(
                t.shared_prefix < reqs[i].input_len || reqs[i].input_len == 1,
                "turn must add at least one fresh token"
            );
            match t.prev {
                None => assert_eq!(t.turn, 0, "only turn 0 lacks a predecessor"),
                Some(p) => {
                    let p = p as usize;
                    let prev_req = &reqs[p];
                    assert_eq!(self.turns[p].session, t.session, "prev in same session");
                    assert_eq!(self.turns[p].turn + 1, t.turn, "turns are consecutive");
                    assert_eq!(
                        t.shared_prefix,
                        prev_req.input_len + prev_req.output_len,
                        "shared prefix is exactly the prior transcript"
                    );
                    assert_eq!(self.turns[p].next, Some(i as u32), "prev/next agree");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_configs() {
        let a = SessionConfig::small(50, 9).generate();
        let b = SessionConfig::small(50, 9).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SessionConfig::small(50, 1).generate();
        let b = SessionConfig::small(50, 2).generate();
        assert_ne!(a.trace.requests(), b.trace.requests());
    }

    #[test]
    fn linkage_and_prefixes_are_consistent() {
        let st = SessionConfig::small(120, 4).generate();
        st.check_invariants(); // also run by generate(); explicit here
        // Some sessions must actually be multi-turn at mean_turns = 2.8.
        let resumed = st.turns.iter().filter(|t| t.turn > 0).count();
        assert!(resumed > 20, "only {resumed} resumed turns");
        // Every resumed turn shares a nonzero prefix and adds fresh text.
        let reqs = st.trace.requests();
        for (i, t) in st.turns.iter().enumerate() {
            if t.turn > 0 {
                assert!(t.shared_prefix > 0);
                assert!(t.fresh_tokens(reqs[i].input_len) >= 1);
                assert!(t.think_s > 0.0);
            }
        }
    }

    #[test]
    fn initial_arrivals_are_sorted_with_infinite_resumed_turns() {
        let st = SessionConfig::small(80, 6).generate();
        let arr = st.initial_arrivals();
        assert!(arr.windows(2).all(|w| w[1] >= w[0]), "must be sorted");
        for (t, a) in st.turns.iter().zip(&arr) {
            if t.turn == 0 {
                assert!(a.is_finite());
            } else {
                assert!(a.is_infinite(), "resumed turns start unreleased");
            }
        }
    }

    #[test]
    fn subset_of_every_session_is_the_identity() {
        let st = SessionConfig::small(60, 11).generate();
        let all: Vec<u32> = (0..st.num_sessions as u32).collect();
        assert_eq!(st.subset_sessions(&all), st);
    }

    #[test]
    fn subset_partitions_turns_and_preserves_linkage() {
        let st = SessionConfig::small(80, 12).generate();
        let evens: Vec<u32> = (0..st.num_sessions as u32).filter(|s| s % 2 == 0).collect();
        let odds: Vec<u32> = (0..st.num_sessions as u32).filter(|s| s % 2 == 1).collect();
        let a = st.subset_sessions(&evens);
        let b = st.subset_sessions(&odds);
        assert_eq!(a.len() + b.len(), st.len(), "every turn lands exactly once");
        assert_eq!(a.num_sessions + b.num_sessions, st.num_sessions);
        // check_invariants already ran inside subset_sessions; spot-check
        // that per-session turn content survived the renumbering.
        let first_even = st
            .turns
            .iter()
            .position(|t| t.session == 0 && t.turn == 1)
            .map(|i| st.trace.requests()[i].input_len);
        let first_in_a = a
            .turns
            .iter()
            .position(|t| t.session == 0 && t.turn == 1)
            .map(|i| a.trace.requests()[i].input_len);
        assert_eq!(first_even, first_in_a, "session 0 is evens[0]");
    }

    #[test]
    fn empty_subset_is_an_empty_workload() {
        let st = SessionConfig::small(10, 13).generate();
        let empty = st.subset_sessions(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.num_sessions, 0);
        assert!(empty.initial_arrivals().is_empty());
    }

    #[test]
    fn inputs_respect_the_transcript_filter() {
        let cfg = SessionConfig::small(200, 8);
        let st = cfg.generate();
        for r in st.trace.requests() {
            assert!(r.input_len >= 1 && r.input_len < cfg.base.input_max);
            assert!(r.output_len >= 1);
        }
    }
}
