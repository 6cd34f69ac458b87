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
                seed: 0x005E_5510,
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
        self.generate_with(fill_workers())
    }

    /// [`Self::generate`] on `workers` fill threads; the trace is the same
    /// for every count. One sequential pass runs the draw loop to find
    /// where each session ends, stepping past the feature draws, and
    /// records the generator state at each session's start. The final
    /// layout is then allocated at its exact size and filled over disjoint
    /// session ranges, each worker replaying its sessions from their
    /// recorded states into slices it was handed (so it allocates
    /// nothing, and glibc gives it no arena of its own).
    fn generate_with(&self, workers: usize) -> SessionTrace {
        assert!(self.num_sessions > 0, "need at least one session");
        let n = self.num_sessions;
        let mut rng = StdRng::seed_from_u64(self.base.seed ^ 0x5E55_1045);
        // Each session's starting state and the trace position of its
        // first resumed turn (turn 0s fill positions `0..n`).
        let mut plan = Vec::with_capacity(n + 1);
        let mut resumed_at = n as u32;
        for s in 0..n {
            plan.push((rng.clone(), resumed_at));
            self.draw_session(s as u32, &mut rng, |rng, _, t| {
                ShareGptLikeConfig::skip_features(rng);
                resumed_at += (t.turn > 0) as u32;
            });
        }
        plan.push((rng, resumed_at));
        let total = resumed_at as usize;
        let mut requests = vec![Request::BLANK; total];
        let mut turns = vec![SessionTurn::default(); total];
        let chunk = n.div_ceil(workers.clamp(1, n));
        std::thread::scope(|scope| {
            let (mut first_reqs, mut later_reqs) = requests.split_at_mut(n);
            let (mut first_turns, mut later_turns) = turns.split_at_mut(n);
            let mut sessions = 0..n;
            while !sessions.is_empty() {
                let lo = sessions.start;
                let hi = (lo + chunk).min(n);
                sessions.start = hi;
                let resumed = (plan[hi].1 - plan[lo].1) as usize;
                let firsts = take(&mut first_reqs, hi - lo);
                let first_links = take(&mut first_turns, hi - lo);
                let later = take(&mut later_reqs, resumed);
                let later_links = take(&mut later_turns, resumed);
                let plan = &plan[lo..=hi];
                let mut fill = move || {
                    self.fill(lo, plan, (firsts, first_links), (later, later_links))
                };
                if sessions.is_empty() {
                    fill(); // the last range runs on the calling thread
                } else {
                    scope.spawn(fill);
                }
            }
        });
        let st = SessionTrace {
            trace: Trace::new(requests),
            turns,
            start_arrivals: self.arrival.sample(n),
            num_sessions: n,
        };
        st.check_invariants();
        st
    }

    /// Replay sessions `lo..lo + plan.len() - 1` from their recorded
    /// states into their slots: each session's turn 0 into `firsts`, its
    /// resumed turns into `later`, both offset to the range's start.
    /// `plan[k]` is session `lo + k`'s starting state and first resumed
    /// position, and the one past the range ends its resumed turns.
    fn fill(
        &self,
        lo: usize,
        plan: &[(StdRng, u32)],
        (firsts, first_links): (&mut [Request], &mut [SessionTurn]),
        (later, later_links): (&mut [Request], &mut [SessionTurn]),
    ) {
        let base = plan[0].1;
        for (k, w) in plan.windows(2).enumerate() {
            let s = (lo + k) as u32;
            let (mut rng, at) = (w[0].0.clone(), w[0].1);
            let end = w[1].1;
            self.draw_session(s, &mut rng, |rng, mut request, mut link| {
                request.features = self.base.sample_features_for(rng, request.category as usize);
                // Turn 1 follows its session's turn 0, at position `s`;
                // every later turn follows the one laid out before it.
                let idx = if link.turn == 0 { s } else { at + link.turn - 1 };
                link.prev = match link.turn {
                    0 => None,
                    1 => Some(s),
                    _ => Some(idx - 1),
                };
                let next = if link.turn == 0 { at } else { idx + 1 };
                link.next = (next < end).then_some(next);
                request.id = RequestId(idx as u64);
                let (req_slot, link_slot) = if link.turn == 0 {
                    (&mut firsts[k], &mut first_links[k])
                } else {
                    let j = (idx - base) as usize;
                    (&mut later[j], &mut later_links[j])
                };
                *req_slot = request;
                *link_slot = link;
            });
        }
    }

    /// Draw session `s`'s turns from `rng`, which stands at the session's
    /// start, turn by turn. Each turn goes to `turn` with its request
    /// (features zero) and linkage (`prev`, `next` unset); `turn` must
    /// draw or skip the features from the generator it is handed before
    /// the next draw.
    fn draw_session(
        &self,
        s: u32,
        rng: &mut StdRng,
        mut turn: impl FnMut(&mut StdRng, Request, SessionTurn),
    ) {
        let continue_p = 1.0 - 1.0 / self.mean_turns.max(1.0);
        let category = sample_category(rng);
        let mut index = 0u32;
        let mut context = 0u64; // transcript tokens so far
        loop {
            let fresh = (self.turn_mu + self.turn_sigma * sample_std_normal(rng))
                .exp()
                .max(1.0) as u64;
            let input_len = (context + fresh).min(u32::MAX as u64) as u32;
            if index > 0 && input_len >= self.base.input_max {
                break; // transcript outgrew the filter: session ends
            }
            let output_len = self.base.sample_output_for(rng, category);
            let think_s = if index == 0 {
                0.0
            } else {
                (self.think_mu + self.think_sigma * sample_std_normal(rng)).exp()
            };
            let request = Request {
                id: RequestId(0),
                input_len: input_len.max(1).min(self.base.input_max - 1),
                output_len,
                category: category as u8,
                features: [0.0; crate::FEATURE_DIM],
            };
            let linkage = SessionTurn {
                session: s,
                turn: index,
                shared_prefix: context.min(u32::MAX as u64) as u32,
                think_s,
                prev: None,
                next: None,
            };
            context = request.input_len as u64 + output_len as u64;
            turn(rng, request, linkage);
            index += 1;
            if rng.random::<f64>() > continue_p {
                break;
            }
        }
    }
}

/// Threads the in-place generators fill on: one per core.
pub(crate) fn fill_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Split the first `len` items off the front of `slice`.
pub(crate) fn take<'a, T>(slice: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(slice).split_at_mut(len);
    *slice = tail;
    head
}

/// Per-request session linkage, parallel to [`SessionTrace::trace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
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

    /// Structural invariants the engine's reuse path relies on; panics on
    /// violation (generator bugs, hand-built traces).
    pub fn check_invariants(&self) {
        assert_eq!(self.trace.len(), self.turns.len(), "turn table length");
        assert!(
            self.start_arrivals.windows(2).all(|w| w[1] >= w[0]),
            "session starts must be non-decreasing"
        );
        // The layout session shares (`Rows::sessions`) read: session `s`'s
        // turn 0 at position `s`, then the resumed turns in (session, turn)
        // order.
        assert_eq!(self.start_arrivals.len(), self.num_sessions, "one start per session");
        let (firsts, resumed) = self.turns.split_at(self.num_sessions);
        let key = |t: &SessionTurn| (t.session, t.turn);
        assert!(
            firsts.iter().enumerate().all(|(s, t)| key(t) == (s as u32, 0))
                && resumed.iter().all(|t| t.turn > 0)
                && resumed.windows(2).all(|w| key(&w[0]) < key(&w[1])),
            "turn 0s first in session order, then resumed turns in (session, turn) order"
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
pub(crate) mod tests {
    use super::*;
    use rand::Rng;

    // The sequential reference the in-place generator and the fleet's row
    // shares are checked against: the draw loop emitting each turn in
    // order, and one layout pass over them.
    impl SessionConfig {
        /// Draw every session's turns, session by session and turn by
        /// turn, handing each to `emit` with its session, turn index,
        /// shared prefix and think time (ids and `prev`/`next` are left
        /// for [`lay_out`]). Returns the sessions' start arrivals.
        pub(crate) fn sample_turns(&self, mut emit: impl FnMut(Request, SessionTurn)) -> Vec<f64> {
            assert!(self.num_sessions > 0, "need at least one session");
            let mut rng = StdRng::seed_from_u64(self.base.seed ^ 0x5E55_1045);
            let continue_p = 1.0 - 1.0 / self.mean_turns.max(1.0);
            let starts = self.arrival.sample(self.num_sessions);

            for s in 0..self.num_sessions {
                let category = sample_category(&mut rng);
                let mut turn = 0u32;
                let mut context = 0u64; // transcript tokens so far
                loop {
                    let fresh = (self.turn_mu + self.turn_sigma * sample_std_normal(&mut rng))
                        .exp()
                        .max(1.0) as u64;
                    let input_len = (context + fresh).min(u32::MAX as u64) as u32;
                    if turn > 0 && input_len >= self.base.input_max {
                        break; // transcript outgrew the filter: session ends
                    }
                    let output_len = self.base.sample_output_for(&mut rng, category);
                    let think_s = if turn == 0 {
                        0.0
                    } else {
                        (self.think_mu + self.think_sigma * sample_std_normal(&mut rng)).exp()
                    };
                    let request = Request {
                        // Placeholder id; assigned after global ordering.
                        id: RequestId(0),
                        input_len: input_len.max(1).min(self.base.input_max - 1),
                        output_len,
                        category: category as u8,
                        features: self.base.sample_features_for(&mut rng, category),
                    };
                    let linkage = SessionTurn {
                        session: s as u32,
                        turn,
                        shared_prefix: context.min(u32::MAX as u64) as u32,
                        think_s,
                        prev: None,
                        next: None,
                    };
                    context = request.input_len as u64 + output_len as u64;
                    emit(request, linkage);
                    turn += 1;
                    if rng.random::<f64>() > continue_p {
                        break;
                    }
                }
            }
            starts
        }

        /// The sequential reference generator: [`Self::sample_turns`] into
        /// one [`lay_out`].
        pub(crate) fn generate_reference(&self) -> SessionTrace {
            let mut firsts = Vec::with_capacity(self.num_sessions);
            let mut resumed = Vec::new();
            let starts = self.sample_turns(|request, turn| {
                if turn.turn == 0 {
                    firsts.push(request);
                } else {
                    resumed.push((request, turn));
                }
            });
            lay_out(firsts.into_iter(), resumed.into_iter(), starts)
        }
    }

    impl SessionTrace {
        /// The initial per-request arrival vector for a closed-loop run:
        /// turn-0 requests carry their session's open-loop start time, and
        /// every resumed turn is `f64::INFINITY` until the engine *releases*
        /// it (previous turn finished + think time). Non-decreasing by
        /// construction.
        pub(crate) fn initial_arrivals(&self) -> Vec<f64> {
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
        /// [`SessionConfig::generate`] produces: the reference a session
        /// [`crate::Rows`] share must read back. The result passes
        /// [`Self::check_invariants`]. Selecting every session reproduces the
        /// original workload exactly; an empty selection yields an empty
        /// workload (a starved replica).
        ///
        /// # Panics
        /// Panics if `sessions` is not strictly increasing or indexes a
        /// session out of range.
        pub(crate) fn subset_sessions(&self, sessions: &[u32]) -> SessionTrace {
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
            // Session `s`'s turn 0 sits at position `s`, and the resumed turns
            // follow in (session, turn) order, so one forward pass over them
            // keeps the selected ones in the order the new layout wants.
            let resumed: Vec<u32> = (self.num_sessions..self.len())
                .filter(|&i| new_of[self.turns[i].session as usize] != u32::MAX)
                .map(|i| i as u32)
                .collect();
            let starts = sessions.iter().map(|&s| self.start_arrivals[s as usize]).collect();
            let reqs = self.trace.requests();
            lay_out(
                sessions.iter().map(|&s| reqs[s as usize].clone()),
                resumed.iter().map(|&i| {
                    let t = self.turns[i as usize];
                    let session = new_of[t.session as usize];
                    (reqs[i as usize].clone(), SessionTurn { session, ..t })
                }),
                starts,
            )
        }

    }

    /// Lay out sessions as a [`SessionTrace`]: every session's turn 0
    /// first, in session order (so with non-decreasing `start_arrivals`
    /// the initial arrival vector stays sorted), then the closed-loop
    /// turns in (session, turn) order, linked `prev`/`next`, with request
    /// ids renumbered to trace positions. `firsts` yields each session's
    /// turn-0 request in session order, and `resumed` every later turn in
    /// (session, turn) order with its linkage (of which `prev`, `next`
    /// are overwritten). Both vectors are allocated once at their final
    /// size.
    fn lay_out(
        firsts: impl ExactSizeIterator<Item = Request>,
        resumed: impl ExactSizeIterator<Item = (Request, SessionTurn)>,
        start_arrivals: Vec<f64>,
    ) -> SessionTrace {
        let num_sessions = firsts.len();
        let total = num_sessions + resumed.len();
        let mut requests = Vec::with_capacity(total);
        let mut turns = Vec::with_capacity(total);
        for (s, request) in firsts.enumerate() {
            requests.push(Request { id: RequestId(s as u64), ..request });
            turns.push(SessionTurn {
                session: s as u32,
                turn: 0,
                shared_prefix: 0,
                think_s: 0.0,
                prev: None,
                next: None,
            });
        }
        for (request, linkage) in resumed {
            let idx = requests.len() as u32;
            // Turn 1 follows its session's turn 0, at trace position
            // `session`; every later turn follows the one laid out before
            // it.
            let prev = if linkage.turn == 1 { linkage.session } else { idx - 1 };
            turns[prev as usize].next = Some(idx);
            requests.push(Request { id: RequestId(idx as u64), ..request });
            turns.push(SessionTurn {
                prev: Some(prev),
                next: None,
                ..linkage
            });
        }
        let st = SessionTrace {
            trace: Trace::new(requests),
            turns,
            start_arrivals,
            num_sessions,
        };
        st.check_invariants();
        st
    }

    /// Naive reference layout: each session's turns gathered in their own
    /// `Vec`, then laid out turn 0s first and linked by position.
    fn nested_lay_out(
        sessions: Vec<Vec<(Request, SessionTurn)>>,
        starts: Vec<f64>,
    ) -> SessionTrace {
        let num_sessions = sessions.len();
        let mut requests = Vec::new();
        let mut turns = Vec::new();
        for (s, session) in sessions.iter().enumerate() {
            requests.push(session[0].0.clone());
            turns.push(SessionTurn {
                session: s as u32,
                turn: 0,
                shared_prefix: 0,
                think_s: 0.0,
                prev: None,
                next: None,
            });
        }
        for (s, session) in sessions.into_iter().enumerate() {
            let mut prev = s as u32;
            for (request, linkage) in session.into_iter().skip(1) {
                let idx = requests.len() as u32;
                requests.push(request);
                turns.push(SessionTurn {
                    session: s as u32,
                    prev: Some(prev),
                    next: None,
                    ..linkage
                });
                turns[prev as usize].next = Some(idx);
                prev = idx;
            }
        }
        for (i, r) in requests.iter_mut().enumerate() {
            r.id = RequestId(i as u64);
        }
        SessionTrace {
            trace: Trace::new(requests),
            turns,
            start_arrivals: starts,
            num_sessions,
        }
    }

    fn nested_generate(cfg: &SessionConfig) -> SessionTrace {
        let mut sessions: Vec<Vec<(Request, SessionTurn)>> = Vec::new();
        let starts = cfg.sample_turns(|request, turn| {
            if turn.turn == 0 {
                sessions.push(Vec::new());
            }
            sessions.last_mut().unwrap().push((request, turn));
        });
        nested_lay_out(sessions, starts)
    }

    fn nested_subset(st: &SessionTrace, selected: &[u32]) -> SessionTrace {
        let sessions = selected
            .iter()
            .map(|&s| {
                (0..st.len())
                    .filter(|&i| st.turns[i].session == s)
                    .map(|i| (st.trace.requests()[i].clone(), st.turns[i]))
                    .collect()
            })
            .collect();
        let starts = selected.iter().map(|&s| st.start_arrivals[s as usize]).collect();
        nested_lay_out(sessions, starts)
    }

    /// The seed × session-count × mean-turns grid the layout tests sweep.
    pub(crate) fn configs() -> impl Iterator<Item = SessionConfig> {
        [1, 7, 42].into_iter().flat_map(|seed| {
            [1, 2, 33, 150].into_iter().flat_map(move |n| {
                // Mean 1 turn: every session is a single turn.
                [1.0, 2.8, 6.0].into_iter().map(move |mean_turns| SessionConfig {
                    mean_turns,
                    ..SessionConfig::small(n, seed)
                })
            })
        })
    }

    #[test]
    fn layout_matches_the_nested_reference() {
        for cfg in configs() {
            let st = cfg.generate();
            assert_eq!(st, nested_generate(&cfg), "generate, {cfg:?}");
            let mut rng = StdRng::seed_from_u64(cfg.base.seed ^ cfg.num_sessions as u64);
            for keep in [0.0, 0.3, 0.7, 1.0] {
                let selected: Vec<u32> = (0..st.num_sessions as u32)
                    .filter(|_| rng.random::<f64>() < keep)
                    .collect();
                assert_eq!(
                    st.subset_sessions(&selected),
                    nested_subset(&st, &selected),
                    "subset {selected:?} of {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn in_place_generation_matches_the_sequential_reference() {
        for cfg in configs() {
            let reference = cfg.generate_reference();
            for workers in [1, 2, 7] {
                assert_eq!(cfg.generate_with(workers), reference, "{workers} workers, {cfg:?}");
            }
        }
    }

    #[test]
    fn layouts_are_allocated_at_exact_size() {
        let st = SessionConfig::small(300, 3).generate();
        let half: Vec<u32> = (0..st.num_sessions as u32).filter(|s| s % 3 != 0).collect();
        for t in [&st, &st.subset_sessions(&half)] {
            assert_eq!(t.trace.capacity(), t.trace.len());
            assert_eq!(t.turns.capacity(), t.turns.len());
        }
    }

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
