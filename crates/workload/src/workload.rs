//! The one description of a run: what an engine, a scheduler, a fleet
//! replica or the whole fleet is asked to serve.

use crate::{Request, RequestId, SessionTrace, SessionTurn, Trace};

/// A run's offered workload, borrowed from the caller.
///
/// Every reader goes through the row accessors ([`Self::request`],
/// [`Self::arrival`], [`Self::next`], …), so a whole trace and a fleet
/// replica's [`Rows`] share run down one path.
#[derive(Debug, Clone, Copy)]
pub enum Workload<'a> {
    /// Open-loop requests. `arrivals` is one non-decreasing time per
    /// request, or empty for the paper's offline setting (everything
    /// queued at t = 0); latencies come out arrival-relative.
    Requests {
        trace: &'a Trace,
        arrivals: &'a [f64],
    },
    /// Closed-loop multi-turn sessions: each resumed turn arrives only
    /// after its predecessor finishes plus think time.
    Sessions(&'a SessionTrace),
    /// Some rows of another workload, read through it: a fleet replica's
    /// share.
    Rows(&'a Rows<'a>),
}

impl<'a> Workload<'a> {
    /// The paper's offline setting: every request of `trace` queued at
    /// t = 0.
    pub fn offline(trace: &'a Trace) -> Self {
        Workload::Requests {
            trace,
            arrivals: &[],
        }
    }

    /// Total requests (turns, for sessions) offered.
    pub fn len(&self) -> usize {
        match self {
            Workload::Requests { trace, .. } => trace.len(),
            Workload::Sessions(st) => st.len(),
            Workload::Rows(share) => share.rows.len(),
        }
    }

    /// Whether there is nothing to serve.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the requests are closed-loop session turns.
    pub fn is_sessions(&self) -> bool {
        match self {
            Workload::Requests { .. } => false,
            Workload::Sessions(_) => true,
            Workload::Rows(share) => share.parent.is_sessions(),
        }
    }

    /// Number of sessions (zero for open-loop requests); session `s`'s
    /// turn 0 is request `s`.
    pub fn num_sessions(&self) -> usize {
        match self {
            Workload::Requests { .. } => 0,
            Workload::Sessions(st) => st.num_sessions,
            Workload::Rows(share) => share.starts.len(),
        }
    }

    /// Request `i`, the parent's own for a share.
    #[inline]
    pub fn request(&self, i: usize) -> &'a Request {
        match *self {
            Workload::Requests { trace, .. } => &trace.requests()[i],
            Workload::Sessions(st) => &st.trace.requests()[i],
            Workload::Rows(share) => share.parent.request(share.rows[i] as usize),
        }
    }

    /// Request `i`'s id: its own in a whole trace, its position in a
    /// share (so a share's ids run `0..len` like a self-contained trace).
    #[inline]
    pub fn id(&self, i: usize) -> RequestId {
        match self {
            Workload::Rows(_) => RequestId(i as u64),
            _ => self.request(i).id,
        }
    }

    /// Request `i`'s arrival as the run starts: its open-loop time (0 when
    /// offline), its session's start for a turn 0, and `f64::INFINITY` for
    /// a resumed turn, which the engine releases when its predecessor
    /// finishes plus think time.
    #[inline]
    pub fn arrival(&self, i: usize) -> f64 {
        match *self {
            Workload::Requests { arrivals, .. } => arrivals.get(i).copied().unwrap_or(0.0),
            Workload::Sessions(st) => match st.turns[i] {
                SessionTurn { turn: 0, session, .. } => st.start_arrivals[session as usize],
                _ => f64::INFINITY,
            },
            Workload::Rows(share) if share.parent.is_sessions() => {
                share.starts.get(i).copied().unwrap_or(f64::INFINITY)
            }
            Workload::Rows(share) => share.parent.arrival(share.rows[i] as usize),
        }
    }

    /// The position of request `i`'s next turn in its session, if any.
    pub fn next(&self, i: usize) -> Option<u32> {
        match *self {
            Workload::Requests { .. } => None,
            Workload::Sessions(st) => st.turns[i].next,
            // A share lays each session's resumed turns out in a row.
            Workload::Rows(share) => share.parent.next(share.rows[i] as usize).map(|_| {
                match share.first_resumed.get(i) {
                    Some(&first) => first, // turn 0 of session `i`
                    None => i as u32 + 1,
                }
            }),
        }
    }

    /// Seconds between request `i`'s predecessor finishing and `i`
    /// arriving (zero outside resumed turns).
    pub fn think_s(&self, i: usize) -> f64 {
        match *self {
            Workload::Requests { .. } => 0.0,
            Workload::Sessions(st) => st.turns[i].think_s,
            Workload::Rows(share) => share.parent.think_s(share.rows[i] as usize),
        }
    }

    /// Whether request `i` is a resumed session turn (it has a
    /// predecessor).
    pub fn is_resumed(&self, i: usize) -> bool {
        match *self {
            Workload::Requests { .. } => false,
            Workload::Sessions(st) => st.turns[i].prev.is_some(),
            Workload::Rows(share) => share.parent.is_resumed(share.rows[i] as usize),
        }
    }

    /// Request `i`'s full session linkage in this workload's numbering
    /// (`None` for open-loop requests).
    pub fn session_turn(&self, i: usize) -> Option<SessionTurn> {
        match *self {
            Workload::Requests { .. } => None,
            Workload::Sessions(st) => Some(st.turns[i]),
            Workload::Rows(share) => {
                let t = share.parent.session_turn(share.rows[i] as usize)?;
                // Session `k`'s resumed turns start at `first_resumed[k]`.
                let session = match t.turn {
                    0 => i,
                    _ => share.first_resumed.partition_point(|&r| r as usize <= i) - 1,
                } as u32;
                Some(SessionTurn {
                    session,
                    prev: t.prev.map(|_| if t.turn == 1 { session } else { i as u32 - 1 }),
                    next: self.next(i),
                    ..t
                })
            }
        }
    }
}

/// A share of a parent workload by row: a fleet replica's part, read
/// through the parent instead of copied. Rows are renumbered to share
/// positions exactly as a self-contained trace would be: a session share
/// lays out its sessions' turn 0s first, in session order, then their
/// resumed turns in (session, turn) order, and request ids are share
/// positions. A share costs 4 bytes per request, plus 12 per session.
#[derive(Debug)]
pub struct Rows<'a> {
    parent: Workload<'a>,
    /// Parent position of each share request, in share order.
    rows: Vec<u32>,
    /// Each session's start arrival (empty for open-loop shares).
    starts: Vec<f64>,
    /// The share position of each session's first resumed turn (where it
    /// would be, for a single-turn session; empty for open-loop shares).
    first_resumed: Vec<u32>,
}

impl<'a> Rows<'a> {
    /// The open-loop requests of `parent` at `rows`, in that order (their
    /// arrivals must stay non-decreasing).
    ///
    /// # Panics
    /// Panics if `parent` is closed-loop.
    pub fn requests(parent: Workload<'a>, rows: Vec<u32>) -> Self {
        assert!(!parent.is_sessions(), "sessions are shared whole, by session");
        Rows {
            parent,
            rows,
            starts: Vec::new(),
            first_resumed: Vec::new(),
        }
    }

    /// Every turn of `parent`'s `sessions` (strictly increasing, so the
    /// start arrivals stay non-decreasing), sessions renumbered to
    /// `0..sessions.len()`. Selecting every session reads the parent back
    /// exactly; an empty selection is an empty workload (a starved
    /// replica).
    ///
    /// # Panics
    /// Panics if `parent` is open-loop, or `sessions` is not strictly
    /// increasing or names a session out of range.
    pub fn sessions(parent: Workload<'a>, sessions: &[u32]) -> Self {
        assert!(parent.is_sessions(), "an open-loop workload is shared by request");
        assert!(
            sessions.windows(2).all(|w| w[1] > w[0]),
            "session subset must be strictly increasing"
        );
        assert!(
            sessions.last().is_none_or(|&s| (s as usize) < parent.num_sessions()),
            "session out of range"
        );
        // A session's resumed turns, following the parent's linkage.
        let resumed_of =
            |s: u32| std::iter::successors(parent.next(s as usize), |&j| parent.next(j as usize));
        let k = sessions.len();
        let mut first_resumed = Vec::with_capacity(k);
        let mut len = k;
        for &s in sessions {
            first_resumed.push(len as u32);
            len += resumed_of(s).count();
        }
        let mut rows = Vec::with_capacity(len);
        rows.extend_from_slice(sessions);
        for &s in sessions {
            rows.extend(resumed_of(s));
        }
        Rows {
            parent,
            rows,
            starts: sessions.iter().map(|&s| parent.arrival(s as usize)).collect(),
            first_resumed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::tests::configs;
    use crate::{ArrivalProcess, ShareGptLikeConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Request `i` of `work` as a self-contained trace holds it.
    fn renumbered(work: &Workload<'_>, i: usize) -> Request {
        Request { id: work.id(i), ..work.request(i).clone() }
    }

    /// Every `keep`-th session (or request) of `n`, drawn from `rng`.
    fn pick(rng: &mut StdRng, n: usize, keep: f64) -> Vec<u32> {
        (0..n as u32).filter(|_| rng.random::<f64>() < keep).collect()
    }

    #[test]
    fn session_rows_read_what_subset_sessions_builds() {
        for cfg in configs() {
            let st = cfg.generate();
            let parent = Workload::Sessions(&st);
            let mut rng = StdRng::seed_from_u64(cfg.base.seed ^ cfg.num_sessions as u64);
            for keep in [0.0, 0.3, 0.7, 1.0] {
                let selected = pick(&mut rng, st.num_sessions, keep);
                let sub = st.subset_sessions(&selected);
                let share = Rows::sessions(parent, &selected);
                let work = Workload::Rows(&share);
                let ctx = format!("sessions {selected:?} of {cfg:?}");
                assert!(work.is_sessions(), "{ctx}");
                assert_eq!(work.len(), sub.len(), "{ctx}");
                assert_eq!(share.starts, sub.start_arrivals, "{ctx}");
                let initial: Vec<f64> = (0..work.len()).map(|i| work.arrival(i)).collect();
                assert_eq!(initial, sub.initial_arrivals(), "{ctx}");
                for (i, t) in sub.turns.iter().enumerate() {
                    // The share reads the parent's own request, never a copy.
                    let own = &st.trace.requests()[share.rows[i] as usize];
                    assert!(std::ptr::eq(work.request(i), own), "{ctx}: row {i} copied");
                    assert_eq!(renumbered(&work, i), sub.trace.requests()[i], "{ctx}: row {i}");
                    assert_eq!(work.session_turn(i), Some(*t), "{ctx}: row {i}");
                    assert_eq!(work.next(i), t.next, "{ctx}: row {i}");
                    assert_eq!(work.think_s(i).to_bits(), t.think_s.to_bits(), "{ctx}: row {i}");
                    assert_eq!(work.is_resumed(i), t.prev.is_some(), "{ctx}: row {i}");
                }
                assert_eq!(share.rows.capacity(), share.rows.len(), "{ctx}");
            }
        }
    }

    #[test]
    fn request_rows_read_what_subset_builds() {
        for seed in [1, 7, 42] {
            for n in [1, 2, 33, 150] {
                let trace = ShareGptLikeConfig::small(n, seed).generate();
                let poisson = ArrivalProcess::Poisson { rate_per_s: 4.0, seed }.sample(n);
                let mut rng = StdRng::seed_from_u64(seed ^ n as u64);
                for arrivals in [&[][..], &poisson[..]] {
                    let parent = Workload::Requests { trace: &trace, arrivals };
                    for keep in [0.0, 0.3, 0.7, 1.0] {
                        let rows = pick(&mut rng, n, keep);
                        let idx: Vec<usize> = rows.iter().map(|&r| r as usize).collect();
                        let sub = trace.subset(&idx);
                        let sub_arrivals: Vec<f64> =
                            idx.iter().filter_map(|&i| arrivals.get(i).copied()).collect();
                        let share = Rows::requests(parent, rows);
                        let work = Workload::Rows(&share);
                        let ctx = format!("rows {idx:?} of {n} at seed {seed}");
                        assert!(!work.is_sessions(), "{ctx}");
                        assert_eq!(work.len(), sub.len(), "{ctx}");
                        for (i, r) in sub.requests().iter().enumerate() {
                            let own = &trace.requests()[idx[i]];
                            assert!(std::ptr::eq(work.request(i), own), "{ctx}: row {i} copied");
                            assert_eq!(&renumbered(&work, i), r, "{ctx}: row {i}");
                            let arrival = sub_arrivals.get(i).copied().unwrap_or(0.0);
                            assert_eq!(work.arrival(i).to_bits(), arrival.to_bits(), "{ctx}");
                            assert_eq!(work.session_turn(i), None, "{ctx}");
                            assert_eq!(work.next(i), None, "{ctx}");
                            assert!(!work.is_resumed(i), "{ctx}");
                        }
                    }
                }
            }
        }
    }
}
