//! The breadth-first explorer the bounded protocol model checkers run on:
//! the supervision model ([`crate::protocol`]) and, in
//! `tdpipe-kvcache`'s tests, the session-KV retention code itself. Every
//! state reachable from the initial one is expanded once, in discovery
//! order, and the first broken property comes back with the shortest
//! interleaving that reaches it. The seen-set is ordered (a `BTreeSet`),
//! so no hash order exists to leak; the visit order is the queue's.

use std::collections::{BTreeSet, VecDeque};

/// Safety valve: scenarios in the checked ranges stay far below this.
const MAX_STATES: usize = 1_000_000;

/// A property violation, with the interleaving that reaches it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What went wrong.
    pub message: String,
    /// Transition labels from the initial state to the violation.
    pub trace: Vec<String>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.message)?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>3}. {step}", i + 1)?;
        }
        Ok(())
    }
}

/// One transition: its label, the state it leads to, and the property
/// it breaks, if any.
pub type Step<S> = (String, S, Option<String>);

/// Exhaustively explore a model from `init` and return the number of
/// distinct states. `successors` lists every transition enabled in a
/// state, each with its own verdict. `terminal` is `None` while a state
/// has work left, and once it is terminal says whether it satisfies the
/// terminal properties; a non-terminal state with no transition is a
/// `deadlock`. `discovered` sees the label of every transition that
/// reaches a new state.
pub fn explore<S: Clone + Ord>(
    init: S,
    deadlock: &str,
    successors: impl Fn(&S) -> Vec<Step<S>>,
    mut terminal: impl FnMut(&S) -> Option<Result<(), String>>,
    mut discovered: impl FnMut(&str),
) -> Result<usize, Violation> {
    let mut states: Vec<S> = vec![init.clone()];
    let mut parent: Vec<Option<(usize, String)>> = vec![None];
    let mut seen: BTreeSet<S> = BTreeSet::from([init]);
    let mut queue: VecDeque<usize> = VecDeque::from([0]);

    let trace_to = |parent: &[Option<(usize, String)>], mut i: usize, extra: Option<String>| {
        let mut labels = Vec::new();
        if let Some(e) = extra {
            labels.push(e);
        }
        while let Some((p, label)) = &parent[i] {
            labels.push(label.clone());
            i = *p;
        }
        labels.reverse();
        labels
    };

    while let Some(i) = queue.pop_front() {
        let state = states[i].clone();
        if let Some(verdict) = terminal(&state) {
            if let Err(message) = verdict {
                return Err(Violation {
                    message,
                    trace: trace_to(&parent, i, None),
                });
            }
            continue;
        }
        let succs = successors(&state);
        if succs.is_empty() {
            return Err(Violation {
                message: deadlock.to_string(),
                trace: trace_to(&parent, i, None),
            });
        }
        for (label, next, violation) in succs {
            if let Some(message) = violation {
                return Err(Violation {
                    message,
                    trace: trace_to(&parent, i, Some(label)),
                });
            }
            if seen.contains(&next) {
                continue;
            }
            discovered(&label);
            queue.push_back(states.len());
            states.push(next.clone());
            parent.push(Some((i, label)));
            seen.insert(next);
            if states.len() > MAX_STATES {
                return Err(Violation {
                    message: format!("state space exceeded {MAX_STATES} states"),
                    trace: Vec::new(),
                });
            }
        }
    }
    Ok(states.len())
}
