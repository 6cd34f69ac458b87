//! Property tests over TD-Pipe's decision mechanisms.

use crate::batch::partition_even_into;
use crate::greedy::GreedyPrefillPlanner;
use crate::steal::WorkStealer;
use proptest::prelude::*;

/// One step of a planner delta sequence (see
/// `greedy_incremental_deltas_match_rebuild`).
#[derive(Debug, Clone, Copy)]
enum PlannerOp {
    /// Admit a request with (current tokens, predicted remaining).
    Admit(u64, u32),
    /// Remove the `n`-th live request (modulo the live count).
    Remove(usize),
    /// Advance the `n`-th live request by `steps` decode steps.
    Advance(usize, u32),
}

proptest! {
    #[test]
    fn partition_even_is_a_partition(members in prop::collection::vec(0usize..10_000, 0..500), n in 1usize..8) {
        let mut batches = Vec::new();
        partition_even_into(&members, n, &mut batches);
        prop_assert_eq!(batches.len(), n);
        let mut all: Vec<usize> = batches.iter().flat_map(|b| b.members.clone()).collect();
        prop_assert_eq!(&all[..], &members[..], "order-preserving concatenation");
        all.sort_unstable();
        let mut sorted = members.clone();
        sorted.sort_unstable();
        prop_assert_eq!(all, sorted);
        let min = batches.iter().map(|b| b.len()).min().unwrap();
        let max = batches.iter().map(|b| b.len()).max().unwrap();
        prop_assert!(max - min <= 1, "even to within one");
    }

    #[test]
    fn greedy_usage_is_additive_and_monotone(
        reqs in prop::collection::vec((1u32..1024, 0u32..256, 1u32..1200), 1..40),
        cap in 1u64..1_000_000,
    ) {
        let points: Vec<u32> = (1..=8).map(|i| i * 32).collect();
        let mut p = GreedyPrefillPlanner::new(points.clone(), cap);
        let mut prev_peak = 0;
        for (id, &(input, generated, predicted)) in reqs.iter().enumerate() {
            let current = input as u64 + generated as u64;
            p.admit(id, current, predicted.max(1).saturating_sub(generated));
            let peak = p.peak_usage();
            prop_assert!(peak >= prev_peak, "usage only grows during admission");
            prev_peak = peak;
        }
        // Clearing drops every resident.
        p.clear();
        prop_assert_eq!(p.peak_usage(), 0);
        // Re-adding the same set reproduces the same peak (determinism).
        for (id, &(input, generated, predicted)) in reqs.iter().enumerate() {
            let current = input as u64 + generated as u64;
            p.admit(id, current, predicted.max(1).saturating_sub(generated));
        }
        prop_assert_eq!(p.peak_usage(), prev_peak);
    }

    #[test]
    fn greedy_peak_bounds_true_token_demand(
        reqs in prop::collection::vec((1u32..512, 33u32..1200), 1..40),
    ) {
        // For requests whose predicted output survives the first future
        // point, the simulated peak is at least (input + 32) each — the
        // planner never *under*-counts live requests at fp=32.
        let points: Vec<u32> = (1..=32).map(|i| i * 32).collect();
        let mut p = GreedyPrefillPlanner::new(points, u64::MAX);
        let mut lower = 0u64;
        for (id, &(input, predicted)) in reqs.iter().enumerate() {
            p.admit(id, input as u64, predicted);
            lower += input as u64 + 32;
        }
        prop_assert!(p.peak_usage() >= lower);
    }

    /// Satellite: the incremental planner deltas (admit / remove / advance)
    /// agree with a from-scratch rebuild on the whole usage grid — and so
    /// on `peak_usage` and `would_overflow` — across random sequences.
    #[test]
    fn greedy_incremental_deltas_match_rebuild(
        ops in prop::collection::vec(
            prop_oneof![
                (1u64..4096, 0u32..1200).prop_map(|(c, p)| PlannerOp::Admit(c, p)),
                (0usize..64).prop_map(PlannerOp::Remove),
                (0usize..64, 1u32..300).prop_map(|(n, s)| PlannerOp::Advance(n, s)),
            ],
            1..100,
        ),
        cap in 1u64..1_000_000,
    ) {
        let points: Vec<u32> = (1..=8).map(|i| i * 32).collect();
        let mut planner = GreedyPrefillPlanner::new(points.clone(), cap);
        // Shadow model: the (current, predicted-remaining) state every live
        // request *should* have after the sequence so far.
        let mut shadow: Vec<Option<(u64, u32)>> = Vec::new();
        for op in ops {
            match op {
                PlannerOp::Admit(c, p) => {
                    let id = shadow.len();
                    planner.admit(id, c, p);
                    shadow.push(Some((c, p)));
                }
                PlannerOp::Remove(n) => {
                    let live: Vec<usize> =
                        (0..shadow.len()).filter(|&i| shadow[i].is_some()).collect();
                    if live.is_empty() {
                        continue;
                    }
                    let id = live[n % live.len()];
                    planner.remove_request(id);
                    shadow[id] = None;
                }
                PlannerOp::Advance(n, steps) => {
                    let live: Vec<usize> =
                        (0..shadow.len()).filter(|&i| shadow[i].is_some()).collect();
                    if live.is_empty() {
                        continue;
                    }
                    let id = live[n % live.len()];
                    planner.advance(id, steps);
                    let (c, p) = shadow[id].unwrap();
                    shadow[id] = Some((c + steps as u64, p.saturating_sub(steps)));
                }
            }
            // Rebuild from scratch and compare the full grid.
            let mut oracle = GreedyPrefillPlanner::new(points.clone(), cap);
            for (id, s) in shadow.iter().enumerate() {
                if let Some((c, p)) = s {
                    oracle.admit(id, *c, *p);
                }
            }
            prop_assert_eq!(oracle.usage(), planner.usage());
            prop_assert_eq!(oracle.peak_usage(), planner.peak_usage());
            prop_assert_eq!(oracle.would_overflow(), planner.would_overflow());
        }
    }

    #[test]
    fn stealing_conserves_and_tightens(
        sizes in prop::collection::vec(1usize..200, 2..6),
        rounds in 1usize..12,
    ) {
        let mut next_id = 0usize;
        let mut batches: Vec<Vec<usize>> = sizes
            .iter()
            .map(|&s| {
                let b: Vec<usize> = (next_id..next_id + s).collect();
                next_id += s;
                b
            })
            .collect();
        let total: usize = sizes.iter().sum();
        let mut stealer = WorkStealer::new(&sizes);
        for _ in 0..rounds {
            for b in batches.iter_mut() {
                stealer.rebalance(b, 0, &mut 0, |_| 0);
            }
        }
        let held: usize = batches.iter().map(Vec::len).sum::<usize>() + stealer.withheld().len();
        prop_assert_eq!(held, total, "no request lost or duplicated");
        // No duplicates anywhere.
        let mut all: Vec<usize> = batches.iter().flatten().copied().collect();
        all.extend(stealer.withheld());
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len(), total);
        // With no completions, several rounds must tighten the spread to
        // within ~1 of even (+ leftover pool smaller than one batch gap).
        if rounds >= sizes.len() + 2 {
            let min = batches.iter().map(Vec::len).min().unwrap();
            let max = batches.iter().map(Vec::len).max().unwrap();
            prop_assert!(max - min <= 2, "spread {min}..{max} after {rounds} rounds");
        }
    }
}
