//! Exhaustive bounded check of the cluster ↔ worker protocol model:
//! every pipeline depth ≤3, job count ≤3, both message modes, and every
//! fault placement, over *all* interleavings. This is the repo's
//! machine-checked statement that the PR-2 supervision protocol cannot
//! deadlock, double-report, or leak completions past shutdown.

use analyzer::protocol::{all_scenarios, check, ErrKind, Fault, Mode, Mutation, Scenario};

#[test]
fn every_bounded_scenario_satisfies_the_protocol_properties() {
    let scenarios = all_scenarios(3, 3);
    assert!(scenarios.len() > 100, "scenario sweep lost coverage");
    let mut states_total = 0usize;
    for sc in &scenarios {
        let summary = check(sc).unwrap_or_else(|v| {
            panic!("scenario {sc:?} violates the protocol:\n{v}")
        });
        states_total += summary.states;
        // A drain can only time out when a stall holds endpoints open.
        if summary.drain_timeouts > 0 {
            assert!(
                matches!(sc.fault, Fault::Stall { .. }),
                "drain timeout without stall in {sc:?}"
            );
        }
        // Fault-free runs succeed on every interleaving; runs whose fault
        // actually fires (rank < world, job < jobs) never report Ok.
        let fires = match sc.fault {
            Fault::None => false,
            Fault::Panic { rank, job }
            | Fault::Drop { rank, job }
            | Fault::Stall { rank, job }
            | Fault::CorruptAck { rank, job } => rank < sc.world && job < sc.jobs,
        };
        if !fires {
            assert_eq!(
                summary.outcomes.iter().collect::<Vec<_>>(),
                vec![&None],
                "fault-free scenario {sc:?} has failing interleavings: {:?}",
                summary.outcomes
            );
        } else {
            assert!(
                !summary.outcomes.contains(&None),
                "fault fired in {sc:?} but some interleaving reported Ok"
            );
        }
    }
    // The sweep is genuinely exhaustive, not a handful of states.
    assert!(states_total > 5_000, "only {states_total} states explored");
}

#[test]
fn panic_outranks_the_secondary_disconnect_cascade() {
    // A mid-pipeline panic cascades disconnects in both directions; at
    // least one interleaving must still pin `Panicked` as the root
    // cause (the settled-root-cause severity ranking).
    for mode in [Mode::Async, Mode::Rendezvous] {
        let summary = check(&Scenario {
            world: 3,
            jobs: 2,
            mode,
            fault: Fault::Panic { rank: 1, job: 0 },
            mutation: Mutation::None,
        })
        .unwrap_or_else(|v| panic!("{v}"));
        assert!(
            summary.outcomes.contains(&Some(ErrKind::Panicked)),
            "{mode:?}: {:?}",
            summary.outcomes
        );
    }
}

#[test]
fn mutations_prove_the_checker_is_not_vacuous() {
    // Each deliberately re-introduced protocol bug must produce a
    // counterexample with a non-empty interleaving trace.
    let double = check(&Scenario {
        world: 2,
        jobs: 1,
        mode: Mode::Async,
        fault: Fault::None,
        mutation: Mutation::DoubleExit,
    })
    .expect_err("double exit reports must be caught");
    assert!(double.message.contains("WorkerExit"), "{double}");
    assert!(!double.trace.is_empty());

    let unbounded = check(&Scenario {
        world: 3,
        jobs: 2,
        mode: Mode::Async,
        fault: Fault::Stall { rank: 1, job: 0 },
        mutation: Mutation::UnboundedShutdown,
    })
    .expect_err("an unbounded shutdown drain must deadlock under a stall");
    assert!(unbounded.message.contains("deadlock"), "{unbounded}");

    let leak = check(&Scenario {
        world: 2,
        jobs: 3,
        mode: Mode::Async,
        fault: Fault::Drop { rank: 0, job: 0 },
        mutation: Mutation::LeakCompletions,
    })
    .expect_err("completions consumed after shutdown must be caught");
    assert!(leak.message.contains("after shutdown"), "{leak}");
}
