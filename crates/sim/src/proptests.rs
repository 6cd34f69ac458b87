//! Property tests over the pipeline simulator's invariants.

use crate::pipeline::{PipelineSim, TransferMode};
use crate::timeline::SegmentKind;
use proptest::prelude::*;

/// A job stream: per-job (ready, per-stage exec times).
fn arb_stream(stages: usize) -> impl Strategy<Value = Vec<(f64, Vec<f64>)>> {
    prop::collection::vec(
        (
            0.0f64..5.0,
            prop::collection::vec(0.001f64..0.5, stages..=stages),
        ),
        1..60,
    )
}

fn run_mode(
    mode: TransferMode,
    stages: usize,
    stream: &[(f64, Vec<f64>)],
    xfer: f64,
) -> (Vec<f64>, f64) {
    let mut sim = PipelineSim::new(stages as u32, mode, false);
    let xfers = vec![xfer; stages - 1];
    let finishes = stream
        .iter()
        .enumerate()
        .map(|(id, (ready, exec))| {
            sim.launch(*ready, exec, &xfers, SegmentKind::Decode, id as u64)
                .finish
        })
        .collect();
    let drained = sim.drained_at();
    (finishes, drained)
}

proptest! {
    #[test]
    fn fifo_completion_order(stream in arb_stream(4), xfer in 0.0f64..0.01) {
        for mode in [TransferMode::Async, TransferMode::Blocking, TransferMode::Rendezvous] {
            let (finishes, drained) = run_mode(mode, 4, &stream, xfer);
            for w in finishes.windows(2) {
                prop_assert!(w[1] >= w[0], "{mode:?}: completions out of order");
            }
            // The pipeline drains no earlier than the last completion.
            prop_assert!(drained + 1e-12 >= *finishes.last().unwrap());
        }
    }

    #[test]
    fn job_latency_lower_bound(stream in arb_stream(3), xfer in 0.0f64..0.01) {
        // No job can finish before its ready time plus its own work.
        let (finishes, _) = run_mode(TransferMode::Async, 3, &stream, xfer);
        for ((ready, exec), finish) in stream.iter().zip(&finishes) {
            let own: f64 = exec.iter().sum::<f64>() + 2.0 * xfer;
            prop_assert!(finish + 1e-9 >= ready + own);
        }
    }

    #[test]
    fn coupling_orders_makespans(stream in arb_stream(4), xfer in 0.0f64..0.05) {
        // Stronger transfer coupling can only slow the pipeline down:
        // async <= blocking <= rendezvous.
        let (_, a) = run_mode(TransferMode::Async, 4, &stream, xfer);
        let (_, b) = run_mode(TransferMode::Blocking, 4, &stream, xfer);
        let (_, r) = run_mode(TransferMode::Rendezvous, 4, &stream, xfer);
        prop_assert!(a <= b + 1e-9, "async {a} > blocking {b}");
        prop_assert!(b <= r + 1e-9, "blocking {b} > rendezvous {r}");
    }

    #[test]
    fn busy_time_bounded_by_span(stream in arb_stream(3)) {
        let mut sim = PipelineSim::new(3, TransferMode::Async, true);
        for (id, (ready, exec)) in stream.iter().enumerate() {
            sim.launch(*ready, exec, &[0.0, 0.0], SegmentKind::Prefill, id as u64);
        }
        let tl = sim.timeline();
        let span = tl.makespan();
        for d in 0..3 {
            prop_assert!(tl.busy_time(d) <= span + 1e-9);
            // Each stage executes every job exactly once.
            let expect: f64 = stream.iter().map(|(_, e)| e[d as usize]).sum();
            prop_assert!((tl.busy_time(d) - expect).abs() < 1e-9);
        }
        prop_assert!(tl.mean_utilization() <= 1.0 + 1e-9);
    }
}
