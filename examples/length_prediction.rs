//! Train, evaluate and use the output-length predictor (paper §3.3).
//!
//! Walks the full µ-Serve-style pipeline: fit percentile buckets on
//! historical outputs, train the classifier on the 60% split, check
//! single-request accuracy and the accumulated group error on the held-out
//! 20%, and show how Algorithm 1 consumes the predictions.
//!
//! ```text
//! cargo run --release --example length_prediction
//! ```

use tdpipe::core::greedy::GreedyPrefillPlanner;
use tdpipe::core::request::RequestPool;
use tdpipe::predictor::classifier::TrainConfig;
use tdpipe::predictor::{eval, LengthPredictor, OutputLenPredictor};
use tdpipe::workload::{ShareGptLikeConfig, Workload};

fn main() {
    // Historical data at the paper's scale, split 60/20/20.
    let data = ShareGptLikeConfig::default().generate();
    let splits = data.split(3);
    println!(
        "dataset: {} pairs -> train {}, val {}, test {}",
        data.len(),
        splits.train.len(),
        splits.val.len(),
        splits.test.len()
    );

    let predictor = LengthPredictor::train(&splits.train, &TrainConfig::default());
    println!(
        "bucket boundaries (P25/P50/P75/P90/P99): {:?}",
        predictor
            .buckets()
            .bounds()
            .iter()
            .map(|b| *b as u32)
            .collect::<Vec<_>>()
    );

    let acc = eval::accuracy(&predictor, &splits.test);
    println!("single-request bucket accuracy: {acc:.4} (paper: 0.52-0.58)\n");

    println!("accumulated error vs group size (paper Fig. 14):");
    for p in eval::accumulated_error_sweep(&predictor, &splits.test, 256, 9) {
        println!(
            "  {:4} requests: {:6.2}%",
            p.group_size,
            p.mean_relative_error * 100.0
        );
    }

    // How Algorithm 1 uses it: simulate future KV usage while admitting
    // prefills, and stop before the predicted peak overflows.
    println!("\nAlgorithm 1 dry-run (capacity 200k tokens):");
    let test = Workload::offline(&splits.test);
    let pool = RequestPool::for_workload(&test, |r| predictor.predict(r));
    let mut planner =
        GreedyPrefillPlanner::new((1..=32).map(|i| i * 32).collect(), 200_000);
    let mut admitted = 0;
    for i in 0..pool.len() {
        planner.admit(i, pool.prefill_tokens(i) as u64, pool.predicted_remaining(i));
        if planner.would_overflow() {
            break;
        }
        admitted += 1;
    }
    let naive = 200_000
        / (splits.test.total_input_tokens() + splits.test.total_output_tokens())
        .div_euclid(splits.test.len() as u64);
    println!(
        "  admitted {admitted} prefills before predicted-peak overflow \
         (a no-lookahead planner sized on mean totals would stop near {naive})"
    );
}
