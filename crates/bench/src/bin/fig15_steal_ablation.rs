//! Figure 15: inter-batch work stealing on/off.
//!
//! Paper targets: enabling stealing improves throughput 1.14× on L20+32B
//! and 1.07× on A100+70B (4 GPUs). The even partition at the
//! prefill→decode switch is kept in both arms; only the dynamic
//! rebalancing during decode is ablated — exactly the paper's setup.

use serde::Serialize;
use tdpipe_bench::{num_requests, paper_trace, save_json};
use tdpipe_core::{TdPipeConfig, TdPipeEngine};
use tdpipe_hw::NodeSpec;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::classifier::TrainConfig;
use tdpipe_predictor::LengthPredictor;
use tdpipe_workload::ShareGptLikeConfig;

#[derive(Serialize)]
struct Arm {
    combo: String,
    stealing: bool,
    throughput_total: f64,
    utilization: f64,
}

fn main() {
    let trace = paper_trace();
    let hist = ShareGptLikeConfig::small(30_000, 7).generate();
    let predictor = LengthPredictor::train(&hist.split(7).train, &TrainConfig::default());

    println!(
        "Figure 15 — inter-batch work stealing ablation ({} requests)",
        num_requests()
    );
    let mut arms = Vec::new();
    for (combo, model, node, paper_gain) in [
        ("L20+32B", ModelSpec::qwen2_5_32b(), NodeSpec::l20(4), 1.14),
        ("A100+70B", ModelSpec::llama2_70b(), NodeSpec::a100(4), 1.07),
    ] {
        let mut tput = [0.0f64; 2];
        for (i, stealing) in [false, true].into_iter().enumerate() {
            let cfg = TdPipeConfig {
                work_stealing: stealing,
                ..TdPipeConfig::default()
            };
            let out = TdPipeEngine::new(model.clone(), &node, cfg)
                .expect("fits")
                .run(&trace, &predictor);
            tput[i] = out.report.throughput_total();
            println!(
                "  {combo} stealing={:5}: {:6.0} tok/s (util {:4.1}%)",
                stealing,
                tput[i],
                out.report.mean_utilization * 100.0
            );
            arms.push(Arm {
                combo: combo.into(),
                stealing,
                throughput_total: tput[i],
                utilization: out.report.mean_utilization,
            });
        }
        println!(
            "  {combo} gain: {:4.2}x (paper {paper_gain}x)",
            tput[1] / tput[0]
        );
    }
    save_json("fig15_steal_ablation.json", &arms);
}
