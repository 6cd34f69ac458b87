//! Figure 13: ablation of the prefill→decode switch — fixed KV-occupancy
//! thresholds vs the AI-based greedy prefill (Algorithm 1).
//!
//! Paper claim: the greedy approach outperforms every manually selected
//! occupancy ratio, on both L20+32B and A100+70B at 4 GPUs.

use serde::Serialize;
use tdpipe_bench::{num_requests, paper_trace, save_json};
use tdpipe_core::{P2dPolicy, TdPipeConfig, TdPipeEngine};
use tdpipe_hw::NodeSpec;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::classifier::TrainConfig;
use tdpipe_predictor::LengthPredictor;
use tdpipe_workload::ShareGptLikeConfig;

#[derive(Serialize)]
struct Point {
    combo: String,
    policy: String,
    throughput_total: f64,
    recompute_overhead: f64,
    phase_switches: u32,
}

fn main() {
    let trace = paper_trace();
    let hist = ShareGptLikeConfig::small(30_000, 7).generate();
    let predictor = LengthPredictor::train(&hist.split(7).train, &TrainConfig::default());

    println!(
        "Figure 13 — prefill->decode switch ablation ({} requests)",
        num_requests()
    );
    let mut points = Vec::new();
    for (combo, model, node) in [
        ("L20+32B", ModelSpec::qwen2_5_32b(), NodeSpec::l20(4)),
        ("A100+70B", ModelSpec::llama2_70b(), NodeSpec::a100(4)),
    ] {
        println!("--- {combo} ---");
        let mut best_fixed = 0.0f64;
        for ratio in [0.3, 0.5, 0.7, 0.8, 0.9, 0.95] {
            let cfg = TdPipeConfig {
                p2d: P2dPolicy::FixedOccupancy(ratio),
                ..TdPipeConfig::default()
            };
            let out = TdPipeEngine::new(model.clone(), &node, cfg)
                .expect("fits")
                .run(&trace, &predictor);
            let tput = out.report.throughput_total();
            best_fixed = best_fixed.max(tput);
            println!(
                "  occupancy {:4.0}% : {:6.0} tok/s  (recompute {:4.1}%, switches {})",
                ratio * 100.0,
                tput,
                out.report.recompute_overhead() * 100.0,
                out.report.phase_switches
            );
            points.push(Point {
                combo: combo.into(),
                policy: format!("occupancy-{ratio}"),
                throughput_total: tput,
                recompute_overhead: out.report.recompute_overhead(),
                phase_switches: out.report.phase_switches,
            });
        }
        let out = TdPipeEngine::new(model.clone(), &node, TdPipeConfig::default())
            .expect("fits")
            .run(&trace, &predictor);
        let greedy = out.report.throughput_total();
        println!(
            "  AI greedy        : {:6.0} tok/s  (recompute {:4.1}%, switches {})  [{:+.1}% vs best fixed]",
            greedy,
            out.report.recompute_overhead() * 100.0,
            out.report.phase_switches,
            (greedy / best_fixed - 1.0) * 100.0
        );
        points.push(Point {
            combo: combo.into(),
            policy: "greedy".into(),
            throughput_total: greedy,
            recompute_overhead: out.report.recompute_overhead(),
            phase_switches: out.report.phase_switches,
        });
    }
    save_json("fig13_p2d_ablation.json", &points);
}
