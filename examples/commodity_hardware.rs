//! Commodity hardware deployment (§2.2): the paper motivates TD-Pipe for
//! devices like the A10 (24 GB) and RTX 4090 (24 GB) — plentiful, cheap,
//! and NVLink-less, so tensor parallelism pays full PCIe price while
//! pipeline parallelism barely communicates.
//!
//! This example serves Llama2-13B on 4- and 8-GPU commodity boxes and
//! shows where each layout becomes feasible and which scheduler wins.
//!
//! ```text
//! cargo run --release --example commodity_hardware
//! ```

use tdpipe::baselines::TpSbEngine;
use tdpipe::core::config::EngineConfig;
use tdpipe::core::{MemoryPlan, TdPipeConfig, TdPipeEngine};
use tdpipe::hw::NodeSpec;
use tdpipe::model::ModelSpec;
use tdpipe::predictor::OraclePredictor;
use tdpipe::workload::ShareGptLikeConfig;

fn main() {
    let trace = ShareGptLikeConfig::small(2_000, 42).generate();
    let model = ModelSpec::llama2_13b();
    println!(
        "Llama2-13B ({:.0} GB weights) on commodity 24 GB nodes, 2,000 requests\n",
        model.weight_bytes() as f64 / 1e9
    );
    println!(
        "{:<10} {:>5} {:>12} {:>12} {:>12} {:>10}",
        "node", "gpus", "PP capacity", "TD-Pipe", "TP+SB", "TD/TP"
    );

    for (name, node_fn) in [
        ("A10", NodeSpec::a10 as fn(u32) -> NodeSpec),
        ("RTX4090", NodeSpec::rtx4090),
    ] {
        for gpus in [1u32, 2, 4, 8] {
            let node = node_fn(gpus);
            let e = EngineConfig::default();
            let cap = MemoryPlan::pipeline(&model, &node);
            let td = TdPipeEngine::new(model.clone(), &node, TdPipeConfig::default())
                .ok()
                .map(|e| e.run(&trace, &OraclePredictor).report.throughput_total());
            let tp = TpSbEngine::new(model.clone(), &node, e)
                .ok()
                .map(|e| e.run(&trace, &OraclePredictor).report.throughput_total());
            let cap_s = cap
                .map(|c| format!("{} tok", c.token_capacity()))
                .unwrap_or_else(|| "no fit".into());
            let fmt = |v: Option<f64>| {
                v.map(|x| format!("{x:.0} tok/s")).unwrap_or_else(|| "-".into())
            };
            let ratio = match (td, tp) {
                (Some(a), Some(b)) => format!("{:.2}x", a / b),
                _ => "-".into(),
            };
            println!(
                "{name:<10} {gpus:>5} {cap_s:>12} {:>12} {:>12} {ratio:>10}",
                fmt(td),
                fmt(tp)
            );
        }
    }
    println!(
        "\n13B weights (26 GB) overflow one 24 GB card: these boxes *must* parallelise,\n\
         and with PCIe-only fabric the pipeline layout is the one that scales — §2.2's thesis."
    );
}
