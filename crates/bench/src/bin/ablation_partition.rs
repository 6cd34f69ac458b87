//! Extension ablation (beyond the paper): LM-head-aware pipeline
//! partitioning.
//!
//! With even layer splits, the last stage carries its layers *plus* the
//! LM head, making it the permanent bottleneck of every decode round.
//! Shaving layers off the last stage rebalances the pipeline. The paper
//! inherits vLLM's even split; this ablation quantifies what the
//! extension buys on each configuration.

use serde::Serialize;
use tdpipe_bench::{num_requests, paper_combos, paper_trace, save_json};
use tdpipe_core::cost::PpCost;
use tdpipe_core::{TdPipeConfig, TdPipeEngine};
use tdpipe_predictor::OraclePredictor;

#[derive(Serialize)]
struct Row {
    combo: String,
    even_tput: f64,
    aware_tput: f64,
    gain: f64,
    even_util: f64,
    aware_util: f64,
    last_stage_layers: u32,
}

fn main() {
    let trace = paper_trace();
    println!(
        "Partition ablation — even vs LM-head-aware splits, 4 GPUs ({} requests)",
        num_requests()
    );
    let mut rows = Vec::new();
    for (combo, model, node_fn) in paper_combos() {
        let node = node_fn(4);
        let run = |cfg| {
            let e = TdPipeEngine::new(model.clone(), &node, cfg).ok()?;
            Some(e.run(&trace, &OraclePredictor))
        };
        let even = run(TdPipeConfig::default());
        let aware = run(TdPipeConfig {
            lm_head_aware_partition: true,
            ..TdPipeConfig::default()
        });
        let (Some(even), Some(aware)) = (even, aware) else {
            continue;
        };
        let partition = PpCost::lm_head_aware_partition(&model, &node, 256);
        let last = partition.stage(3).layer_count;
        let gain = aware.report.throughput_total() / even.report.throughput_total();
        println!(
            "{combo:>9}: even {:6.0} tok/s (util {:4.1}%)  aware {:6.0} tok/s (util {:4.1}%)  gain {:+5.1}%  [last stage {} of {} layers]",
            even.report.throughput_total(),
            even.report.mean_utilization * 100.0,
            aware.report.throughput_total(),
            aware.report.mean_utilization * 100.0,
            (gain - 1.0) * 100.0,
            last,
            model.layers
        );
        rows.push(Row {
            combo: combo.into(),
            even_tput: even.report.throughput_total(),
            aware_tput: aware.report.throughput_total(),
            gain,
            even_util: even.report.mean_utilization,
            aware_util: aware.report.mean_utilization,
            last_stage_layers: last,
        });
    }
    save_json("ablation_partition.json", &rows);
}
