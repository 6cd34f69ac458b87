//! Figure 5(a) / §2.2.2: why offloading cannot deliver high-throughput
//! inference on multi-GPU nodes.
//!
//! The paper argues: "several GPUs share the only one channel linked with
//! CPU, and consequently there is serious bandwidth contention on CPU's
//! root complexes when multiple GPUs offload data simultaneously." This
//! binary measures it: KV-offloading replicas scale sub-linearly on a
//! commodity root complex, while TD-Pipe on the same node uses the GPUs'
//! own memory and P2P links and scales cleanly.

use serde::Serialize;
use tdpipe_bench::{num_requests, paper_trace, save_json};
use tdpipe_core::config::EngineConfig;
use tdpipe_core::{TdPipeConfig, TdPipeEngine};
use tdpipe_hw::NodeSpec;
use tdpipe_model::ModelSpec;
use tdpipe_offload::{HostLink, OffloadEngine};
use tdpipe_predictor::OraclePredictor;

#[derive(Serialize)]
struct Row {
    gpus: u32,
    offload_contended: f64,
    offload_uncontended: f64,
    effective_bw_gbps: f64,
    tdpipe: Option<f64>,
}

fn main() {
    let trace = paper_trace();
    let model = ModelSpec::llama2_13b();
    println!(
        "Figure 5(a)/2.2.2 — offloading vs parallelism on an L20 node ({} requests, Llama2-13B)",
        num_requests()
    );
    println!(
        "{:>5} {:>22} {:>22} {:>14} {:>12}",
        "gpus", "offload (contended)", "offload (ideal link)", "eff. PCIe GB/s", "TD-Pipe"
    );

    let engine = OffloadEngine::new(
        model.clone(),
        &NodeSpec::l20(1),
        256 * (1u64 << 30),
        EngineConfig::default(),
    )
    .expect("13B weights fit an L20");
    let contended = HostLink::commodity_gen4();
    let ideal = HostLink::uncontended();

    let mut rows = Vec::new();
    for gpus in [1u32, 2, 4] {
        let c = engine.run_node(&trace, gpus, &contended);
        let u = engine.run_node(&trace, gpus, &ideal);
        let td = TdPipeEngine::new(model.clone(), &NodeSpec::l20(gpus), TdPipeConfig::default())
            .ok()
            .map(|e| e.run(&trace, &OraclePredictor))
            .map(|o| o.report.throughput_total());
        println!(
            "{gpus:>5} {:>15.0} tok/s {:>15.0} tok/s {:>14.1} {:>9.0} tok/s",
            c.throughput_total,
            u.throughput_total,
            c.effective_bw / 1e9,
            td.unwrap_or(f64::NAN)
        );
        rows.push(Row {
            gpus,
            offload_contended: c.throughput_total,
            offload_uncontended: u.throughput_total,
            effective_bw_gbps: c.effective_bw / 1e9,
            tdpipe: td,
        });
    }

    let s_off = rows.last().unwrap().offload_contended / rows[0].offload_contended;
    let s_td = rows.last().unwrap().tdpipe.unwrap() / rows[0].tdpipe.unwrap();
    println!();
    println!(
        "1 -> 4 GPU scaling: offloading {s_off:.2}x (root-complex contention) vs TD-Pipe {s_td:.2}x"
    );
    save_json("fig5_offload_contention.json", &rows);
}
