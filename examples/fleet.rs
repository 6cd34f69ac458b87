//! A heterogeneous replica fleet under increasing offered load.
//!
//! Four TD-Pipe replicas (two L20 nodes, two A100 nodes) serve one
//! Poisson arrival stream behind the deterministic fleet router. At each
//! offered rate the four routing policies compete on *goodput* —
//! SLO-attained completions per second — and TTFT SLO attainment: the
//! load-blind round-robin policy sends the same share to the slow L20s
//! as to the A100s, while the queue- and KV-aware policies shift work
//! toward the bigger hardware and keep more requests inside the SLO.
//!
//! Also demonstrated, because they are the fleet's contract:
//! * serial vs multi-threaded fleet execution is byte-identical, and
//! * a single-replica fleet is bit-identical to a direct engine run.
//!
//! ```text
//! cargo run --release --example fleet
//! ```

use tdpipe::core::{TdPipeConfig, TdPipeEngine};
use tdpipe::fleet::{
    parse_pool, run_fleet_with_threads, FleetConfig, Replica, ReplicaSpec, RouterConfig,
    RouterPolicy, SloSpec,
};
use tdpipe::model::ModelSpec;
use tdpipe::predictor::OraclePredictor;
use tdpipe::workload::{ArrivalProcess, ShareGptLikeConfig, Workload};

fn main() {
    let model = ModelSpec::llama2_13b();
    let replicas: Vec<Replica> = parse_pool("l20:2,a100:2", 2)
        .expect("valid pool")
        .into_iter()
        .map(|(label, node)| {
            Replica::new(ReplicaSpec::td(&label, model.clone(), node)).expect("fits")
        })
        .collect();
    for r in &replicas {
        println!(
            "replica {:<8} {:>9.0} prefill tok/s  {:>7.0} decode tok/s  {:>9} KV tokens",
            r.label(),
            r.prefill_tokens_per_s(),
            r.decode_tokens_per_s(),
            r.kv_capacity_tokens(),
        );
    }

    let trace = ShareGptLikeConfig::small(800, 42).generate();
    let slo = SloSpec { ttft_s: 8.0 };
    println!(
        "\n{} requests, TTFT SLO {:.0}s; goodput = SLO-attained requests/s\n",
        trace.len(),
        slo.ttft_s
    );
    println!(
        "{:>8} | {:>8} {:>7} | {:>8} {:>7} | {:>8} {:>7} | {:>8} {:>7}",
        "offered", "rr", "slo%", "jsq", "slo%", "kv", "slo%", "affine", "slo%"
    );

    for rate in [8.0, 16.0, 32.0, 64.0] {
        let arrivals = ArrivalProcess::Poisson {
            rate_per_s: rate,
            seed: 7,
        }
        .sample(trace.len());
        let workload = Workload::Requests {
            trace: &trace,
            arrivals: &arrivals,
        };
        print!("{rate:>6.0}/s |");
        for policy in RouterPolicy::ALL {
            let cfg = FleetConfig {
                router: RouterConfig {
                    policy,
                    seed: 42,
                    ..RouterConfig::default()
                },
                slo,
            };
            let out = run_fleet_with_threads(&replicas, &workload, &cfg, &OraclePredictor, 4);
            print!(
                " {:>7.2} {:>6.1}% |",
                out.report.goodput,
                out.report.slo_attainment * 100.0
            );
        }
        println!();
    }

    // Contract check 1: the fleet is byte-identical however many host
    // threads execute it.
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s: 16.0,
        seed: 7,
    }
    .sample(trace.len());
    let workload = Workload::Requests {
        trace: &trace,
        arrivals: &arrivals,
    };
    let cfg = FleetConfig {
        router: RouterConfig {
            policy: RouterPolicy::KvPressure,
            seed: 42,
            ..RouterConfig::default()
        },
        slo,
    };
    let serial = run_fleet_with_threads(&replicas, &workload, &cfg, &OraclePredictor, 1);
    let threaded = run_fleet_with_threads(&replicas, &workload, &cfg, &OraclePredictor, 8);
    assert_eq!(
        serde_json::to_string(&serial.report).unwrap(),
        serde_json::to_string(&threaded.report).unwrap(),
    );
    println!("\nserial vs 8-thread fleet report: byte-identical ✓");

    // Contract check 2: one replica behind the router is still exactly
    // the engine.
    let solo: Vec<Replica> = parse_pool("l20:1", 2)
        .unwrap()
        .into_iter()
        .map(|(label, node)| Replica::new(ReplicaSpec::td(&label, model.clone(), node)).unwrap())
        .collect();
    let fleet_one =
        run_fleet_with_threads(&solo, &Workload::offline(&trace), &cfg, &OraclePredictor, 1);
    let direct = TdPipeEngine::new(model, &solo[0].spec().node, TdPipeConfig::default())
        .unwrap()
        .run(&trace, &OraclePredictor);
    assert_eq!(fleet_one.outcomes[0].report, direct.report);
    println!("single-replica fleet vs direct engine: bit-identical ✓");

    println!(
        "\nRound-robin treats an L20 like an A100, and the affine hash is blind\n\
         to queue depth, so at high load their goodput trails. The KV-aware\n\
         policy prices each replica from its own roofline and shifts the\n\
         excess onto the A100s — same hardware, same arrivals, more goodput;\n\
         routing is the whole difference."
    );
}
