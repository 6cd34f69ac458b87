//! What happens when TD-Pipe faces *online* traffic (extension beyond the
//! paper, which is offline-only).
//!
//! Requests arrive as a Poisson process at increasing load. Throughput is
//! fine until saturation, but time-to-first-token is floored by the phase
//! cadence (an arriving prompt waits for the next prefill phase) and
//! explodes near capacity — quantifying why the paper scopes the design
//! to "scenarios without strict latency SLO constraints".
//!
//! ```text
//! cargo run --release --example online_arrivals
//! ```

use tdpipe::baselines::{tdpipe_config, Scheduler};
use tdpipe::core::engine::RunOutcome;
use tdpipe::hw::NodeSpec;
use tdpipe::model::ModelSpec;
use tdpipe::predictor::OraclePredictor;
use tdpipe::workload::{ArrivalProcess, ShareGptLikeConfig, Workload};

fn main() {
    // Every scheduler from its defaults, over one workload description.
    let (model, node) = (ModelSpec::qwen2_5_32b(), NodeSpec::a100(4));
    let run = |s: Scheduler, work: Workload<'_>| -> RunOutcome {
        let td = tdpipe_config(false, false, true);
        s.run(model.clone(), &node, work, &OraclePredictor, td)
            .expect("fits")
    };
    let trace = ShareGptLikeConfig::small(2_000, 42).generate();

    // Offline capacity of this deployment, for calibrating load levels.
    let offline = run(Scheduler::TdPipe, Workload::offline(&trace));
    let capacity_rps =
        offline.report.num_requests as f64 / offline.report.makespan;
    println!(
        "offline capacity: {:.1} requests/s ({:.0} tok/s)\n",
        capacity_rps,
        offline.report.throughput_total()
    );

    println!(
        "{:>6} {:>10} | {:>12} {:>12} {:>8} | {:>12} {:>12}",
        "load", "arrivals/s", "TD TTFT", "TD TTFT p99", "phases", "TP+HB TTFT", "TP+HB p99"
    );

    for load in [0.3, 0.5, 0.7, 0.85, 0.95] {
        let rate = capacity_rps * load;
        let arrivals = ArrivalProcess::Poisson {
            rate_per_s: rate,
            seed: 9,
        }
        .sample(trace.len());
        let online = Workload::Requests {
            trace: &trace,
            arrivals: &arrivals,
        };
        let td = run(Scheduler::TdPipe, online);
        let tl = td.report.latency.expect("all finished");
        let hb = run(Scheduler::TpHb, online);
        let hl = hb.report.latency.expect("all finished");
        println!(
            "{:>5.0}% {:>10.2} | {:>11.1}s {:>11.1}s {:>8} | {:>11.1}s {:>11.1}s",
            load * 100.0,
            rate,
            tl.ttft_mean,
            tl.ttft_p99,
            td.phases.len(),
            hl.ttft_mean,
            hl.ttft_p99,
        );
    }

    println!(
        "\nAt light/moderate load, chunked-prefill TP+HB starts requests almost\n\
         immediately while TD-Pipe's TTFT tail spans whole phase cycles — the\n\
         SLO argument for why the paper scopes TD-Pipe to offline work. Past\n\
         ~85% of TD-Pipe's capacity the tables turn: TP+HB is *already beyond\n\
         its own* (lower) capacity and its queue diverges, while TD-Pipe's\n\
         throughput headroom keeps latency bounded. Note also the phase\n\
         count at light load: a prefill phase opens only once a request has\n\
         arrived, so each holds one or two prompts, far from the long-phase\n\
         batching the design exists for."
    );
}
