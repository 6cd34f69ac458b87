//! Closed-loop multi-turn sessions: what session-KV reuse buys.
//!
//! A chat deployment is not an open-loop request firehose: each user's
//! turn *k+1* arrives only after turn *k*'s answer, plus think time, and
//! its prompt carries the whole prior transcript. That shared prefix is
//! exactly what is already sitting in the KV cache when the previous
//! turn finishes — so an engine that retains session KV prefills only
//! the fresh suffix. This example sweeps reuse on vs off over the same
//! session trace at several retention budgets: identical outputs, but
//! reuse removes the resumed turns' shared-prefix tokens from the
//! prefill bill (and with them, prefill-phase pressure).
//!
//! ```text
//! cargo run --release --example sessions
//! ```

use tdpipe::core::{TdPipeConfig, TdPipeEngine};
use tdpipe::hw::NodeSpec;
use tdpipe::model::ModelSpec;
use tdpipe::predictor::OraclePredictor;
use tdpipe::workload::{ArrivalProcess, SessionConfig, Workload};

fn main() {
    let mut sc = SessionConfig::small(600, 42);
    sc.arrival = ArrivalProcess::Poisson {
        rate_per_s: 4.0,
        seed: 9,
    };
    let sessions = sc.generate();
    let turns = sessions.len();
    let resumed = sessions.turns.iter().filter(|t| t.prev.is_some()).count();
    let shared: u64 = sessions
        .turns
        .iter()
        .map(|t| u64::from(t.shared_prefix))
        .sum();
    println!(
        "workload: {} sessions -> {turns} turns ({resumed} resumed, {shared} shared-prefix tokens)\n",
        sessions.num_sessions
    );

    let run = |reuse: bool, retain_frac: f64| {
        let mut cfg = TdPipeConfig::default();
        cfg.engine.session_reuse = reuse;
        cfg.engine.session_retain_frac = retain_frac;
        cfg.engine.record_metrics = true;
        let engine =
            TdPipeEngine::new(ModelSpec::llama2_13b(), &NodeSpec::l20(4), cfg).expect("fits");
        let work = Workload::Sessions(&sessions);
        engine
            .try_run(work, &OraclePredictor, engine.sim_plane())
            .expect("the simulator cannot fail")
    };

    println!(
        "{:>14} | {:>12} {:>12} {:>8} {:>8} | {:>10} {:>10}",
        "cell", "prefill tok", "output tok", "hits", "misses", "makespan", "TTFT p95"
    );
    let cell = |label: &str, reuse: bool, frac: f64| {
        let out = run(reuse, frac);
        let l = out.report.latency.expect("all turns finished");
        let scalar = |n: &str| out.metrics.scalar(n).unwrap_or(0.0);
        println!(
            "{label:>14} | {:>12} {:>12} {:>8} {:>8} | {:>9.1}s {:>9.1}s",
            out.report.input_tokens,
            out.report.output_tokens,
            scalar("session_reuse_hits_total"),
            scalar("session_reuse_misses_total"),
            out.report.makespan,
            l.ttft_p95,
        );
        out
    };

    let off = cell("reuse off", false, 0.0);
    let on = cell("reuse 50%", true, 0.5);
    cell("reuse 2%", true, 0.02);
    cell("reuse 0.5%", true, 0.005);

    assert_eq!(
        off.report.output_tokens, on.report.output_tokens,
        "reuse must not change what gets generated"
    );
    let saved = off.report.input_tokens - on.report.input_tokens;
    println!(
        "\nSame outputs in every cell; at a 50% retention budget reuse prefilled\n\
         {saved} fewer prompt tokens ({:.0}% of the prefill bill) — the shared\n\
         prefixes of resumed turns whose KV survived the think-time gap. Shrink\n\
         the budget and hits decay into misses: retained prefixes are dropped\n\
         (oldest first) before live admissions are ever starved.",
        100.0 * saved as f64 / off.report.input_tokens as f64,
    );
}
