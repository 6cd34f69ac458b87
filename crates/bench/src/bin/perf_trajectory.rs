//! Perf trajectory: wall-clock time of the simulator itself on a fixed,
//! canonical cell set, written to `BENCH_hotpath.json` at the repo root.
//!
//! This is not a paper figure — it times how long the *simulator* takes to
//! run, so optimisation PRs have a recorded before/after and accidental
//! slowdowns of the hot paths (allocator `extend`, per-step batch
//! accounting, eviction) are visible in review.
//!
//! The core cell set is {L20+13B, A100+70B} x {PP+SB, TD-Pipe} at 4 GPUs
//! with 2,000 requests (override with `TDPIPE_REQUESTS`). Cells run
//! serially so each measurement is unshared; each cell is re-run
//! `TDPIPE_PERF_REPS` times (default 5) and the minimum is kept.
//!
//! An *online* cell follows: TD-Pipe on L20+13B with the same requests
//! arriving open-loop Poisson at 2 req/s. Phases are short there and
//! switches frequent (several per request), so it times what every phase
//! switch costs rather than the steady decode loop.
//!
//! An *observers-on* cell reruns the offline L20+13B TD-Pipe cell with
//! the journal, timeline and metrics plane recording and exports the
//! Chrome trace, so its gap to `L20+13B/TD-Pipe` is the observers' cost.
//!
//! An *exports* cell takes that observers-on run and times what the CLI
//! does with it: the journal written as JSON and read back, the Chrome
//! trace, the span and bubble reports, and the three validators (span,
//! bubble, Chrome trace). It prices the JSON layer on its own.
//!
//! A *sessions* cell runs TD-Pipe on L20+13B over closed-loop multi-turn
//! sessions (twice as many sessions as requests, session-KV reuse on): every
//! finished turn releases its successor into the pending queue, so it
//! times the release path and the estimate walks that follow releases.
//!
//! A *fleet* cell routes closed-loop sessions arriving at 12/s over four
//! 4-GPU TD-Pipe replicas (two L20, two A100; session-affine, reuse on),
//! as the benchmark's `fleet-sessions` workload does, with the replicas
//! run one after another on one thread: its time is the replicas' summed
//! scheduling cost, where §3.5 decisions and session releases dominate.
//!
//! After those, three *scale* cells time the simulator at 100k
//! and 1M requests (single rep each — they exist to prove the hot path
//! stays linear, not to be tight measurements). Set `TDPIPE_PERF_SCALE=0`
//! to skip them (CI quick mode does).
//!
//! Each cell also records `occupancy_samples`, the Fig. 12 samples its
//! last run kept: a deterministic count, not a time. TD-Pipe keeps them
//! only on the metrics plane, so only the observers-on and exports cells
//! read nonzero; every other cell holds just the occupancy peak.
//!
//! `perf_trajectory --check <path>` validates an existing trajectory file
//! instead of measuring: the schema must parse, every recorded wall time
//! must be finite and positive, every cell but the scale cells must be
//! present, and `occupancy_samples` must be nonzero on exactly the metered
//! cells. CI runs this against the committed `BENCH_hotpath.json` so a
//! hand-edited or truncated file fails fast.
//!
//! Regenerate with:
//! ```text
//! cargo run --release --bin perf_trajectory
//! ```

use serde::Serialize;
use std::time::Instant;
use tdpipe_bench::{run_outcome, Scheduler, PAPER_SEED};
use tdpipe_core::engine::RunOutcome;
use tdpipe_core::{TdPipeConfig, TdPipeEngine};
use tdpipe_fleet::{
    parse_pool, run_fleet_with_threads, FleetConfig, Replica, ReplicaSpec, RouterConfig,
    RouterPolicy,
};
use tdpipe_hw::NodeSpec;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::classifier::TrainConfig;
use tdpipe_predictor::LengthPredictor;
use tdpipe_spans::{
    analyze, bubble_report_json, span_report_json, validate_bubble_report, validate_span_report,
};
use tdpipe_trace::{chrome_trace, validate_chrome_trace, FlightRecorder};
use tdpipe_workload::{ArrivalProcess, SessionConfig, ShareGptLikeConfig, Workload};

/// Every cell a trajectory file holds, the scale cells aside (quick mode
/// skips those). `--check` fails a file that lacks one.
const REQUIRED_CELLS: [&str; 9] = [
    "L20+13B/PP+SB",
    "L20+13B/TD-Pipe",
    "A100+70B/PP+SB",
    "A100+70B/TD-Pipe",
    "L20+13B/TD-Pipe@2rps",
    "L20+13B/TD-Pipe+observers",
    "L20+13B/TD-Pipe+exports",
    "L20+13B/TD-Pipe+sessions",
    "l20:2,a100:2/TD-Pipe+sessions",
];

/// The cells that run with the metrics plane on, and so the only ones that
/// keep Fig. 12's occupancy samples.
const METERED_CELLS: [&str; 2] = ["L20+13B/TD-Pipe+observers", "L20+13B/TD-Pipe+exports"];

/// Wall times (seconds) for the four core cells as committed at the tip of
/// the PR *before* the million-request refactor (arena request storage,
/// incremental Algorithm-1 planning, cohort decode), on the same canonical
/// 2,000-request cell set. Kept so the recorded speedup survives
/// regeneration. Keyed as `"<combo>/<scheduler>"`; the scale cells have no
/// pre-refactor measurement (they did not complete in reasonable time) and
/// report `None`.
fn pre_refactor_baseline(cell: &str) -> Option<f64> {
    match cell {
        "L20+13B/PP+SB" => Some(0.003371404),
        "L20+13B/TD-Pipe" => Some(0.007421013),
        "A100+70B/PP+SB" => Some(0.005588226),
        "A100+70B/TD-Pipe" => Some(0.004216978),
        _ => None,
    }
}

/// Wall times (seconds) of the sessions and fleet cells before §3.5
/// switches were certified from the first batches of a lazy estimate walk
/// and unreleased session turns got their own queue: the same cells at
/// 2,000 requests, best of nine 15-rep runs on a 2-core VM.
const SESSIONS_BEFORE_WALL_S: f64 = 0.059871036;
const FLEET_BEFORE_WALL_S: f64 = 0.07398554;

#[derive(Serialize)]
struct CellTime {
    cell: String,
    gpus: u32,
    requests: usize,
    wall_s: f64,
    baseline_wall_s: Option<f64>,
    speedup_vs_baseline: Option<f64>,
    /// Simulated makespan — constant across refactors; a change here means
    /// the optimisation altered results, not just speed.
    makespan: f64,
    /// Occupancy samples the cell's run kept (summed over fleet replicas).
    occupancy_samples: usize,
}

#[derive(Serialize)]
struct Trajectory {
    generated_by: &'static str,
    requests: usize,
    reps: usize,
    cells: Vec<CellTime>,
    total_wall_s: f64,
    baseline_total_wall_s: Option<f64>,
    speedup_vs_baseline: Option<f64>,
}

fn reps() -> usize {
    std::env::var("TDPIPE_PERF_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
        // A best-of needs at least one measurement; reps=0 would report
        // `min` over nothing (infinite wall times).
        .max(1)
}

fn num_requests() -> usize {
    std::env::var("TDPIPE_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000)
}

fn scale_cells_enabled() -> bool {
    std::env::var("TDPIPE_PERF_SCALE").as_deref() != Ok("0")
}

/// Validate an existing trajectory file without serde-deserialising into
/// the write-side structs (so `--check` also catches wrong *types*, e.g. a
/// string where a number belongs). Works over the vendored `serde::Value`
/// tree directly. Returns the cell count, or a description of the first
/// problem found.
fn check_trajectory(path: &str) -> Result<usize, String> {
    use serde::Value;

    fn field<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
        map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
    fn as_number(v: &Value) -> Option<f64> {
        match v {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }
    fn finite_pos(v: Option<&Value>, what: &str) -> Result<f64, String> {
        let x = v
            .and_then(as_number)
            .ok_or_else(|| format!("{what} is not a number"))?;
        if !x.is_finite() || x <= 0.0 {
            return Err(format!("{what} = {x} is not finite and positive"));
        }
        Ok(x)
    }

    let raw = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc: Value = serde_json::from_str(&raw).map_err(|e| format!("parse {path}: {e}"))?;
    let Value::Map(obj) = &doc else {
        return Err("top level is not an object".into());
    };
    for key in ["generated_by", "requests", "reps", "cells", "total_wall_s"] {
        if field(obj, key).is_none() {
            return Err(format!("missing top-level field `{key}`"));
        }
    }
    let Some(Value::Seq(cells)) = field(obj, "cells") else {
        return Err("`cells` is not an array".into());
    };
    if cells.is_empty() {
        return Err("`cells` is empty".into());
    }
    let mut sum = 0.0f64;
    let mut names = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let Value::Map(c) = cell else {
            return Err(format!("cells[{i}] is not an object"));
        };
        match field(c, "cell") {
            Some(Value::Str(name)) if !name.is_empty() => names.push(name.as_str()),
            Some(Value::Str(_)) => return Err(format!("cells[{i}].cell is empty")),
            _ => return Err(format!("cells[{i}].cell is not a string")),
        }
        sum += finite_pos(field(c, "wall_s"), &format!("cells[{i}].wall_s"))?;
        finite_pos(field(c, "makespan"), &format!("cells[{i}].makespan"))?;
        match field(c, "requests") {
            Some(Value::UInt(r)) if *r > 0 => {}
            _ => return Err(format!("cells[{i}].requests is not a positive integer")),
        }
        let metered = METERED_CELLS.contains(&names[i]);
        match field(c, "occupancy_samples") {
            Some(Value::UInt(n)) if (*n > 0) == metered => {}
            Some(Value::UInt(n)) => {
                let not = if metered { "" } else { "not " };
                return Err(format!(
                    "cells[{i}].occupancy_samples = {n}, but the cell is {not}metered"
                ));
            }
            _ => {
                return Err(format!(
                    "cells[{i}].occupancy_samples is missing or not an integer"
                ))
            }
        }
    }
    if let Some(missing) = REQUIRED_CELLS.iter().find(|r| !names.contains(r)) {
        return Err(format!("cell `{missing}` is missing"));
    }
    let total = finite_pos(field(obj, "total_wall_s"), "total_wall_s")?;
    // The recorded total must actually be the sum of its cells (1e-9
    // relative slack for decimal round-tripping).
    if (total - sum).abs() > 1e-9 * total.max(sum) {
        return Err(format!("total_wall_s = {total} but the cells sum to {sum}"));
    }
    Ok(cells.len())
}

/// Best wall time of `reps` runs of `run`, which returns its makespan and
/// occupancy sample count; those come back from the last run.
fn time_cell<F: FnMut() -> (f64, usize)>(reps: usize, mut run: F) -> (f64, f64, usize) {
    let mut best = f64::INFINITY;
    let mut last = (0.0, 0);
    for _ in 0..reps {
        // analyzer: allow(no-instant-now) — this binary IS the wall-time
        // harness: it measures real scheduler runtime and never feeds a
        // simulated-result report.
        let t0 = Instant::now();
        last = run();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, last.0, last.1)
}

/// A feasible run's makespan and occupancy sample count.
fn measured(run: Option<RunOutcome>) -> (f64, usize) {
    let run = run.expect("canonical cell must be feasible");
    (run.report.makespan, run.occupancy.len())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--check") {
        let path = args.get(2).map(String::as_str).unwrap_or("BENCH_hotpath.json");
        match check_trajectory(path) {
            Ok(n) => println!("{path}: schema OK ({n} cells)"),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let n = num_requests();
    let reps = reps();
    let trace = ShareGptLikeConfig::small(n, PAPER_SEED).generate();
    let hist = ShareGptLikeConfig::small(30_000, 7).generate();
    let splits = hist.split(7);
    let predictor = LengthPredictor::train(&splits.train, &TrainConfig::default());

    let cells: Vec<(&str, ModelSpec, NodeSpec, Scheduler)> = vec![
        (
            "L20+13B",
            ModelSpec::llama2_13b(),
            NodeSpec::l20(4),
            Scheduler::PpSb,
        ),
        (
            "L20+13B",
            ModelSpec::llama2_13b(),
            NodeSpec::l20(4),
            Scheduler::TdPipe,
        ),
        (
            "A100+70B",
            ModelSpec::llama2_70b(),
            NodeSpec::a100(4),
            Scheduler::PpSb,
        ),
        (
            "A100+70B",
            ModelSpec::llama2_70b(),
            NodeSpec::a100(4),
            Scheduler::TdPipe,
        ),
    ];

    println!("perf_trajectory: {n} requests, best of {reps} reps per cell");
    let mut out = Vec::new();
    let mut total = 0.0f64;
    // The headline speedup compares the core cells only — scale cells have
    // no pre-refactor measurement, so folding them into the ratio would
    // understate it.
    let mut core_total = 0.0f64;
    let mut baseline_total = Some(0.0f64);
    for (combo, model, node, sched) in &cells {
        let work = Workload::offline(&trace);
        let (best, makespan, occupancy_samples) = time_cell(reps, || {
            measured(run_outcome(*sched, model, node, work, &predictor))
        });
        let key = format!("{combo}/{}", sched.name());
        let base = pre_refactor_baseline(&key);
        let speedup = base.map(|b| b / best);
        println!(
            "  {key:<18} wall {best:8.3}s{}",
            match speedup {
                Some(s) => format!("  ({s:.2}x vs pre-refactor)"),
                None => String::new(),
            }
        );
        total += best;
        core_total += best;
        baseline_total = match (baseline_total, base) {
            (Some(acc), Some(b)) => Some(acc + b),
            _ => None,
        };
        out.push(CellTime {
            cell: key,
            gpus: 4,
            requests: n,
            wall_s: best,
            baseline_wall_s: base,
            speedup_vs_baseline: speedup,
            makespan,
            occupancy_samples,
        });
    }

    // The online cell: no pre-refactor measurement, so it stays out of the
    // headline ratio like the scale cells.
    let rate = 2.0;
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s: rate,
        seed: PAPER_SEED,
    }
    .sample(trace.len());
    let (model, node, td) = (ModelSpec::llama2_13b(), NodeSpec::l20(4), Scheduler::TdPipe);
    let online = Workload::Requests {
        trace: &trace,
        arrivals: &arrivals,
    };
    let (best, makespan, occupancy_samples) = time_cell(reps, || {
        measured(run_outcome(td, &model, &node, online, &predictor))
    });
    let key = format!("L20+13B/{}@{rate}rps", td.name());
    println!("  {key:<18} wall {best:8.3}s");
    total += best;
    out.push(CellTime {
        cell: key,
        gpus: 4,
        requests: n,
        wall_s: best,
        baseline_wall_s: None,
        speedup_vs_baseline: None,
        makespan,
        occupancy_samples,
    });

    // The observers-on cell: the offline L20+13B TD-Pipe cell with the
    // journal, timeline and metrics plane recording, plus the Chrome-trace
    // export — what `tdpipe-cli run --metrics-out --trace-out` pays.
    // Against `L20+13B/TD-Pipe` it prices the observers.
    let mut observed = TdPipeConfig::default();
    observed.engine.record_trace = true;
    observed.engine.record_timeline = true;
    observed.engine.record_metrics = true;
    let (best, makespan, occupancy_samples) = time_cell(reps, || {
        let run = TdPipeEngine::new(model.clone(), &node, observed.clone())
            .expect("canonical cell must be feasible")
            .run(&trace, &predictor);
        std::hint::black_box(chrome_trace(&run.timeline, &run.journal));
        (run.report.makespan, run.occupancy.len())
    });
    let key = format!("L20+13B/{}+observers", td.name());
    println!("  {key:<18} wall {best:8.3}s");
    total += best;
    out.push(CellTime {
        cell: key,
        gpus: 4,
        requests: n,
        wall_s: best,
        baseline_wall_s: None,
        speedup_vs_baseline: None,
        makespan,
        occupancy_samples,
    });

    // The exports cell: the observers-on run's journal, Chrome trace and
    // span and bubble reports, each written and checked as the CLI's
    // `--journal-out`, `--trace-out`, `span-report` and `bubble-report`
    // do. The run and the span analysis stay outside the timer.
    let run = TdPipeEngine::new(model.clone(), &node, observed.clone())
        .expect("canonical cell must be feasible")
        .run(&trace, &predictor);
    let analysis = analyze(&[("engine".to_string(), &run.journal)]);
    let (best, makespan, occupancy_samples) = time_cell(reps, || {
        let journal = run.journal.to_json();
        let back: FlightRecorder = serde_json::from_str(&journal).expect("journal reads back");
        let chrome = chrome_trace(&run.timeline, &run.journal);
        let spans = span_report_json(&analysis);
        let bubbles = bubble_report_json(&analysis);
        // The span validator may reject the TTFT fold of a few spans (a
        // known f64 defect); its cost is what is timed here.
        let _ = std::hint::black_box(validate_span_report(&spans));
        validate_bubble_report(&bubbles).expect("bubble report validates");
        validate_chrome_trace(&chrome).expect("Chrome trace validates");
        std::hint::black_box(back);
        (run.report.makespan, run.occupancy.len())
    });
    let key = format!("L20+13B/{}+exports", td.name());
    println!("  {key:<18} wall {best:8.3}s");
    total += best;
    out.push(CellTime {
        cell: key,
        gpus: 4,
        requests: n,
        wall_s: best,
        baseline_wall_s: None,
        speedup_vs_baseline: None,
        makespan,
        occupancy_samples,
    });

    // The sessions cell: closed-loop multi-turn sessions with session-KV
    // reuse on (the harness's TD-Pipe config). Its before time stays out
    // of the headline ratio, which compares the core cells only.
    let sessions = SessionConfig::small(2 * n, PAPER_SEED).generate();
    let work = Workload::Sessions(&sessions);
    let (best, makespan, occupancy_samples) = time_cell(reps, || {
        measured(run_outcome(td, &model, &node, work, &predictor))
    });
    let key = format!("L20+13B/{}+sessions", td.name());
    let base = (n == 2_000).then_some(SESSIONS_BEFORE_WALL_S);
    println!("  {key:<18} wall {best:8.3}s");
    total += best;
    out.push(CellTime {
        cell: key,
        gpus: 4,
        requests: sessions.len(),
        wall_s: best,
        baseline_wall_s: base,
        speedup_vs_baseline: base.map(|b| b / best),
        makespan,
        occupancy_samples,
    });

    // The fleet cell: what the benchmark's `fleet-sessions` workload runs,
    // at this file's scale, with the replicas on one thread.
    let mut fleet_sessions = SessionConfig::small(2 * n, PAPER_SEED);
    fleet_sessions.arrival = ArrivalProcess::Poisson {
        rate_per_s: 12.0,
        seed: PAPER_SEED,
    };
    let fleet_sessions = fleet_sessions.generate();
    let pool = "l20:2,a100:2";
    let mut replica_cfg = TdPipeConfig::default();
    replica_cfg.engine.session_reuse = true;
    let replicas: Vec<Replica> = parse_pool(pool, 4)
        .expect("canonical pool parses")
        .into_iter()
        .map(|(label, node)| {
            let spec = ReplicaSpec::new(&label, model.clone(), node, replica_cfg.clone());
            Replica::new(spec).expect("canonical replica must be feasible")
        })
        .collect();
    let fleet_cfg = FleetConfig {
        router: RouterConfig {
            policy: RouterPolicy::SessionAffine,
            seed: PAPER_SEED,
        },
        ..FleetConfig::default()
    };
    let (best, makespan, occupancy_samples) = time_cell(reps, || {
        let work = Workload::Sessions(&fleet_sessions);
        let run = run_fleet_with_threads(&replicas, &work, &fleet_cfg, &predictor, 1);
        let samples = run.outcomes.iter().map(|o| o.occupancy.len()).sum();
        (run.report.makespan, samples)
    });
    let key = format!("{pool}/{}+sessions", td.name());
    let base = (n == 2_000).then_some(FLEET_BEFORE_WALL_S);
    println!("  {key:<18} wall {best:8.3}s");
    total += best;
    out.push(CellTime {
        cell: key,
        gpus: 16,
        requests: fleet_sessions.len(),
        wall_s: best,
        baseline_wall_s: base,
        speedup_vs_baseline: base.map(|b| b / best),
        makespan,
        occupancy_samples,
    });

    if scale_cells_enabled() {
        // Scale cells: prove the hot path stays near-linear up to 1M
        // requests. Single rep (the point is completing, not a tight
        // best-of), trace generated outside the timer so wall_s is pure
        // simulation. Keys carry a `@<requests>` suffix so they never
        // collide with the core 2k cells.
        let scale: Vec<(&str, Scheduler, usize)> = vec![
            ("L20+13B", Scheduler::PpSb, 100_000),
            ("L20+13B", Scheduler::TdPipe, 100_000),
            ("L20+13B", Scheduler::TdPipe, 1_000_000),
        ];
        let (model, node) = (ModelSpec::llama2_13b(), NodeSpec::l20(4));
        for (combo, sched, requests) in scale {
            let big = ShareGptLikeConfig::small(requests, PAPER_SEED).generate();
            let work = Workload::offline(&big);
            let (best, makespan, occupancy_samples) = time_cell(1, || {
                measured(run_outcome(sched, &model, &node, work, &predictor))
            });
            let key = format!("{combo}/{}@{}k", sched.name(), requests / 1000);
            println!("  {key:<18} wall {best:8.3}s");
            total += best;
            out.push(CellTime {
                cell: key,
                gpus: 4,
                requests,
                wall_s: best,
                baseline_wall_s: None,
                speedup_vs_baseline: None,
                makespan,
                occupancy_samples,
            });
        }
    }

    let traj = Trajectory {
        generated_by: "cargo run --release --bin perf_trajectory",
        requests: n,
        reps,
        cells: out,
        total_wall_s: total,
        baseline_total_wall_s: baseline_total,
        speedup_vs_baseline: baseline_total.map(|b| b / core_total),
    };
    println!(
        "  total {total:8.3}s{}",
        match traj.speedup_vs_baseline {
            Some(s) => format!("  ({s:.2}x vs pre-refactor)"),
            None => String::new(),
        }
    );

    // The trajectory file lives at the repo root (not results/), next to
    // the other BENCH_* trend files future PRs will add. CI's quick mode
    // redirects it with TDPIPE_BENCH_OUT so it never clobbers the
    // committed trajectory.
    let path = match std::env::var("TDPIPE_BENCH_OUT") {
        Ok(p) => std::path::PathBuf::from(p),
        Err(_) => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_hotpath.json"),
    };
    let file = std::fs::File::create(&path).expect("create BENCH_hotpath.json");
    serde_json::to_writer_pretty(file, &traj).expect("serialise trajectory");
    println!("[saved {}]", path.display());
}
