//! `tdpipe-cli` — run simulated deployments from the command line.
//!
//! ```text
//! tdpipe-cli run   --model 32b --node a100 --gpus 4 --scheduler td --requests 2000
//! tdpipe-cli run   --scheduler td --requests 500 --trace-out run.trace.json
//! tdpipe-cli run   --scheduler td --requests 200 --metrics-out run.metrics.json
//! tdpipe-cli metrics-diff --baseline metrics.baseline.json --current run.metrics.json
//! tdpipe-cli plan  --model 70b --node l20 --gpus 4
//! tdpipe-cli trace --requests 5000 --seed 42
//! tdpipe-cli trace-summary --model 13b --requests 500
//! tdpipe-cli validate-trace --file run.trace.json
//! tdpipe-cli run   --scheduler td --requests 500 --journal-out run.journal.json
//! tdpipe-cli span-report   --journal run.journal.json --out spans.json
//! tdpipe-cli bubble-report --journal run.journal.json.r0,run.journal.json.r1
//! tdpipe-cli sweep --model 13b --node l20 --requests 1000
//! ```
//!
//! Argument parsing is hand-rolled (the workspace deliberately sticks to
//! its small dependency set).

use std::collections::BTreeMap;
use std::process::ExitCode;
use tdpipe::baselines::{BaselineEngine, Batching, Layout};
use tdpipe::core::config::EngineConfig;
use tdpipe::core::engine::RunOutcome;
use tdpipe::core::{TdPipeConfig, TdPipeEngine};
use tdpipe::fleet::{
    parse_pool, run_fleet, FleetConfig, FleetOutcome, FleetWorkload, Replica, ReplicaSpec,
    RouterConfig, RouterPolicy, SloSpec,
};
use tdpipe::hw::NodeSpec;
use tdpipe::metrics::{default_rules, diff_snapshots, to_prom, MetricsSnapshot};
use tdpipe::model::ModelSpec;
use tdpipe::predictor::classifier::TrainConfig;
use tdpipe::predictor::eval::ConfusionMatrix;
use tdpipe::predictor::{LengthPredictor, OraclePredictor, OutputLenPredictor};
use tdpipe::spans::{
    analyze, bubble_report_json, bubble_table, span_chrome_trace, span_metrics, span_report_json,
    span_table, validate_bubble_report, validate_span_report,
};
use tdpipe::trace::{chrome_trace, decision_table, validate_chrome_trace, FlightRecorder};
use tdpipe::workload::{
    ArrivalProcess, SessionConfig, SessionTrace, ShareGptLikeConfig, Trace, TraceStats,
};

const USAGE: &str = "\
tdpipe-cli — TD-Pipe simulation driver

USAGE:
  tdpipe-cli run   [--model 13b|32b|70b|30b] [--node l20|a100] [--gpus N]
                   [--scheduler td|tp-sb|tp-hb|pp-sb|pp-hb]
                   [--requests N] [--seed S] [--predictor oracle|trained]
                   [--arrival offline|poisson|waves|diurnal|bursty] [--rate R]
                   [--sessions N] [--reuse on|off]
                                        (closed-loop multi-turn serving, td only)
                   [--replicas N] [--pool l20:2,a100:2]
                   [--router rr|jsq|kv|affine] [--slo-ttft S]
                                        (fleet mode: route the workload across a
                                         replica pool, td only; --pool overrides
                                         --replicas/--node; trace export writes
                                         one PATH.rI file per replica)
                   [--trace-out PATH]   (td only: Chrome-trace JSON export)
                   [--journal-out PATH] (td only: raw flight-recorder journal,
                                         JSON; fleet mode writes PATH.rI per
                                         replica — feed these to span-report /
                                         bubble-report)
                   [--metrics-out PATH] (metrics snapshot, JSON)
                   [--prom-out PATH]    (metrics snapshot, Prometheus text)
  tdpipe-cli metrics-diff --baseline PATH --current PATH [--threshold T]
                   (exit 1 when a gated metric regressed beyond tolerance)
  tdpipe-cli span-report   --journal PATH[,PATH...] [--labels L0,L1,...]
                           [--out PATH] [--chrome-out PATH]
                         | --check PATH  (validate a report; exit 1 on malformed)
  tdpipe-cli bubble-report --journal PATH[,PATH...] [--labels L0,L1,...]
                           [--out PATH]
                         | --check PATH  (validate a report; exit 1 on malformed)
  tdpipe-cli plan  [--model ...] [--node ...] [--gpus N]
  tdpipe-cli trace [--requests N] [--seed S]
  tdpipe-cli trace-summary  [--model ...] [--node ...] [--gpus N]
                            [--requests N] [--seed S]
                            [--journal PATH[,PATH...]] [--labels L0,L1,...]
                                        (summarize saved journals — one decision
                                         table per replica, merged totals)
  tdpipe-cli validate-trace --file PATH[,PATH...]
  tdpipe-cli sweep [--model ...] [--node ...] [--gpus N] [--requests N]

Defaults: --model 13b --node l20 --gpus 4 --scheduler td --requests 1000
          --seed 42 --predictor oracle --arrival offline --rate 8 --reuse on
          --router jsq --slo-ttft 10
";

struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument '{a}'"));
            };
            let val = it
                .next()
                .ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), val.clone());
        }
        Ok(Args(map))
    }

    fn get(&self, key: &str, default: &str) -> String {
        self.0.get(key).cloned().unwrap_or_else(|| default.into())
    }

    fn opt(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad number '{v}'")),
        }
    }

    fn f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => match v.parse::<f64>() {
                Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
                _ => Err(format!("--{key}: need a positive number, got '{v}'")),
            },
        }
    }
}

/// Arrival-process lookup for `run --arrival`. The non-rate shape
/// parameters are fixed, reasonable defaults; `--rate` scales the load.
///
/// Rejects a non-positive or non-finite rate for every rate-driven
/// process up front: the samplers would otherwise assert deep inside
/// `sample()` (or, for `waves`, silently ignore the bogus value), which
/// surfaces as a panic instead of a usable CLI error.
fn arrival_of(kind: &str, rate: f64, seed: u64) -> Result<ArrivalProcess, String> {
    if kind != "offline" && kind != "waves" && !(rate.is_finite() && rate > 0.0) {
        return Err(format!(
            "--rate: need a positive finite arrival rate for --arrival {kind}, got '{rate}'"
        ));
    }
    Ok(match kind {
        "offline" => ArrivalProcess::Offline,
        "poisson" => ArrivalProcess::Poisson {
            rate_per_s: rate,
            seed,
        },
        "waves" => ArrivalProcess::Waves {
            waves: 4,
            interval_s: 30.0,
        },
        "diurnal" => ArrivalProcess::Diurnal {
            rate_per_s: rate,
            amplitude: 0.8,
            period_s: 300.0,
            seed,
        },
        "bursty" => ArrivalProcess::Bursty {
            rate_per_s: rate,
            burst_factor: 8.0,
            mean_calm_s: 20.0,
            mean_burst_s: 2.0,
            seed,
        },
        other => {
            return Err(format!(
                "unknown arrival process '{other}' (offline|poisson|waves|diurnal|bursty)"
            ))
        }
    })
}

fn model_of(name: &str) -> Result<ModelSpec, String> {
    Ok(match name {
        "13b" => ModelSpec::llama2_13b(),
        "32b" => ModelSpec::qwen2_5_32b(),
        "70b" => ModelSpec::llama2_70b(),
        "30b" => ModelSpec::llama_30b(),
        other => return Err(format!("unknown model '{other}' (13b|32b|70b|30b)")),
    })
}

fn node_of(name: &str, gpus: u32) -> Result<NodeSpec, String> {
    Ok(match name {
        "l20" => NodeSpec::l20(gpus),
        "a100" => NodeSpec::a100(gpus),
        other => return Err(format!("unknown node '{other}' (l20|a100)")),
    })
}

/// TD-Pipe's own configuration (`TdPipeConfig::default()`: async
/// transfers, no sequence cap) with only the observer and session
/// switches set. Starting from `EngineConfig::default()` instead would
/// hand TD-Pipe the baselines' conventional-engine settings.
fn td_config(metrics: bool, trace: bool, timeline: bool, session_reuse: bool) -> TdPipeConfig {
    let mut cfg = TdPipeConfig::default();
    let e = &mut cfg.engine;
    e.record_metrics = metrics;
    e.record_trace = trace;
    e.record_timeline = timeline;
    e.session_reuse = session_reuse;
    cfg
}

/// A `--scheduler` baseline name (`tp-sb`, …, `pp-hb`) as its layout ×
/// batching cell.
fn baseline_of(name: &str) -> Option<(Layout, Batching)> {
    let (l, b) = name.split_once('-')?;
    let layout = Layout::ALL
        .into_iter()
        .find(|x| x.abbrev().eq_ignore_ascii_case(l))?;
    let batching = Batching::ALL
        .into_iter()
        .find(|x| x.abbrev().eq_ignore_ascii_case(b))?;
    Some((layout, batching))
}

/// One engine run over a request workload: a baseline cell, or TD-Pipe
/// from its own defaults. `record` switches TD-Pipe's (pure-observer,
/// schedule-neutral) flight recorder and timeline on; the baselines keep
/// neither.
#[allow(clippy::too_many_arguments)]
fn run_one(
    scheduler: &str,
    model: &ModelSpec,
    node: &NodeSpec,
    trace: &Trace,
    arrivals: &[f64],
    predictor: &dyn OutputLenPredictor,
    record_metrics: bool,
    record: bool,
) -> Result<RunOutcome, String> {
    let feasibility = |e: tdpipe::core::engine::InfeasibleConfig| e.to_string();
    match baseline_of(scheduler) {
        Some((layout, batching)) => {
            let cfg = EngineConfig {
                record_metrics,
                ..EngineConfig::default()
            };
            Ok(BaselineEngine::new(layout, batching, model.clone(), node, cfg)
                .map_err(feasibility)?
                .run_with_arrivals(trace, arrivals, predictor))
        }
        None if scheduler == "td" => {
            let cfg = td_config(record_metrics, record, record, true);
            Ok(TdPipeEngine::new(model.clone(), node, cfg)
                .map_err(feasibility)?
                .run_with_arrivals(trace, arrivals, predictor))
        }
        None => Err(format!("unknown scheduler '{scheduler}'")),
    }
}

/// Fold the span/bubble analysis of one or more journals into a run's
/// metrics snapshot (the `bubble_seconds` gate `metrics-diff` rides on).
/// No-op when the journals are disabled — a run without the flight
/// recorder has nothing to attribute.
fn merge_span_metrics(
    metrics: MetricsSnapshot,
    journals: &[(&str, &FlightRecorder)],
) -> MetricsSnapshot {
    if metrics.is_empty() || journals.iter().all(|(_, j)| !j.is_enabled()) {
        return metrics;
    }
    let labelled: Vec<(String, &FlightRecorder)> = journals
        .iter()
        .map(|(l, j)| (l.to_string(), *j))
        .collect();
    metrics.merged(span_metrics(&analyze(&labelled)))
}

/// Parse `--journal a,b,c` (+ optional `--labels x,y,z`) into labelled
/// flight recorders. Labels default to `engine` for one journal and
/// `r0..rN-1` for a fleet set (matching the `--journal-out PATH.rI`
/// naming).
fn load_journals(
    paths_arg: &str,
    labels_arg: Option<&str>,
) -> Result<(Vec<String>, Vec<FlightRecorder>), String> {
    let paths: Vec<&str> = paths_arg.split(',').filter(|s| !s.is_empty()).collect();
    if paths.is_empty() {
        return Err("--journal: need at least one path".into());
    }
    let labels: Vec<String> = match labels_arg {
        Some(l) => {
            let ls: Vec<String> = l
                .split(',')
                .filter(|s| !s.is_empty())
                .map(String::from)
                .collect();
            if ls.len() != paths.len() {
                return Err(format!(
                    "--labels: {} label(s) for {} journal(s)",
                    ls.len(),
                    paths.len()
                ));
            }
            ls
        }
        None if paths.len() == 1 => vec!["engine".to_string()],
        None => (0..paths.len()).map(|i| format!("r{i}")).collect(),
    };
    let mut recorders = Vec::with_capacity(paths.len());
    for p in &paths {
        let json = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        recorders
            .push(serde_json::from_str(&json).map_err(|e| format!("{p}: bad journal: {e}"))?);
    }
    Ok((labels, recorders))
}

/// `run --sessions N`: a closed-loop multi-turn session run on the
/// TD-Pipe scheduler, with session-KV reuse controlled by `--reuse`.
fn run_sessions_cmd(
    sessions: &SessionTrace,
    reuse: bool,
    model: &ModelSpec,
    node: &NodeSpec,
    predictor: &dyn OutputLenPredictor,
    record_metrics: bool,
    record: bool,
) -> Result<RunOutcome, String> {
    let cfg = td_config(record_metrics, record, record, reuse);
    let out = TdPipeEngine::new(model.clone(), node, cfg)
        .map_err(|e| e.to_string())?
        .run_sessions(sessions, predictor);
    println!(
        "sessions: {} sessions -> {} turns, reuse {}",
        sessions.num_sessions,
        sessions.len(),
        if reuse { "on" } else { "off" }
    );
    Ok(out)
}

/// `run --replicas/--pool/--router`: route one workload across a replica
/// pool with the seeded fleet router and aggregate a cluster report.
#[allow(clippy::too_many_arguments)]
fn run_fleet_cmd(
    pool_spec: &str,
    gpus: u32,
    router: &str,
    slo_ttft: f64,
    model: &ModelSpec,
    seed: u64,
    workload: &FleetWorkload<'_>,
    predictor: &(dyn OutputLenPredictor + Sync),
    want_metrics: bool,
    reuse: bool,
    trace_out: Option<&str>,
    journal_out: Option<&str>,
) -> Result<FleetOutcome, String> {
    let policy = RouterPolicy::parse(router)?;
    let record = want_metrics || trace_out.is_some() || journal_out.is_some();
    let td = td_config(want_metrics, record, record, reuse);
    let pool = parse_pool(pool_spec, gpus)?;
    let labels: Vec<String> = pool.iter().map(|(label, _)| label.clone()).collect();
    let replicas: Vec<Replica> = pool
        .into_iter()
        .map(|(label, node)| {
            Replica::new(ReplicaSpec::new(&label, model.clone(), node, td.clone()))
                .map_err(|e| format!("replica {label}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let cfg = FleetConfig {
        router: RouterConfig {
            policy,
            seed: seed ^ 0xF1EE7,
            ..RouterConfig::default()
        },
        slo: SloSpec { ttft_s: slo_ttft },
    };
    let mut outcome = run_fleet(&replicas, workload, &cfg, predictor);
    if let Some(path) = trace_out {
        for (i, out) in outcome.outcomes.iter().enumerate() {
            let p = format!("{path}.r{i}");
            std::fs::write(&p, chrome_trace(&out.timeline, &out.journal))
                .map_err(|e| format!("--trace-out {p}: {e}"))?;
        }
        println!(
            "trace: {} per-replica Chrome traces -> {path}.r0..r{}",
            outcome.outcomes.len(),
            outcome.outcomes.len() - 1
        );
    }
    if let Some(path) = journal_out {
        for (i, out) in outcome.outcomes.iter().enumerate() {
            let p = format!("{path}.r{i}");
            std::fs::write(&p, out.journal.to_json())
                .map_err(|e| format!("--journal-out {p}: {e}"))?;
        }
        println!(
            "journal: {} per-replica journals -> {path}.r0..r{}",
            outcome.outcomes.len(),
            outcome.outcomes.len() - 1
        );
    }
    let journals: Vec<(&str, &FlightRecorder)> = labels
        .iter()
        .map(String::as_str)
        .zip(outcome.outcomes.iter().map(|o| &o.journal))
        .collect();
    outcome.metrics = merge_span_metrics(outcome.metrics, &journals);
    Ok(outcome)
}

/// Write the metrics snapshot to `--metrics-out` (JSON) and/or
/// `--prom-out` (Prometheus text), shared by the single-engine and fleet
/// run paths.
fn write_metrics_outputs(
    metrics: &MetricsSnapshot,
    metrics_out: Option<&str>,
    prom_out: Option<&str>,
) -> Result<(), String> {
    if let Some(path) = metrics_out {
        let json = serde_json::to_string(metrics).map_err(|e| e.to_string())?;
        std::fs::write(path, &json).map_err(|e| format!("--metrics-out {path}: {e}"))?;
        println!(
            "metrics: {} metrics + {} series -> {path}",
            metrics.metrics.len(),
            metrics.series.len()
        );
    }
    if let Some(path) = prom_out {
        std::fs::write(path, to_prom(metrics)).map_err(|e| format!("--prom-out {path}: {e}"))?;
        println!("prom: {} metric families -> {path}", {
            let mut names: Vec<&str> = metrics.metrics.iter().map(|m| m.name.as_str()).collect();
            names.dedup();
            names.len()
        });
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn real_main(argv: &[String]) -> Result<ExitCode, String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err("missing command".into());
    };
    let args = Args::parse(rest)?;
    let model = model_of(&args.get("model", "13b"))?;
    let gpus = args.usize("gpus", 4)?;
    let gpus = u32::try_from(gpus)
        .ok()
        .filter(|&g| g > 0)
        .ok_or_else(|| format!("--gpus: need 1..={}, got {gpus}", u32::MAX))?;
    let node = node_of(&args.get("node", "l20"), gpus)?;
    let requests = args.usize("requests", 1000)?;
    let seed = args.usize("seed", 42)? as u64;

    match cmd.as_str() {
        "run" => {
            let trace = ShareGptLikeConfig::small(requests, seed).generate();
            let trained: Option<LengthPredictor> = match args.get("predictor", "oracle").as_str() {
                "oracle" => None,
                "trained" => {
                    eprintln!("training length predictor on historical trace...");
                    let hist = ShareGptLikeConfig::small(30_000, seed ^ 0xABCD).generate();
                    Some(LengthPredictor::train(
                        &hist.split(7).train,
                        &TrainConfig::default(),
                    ))
                }
                other => return Err(format!("unknown predictor '{other}'")),
            };
            // `+ Sync` so the fleet path can fan replicas out across
            // threads; it coerces to plain `&dyn OutputLenPredictor` at
            // every single-engine call site.
            let predictor: &(dyn OutputLenPredictor + Sync) = match &trained {
                Some(p) => p,
                None => &OraclePredictor,
            };
            let scheduler = args.get("scheduler", "td");
            let metrics_out = args.opt("metrics-out");
            let prom_out = args.opt("prom-out");
            let want_metrics = metrics_out.is_some() || prom_out.is_some();
            let arrival_kind = args.get("arrival", "offline");
            let rate = args.f64("rate", 8.0)?;
            let arrival = arrival_of(&arrival_kind, rate, seed ^ 0xA881)?;
            let reuse = match args.get("reuse", "on").as_str() {
                "on" => true,
                "off" => false,
                other => return Err(format!("--reuse: 'on' or 'off', got '{other}'")),
            };
            let sessions = match args.opt("sessions") {
                Some(ns) => {
                    let num_sessions: usize = ns
                        .parse()
                        .map_err(|_| format!("--sessions: bad number '{ns}'"))?;
                    if num_sessions == 0 {
                        return Err("--sessions: need at least one session".into());
                    }
                    let mut sc = SessionConfig::small(num_sessions, seed);
                    sc.arrival = arrival;
                    Some(sc.generate())
                }
                None => None,
            };
            let arrivals = match arrival {
                ArrivalProcess::Offline => Vec::new(),
                p => p.sample(trace.len()),
            };
            let trace_out = args.opt("trace-out");
            let journal_out = args.opt("journal-out");
            let fleet_mode = ["replicas", "pool", "router"]
                .iter()
                .any(|k| args.opt(k).is_some());
            if fleet_mode {
                if scheduler != "td" {
                    return Err(format!(
                        "fleet mode runs the TD-Pipe scheduler only (got --scheduler {scheduler})"
                    ));
                }
                let num_replicas = args.usize("replicas", 2)?;
                if num_replicas == 0 {
                    return Err("--replicas: need at least one replica".into());
                }
                let node_name = args.get("node", "l20");
                let pool_spec = args.get("pool", &format!("{node_name}:{num_replicas}"));
                let router = args.get("router", "jsq");
                let slo_ttft = args.f64("slo-ttft", 10.0)?;
                let workload = match &sessions {
                    Some(s) => FleetWorkload::Sessions(s),
                    None => FleetWorkload::Requests {
                        trace: &trace,
                        arrivals: &arrivals,
                    },
                };
                let outcome = run_fleet_cmd(
                    &pool_spec,
                    gpus,
                    &router,
                    slo_ttft,
                    &model,
                    seed,
                    &workload,
                    predictor,
                    want_metrics,
                    reuse,
                    trace_out,
                    journal_out,
                )?;
                if let Some(s) = &sessions {
                    println!(
                        "sessions: {} sessions -> {} turns across {} replicas",
                        s.num_sessions,
                        s.len(),
                        outcome.report.num_replicas
                    );
                }
                let metrics = match &trained {
                    Some(p) if want_metrics => outcome
                        .metrics
                        .merged(ConfusionMatrix::compute(p, &trace).to_metrics()),
                    _ => outcome.metrics,
                };
                print!("{}", outcome.report);
                write_metrics_outputs(&metrics, metrics_out, prom_out)?;
                return Ok(ExitCode::SUCCESS);
            }
            // The span/bubble metrics are derived from the journal, so a
            // metrics-recording run switches the recorders on too.
            let traced = trace_out.is_some() || journal_out.is_some();
            let record = want_metrics || traced;
            if scheduler != "td" && (sessions.is_some() || traced) {
                return Err(format!(
                    "--sessions/--trace-out/--journal-out run the TD-Pipe scheduler only \
                     (got --scheduler {scheduler})"
                ));
            }
            let out = match &sessions {
                Some(s) => {
                    run_sessions_cmd(s, reuse, &model, &node, predictor, want_metrics, record)?
                }
                None => run_one(
                    &scheduler,
                    &model,
                    &node,
                    &trace,
                    &arrivals,
                    predictor,
                    want_metrics,
                    record,
                )?,
            };
            if let Some(path) = trace_out {
                std::fs::write(path, chrome_trace(&out.timeline, &out.journal))
                    .map_err(|e| format!("--trace-out {path}: {e}"))?;
                println!(
                    "trace: {} engine events + {} timeline segments -> {path}",
                    out.journal.events().len(),
                    out.timeline.segments().len()
                );
            }
            if let Some(path) = journal_out {
                std::fs::write(path, out.journal.to_json())
                    .map_err(|e| format!("--journal-out {path}: {e}"))?;
                println!("journal: {} event(s) -> {path}", out.journal.len());
            }
            let report = out.report;
            // Fold the span/bubble analysis of the journal and, when a
            // trained predictor steered the run, its per-bucket hit/miss
            // counters into the export.
            let metrics = merge_span_metrics(out.metrics, &[("engine", &out.journal)]);
            let metrics = match &trained {
                Some(p) if want_metrics => {
                    metrics.merged(ConfusionMatrix::compute(p, &trace).to_metrics())
                }
                _ => metrics,
            };
            println!("{report}");
            if let Some(l) = report.latency {
                println!(
                    "latency: TTFT mean {:.1}s p99 {:.1}s | completion p50 {:.1}s p99 {:.1}s",
                    l.ttft_mean, l.ttft_p99, l.completion_p50, l.completion_p99
                );
            }
            write_metrics_outputs(&metrics, metrics_out, prom_out)?;
        }
        "plan" => {
            use tdpipe::core::MemoryPlan;
            println!("model  : {} ({:.1} GB weights)", model.name, model.weight_bytes() as f64 / 1e9);
            println!("node   : {}x {} ({} GB each)", gpus, node.gpu.name, node.gpu.mem_bytes >> 30);
            let e = EngineConfig::default();
            match MemoryPlan::pipeline(&model, &node, e.mem_reserve_bytes) {
                Some(p) => println!(
                    "PP plan: {} KV blocks = {} tokens (binding stage)",
                    p.kv_blocks,
                    p.token_capacity()
                ),
                None => println!(
                    "PP plan: infeasible (more stages than layers, or stage weights overflow)"
                ),
            }
            match MemoryPlan::tensor(&model, &node, e.mem_reserve_bytes) {
                Some(p) => println!(
                    "TP plan: {} KV blocks = {} tokens (pooled)",
                    p.kv_blocks,
                    p.token_capacity()
                ),
                None => println!("TP plan: infeasible (weight shard overflows)"),
            }
        }
        "trace" => {
            let trace = ShareGptLikeConfig::small(requests, seed).generate();
            println!("{}", TraceStats::compute(&trace));
        }
        "trace-summary" => {
            if let Some(jarg) = args.opt("journal") {
                // Fleet mode: one decision table per saved journal,
                // labelled, plus merged totals across the set.
                let (labels, recorders) = load_journals(jarg, args.opt("labels"))?;
                for (label, r) in labels.iter().zip(&recorders) {
                    println!("=== {label}: {} engine event(s) ===", r.events().len());
                    print!("{}", decision_table(r));
                }
                let events: usize = recorders.iter().map(|r| r.events().len()).sum();
                let stage: usize = recorders.iter().map(|r| r.stage_events().len()).sum();
                println!(
                    "merged: {events} engine + {stage} stage event(s) across {} journal(s)",
                    recorders.len()
                );
            } else {
                let trace = ShareGptLikeConfig::small(requests, seed).generate();
                let out = run_one("td", &model, &node, &trace, &[], &OraclePredictor, false, true)?;
                println!("{}", out.report);
                print!("{}", decision_table(&out.journal));
            }
        }
        "validate-trace" => {
            let files = args
                .opt("file")
                .ok_or("validate-trace needs --file PATH[,PATH...]")?;
            let paths: Vec<&str> = files.split(',').filter(|s| !s.is_empty()).collect();
            if paths.is_empty() {
                return Err("validate-trace needs --file PATH[,PATH...]".into());
            }
            let (mut events, mut complete, mut instants, mut tracks) = (0, 0, 0, 0);
            for path in &paths {
                let json =
                    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                let check = validate_chrome_trace(&json)
                    .map_err(|e| format!("{path}: invalid trace: {e}"))?;
                println!(
                    "{path}: ok — {} events ({} complete, {} instant) across {} tracks",
                    check.events, check.complete_events, check.instant_events, check.tracks
                );
                events += check.events;
                complete += check.complete_events;
                instants += check.instant_events;
                tracks += check.tracks;
            }
            if paths.len() > 1 {
                println!(
                    "merged: {} trace(s) — {events} events ({complete} complete, \
                     {instants} instant) across {tracks} tracks",
                    paths.len()
                );
            }
        }
        "span-report" | "bubble-report" => {
            let is_span = cmd == "span-report";
            if let Some(path) = args.opt("check") {
                let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                if is_span {
                    let c =
                        validate_span_report(&json).map_err(|e| format!("{path}: {e}"))?;
                    println!(
                        "{path}: ok — {} span(s) across {} replica(s), {} incomplete",
                        c.spans, c.replicas, c.incomplete
                    );
                } else {
                    let c =
                        validate_bubble_report(&json).map_err(|e| format!("{path}: {e}"))?;
                    println!(
                        "{path}: ok — {} gap(s) on {} device(s) across {} replica(s)",
                        c.gaps, c.devices, c.replicas
                    );
                }
                return Ok(ExitCode::SUCCESS);
            }
            let jarg = args
                .opt("journal")
                .ok_or_else(|| format!("{cmd} needs --journal PATH[,PATH...] or --check PATH"))?;
            let (labels, recorders) = load_journals(jarg, args.opt("labels"))?;
            let pairs: Vec<(String, &FlightRecorder)> =
                labels.into_iter().zip(recorders.iter()).collect();
            let analysis = analyze(&pairs);
            if is_span {
                print!("{}", span_table(&analysis));
                if let Some(out_path) = args.opt("out") {
                    let json = span_report_json(&analysis);
                    // Self-check before writing: a report this CLI emits
                    // must always pass its own validator.
                    validate_span_report(&json)
                        .map_err(|e| format!("generated span report failed validation: {e}"))?;
                    std::fs::write(out_path, &json)
                        .map_err(|e| format!("--out {out_path}: {e}"))?;
                    println!("span report -> {out_path}");
                }
                if let Some(cpath) = args.opt("chrome-out") {
                    let json = span_chrome_trace(&analysis);
                    validate_chrome_trace(&json)
                        .map_err(|e| format!("generated span trace failed validation: {e}"))?;
                    std::fs::write(cpath, &json)
                        .map_err(|e| format!("--chrome-out {cpath}: {e}"))?;
                    println!("span chrome trace -> {cpath}");
                }
            } else {
                print!("{}", bubble_table(&analysis));
                if let Some(out_path) = args.opt("out") {
                    let json = bubble_report_json(&analysis);
                    validate_bubble_report(&json)
                        .map_err(|e| format!("generated bubble report failed validation: {e}"))?;
                    std::fs::write(out_path, &json)
                        .map_err(|e| format!("--out {out_path}: {e}"))?;
                    println!("bubble report -> {out_path}");
                }
            }
        }
        "sweep" => {
            let trace = ShareGptLikeConfig::small(requests, seed).generate();
            for s in ["tp-sb", "tp-hb", "pp-sb", "pp-hb", "td"] {
                match run_one(s, &model, &node, &trace, &[], &OraclePredictor, false, false) {
                    Ok(out) => println!("{}", out.report),
                    Err(e) => println!("{s:<10} {e}"),
                }
            }
        }
        "metrics-diff" => {
            let base_path = args.opt("baseline").ok_or("metrics-diff needs --baseline PATH")?;
            let cur_path = args.opt("current").ok_or("metrics-diff needs --current PATH")?;
            let load = |path: &str| -> Result<MetricsSnapshot, String> {
                let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                serde_json::from_str(&json).map_err(|e| format!("{path}: bad snapshot: {e}"))
            };
            let baseline = load(base_path)?;
            let current = load(cur_path)?;
            let mut rules = default_rules();
            if let Some(t) = args.opt("threshold") {
                let t: f64 = t
                    .parse()
                    .map_err(|_| format!("--threshold: bad number '{t}'"))?;
                if !(t.is_finite() && t >= 0.0) {
                    return Err(format!("--threshold: need a nonnegative tolerance, got {t}"));
                }
                for r in &mut rules {
                    r.rel_tol = t;
                }
            }
            let diff = diff_snapshots(&baseline, &current, &rules);
            for f in &diff.findings {
                let tag = if f.regression {
                    "REGRESSION"
                } else if f.gated {
                    "ok"
                } else {
                    "info"
                };
                println!(
                    "{tag:<10} {:<28} {:>14.4} -> {:>14.4}  ({:+.2}%)",
                    f.metric,
                    f.baseline,
                    f.current,
                    f.rel_change * 100.0
                );
            }
            if diff.regressions > 0 {
                println!("metrics-diff: {} gated metric(s) regressed", diff.regressions);
                return Ok(ExitCode::FAILURE);
            }
            println!("metrics-diff: clean ({} findings)", diff.findings.len());
        }
        other => return Err(format!("unknown command '{other}'")),
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_flags() {
        let a = Args::parse(&args("--model 32b --gpus 8")).unwrap();
        assert_eq!(a.get("model", "13b"), "32b");
        assert_eq!(a.usize("gpus", 4).unwrap(), 8);
        assert_eq!(a.usize("requests", 1000).unwrap(), 1000);
    }

    #[test]
    fn rejects_malformed_flags() {
        assert!(Args::parse(&args("model 32b")).is_err());
        assert!(Args::parse(&args("--gpus")).is_err());
        let a = Args::parse(&args("--gpus eight")).unwrap();
        assert!(a.usize("gpus", 4).is_err());
    }

    #[test]
    fn optional_flags_are_optional() {
        let a = Args::parse(&args("--trace-out /tmp/t.json")).unwrap();
        assert_eq!(a.opt("trace-out"), Some("/tmp/t.json"));
        assert_eq!(a.opt("file"), None);
    }

    #[test]
    fn traced_run_exports_a_valid_chrome_trace() {
        let trace = ShareGptLikeConfig::small(24, 3).generate();
        let model = model_of("13b").unwrap();
        let node = node_of("l20", 2).unwrap();
        let out = run_one("td", &model, &node, &trace, &[], &OraclePredictor, false, true).unwrap();
        assert!(!out.journal.is_empty(), "recorder was on");
        assert!(!out.timeline.segments().is_empty(), "timeline was on");
        let check = validate_chrome_trace(&chrome_trace(&out.timeline, &out.journal)).unwrap();
        assert_eq!(check.complete_events, out.timeline.segments().len());
        assert_eq!(check.instant_events, out.journal.events().len());
        assert!(
            !out.journal.stage_events().is_empty(),
            "stage busy/idle events derived from the timeline"
        );
        // The decision table renders a header plus one row per phase.
        let table = decision_table(&out.journal);
        assert!(table.lines().count() >= 1 + out.report.phase_switches as usize);
    }

    /// A traced run is the same run with its recorders on: under Poisson
    /// arrivals, `--journal-out` reports the makespan and phase switches of
    /// the untraced run, and its journal records the idle waits for
    /// arrivals.
    #[test]
    fn traced_poisson_run_matches_the_untraced_run() {
        let dir = std::env::temp_dir().join("tdpipe-cli-traced-poisson-test");
        std::fs::create_dir_all(&dir).unwrap();
        let (j, m) = (dir.join("run.journal.json"), dir.join("run.metrics.json"));
        let code = real_main(&args(&format!(
            "run --requests 200 --arrival poisson --rate 2 --journal-out {} --metrics-out {}",
            j.display(),
            m.display()
        )))
        .unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
        let trace = ShareGptLikeConfig::small(200, 42).generate();
        let arrivals = arrival_of("poisson", 2.0, 42 ^ 0xA881).unwrap().sample(trace.len());
        let (model, node) = (model_of("13b").unwrap(), node_of("l20", 4).unwrap());
        let untraced =
            run_one("td", &model, &node, &trace, &arrivals, &OraclePredictor, false, false)
                .unwrap()
                .report;
        let metrics: MetricsSnapshot =
            serde_json::from_str(&std::fs::read_to_string(&m).unwrap()).unwrap();
        assert_eq!(metrics.scalar("makespan"), Some(untraced.makespan));
        let switches = metrics.scalar("phase_switches");
        assert_eq!(switches, Some(untraced.phase_switches as f64));
        let journal: FlightRecorder =
            serde_json::from_str(&std::fs::read_to_string(&j).unwrap()).unwrap();
        assert!(journal
            .events()
            .iter()
            .any(|e| matches!(e.event, tdpipe::trace::TraceEvent::ArrivalWait { .. })));
    }

    #[test]
    fn model_and_node_lookup() {
        assert_eq!(model_of("70b").unwrap().layers, 80);
        assert!(model_of("420b").is_err());
        assert_eq!(node_of("a100", 2).unwrap().num_gpus, 2);
        assert!(node_of("tpu", 1).is_err());
    }

    #[test]
    fn run_one_dispatches_and_reports_infeasible() {
        let trace = ShareGptLikeConfig::small(12, 1).generate();
        let model = model_of("13b").unwrap();
        let node = node_of("l20", 2).unwrap();
        for s in ["td", "tp-sb", "tp-hb", "pp-sb", "pp-hb"] {
            let out = run_one(s, &model, &node, &trace, &[], &OraclePredictor, true, true).unwrap();
            assert_eq!(out.report.num_requests, 12, "{s}");
            assert!(out.metrics.scalar("throughput_total").is_some(), "{s} exports metrics");
        }
        let magic = run_one("magic", &model, &node, &trace, &[], &OraclePredictor, false, false);
        assert!(magic.is_err());
        let err = run_one(
            "td",
            &model_of("70b").unwrap(),
            &node_of("l20", 1).unwrap(),
            &trace,
            &[],
            &OraclePredictor,
            false,
            false,
        )
        .unwrap_err();
        assert!(err.contains("infeasible"));
    }

    /// `run --scheduler td` runs TD-Pipe as configured by
    /// `TdPipeConfig::default()` — not with the baselines' engine
    /// settings — whether or not the observers are on.
    #[test]
    fn td_run_uses_tdpipe_defaults() {
        let trace = ShareGptLikeConfig::small(60, 42).generate();
        let model = model_of("13b").unwrap();
        let node = node_of("l20", 4).unwrap();
        let direct = TdPipeEngine::new(model.clone(), &node, TdPipeConfig::default())
            .unwrap()
            .run(&trace, &OraclePredictor)
            .report;
        for metrics in [false, true] {
            let out =
                run_one("td", &model, &node, &trace, &[], &OraclePredictor, metrics, metrics);
            assert_eq!(out.unwrap().report, direct, "record_metrics={metrics}");
        }
    }

    #[test]
    fn arrival_lookup_covers_every_kind() {
        for kind in ["offline", "poisson", "waves", "diurnal", "bursty"] {
            let p = arrival_of(kind, 5.0, 7).unwrap();
            let a = p.sample(32);
            assert_eq!(a.len(), 32, "{kind}");
            assert!(a.windows(2).all(|w| w[1] >= w[0]), "{kind} sorted");
        }
        assert!(arrival_of("lunar", 5.0, 7).is_err());
    }

    /// Regression test for the `--rate` validation satellite: a zero,
    /// negative, or NaN rate must come back as a clean CLI error (not an
    /// assert deep inside the sampler), both at the flag-parsing layer and
    /// at `arrival_of` itself (which callers can reach programmatically).
    #[test]
    fn degenerate_rates_are_rejected_with_a_clean_error() {
        for bad in ["0", "-1", "NaN", "inf", "-0.0"] {
            let argv = args(&format!(
                "run --requests 8 --arrival poisson --rate {bad}"
            ));
            let err = real_main(&argv).unwrap_err();
            assert!(err.contains("--rate"), "--rate {bad}: {err}");
        }
        for kind in ["poisson", "diurnal", "bursty"] {
            for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
                let err = arrival_of(kind, bad, 7).unwrap_err();
                assert!(err.contains("--rate"), "{kind} {bad}: {err}");
            }
        }
        // Rate-free kinds stay usable whatever the (ignored) rate value.
        assert!(arrival_of("offline", 0.0, 7).is_ok());
        assert!(arrival_of("waves", -1.0, 7).is_ok());
    }

    #[test]
    fn degenerate_sizes_are_rejected_with_a_clean_error() {
        let too_many = u64::from(u32::MAX) + 1;
        for cmd in [
            "run --requests 8 --gpus 0".to_string(),
            "sweep --requests 8 --gpus 0".to_string(),
            "run --requests 8 --pool l20:1 --gpus 0".to_string(),
            format!("run --requests 8 --gpus {too_many}"),
        ] {
            let err = real_main(&args(&cmd)).unwrap_err();
            assert!(err.contains("--gpus"), "{cmd}: {err}");
        }
        let err = real_main(&args("run --sessions 0")).unwrap_err();
        assert!(err.contains("--sessions"), "--sessions 0: {err}");
        // More GPUs than the model has layers: PP engines are infeasible,
        // not a panic.
        let err = real_main(&args("run --requests 8 --gpus 41")).unwrap_err();
        assert!(err.contains("too few for 41 pipeline stages"), "{err}");
        assert!(real_main(&args("plan --gpus 41")).is_ok());
    }

    #[test]
    fn fleet_run_routes_and_aggregates_across_a_mixed_pool() {
        let trace = ShareGptLikeConfig::small(48, 5).generate();
        let model = model_of("13b").unwrap();
        let arrivals = arrival_of("poisson", 8.0, 5).unwrap().sample(trace.len());
        let outcome = run_fleet_cmd(
            "l20:1,a100:1",
            2,
            "jsq",
            10.0,
            &model,
            5,
            &FleetWorkload::Requests {
                trace: &trace,
                arrivals: &arrivals,
            },
            &OraclePredictor,
            true,
            true,
            None,
            None,
        )
        .unwrap();
        assert_eq!(outcome.report.num_requests, trace.len());
        assert_eq!(outcome.report.num_replicas, 2);
        assert_eq!(outcome.report.policy, "jsq");
        assert!(outcome.metrics.scalar("fleet_requests_total").is_some());
        // Bad router/pool specs surface as clean CLI errors.
        let bad = |pool: &str, router: &str| {
            run_fleet_cmd(
                pool,
                2,
                router,
                10.0,
                &model,
                5,
                &FleetWorkload::Requests {
                    trace: &trace,
                    arrivals: &[],
                },
                &OraclePredictor,
                false,
                true,
                None,
                None,
            )
            .unwrap_err()
        };
        assert!(bad("l20:1", "p2c").contains("router"));
        assert!(bad("h100:1", "jsq").contains("--pool"));
    }

    #[test]
    fn fleet_flags_are_validated_in_real_main() {
        let err = real_main(&args("run --requests 8 --replicas 0")).unwrap_err();
        assert!(err.contains("--replicas"), "{err}");
        let err =
            real_main(&args("run --requests 8 --replicas 2 --scheduler tp-sb")).unwrap_err();
        assert!(err.contains("TD-Pipe scheduler only"), "{err}");
    }

    #[test]
    fn session_run_reports_all_turns_and_reuse_cuts_prefill() {
        let model = model_of("13b").unwrap();
        let node = node_of("l20", 2).unwrap();
        let mut sc = SessionConfig::small(16, 3);
        sc.arrival = arrival_of("poisson", 4.0, 3).unwrap();
        let sessions = sc.generate();
        let run = |reuse| {
            let out =
                run_sessions_cmd(&sessions, reuse, &model, &node, &OraclePredictor, true, true)
                    .unwrap();
            let metrics = merge_span_metrics(out.metrics, &[("engine", &out.journal)]);
            (out.report, metrics)
        };
        let (on, m) = run(true);
        let (off, _) = run(false);
        assert_eq!(on.num_requests, off.num_requests);
        assert_eq!(on.output_tokens, off.output_tokens);
        assert!(on.input_tokens <= off.input_tokens);
        assert!(m.scalar("session_reuse_hits_total").is_some());
        // The span/bubble metrics ride along on every metrics-recording
        // run now that the journal backs them.
        assert!(m.scalar("bubble_seconds").is_some());
        assert!(m.scalar("span_requests").is_some());
    }

    #[test]
    fn journal_parsing_defaults_and_label_mismatch() {
        // Count mismatch is a clean error before any file I/O.
        let err = load_journals("a.json,b.json", Some("only-one")).unwrap_err();
        assert!(err.contains("--labels"), "{err}");
        let err = load_journals("", None).unwrap_err();
        assert!(err.contains("--journal"), "{err}");
        // Missing file surfaces with its path.
        let err = load_journals("/nonexistent/x.journal.json", None).unwrap_err();
        assert!(err.contains("/nonexistent/x.journal.json"), "{err}");
    }

    /// End-to-end: `run --journal-out` writes a journal that
    /// `span-report`/`bubble-report` analyze, export, and re-validate —
    /// and both written reports pass their `--check` mode.
    #[test]
    fn journal_out_feeds_span_and_bubble_reports() {
        let dir = std::env::temp_dir().join("tdpipe-cli-span-test");
        std::fs::create_dir_all(&dir).unwrap();
        let j = dir.join("run.journal.json");
        let jp = j.to_str().unwrap();
        let code = real_main(&args(&format!(
            "run --requests 24 --seed 3 --gpus 2 --journal-out {jp}"
        )))
        .unwrap();
        assert_eq!(code, ExitCode::SUCCESS);

        let spans_out = dir.join("spans.json");
        let chrome_out = dir.join("spans.trace.json");
        let code = real_main(&args(&format!(
            "span-report --journal {jp} --out {} --chrome-out {}",
            spans_out.display(),
            chrome_out.display()
        )))
        .unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
        let code = real_main(&args(&format!(
            "span-report --check {}",
            spans_out.display()
        )))
        .unwrap();
        assert_eq!(code, ExitCode::SUCCESS);

        let bubbles_out = dir.join("bubbles.json");
        let code = real_main(&args(&format!(
            "bubble-report --journal {jp} --out {}",
            bubbles_out.display()
        )))
        .unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
        let code = real_main(&args(&format!(
            "bubble-report --check {}",
            bubbles_out.display()
        )))
        .unwrap();
        assert_eq!(code, ExitCode::SUCCESS);

        // A merged two-journal invocation (same journal twice, labelled)
        // exercises the fleet path of both reports.
        let code = real_main(&args(&format!(
            "bubble-report --journal {jp},{jp} --labels a,b"
        )))
        .unwrap();
        assert_eq!(code, ExitCode::SUCCESS);

        // Tampered report JSON must fail --check with a nonzero exit.
        let json = std::fs::read_to_string(&spans_out).unwrap();
        let bad = dir.join("tampered.json");
        std::fs::write(&bad, json.replacen("\"ttft\":", "\"ttft\":1e9,\"x\":", 1)).unwrap();
        let err = real_main(&args(&format!("span-report --check {}", bad.display())));
        assert!(err.is_err(), "tampered span report must fail --check");

        // `trace-summary --journal` renders per-label tables + a merged
        // footer for the same saved journals.
        let code = real_main(&args(&format!(
            "trace-summary --journal {jp},{jp} --labels l20-0,l20-1"
        )))
        .unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
    }

    /// The span-report subcommand without inputs is a usage error, and a
    /// missing journal file surfaces cleanly.
    #[test]
    fn report_subcommands_validate_their_flags() {
        let err = real_main(&args("span-report")).unwrap_err();
        assert!(err.contains("--journal"), "{err}");
        let err = real_main(&args("bubble-report")).unwrap_err();
        assert!(err.contains("--journal"), "{err}");
        let err = real_main(&args("span-report --journal /nonexistent/j.json")).unwrap_err();
        assert!(err.contains("/nonexistent/j.json"), "{err}");
        let err = real_main(&args(
            "run --requests 8 --scheduler tp-sb --journal-out /tmp/x.json",
        ))
        .unwrap_err();
        assert!(err.contains("TD-Pipe scheduler"), "{err}");
    }

    /// Multi-file validate-trace: every per-replica fleet trace validates
    /// individually and the merged totals line appears.
    #[test]
    fn fleet_traces_validate_as_a_set() {
        let dir = std::env::temp_dir().join("tdpipe-cli-fleet-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("fleet.trace.json");
        let bp = base.to_str().unwrap();
        let code = real_main(&args(&format!(
            "run --requests 24 --seed 3 --gpus 2 --replicas 2 --trace-out {bp} --journal-out {bp}.j"
        )))
        .unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
        let code = real_main(&args(&format!(
            "validate-trace --file {bp}.r0,{bp}.r1"
        )))
        .unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
        // And the per-replica journals feed a merged span report.
        let code = real_main(&args(&format!(
            "span-report --journal {bp}.j.r0,{bp}.j.r1"
        )))
        .unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
    }
}
