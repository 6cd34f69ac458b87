//! The four workloads: inputs made from the seed, one pass of the program
//! over them, the checks on its outputs, and the metrics a pass yields.
//!
//! A pass runs either plain (the untraced reps behind the end-to-end
//! numbers) or with the layer probes of [`crate::layers`] attached (the
//! traced reps behind the per-layer numbers). Both produce the same
//! report digest, or the pass records a failure.

use crate::layers::{ExecStats, TimedExecutor, Tracer};
use crate::slo::{max_rate_at_slo, Rung};
use crate::stats::fnv1a;
use std::rc::Rc;
use tdpipe::baselines::tp_sb::BaselineOutcome;
use tdpipe::baselines::{PpHbEngine, PpSbEngine, TpHbEngine, TpSbEngine};
use tdpipe::core::engine::RunOutcome;
use tdpipe::core::exec::{PipelineExecutor, SimExecutor};
use tdpipe::core::{EngineConfig, TdPipeConfig, TdPipeEngine};
use tdpipe::fleet::{
    parse_pool, run_fleet_with_threads, FleetConfig, FleetWorkload, Replica, ReplicaSpec,
    RouterConfig, RouterPolicy, SloSpec,
};
use tdpipe::hw::NodeSpec;
use tdpipe::kvcache::Phase;
use tdpipe::metrics::{to_prom, MetricValue, MetricsSnapshot};
use tdpipe::model::ModelSpec;
use tdpipe::predictor::classifier::TrainConfig;
use tdpipe::predictor::eval::ConfusionMatrix;
use tdpipe::predictor::{LengthPredictor, OutputLenPredictor};
use tdpipe::sim::RunReport;
use tdpipe::spans::{
    analyze, bubble_report_json, span_metrics, span_report_json, validate_bubble_report,
    validate_span_report, BubbleCause,
};
use tdpipe::trace::{chrome_trace, validate_chrome_trace, FlightRecorder};
use tdpipe::workload::{ArrivalProcess, SessionConfig, SessionTrace, ShareGptLikeConfig, Trace};

/// Worker threads for the fleet's replicas (the benchmark machine's core
/// count; every other workload is single-threaded).
pub const FLEET_THREADS: usize = 2;

/// The predictor is always trained on the same history, as the figure
/// binaries train it: seed 7, split with seed 7.
const HISTORY_SEED: u64 = 7;

/// Input sizes. [`Sizes::full`] is what the benchmark measures;
/// [`Sizes::tiny`] keeps the unit tests fast.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    pub history_requests: usize,
    pub offline_requests: usize,
    pub online_requests: usize,
    /// Offered Poisson rates, ascending (requests per second).
    pub ladder: Vec<f64>,
    /// The rung whose latencies are the online end-to-end numbers.
    pub reference_rate: f64,
    pub sessions: usize,
    /// Poisson session starts per second.
    pub session_rate: f64,
    /// Prompt plus output tokens of the `observed` trace (see
    /// [`token_budget_trace`]).
    pub observed_tokens: u64,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            history_requests: 30_000,
            offline_requests: 200_000,
            online_requests: 20_000,
            ladder: vec![2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            reference_rate: 2.0,
            sessions: 60_000,
            session_rate: 12.0,
            // About 10,000 requests.
            observed_tokens: 4_500_000,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Sizes {
            history_requests: 2_000,
            offline_requests: 300,
            online_requests: 200,
            ladder: vec![2.0, 6.0],
            reference_rate: 2.0,
            sessions: 40,
            session_rate: 12.0,
            observed_tokens: 90_000,
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    pub metrics: Vec<Metric>,
    /// Requests offered to every scheduler run in the pass.
    pub offered: u64,
    /// Requests those runs completed.
    pub completed: u64,
    /// Output checks performed, and the messages of those that failed.
    pub checks: u64,
    pub failures: Vec<String>,
    /// FNV-1a of every serialized report the pass produced.
    pub digest: u64,
}

impl Pass {
    fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(failure());
        }
    }

    /// Fold a serialized report into the digest.
    fn digest_report<T: serde::Serialize>(&mut self, report: &T) {
        let json = serde_json::to_string(report).unwrap_or_default();
        self.digest = fnv1a(&[self.digest.to_le_bytes().as_slice(), json.as_bytes()].concat());
    }

    /// The end-to-end modelled metrics every workload reports.
    fn put_modelled(&mut self, throughput: f64, latency: Option<&tdpipe::sim::LatencySummary>) {
        self.put("throughput_tok_s", throughput, "tok/s");
        let l = latency.copied();
        let get = |f: fn(&tdpipe::sim::LatencySummary) -> f64| l.as_ref().map_or(f64::NAN, f);
        self.put("ttft_p50_s", get(|l| l.ttft_p50), "s");
        self.put("ttft_p99_s", get(|l| l.ttft_p99), "s");
        self.put("tpot_p50_s", get(|l| l.tpot_p50), "s");
        self.put("tpot_p95_s", get(|l| l.tpot_p95), "s");
    }

    /// `core.run_s`: wall time in the calls that run the TD-Pipe
    /// scheduling loop, from a traced rep's spans named `span`.
    fn put_run_time(&mut self, tr: &Tracer, span: &str) {
        if tr.is_enabled() {
            self.put("core.run_s", tr.total_s(span), "s");
        }
    }

    /// Layers a workload does not touch did no work: no router, no
    /// journal, no exports.
    fn put_unrouted(&mut self) {
        self.put("fleet.spills", 0.0, "count");
        self.put("fleet.assign_imbalance", 1.0, "ratio");
        self.put("fleet.makespan_spread", 1.0, "ratio");
    }

    fn put_unobserved(&mut self) {
        for name in [
            "trace.events",
            "trace.journal_bytes",
            "trace.chrome_bytes",
            "spans.report_bytes",
            "spans.identity_failures",
            "metrics.snapshot_bytes",
        ] {
            let unit = if name.ends_with("_bytes") {
                "bytes"
            } else {
                "count"
            };
            self.put(name, 0.0, unit);
        }
    }
}

/// Inputs and engines for one pass, rebuilt on every rep.
pub struct Setup {
    pub predictor: LengthPredictor,
    /// Held-out split of the predictor's history.
    pub holdout: Trace,
    inputs: Inputs,
}

/// What a pass runs the program with: the predictor and, on traced reps,
/// the execution-plane probe and the span recorder.
#[derive(Clone, Copy)]
pub struct Hooks<'a> {
    pub predictor: &'a (dyn OutputLenPredictor + Sync),
    pub plane: Option<&'a Rc<ExecStats>>,
    pub tr: &'a Tracer,
}

struct TdEngine {
    engine: TdPipeEngine,
    cfg: TdPipeConfig,
}

impl TdEngine {
    fn new(cfg: TdPipeConfig) -> Result<Self, String> {
        let engine = TdPipeEngine::new(ModelSpec::llama2_13b(), &node(), cfg.clone())
            .map_err(|e| e.to_string())?;
        Ok(TdEngine { engine, cfg })
    }

    /// One TD-Pipe run through the fallible entry point, on the plain
    /// simulator or, when `h.plane` is set, on the timing wrapper. The
    /// conservation identities are checked on its report; a failed run
    /// counts its requests as offered and not served.
    fn run(
        &self,
        p: &mut Pass,
        who: &str,
        trace: &Trace,
        arrivals: &[f64],
        h: Hooks,
    ) -> Option<RunOutcome> {
        let e = &self.cfg.engine;
        let sim: Box<dyn PipelineExecutor> = Box::new(SimExecutor::new(
            self.engine.cost().num_stages(),
            e.transfer_mode,
            e.record_timeline,
        ));
        let plane = match h.plane {
            Some(stats) => Box::new(TimedExecutor::new(sim, Rc::clone(stats))),
            None => sim,
        };
        let run = h.tr.span("core.run", || {
            self.engine.try_run_on(trace, arrivals, h.predictor, plane)
        });
        match run {
            Ok(out) => {
                check_conservation(p, who, &out.report, trace);
                Some(out)
            }
            Err(e) => {
                p.offered += trace.len() as u64;
                p.check(false, || format!("{who}: {e}"));
                None
            }
        }
    }
}

// One value per rep, built once and matched once: boxing the larger
// variants would buy nothing.
#[allow(clippy::large_enum_variant)]
enum Inputs {
    Offline {
        trace: Trace,
        td: TdEngine,
        /// `(metric key, engine)` per baseline, in the paper's order.
        baselines: Vec<(&'static str, Box<dyn BaselineRun>)>,
    },
    Online {
        trace: Trace,
        /// `(rate, arrivals)` per ladder rung.
        rungs: Vec<(f64, Vec<f64>)>,
        reference_rate: f64,
        td: TdEngine,
    },
    Fleet {
        sessions: SessionTrace,
        replicas: Vec<Replica>,
        cfg: FleetConfig,
    },
    Observed {
        trace: Trace,
        off: TdEngine,
        on: TdEngine,
    },
}

/// The Fig. 11 cell: Llama2-13B on four L20s.
fn node() -> NodeSpec {
    NodeSpec::l20(4)
}

/// The seed's requests up to the last one that keeps their prompt plus
/// output tokens within `budget`. Output lengths are heavy-tailed, so a
/// fixed request count carries a seed-dependent amount of work (±5% in
/// journal events at 10k requests); a token budget holds it steady.
/// Generation is sequential, so the result is a prefix of the trace any
/// larger request count would give.
pub fn token_budget_trace(seed: u64, budget: u64) -> Trace {
    // Twice the requests the budget needs at the generator's mean of
    // about 450 tokens per request.
    let ample = (budget / 225).max(1) as usize;
    let all = ShareGptLikeConfig::small(ample, seed).generate();
    let mut total = 0u64;
    let n = all
        .requests()
        .iter()
        .take_while(|r| {
            total += r.total_len();
            total <= budget
        })
        .count();
    Trace::new(all.requests()[..n].to_vec())
}

/// Arrival streams use a seed derived from the workload seed, as the CLI
/// derives them.
fn arrival_seed(seed: u64) -> u64 {
    seed ^ 0xA881
}

/// Build one rep's inputs: the seed's trace or sessions, the trained
/// predictor, and the engines. Spans name each stage on traced reps.
pub fn setup(workload: &str, sizes: &Sizes, seed: u64, tr: &Tracer) -> Result<Setup, String> {
    let (predictor, holdout) = tr.span("predictor.train", || {
        let history = ShareGptLikeConfig::small(sizes.history_requests, HISTORY_SEED).generate();
        let splits = history.split(HISTORY_SEED);
        (
            LengthPredictor::train(&splits.train, &TrainConfig::default()),
            splits.test,
        )
    });
    let requests = |n: usize| {
        tr.span("workload.generate", || {
            ShareGptLikeConfig::small(n, seed).generate()
        })
    };
    let inputs = match workload {
        "offline" => {
            let trace = requests(sizes.offline_requests);
            tr.span("engines.build", || -> Result<Inputs, String> {
                let (model, cfg) = (ModelSpec::llama2_13b, EngineConfig::default);
                let infeasible = |e: tdpipe::core::engine::InfeasibleConfig| e.to_string();
                let baselines: Vec<(&'static str, Box<dyn BaselineRun>)> = vec![
                    (
                        "tp_sb",
                        Box::new(TpSbEngine::new(model(), &node(), cfg()).map_err(infeasible)?),
                    ),
                    (
                        "tp_hb",
                        Box::new(TpHbEngine::new(model(), &node(), cfg()).map_err(infeasible)?),
                    ),
                    (
                        "pp_sb",
                        Box::new(PpSbEngine::new(model(), &node(), cfg()).map_err(infeasible)?),
                    ),
                    (
                        "pp_hb",
                        Box::new(PpHbEngine::new(model(), &node(), cfg()).map_err(infeasible)?),
                    ),
                ];
                Ok(Inputs::Offline {
                    td: TdEngine::new(TdPipeConfig::default())?,
                    baselines,
                    trace,
                })
            })?
        }
        "online" => {
            let trace = requests(sizes.online_requests);
            let rungs = tr.span("workload.generate", || {
                sizes
                    .ladder
                    .iter()
                    .map(|&rate| {
                        let p = ArrivalProcess::Poisson {
                            rate_per_s: rate,
                            seed: arrival_seed(seed),
                        };
                        (rate, p.sample(trace.len()))
                    })
                    .collect()
            });
            let td = tr.span("engines.build", || TdEngine::new(TdPipeConfig::default()))?;
            Inputs::Online {
                trace,
                rungs,
                reference_rate: sizes.reference_rate,
                td,
            }
        }
        "fleet-sessions" => {
            let sessions = tr.span("workload.generate", || {
                let mut sc = SessionConfig::small(sizes.sessions, seed);
                sc.arrival = ArrivalProcess::Poisson {
                    rate_per_s: sizes.session_rate,
                    seed: arrival_seed(seed),
                };
                sc.generate()
            });
            let (replicas, cfg) = tr.span("engines.build", || fleet(seed))?;
            Inputs::Fleet {
                sessions,
                replicas,
                cfg,
            }
        }
        "observed" => {
            let trace = tr.span("workload.generate", || {
                token_budget_trace(seed, sizes.observed_tokens)
            });
            let (off, on) = tr.span("engines.build", || -> Result<_, String> {
                let mut observed = TdPipeConfig::default();
                observed.engine.record_trace = true;
                observed.engine.record_timeline = true;
                observed.engine.record_metrics = true;
                Ok((
                    TdEngine::new(TdPipeConfig::default())?,
                    TdEngine::new(observed)?,
                ))
            })?;
            Inputs::Observed { trace, off, on }
        }
        other => return Err(format!("unknown workload '{other}'")),
    };
    Ok(Setup {
        predictor,
        holdout,
        inputs,
    })
}

/// The fleet: Llama2-13B on two 4-GPU L20 and two 4-GPU A100 replicas,
/// session-affine routing, session-KV reuse on, TTFT SLO at the limit.
fn fleet(seed: u64) -> Result<(Vec<Replica>, FleetConfig), String> {
    // Start from TD-Pipe's own defaults (`EngineConfig::default()` would
    // also reset the transfer mode).
    let mut td = TdPipeConfig::default();
    td.engine.session_reuse = true;
    let replicas = parse_pool("l20:2,a100:2", 4)?
        .into_iter()
        .map(|(label, node)| {
            Replica::new(ReplicaSpec::new(
                &label,
                ModelSpec::llama2_13b(),
                node,
                td.clone(),
            ))
            .map_err(|e| format!("replica {label}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let cfg = FleetConfig {
        router: RouterConfig {
            policy: RouterPolicy::SessionAffine,
            seed: seed ^ 0xF1EE7,
            ..RouterConfig::default()
        },
        slo: SloSpec {
            ttft_s: crate::slo::TTFT_P99_LIMIT_S,
        },
    };
    Ok((replicas, cfg))
}

/// Predictor bucket accuracy on the held-out split.
pub fn bucket_accuracy(setup: &Setup) -> f64 {
    ConfusionMatrix::compute(&setup.predictor, &setup.holdout).accuracy()
}

/// One pass of the workload over `setup`'s inputs.
pub fn pass(setup: &Setup, h: Hooks) -> Pass {
    let mut p = Pass::default();
    match &setup.inputs {
        Inputs::Offline {
            trace,
            td,
            baselines,
        } => offline(&mut p, trace, td, baselines, h),
        Inputs::Online {
            trace,
            rungs,
            reference_rate,
            td,
        } => online(&mut p, trace, rungs, *reference_rate, td, h),
        Inputs::Fleet {
            sessions,
            replicas,
            cfg,
        } => fleet_sessions(&mut p, sessions, replicas, cfg, h),
        Inputs::Observed { trace, off, on } => observed(&mut p, trace, off, on, h),
    }
    p
}

/// The identities of `tests/conservation.rs`: every request served once,
/// exactly the trace's prompt and output tokens, a positive makespan and
/// a utilization in (0, 1].
fn check_conservation(p: &mut Pass, who: &str, r: &RunReport, trace: &Trace) {
    p.offered += trace.len() as u64;
    p.completed += r.num_requests.min(trace.len()) as u64;
    p.check(r.num_requests == trace.len(), || {
        format!(
            "{who}: served {} of {} requests",
            r.num_requests,
            trace.len()
        )
    });
    p.check(r.output_tokens == trace.total_output_tokens(), || {
        format!(
            "{who}: {} output tokens, trace has {}",
            r.output_tokens,
            trace.total_output_tokens()
        )
    });
    p.check(r.input_tokens == trace.total_input_tokens(), || {
        format!(
            "{who}: {} prompt tokens, trace has {}",
            r.input_tokens,
            trace.total_input_tokens()
        )
    });
    p.check(r.makespan > 0.0, || {
        format!("{who}: makespan {}", r.makespan)
    });
    p.check(
        r.mean_utilization > 0.0 && r.mean_utilization <= 1.0,
        || format!("{who}: utilization {}", r.mean_utilization),
    );
}

/// Counters of the TD-Pipe scheduling loop, summed over runs.
#[derive(Default)]
struct CoreCounts {
    runs: u64,
    requests: u64,
    output_tokens: u64,
    input_tokens: u64,
    recomputed_tokens: u64,
    phase_switches: u64,
    prefill_admits: u64,
    decode_steps: u64,
    busy_weighted: f64,
    makespan: f64,
    kv_high_water: f64,
}

impl CoreCounts {
    fn add(&mut self, out: &RunOutcome) {
        let r = &out.report;
        self.runs += 1;
        self.requests += r.num_requests as u64;
        self.output_tokens += r.output_tokens;
        self.input_tokens += r.input_tokens;
        self.recomputed_tokens += r.recomputed_tokens;
        self.phase_switches += u64::from(r.phase_switches);
        for ph in &out.phases {
            match ph.phase {
                Phase::Prefill => self.prefill_admits += ph.work_items,
                Phase::Decode => self.decode_steps += ph.work_items,
            }
        }
        self.busy_weighted += r.mean_utilization * r.makespan;
        self.makespan += r.makespan;
        self.kv_high_water = self.kv_high_water.max(out.occupancy.peak());
    }

    fn put(&self, p: &mut Pass) {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        p.put("core.phase_switches", self.phase_switches as f64, "count");
        p.put(
            "core.switches_per_req",
            ratio(self.phase_switches as f64, self.requests as f64),
            "1/req",
        );
        p.put("core.prefill_admits", self.prefill_admits as f64, "count");
        p.put("core.decode_steps", self.decode_steps as f64, "count");
        // Each request's first token comes from its prefill; the rest are
        // generated one per decode batch-step it takes part in.
        p.put(
            "core.decode_batch_mean",
            ratio(
                self.output_tokens.saturating_sub(self.requests) as f64,
                self.decode_steps as f64,
            ),
            "req",
        );
        p.put(
            "sim.bubble_frac",
            1.0 - ratio(self.busy_weighted, self.makespan),
            "fraction",
        );
        p.put(
            "kvcache.recompute_frac",
            ratio(self.recomputed_tokens as f64, self.input_tokens as f64),
            "fraction",
        );
        p.put("kvcache.high_water_frac", self.kv_high_water, "fraction");
    }
}

fn offline(
    p: &mut Pass,
    trace: &Trace,
    td: &TdEngine,
    baselines: &[(&'static str, Box<dyn BaselineRun>)],
    h: Hooks,
) {
    let tr = h.tr;
    p.put("workload.requests", trace.len() as f64, "count");
    let mut core = CoreCounts::default();
    let td_report = td.run(p, "TD-Pipe", trace, &[], h).map(|out| {
        core.add(&out);
        p.digest_report(&out.report);
        out.report
    });
    let mut best_baseline = 0.0f64;
    for (key, engine) in baselines {
        let span = format!("baselines.{key}");
        let out = tr.span(&span, || engine.run_offline(trace, h.predictor));
        check_conservation(p, &out.report.scheduler, &out.report, trace);
        p.digest_report(&out.report);
        let tput = out.report.throughput_total();
        best_baseline = best_baseline.max(tput);
        p.put(&format!("{span}.throughput_tok_s"), tput, "tok/s");
        if tr.is_enabled() {
            p.put(&format!("{span}.run_s"), tr.total_s(&span), "s");
        }
    }
    let tput = td_report.as_ref().map_or(0.0, RunReport::throughput_total);
    p.put_modelled(tput, td_report.as_ref().and_then(|r| r.latency.as_ref()));
    p.put(
        "core.speedup_vs_best_baseline",
        if best_baseline > 0.0 {
            tput / best_baseline
        } else {
            0.0
        },
        "ratio",
    );
    core.put(p);
    p.put_run_time(tr, "core.run");
    p.put("kvcache.prefix_hit_frac", 0.0, "fraction");
    p.put_unrouted();
    p.put_unobserved();
}

/// The four baseline engines behind one call, so the offline pass can
/// loop over them.
pub trait BaselineRun {
    fn run_offline(&self, trace: &Trace, predictor: &dyn OutputLenPredictor) -> BaselineOutcome;
}

macro_rules! baseline_run {
    ($($t:ty),*) => {$(
        impl BaselineRun for $t {
            fn run_offline(&self, trace: &Trace, predictor: &dyn OutputLenPredictor) -> BaselineOutcome {
                self.run(trace, predictor)
            }
        }
    )*};
}
baseline_run!(TpSbEngine, TpHbEngine, PpSbEngine, PpHbEngine);

fn online(
    p: &mut Pass,
    trace: &Trace,
    rungs: &[(f64, Vec<f64>)],
    reference_rate: f64,
    td: &TdEngine,
    h: Hooks,
) {
    p.put("workload.requests", trace.len() as f64, "count");
    let mut core = CoreCounts::default();
    let mut ladder = Vec::with_capacity(rungs.len());
    let mut reference = None;
    for (rate, arrivals) in rungs {
        let who = format!("TD-Pipe @ {rate} req/s");
        let rung = match td.run(p, &who, trace, arrivals, h) {
            Some(out) => {
                core.add(&out);
                let last = arrivals.last().copied().unwrap_or(0.0);
                p.check(out.report.makespan >= last, || {
                    format!(
                        "{who}: makespan {} before the last arrival {last}",
                        out.report.makespan
                    )
                });
                p.digest_report(&out.report);
                if *rate == reference_rate {
                    reference = Some(out.report.clone());
                }
                Rung {
                    rate: *rate,
                    offered: trace.len(),
                    completed: out.report.num_requests,
                    makespan: out.report.makespan,
                    latency: out.report.latency,
                }
            }
            None => Rung {
                rate: *rate,
                offered: trace.len(),
                completed: 0,
                makespan: 0.0,
                latency: None,
            },
        };
        p.put(
            &format!("rung.{rate}.ttft_p99_s"),
            rung.latency.map_or(f64::NAN, |l| l.ttft_p99),
            "s",
        );
        p.put(
            &format!("rung.{rate}.tpot_p95_s"),
            rung.latency.map_or(f64::NAN, |l| l.tpot_p95),
            "s",
        );
        p.put(
            &format!("rung.{rate}.meets_slo"),
            f64::from(u8::from(rung.meets_slo())),
            "bool",
        );
        ladder.push(rung);
    }
    let reference_rung = ladder.iter().find(|r| r.rate == reference_rate);
    p.put_modelled(
        reference.as_ref().map_or(0.0, RunReport::throughput_total),
        reference.as_ref().and_then(|r| r.latency.as_ref()),
    );
    p.put(
        "goodput_req_s",
        reference_rung.map_or(0.0, Rung::goodput),
        "req/s",
    );
    p.put(
        "slo_attainment",
        reference_rung.map_or(0.0, Rung::attainment),
        "fraction",
    );
    p.put("max_rate_at_slo", max_rate_at_slo(&ladder), "req/s");
    core.put(p);
    p.put_run_time(h.tr, "core.run");
    p.put("kvcache.prefix_hit_frac", 0.0, "fraction");
    p.put_unrouted();
    p.put_unobserved();
}

fn fleet_sessions(
    p: &mut Pass,
    sessions: &SessionTrace,
    replicas: &[Replica],
    cfg: &FleetConfig,
    h: Hooks,
) {
    // The fleet builds its replicas' execution planes itself, so
    // `h.plane` cannot reach them.
    let tr = h.tr;
    let out = tr.span("fleet.run", || {
        run_fleet_with_threads(
            replicas,
            &FleetWorkload::Sessions(sessions),
            cfg,
            h.predictor,
            FLEET_THREADS,
        )
    });
    let r = &out.report;
    let turns = sessions.len();
    p.put("workload.requests", turns as f64, "count");
    p.offered += turns as u64;
    p.completed += r.num_requests.min(turns) as u64;
    p.check(r.num_requests == turns, || {
        format!("fleet: served {} of {turns} turns", r.num_requests)
    });
    p.check(
        r.output_tokens == sessions.trace.total_output_tokens(),
        || {
            format!(
                "fleet: {} output tokens, sessions have {}",
                r.output_tokens,
                sessions.trace.total_output_tokens()
            )
        },
    );
    let assigned: Vec<usize> = r.replicas.iter().map(|x| x.assigned).collect();
    p.check(
        assigned.iter().sum::<usize>() == sessions.num_sessions,
        || {
            format!(
                "fleet: {assigned:?} sessions assigned of {}",
                sessions.num_sessions
            )
        },
    );
    let served: usize = r.replicas.iter().map(|x| x.report.num_requests).sum();
    p.check(served == r.num_requests, || {
        format!(
            "fleet: replicas served {served}, report says {}",
            r.num_requests
        )
    });
    p.digest_report(r);

    // A fleet-wide percentile cannot be rebuilt from per-replica
    // summaries; the worst replica's percentile bounds it from above.
    let worst = |f: fn(&tdpipe::sim::LatencySummary) -> f64| {
        r.replicas
            .iter()
            .filter_map(|x| x.report.latency.as_ref().map(f))
            .fold(f64::NAN, f64::max)
    };
    p.put("throughput_tok_s", r.throughput_total(), "tok/s");
    p.put("ttft_p50_s", worst(|l| l.ttft_p50), "s");
    p.put("ttft_p99_s", worst(|l| l.ttft_p99), "s");
    p.put("tpot_p50_s", worst(|l| l.tpot_p50), "s");
    p.put("tpot_p95_s", worst(|l| l.tpot_p95), "s");
    p.put("goodput_req_s", r.goodput, "req/s");
    p.put("slo_attainment", r.slo_attainment, "fraction");

    let mut core = CoreCounts::default();
    for o in &out.outcomes {
        core.add(o);
    }
    core.put(p);
    let offered_prompt = sessions.trace.total_input_tokens() as f64;
    p.put(
        "kvcache.prefix_hit_frac",
        if offered_prompt > 0.0 {
            1.0 - r.input_tokens as f64 / offered_prompt
        } else {
            0.0
        },
        "fraction",
    );
    let mean = assigned.iter().sum::<usize>() as f64 / assigned.len().max(1) as f64;
    let max = assigned.iter().copied().max().unwrap_or(0) as f64;
    let spans: Vec<f64> = r.replicas.iter().map(|x| x.report.makespan).collect();
    let (lo, hi) = spans.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &m| {
        (lo.min(m), hi.max(m))
    });
    p.put("fleet.spills", r.spills as f64, "count");
    p.put(
        "fleet.assign_imbalance",
        if mean > 0.0 { max / mean } else { 0.0 },
        "ratio",
    );
    p.put(
        "fleet.makespan_spread",
        if lo > 0.0 { hi / lo } else { 0.0 },
        "ratio",
    );
    for x in &r.replicas {
        let p99 = x.report.latency.map_or(f64::NAN, |l| l.ttft_p99);
        p.put(&format!("fleet.{}.ttft_p99_s", x.label), p99, "s");
    }
    if tr.is_enabled() {
        p.put("fleet.run_s", tr.total_s("fleet.run"), "s");
    }
    // The replicas' scheduling loops run inside the one fleet call.
    p.put_run_time(tr, "fleet.run");
    p.put_unobserved();
}

fn observed(p: &mut Pass, trace: &Trace, off: &TdEngine, on: &TdEngine, h: Hooks) {
    let tr = h.tr;
    p.put("workload.requests", trace.len() as f64, "count");
    let plain = tr.span("observers.off", || {
        off.run(p, "TD-Pipe (observers off)", trace, &[], h)
    });
    let seen = tr.span("observers.on", || {
        on.run(p, "TD-Pipe (observers on)", trace, &[], h)
    });
    let (Some(plain), Some(out)) = (plain, seen) else {
        return;
    };
    p.check(plain.report == out.report, || {
        "observers changed the modelled report".to_string()
    });
    p.digest_report(&out.report);
    let mut core = CoreCounts::default();
    core.add(&out);

    // What `tdpipe-cli run --metrics-out/--journal-out/--trace-out` and the
    // span/bubble report subcommands do with the result.
    let labelled = [("engine".to_string(), &out.journal)];
    let (analysis, snapshot) = tr.span("spans.analyze", || {
        let analysis = analyze(&labelled);
        let snapshot = out.metrics.clone().merged(span_metrics(&analysis));
        (analysis, snapshot)
    });
    let snapshot_json = tr.span("metrics.snapshot_json", || {
        serde_json::to_string(&snapshot).unwrap_or_default()
    });
    let prom = tr.span("metrics.prom", || to_prom(&snapshot));
    let journal_json = tr.span("trace.journal_json", || out.journal.to_json());
    let parsed = tr.span("trace.journal_parse", || {
        serde_json::from_str::<FlightRecorder>(&journal_json)
    });
    let chrome = tr.span("trace.chrome", || chrome_trace(&out.timeline, &out.journal));
    let (span_json, bubble_json) = tr.span("spans.report_json", || {
        (span_report_json(&analysis), bubble_report_json(&analysis))
    });
    let (span_check, bubble_check, chrome_check) = tr.span("spans.validate", || {
        (
            validate_span_report(&span_json),
            validate_bubble_report(&bubble_json),
            validate_chrome_trace(&chrome),
        )
    });

    p.check(!prom.is_empty(), || "empty Prometheus export".to_string());
    match &parsed {
        Ok(j) => p.check(j.len() == out.journal.len(), || {
            format!(
                "journal re-parse kept {} of {} events",
                j.len(),
                out.journal.len()
            )
        }),
        Err(e) => p.check(false, || format!("journal re-parse: {e}")),
    }
    match &chrome_check {
        Ok(c) => p.check(
            c.complete_events == out.timeline.segments().len()
                && c.instant_events == out.journal.events().len(),
            || {
                format!(
                    "chrome trace holds {c:?} for {} segments",
                    out.timeline.segments().len()
                )
            },
        ),
        Err(e) => p.check(false, || format!("chrome trace: {e}")),
    }
    p.check(bubble_check.is_ok(), || {
        format!(
            "bubble report: {}",
            bubble_check.clone().err().unwrap_or_default()
        )
    });
    // The span builder's TTFT fold cannot always close exactly in f64 (a
    // known defect: see README). The validator must agree with the
    // in-memory spans: clean when they are, and rejecting only the fold
    // identity when some are not.
    let identity_failures = analysis
        .replicas
        .iter()
        .flat_map(|r| &r.spans)
        .filter(|s| !s.identities_hold())
        .count();
    match &span_check {
        Ok(_) => p.check(identity_failures == 0, || {
            format!("span validator passed {identity_failures} spans whose folds fail")
        }),
        Err(e) => p.check(
            identity_failures > 0 && e.contains("do not sum exactly"),
            || format!("span report: {e}"),
        ),
    }

    p.put_modelled(out.report.throughput_total(), out.report.latency.as_ref());
    core.put(p);
    p.put_run_time(tr, "core.run");
    p.put("kvcache.prefix_hit_frac", 0.0, "fraction");
    p.put(
        "kvcache.evictions",
        counter_total(&snapshot, "tdpipe_evict_total"),
        "count",
    );
    p.put_unrouted();
    p.put("trace.events", out.journal.len() as f64, "count");
    p.put("trace.journal_bytes", journal_json.len() as f64, "bytes");
    p.put("trace.chrome_bytes", chrome.len() as f64, "bytes");
    p.put(
        "spans.report_bytes",
        (span_json.len() + bubble_json.len()) as f64,
        "bytes",
    );
    p.put("spans.identity_failures", identity_failures as f64, "count");
    for cause in BubbleCause::ALL {
        let s = analysis
            .fleet_by_cause
            .get(cause.label())
            .copied()
            .unwrap_or(0.0);
        p.put(&format!("spans.bubble_s.{}", cause.label()), s, "s");
    }
    p.put(
        "metrics.snapshot_bytes",
        snapshot_json.len() as f64,
        "bytes",
    );
    if tr.is_enabled() {
        for (metric, span) in [
            ("spans.analyze_s", "spans.analyze"),
            ("spans.report_json_s", "spans.report_json"),
            ("spans.validate_s", "spans.validate"),
            ("trace.journal_json_s", "trace.journal_json"),
            ("trace.journal_parse_s", "trace.journal_parse"),
            ("trace.chrome_s", "trace.chrome"),
            ("metrics.snapshot_json_s", "metrics.snapshot_json"),
            ("metrics.prom_s", "metrics.prom"),
        ] {
            p.put(metric, tr.total_s(span), "s");
        }
        p.put(
            "metrics.observer_overhead_s",
            tr.total_s("observers.on") - tr.total_s("observers.off"),
            "s",
        );
    }
}

/// Sum of a counter across its label sets.
fn counter_total(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot
        .metrics
        .iter()
        .filter(|m| m.name == name)
        .map(|m| match m.value {
            MetricValue::Counter(c) => c as f64,
            _ => 0.0,
        })
        .sum()
}
