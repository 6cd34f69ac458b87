//! Byte-level goldens for all five schedulers and the offload engine.
//!
//! `tests/determinism.rs` only compares runs with themselves and the Fig. 11
//! smoke snapshot covers offline reports only, so this file pins what the
//! schedulers produce against committed fixtures, with timeline and metrics
//! recording on:
//!
//! * `baseline_golden.txt`: six scenarios (offline on three node shapes,
//!   Poisson arrivals, KV pressure, and more short requests than the
//!   1,024-sequence cap admits, even per pipeline lane)
//!   × {TP+SB, TP+HB, PP+SB, PP+HB};
//! * `tdpipe_golden.txt`: TD-Pipe on eight scenarios chosen to drive every
//!   branch of its decode step — offline and Poisson runs, recompute and
//!   swap preemption under an underpredicting predictor, closed-loop
//!   sessions whose retained KV is reclaimed mid-step, KV pressure on the
//!   tiny test node, and the fixed-ratio switch policies without work
//!   stealing. TD-Pipe also records its journal;
//! * `offload_golden.txt`: the §2.2.2 KV-offloading engine at two host
//!   bandwidths on three traces (one of more short requests than the
//!   1,024-sequence cap admits), and node runs
//!   of 1, 2 and 4 replicas behind a contended and an uncontended host
//!   link.
//!
//! Each record keeps
//!
//! * the serialized `RunReport`, in full;
//! * a digest of the timeline segments over `(device, start, end, kind)`;
//! * every metrics-plane entry (everything but the `series_*` samples), in
//!   full;
//! * a digest of the sampled series;
//! * for TD-Pipe, digests of the journal, the phase log and the occupancy
//!   trace.
//!
//! The journal keeps device activity as per-device busy segments. Written
//! back in the layout that stored every derived `StageBusy`/`StageIdle`
//! event, each TD-Pipe journal still digests to what that layout pinned
//! (`OLD_LAYOUT_JOURNALS`), so the segment layout loses nothing.
//!
//! An offload record is its serialized `RunReport` or `NodeOffloadRun`.
//!
//! After an intended schedule change, regenerate the fixtures deliberately
//! and review their diff:
//!
//! ```text
//! cargo test --release --test baseline_golden -- --ignored bless
//! ```

use tdpipe::baselines::{PpHbEngine, PpSbEngine, TpHbEngine, TpSbEngine};
use tdpipe::core::config::EngineConfig;
use tdpipe::core::engine::{InfeasibleConfig, RunOutcome};
use tdpipe::core::{D2pPolicy, P2dPolicy, PreemptionMode, TdPipeConfig, TdPipeEngine};
use tdpipe::hw::NodeSpec;
use tdpipe::metrics::MetricsSnapshot;
use tdpipe::model::ModelSpec;
use tdpipe::offload::{HostLink, OffloadEngine};
use tdpipe::predictor::{MeanPredictor, OraclePredictor, OutputLenPredictor};
use tdpipe::sim::{RunReport, SegmentKind, Timeline};
use tdpipe::trace::{FlightRecorder, TimedEvent};
use tdpipe::workload::{
    ArrivalProcess, SessionConfig, SessionTrace, ShareGptLikeConfig, Trace, Workload,
};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/baseline_golden.txt");
const TD_FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/tdpipe_golden.txt");
const OFFLOAD_FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/offload_golden.txt");

struct Case {
    name: &'static str,
    model: ModelSpec,
    node: NodeSpec,
    trace: Trace,
    arrivals: Vec<f64>,
    cfg: EngineConfig,
}

/// More short requests than the baselines' 1,024-sequence cap admits,
/// even in each of four pipeline lanes, all fitting memory at once: the
/// cap, not memory or the prefill budget, bounds the running batch.
fn short_trace(num_requests: usize, seed: u64) -> Trace {
    ShareGptLikeConfig {
        input_mu: 2.0,
        input_max: 16,
        output_max: 16,
        ..ShareGptLikeConfig::small(num_requests, seed)
    }
    .generate()
}

fn cases() -> Vec<Case> {
    let recorded = EngineConfig {
        record_timeline: true,
        record_metrics: true,
        ..EngineConfig::default()
    };
    let trace = ShareGptLikeConfig::small(150, 5).generate();
    let case = |name, node, arrivals, cfg| Case {
        name,
        model: ModelSpec::llama2_13b(),
        node,
        trace: trace.clone(),
        arrivals,
        cfg,
    };
    let poisson = ArrivalProcess::Poisson {
        rate_per_s: 2.0,
        seed: 3,
    }
    .sample(trace.len());
    vec![
        case("offline-l20x1", NodeSpec::l20(1), vec![], recorded.clone()),
        case("offline-l20x4", NodeSpec::l20(4), vec![], recorded.clone()),
        case("offline-a100x2", NodeSpec::a100(2), vec![], recorded.clone()),
        case("poisson2-l20x4", NodeSpec::l20(4), poisson, recorded.clone()),
        Case {
            name: "pressure-tiny4",
            model: ModelSpec::tiny_test(),
            node: NodeSpec::tiny_test(4),
            trace: ShareGptLikeConfig::small(60, 11).generate(),
            arrivals: vec![],
            cfg: recorded.clone(),
        },
        Case {
            name: "short4400-l20x4",
            model: ModelSpec::llama2_13b(),
            node: NodeSpec::l20(4),
            trace: short_trace(4400, 13),
            arrivals: vec![],
            cfg: recorded,
        },
    ]
}

struct TdCase<'a> {
    name: &'static str,
    model: ModelSpec,
    node: NodeSpec,
    work: Workload<'a>,
    cfg: TdPipeConfig,
    /// Predict one output token for every request, so Algorithm 1 admits
    /// far more than fits and the decode phase must preempt. Such a case
    /// must then actually preempt, which keeps the fixture covering the
    /// eviction walk.
    underpredict: bool,
}

/// What the TD-Pipe cases run: the shared trace with its Poisson
/// arrivals, a tiny-node trace, and closed-loop sessions.
struct TdInputs {
    trace: Trace,
    poisson: Vec<f64>,
    tiny: Trace,
    sessions: SessionTrace,
}

fn td_inputs() -> TdInputs {
    let trace = ShareGptLikeConfig::small(150, 5).generate();
    let poisson = ArrivalProcess::Poisson {
        rate_per_s: 2.0,
        seed: 3,
    }
    .sample(trace.len());
    // Sessions starting almost at once, so retained prefixes sit in a KV
    // pool the decode phase overflows.
    let sessions = SessionConfig {
        arrival: ArrivalProcess::Poisson {
            rate_per_s: 64.0,
            seed: 7,
        },
        ..SessionConfig::small(256, 19)
    }
    .generate();
    TdInputs {
        trace,
        poisson,
        tiny: ShareGptLikeConfig::small(60, 11).generate(),
        sessions,
    }
}

fn td_cases(inputs: &TdInputs) -> Vec<TdCase<'_>> {
    let mut recorded = TdPipeConfig::default();
    recorded.engine.record_timeline = true;
    recorded.engine.record_metrics = true;
    recorded.engine.record_trace = true;
    let with = |f: &dyn Fn(&mut TdPipeConfig)| {
        let mut cfg = recorded.clone();
        f(&mut cfg);
        cfg
    };
    let offline = Workload::offline(&inputs.trace);
    let case = |name, node, work, cfg, underpredict| TdCase {
        name,
        model: ModelSpec::llama2_13b(),
        node,
        work,
        cfg,
        underpredict,
    };
    let swap = with(&|c| c.engine.preemption = PreemptionMode::Swap);
    let reuse = with(&|c| c.engine.session_reuse = true);
    let ablated = with(&|c| {
        c.work_stealing = false;
        c.p2d = P2dPolicy::FixedOccupancy(0.95);
        c.d2p = D2pPolicy::FixedFinishRatio(0.5);
    });
    vec![
        case("offline-l20x1", NodeSpec::l20(1), offline, recorded.clone(), false),
        case("offline-l20x4", NodeSpec::l20(4), offline, recorded.clone(), false),
        case(
            "poisson2-l20x4",
            NodeSpec::l20(4),
            Workload::Requests {
                trace: &inputs.trace,
                arrivals: &inputs.poisson,
            },
            recorded.clone(),
            false,
        ),
        case("recompute-l20x1", NodeSpec::l20(1), offline, recorded.clone(), true),
        case("swap-l20x1", NodeSpec::l20(1), offline, swap, true),
        case(
            "sessions-reuse-l20x1",
            NodeSpec::l20(1),
            Workload::Sessions(&inputs.sessions),
            reuse,
            true,
        ),
        TdCase {
            name: "pressure-tiny4",
            model: ModelSpec::tiny_test(),
            node: NodeSpec::tiny_test(4),
            work: Workload::offline(&inputs.tiny),
            cfg: recorded,
            underpredict: false,
        },
        case("ablated-l20x4", NodeSpec::l20(4), offline, ablated, false),
    ]
}

/// 64-bit FNV-1a, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// `label count digest` over a serialized artifact.
fn digest_line(label: &str, count: usize, text: &str) -> String {
    let mut h = Fnv::new();
    h.bytes(text.as_bytes());
    format!("{label} {count} {:016x}", h.0)
}

fn timeline_line(t: &Timeline) -> String {
    let mut h = Fnv::new();
    for s in t.segments() {
        let kind = match s.kind {
            SegmentKind::Prefill => 0,
            SegmentKind::Decode => 1,
            SegmentKind::Hybrid => 2,
            SegmentKind::Comm => 3,
        };
        h.u64(s.device as u64);
        h.u64(s.start.to_bits());
        h.u64(s.end.to_bits());
        h.u64(kind);
    }
    format!("timeline {} {:016x}", t.segments().len(), h.0)
}

fn series_line(m: &MetricsSnapshot) -> String {
    let mut h = Fnv::new();
    for s in &m.series {
        h.bytes(s.name.as_bytes());
        h.u64(s.points.len() as u64);
        for p in &s.points {
            h.u64(p.t.to_bits());
            h.u64(p.v.to_bits());
        }
    }
    format!("series {} {:016x}", m.series.len(), h.0)
}

/// The record lines every scheduler shares.
fn push_record(out: &mut String, report: &RunReport, timeline: &Timeline, m: &MetricsSnapshot) {
    let report = serde_json::to_string(report).expect("serialize report");
    let entries = serde_json::to_string(&m.metrics).expect("serialize metrics");
    out.push_str(&format!("report {report}\n"));
    out.push_str(&format!("{}\n", timeline_line(timeline)));
    out.push_str(&format!("metrics {entries}\n"));
    out.push_str(&format!("{}\n", series_line(m)));
}

fn run_all(c: &Case) -> Vec<(&'static str, Result<RunOutcome, InfeasibleConfig>)> {
    let p = &OraclePredictor;
    let (m, n, cfg, t, a) = (&c.model, &c.node, &c.cfg, &c.trace, &c.arrivals);
    macro_rules! run {
        ($name:literal, $engine:ty) => {
            (
                $name,
                <$engine>::new(m.clone(), n, cfg.clone()).map(|e| {
                    e.try_run_on(t, a, p, e.sim_plane()).expect("the simulator cannot fail")
                }),
            )
        };
    }
    vec![
        run!("TP+SB", TpSbEngine),
        run!("TP+HB", TpHbEngine),
        run!("PP+SB", PpSbEngine),
        run!("PP+HB", PpHbEngine),
    ]
}

fn render() -> String {
    let mut out = String::new();
    for case in cases() {
        for (name, result) in run_all(&case) {
            out.push_str(&format!("## {} {name}\n", case.name));
            match result {
                Err(e) => out.push_str(&format!("infeasible {}\n", e.reason)),
                Ok(o) => push_record(&mut out, &o.report, &o.timeline, &o.metrics),
            }
        }
    }
    out
}

fn run_td(c: &TdCase) -> Result<RunOutcome, InfeasibleConfig> {
    let under = MeanPredictor { mean_len: 1 };
    let p: &dyn OutputLenPredictor = if c.underpredict {
        &under
    } else {
        &OraclePredictor
    };
    let e = TdPipeEngine::new(c.model.clone(), &c.node, c.cfg.clone())?;
    Ok(e.try_run(c.work, p, e.sim_plane()).expect("the simulator cannot fail"))
}

fn render_td() -> String {
    let mut out = String::new();
    let inputs = td_inputs();
    for case in td_cases(&inputs) {
        out.push_str(&format!("## {} TD-Pipe\n", case.name));
        let o = match run_td(&case) {
            Err(e) => {
                out.push_str(&format!("infeasible {}\n", e.reason));
                continue;
            }
            Ok(o) => o,
        };
        if case.underpredict {
            assert!(
                o.report.recomputed_tokens + o.report.swapped_tokens > 0,
                "{}: an underpredicted case must preempt",
                case.name
            );
        }
        push_record(&mut out, &o.report, &o.timeline, &o.metrics);
        let journal = o.journal.to_json();
        out.push_str(&format!("{}\n", digest_line("journal", o.journal.len(), &journal)));
        let phases = format!("{:?}", o.phases);
        out.push_str(&format!("{}\n", digest_line("phases", o.phases.len(), &phases)));
        let occupancy = serde_json::to_string(&o.occupancy).expect("serialize occupancy");
        let samples = o.occupancy.len();
        out.push_str(&format!("{}\n", digest_line("occupancy", samples, &occupancy)));
    }
    out
}

/// The journal in the layout that stored device activity as events:
/// engine events first, then every derived stage event under
/// `stage_events`.
fn old_layout_json(journal: &FlightRecorder) -> String {
    let stage: Vec<TimedEvent> = journal.stage_events().collect();
    format!(
        r#"{{"enabled":{},"events":{},"stage_events":{}}}"#,
        journal.is_enabled(),
        serde_json::to_string(journal.events()).expect("serialize events"),
        serde_json::to_string(&stage).expect("serialize stage events"),
    )
}

/// The `journal` lines `tdpipe_golden.txt` held while the journal stored
/// every stage event, one per TD-Pipe case in order.
const OLD_LAYOUT_JOURNALS: [&str; 8] = [
    "journal 4709 57e0dc566ca8af55",
    "journal 38861 fcad407419fe7eb2",
    "journal 81185 b24e059fba954850",
    "journal 4538 1a7ebc9230ed13f2",
    "journal 4534 154e80c2d66103d9",
    "journal 12081 6f668bf00fc8d142",
    "journal 24907 a72d0f3fe44236e2",
    "journal 27596 80418eed1d88fe3c",
];

fn render_offload() -> String {
    let engine = |cfg| {
        OffloadEngine::new(ModelSpec::llama2_13b(), &NodeSpec::l20(4), 256 << 30, cfg)
            .expect("13B weights fit one L20")
    };
    let plain = engine(EngineConfig::default());
    let mut out = String::new();
    for (name, trace) in [
        ("sharegpt150", ShareGptLikeConfig::small(150, 5).generate()),
        ("sharegpt80", ShareGptLikeConfig::small(80, 4).generate()),
        ("short1500", short_trace(1500, 9)),
    ] {
        for bw in [20.0e9, 5.0e9] {
            let report =
                serde_json::to_string(&plain.run_at_bandwidth(&trace, bw)).expect("report");
            out.push_str(&format!("## {name} {bw:e}\nreport {report}\n"));
        }
    }
    let trace = ShareGptLikeConfig::small(240, 8).generate();
    for (name, link) in [
        ("commodity-gen4", HostLink::commodity_gen4()),
        ("uncontended", HostLink::uncontended()),
    ] {
        for replicas in [1, 2, 4] {
            let node = serde_json::to_string(&plain.run_node(&trace, replicas, &link))
                .expect("node run");
            out.push_str(&format!("## node {name} x{replicas}\nnode {node}\n"));
        }
    }
    out
}

fn assert_matches_fixture(path: &str, got: &str) {
    let want = std::fs::read_to_string(path).expect("committed golden fixture");
    let mut header = "";
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        if w.starts_with("## ") {
            header = w;
        }
        assert!(
            w == g,
            "{header}: line {} drifted from the golden\n  want: {:.300}\n  got:  {:.300}",
            i + 1,
            w,
            g
        );
    }
    assert_eq!(
        want.lines().count(),
        got.lines().count(),
        "golden and fresh output differ in length"
    );
}

#[test]
fn baselines_match_the_committed_golden() {
    assert_matches_fixture(FIXTURE, &render());
}

#[test]
fn tdpipe_matches_the_committed_golden() {
    assert_matches_fixture(TD_FIXTURE, &render_td());
}

#[test]
fn tdpipe_journals_in_the_old_layout_match_the_old_digests() {
    let inputs = td_inputs();
    let got: Vec<String> = td_cases(&inputs)
        .iter()
        .map(|case| {
            let o = run_td(case).expect("every TD-Pipe case is feasible");
            digest_line("journal", o.journal.len(), &old_layout_json(&o.journal))
        })
        .collect();
    assert_eq!(got, OLD_LAYOUT_JOURNALS);
}

#[test]
fn offload_matches_the_committed_golden() {
    assert_matches_fixture(OFFLOAD_FIXTURE, &render_offload());
}

/// Rewrites every fixture from the current code. Ignored so it only runs
/// when asked for by name (see the module docs).
#[test]
#[ignore = "rewrites the committed fixtures; run deliberately after an intended schedule change"]
fn bless() {
    std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().expect("fixture dir"))
        .expect("create fixture dir");
    std::fs::write(FIXTURE, render()).expect("write fixture");
    std::fs::write(TD_FIXTURE, render_td()).expect("write TD-Pipe fixture");
    std::fs::write(OFFLOAD_FIXTURE, render_offload()).expect("write offload fixture");
}
