//! Byte-level golden for the four baseline schedulers.
//!
//! `tests/determinism.rs` only compares runs with themselves and the Fig. 11
//! smoke snapshot covers offline reports only, so this file pins what the
//! baselines produce against a committed fixture: for seven scenarios
//! (offline on three node shapes, Poisson arrivals, KV pressure, a
//! sequence cap, a tight chunk budget) × {TP+SB, TP+HB, PP+SB, PP+HB}, all
//! with timeline and metrics recording on, it stores
//!
//! * the serialized `RunReport`, in full;
//! * a digest of the timeline segments over `(device, start, end, kind)`;
//! * every metrics-plane entry (everything but the `series_*` samples), in
//!   full;
//! * a digest of the sampled series.
//!
//! After an intended schedule change, regenerate the fixture deliberately
//! and review its diff:
//!
//! ```text
//! cargo test --release --test baseline_golden -- --ignored bless
//! ```

use tdpipe::baselines::{PpHbEngine, PpSbEngine, TpHbEngine, TpSbEngine};
use tdpipe::core::config::EngineConfig;
use tdpipe::core::engine::InfeasibleConfig;
use tdpipe::hw::NodeSpec;
use tdpipe::metrics::MetricsSnapshot;
use tdpipe::model::ModelSpec;
use tdpipe::predictor::OraclePredictor;
use tdpipe::sim::{RunReport, SegmentKind, Timeline};
use tdpipe::workload::{ArrivalProcess, ShareGptLikeConfig, Trace};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/baseline_golden.txt");

struct Case {
    name: &'static str,
    model: ModelSpec,
    node: NodeSpec,
    trace: Trace,
    arrivals: Vec<f64>,
    cfg: EngineConfig,
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
        case(
            "seqcap32-l20x4",
            NodeSpec::l20(4),
            vec![],
            EngineConfig {
                max_num_seqs: Some(32),
                ..recorded.clone()
            },
        ),
        case(
            "chunk256-l20x4",
            NodeSpec::l20(4),
            vec![],
            EngineConfig {
                chunk_token_budget: 256,
                ..recorded
            },
        ),
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

type Outcome = (RunReport, Timeline, MetricsSnapshot);

fn run_all(c: &Case) -> Vec<(&'static str, Result<Outcome, InfeasibleConfig>)> {
    let p = &OraclePredictor;
    let (m, n, cfg, t, a) = (&c.model, &c.node, &c.cfg, &c.trace, &c.arrivals);
    macro_rules! run {
        ($name:literal, $engine:ty) => {
            (
                $name,
                <$engine>::new(m.clone(), n, cfg.clone()).map(|e| {
                    let o = e.run_with_arrivals(t, a, p);
                    (o.report, o.timeline, o.metrics)
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
                Ok((report, timeline, metrics)) => {
                    let report = serde_json::to_string(&report).expect("serialize report");
                    let entries =
                        serde_json::to_string(&metrics.metrics).expect("serialize metrics");
                    out.push_str(&format!("report {report}\n"));
                    out.push_str(&format!("{}\n", timeline_line(&timeline)));
                    out.push_str(&format!("metrics {entries}\n"));
                    out.push_str(&format!("{}\n", series_line(&metrics)));
                }
            }
        }
    }
    out
}

#[test]
fn baselines_match_the_committed_golden() {
    let want = std::fs::read_to_string(FIXTURE).expect("committed baseline golden fixture");
    let got = render();
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

/// Rewrites the fixture from the current code. Ignored so it only runs when
/// asked for by name (see the module docs).
#[test]
#[ignore = "rewrites the committed fixture; run deliberately after an intended schedule change"]
fn bless() {
    std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().expect("fixture dir"))
        .expect("create fixture dir");
    std::fs::write(FIXTURE, render()).expect("write fixture");
}
