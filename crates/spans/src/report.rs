//! Report assembly, byte-stable JSON exports, schema validators, the
//! Chrome nested-span export, and the metrics bridge.
//!
//! The two on-disk artifacts are versioned JSON documents:
//!
//! * **span report** — per-replica [`RequestSpan`] lists plus fleet
//!   component totals; [`validate_span_report`] re-derives every span
//!   identity and the totals fold and rejects any bit of drift.
//! * **bubble report** — per-replica [`BubbleLedger`]s and critical
//!   paths plus fleet per-cause totals; [`validate_bubble_report`]
//!   refolds every device's idle total from the gap list.
//!
//! Both serialize through the vendored `serde_json`, whose `f64`
//! formatting is the shortest round-trip text (the same bytes as Rust's
//! `Display`) — so exactness survives the disk: a validator reading the
//! file back recomputes the identities on *bit-identical* floats.

use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use tdpipe_metrics::{MetricEntry, MetricValue, MetricsSnapshot};
use tdpipe_trace::FlightRecorder;

use crate::bubble::{attribute_bubbles, BubbleLedger};
use crate::critical::{critical_path, CriticalPath};
use crate::span::{build_spans, fold_seconds, RequestSpan, SpanComponents};

/// Schema version stamped into both reports.
pub const REPORT_VERSION: u32 = 1;

/// One journal's full analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaAnalysis {
    /// Replica label (`"engine"` for a single-engine run).
    pub label: String,
    /// Run length: the latest instant the journal knows about.
    pub makespan: f64,
    /// Requests whose lifecycle was incomplete in the journal (skipped).
    pub incomplete: usize,
    /// Reconstructed spans, ascending request id.
    pub spans: Vec<RequestSpan>,
    /// Attributed idle ledger.
    pub ledger: BubbleLedger,
    /// Ranked makespan decomposition of the output stage.
    pub critical: CriticalPath,
}

/// The fleet-level analysis: every replica plus cross-replica folds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Analysis {
    /// Per-replica analyses, in input order.
    pub replicas: Vec<ReplicaAnalysis>,
    /// Per component name: left fold of that component over every span,
    /// replicas in order, spans in order.
    pub component_totals: BTreeMap<String, f64>,
    /// Per cause label: left fold over every replica's gap list in order.
    pub fleet_by_cause: BTreeMap<String, f64>,
}

/// The latest instant a journal knows about: engine events and stage
/// segment/gap ends.
fn journal_end(journal: &FlightRecorder) -> f64 {
    let mut end = 0.0f64;
    if let Some(e) = journal.events().last() {
        end = end.max(e.t);
    }
    for e in journal.stage_events() {
        let fin = match e.event {
            tdpipe_trace::TraceEvent::StageBusy { dur, .. } => e.t + dur,
            tdpipe_trace::TraceEvent::StageIdle { dur, .. } => e.t + dur,
            _ => e.t,
        };
        end = end.max(fin);
    }
    end
}

/// Analyze one or more labelled journals (one per replica).
pub fn analyze(journals: &[(String, &FlightRecorder)]) -> Analysis {
    let mut replicas = Vec::with_capacity(journals.len());
    for (label, journal) in journals {
        let (spans, incomplete) = build_spans(journal);
        let ledger = attribute_bubbles(journal);
        let makespan = journal_end(journal);
        let critical = critical_path(&ledger, makespan);
        replicas.push(ReplicaAnalysis {
            label: label.clone(),
            makespan,
            incomplete,
            spans,
            ledger,
            critical,
        });
    }

    let mut component_totals: BTreeMap<String, f64> = SpanComponents::NAMES
        .iter()
        .map(|n| (n.to_string(), 0.0))
        .collect();
    for r in &replicas {
        for s in &r.spans {
            for (name, v) in SpanComponents::NAMES.iter().zip(s.components.as_array()) {
                *component_totals.get_mut(*name).expect("known component") += v;
            }
        }
    }

    let mut fleet_by_cause: BTreeMap<String, f64> = BTreeMap::new();
    for r in &replicas {
        for g in &r.ledger.gaps {
            *fleet_by_cause
                .entry(g.cause.label().to_string())
                .or_insert(0.0) += g.dur;
        }
    }

    Analysis {
        replicas,
        component_totals,
        fleet_by_cause,
    }
}

// ---------------------------------------------------------------------------
// Span report
// ---------------------------------------------------------------------------

/// On-disk span report (the `span-report` subcommand's `--out`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanReport {
    /// Schema version ([`REPORT_VERSION`]).
    pub version: u32,
    /// Per-replica spans.
    pub replicas: Vec<SpanReportReplica>,
    /// Fleet component totals (see [`Analysis::component_totals`]).
    pub component_totals: BTreeMap<String, f64>,
}

/// One replica's slice of a [`SpanReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanReportReplica {
    pub label: String,
    pub incomplete: usize,
    pub spans: Vec<RequestSpan>,
}

/// Serialize the span report. Byte-stable: struct field order plus
/// `BTreeMap` key order, shortest-round-trip floats.
pub fn span_report_json(analysis: &Analysis) -> String {
    let report = SpanReport {
        version: REPORT_VERSION,
        replicas: analysis
            .replicas
            .iter()
            .map(|r| SpanReportReplica {
                label: r.label.clone(),
                incomplete: r.incomplete,
                spans: r.spans.clone(),
            })
            .collect(),
        component_totals: analysis.component_totals.clone(),
    };
    serde_json::to_string(&report).unwrap_or_else(|_| String::from("{}"))
}

/// What [`validate_span_report`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SpanReportCheck {
    pub replicas: usize,
    pub spans: usize,
    pub incomplete: usize,
}

/// Schema- and identity-check a span report document.
///
/// Rejects: unparseable JSON, wrong version, any span whose three fold
/// identities fail **exactly**, non-finite fields, and component totals
/// that do not refold bit-identically from the span lists.
pub fn validate_span_report(json: &str) -> Result<SpanReportCheck, String> {
    let report: SpanReport =
        serde_json::from_str(json).map_err(|e| format!("invalid span report JSON: {e}"))?;
    if report.version != REPORT_VERSION {
        return Err(format!(
            "span report version {} (expected {REPORT_VERSION})",
            report.version
        ));
    }
    let mut totals: BTreeMap<String, f64> = SpanComponents::NAMES
        .iter()
        .map(|n| (n.to_string(), 0.0))
        .collect();
    let mut spans = 0usize;
    let mut incomplete = 0usize;
    for r in &report.replicas {
        incomplete += r.incomplete;
        for s in &r.spans {
            spans += 1;
            let parts = s.components.as_array();
            if parts.iter().any(|v| !v.is_finite())
                || !s.ttft.is_finite()
                || !s.latency.is_finite()
            {
                return Err(format!(
                    "replica {:?} request {}: non-finite span field",
                    r.label, s.request
                ));
            }
            if !s.identities_hold() {
                return Err(format!(
                    "replica {:?} request {}: span components do not sum exactly \
                     (ttft {}, decode_total {}, latency {})",
                    r.label, s.request, s.ttft, s.decode_total, s.latency
                ));
            }
            for (name, v) in SpanComponents::NAMES.iter().zip(parts) {
                *totals.get_mut(*name).expect("known component") += v;
            }
        }
    }
    if totals != report.component_totals {
        return Err("component_totals do not refold from the span lists".into());
    }
    Ok(SpanReportCheck {
        replicas: report.replicas.len(),
        spans,
        incomplete,
    })
}

// ---------------------------------------------------------------------------
// Bubble report
// ---------------------------------------------------------------------------

/// On-disk bubble report (the `bubble-report` subcommand's `--out`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BubbleReport {
    /// Schema version ([`REPORT_VERSION`]).
    pub version: u32,
    /// Per-replica ledgers + critical paths.
    pub replicas: Vec<BubbleReportReplica>,
    /// Fleet per-cause totals (see [`Analysis::fleet_by_cause`]).
    pub fleet_by_cause: BTreeMap<String, f64>,
}

/// One replica's slice of a [`BubbleReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BubbleReportReplica {
    pub label: String,
    pub makespan: f64,
    pub ledger: BubbleLedger,
    pub critical: CriticalPath,
}

/// Serialize the bubble report (byte-stable, like [`span_report_json`]).
pub fn bubble_report_json(analysis: &Analysis) -> String {
    let report = BubbleReport {
        version: REPORT_VERSION,
        replicas: analysis
            .replicas
            .iter()
            .map(|r| BubbleReportReplica {
                label: r.label.clone(),
                makespan: r.makespan,
                ledger: r.ledger.clone(),
                critical: r.critical.clone(),
            })
            .collect(),
        fleet_by_cause: analysis.fleet_by_cause.clone(),
    };
    serde_json::to_string(&report).unwrap_or_else(|_| String::from("{}"))
}

/// What [`validate_bubble_report`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BubbleReportCheck {
    pub replicas: usize,
    pub devices: usize,
    pub gaps: usize,
}

/// Schema- and identity-check a bubble report document.
///
/// Rejects: unparseable JSON, wrong version, any device whose
/// `idle_total` or `by_cause` buckets do not refold **bit-identically**
/// from its gap list, and fleet totals that do not refold from the
/// replicas' gap lists.
pub fn validate_bubble_report(json: &str) -> Result<BubbleReportCheck, String> {
    let report: BubbleReport =
        serde_json::from_str(json).map_err(|e| format!("invalid bubble report JSON: {e}"))?;
    if report.version != REPORT_VERSION {
        return Err(format!(
            "bubble report version {} (expected {REPORT_VERSION})",
            report.version
        ));
    }
    let mut devices = 0usize;
    let mut gaps = 0usize;
    let mut fleet: BTreeMap<String, f64> = BTreeMap::new();
    for r in &report.replicas {
        gaps += r.ledger.gaps.len();
        for g in &r.ledger.gaps {
            if !g.dur.is_finite() || g.dur < 0.0 {
                return Err(format!(
                    "replica {:?}: gap at {} has invalid dur {}",
                    r.label, g.start, g.dur
                ));
            }
            *fleet.entry(g.cause.label().to_string()).or_insert(0.0) += g.dur;
        }
        for d in &r.ledger.devices {
            devices += 1;
            let refolded = r.ledger.refold_idle(d.device);
            if refolded.to_bits() != d.idle_total.to_bits() {
                return Err(format!(
                    "replica {:?} device {}: idle_total {} does not refold from \
                     its gaps (got {})",
                    r.label, d.device, d.idle_total, refolded
                ));
            }
            let mut again: BTreeMap<String, f64> = BTreeMap::new();
            for g in r.ledger.gaps.iter().filter(|g| g.device == d.device) {
                *again.entry(g.cause.label().to_string()).or_insert(0.0) += g.dur;
            }
            if again != d.by_cause {
                return Err(format!(
                    "replica {:?} device {}: by_cause buckets do not refold",
                    r.label, d.device
                ));
            }
        }
    }
    if fleet != report.fleet_by_cause {
        return Err("fleet_by_cause does not refold from the replicas' gaps".into());
    }
    Ok(BubbleReportCheck {
        replicas: report.replicas.len(),
        devices,
        gaps,
    })
}

// ---------------------------------------------------------------------------
// Chrome nested-span export
// ---------------------------------------------------------------------------

const SECS_TO_US: f64 = 1e6;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Track id for one request's span lane. Replicas are spaced a million
/// tids apart so merged fleet traces keep per-track (tid-keyed)
/// timestamp monotonicity in [`tdpipe_trace::validate_chrome_trace`].
fn span_tid(replica_idx: usize, request: u64) -> u64 {
    replica_idx as u64 * 1_000_000 + request + 1
}

/// Export the analysis as a Chrome trace with one track per request:
/// the seven span components laid end-to-end from the request's arrival
/// (durations clamped at 0 for display — the closure components can be
/// a few ulps negative). Passes [`tdpipe_trace::validate_chrome_trace`].
pub fn span_chrome_trace(analysis: &Analysis) -> String {
    let mut events: Vec<Value> = Vec::new();
    for (ri, r) in analysis.replicas.iter().enumerate() {
        for s in &r.spans {
            let tid = span_tid(ri, s.request);
            events.push(obj(vec![
                ("name", Value::Str("thread_name".into())),
                ("ph", Value::Str("M".into())),
                ("pid", Value::UInt(0)),
                ("tid", Value::UInt(tid)),
                (
                    "args",
                    obj(vec![(
                        "name",
                        Value::Str(format!("{} req {}", r.label, s.request)),
                    )]),
                ),
            ]));
            let mut cursor = s.arrival;
            for (name, v) in SpanComponents::NAMES.iter().zip(s.components.as_array()) {
                let dur = v.max(0.0);
                if dur > 0.0 {
                    events.push(obj(vec![
                        ("name", Value::Str((*name).into())),
                        ("ph", Value::Str("X".into())),
                        ("pid", Value::UInt(0)),
                        ("tid", Value::UInt(tid)),
                        ("ts", Value::Float(cursor * SECS_TO_US)),
                        ("dur", Value::Float(dur * SECS_TO_US)),
                        (
                            "args",
                            obj(vec![("request", Value::UInt(s.request))]),
                        ),
                    ]));
                }
                cursor += dur;
            }
        }
    }
    let doc = obj(vec![
        ("traceEvents", Value::Seq(events)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ]);
    serde_json::to_string(&doc).unwrap_or_else(|_| String::from("{}"))
}

// ---------------------------------------------------------------------------
// Metrics bridge
// ---------------------------------------------------------------------------

fn gauge(name: &str, help: &str, labels: &[(&str, &str)], v: f64) -> MetricEntry {
    MetricEntry {
        name: name.to_string(),
        help: help.to_string(),
        labels: labels
            .iter()
            .map(|(k, val)| (k.to_string(), val.to_string()))
            .collect(),
        value: MetricValue::Gauge(v),
    }
}

/// Export the analysis as registry-shaped metrics: per-component span
/// seconds, per-cause bubble seconds, the unlabelled `bubble_seconds`
/// total `metrics-diff` gates on, and the span count.
pub fn span_metrics(analysis: &Analysis) -> MetricsSnapshot {
    let mut metrics = Vec::new();
    let bubble_total = {
        let vals: Vec<f64> = analysis.fleet_by_cause.values().copied().collect();
        fold_seconds(&vals)
    };
    metrics.push(gauge(
        "bubble_seconds",
        "total attributed pipeline-bubble (stage idle) seconds",
        &[],
        bubble_total,
    ));
    for (cause, &secs) in &analysis.fleet_by_cause {
        metrics.push(gauge(
            "bubble_seconds_total",
            "attributed pipeline-bubble seconds by cause",
            &[("cause", cause)],
            secs,
        ));
    }
    let n_spans: usize = analysis.replicas.iter().map(|r| r.spans.len()).sum();
    metrics.push(MetricEntry {
        name: "span_requests".to_string(),
        help: "requests with a complete reconstructed span".to_string(),
        labels: BTreeMap::new(),
        value: MetricValue::Counter(n_spans as u64),
    });
    for (component, &secs) in &analysis.component_totals {
        metrics.push(gauge(
            "span_seconds_total",
            "per-request span seconds by lifecycle component",
            &[("component", component)],
            secs,
        ));
    }
    metrics.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    MetricsSnapshot {
        metrics,
        series: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Text renderings
// ---------------------------------------------------------------------------

/// Human-readable span summary: fleet component totals and shares, then
/// a per-replica line.
pub fn span_table(analysis: &Analysis) -> String {
    let n_spans: usize = analysis.replicas.iter().map(|r| r.spans.len()).sum();
    let incomplete: usize = analysis.replicas.iter().map(|r| r.incomplete).sum();
    let mut out = format!(
        "span report — {n_spans} request(s) across {} replica(s), {incomplete} incomplete\n",
        analysis.replicas.len()
    );
    let latency_total = analysis
        .component_totals
        .values()
        .fold(0.0f64, |a, &x| a + x);
    out.push_str(&format!(
        "{:<16} {:>12} {:>12} {:>8}\n",
        "component", "total s", "mean s", "share"
    ));
    for name in SpanComponents::NAMES {
        let total = analysis.component_totals.get(name).copied().unwrap_or(0.0);
        let mean = if n_spans > 0 {
            total / n_spans as f64
        } else {
            0.0
        };
        let share = if latency_total > 0.0 {
            total / latency_total
        } else {
            0.0
        };
        out.push_str(&format!(
            "{name:<16} {total:>12.4} {mean:>12.4} {share:>7.1}%\n",
            share = share * 100.0
        ));
    }
    for r in &analysis.replicas {
        let ttft: f64 = r.spans.iter().map(|s| s.ttft).sum();
        let lat: f64 = r.spans.iter().map(|s| s.latency).sum();
        let n = r.spans.len().max(1) as f64;
        out.push_str(&format!(
            "replica {:<12} {:>5} span(s)  mean ttft {:>9.4} s  mean latency {:>9.4} s\n",
            r.label,
            r.spans.len(),
            ttft / n,
            lat / n
        ));
    }
    out
}

/// Human-readable bubble summary: fleet per-cause totals, then per
/// replica the critical path's top contributors.
pub fn bubble_table(analysis: &Analysis) -> String {
    let total_idle: f64 = analysis.fleet_by_cause.values().sum();
    let mut out = format!(
        "bubble ledger — {:.4} idle second(s) across {} replica(s)\n",
        total_idle,
        analysis.replicas.len()
    );
    out.push_str(&format!("{:<20} {:>12} {:>8}\n", "cause", "seconds", "share"));
    // Descending seconds, names as tie-break — the reading order.
    let mut rows: Vec<(&String, f64)> = analysis
        .fleet_by_cause
        .iter()
        .map(|(k, &v)| (k, v))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    for (cause, secs) in rows {
        let share = if total_idle > 0.0 { secs / total_idle } else { 0.0 };
        out.push_str(&format!(
            "{cause:<20} {secs:>12.4} {share:>7.1}%\n",
            share = share * 100.0
        ));
    }
    for r in &analysis.replicas {
        out.push_str(&format!(
            "replica {:<12} makespan {:>10.4} s  critical device {}:",
            r.label, r.makespan, r.critical.device
        ));
        for c in r.critical.contributors.iter().take(3) {
            out.push_str(&format!(" {} {:.1}%", c.name, c.share * 100.0));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_kvcache::Phase;
    use tdpipe_sim::{SegmentKind, Timeline};
    use tdpipe_trace::{AdmitReason, PrefillStopReason, TraceEvent};

    fn journal() -> FlightRecorder {
        let mut tl = Timeline::new(true);
        tl.record(0, 1.0, 2.0, SegmentKind::Prefill, 1);
        tl.record(0, 2.5, 6.0, SegmentKind::Decode, 2);
        tl.record(1, 1.25, 2.25, SegmentKind::Prefill, 1);
        tl.record(1, 2.75, 6.5, SegmentKind::Decode, 2);
        let mut r = FlightRecorder::with_capacity(16);
        r.record(
            1.0,
            TraceEvent::PrefillLaunch {
                seq: 1,
                batch: 1,
                tokens: 128,
                ready: 1.0,
            },
        );
        r.record(
            1.0,
            TraceEvent::PrefillAdmit {
                request: 0,
                tokens: 128,
                reason: AdmitReason::FirstPrefill,
            },
        );
        r.record(
            1.0,
            TraceEvent::PrefillStop {
                reason: PrefillStopReason::Exhausted,
                admitted: 1,
            },
        );
        r.record(2.25, TraceEvent::PrefillDone { request: 0 });
        r.record(
            2.4,
            TraceEvent::PhaseSwitch {
                from: Phase::Prefill,
                to: Phase::Decode,
            },
        );
        r.record(
            6.5,
            TraceEvent::RequestFinish {
                request: 0,
                arrival: 0.5,
                first_token: 2.25,
            },
        );
        r.append_stage_events(&tl, 6.5);
        r
    }

    fn analysis() -> Analysis {
        let j = journal();
        analyze(&[("engine".to_string(), &j)])
    }

    #[test]
    fn reports_validate_and_are_byte_stable() {
        let a = analysis();
        let span_json = span_report_json(&a);
        let check = validate_span_report(&span_json).expect("span report valid");
        assert_eq!(check.spans, 1);
        assert_eq!(check.incomplete, 0);
        let bubble_json = bubble_report_json(&a);
        let bcheck = validate_bubble_report(&bubble_json).expect("bubble report valid");
        assert_eq!(bcheck.replicas, 1);
        assert!(bcheck.gaps > 0);
        // Re-analysis of the same journal is byte-identical.
        let b = analysis();
        assert_eq!(span_json, span_report_json(&b));
        assert_eq!(bubble_json, bubble_report_json(&b));
    }

    #[test]
    fn validators_reject_tampered_totals() {
        let a = analysis();
        let span_json = span_report_json(&a);
        // Flip one totals digit: exactness check must fire.
        let tampered = span_json.replacen("\"queue\":0.5", "\"queue\":0.6", 1);
        assert_ne!(span_json, tampered, "fixture must contain the queue total");
        assert!(validate_span_report(&tampered).is_err());

        let bubble_json = bubble_report_json(&a);
        let tampered = bubble_json.replacen("\"idle_total\":", "\"idle_total\":1e9,\"x\":", 1);
        assert!(validate_bubble_report(&tampered).is_err());
        assert!(validate_span_report("not json").is_err());
        assert!(validate_bubble_report("{}").is_err());
    }

    #[test]
    fn chrome_export_passes_trace_validation() {
        let a = analysis();
        let json = span_chrome_trace(&a);
        let check = tdpipe_trace::validate_chrome_trace(&json).expect("valid chrome trace");
        assert_eq!(check.tracks, 1);
        assert!(check.complete_events >= 3);
    }

    #[test]
    fn fleet_tids_do_not_collide_across_replicas() {
        let j0 = journal();
        let j1 = journal();
        let a = analyze(&[("r0".to_string(), &j0), ("r1".to_string(), &j1)]);
        let json = span_chrome_trace(&a);
        let check = tdpipe_trace::validate_chrome_trace(&json).expect("valid fleet trace");
        assert_eq!(check.tracks, 2, "one lane per (replica, request)");
    }

    #[test]
    fn metrics_bridge_exports_sorted_entries() {
        let a = analysis();
        let snap = span_metrics(&a);
        assert!(snap.scalar("bubble_seconds").is_some());
        assert_eq!(snap.scalar("span_requests"), Some(1.0));
        assert!(snap
            .get_labeled("span_seconds_total", &[("component", "queue")])
            .is_some());
        // Sorted by (name, labels): serialization is byte-stable.
        let json_a = serde_json::to_string(&snap).unwrap();
        let json_b = serde_json::to_string(&span_metrics(&a)).unwrap();
        assert_eq!(json_a, json_b);
        let mut sorted = snap.metrics.clone();
        sorted.sort_by(|x, y| (&x.name, &x.labels).cmp(&(&y.name, &y.labels)));
        assert_eq!(sorted, snap.metrics);
    }

    #[test]
    fn text_tables_render_every_section() {
        let a = analysis();
        let st = span_table(&a);
        assert!(st.contains("span report"));
        assert!(st.contains("queue"));
        assert!(st.contains("replica engine"));
        let bt = bubble_table(&a);
        assert!(bt.contains("bubble ledger"));
        assert!(bt.contains("phase_switch") || bt.contains("warmup"));
        assert!(bt.contains("critical device"));
    }
}
