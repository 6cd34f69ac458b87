//! The flight recorder's end-to-end contract: exports are schema-valid
//! and deterministic, their floats print exactly as Rust's `{}` does and
//! read back to the same bytes, turning recording on or off never
//! changes the schedule itself, and the stage events the journal derives
//! from its stored segments are the ones the timeline gives.

#[path = "../crates/trace/tests/support/stage_reference.rs"]
mod stage_reference;

use serde::Value;
use stage_reference::{reference_stage_events, same_events};
use tdpipe::baselines::PpSbEngine;
use tdpipe::core::config::EngineConfig;
use tdpipe::core::engine::RunOutcome;
use tdpipe::core::{TdPipeConfig, TdPipeEngine};
use tdpipe::hw::NodeSpec;
use tdpipe::model::ModelSpec;
use tdpipe::predictor::OraclePredictor;
use tdpipe::trace::{
    chrome_trace, decision_table, validate_chrome_trace, FlightRecorder, TraceEvent,
};
use tdpipe::workload::{ShareGptLikeConfig, Trace};

fn run(trace: &Trace, cfg: TdPipeConfig) -> RunOutcome {
    TdPipeEngine::new(ModelSpec::llama2_13b(), &NodeSpec::l20(4), cfg)
        .expect("13B fits 4xL20")
        .run(trace, &OraclePredictor)
}

/// TD-Pipe's own defaults with only the observer switches set.
fn observed(record_trace: bool, record_timeline: bool) -> TdPipeConfig {
    let mut cfg = TdPipeConfig::default();
    cfg.engine.record_trace = record_trace;
    cfg.engine.record_timeline = record_timeline;
    cfg
}

fn traced_cfg() -> TdPipeConfig {
    observed(true, true)
}

/// What Rust's `{}` prints for `f`, with the JSON writer's rules on top:
/// a `.0` on integral values and `null` for the non-finite.
fn display_float(f: f64) -> String {
    if !f.is_finite() {
        return "null".into();
    }
    let text = format!("{f}");
    if text.contains('.') {
        text
    } else {
        text + ".0"
    }
}

/// Every float in a JSON tree.
fn floats_in(v: &Value, out: &mut Vec<f64>) {
    match v {
        Value::Float(f) => out.push(*f),
        Value::Seq(xs) => xs.iter().for_each(|x| floats_in(x, out)),
        Value::Map(entries) => entries.iter().for_each(|(_, x)| floats_in(x, out)),
        _ => {}
    }
}

#[test]
fn chrome_export_is_schema_valid_and_covers_every_segment() {
    let trace = ShareGptLikeConfig::small(120, 11).generate();
    let out = run(&trace, traced_cfg());
    let json = chrome_trace(&out.timeline, &out.journal);

    // The validator enforces: parseable JSON, a traceEvents array, finite
    // non-negative per-track monotone timestamps, valid durations.
    let check = validate_chrome_trace(&json).expect("schema-valid export");

    // Every timeline segment appears as exactly one complete event, and
    // every journal decision as exactly one instant event.
    assert_eq!(check.complete_events, out.timeline.segments().len());
    assert_eq!(check.instant_events, out.journal.events().len());
    assert!(check.instant_events > 0, "a real run makes decisions");

    // One engine track plus one track per device that did work.
    let devices: std::collections::BTreeSet<u32> =
        out.timeline.segments().iter().map(|s| s.device).collect();
    assert_eq!(check.tracks, 1 + devices.len());
}

#[test]
fn journal_is_byte_identical_across_identical_runs() {
    let trace = ShareGptLikeConfig::small(150, 23).generate();
    let a = run(&trace, traced_cfg());
    let b = run(&trace, traced_cfg());
    assert_eq!(a.journal.to_json(), b.journal.to_json());
    assert_eq!(
        chrome_trace(&a.timeline, &a.journal),
        chrome_trace(&b.timeline, &b.journal)
    );
    assert_eq!(decision_table(&a.journal), decision_table(&b.journal));
}

#[test]
fn recording_does_not_perturb_the_schedule() {
    // The recorder must be a pure observer: the report with tracing on
    // must equal the report with it off.
    let trace = ShareGptLikeConfig::small(150, 7).generate();
    let on = run(&trace, traced_cfg());
    let off = run(&trace, observed(false, false));
    assert_eq!(on.report, off.report);
    assert_eq!(on.phases, off.phases);
    assert!(on.journal.events().len() > 0);
    assert!(off.journal.is_empty(), "disabled recorder stays empty");
}

/// `cfg` with the metrics plane, and so Fig. 12's samples, recording.
fn metered(mut cfg: TdPipeConfig) -> TdPipeConfig {
    cfg.engine.record_metrics = true;
    cfg
}

#[test]
fn occupancy_is_sampled_whatever_the_recorder_switches() {
    // On a metered run Fig. 12's data flows whatever the journal and
    // timeline switches say; they neither add nor drop samples.
    let trace = ShareGptLikeConfig::small(120, 5).generate();
    let traced = run(&trace, metered(traced_cfg()));
    let plain = run(&trace, metered(observed(false, false)));
    assert!(!plain.occupancy.is_empty());
    assert!(traced.occupancy.samples().eq(plain.occupancy.samples()));
    assert_eq!(traced.report, plain.report);
}

#[test]
fn unmetered_runs_keep_only_the_occupancy_peak() {
    // Off the metrics plane the series is not kept, but its peak is, and
    // dropping the samples changes nothing the run reports.
    let trace = ShareGptLikeConfig::small(120, 5).generate();
    let kept = run(&trace, metered(observed(false, false)));
    let peak_only = run(&trace, observed(false, false));
    assert!(!kept.occupancy.is_empty());
    assert_eq!(peak_only.occupancy.len(), 0);
    assert_eq!(
        peak_only.occupancy.peak().to_bits(),
        kept.occupancy.peak().to_bits()
    );
    let json = |o: &RunOutcome| serde_json::to_string(&o.report).expect("serialize report");
    assert_eq!(json(&peak_only), json(&kept));
    let phases = |o: &RunOutcome| format!("{:?}", o.phases);
    assert_eq!(phases(&peak_only), phases(&kept));
}

#[test]
fn journal_narrates_the_phase_structure() {
    let trace = ShareGptLikeConfig::small(120, 11).generate();
    let out = run(&trace, traced_cfg());

    // Phase switches in the journal match the engine's own count.
    let switches = out
        .journal
        .events()
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::PhaseSwitch { .. }))
        .count();
    assert_eq!(switches, out.report.phase_switches as usize);

    // Every request admission is journaled exactly once per prefill
    // (first-time prefills + recompute re-entries).
    let admits = out
        .journal
        .events()
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::PrefillAdmit { .. }))
        .count();
    assert!(
        admits >= trace.len(),
        "every request prefills at least once ({admits} < {})",
        trace.len()
    );

    // The decision table renders one row per phase record.
    let table = decision_table(&out.journal);
    assert!(table.lines().count() >= out.phases.len());
}

/// On real TD-Pipe and PP+SB runs, the stage events derived from the
/// journal's segments, before and after a JSON round trip, are the
/// reference loop's over the run's timeline, event for event.
#[test]
fn derived_stage_events_match_the_reference_on_real_runs() {
    let trace = ShareGptLikeConfig::small(600, 9).generate();
    let pp_cfg = EngineConfig {
        record_trace: true,
        record_timeline: true,
        ..EngineConfig::default()
    };
    let pp = PpSbEngine::new(ModelSpec::llama2_13b(), &NodeSpec::l20(4), pp_cfg)
        .expect("13B fits 4xL20")
        .run(&trace, &OraclePredictor);
    for (name, out) in [("TD-Pipe", run(&trace, traced_cfg())), ("PP+SB", pp)] {
        let want = reference_stage_events(&out.timeline, out.report.makespan);
        assert!(want.len() > 1_000, "{name}: {} stage events", want.len());
        let back: FlightRecorder = serde_json::from_str(&out.journal.to_json()).unwrap();
        for journal in [&out.journal, &back] {
            let got: Vec<_> = journal.stage_events().collect();
            assert!(
                same_events(&got, &want),
                "{name}: derived stage events drifted"
            );
            assert_eq!(journal.len(), out.journal.events().len() + want.len());
        }
    }
}

#[test]
fn journal_floats_print_as_display_does_and_round_trip() {
    let trace = ShareGptLikeConfig::small(2_000, 42).generate();
    let mut cfg = traced_cfg();
    cfg.engine.record_metrics = true;
    let out = run(&trace, cfg);
    let json = out.journal.to_json();

    // The event times straight from the recorder, then every float the
    // document holds (the payload fields among them).
    let mut floats: Vec<f64> = out
        .journal
        .events()
        .iter()
        .copied()
        .chain(out.journal.stage_events())
        .map(|e| e.t)
        .collect();
    floats_in(&serde_json::from_str::<Value>(&json).unwrap(), &mut floats);
    assert!(floats.len() > 100_000, "{} floats", floats.len());
    let mut text = String::new();
    for &f in &floats {
        text.clear();
        serde::push_float(&mut text, f);
        assert_eq!(text, display_float(f), "{:#018x}", f.to_bits());
    }

    let back: FlightRecorder = serde_json::from_str(&json).unwrap();
    assert_eq!(back.to_json(), json);
}
