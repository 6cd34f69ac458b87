//! The flight recorder's end-to-end contract: exports are schema-valid
//! and deterministic, and turning recording on or off never changes the
//! schedule itself.

use tdpipe::core::engine::RunOutcome;
use tdpipe::core::{TdPipeConfig, TdPipeEngine};
use tdpipe::hw::NodeSpec;
use tdpipe::model::ModelSpec;
use tdpipe::predictor::OraclePredictor;
use tdpipe::trace::{chrome_trace, decision_table, validate_chrome_trace, TraceEvent};
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

#[test]
fn occupancy_is_sampled_whatever_the_recorder_switches() {
    // Fig. 12's data flows on every run; the recorder switches neither
    // add nor drop samples.
    let trace = ShareGptLikeConfig::small(120, 5).generate();
    let traced = run(&trace, traced_cfg());
    let plain = run(&trace, observed(false, false));
    assert!(!plain.occupancy.samples().is_empty());
    assert_eq!(traced.occupancy.samples(), plain.occupancy.samples());
    assert_eq!(traced.report, plain.report);
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
