//! The bubble ledger: every idle second on every device, attributed.
//!
//! TD-Pipe's central claim is about *pipeline bubbles* — seconds a stage
//! sits idle while the run is in flight. The flight recorder already
//! journals each idle gap as a `StageIdle` event (bounded mode adds the
//! warm-up and drain boundary gaps, so per device busy + idle tiles the
//! whole run). This module walks those gaps in journal order and assigns
//! each one a single [`BubbleCause`], producing a [`BubbleLedger`] whose
//! accounting identity is exact by construction:
//!
//! > per device, the in-order left fold of attributed gap durations is
//! > **bit-identical** to the in-order left fold of that device's
//! > `StageIdle` durations in the journal —
//!
//! because the attributed gaps *are* those events, in the same order,
//! partitioned by cause without reordering. The per-cause buckets are
//! accumulated in the same sweep, so a validator replaying the gap list
//! reproduces every bucket bit-exactly.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tdpipe_kvcache::Phase;
use tdpipe_trace::{FlightRecorder, PrefillStopReason, TraceEvent};

use crate::span::fold_seconds;

/// Why a device sat idle for one gap. Causes are checked in declaration
/// order (top wins) — the priority encodes specificity: structural
/// boundary idleness first, then idleness with a journalled trigger
/// inside the gap, then the phase-implied fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BubbleCause {
    /// Pipeline warm-up: the device has not executed anything yet (the
    /// fill ramp at t = 0, or after a long empty-system stretch).
    Warmup,
    /// Pipeline drain: the device is past its last segment, waiting for
    /// downstream stages to finish the run.
    Drain,
    /// The whole engine fast-forwarded to the next arrival — nothing was
    /// resident and nothing had arrived (overlaps an `ArrivalWait`).
    ArrivalStarvation,
    /// A prefill↔decode phase boundary fell inside the gap: the §2.3
    /// phase-switch drain bubble TD-Pipe exists to shrink.
    PhaseSwitch,
    /// KV pressure relief fell inside the gap (eviction, session-prefix
    /// drop, or a memory-limited prefill stop).
    MemoryStall,
    /// A §3.4 steal decision fell inside the gap — idleness from decode
    /// batches being rebalanced rather than executed.
    StealImbalance,
    /// Decode-phase fallback: the stage is waiting on the sequential
    /// token dependency (micro-batch too small to fill the pipeline).
    DecodeDependency,
    /// Prefill-phase fallback: the stage is waiting on batch assembly /
    /// launch serialisation between prefill batches.
    LaunchSerialization,
}

impl BubbleCause {
    /// All causes, in priority (= declaration) order.
    pub const ALL: [BubbleCause; 8] = [
        BubbleCause::Warmup,
        BubbleCause::Drain,
        BubbleCause::ArrivalStarvation,
        BubbleCause::PhaseSwitch,
        BubbleCause::MemoryStall,
        BubbleCause::StealImbalance,
        BubbleCause::DecodeDependency,
        BubbleCause::LaunchSerialization,
    ];

    /// Stable snake_case label (JSON bucket keys, metric label values).
    pub const fn label(&self) -> &'static str {
        match self {
            BubbleCause::Warmup => "warmup",
            BubbleCause::Drain => "drain",
            BubbleCause::ArrivalStarvation => "arrival_starvation",
            BubbleCause::PhaseSwitch => "phase_switch",
            BubbleCause::MemoryStall => "memory_stall",
            BubbleCause::StealImbalance => "steal_imbalance",
            BubbleCause::DecodeDependency => "decode_dependency",
            BubbleCause::LaunchSerialization => "launch_serialization",
        }
    }
}

/// One attributed idle gap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttributedBubble {
    /// Device (pipeline stage) index.
    pub device: u32,
    /// Gap start (virtual seconds).
    pub start: f64,
    /// Gap length (virtual seconds) — exactly the `StageIdle` duration.
    pub dur: f64,
    /// The single cause this gap is charged to.
    pub cause: BubbleCause,
}

/// One device's idle accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceBubbles {
    /// Device (pipeline stage) index.
    pub device: u32,
    /// Busy seconds (in-order fold of the device's `StageBusy` durations).
    pub busy: f64,
    /// Idle seconds: the in-order fold of the device's attributed gap
    /// durations — bit-equal to folding its journal `StageIdle` events.
    pub idle_total: f64,
    /// Idle seconds per cause label, accumulated in the same sweep.
    pub by_cause: BTreeMap<String, f64>,
}

/// The full attribution of a journal's idle time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BubbleLedger {
    /// Per-device accounting, ascending device index.
    pub devices: Vec<DeviceBubbles>,
    /// Every attributed gap, in journal (`stage_events`) order.
    pub gaps: Vec<AttributedBubble>,
    /// Idle seconds per cause across all devices, accumulated by
    /// sweeping `gaps` in order.
    pub by_cause: BTreeMap<String, f64>,
}

impl BubbleLedger {
    /// In-order idle fold for one device — the exactness reference:
    /// equals `devices[i].idle_total` bit-for-bit.
    pub fn refold_idle(&self, device: u32) -> f64 {
        let durs: Vec<f64> = self
            .gaps
            .iter()
            .filter(|g| g.device == device)
            .map(|g| g.dur)
            .collect();
        fold_seconds(&durs)
    }
}

/// Trigger timestamps extracted from the engine-event journal, each in
/// ascending time order (the journal's order), for interval lookups.
struct Triggers {
    /// `[t, until)` arrival-starvation windows.
    arrival_windows: Vec<(f64, f64)>,
    /// `PhaseSwitch` instants.
    switches: Vec<f64>,
    /// `Evict` / `SessionDrop` / `PrefillStop{Memory}` instants.
    memory: Vec<f64>,
    /// `StealWithhold` / `StealSupplement` instants.
    steals: Vec<f64>,
    /// Phase timeline: `(since, phase)`, starting `(0.0, Prefill)`.
    phases: Vec<(f64, Phase)>,
}

impl Triggers {
    fn from_journal(journal: &FlightRecorder) -> Self {
        let mut t = Triggers {
            arrival_windows: Vec::new(),
            switches: Vec::new(),
            memory: Vec::new(),
            steals: Vec::new(),
            phases: vec![(0.0, Phase::Prefill)],
        };
        for e in journal.events() {
            match e.event {
                TraceEvent::ArrivalWait { until } => t.arrival_windows.push((e.t, until)),
                TraceEvent::PhaseSwitch { to, .. } => {
                    t.switches.push(e.t);
                    t.phases.push((e.t, to));
                }
                TraceEvent::Evict { .. } | TraceEvent::SessionDrop { .. } => t.memory.push(e.t),
                TraceEvent::PrefillStop {
                    reason: PrefillStopReason::Memory,
                    ..
                } => t.memory.push(e.t),
                TraceEvent::StealWithhold { .. } | TraceEvent::StealSupplement { .. } => {
                    t.steals.push(e.t)
                }
                _ => {}
            }
        }
        t
    }

    /// Any instant from sorted `times` inside the half-open `[start, end)`?
    fn any_in(times: &[f64], start: f64, end: f64) -> bool {
        let i = times.partition_point(|&x| x < start);
        i < times.len() && times[i] < end
    }

    /// Does `[start, end)` overlap any arrival-starvation window?
    fn starved(&self, start: f64, end: f64) -> bool {
        // Windows are few and time-ordered; a linear scan is fine and
        // keeps the overlap predicate obvious.
        self.arrival_windows
            .iter()
            .any(|&(a, b)| a < end && start < b)
    }

    /// The engine phase in effect at instant `t`.
    ///
    /// At an instant where a phase begins, `since <= t` reads the new
    /// phase and `since < t` the old one; [`classify`] never asks there.
    /// Every `phases` entry after the first is a `PhaseSwitch` instant,
    /// and `classify` tests `switches` first, so a gap (of positive
    /// length) that starts at one is `PhaseSwitch` before this is read.
    /// The first entry, `0.0`, is the initial phase either way.
    fn phase_at(&self, t: f64) -> Phase {
        let i = self.phases.partition_point(|&(since, _)| since <= t);
        self.phases[i.saturating_sub(1)].1
    }
}

/// Classify one gap. `seen_busy` — the device had a segment before this
/// gap; `last_busy_end` — end of the device's final segment (drain test).
fn classify(
    trig: &Triggers,
    start: f64,
    dur: f64,
    seen_busy: bool,
    last_busy_end: f64,
) -> BubbleCause {
    let end = start + dur;
    if !seen_busy {
        return BubbleCause::Warmup;
    }
    if start >= last_busy_end {
        return BubbleCause::Drain;
    }
    if trig.starved(start, end) {
        return BubbleCause::ArrivalStarvation;
    }
    if Triggers::any_in(&trig.switches, start, end) {
        return BubbleCause::PhaseSwitch;
    }
    if Triggers::any_in(&trig.memory, start, end) {
        return BubbleCause::MemoryStall;
    }
    if Triggers::any_in(&trig.steals, start, end) {
        return BubbleCause::StealImbalance;
    }
    match trig.phase_at(start) {
        Phase::Decode => BubbleCause::DecodeDependency,
        Phase::Prefill => BubbleCause::LaunchSerialization,
    }
}

/// Attribute every `StageIdle` gap in `journal` to a cause.
///
/// Requires a journal whose stage events were appended (bounded mode
/// recommended — without it warm-up/drain gaps are absent, and the
/// ledger accounts only the *interior* idleness). Deterministic: a pure
/// in-order sweep with `BTreeMap` buckets.
pub fn attribute_bubbles(journal: &FlightRecorder) -> BubbleLedger {
    let trig = Triggers::from_journal(journal);

    // Per device: last busy end (for the drain test) — one pre-pass.
    let mut last_busy: BTreeMap<u32, f64> = BTreeMap::new();
    for e in journal.stage_events() {
        if let TraceEvent::StageBusy { device, dur, .. } = e.event {
            let end = e.t + dur;
            let slot = last_busy.entry(device).or_insert(end);
            if end > *slot {
                *slot = end;
            }
        }
    }

    let mut gaps: Vec<AttributedBubble> = Vec::new();
    let mut per_device: BTreeMap<u32, DeviceBubbles> = BTreeMap::new();
    let mut seen_busy: BTreeMap<u32, bool> = BTreeMap::new();
    for e in journal.stage_events() {
        match e.event {
            TraceEvent::StageBusy { device, dur, .. } => {
                seen_busy.insert(device, true);
                let d = per_device.entry(device).or_insert_with(|| DeviceBubbles {
                    device,
                    busy: 0.0,
                    idle_total: 0.0,
                    by_cause: BTreeMap::new(),
                });
                d.busy += dur;
            }
            TraceEvent::StageIdle { device, dur } => {
                let cause = classify(
                    &trig,
                    e.t,
                    dur,
                    seen_busy.get(&device).copied().unwrap_or(false),
                    last_busy.get(&device).copied().unwrap_or(f64::INFINITY),
                );
                gaps.push(AttributedBubble {
                    device,
                    start: e.t,
                    dur,
                    cause,
                });
                let d = per_device.entry(device).or_insert_with(|| DeviceBubbles {
                    device,
                    busy: 0.0,
                    idle_total: 0.0,
                    by_cause: BTreeMap::new(),
                });
                d.idle_total += dur;
                *d.by_cause.entry(cause.label().to_string()).or_insert(0.0) += dur;
            }
            _ => {}
        }
    }

    // Fleet (per-journal) buckets: same sweep order as `gaps`.
    let mut by_cause: BTreeMap<String, f64> = BTreeMap::new();
    for g in &gaps {
        *by_cause.entry(g.cause.label().to_string()).or_insert(0.0) += g.dur;
    }

    BubbleLedger {
        devices: per_device.into_values().collect(),
        gaps,
        by_cause,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_sim::{SegmentKind, Timeline};

    /// Two devices, one phase switch, one eviction, one arrival wait —
    /// every classifier branch exercised.
    fn journal() -> FlightRecorder {
        let mut tl = Timeline::new(true);
        // Device 0: busy [1,2] (prefill), idle [2,3], busy [3,4] (decode),
        //           idle [4,6], busy [6,7].
        tl.record(0, 1.0, 2.0, SegmentKind::Prefill, 1);
        tl.record(0, 3.0, 4.0, SegmentKind::Decode, 2);
        tl.record(0, 6.0, 7.0, SegmentKind::Decode, 3);
        // Device 1: busy [1.5,2.5], then nothing (drain from 2.5).
        tl.record(1, 1.5, 2.5, SegmentKind::Prefill, 1);
        let mut r = FlightRecorder::with_capacity(8);
        r.record(0.0, TraceEvent::ArrivalWait { until: 0.75 });
        r.record(
            2.5,
            TraceEvent::PhaseSwitch {
                from: Phase::Prefill,
                to: Phase::Decode,
            },
        );
        r.record(
            4.5,
            TraceEvent::Evict {
                mode: tdpipe_trace::EvictMode::Recompute,
                victim: 9,
            },
        );
        r.append_stage_events(&tl, 8.0);
        r
    }

    #[test]
    fn every_gap_gets_the_priority_cause() {
        let ledger = attribute_bubbles(&journal());
        let causes: Vec<(u32, f64, BubbleCause)> = ledger
            .gaps
            .iter()
            .map(|g| (g.device, g.start, g.cause))
            .collect();
        assert_eq!(
            causes,
            vec![
                // Device 0: warm-up [0,1] (ArrivalWait overlaps, but the
                // device has not run yet — warm-up wins by priority).
                (0, 0.0, BubbleCause::Warmup),
                // [2,3]: the 2.5 phase switch falls inside.
                (0, 2.0, BubbleCause::PhaseSwitch),
                // [4,6]: the 4.5 eviction falls inside.
                (0, 4.0, BubbleCause::MemoryStall),
                // [7,8]: past device 0's last segment — drain.
                (0, 7.0, BubbleCause::Drain),
                // Device 1 warm-up [0,1.5].
                (1, 0.0, BubbleCause::Warmup),
                // Device 1 [2.5,8]: past its last segment — drain.
                (1, 2.5, BubbleCause::Drain),
            ]
        );
    }

    #[test]
    fn idle_totals_refold_bit_exactly() {
        let ledger = attribute_bubbles(&journal());
        for d in &ledger.devices {
            assert_eq!(
                d.idle_total.to_bits(),
                ledger.refold_idle(d.device).to_bits(),
                "device {}",
                d.device
            );
            let bucket_sum: f64 = {
                // Recompute buckets by sweeping the gap list in order —
                // must land on the ledger's buckets bit-for-bit.
                let mut again: BTreeMap<String, f64> = BTreeMap::new();
                for g in ledger.gaps.iter().filter(|g| g.device == d.device) {
                    *again.entry(g.cause.label().to_string()).or_insert(0.0) += g.dur;
                }
                assert_eq!(again, d.by_cause, "device {}", d.device);
                again.values().sum()
            };
            // Buckets partition the gaps; their sum only reorders the
            // fold, so allow the comparison to be semantic here.
            assert!((bucket_sum - d.idle_total).abs() < 1e-12);
        }
    }

    #[test]
    fn decode_and_prefill_fallbacks_split_by_phase() {
        let mut tl = Timeline::new(true);
        tl.record(0, 0.0, 1.0, SegmentKind::Prefill, 1);
        tl.record(0, 1.5, 2.0, SegmentKind::Prefill, 1);
        tl.record(0, 3.5, 4.0, SegmentKind::Decode, 2);
        tl.record(0, 4.5, 5.0, SegmentKind::Decode, 2);
        let mut r = FlightRecorder::with_capacity(2);
        r.record(
            3.0,
            TraceEvent::PhaseSwitch {
                from: Phase::Prefill,
                to: Phase::Decode,
            },
        );
        // The run spans the device's segments: interior gaps only.
        r.append_stage_events(&tl, 5.0);
        let ledger = attribute_bubbles(&r);
        let causes: Vec<BubbleCause> = ledger.gaps.iter().map(|g| g.cause).collect();
        assert_eq!(
            causes,
            vec![
                // [1,1.5]: prefill phase, no trigger → launch serialisation.
                BubbleCause::LaunchSerialization,
                // [2,3.5]: the 3.0 switch falls inside.
                BubbleCause::PhaseSwitch,
                // [4,4.5]: decode phase, no trigger → decode dependency.
                BubbleCause::DecodeDependency,
            ]
        );
    }

    #[test]
    fn arrival_windows_are_half_open() {
        let mut tl = Timeline::new(true);
        tl.record(0, 0.0, 1.0, SegmentKind::Prefill, 1);
        tl.record(0, 2.0, 3.0, SegmentKind::Prefill, 2);
        tl.record(0, 4.0, 5.0, SegmentKind::Prefill, 3);
        tl.record(0, 6.0, 7.0, SegmentKind::Prefill, 4);
        let mut r = FlightRecorder::with_capacity(2);
        r.record(2.0, TraceEvent::ArrivalWait { until: 3.0 });
        r.record(5.5, TraceEvent::ArrivalWait { until: 6.5 });
        r.append_stage_events(&tl, 7.0);
        let ledger = attribute_bubbles(&r);
        let causes: Vec<(f64, BubbleCause)> =
            ledger.gaps.iter().map(|g| (g.start, g.cause)).collect();
        assert_eq!(
            causes,
            vec![
                // [1,2] ends exactly where the [2,3) window starts.
                (1.0, BubbleCause::LaunchSerialization),
                // [3,4] starts exactly at the window's `until`.
                (3.0, BubbleCause::LaunchSerialization),
                // [5,6] overlaps the [5.5,6.5) window.
                (5.0, BubbleCause::ArrivalStarvation),
            ]
        );
    }

    #[test]
    fn fleet_buckets_cover_every_gap() {
        let ledger = attribute_bubbles(&journal());
        let n: usize = ledger.gaps.len();
        assert!(n > 0);
        let total: f64 = ledger.by_cause.values().sum();
        let direct: f64 = ledger.gaps.iter().map(|g| g.dur).sum();
        assert!((total - direct).abs() < 1e-12);
    }
}
