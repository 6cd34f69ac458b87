//! The structured event journal: what the scheduler decided, and when.
//!
//! Every event is stamped with the engine's *virtual* clock (seconds from
//! t = 0), never a wall clock, so a journal is a pure function of the
//! workload + configuration and byte-identical across identical runs.

use serde::{DeError, Deserialize, Deserializer, Serialize, Serializer};
use tdpipe_kvcache::Phase;
use tdpipe_sim::{SegmentKind, Timeline};

/// Why a request was admitted into a prefill batch (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmitReason {
    /// The request's first prefill: a fresh prompt from the pending queue.
    FirstPrefill,
    /// Re-prefill of a previously evicted request (recompute mode).
    Recompute,
    /// Swap-in of a previously swapped-out request's KV blocks.
    SwapIn,
}

/// Why prefill-batch assembly halted (§3.3 Algorithm 1 stop conditions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrefillStopReason {
    /// The greedy planner's futurePoints simulation predicted KV overflow
    /// if one more prompt were admitted — the headline AI-based stop.
    Overflow,
    /// Not enough free KV blocks (after the watermark) to place the next
    /// prompt right now.
    Memory,
    /// The next pending request has not arrived yet at the batch's launch
    /// time.
    Arrival,
    /// Admitting the next prompt would exceed the per-batch prefill token
    /// budget.
    Budget,
    /// The pending queue is empty — nothing left to prefill.
    Exhausted,
}

/// How a decode-phase eviction reclaimed KV blocks (§3.2 memory pressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvictMode {
    /// Blocks freed; the request will re-prefill from scratch later.
    Recompute,
    /// Blocks copied out to host memory; swapped back in later.
    Swap,
}

/// One scheduler decision, without its timestamp (see [`TimedEvent`]).
///
/// Serialized externally-tagged (`{"PrefillStop": {...}}`), which is what
/// both the journal byte-comparison and the Chrome-trace `args` use.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A request entered the current prefill batch.
    PrefillAdmit {
        /// Request id.
        request: u64,
        /// Tokens admitted: prompt (+ recomputed) tokens for a prefill,
        /// resident tokens for a swap-in.
        tokens: u64,
        /// Why this admission happened.
        reason: AdmitReason,
    },
    /// Prefill-batch assembly halted. Emitted once per launched batch and
    /// once at phase end; the *last* one in a phase is why the phase ended.
    PrefillStop {
        /// Stop condition that fired.
        reason: PrefillStopReason,
        /// Requests admitted into the phase so far (cumulative).
        admitted: u64,
    },
    /// A packed prefill batch was handed to the executor. Recorded at the
    /// packing clock; `ready` is the (later) instant the executor can
    /// actually start it, after the launch-overhead serialisation. The
    /// `PrefillAdmit` events for the batch's members follow immediately,
    /// so span reconstruction can associate each admit with its batch.
    PrefillLaunch {
        /// Launch sequence number within the run (1-based).
        seq: u64,
        /// Requests in the batch.
        batch: usize,
        /// Prefill tokens the batch computes.
        tokens: u64,
        /// Virtual time the executor can start the batch.
        ready: f64,
    },
    /// A prefill batch completed on the last stage; one event per member,
    /// stamped at the batch's completion time. The *first* `PrefillDone`
    /// a request sees is its first token; a later one closes a recompute
    /// episode after an eviction.
    PrefillDone {
        /// Request id.
        request: u64,
    },
    /// A request produced its final token and left the system. Carries
    /// the lifecycle anchor timestamps so a journal alone reconstructs
    /// every latency component without the engine's request pool.
    RequestFinish {
        /// Request id.
        request: u64,
        /// Time the request entered the system.
        arrival: f64,
        /// Time its first output token was produced.
        first_token: f64,
    },
    /// Nothing resident and nothing arrived: the engine fast-forwarded
    /// its clock to the next arrival. The window [t, until] is declared
    /// arrival starvation for every device.
    ArrivalWait {
        /// The next arrival the engine slept until.
        until: f64,
    },
    /// The §3.4 stealer withheld requests from a returning decode batch.
    StealWithhold {
        /// Requests withheld (moved to the resident pool).
        n: usize,
        /// Sliding-window per-batch size target.
        target: usize,
    },
    /// The §3.4 stealer topped a returning decode batch up from the pool.
    StealSupplement {
        /// Requests added from the resident pool.
        n: usize,
        /// Sliding-window per-batch size target.
        target: usize,
    },
    /// A resident request was evicted to relieve KV pressure.
    Evict {
        /// Reclamation mode.
        mode: EvictMode,
        /// Evicted request id.
        victim: u64,
    },
    /// One §3.5 spatial-vs-temporal comparison at a decode step, with the
    /// next-prefill-phase estimate that decided it: zeros when spatial
    /// intensity is saturated (at or above 1, so no switch), `(l_cap, P_k)`
    /// when the estimate walk's first `k` batches certified the switch
    /// (`l_cap` bounds every prefill batch's latency, `P_k` is those
    /// batches' phase length), and the exact estimate otherwise.
    SwitchDecision {
        /// Spatial intensity (current decode batch utilisation proxy).
        spatial: f64,
        /// Temporal intensity of the estimate (a lower bound on the exact
        /// one when certified).
        temporal: f64,
        /// Decode batch size the comparison saw.
        batch: usize,
        /// Latency of the estimate's longest prefill job (seconds).
        est_longest: f64,
        /// Length of the estimated next prefill phase (seconds).
        est_phase_len: f64,
        /// Whether the comparator ordered a decode→prefill switch.
        switch: bool,
    },
    /// The engine crossed a phase boundary.
    PhaseSwitch {
        /// Phase being left.
        from: Phase,
        /// Phase being entered.
        to: Phase,
    },
    /// A finished session turn's KV was retained for its successor turn
    /// instead of being freed (session-affine reuse).
    SessionRetain {
        /// The *successor* request the blocks are reserved for.
        request: u64,
        /// Tokens held resident for it.
        tokens: u64,
    },
    /// A retained session prefix was reclaimed (budget or memory
    /// pressure) before its successor arrived; the successor will pay a
    /// full prefill.
    SessionDrop {
        /// The successor request that lost its prefix.
        request: u64,
        /// Tokens given back to the live pool.
        tokens: u64,
    },
    /// A resumed session turn was admitted with its retained prefix still
    /// resident: only the fresh suffix was prefilled.
    SessionReuseHit {
        /// Admitted request id.
        request: u64,
        /// Prefix tokens reused (never re-prefilled).
        tokens: u64,
    },
    /// A resumed session turn was admitted with no retained prefix (never
    /// retained, or dropped under pressure): full prefill.
    SessionReuseMiss {
        /// Admitted request id.
        request: u64,
    },
    /// A device executed work for `dur` seconds (derived from the
    /// [`Timeline`] when segment recording is on).
    StageBusy {
        /// Device (pipeline stage) index.
        device: u32,
        /// Activity class of the segment.
        kind: SegmentKind,
        /// Busy seconds.
        dur: f64,
    },
    /// A device sat idle for `dur` seconds between two busy segments.
    StageIdle {
        /// Device (pipeline stage) index.
        device: u32,
        /// Idle seconds.
        dur: f64,
    },
}

impl TraceEvent {
    /// Short kind label (Chrome-trace event names, decision-table rows).
    pub const fn label(&self) -> &'static str {
        match self {
            TraceEvent::PrefillAdmit { .. } => "prefill_admit",
            TraceEvent::PrefillStop { .. } => "prefill_stop",
            TraceEvent::PrefillLaunch { .. } => "prefill_launch",
            TraceEvent::PrefillDone { .. } => "prefill_done",
            TraceEvent::RequestFinish { .. } => "request_finish",
            TraceEvent::ArrivalWait { .. } => "arrival_wait",
            TraceEvent::StealWithhold { .. } => "steal_withhold",
            TraceEvent::StealSupplement { .. } => "steal_supplement",
            TraceEvent::Evict { .. } => "evict",
            TraceEvent::SwitchDecision { .. } => "switch_decision",
            TraceEvent::PhaseSwitch { .. } => "phase_switch",
            TraceEvent::SessionRetain { .. } => "session_retain",
            TraceEvent::SessionDrop { .. } => "session_drop",
            TraceEvent::SessionReuseHit { .. } => "session_reuse_hit",
            TraceEvent::SessionReuseMiss { .. } => "session_reuse_miss",
            TraceEvent::StageBusy { .. } => "stage_busy",
            TraceEvent::StageIdle { .. } => "stage_idle",
        }
    }
}

/// An event plus the virtual time it happened at.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// Virtual time in seconds.
    pub t: f64,
    /// The decision.
    pub event: TraceEvent,
}

/// One busy segment of one device, as the journal keeps it:
/// `(start, end, kind)`, written as the JSON array `[start, end, "Kind"]`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Busy(f64, f64, SegmentKind);

impl Serialize for Busy {
    fn serialize(&self, ser: &mut Serializer<'_>) {
        (self.0, self.1, self.2).serialize(ser)
    }
}

impl Deserialize for Busy {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
        <(f64, f64, SegmentKind)>::deserialize(de)
            .map(|(start, end, kind)| Busy(start, end, kind))
            .map_err(|e| {
                DeError(format!(
                    "malformed `devices` segment [start, end, kind]: {e}"
                ))
            })
    }
}

/// The flight recorder: an append-only journal of [`TimedEvent`]s.
///
/// Constructed either [`disabled`](FlightRecorder::disabled) (every
/// `record` is a single-branch no-op — the default, so figure artifacts
/// stay bit-identical) or [`with_capacity`](FlightRecorder::with_capacity)
/// (pre-sized, allocation-light). Engine decisions land in `events`
/// (time-ordered by construction). Device activity is kept once, as each
/// device's busy segments from a [`Timeline`] plus the run's end;
/// [`stage_events`](FlightRecorder::stage_events) derives the
/// `StageBusy`/`StageIdle` events from them when the journal is read.
///
/// The JSON is `{"enabled","events","run_end","devices"}`, `devices`
/// holding one array per device of `[start, end, "Kind"]` segments.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlightRecorder {
    enabled: bool,
    events: Vec<TimedEvent>,
    run_end: f64,
    devices: Vec<Vec<Busy>>,
}

/// Compact JSON bytes reserved for one float (a 17-digit mantissa in
/// plain decimal with its sign, point and leading zeros).
pub(crate) const FLOAT_BYTES: usize = 24;
/// Compact JSON bytes of the longest integer (`u64::MAX`).
pub(crate) const UINT_BYTES: usize = 20;

/// The longest compact journal event, `SwitchDecision`, with a comma:
/// its text with the values cut out, plus five floats and one integer.
const EVENT_BYTES: usize = r#"{"t":,"event":{"SwitchDecision":{"spatial":,"temporal":,"batch":,"est_longest":,"est_phase_len":,"switch":false}}},"#.len()
    + 5 * FLOAT_BYTES
    + UINT_BYTES;
/// The longest compact segment, with a comma.
const SEGMENT_BYTES: usize = r#"[,,"Prefill"],"#.len() + 2 * FLOAT_BYTES;
/// A device's row without its segments, with a comma.
const DEVICE_BYTES: usize = "[],".len();
/// The journal without its events and devices.
const JOURNAL_BYTES: usize =
    r#"{"enabled":false,"events":[],"run_end":,"devices":[]}"#.len() + FLOAT_BYTES;

impl FlightRecorder {
    /// A recorder that drops everything (the default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled recorder with room for `cap` engine events.
    pub fn with_capacity(cap: usize) -> Self {
        FlightRecorder {
            enabled: true,
            events: Vec::with_capacity(cap),
            ..Self::default()
        }
    }

    /// Whether events are being kept.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Append an engine event at virtual time `t`. No-op when disabled.
    /// Times must be non-decreasing (enforced in debug builds).
    #[inline]
    pub fn record(&mut self, t: f64, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        debug_assert!(
            self.events.last().is_none_or(|e| t >= e.t),
            "journal events must be time-ordered"
        );
        self.events.push(TimedEvent { t, event });
    }

    /// Engine decision events in time order.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Device activity events, derived from the stored segments: one
    /// device at a time, each in its segments' recording order.
    ///
    /// Before each segment a positive gap since the device's latest busy
    /// end becomes a `StageIdle` at the gap's start; the segment becomes a
    /// `StageBusy`. A positive gap from the last busy end to `run_end`
    /// closes the device. So the idle events include the *boundary*
    /// idleness each device sees: from t = 0 to its first segment
    /// (pipeline warm-up) and from its last segment to `run_end` (drain),
    /// and the in-order sum of a device's idle durations accounts for
    /// `run_end` minus its busy seconds — the closed idle total the bubble
    /// ledger attributes cause-by-cause.
    pub fn stage_events(&self) -> impl Iterator<Item = TimedEvent> + '_ {
        (0u32..).zip(&self.devices).flat_map(|(device, row)| {
            let idle = move |t: f64, dur: f64| {
                (dur > 0.0).then_some(TimedEvent {
                    t,
                    event: TraceEvent::StageIdle { device, dur },
                })
            };
            let mut last_end = 0.0f64;
            let busy = row.iter().flat_map(move |&Busy(start, end, kind)| {
                let gap = idle(last_end, start - last_end);
                last_end = last_end.max(end);
                let busy = TimedEvent {
                    t: start,
                    event: TraceEvent::StageBusy {
                        device,
                        kind,
                        dur: end - start,
                    },
                };
                gap.into_iter().chain(Some(busy))
            });
            // The same fold the walk ends on.
            let last_end = row.iter().fold(0.0f64, |m, b| m.max(b.1));
            busy.chain(idle(last_end, self.run_end - last_end))
        })
    }

    /// Total recorded events (engine + derived stage).
    pub fn len(&self) -> usize {
        self.events.len() + self.stage_events().count()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.stage_events().next().is_none()
    }

    /// Keep a [`Timeline`]'s segments as the device activity of a run
    /// that started at t = 0 and ended at `run_end`, replacing any kept
    /// before. Each device's row is sized exactly before it is filled.
    /// Every device the timeline knows gets a row, so a device with no
    /// segments (segment recording off, or busy time fed in aggregate)
    /// reads as idle over the whole run. No-op when the recorder is
    /// disabled.
    pub fn append_stage_events(&mut self, timeline: &Timeline, run_end: f64) {
        if !self.enabled {
            return;
        }
        let segs = timeline.segments();
        let mut counts = vec![0usize; timeline.num_devices()];
        for s in segs {
            counts[s.device as usize] += 1;
        }
        let mut devices: Vec<Vec<Busy>> = counts.into_iter().map(Vec::with_capacity).collect();
        for s in segs {
            devices[s.device as usize].push(Busy(s.start, s.end, s.kind));
        }
        self.devices = devices;
        self.run_end = run_end;
    }

    /// Serialize the whole journal as JSON — the byte-comparison surface
    /// for the determinism test and the on-disk journal format. Written
    /// into one buffer reserved from the event and segment counts.
    pub fn to_json(&self) -> String {
        let segments: usize = self.devices.iter().map(Vec::len).sum();
        let mut out = String::with_capacity(
            JOURNAL_BYTES
                + self.events.len() * EVENT_BYTES
                + self.devices.len() * DEVICE_BYTES
                + segments * SEGMENT_BYTES,
        );
        self.serialize(&mut Serializer::new(&mut out, false));
        out.shrink_to_fit();
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::stage_reference::{reference_stage_events, same_events};
    use proptest::prelude::*;

    /// A float whose compact text is [`FLOAT_BYTES`] long.
    pub(crate) const WIDEST_FLOAT: f64 = -1.2345678901234567e-5;

    /// One of every `TraceEvent` variant, with awkward floats (integral,
    /// negative zero, non-finite, tiny, huge) and extreme integers, and
    /// device activity with an overlap, a zero-length segment and a
    /// device that kept no segments.
    pub(crate) fn every_variant() -> FlightRecorder {
        let events = [
            TraceEvent::PrefillAdmit {
                request: u64::MAX,
                tokens: 512,
                reason: AdmitReason::SwapIn,
            },
            TraceEvent::PrefillStop {
                reason: PrefillStopReason::Overflow,
                admitted: 0,
            },
            TraceEvent::PrefillLaunch {
                seq: 1,
                batch: usize::MAX,
                tokens: 4096,
                ready: 2.0,
            },
            TraceEvent::PrefillDone { request: 7 },
            TraceEvent::RequestFinish {
                request: 7,
                arrival: -0.0,
                first_token: 1e-9,
            },
            TraceEvent::ArrivalWait {
                until: f64::INFINITY,
            },
            TraceEvent::StealWithhold { n: 3, target: 16 },
            TraceEvent::StealSupplement { n: 2, target: 16 },
            TraceEvent::Evict {
                mode: EvictMode::Recompute,
                victim: 9,
            },
            TraceEvent::SwitchDecision {
                spatial: f64::NAN,
                temporal: 0.1 + 0.2,
                batch: 0,
                est_longest: 1e300,
                est_phase_len: f64::NEG_INFINITY,
                switch: false,
            },
            TraceEvent::PhaseSwitch {
                from: Phase::Decode,
                to: Phase::Prefill,
            },
            TraceEvent::SessionRetain {
                request: 11,
                tokens: 300,
            },
            TraceEvent::SessionDrop {
                request: 11,
                tokens: 300,
            },
            TraceEvent::SessionReuseHit {
                request: 12,
                tokens: 0,
            },
            TraceEvent::SessionReuseMiss { request: 13 },
            TraceEvent::StageBusy {
                device: 3,
                kind: SegmentKind::Comm,
                dur: 0.25,
            },
            TraceEvent::StageIdle {
                device: u32::MAX,
                dur: 3.0,
            },
        ];
        let mut r = FlightRecorder::with_capacity(events.len());
        for (i, e) in events.into_iter().enumerate() {
            r.record(i as f64 * 0.375, e);
        }
        let mut tl = Timeline::new(true);
        tl.record(0, 0.5, 1.25, SegmentKind::Prefill, 1);
        tl.record(0, 1.0, 2.0, SegmentKind::Decode, 2);
        tl.record_busy(1, 0.0, 0.0, 0.0);
        tl.record(2, 0.0, 0.0, SegmentKind::Comm, 3);
        tl.record(2, 0.1 + 0.2, 6.0, SegmentKind::Hybrid, 4);
        r.append_stage_events(&tl, 6.0);
        r
    }

    /// The journal's bytes, pinned: each event compact, and the whole
    /// recorder pretty-printed.
    #[test]
    fn every_variant_serializes_to_committed_bytes() {
        let r = every_variant();
        let compact: String = r
            .events()
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect();
        assert_eq!(
            compact,
            include_str!("../testdata/every_variant.compact.jsonl")
        );
        let pretty = serde_json::to_string_pretty(&r).unwrap();
        assert_eq!(
            pretty,
            include_str!("../testdata/every_variant.pretty.json")
        );
        // The reserved writer prints what the generic one does.
        assert_eq!(r.to_json(), serde_json::to_string(&r).unwrap());
        // Both read back to the same journal (NaN and the infinities
        // print as `null` and read back as NaN).
        for json in [r.to_json(), pretty] {
            let back: FlightRecorder = serde_json::from_str(&json).unwrap();
            assert_eq!(back.to_json(), r.to_json());
        }
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let mut r = FlightRecorder::disabled();
        r.record(
            0.0,
            TraceEvent::PhaseSwitch {
                from: Phase::Prefill,
                to: Phase::Decode,
            },
        );
        let mut tl = Timeline::new(true);
        tl.record(0, 0.0, 1.0, SegmentKind::Prefill, 0);
        r.append_stage_events(&tl, 1.0);
        assert!(r.is_empty());
        assert!(!r.is_enabled());
    }

    #[test]
    fn records_in_order_and_serializes() {
        let mut r = FlightRecorder::with_capacity(4);
        r.record(
            0.5,
            TraceEvent::PrefillAdmit {
                request: 7,
                tokens: 128,
                reason: AdmitReason::FirstPrefill,
            },
        );
        r.record(
            1.0,
            TraceEvent::PrefillStop {
                reason: PrefillStopReason::Budget,
                admitted: 1,
            },
        );
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.events()[0].event.label(), "prefill_admit");
        let json = r.to_json();
        assert!(json.contains("PrefillStop"));
        assert!(json.contains("Budget"));
        // Round-trips through the vendored serde.
        let back: FlightRecorder = serde_json::from_str(&json).expect("journal parses back");
        assert_eq!(back.events().len(), 2);
    }

    fn idles(r: &FlightRecorder) -> Vec<(u32, f64, f64)> {
        r.stage_events()
            .filter_map(|e| match e.event {
                TraceEvent::StageIdle { device, dur } => Some((device, e.t, dur)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn stage_events_record_every_idle_gap() {
        let mut tl = Timeline::new(true);
        tl.record(0, 0.0, 1.0, SegmentKind::Prefill, 1);
        tl.record(0, 2.0, 3.0, SegmentKind::Decode, 2);
        tl.record(1, 0.5, 1.5, SegmentKind::Decode, 1);
        let mut r = FlightRecorder::with_capacity(0);
        r.append_stage_events(&tl, 3.0);
        // Device 0: busy, idle (gap 1.0), busy, ending the run. Device 1:
        // warm-up idle, one busy, drain idle.
        assert_eq!(r.stage_events().count(), 6);
        assert_eq!(r.len(), 6);
        assert_eq!(idles(&r), vec![(0, 1.0, 1.0), (1, 0.0, 0.5), (1, 1.5, 1.5)]);
    }

    #[test]
    fn bounded_stage_events_cover_warmup_and_drain() {
        let mut tl = Timeline::new(true);
        tl.record(0, 0.0, 1.0, SegmentKind::Prefill, 1);
        tl.record(1, 0.5, 1.5, SegmentKind::Prefill, 1);
        let mut r = FlightRecorder::with_capacity(0);
        r.append_stage_events(&tl, 2.0);
        // Device 0: busy [0,1], drain idle [1,2].
        // Device 1: warm-up idle [0,0.5], busy [.5,1.5], drain [1.5,2].
        assert_eq!(idles(&r), vec![(0, 1.0, 1.0), (1, 0.0, 0.5), (1, 1.5, 0.5)]);
        // Per device, busy + idle tile [0, run_end] exactly.
        for device in 0..2u32 {
            let covered: f64 = r
                .stage_events()
                .filter_map(|e| match e.event {
                    TraceEvent::StageBusy { device: d, dur, .. } if d == device => Some(dur),
                    TraceEvent::StageIdle { device: d, dur } if d == device => Some(dur),
                    _ => None,
                })
                .sum();
            assert_eq!(covered, 2.0, "device {device}");
        }
    }

    #[test]
    fn a_second_call_replaces_the_record() {
        let mut tl = Timeline::new(true);
        tl.record(0, 0.0, 1.0, SegmentKind::Prefill, 1);
        tl.record(1, 0.5, 1.5, SegmentKind::Decode, 1);
        let mut r = FlightRecorder::with_capacity(0);
        r.append_stage_events(&Timeline::new(true), 9.0);
        assert!(r.is_empty());
        r.append_stage_events(&tl, 4.0);
        r.append_stage_events(&tl, 2.0);
        let want = reference_stage_events(&tl, 2.0);
        assert!(same_events(&r.stage_events().collect::<Vec<_>>(), &want));
        assert_eq!(std::mem::size_of::<Busy>(), 24);
        // Rows are sized exactly from the per-device counts.
        assert!(r.devices.iter().all(|row| row.capacity() == row.len()));
    }

    /// Every edge the derivation meets, on one timeline: a zero-length
    /// segment, a device with no segments, overlapping segments (the
    /// `max` in the latest busy end) and segments out of start order, and
    /// a `run_end` at one device's last end and before another's.
    #[test]
    fn derived_events_match_the_reference_on_every_edge() {
        let mut tl = Timeline::new(true);
        tl.record(0, 0.0, 3.0, SegmentKind::Decode, 1);
        tl.record(0, 1.0, 2.0, SegmentKind::Decode, 2);
        tl.record(0, 2.5, 2.5, SegmentKind::Comm, 3);
        tl.record(0, 3.5, 4.0, SegmentKind::Prefill, 4);
        tl.record_busy(1, 0.5, 0.0, 0.5);
        tl.record(2, 1.0, 5.0, SegmentKind::Hybrid, 5);
        tl.record(2, 2.0, 3.0, SegmentKind::Decode, 6);
        for run_end in [4.0, 3.0, 6.0, 0.0] {
            let mut r = FlightRecorder::with_capacity(0);
            r.append_stage_events(&tl, run_end);
            let want = reference_stage_events(&tl, run_end);
            let got: Vec<TimedEvent> = r.stage_events().collect();
            assert!(
                same_events(&got, &want),
                "run_end {run_end}:\n{got:?}\n{want:?}"
            );
            assert_eq!(r.len(), want.len());
        }
        let mut r = FlightRecorder::with_capacity(0);
        r.append_stage_events(&tl, 6.0);
        // Device 0 never idles inside [0, 3.5): the overlap keeps its
        // latest end at 3.0 after the [1, 2] segment. Device 2 drains from
        // 5.0, its latest end, not from its last segment's 3.0.
        assert_eq!(
            idles(&r),
            vec![
                (0, 3.0, 0.5),
                (0, 4.0, 2.0),
                (1, 0.0, 6.0),
                (2, 0.0, 1.0),
                (2, 5.0, 1.0)
            ]
        );
    }

    const KINDS: [SegmentKind; 4] = [
        SegmentKind::Prefill,
        SegmentKind::Decode,
        SegmentKind::Hybrid,
        SegmentKind::Comm,
    ];

    /// A timeline over `devices` devices (some of which may get no
    /// segment), with zero-length and overlapping segments in any start
    /// order, and a run end that is free, at device 0's last busy end, or
    /// before it.
    fn arb_timeline() -> impl Strategy<Value = (Timeline, f64)> {
        (
            prop::collection::vec(
                (
                    0u32..4,
                    0.0f64..6.0,
                    prop_oneof![Just(0.0), 0.0f64..2.0],
                    0usize..4,
                ),
                0..24,
            ),
            1u32..6,
            0u32..3,
            0.0f64..10.0,
        )
            .prop_map(|(segs, devices, mode, free)| {
                let mut tl = Timeline::new(true);
                tl.record_busy(devices - 1, 0.0, 0.0, 0.0);
                for (d, start, len, k) in segs {
                    tl.record(d % devices, start, start + len, KINDS[k], 0);
                }
                let last = tl
                    .segments()
                    .iter()
                    .filter(|s| s.device == 0)
                    .fold(0.0f64, |m, s| m.max(s.end));
                let run_end = match mode {
                    0 => free,
                    1 => last,
                    _ => last * 0.5,
                };
                (tl, run_end)
            })
    }

    proptest! {
        #[test]
        fn derived_events_match_the_reference(case in arb_timeline()) {
            let (tl, run_end) = case;
            let mut r = FlightRecorder::with_capacity(0);
            r.append_stage_events(&tl, run_end);
            let want = reference_stage_events(&tl, run_end);
            let got: Vec<TimedEvent> = r.stage_events().collect();
            prop_assert!(same_events(&got, &want), "{got:?}\n{want:?}");
            prop_assert_eq!(r.len(), want.len());
            // The journal's JSON keeps them.
            let back: FlightRecorder = serde_json::from_str(&r.to_json()).unwrap();
            prop_assert!(same_events(&back.stage_events().collect::<Vec<_>>(), &want));
        }
    }

    #[test]
    fn old_layout_and_malformed_segments_fail_by_name() {
        let old = r#"{"enabled":true,"events":[],"stage_events":[{"t":0.0,"event":{"StageIdle":{"device":0,"dur":1.0}}}]}"#;
        let err = serde_json::from_str::<FlightRecorder>(old)
            .unwrap_err()
            .to_string();
        assert!(err.contains("missing field `run_end`"), "{err}");
        for (segment, needle) in [
            ("[0.0,1.0]", "fewer elements"),
            (r#"["0.0",1.0,"Decode"]"#, "expected f64"),
            (r#"[0.0,1.0,"Idle"]"#, "unknown variant `Idle`"),
            (r#"[0.0,1.0,"Decode",4]"#, "more elements"),
            (r#"{"start":0.0}"#, "3-tuple"),
        ] {
            let doc =
                format!(r#"{{"enabled":true,"events":[],"run_end":2.0,"devices":[[{segment}]]}}"#);
            let err = serde_json::from_str::<FlightRecorder>(&doc)
                .unwrap_err()
                .to_string();
            assert!(err.contains("`devices` segment"), "{segment}: {err}");
            assert!(err.contains(needle), "{segment}: {err}");
        }
    }

    /// Each event and segment at its widest (every float [`FLOAT_BYTES`]
    /// long, every integer at its type's maximum) fits the bytes the
    /// exporters reserve for one record, and the widest one fills them.
    #[test]
    fn reserved_record_bytes_bound_every_variant() {
        let mut text = String::new();
        serde::push_float(&mut text, WIDEST_FLOAT);
        assert_eq!(text.len(), FLOAT_BYTES);
        let f = WIDEST_FLOAT;
        let widest = widest_events(f);
        let mut longest = 0;
        for event in &widest {
            let e = TimedEvent {
                t: f,
                event: *event,
            };
            let len = serde_json::to_string(&e).unwrap().len() + 1;
            assert!(len <= EVENT_BYTES, "{e:?}: {len}");
            longest = longest.max(len);
        }
        assert_eq!(longest, EVENT_BYTES);
        for kind in KINDS {
            let len = serde_json::to_string(&Busy(f, f, kind)).unwrap().len() + 1;
            assert!(len <= SEGMENT_BYTES, "{kind:?}: {len}");
        }
    }

    /// One of every variant with every field at its widest.
    pub(crate) fn widest_events(f: f64) -> Vec<TraceEvent> {
        let u = u64::MAX;
        let n = usize::MAX;
        vec![
            TraceEvent::PrefillAdmit {
                request: u,
                tokens: u,
                reason: AdmitReason::FirstPrefill,
            },
            TraceEvent::PrefillStop {
                reason: PrefillStopReason::Exhausted,
                admitted: u,
            },
            TraceEvent::PrefillLaunch {
                seq: u,
                batch: n,
                tokens: u,
                ready: f,
            },
            TraceEvent::PrefillDone { request: u },
            TraceEvent::RequestFinish {
                request: u,
                arrival: f,
                first_token: f,
            },
            TraceEvent::ArrivalWait { until: f },
            TraceEvent::StealWithhold { n, target: n },
            TraceEvent::StealSupplement { n, target: n },
            TraceEvent::Evict {
                mode: EvictMode::Recompute,
                victim: u,
            },
            TraceEvent::SwitchDecision {
                spatial: f,
                temporal: f,
                batch: n,
                est_longest: f,
                est_phase_len: f,
                switch: false,
            },
            TraceEvent::PhaseSwitch {
                from: Phase::Prefill,
                to: Phase::Prefill,
            },
            TraceEvent::SessionRetain {
                request: u,
                tokens: u,
            },
            TraceEvent::SessionDrop {
                request: u,
                tokens: u,
            },
            TraceEvent::SessionReuseHit {
                request: u,
                tokens: u,
            },
            TraceEvent::SessionReuseMiss { request: u },
            TraceEvent::StageBusy {
                device: u32::MAX,
                kind: SegmentKind::Prefill,
                dur: f,
            },
            TraceEvent::StageIdle {
                device: u32::MAX,
                dur: f,
            },
        ]
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_events_panic_in_debug() {
        let mut r = FlightRecorder::with_capacity(2);
        r.record(
            2.0,
            TraceEvent::PrefillStop {
                reason: PrefillStopReason::Exhausted,
                admitted: 0,
            },
        );
        r.record(
            1.0,
            TraceEvent::PrefillStop {
                reason: PrefillStopReason::Exhausted,
                admitted: 0,
            },
        );
    }
}
