//! The structured event journal: what the scheduler decided, and when.
//!
//! Every event is stamped with the engine's *virtual* clock (seconds from
//! t = 0), never a wall clock, so a journal is a pure function of the
//! workload + configuration and byte-identical across identical runs.

use serde::{Deserialize, Serialize};
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

/// The flight recorder: an append-only journal of [`TimedEvent`]s.
///
/// Constructed either [`disabled`](FlightRecorder::disabled) (every
/// `record` is a single-branch no-op — the default, so figure artifacts
/// stay bit-identical) or [`with_capacity`](FlightRecorder::with_capacity)
/// (pre-sized, allocation-light). Engine decisions land in `events`
/// (time-ordered by construction); device activity derived from a
/// [`Timeline`] lands in `stage_events` (time-ordered per device).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlightRecorder {
    enabled: bool,
    events: Vec<TimedEvent>,
    stage_events: Vec<TimedEvent>,
}

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
            stage_events: Vec::new(),
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

    /// Device activity events (time-ordered within each device).
    pub fn stage_events(&self) -> &[TimedEvent] {
        &self.stage_events
    }

    /// Total recorded events (engine + stage).
    pub fn len(&self) -> usize {
        self.events.len() + self.stage_events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Derive `StageBusy`/`StageIdle` events from a [`Timeline`] of a run
    /// that started at t = 0 and ended at `run_end`.
    ///
    /// Segments are walked per device in recording order (the simulator
    /// records each device's work in start order); a positive gap before
    /// a device's segment becomes a `StageIdle` at the gap's start. That
    /// includes the *boundary* idleness each device sees: from t = 0 to
    /// its first segment (pipeline warm-up) and from its last segment to
    /// `run_end` (drain). So the in-order sum of a device's idle durations
    /// accounts for `run_end` minus its busy seconds — the closed idle
    /// total the bubble ledger attributes cause-by-cause. Requires the
    /// timeline to have been built with segment recording on — with it
    /// off this records nothing. No-op when the recorder is disabled.
    pub fn append_stage_events(&mut self, timeline: &Timeline, run_end: f64) {
        if !self.enabled {
            return;
        }
        let segs = timeline.segments();
        self.stage_events.reserve(segs.len() * 2);
        for device in 0..timeline.num_devices() as u32 {
            let mut last_end = 0.0f64;
            for s in segs.iter().filter(|s| s.device == device) {
                let gap = s.start - last_end;
                if gap > 0.0 {
                    self.stage_events.push(TimedEvent {
                        t: last_end,
                        event: TraceEvent::StageIdle { device, dur: gap },
                    });
                }
                self.stage_events.push(TimedEvent {
                    t: s.start,
                    event: TraceEvent::StageBusy {
                        device,
                        kind: s.kind,
                        dur: s.end - s.start,
                    },
                });
                last_end = last_end.max(s.end);
            }
            let gap = run_end - last_end;
            if gap > 0.0 {
                self.stage_events.push(TimedEvent {
                    t: last_end,
                    event: TraceEvent::StageIdle { device, dur: gap },
                });
            }
        }
    }

    /// Serialize the whole journal as JSON — the byte-comparison surface
    /// for the determinism test and the on-disk journal format.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| String::from("{}"))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One of every `TraceEvent` variant, with awkward floats (integral,
    /// negative zero, non-finite, tiny, huge) and extreme integers.
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
        assert_eq!(r.stage_events().len(), 6);
        let idles: Vec<(u32, f64, f64)> = r
            .stage_events()
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::StageIdle { device, dur } => Some((device, e.t, dur)),
                _ => None,
            })
            .collect();
        assert_eq!(idles, vec![(0, 1.0, 1.0), (1, 0.0, 0.5), (1, 1.5, 1.5)]);
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
        let idles: Vec<(u32, f64, f64)> = r
            .stage_events()
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::StageIdle { device, dur } => Some((device, e.t, dur)),
                _ => None,
            })
            .collect();
        assert_eq!(idles, vec![(0, 1.0, 1.0), (1, 0.0, 0.5), (1, 1.5, 0.5)]);
        // Per device, busy + idle tile [0, run_end] exactly.
        for device in 0..2u32 {
            let covered: f64 = r
                .stage_events()
                .iter()
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
