//! The per-device loop that turned a [`Timeline`] into `StageBusy` /
//! `StageIdle` events back when the journal stored those events, kept as
//! the reference `FlightRecorder::stage_events` must reproduce event for
//! event. Test code only: the trace crate's unit tests and the workspace's
//! integration tests include this file by path.

use tdpipe_sim::Timeline;
use tdpipe_trace::{TimedEvent, TraceEvent};

/// Every stage event of a run that started at t = 0 and ended at
/// `run_end`, device by device, each device's segments in recording order.
pub fn reference_stage_events(timeline: &Timeline, run_end: f64) -> Vec<TimedEvent> {
    let segs = timeline.segments();
    let mut out = Vec::with_capacity(segs.len() * 2);
    for device in 0..timeline.num_devices() as u32 {
        let mut last_end = 0.0f64;
        for s in segs.iter().filter(|s| s.device == device) {
            let gap = s.start - last_end;
            if gap > 0.0 {
                out.push(TimedEvent {
                    t: last_end,
                    event: TraceEvent::StageIdle { device, dur: gap },
                });
            }
            out.push(TimedEvent {
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
            out.push(TimedEvent {
                t: last_end,
                event: TraceEvent::StageIdle { device, dur: gap },
            });
        }
    }
    out
}

/// Whether two event lists agree bit for bit (`Debug` prints every float
/// at its shortest round-trip digits, telling `-0.0` from `0.0`).
pub fn same_events(a: &[TimedEvent], b: &[TimedEvent]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| format!("{x:?}") == format!("{y:?}"))
}
