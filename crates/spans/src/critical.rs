//! Critical-path extraction: what the makespan is actually made of.
//!
//! In a synchronous pipeline the **output stage** (the last device) is
//! the run's critical path: the run ends when it emits the final token,
//! and with bounded stage events its busy + idle gaps tile `[0,
//! makespan]` wall-to-wall. Ranking that stage's time — busy seconds
//! against each attributed bubble bucket — names the makespan's
//! contributors in order: "the run took 212 s; 148 s compute, 31 s
//! phase-switch bubbles, 18 s arrival starvation, …". That ranked list
//! is the throughput to-do list the paper's §2.3 motivates.

use serde::{Deserialize, Serialize};

use crate::bubble::BubbleLedger;

/// One named contributor to the critical path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Contributor {
    /// `"busy"` or a [`BubbleCause`](crate::BubbleCause) label.
    pub name: String,
    /// Seconds charged to this contributor on the critical device.
    pub seconds: f64,
    /// `seconds / makespan` (0 when the makespan is 0).
    pub share: f64,
}

/// The ranked decomposition of the run's makespan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalPath {
    /// The critical device (the pipeline's output stage).
    pub device: u32,
    /// Run length in virtual seconds.
    pub makespan: f64,
    /// Contributors, descending seconds (ties broken by name) — `"busy"`
    /// plus every bubble cause with nonzero time on the device.
    pub contributors: Vec<Contributor>,
}

/// Extract the critical path from an attributed ledger.
///
/// The critical device is the highest device index (the output stage);
/// an empty ledger yields an empty path. Sorting uses `total_cmp`, so
/// the ranking is total and deterministic.
pub fn critical_path(ledger: &BubbleLedger, makespan: f64) -> CriticalPath {
    let Some(dev) = ledger.devices.iter().max_by_key(|d| d.device) else {
        return CriticalPath {
            device: 0,
            makespan,
            contributors: Vec::new(),
        };
    };
    let mut contributors = Vec::with_capacity(dev.by_cause.len() + 1);
    contributors.push(Contributor {
        name: "busy".to_string(),
        seconds: dev.busy,
        share: 0.0,
    });
    for (cause, &secs) in &dev.by_cause {
        contributors.push(Contributor {
            name: cause.clone(),
            seconds: secs,
            share: 0.0,
        });
    }
    for c in &mut contributors {
        c.share = if makespan > 0.0 {
            c.seconds / makespan
        } else {
            0.0
        };
    }
    contributors.sort_by(|a, b| {
        b.seconds
            .total_cmp(&a.seconds)
            .then_with(|| a.name.cmp(&b.name))
    });
    CriticalPath {
        device: dev.device,
        makespan,
        contributors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bubble::attribute_bubbles;
    use tdpipe_sim::{SegmentKind, Timeline};
    use tdpipe_trace::FlightRecorder;

    #[test]
    fn output_stage_is_ranked_busy_first() {
        let mut tl = Timeline::new(true);
        tl.record(0, 0.0, 3.0, SegmentKind::Prefill, 1);
        tl.record(1, 0.5, 3.5, SegmentKind::Prefill, 1);
        let mut r = FlightRecorder::with_capacity(0);
        r.append_stage_events(&tl, 4.0);
        let ledger = attribute_bubbles(&r);
        let cp = critical_path(&ledger, 4.0);
        assert_eq!(cp.device, 1);
        assert_eq!(cp.contributors[0].name, "busy");
        assert_eq!(cp.contributors[0].seconds, 3.0);
        assert_eq!(cp.contributors[0].share, 0.75);
        // Warm-up 0.5 + drain 0.5 on the output stage.
        let names: Vec<&str> = cp.contributors.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["busy", "drain", "warmup"]);
    }

    #[test]
    fn empty_ledger_yields_empty_path() {
        let r = FlightRecorder::with_capacity(0);
        let ledger = attribute_bubbles(&r);
        let cp = critical_path(&ledger, 0.0);
        assert!(cp.contributors.is_empty());
    }
}
