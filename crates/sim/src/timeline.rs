//! Per-device activity timelines: the measurement substrate for GPU
//! utilization (paper Fig. 2) and bubble visualisation (Fig. 1).

use serde::{Deserialize, Serialize};

/// What a device was doing during a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SegmentKind {
    /// Executing prefill work.
    Prefill,
    /// Executing decode work.
    Decode,
    /// Executing a hybrid (chunked prefill + decode) batch.
    Hybrid,
    /// Communicating (all-reduce under TP).
    Comm,
}

impl SegmentKind {
    /// Short label used in CSV/Gantt exports.
    pub const fn label(self) -> &'static str {
        match self {
            SegmentKind::Prefill => "prefill",
            SegmentKind::Decode => "decode",
            SegmentKind::Hybrid => "hybrid",
            SegmentKind::Comm => "comm",
        }
    }
}

/// One contiguous busy interval on one device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Device (pipeline stage / GPU) index.
    pub device: u32,
    /// Start time in seconds.
    pub start: f64,
    /// End time in seconds.
    pub end: f64,
    /// Activity class.
    pub kind: SegmentKind,
    /// Free-form job tag (batch id, request group, …).
    pub tag: u64,
}

/// What [`Timeline::busy_by_window`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedBusy {
    /// `busy[d][k]`: seconds device `d` was busy within window `k`.
    pub busy: Vec<Vec<f64>>,
    /// `comm[d]`: total seconds of device `d`'s `Comm` segments.
    pub comm: Vec<f64>,
}

/// An append-only log of busy segments across devices.
///
/// Recording can be disabled for long benchmark runs where only aggregate
/// busy time matters; aggregates are maintained either way.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Timeline {
    segments: Vec<Segment>,
    record_segments: bool,
    /// Per-device total busy seconds (always maintained).
    busy: Vec<f64>,
    /// Latest segment end across devices.
    end: f64,
    /// Earliest segment start across devices.
    start: f64,
    any: bool,
}

impl Timeline {
    /// Create a timeline; `record_segments` controls whether individual
    /// segments are kept (aggregates always are).
    pub fn new(record_segments: bool) -> Self {
        Timeline {
            segments: Vec::new(),
            record_segments,
            busy: Vec::new(),
            end: 0.0,
            start: f64::INFINITY,
            any: false,
        }
    }

    /// Record a busy interval on `device`.
    ///
    /// # Panics
    /// Panics if `end < start` (zero-length segments are allowed and
    /// ignored in aggregates).
    pub fn record(&mut self, device: u32, start: f64, end: f64, kind: SegmentKind, tag: u64) {
        assert!(end >= start, "segment ends before it starts");
        if self.busy.len() <= device as usize {
            self.busy.resize(device as usize + 1, 0.0);
        }
        self.busy[device as usize] += end - start;
        self.end = self.end.max(end);
        self.start = self.start.min(start);
        self.any = true;
        if self.record_segments {
            self.segments.push(Segment {
                device,
                start,
                end,
                kind,
                tag,
            });
        }
    }

    /// Record pre-aggregated busy time for `device` spanning
    /// `[start, end]` without individual segments — what a worker that
    /// kept only bounded summaries (no per-job log) feeds back. The
    /// aggregate accounting matches calling [`Timeline::record`] once
    /// per original segment.
    ///
    /// # Panics
    /// Panics if `end < start` or `busy` is negative.
    pub fn record_busy(&mut self, device: u32, busy: f64, start: f64, end: f64) {
        assert!(end >= start, "span ends before it starts");
        assert!(busy >= 0.0, "negative busy time");
        if self.busy.len() <= device as usize {
            self.busy.resize(device as usize + 1, 0.0);
        }
        self.busy[device as usize] += busy;
        self.end = self.end.max(end);
        self.start = self.start.min(start);
        self.any = true;
    }

    /// All recorded segments (empty when recording is disabled).
    #[inline]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of devices that recorded at least one segment.
    #[inline]
    pub fn num_devices(&self) -> usize {
        self.busy.len()
    }

    /// Total busy seconds of one device.
    pub fn busy_time(&self, device: u32) -> f64 {
        self.busy.get(device as usize).copied().unwrap_or(0.0)
    }

    /// Time of the last recorded activity.
    #[inline]
    pub fn makespan(&self) -> f64 {
        if self.any {
            self.end
        } else {
            0.0
        }
    }

    /// Busy fraction of one device over `[0, makespan]`.
    pub fn utilization(&self, device: u32) -> f64 {
        let span = self.makespan();
        if span <= 0.0 {
            0.0
        } else {
            self.busy_time(device) / span
        }
    }

    /// Mean busy fraction across all devices over `[0, makespan]` — the
    /// quantity the paper's Figure 2 plots.
    pub fn mean_utilization(&self) -> f64 {
        if self.busy.is_empty() {
            return 0.0;
        }
        let span = self.makespan();
        if span <= 0.0 {
            return 0.0;
        }
        self.busy.iter().sum::<f64>() / (span * self.busy.len() as f64)
    }

    /// Per-device busy seconds clipped to consecutive windows
    /// `[edges[k], edges[k + 1]]` (ascending edges), plus each device's
    /// total `Comm` seconds — one pass over the segment log, so the cost
    /// is O(segments + windows) rather than devices × windows × segments.
    ///
    /// Bit-identical to folding, per device and window in log order,
    /// `(end.min(t1) - start.max(t0)).max(0.0)` over every segment of the
    /// device with `Iterator::sum`: a segment adds exactly `+0.0` to the
    /// windows it does not overlap, so only the sign of an untouched
    /// window's zero depends on them. Empty sums are `-0.0` (what `sum`
    /// returns), so a device with no segments — say, one fed only by
    /// [`Timeline::record_busy`] — reads `-0.0` everywhere, while a device
    /// with segments reads `+0.0` in the windows none of them touches.
    pub fn busy_by_window(&self, edges: &[f64]) -> WindowedBusy {
        let windows = edges.len().saturating_sub(1);
        let n = self.num_devices();
        // A row stays empty until its device's first segment fills it.
        let mut busy: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut comm = vec![-0.0; n];
        for s in &self.segments {
            let d = s.device as usize;
            let row = &mut busy[d];
            if row.is_empty() {
                *row = vec![0.0; windows];
            }
            if s.kind == SegmentKind::Comm {
                comm[d] += s.end - s.start;
            }
            // First window whose end is past the segment's start.
            let first = edges
                .get(1..)
                .map_or(0, |ends| ends.partition_point(|&t1| t1 <= s.start));
            for k in first..windows {
                let (t0, t1) = (edges[k], edges[k + 1]);
                if t0 >= s.end {
                    break;
                }
                row[k] += (s.end.min(t1) - s.start.max(t0)).max(0.0);
            }
        }
        for row in &mut busy {
            if row.is_empty() {
                *row = vec![-0.0; windows];
            }
        }
        WindowedBusy { busy, comm }
    }

    /// CSV export: `device,start,end,kind,tag` per line, header included.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(32 * self.segments.len() + 32);
        out.push_str("device,start,end,kind,tag\n");
        for s in &self.segments {
            out.push_str(&format!(
                "{},{:.6},{:.6},{},{}\n",
                s.device,
                s.start,
                s.end,
                s.kind.label(),
                s.tag
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_without_recording() {
        let mut t = Timeline::new(false);
        t.record(0, 0.0, 1.0, SegmentKind::Prefill, 1);
        t.record(1, 0.5, 2.0, SegmentKind::Decode, 2);
        assert!(t.segments().is_empty());
        assert_eq!(t.busy_time(0), 1.0);
        assert_eq!(t.busy_time(1), 1.5);
        assert_eq!(t.makespan(), 2.0);
        assert!((t.mean_utilization() - (1.0 + 1.5) / (2.0 * 2.0)).abs() < 1e-12);
    }

    #[test]
    fn windowed_utilization_clips_segments() {
        let mut t = Timeline::new(true);
        t.record(0, 0.0, 4.0, SegmentKind::Decode, 0);
        t.record(1, 1.0, 2.0, SegmentKind::Decode, 0);
        t.record(1, 2.5, 3.5, SegmentKind::Comm, 0);
        // Windows [0, 1], [1, 3], [3, 4]: segments are clipped to each.
        let w = t.busy_by_window(&[0.0, 1.0, 3.0, 4.0]);
        assert_eq!(w.busy, vec![vec![1.0, 2.0, 1.0], vec![0.0, 1.5, 0.5]]);
        assert_eq!(w.comm, vec![0.0, 1.0]);
    }

    /// The per-window scan [`Timeline::busy_by_window`] replaced: every
    /// window of every device folds the device's whole segment log.
    fn scan_reference(t: &Timeline, edges: &[f64]) -> WindowedBusy {
        let devices = 0..t.num_devices() as u32;
        let of = |d: u32| t.segments().iter().filter(move |s| s.device == d);
        WindowedBusy {
            busy: devices
                .clone()
                .map(|d| {
                    edges
                        .windows(2)
                        .map(|w| {
                            of(d)
                                .map(|s| (s.end.min(w[1]) - s.start.max(w[0])).max(0.0))
                                .sum()
                        })
                        .collect()
                })
                .collect(),
            comm: devices
                .map(|d| {
                    of(d)
                        .filter(|s| s.kind == SegmentKind::Comm)
                        .map(|s| s.end - s.start)
                        .sum()
                })
                .collect(),
        }
    }

    fn bits(w: &WindowedBusy) -> (Vec<Vec<u64>>, Vec<u64>) {
        (
            w.busy
                .iter()
                .map(|row| row.iter().map(|v| v.to_bits()).collect())
                .collect(),
            w.comm.iter().map(|v| v.to_bits()).collect(),
        )
    }

    /// splitmix64: a dependency-free deterministic generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A random timeline over devices 0..4 with device 5 fed only by
    /// `record_busy` (device 4 is never fed at all), plus its window
    /// edges built the way the metrics grid builds them (`t += dt`).
    fn generated(seed: u64) -> (Timeline, Vec<f64>) {
        let mut rng = Rng(seed);
        let dt = [0.1, 0.25, 1.0, 0.3][rng.below(4) as usize];
        let horizon = 2.0 + 10.0 * rng.unit();
        let mut edges = vec![0.0];
        let mut t = 0.0;
        while t < horizon {
            t += dt;
            edges.push(t);
        }
        let kinds = [
            SegmentKind::Prefill,
            SegmentKind::Decode,
            SegmentKind::Hybrid,
            SegmentKind::Comm,
        ];
        let mut tl = Timeline::new(true);
        tl.record_busy(5, 0.5, 0.0, 1.0);
        let last = edges.len() as u64 - 1;
        for tag in 0..rng.below(60) {
            // Starts in random order: on an edge, or anywhere. Ends make
            // the segment zero-length, span up to 8 windows, land on an
            // edge, or fall within a window's width.
            let start = match rng.below(3) {
                0 => edges[rng.below(last) as usize],
                _ => horizon * rng.unit(),
            };
            let end = match rng.below(4) {
                0 => start,
                1 => start + dt * (1 + rng.below(8)) as f64,
                2 => edges[rng.below(last + 1) as usize].max(start),
                _ => start + dt * rng.unit(),
            };
            let kind = kinds[rng.below(4) as usize];
            tl.record(rng.below(4) as u32, start, end, kind, tag);
        }
        (tl, edges)
    }

    #[test]
    fn sweep_matches_the_per_window_scan_bit_for_bit() {
        for seed in 0..500 {
            let (tl, edges) = generated(seed);
            let sweep = tl.busy_by_window(&edges);
            assert_eq!(
                bits(&sweep),
                bits(&scan_reference(&tl, &edges)),
                "seed {seed}"
            );
            // The record_busy-only device (and the unfed one) reads the
            // empty sum, -0.0, everywhere.
            let neg_zero = (-0.0f64).to_bits();
            for d in [4, 5] {
                assert!(sweep.busy[d].iter().all(|v| v.to_bits() == neg_zero));
                assert_eq!(sweep.comm[d].to_bits(), neg_zero);
            }
        }
    }

    #[test]
    fn sweep_keeps_the_sign_of_zero_windows() {
        // Device 0 has a segment, but not in window [1, 2]: the scan adds
        // its +0.0 there, so the window reads +0.0, not the empty -0.0.
        let mut t = Timeline::new(true);
        t.record(0, 0.0, 0.5, SegmentKind::Decode, 0);
        t.record_busy(1, 1.0, 0.0, 2.0);
        let edges = [0.0, 1.0, 2.0];
        let w = t.busy_by_window(&edges);
        assert_eq!(bits(&w), bits(&scan_reference(&t, &edges)));
        assert_eq!(w.busy[0][1].to_bits(), 0.0f64.to_bits());
        assert_eq!(w.busy[1][1].to_bits(), (-0.0f64).to_bits());
        // No windows at all is well-defined too.
        assert_eq!(t.busy_by_window(&[]).busy, vec![Vec::<f64>::new(); 2]);
    }

    #[test]
    fn empty_timeline_is_safe() {
        let t = Timeline::new(true);
        assert_eq!(t.makespan(), 0.0);
        assert_eq!(t.mean_utilization(), 0.0);
        assert_eq!(t.utilization(3), 0.0);
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = Timeline::new(true);
        t.record(2, 0.25, 0.5, SegmentKind::Hybrid, 77);
        let csv = t.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "device,start,end,kind,tag");
        assert_eq!(lines.next().unwrap(), "2,0.250000,0.500000,hybrid,77");
    }

    #[test]
    #[should_panic(expected = "ends before")]
    fn negative_segment_panics() {
        Timeline::new(false).record(0, 1.0, 0.5, SegmentKind::Comm, 0);
    }

    #[test]
    fn record_busy_matches_per_segment_aggregates() {
        let mut per_seg = Timeline::new(false);
        per_seg.record(0, 0.0, 1.5, SegmentKind::Decode, 0);
        per_seg.record(0, 2.0, 3.0, SegmentKind::Decode, 1);
        per_seg.record(1, 0.5, 1.0, SegmentKind::Prefill, 0);
        let mut agg = Timeline::new(false);
        agg.record_busy(0, 1.5 + 1.0, 0.0, 3.0);
        agg.record_busy(1, 0.5, 0.5, 1.0);
        assert_eq!(per_seg.makespan(), agg.makespan());
        assert_eq!(per_seg.busy_time(0), agg.busy_time(0));
        assert_eq!(per_seg.busy_time(1), agg.busy_time(1));
        assert_eq!(per_seg.mean_utilization(), agg.mean_utilization());
        assert!(agg.segments().is_empty());
    }
}
