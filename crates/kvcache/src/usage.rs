//! Occupancy time series (the data behind paper Figure 12).

use crate::allocator::used_fraction;
use crate::Blocks;
use serde::{Deserialize, Serialize, Serializer};

/// Which phase the engine was in when a sample was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Prefill phase (occupancy grows as prompts are admitted).
    Prefill,
    /// Decode phase (occupancy grows per step, saturates, then declines as
    /// requests complete).
    Decode,
}

impl Phase {
    /// Short label for exports.
    pub const fn label(self) -> &'static str {
        match self {
            Phase::Prefill => "prefill",
            Phase::Decode => "decode",
        }
    }
}

/// One `(time, occupancy, phase)` sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OccupancySample {
    /// Simulation time in seconds.
    pub time: f64,
    /// KV-pool used fraction in `[0, 1]`.
    pub occupancy: f64,
    /// Engine phase at sampling time.
    pub phase: Phase,
}

/// An append-only occupancy trace, stored as columns: each sample's time
/// and used blocks, plus where each contiguous phase run starts. A sample's
/// occupancy is rebuilt as `used / num_blocks` with
/// [`BlockAllocator::occupancy`](crate::BlockAllocator::occupancy)'s
/// formula, so it is bit-identical to the allocator's reading at the time.
/// Serializes as `{"samples":[{"time","occupancy","phase"}, ..]}`.
///
/// Whether the samples are kept is fixed at construction. A trace that
/// does not record folds each push into its running peak and drops the
/// sample, so [`OccupancyTrace::peak`] reads the same either way while
/// the series costs no memory on runs that do not plot it.
#[derive(Debug, Clone, Default)]
pub struct OccupancyTrace {
    /// Pool size in blocks (fits `u32`, so every used count does too).
    num_blocks: u32,
    /// Whether `push` keeps the sample, not only its peak.
    recording: bool,
    /// Most blocks used at any push (`None` before the first).
    peak_used: Option<u32>,
    times: Vec<f64>,
    used: Vec<u32>,
    /// `(first sample, phase)` of each contiguous phase run.
    runs: Vec<(usize, Phase)>,
}

impl OccupancyTrace {
    /// An empty trace for engines that record no occupancy.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty trace over a pool of `num_blocks` blocks that keeps every
    /// sample when `recording`, and otherwise only the peak.
    ///
    /// # Panics
    /// Panics if the pool has more than `u32::MAX` blocks.
    pub fn for_pool(num_blocks: Blocks, recording: bool) -> Self {
        OccupancyTrace {
            num_blocks: u32::try_from(num_blocks.get()).expect("a pool of at most u32::MAX blocks"),
            recording,
            ..Self::default()
        }
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no sample was recorded (e.g. recording off).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Fold a sample of `used` blocks of the pool into the peak, and
    /// append it when recording (times should be non-decreasing; enforced
    /// in debug on the recorded samples).
    pub fn push(&mut self, time: f64, used: Blocks, phase: Phase) {
        debug_assert!(
            used.get() <= u64::from(self.num_blocks),
            "more blocks used than the pool has"
        );
        #[expect(clippy::cast_possible_truncation, reason = "`used` is at most the `u32` pool \
            size (asserted above in debug)")]
        let used = used.get() as u32;
        self.peak_used = Some(self.peak_used.map_or(used, |p| p.max(used)));
        if !self.recording {
            return;
        }
        debug_assert!(
            self.times.last().is_none_or(|&t| time >= t),
            "occupancy samples must be time-ordered"
        );
        if self.runs.last().is_none_or(|&(_, p)| p != phase) {
            self.runs.push((self.times.len(), phase));
        }
        self.times.push(time);
        self.used.push(used);
    }

    /// Sample `i`.
    fn sample(&self, i: usize) -> OccupancySample {
        let run = self.runs.partition_point(|&(start, _)| start <= i) - 1;
        OccupancySample {
            time: self.times[i],
            occupancy: used_fraction(blocks(self.used[i]), blocks(self.num_blocks)),
            phase: self.runs[run].1,
        }
    }

    /// All samples in time order.
    pub fn samples(
        &self,
    ) -> impl DoubleEndedIterator<Item = OccupancySample> + ExactSizeIterator + '_ {
        (0..self.len()).map(|i| self.sample(i))
    }

    /// Highest occupancy pushed, recorded or not (0 when nothing was
    /// pushed). Division by the pool size is monotone, so this is the
    /// most-used sample's.
    pub fn peak(&self) -> f64 {
        self.peak_used
            .map_or(0.0, |u| used_fraction(blocks(u), blocks(self.num_blocks)))
    }

    /// CSV export: `time,occupancy,phase`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time,occupancy,phase\n");
        for s in self.samples() {
            out.push_str(&format!(
                "{:.6},{:.4},{}\n",
                s.time,
                s.occupancy,
                s.phase.label()
            ));
        }
        out
    }
}

/// A stored `u32` count as blocks.
fn blocks(n: u32) -> Blocks {
    Blocks::new(u64::from(n))
}

impl Serialize for OccupancyTrace {
    fn serialize(&self, ser: &mut Serializer<'_>) {
        ser.begin_map();
        ser.key("samples");
        ser.begin_seq();
        for s in self.samples() {
            ser.elem();
            s.serialize(ser);
        }
        ser.end_seq();
        ser.end_map();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_and_runs() {
        let mut t = OccupancyTrace::for_pool(Blocks::new(100), true);
        t.push(0.0, Blocks::new(10), Phase::Prefill);
        t.push(1.0, Blocks::new(80), Phase::Prefill);
        t.push(2.0, Blocks::new(95), Phase::Decode);
        t.push(3.0, Blocks::new(50), Phase::Decode);
        t.push(4.0, Blocks::new(70), Phase::Prefill);
        assert!((t.peak() - 0.95).abs() < 1e-12);
        assert_eq!(t.samples().len(), 5);
        let phases: Vec<Phase> = t.samples().map(|s| s.phase).collect();
        use Phase::{Decode, Prefill};
        assert_eq!(phases, [Prefill, Prefill, Decode, Decode, Prefill]);
    }

    /// A trace that does not record keeps the same peak and no samples.
    #[test]
    fn unrecorded_trace_keeps_only_the_peak() {
        let (mut kept, mut peak_only) = (
            OccupancyTrace::for_pool(Blocks::new(7), true),
            OccupancyTrace::for_pool(Blocks::new(7), false),
        );
        for (i, used) in [2u64, 6, 3, 5].into_iter().enumerate() {
            for t in [&mut kept, &mut peak_only] {
                t.push(i as f64, Blocks::new(used), Phase::Decode);
            }
        }
        assert_eq!(peak_only.peak().to_bits(), kept.peak().to_bits());
        assert_eq!(kept.len(), 4);
        assert!(peak_only.is_empty());
        assert_eq!(peak_only.to_csv(), "time,occupancy,phase\n");
        let mut json = String::new();
        peak_only.serialize(&mut Serializer::new(&mut json, false));
        assert_eq!(json, r#"{"samples":[]}"#);
        let mut empty = OccupancyTrace::for_pool(Blocks::ZERO, false);
        empty.push(0.0, Blocks::ZERO, Phase::Prefill);
        assert_eq!(empty.peak(), 1.0, "an empty pool reads full");
    }

    #[test]
    fn csv_header() {
        let mut t = OccupancyTrace::for_pool(Blocks::new(4), true);
        t.push(0.5, Blocks::new(1), Phase::Decode);
        assert!(t
            .to_csv()
            .starts_with("time,occupancy,phase\n0.500000,0.2500,decode"));
    }

    #[test]
    fn empty_trace() {
        let t = OccupancyTrace::new();
        assert_eq!(t.peak(), 0.0);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    /// Columns rebuild what the allocator read, and serialize in the
    /// shape a `Vec<OccupancySample>` field would.
    #[test]
    fn columns_rebuild_the_allocator_reading() {
        let mut a = crate::BlockAllocator::new(Blocks::new(3), 16);
        let mut t = OccupancyTrace::for_pool(Blocks::new(3), true);
        let mut want = Vec::new();
        for (i, tokens) in [(0u64, 16u64), (1, 16), (2, 1)] {
            a.allocate(i, tokens).unwrap();
            let phase = if i == 1 {
                Phase::Decode
            } else {
                Phase::Prefill
            };
            t.push(i as f64, a.used_blocks(), phase);
            want.push(OccupancySample {
                time: i as f64,
                occupancy: a.occupancy(),
                phase,
            });
        }
        assert_eq!(t.samples().collect::<Vec<_>>(), want);
        assert_eq!(t.samples().next_back(), want.last().copied());
        assert_eq!(t.peak(), want.iter().map(|s| s.occupancy).fold(0.0, f64::max));
        let json = |x: &dyn Fn(&mut Serializer<'_>)| {
            let mut out = String::new();
            x(&mut Serializer::new(&mut out, false));
            out
        };
        let json = (json(&|s| t.serialize(s)), json(&|s| want.serialize(s)));
        assert_eq!(json.0, format!("{{\"samples\":{}}}", json.1));
        let json = json.0;
        assert!(json.contains("\"occupancy\":0.3333333333333333,\"phase\":\"Prefill\""));
        // An empty pool reads full, like the allocator's.
        let mut empty = OccupancyTrace::for_pool(Blocks::ZERO, true);
        empty.push(0.0, Blocks::ZERO, Phase::Decode);
        assert_eq!(
            empty.peak(),
            crate::BlockAllocator::new(Blocks::ZERO, 16).occupancy()
        );
    }
}
