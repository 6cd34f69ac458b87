//! Layer instrumentation applied from outside the program: coarse spans
//! around public calls, a counting wrapper around the output-length
//! predictor, and a timing wrapper around the simulated execution plane.
//!
//! Everything here is off on the untraced reps that produce the
//! end-to-end numbers; traced reps turn it on, and the report digest
//! proves the wrappers change no modelled result.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use tdpipe::core::exec::{ExecError, PipelineExecutor, PlaneStats};
use tdpipe::predictor::OutputLenPredictor;
use tdpipe::sim::{SegmentKind, Timeline};
use tdpipe::workload::Request;

/// One coarse span: a named call with its wall-clock interval (seconds
/// since the tracer started) and the index of the enclosing span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Span recorder, kept in memory until the benchmark writes it out. A
/// disabled tracer calls straight through and never reads the clock.
pub struct Tracer {
    origin: Option<Instant>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn disabled() -> Self {
        Tracer {
            origin: None,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled() -> Self {
        Tracer {
            // analyzer: allow(no-instant-now) — benchmark harness: the span
            // origin is wall-clock by design and never feeds a modelled report.
            origin: Some(Instant::now()),
            ..Self::disabled()
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.origin.is_some()
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let Some(origin) = self.origin else {
            return f();
        };
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                start_s: origin.elapsed().as_secs_f64(),
                end_s: f64::NAN,
                parent: self.open.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_s = origin.elapsed().as_secs_f64();
        out
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .sum()
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Wall-clock seconds taken by `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    // analyzer: allow(no-instant-now) — benchmark harness: this is the
    // wall-time measurement itself; the value is reported, never simulated.
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// The wrappers below time one call in `SAMPLE_EVERY` and scale the
/// sampled time up by calls over timed calls. A clock read (~30 ns on a
/// 2-core VM) costs half a simulator launch, so timing every call would
/// add several percent to a pass. The sample is picked by a
/// hash of the call index, so it cannot fall into step with a periodic
/// call pattern such as the pipeline's rounds of micro-batch launches.
pub const SAMPLE_EVERY: u64 = 8;

fn sampled(index: u64) -> bool {
    // splitmix64's finalizer: a cheap, well-mixed hash.
    let mut z = index.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)).is_multiple_of(SAMPLE_EVERY)
}

/// Estimated total busy seconds of `calls` calls, `timed` of which took
/// `timed_s` seconds between them.
fn scale_up(timed_s: f64, timed: u64, calls: u64) -> f64 {
    if timed == 0 {
        0.0
    } else {
        timed_s * calls as f64 / timed as f64
    }
}

/// An [`OutputLenPredictor`] that counts calls and estimates the wall
/// time spent in them. Atomic counters keep it `Sync`, so the fleet can
/// share it across its replica threads; `Relaxed` suffices because the
/// counters publish no other data and are read only after the run has
/// joined its threads.
pub struct CountingPredictor<'a, P: ?Sized> {
    inner: &'a P,
    calls: AtomicU64,
    timed: AtomicU64,
    timed_ns: AtomicU64,
}

impl<'a, P: OutputLenPredictor + ?Sized> CountingPredictor<'a, P> {
    pub fn new(inner: &'a P) -> Self {
        CountingPredictor {
            inner,
            calls: AtomicU64::new(0),
            timed: AtomicU64::new(0),
            timed_ns: AtomicU64::new(0),
        }
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn busy_s(&self) -> f64 {
        let timed_s = self.timed_ns.load(Ordering::Relaxed) as f64 * 1e-9;
        scale_up(timed_s, self.timed.load(Ordering::Relaxed), self.calls())
    }
}

impl<P: OutputLenPredictor + ?Sized> OutputLenPredictor for CountingPredictor<'_, P> {
    fn predict(&self, request: &Request) -> u32 {
        if !sampled(self.calls.fetch_add(1, Ordering::Relaxed)) {
            return self.inner.predict(request);
        }
        let (s, out) = timed(|| self.inner.predict(request));
        self.timed.fetch_add(1, Ordering::Relaxed);
        self.timed_ns.fetch_add((s * 1e9) as u64, Ordering::Relaxed);
        out
    }

    /// Forwarded: the overhead is charged in modelled time, so dropping
    /// it would change the schedule.
    fn per_request_overhead(&self) -> f64 {
        self.inner.per_request_overhead()
    }
}

/// What [`TimedExecutor`] saw, readable after the engine consumed it.
#[derive(Debug, Default)]
pub struct ExecStats {
    pub launches: Cell<u64>,
    pub queue_depth_hw: Cell<usize>,
    timed_launches: Cell<u64>,
    timed_launch_s: Cell<f64>,
    finish_s: Cell<f64>,
}

impl ExecStats {
    /// Estimated seconds inside the plane: sampled launches scaled up,
    /// plus the (always timed) final drain.
    pub fn busy_s(&self) -> f64 {
        scale_up(
            self.timed_launch_s.get(),
            self.timed_launches.get(),
            self.launches.get(),
        ) + self.finish_s.get()
    }
}

/// A [`PipelineExecutor`] that forwards to another plane, counts its
/// launches and times the calls that do the plane's work: `launch`, where
/// the simulator schedules a job across the stages (sampled, see
/// [`SAMPLE_EVERY`]), and `finish`. Completions are a queue pop and pass
/// straight through.
pub struct TimedExecutor {
    inner: Box<dyn PipelineExecutor>,
    stats: Rc<ExecStats>,
}

impl TimedExecutor {
    pub fn new(inner: Box<dyn PipelineExecutor>, stats: Rc<ExecStats>) -> Self {
        TimedExecutor { inner, stats }
    }
}

impl PipelineExecutor for TimedExecutor {
    fn launch(&mut self, ready: f64, exec: &[f64], xfer: &[f64], kind: SegmentKind, tag: u64) {
        let stats = &self.stats;
        let index = stats.launches.get();
        stats.launches.set(index + 1);
        if !sampled(index) {
            return self.inner.launch(ready, exec, xfer, kind, tag);
        }
        let (s, ()) = timed(|| self.inner.launch(ready, exec, xfer, kind, tag));
        stats.timed_launches.set(stats.timed_launches.get() + 1);
        stats.timed_launch_s.set(stats.timed_launch_s.get() + s);
    }

    fn next_completion(&mut self) -> (u64, f64) {
        self.inner.next_completion()
    }

    fn try_next_completion(&mut self) -> Result<(u64, f64), ExecError> {
        self.inner.try_next_completion()
    }

    fn outstanding(&self) -> usize {
        self.inner.outstanding()
    }

    fn finish(self: Box<Self>) -> (f64, Timeline) {
        let TimedExecutor { inner, stats } = *self;
        let (s, out) = timed(|| inner.finish());
        stats.finish_s.set(s);
        out
    }

    fn try_finish(self: Box<Self>) -> Result<(f64, Timeline), ExecError> {
        let TimedExecutor { inner, stats } = *self;
        let (s, out) = timed(|| inner.try_finish());
        stats.finish_s.set(s);
        out
    }

    /// Forwarded: the engine exports the plane's queue depth into its
    /// metrics snapshot, so it must see the real plane's numbers.
    fn plane_stats(&self) -> PlaneStats {
        let stats = self.inner.plane_stats();
        self.stats.queue_depth_hw.set(stats.queue_depth_high_water);
        stats
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
