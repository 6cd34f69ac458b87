//! Typed metric registry with handle-based, allocation-free hot paths.
//!
//! Metrics are registered once (name + label set → small integer handle)
//! and updated through the handle: an update is one `enabled` branch plus a
//! `Vec` index. A disabled registry hands out dummy handles and every
//! update is a single-branch no-op — the same gating discipline as the
//! flight recorder, so `record_metrics: false` costs one predictable
//! branch per instrumentation point.

use crate::histogram::HistData;
use crate::snapshot::{MetricEntry, MetricValue, MetricsSnapshot, Series};
use std::collections::BTreeMap;

/// Handle to a monotone counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter(u32);

/// Handle to a point-in-time gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gauge(u32);

/// Handle to a log2-ladder histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(u32);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

#[derive(Debug, Clone)]
struct Meta {
    name: String,
    help: String,
    labels: BTreeMap<String, String>,
}

/// Metric names must match the Prometheus charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`; registration panics otherwise so bad names
/// never reach an exposition file.
pub(crate) fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Label names must match `[a-zA-Z_][a-zA-Z0-9_]*` (no colons).
pub(crate) fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The metric registry. Keyed by `(name, sorted label set)`; registering
/// the same key twice returns the same handle, so shared instrumentation
/// helpers can re-register without bookkeeping.
#[derive(Debug, Clone)]
pub struct Registry {
    enabled: bool,
    counters: Vec<u64>,
    counter_meta: Vec<Meta>,
    gauges: Vec<f64>,
    gauge_meta: Vec<Meta>,
    hists: Vec<HistData>,
    hist_meta: Vec<Meta>,
    index: BTreeMap<(String, BTreeMap<String, String>), (Kind, u32)>,
    kinds: BTreeMap<String, Kind>,
}

impl Registry {
    /// A live registry.
    pub fn new() -> Self {
        Registry {
            enabled: true,
            counters: Vec::new(),
            counter_meta: Vec::new(),
            gauges: Vec::new(),
            gauge_meta: Vec::new(),
            hists: Vec::new(),
            hist_meta: Vec::new(),
            index: BTreeMap::new(),
            kinds: BTreeMap::new(),
        }
    }

    /// A disabled registry: registration returns dummy handles, every
    /// update is a single-branch no-op, and the snapshot is empty.
    pub fn disabled() -> Self {
        Registry {
            enabled: false,
            ..Registry::new()
        }
    }

    /// Construct enabled or disabled from a config flag.
    pub fn gated(enabled: bool) -> Self {
        if enabled {
            Registry::new()
        } else {
            Registry::disabled()
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn meta(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Meta {
        assert!(
            valid_metric_name(name),
            "invalid metric name {name:?}: must match [a-zA-Z_:][a-zA-Z0-9_:]*"
        );
        assert!(!help.is_empty(), "metric {name} needs HELP text");
        let labels: BTreeMap<String, String> = labels
            .iter()
            .map(|(k, v)| {
                assert!(valid_label_name(k), "invalid label name {k:?} on {name}");
                (k.to_string(), v.to_string())
            })
            .collect();
        Meta {
            name: name.to_string(),
            help: help.to_string(),
            labels,
        }
    }

    fn register(&mut self, kind: Kind, meta: Meta) -> u32 {
        // One name ⇒ one kind, across every label set: the Prometheus
        // exposition format emits a single TYPE line per metric family.
        let have_kind = *self.kinds.entry(meta.name.clone()).or_insert(kind);
        assert!(
            have_kind == kind,
            "metric {} re-registered as a different kind",
            meta.name
        );
        let key = (meta.name.clone(), meta.labels.clone());
        if let Some(&(_, idx)) = self.index.get(&key) {
            return idx;
        }
        let idx = match kind {
            Kind::Counter => {
                self.counters.push(0);
                self.counter_meta.push(meta);
                (self.counters.len() - 1) as u32
            }
            Kind::Gauge => {
                self.gauges.push(0.0);
                self.gauge_meta.push(meta);
                (self.gauges.len() - 1) as u32
            }
            Kind::Histogram => {
                self.hists.push(HistData::new());
                self.hist_meta.push(meta);
                (self.hists.len() - 1) as u32
            }
        };
        self.index.insert(key, (kind, idx));
        idx
    }

    /// Register (or look up) a counter.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        if !self.enabled {
            return Counter(0);
        }
        let meta = self.meta(name, help, labels);
        Counter(self.register(Kind::Counter, meta))
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        if !self.enabled {
            return Gauge(0);
        }
        let meta = self.meta(name, help, labels);
        Gauge(self.register(Kind::Gauge, meta))
    }

    /// Register (or look up) a histogram.
    pub fn histogram(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> HistogramId {
        if !self.enabled {
            return HistogramId(0);
        }
        let meta = self.meta(name, help, labels);
        HistogramId(self.register(Kind::Histogram, meta))
    }

    /// Increment a counter by 1.
    #[inline]
    pub fn inc(&mut self, c: Counter) {
        if !self.enabled {
            return;
        }
        self.counters[c.0 as usize] += 1;
    }

    /// Increment a counter by `n`.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        if !self.enabled {
            return;
        }
        self.counters[c.0 as usize] += n;
    }

    /// Set a gauge. NaN is rejected: it would break the total order the
    /// snapshot's byte-stability relies on.
    #[inline]
    pub fn set(&mut self, g: Gauge, v: f64) {
        if !self.enabled {
            return;
        }
        assert!(!v.is_nan(), "gauge value must not be NaN");
        self.gauges[g.0 as usize] = v;
    }

    /// Record a histogram observation.
    #[inline]
    pub fn observe(&mut self, h: HistogramId, v: f64) {
        if !self.enabled {
            return;
        }
        self.hists[h.0 as usize].observe(v);
    }

    /// Export every registered metric, sorted by `(name, labels)`, with no
    /// series attached. A disabled registry exports an empty snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snapshot_with(Vec::new())
    }

    /// Export with virtual-time series attached (sorted by name).
    pub fn snapshot_with(&self, mut series: Vec<Series>) -> MetricsSnapshot {
        if !self.enabled {
            return MetricsSnapshot::empty();
        }
        let mut metrics = Vec::with_capacity(
            self.counters.len() + self.gauges.len() + self.hists.len(),
        );
        for (m, &v) in self.counter_meta.iter().zip(&self.counters) {
            metrics.push(MetricEntry {
                name: m.name.clone(),
                help: m.help.clone(),
                labels: m.labels.clone(),
                value: MetricValue::Counter(v),
            });
        }
        for (m, &v) in self.gauge_meta.iter().zip(&self.gauges) {
            metrics.push(MetricEntry {
                name: m.name.clone(),
                help: m.help.clone(),
                labels: m.labels.clone(),
                value: MetricValue::Gauge(v),
            });
        }
        for (m, h) in self.hist_meta.iter().zip(&self.hists) {
            metrics.push(MetricEntry {
                name: m.name.clone(),
                help: m.help.clone(),
                labels: m.labels.clone(),
                value: MetricValue::Histogram {
                    buckets: h.counts().to_vec(),
                    sum: h.sum(),
                    count: h.count(),
                },
            });
        }
        metrics.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        series.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { metrics, series }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_a_no_op_and_exports_empty() {
        let mut r = Registry::disabled();
        let c = r.counter("x_total", "x", &[]);
        let g = r.gauge("g", "g", &[]);
        let h = r.histogram("h", "h", &[]);
        r.inc(c);
        r.add(c, 10);
        r.set(g, 3.0);
        r.observe(h, 1.0);
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn same_key_returns_same_handle_and_snapshot_sorts() {
        let mut r = Registry::new();
        let c1 = r.counter("b_total", "b", &[("stage", "1")]);
        let c2 = r.counter("b_total", "b", &[("stage", "1")]);
        assert_eq!(c1, c2);
        let c0 = r.counter("a_total", "a", &[]);
        r.inc(c1);
        r.inc(c0);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["a_total", "b_total"]);
    }

    #[test]
    fn label_sets_sort_within_a_name() {
        let mut r = Registry::new();
        let b = r.gauge("g", "g", &[("stage", "10")]);
        let a = r.gauge("g", "g", &[("stage", "1")]);
        r.set(a, 1.0);
        r.set(b, 10.0);
        let snap = r.snapshot();
        let stages: Vec<&str> = snap
            .metrics
            .iter()
            .map(|m| m.labels.get("stage").unwrap().as_str())
            .collect();
        // Lexicographic on label values: "1" < "10".
        assert_eq!(stages, vec!["1", "10"]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_metric_name_is_rejected_at_registration() {
        Registry::new().counter("bad name", "help", &[]);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_is_rejected() {
        let mut r = Registry::new();
        r.counter("x", "x", &[]);
        r.gauge("x", "x", &[]);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_gauge_is_rejected() {
        let mut r = Registry::new();
        let g = r.gauge("g", "g", &[]);
        r.set(g, f64::NAN);
    }
}
