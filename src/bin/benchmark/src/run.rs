//! Measure one workload in this process: untraced reps for the
//! end-to-end numbers, optionally interleaved with traced reps for the
//! per-layer numbers.

use crate::layers::{peak_rss_mib, timed, CountingPredictor, ExecStats, Span, Tracer};
use crate::stats::{median, quartiles};
use crate::workloads::{bucket_accuracy, pass, setup, Hooks, Metric, Pass, Sizes};
use serde::Value;
use std::rc::Rc;
use std::time::Instant;

/// Fewest untraced reps a run makes, however long they take: enough for
/// a median and quartiles.
pub const MIN_REPS: usize = 3;

/// A metric plus, for wall-clock medians, the per-rep values behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub metric: Metric,
    pub reps: Vec<f64>,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    pub reps: usize,
    pub metrics: Vec<Measured>,
    /// Requests offered and completed, over every pass.
    pub offered: u64,
    pub completed: u64,
    /// Output checks made, over every pass, and the distinct messages of
    /// those that failed (`check_failures` counts every failure).
    pub checks: u64,
    pub check_failures: u64,
    pub failures: Vec<String>,
    /// Digest of the first pass's reports; every later pass must match.
    pub digest: Option<u64>,
    pub spans: Vec<Span>,
}

impl WorkloadResult {
    fn put(&mut self, name: &str, value: f64, unit: &str, reps: Vec<f64>) {
        self.metrics.push(Measured {
            metric: Metric {
                name: name.to_string(),
                value,
                unit: unit.to_string(),
            },
            reps,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.metric.name == name)
            .map(|m| m.metric.value)
    }

    /// Requests offered plus checks made.
    pub fn attempted(&self) -> u64 {
        self.offered + self.checks
    }

    /// Requests not completed plus checks failed.
    pub fn failed(&self) -> u64 {
        self.offered - self.completed + self.check_failures
    }

    /// Account one pass: its requests and checks, its failures, and
    /// whether its reports match the first pass's byte for byte.
    fn absorb(&mut self, pass: &Pass, what: &str) {
        self.offered += pass.offered;
        self.completed += pass.completed;
        self.checks += pass.checks;
        for f in &pass.failures {
            self.check_failures += 1;
            if !self.failures.contains(f) {
                self.failures.push(f.clone());
            }
        }
        match self.digest {
            None => self.digest = Some(pass.digest),
            Some(first) => {
                let same = pass.digest == first;
                self.checks += 1;
                if !same {
                    self.fail(format!(
                        "{what}: report digest {:016x} differs from the first pass's {first:016x}",
                        pass.digest
                    ));
                }
            }
        }
    }

    fn fail(&mut self, message: String) {
        self.check_failures += 1;
        self.failures.push(message);
    }

    /// The result as a JSON tree (what a child process hands its parent,
    /// and what `--out` stores per workload).
    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), Value::Float(m.metric.value)),
                    ("unit".to_string(), Value::Str(m.metric.unit.clone())),
                ];
                if !m.reps.is_empty() {
                    let (q1, q3) = quartiles(&m.reps);
                    fields.push(("q1".to_string(), Value::Float(q1)));
                    fields.push(("q3".to_string(), Value::Float(q3)));
                    fields.push((
                        "reps".to_string(),
                        Value::Seq(m.reps.iter().map(|&r| Value::Float(r)).collect()),
                    ));
                }
                (m.metric.name.clone(), Value::Map(fields))
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("name".to_string(), Value::Str(s.name.clone())),
                    ("start_s".to_string(), Value::Float(s.start_s)),
                    ("end_s".to_string(), Value::Float(s.end_s)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                ])
            })
            .collect();
        Value::Map(vec![
            ("workload".to_string(), Value::Str(self.workload.clone())),
            ("seed".to_string(), Value::UInt(self.seed)),
            ("reps".to_string(), Value::UInt(self.reps as u64)),
            ("correct".to_string(), Value::Bool(self.failures.is_empty())),
            ("attempted".to_string(), Value::UInt(self.attempted())),
            ("failed".to_string(), Value::UInt(self.failed())),
            (
                "failures".to_string(),
                Value::Seq(self.failures.iter().cloned().map(Value::Str).collect()),
            ),
            (
                "digest".to_string(),
                Value::Str(format!("{:016x}", self.digest.unwrap_or(0))),
            ),
            ("metrics".to_string(), Value::Map(metrics)),
            ("layers".to_string(), Value::Seq(spans)),
        ])
    }
}

/// Measure `workload` for at least `seconds`. Untraced reps give the
/// end-to-end numbers. With `traced` set, every untraced rep is paired
/// with a traced one: per-layer numbers are medians over the traced reps,
/// and the tracing overhead compares the two medians. Pairs run side by
/// side, so drift in the machine's speed cancels, and alternate which
/// side runs first, so an order effect (such as a heap the previous pass
/// left warm) cancels too.
pub fn run_workload(
    workload: &str,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> WorkloadResult {
    let mut res = WorkloadResult {
        workload: workload.to_string(),
        seed,
        ..WorkloadResult::default()
    };
    let off = Tracer::disabled();
    let mut setup_s = Vec::new();
    let mut wall_s = Vec::new();
    let mut modelled: Vec<Metric> = Vec::new();
    let mut layer_reps: Vec<Vec<Metric>> = Vec::new();
    // analyzer: allow(no-instant-now) — benchmark harness: bounds how long
    // the reps run; no modelled value depends on it.
    let started = Instant::now();
    loop {
        let order: &[bool] = match (traced, res.reps % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &is_traced in order {
            if is_traced {
                match traced_rep(&mut res, workload, sizes, seed) {
                    Ok(layers) => layer_reps.push(layers),
                    Err(e) => {
                        res.fail(format!("traced setup: {e}"));
                        return res;
                    }
                }
                continue;
            }
            let (s, built) = timed(|| setup(workload, sizes, seed, &off));
            let built = match built {
                Ok(b) => b,
                Err(e) => {
                    res.fail(format!("setup: {e}"));
                    return res;
                }
            };
            let hooks = Hooks {
                predictor: &built.predictor,
                plane: None,
                tr: &off,
            };
            let (w, p) = timed(|| pass(&built, hooks));
            drop(built);
            res.absorb(&p, &format!("rep {}", res.reps + 1));
            if res.reps == 0 {
                modelled = p.metrics;
            }
            res.reps += 1;
            setup_s.push(s);
            wall_s.push(w);
        }
        let elapsed = started.elapsed().as_secs_f64();
        if res.reps >= MIN_REPS && elapsed >= seconds {
            break;
        }
    }
    res.put("setup_s", median(&setup_s), "s", setup_s);
    // Noise on a shared machine only ever adds time, in bursts that slow
    // the CPU for seconds at a time, so the fastest rep is the steadiest
    // estimate of a pass's work (the median and quartiles print beside it).
    let wall_median = median(&wall_s);
    let fastest = wall_s.iter().copied().fold(f64::INFINITY, f64::min);
    res.put("wall_s", fastest, "s", wall_s);
    match peak_rss_mib() {
        Some(mib) => res.put("peak_rss_mb", mib, "MiB", Vec::new()),
        None => res.fail("peak RSS unavailable (no /proc/self/status)".to_string()),
    }
    for m in modelled {
        res.put(&m.name, m.value, &m.unit, Vec::new());
    }
    if res.offered > 0 {
        let lost = (res.offered - res.completed) as f64 / res.offered as f64;
        res.put("fail_frac", lost, "fraction", Vec::new());
    }
    if let Some(first) = layer_reps.first() {
        // Layer metrics the untraced reps also report (the deterministic
        // counts) are already in; the rest are medians over traced reps.
        for m in first {
            if res.get(&m.name).is_some() {
                continue;
            }
            let values: Vec<f64> = layer_reps
                .iter()
                .filter_map(|rep| rep.iter().find(|x| x.name == m.name).map(|x| x.value))
                .collect();
            let reps = if m.unit == "s" {
                values.clone()
            } else {
                Vec::new()
            };
            res.put(&m.name, median(&values), &m.unit, reps);
        }
        if let Some(traced_wall) = res.get("bench.traced_wall_s") {
            res.put(
                "bench.trace_overhead_frac",
                traced_wall / wall_median - 1.0,
                "fraction",
                Vec::new(),
            );
        }
    }
    res
}

/// One traced rep: spans around every public call, the counting
/// predictor and the timed execution plane attached. Returns the layer
/// metrics it measured; its spans replace the previous rep's.
fn traced_rep(
    res: &mut WorkloadResult,
    workload: &str,
    sizes: &Sizes,
    seed: u64,
) -> Result<Vec<Metric>, String> {
    let tr = Tracer::enabled();
    let built = tr.span("setup", || setup(workload, sizes, seed, &tr))?;
    let predictor = CountingPredictor::new(&built.predictor);
    let plane = Rc::new(ExecStats::default());
    let hooks = Hooks {
        predictor: &predictor,
        plane: Some(&plane),
        tr: &tr,
    };
    let (wall, p) = timed(|| tr.span("pass", || pass(&built, hooks)));
    res.absorb(&p, "traced rep");
    let mut m = p.metrics;
    let mut put = |name: &str, value: f64, unit: &str| {
        m.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        })
    };
    put("workload.generate_s", tr.total_s("workload.generate"), "s");
    put("predictor.train_s", tr.total_s("predictor.train"), "s");
    put("predictor.calls", predictor.calls() as f64, "count");
    put("predictor.busy_s", predictor.busy_s(), "s");
    put(
        "predictor.bucket_accuracy",
        bucket_accuracy(&built),
        "fraction",
    );
    // The fleet builds its own execution planes, so only the
    // single-engine workloads see the timed plane.
    if plane.launches.get() > 0 {
        put("sim.launches", plane.launches.get() as f64, "count");
        put("sim.busy_s", plane.busy_s(), "s");
        put(
            "sim.queue_depth_hw",
            plane.queue_depth_hw.get() as f64,
            "count",
        );
        let run = tr.total_s("core.run");
        put(
            "core.self_s",
            run - plane.busy_s() - predictor.busy_s(),
            "s",
        );
    }
    put("bench.traced_wall_s", wall, "s");
    res.spans = tr.into_spans();
    Ok(m)
}
