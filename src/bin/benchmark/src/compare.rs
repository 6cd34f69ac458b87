//! `--compare BASE CUR`: judge `--out` files against the end-to-end
//! bounds of `BENCHMARK.json`. Each side is one file or a comma-separated
//! list of files, one per run.

use crate::spec::{as_f64, as_str, field, Spec, SpecMetric};
use crate::stats::{median, relative_spread};
use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound, or a side lacks
    /// the metric: the two runs cannot be told apart.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of a metric: its value, and the repeated
/// measurements whose spread says how far the value can be trusted. With
/// several runs on a side those are the runs' values and the value is
/// their median. With one run they are its reps, whose spread overstates
/// the run-to-run spread of a fastest-rep value. Modelled metrics have
/// none.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub reps: Vec<f64>,
}

/// Judge `cur` against `base` under `m`'s bound. A change beyond the
/// bound counts only when the spread of both sides' repeats is within
/// it, or when every current repeat beats every base repeat.
pub fn judge(m: &SpecMetric, base: Option<&Reading>, cur: Option<&Reading>) -> Verdict {
    let (Some(b), Some(c)) = (base, cur) else {
        return Verdict::Unresolved;
    };
    let bound = m.bound.unwrap_or(0.0);
    if !(b.value.is_finite() && c.value.is_finite()) || b.value == 0.0 {
        return Verdict::Unresolved;
    }
    // Positive = worse, as a share of the base.
    let sign = if m.lower_is_better { 1.0 } else { -1.0 };
    let worse = sign * (c.value - b.value) / b.value.abs();
    let spread = [&b.reps, &c.reps]
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| relative_spread(r))
        .fold(0.0, f64::max);
    let separated = !b.reps.is_empty()
        && !c.reps.is_empty()
        && c.reps.iter().all(|&x| {
            b.reps
                .iter()
                .all(|&y| if m.lower_is_better { x < y } else { x > y })
        });
    let resolved = spread <= bound;
    if worse > bound {
        if resolved {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if -worse > bound {
        if resolved || separated {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if resolved {
        Verdict::Unchanged
    } else {
        Verdict::Unresolved
    }
}

/// Read one metric of one workload from one `--out` document.
fn run_reading(doc: &Value, workload: &str, metric: &str) -> Option<Reading> {
    let m = field(field(field(doc, "workloads")?, workload)?, "metrics")?;
    let m = field(m, metric)?;
    Some(Reading {
        value: field(m, "value").and_then(as_f64)?,
        reps: match field(m, "reps") {
            Some(Value::Seq(xs)) => xs.iter().filter_map(as_f64).collect(),
            _ => Vec::new(),
        },
    })
}

/// One side's reading over its runs; `None` when any run lacks it.
fn reading(docs: &[Value], workload: &str, metric: &str) -> Option<Reading> {
    let runs: Vec<Reading> = docs
        .iter()
        .map(|d| run_reading(d, workload, metric))
        .collect::<Option<_>>()?;
    match runs.as_slice() {
        [] => None,
        [one] => Some(one.clone()),
        _ => {
            let values: Vec<f64> = runs.iter().map(|r| r.value).collect();
            Some(Reading {
                value: median(&values),
                reps: values,
            })
        }
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    match field(&doc, "workloads") {
        Some(Value::Map(_)) => Ok(doc),
        _ => Err(format!(
            "{path}: no `workloads` object (not a benchmark --out file)"
        )),
    }
}

/// Print a verdict per (workload, end-to-end metric) pair and return the
/// number of regressions. `base` and `cur` are comma-separated lists of
/// `--out` files.
pub fn compare(spec: &Spec, base: &str, cur: &str) -> Result<usize, String> {
    let load_all = |paths: &str| paths.split(',').map(load).collect::<Result<Vec<_>, _>>();
    let (base, cur) = (load_all(base)?, load_all(cur)?);
    let mut counts = [0usize; 4];
    for w in &spec.workloads {
        let present = |d: &Value| field(field(d, "workloads").unwrap_or(&Value::Null), w).is_some();
        if !base.iter().chain(&cur).any(present) {
            continue;
        }
        let digests = |docs: &[Value]| {
            let mut ds: Vec<String> = docs
                .iter()
                .filter_map(|d| field(field(field(d, "workloads")?, w)?, "digest"))
                .filter_map(as_str)
                .map(str::to_string)
                .collect();
            ds.sort();
            ds.dedup();
            ds
        };
        if digests(&base) != digests(&cur) {
            println!("note       {w:<15} report digests differ: the modelled behaviour changed");
        }
        for m in &spec.end_to_end {
            let b = reading(&base, w, &m.name);
            let c = reading(&cur, w, &m.name);
            let v = judge(m, b.as_ref(), c.as_ref());
            counts[v as usize] += 1;
            let show = |r: &Option<Reading>| {
                r.as_ref()
                    .map_or("-".to_string(), |r| format!("{:.6}", r.value))
            };
            let change = match (&b, &c) {
                (Some(b), Some(c)) if b.value != 0.0 => {
                    format!("{:+.2}%", 100.0 * (c.value - b.value) / b.value.abs())
                }
                _ => "n/a".to_string(),
            };
            println!(
                "{:<10} {w:<15} {:<18} {} -> {} {:<6} ({change}, bound {:.0}%)",
                v.label(),
                m.name,
                show(&b),
                show(&c),
                m.unit,
                100.0 * m.bound.unwrap_or(0.0)
            );
        }
    }
    let [improved, unchanged, regressed, unresolved] = counts;
    println!(
        "compare: {improved} improved, {unchanged} unchanged, {regressed} regressed, {unresolved} unresolved"
    );
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower: bool, bound: f64) -> SpecMetric {
        SpecMetric {
            name: "m".into(),
            unit: "s".into(),
            lower_is_better: lower,
            bound: Some(bound),
        }
    }

    fn r(value: f64, reps: &[f64]) -> Reading {
        Reading {
            value,
            reps: reps.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_direction() {
        let lower = metric(true, 0.1);
        assert_eq!(
            judge(&lower, Some(&r(1.0, &[])), Some(&r(1.05, &[]))),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&lower, Some(&r(1.0, &[])), Some(&r(1.2, &[]))),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&lower, Some(&r(1.0, &[])), Some(&r(0.8, &[]))),
            Verdict::Improved
        );
        let higher = metric(false, 0.1);
        assert_eq!(
            judge(&higher, Some(&r(1.0, &[])), Some(&r(0.8, &[]))),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&higher, Some(&r(1.0, &[])), Some(&r(1.2, &[]))),
            Verdict::Improved
        );
        let exact = metric(false, 0.0);
        assert_eq!(
            judge(&exact, Some(&r(6.0, &[])), Some(&r(6.0, &[]))),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&exact, Some(&r(6.0, &[])), Some(&r(5.0, &[]))),
            Verdict::Regressed
        );
    }

    fn out_doc(wall: f64, reps: &[f64]) -> Value {
        let reps = Value::Seq(reps.iter().map(|&x| Value::Float(x)).collect());
        let wall = Value::Map(vec![
            ("value".to_string(), Value::Float(wall)),
            ("reps".to_string(), reps),
        ]);
        let metrics = Value::Map(vec![("wall_s".to_string(), wall)]);
        let w = Value::Map(vec![("metrics".to_string(), metrics)]);
        Value::Map(vec![(
            "workloads".to_string(),
            Value::Map(vec![("offline".to_string(), w)]),
        )])
    }

    /// One run offers only its reps' spread; several runs offer their own
    /// run-to-run spread, and the side's value is the median run.
    #[test]
    fn several_runs_per_side_are_judged_by_their_spread() {
        let noisy = [1.0, 1.4, 1.5, 1.0];
        let one = reading(&[out_doc(1.0, &noisy)], "offline", "wall_s").unwrap();
        assert_eq!(one.reps, noisy);
        let runs = [
            out_doc(1.00, &noisy),
            out_doc(1.02, &noisy),
            out_doc(0.99, &noisy),
        ];
        let many = reading(&runs, "offline", "wall_s").unwrap();
        assert_eq!(many.value, 1.00);
        assert_eq!(many.reps, [1.00, 1.02, 0.99]);
        let m = metric(true, 0.25);
        assert_eq!(judge(&m, Some(&one), Some(&one)), Verdict::Unresolved);
        assert_eq!(judge(&m, Some(&many), Some(&many)), Verdict::Unchanged);
        assert!(reading(&[], "offline", "wall_s").is_none());
        assert!(reading(&runs, "online", "wall_s").is_none());
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let m = metric(true, 0.05);
        let noisy = [0.8, 1.0, 1.2, 1.0, 0.9];
        let base = r(1.0, &noisy);
        assert_eq!(
            judge(&m, Some(&base), Some(&r(1.1, &noisy))),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&m, Some(&base), Some(&r(1.0, &noisy))),
            Verdict::Unresolved
        );
        // Unless every current rep beats every base rep.
        let fast = [0.5, 0.55, 0.6];
        assert_eq!(
            judge(&m, Some(&base), Some(&r(0.55, &fast))),
            Verdict::Improved
        );
        // A missing side cannot be judged.
        assert_eq!(judge(&m, None, Some(&base)), Verdict::Unresolved);
    }
}
