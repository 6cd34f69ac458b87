//! `benchmark` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path src/bin/benchmark/Cargo.toml -- \
//!     [--workload NAME]... [--seed S] [--seconds N] [--trace 0|1] [--out PATH]
//! cargo run --release --manifest-path src/bin/benchmark/Cargo.toml -- \
//!     --compare BASE.json[,BASE2.json...] CUR.json[,CUR2.json...]
//! ```
//!
//! Each workload runs in a fresh child process of this binary, one at a
//! time, so its peak RSS is its own. Every metric prints as
//! `workload metric value unit`; the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is non-zero when any output check failed. See `README.md`.

mod compare;
mod layers;
mod run;
mod slo;
mod spec;
mod stats;
mod workloads;

use serde::Value;
use spec::{as_f64, as_str, field, spec, Spec};
use std::process::{Command, ExitCode, Stdio};
use workloads::Sizes;

const USAGE: &str = "\
usage: benchmark [--workload NAME]... [--seed S] [--seconds N] [--trace 0|1] [--out PATH]
       benchmark --compare BASE.json[,BASE2.json...] CUR.json[,CUR2.json...]

  --workload  offline | online | fleet-sessions | observed (repeatable; default all)
  --seed      drives every trace and arrival stream (default 42)
  --seconds   measuring time per workload (default: run_seconds of BENCHMARK.json)
  --trace     0: untraced reps, end-to-end metrics; 1: traced reps interleaved, per-layer
              metrics (default: traced reps interleaved, all metrics)
  --out       write every workload's metrics, reps and spans as JSON
  --compare   judge CUR against BASE under the bounds of BENCHMARK.json; exit 1 on a regression.
              Give several --out files per side, one per run, to judge by run-to-run spread
";

/// Which metric set the final JSON line carries.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TraceMode {
    Off,
    On,
    /// No `--trace` given: measure both and print both.
    Both,
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    trace: TraceMode,
    out: Option<String>,
    compare: Option<(String, String)>,
    /// Internal: run this one workload in this process.
    child: Option<String>,
}

fn parse_args(argv: &[String], spec: &Spec) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: spec.run_seconds,
        trace: TraceMode::Both,
        out: None,
        compare: None,
        child: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workloads.push(value()?),
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| format!("--seed: bad number '{v}'"))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = match v.parse() {
                    Ok(s) if s >= 1 => s,
                    _ => return Err(format!("--seconds: need a whole number >= 1, got '{v}'")),
                };
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => TraceMode::Off,
                    "1" => TraceMode::On,
                    other => return Err(format!("--trace: 0 or 1, got '{other}'")),
                };
            }
            "--out" => a.out = Some(value()?),
            "--compare" => {
                let base = value()?;
                a.compare = Some((base, value()?));
            }
            "--child" => a.child = Some(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    for w in a.workloads.iter().chain(&a.child) {
        if !spec.workloads.contains(w) {
            return Err(format!(
                "unknown workload '{w}' ({})",
                spec.workloads.join(" | ")
            ));
        }
    }
    if a.workloads.is_empty() {
        a.workloads = spec.workloads.clone();
    }
    Ok(a)
}

fn main() -> ExitCode {
    let spec = spec();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv, &spec) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, cur)) = &args.compare {
        return match compare::compare(&spec, base, cur) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    if let Some(w) = &args.child {
        let traced = args.trace != TraceMode::Off;
        let res = run::run_workload(w, &Sizes::full(), args.seed, args.seconds as f64, traced);
        print_lines(&res);
        println!(
            "@result {}",
            serde_json::to_string(&res.to_value()).unwrap_or_default()
        );
        return ExitCode::SUCCESS;
    }
    match parent(&args, &spec) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The human-readable lines: `workload metric value unit`, with the rep
/// count, median and quartiles after values taken over reps, then any
/// failures.
fn print_lines(res: &run::WorkloadResult) {
    for m in &res.metrics {
        let mm = &m.metric;
        if m.reps.is_empty() {
            println!("{} {} {} {}", res.workload, mm.name, mm.value, mm.unit);
        } else {
            let (q1, q3) = stats::quartiles(&m.reps);
            println!(
                "{} {} {} {}  # {} reps: median {:.6} q1 {q1:.6} q3 {q3:.6}",
                res.workload,
                mm.name,
                mm.value,
                mm.unit,
                m.reps.len(),
                stats::median(&m.reps),
            );
        }
    }
    for f in &res.failures {
        println!("{} CHECK FAILED: {f}", res.workload);
    }
}

/// Run each workload in a child process, then print the summary line and
/// write `--out`. Returns whether every check passed.
fn parent(args: &Args, spec: &Spec) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut results: Vec<(String, Value)> = Vec::new();
    let mut correct = true;
    for w in &args.workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--child", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        match args.trace {
            TraceMode::Off => cmd.args(["--trace", "0"]),
            TraceMode::On | TraceMode::Both => cmd.args(["--trace", "1"]),
        };
        let out = cmd
            .output()
            .map_err(|e| format!("starting the {w} workload: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut result = None;
        for line in stdout.lines() {
            match line.strip_prefix("@result ") {
                Some(json) => result = serde_json::from_str::<Value>(json).ok(),
                None => println!("{line}"),
            }
        }
        match (out.status.success(), result) {
            (true, Some(r)) => {
                correct &= matches!(field(&r, "correct"), Some(Value::Bool(true)));
                results.push((w.clone(), r));
            }
            _ => {
                println!(
                    "{w} CHECK FAILED: workload process exited with {} and no result",
                    out.status
                );
                correct = false;
            }
        }
    }
    let summary = summary(&results, spec, args.trace, &mut correct);
    if let Some(path) = &args.out {
        let doc = Value::Map(vec![
            ("seed".to_string(), Value::UInt(args.seed)),
            ("seconds".to_string(), Value::UInt(args.seconds)),
            ("workloads".to_string(), Value::Map(results)),
        ]);
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("--out {path}: {e}"))?;
        eprintln!("[results -> {path}]");
    }
    println!(
        "{}",
        serde_json::to_string(&summary).map_err(|e| e.to_string())?
    );
    Ok(correct)
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}` with the
/// metric set `BENCHMARK.json` names for the trace mode. Metric keys carry
/// a `workload/` prefix when more than one workload ran. A metric the
/// spec names but a workload did not produce, or produced non-finite, is
/// left out and makes the run incorrect.
fn summary(
    results: &[(String, Value)],
    spec: &Spec,
    trace: TraceMode,
    correct: &mut bool,
) -> Value {
    let wanted: Vec<&spec::SpecMetric> = match trace {
        TraceMode::Off => spec.end_to_end.iter().collect(),
        TraceMode::On => spec.per_layer.iter().collect(),
        TraceMode::Both => spec.end_to_end.iter().chain(&spec.per_layer).collect(),
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for (w, r) in results {
        let count = |k: &str| field(r, k).and_then(as_f64).unwrap_or(0.0) as u64;
        attempted += count("attempted");
        failed += count("failed");
        for m in &wanted {
            let got = field(r, "metrics").and_then(|ms| field(ms, &m.name));
            let value = got.and_then(|g| field(g, "value")).and_then(as_f64);
            let unit = got.and_then(|g| field(g, "unit")).and_then(as_str);
            match value {
                Some(v) if v.is_finite() && unit == Some(m.unit.as_str()) => {
                    let key = if results.len() == 1 {
                        m.name.clone()
                    } else {
                        format!("{w}/{}", m.name)
                    };
                    metrics.push((
                        key,
                        Value::Map(vec![
                            ("value".to_string(), Value::Float(v)),
                            ("unit".to_string(), Value::Str(m.unit.clone())),
                        ]),
                    ));
                }
                _ => {
                    println!(
                        "{w} CHECK FAILED: metric {} missing, non-finite or not in {}",
                        m.name, m.unit
                    );
                    *correct = false;
                    attempted += 1;
                    failed += 1;
                }
            }
        }
    }
    Value::Map(vec![
        ("correct".to_string(), Value::Bool(*correct)),
        ("attempted".to_string(), Value::UInt(attempted.max(1))),
        ("failed".to_string(), Value::UInt(failed)),
        ("metrics".to_string(), Value::Map(metrics)),
    ])
}

#[cfg(test)]
mod tests;
