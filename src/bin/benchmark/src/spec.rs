//! `BENCHMARK.json`, compiled in: the one list of workloads and metrics,
//! with each end-to-end metric's unit, direction and regression bound.

use serde::Value;

const SPEC_JSON: &str = include_str!("../../../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct SpecMetric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<SpecMetric>,
    pub per_layer: Vec<SpecMetric>,
}

/// The compiled-in spec.
///
/// # Panics
/// Panics when `BENCHMARK.json` is malformed; a unit test parses it, so a
/// broken file fails `cargo test` before it can ship.
pub fn spec() -> Spec {
    parse(SPEC_JSON).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
}

pub fn parse(json: &str) -> Result<Spec, String> {
    let doc: Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
    let list = |key: &str| match field(&doc, key) {
        Some(Value::Seq(items)) => Ok(items.as_slice()),
        _ => Err(format!("`{key}` is not a list")),
    };
    let metrics = |key: &str| -> Result<Vec<SpecMetric>, String> {
        list(key)?
            .iter()
            .map(|m| {
                let text = |k: &str| {
                    field(m, k)
                        .and_then(as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("a `{key}` entry lacks `{k}`"))
                };
                Ok(SpecMetric {
                    name: text("name")?,
                    unit: text("unit")?,
                    lower_is_better: match text("better")?.as_str() {
                        "lower" => true,
                        "higher" => false,
                        other => return Err(format!("`better` is '{other}'")),
                    },
                    bound: field(m, "bound").and_then(as_f64),
                })
            })
            .collect()
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| {
            field(w, "name")
                .and_then(as_str)
                .map(str::to_string)
                .ok_or_else(|| "a workload lacks `name`".to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok(Spec {
        run_seconds: field(&doc, "run_seconds")
            .and_then(as_f64)
            .ok_or("`run_seconds` is not a number")? as u64,
        workloads,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// Field `key` of a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

pub fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_in_spec_parses_and_names_the_workloads() {
        let s = spec();
        assert_eq!(
            s.workloads,
            ["offline", "online", "fleet-sessions", "observed"]
        );
        assert!(s.run_seconds >= 1);
        assert!(s
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for m in &s.end_to_end {
            let b = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!((0.0..=0.25).contains(&b), "{}: bound {b}", m.name);
        }
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(
            s.end_to_end.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"run_seconds": 1, "workloads": [], "end_to_end": 3}"#).is_err());
        let bad_dir = r#"{"run_seconds": 1, "workloads": [{"name": "a"}],
            "end_to_end": [{"name": "x", "unit": "s", "better": "sideways"}], "per_layer": []}"#;
        assert!(parse(bad_dir).is_err());
    }
}
