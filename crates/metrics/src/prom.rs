//! Prometheus text exposition: renderer and validator.
//!
//! [`to_prom`] renders a [`MetricsSnapshot`] in the text exposition format
//! (HELP/TYPE per family, cumulative `_bucket{le=...}` histograms with a
//! `+Inf` terminal, escaped label values). [`validate_prom`] re-parses an
//! exposition file and checks the invariants a scraper relies on — the
//! same checker-beside-exporter discipline as `validate_chrome_trace`.

use crate::registry::{valid_label_name, valid_metric_name};
use crate::snapshot::{MetricValue, MetricsSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape a label value per the exposition format: backslash, double
/// quote, and line feed.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Escape HELP text: backslash and line feed (quotes are legal there).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &BTreeMap<String, String>, extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render a snapshot in the Prometheus text exposition format.
///
/// Families appear in snapshot (sorted) order; HELP and TYPE are emitted
/// once per family, ahead of its first sample. Series are not rendered —
/// they are a JSON-snapshot concern; an exposition file is a point-in-time
/// scrape by definition.
pub fn to_prom(snap: &MetricsSnapshot) -> String {
    let bounds = crate::histogram::bucket_bounds();
    let mut out = String::new();
    let mut last_family: Option<&str> = None;
    for m in &snap.metrics {
        let kind = match m.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram { .. } => "histogram",
        };
        if last_family != Some(m.name.as_str()) {
            let _ = writeln!(out, "# HELP {} {}", m.name, escape_help(&m.help));
            let _ = writeln!(out, "# TYPE {} {}", m.name, kind);
            last_family = Some(m.name.as_str());
        }
        match &m.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{}{} {}", m.name, render_labels(&m.labels, None), v);
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{}{} {}", m.name, render_labels(&m.labels, None), v);
            }
            MetricValue::Histogram {
                buckets,
                sum,
                count,
            } => {
                let mut cum = 0u64;
                for (i, c) in buckets.iter().enumerate() {
                    cum += c;
                    let le = if i < bounds.len() {
                        format!("{}", bounds[i])
                    } else {
                        "+Inf".to_string()
                    };
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        m.name,
                        render_labels(&m.labels, Some(("le", &le))),
                        cum
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_sum{} {}",
                    m.name,
                    render_labels(&m.labels, None),
                    sum
                );
                let _ = writeln!(
                    out,
                    "{}_count{} {}",
                    m.name,
                    render_labels(&m.labels, None),
                    count
                );
            }
        }
    }
    out
}

/// What the validator verified, for assertions in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromCheck {
    /// Total sample lines.
    pub samples: usize,
    /// Metric families (one HELP + TYPE pair each).
    pub families: usize,
    /// Histogram series (distinct label sets) fully checked.
    pub histograms: usize,
}

/// A sample's `(name, value)` label pairs, in exposition order.
type Labels = Vec<(String, String)>;

/// Parse one sample line into (metric name, labels, value).
fn parse_sample(line: &str) -> Result<(String, Labels, f64), String> {
    let (name_part, rest) = match line.find('{') {
        Some(brace) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| format!("unclosed label braces: {line}"))?;
            (&line[..brace], (&line[brace + 1..close], &line[close + 1..]))
        }
        None => {
            let sp = line
                .find(' ')
                .ok_or_else(|| format!("sample line without value: {line}"))?;
            (&line[..sp], ("", &line[sp..]))
        }
    };
    let (label_str, value_str) = rest;
    if !valid_metric_name(name_part) {
        return Err(format!("invalid metric name {name_part:?}"));
    }
    let mut labels = Vec::new();
    let mut chars = label_str.chars().peekable();
    while chars.peek().is_some() {
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if !valid_label_name(&key) {
            return Err(format!("invalid label name {key:?} in {line}"));
        }
        if chars.next() != Some('"') {
            return Err(format!("label value must be quoted in {line}"));
        }
        let mut val = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => val.push('\\'),
                    Some('"') => val.push('"'),
                    Some('n') => val.push('\n'),
                    other => {
                        return Err(format!("bad escape \\{other:?} in {line}"));
                    }
                },
                Some('"') => break,
                Some(c) => val.push(c),
                None => return Err(format!("unterminated label value in {line}")),
            }
        }
        labels.push((key, val));
        match chars.next() {
            Some(',') | None => {}
            Some(c) => return Err(format!("expected ',' between labels, got {c:?} in {line}")),
        }
    }
    let value_str = value_str.trim();
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        s => s
            .parse::<f64>()
            .map_err(|e| format!("bad sample value {s:?}: {e}"))?,
    };
    if value.is_nan() {
        return Err(format!("NaN sample value in {line}"));
    }
    Ok((name_part.to_string(), labels, value))
}

/// The family a sample belongs to: strips `_bucket`/`_sum`/`_count` when
/// the base name is a declared histogram.
fn family_of<'a>(name: &'a str, types: &BTreeMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return base;
            }
        }
    }
    name
}

/// Validate a text exposition file. Enforces, per the acceptance criteria:
/// metric-name charset, a HELP and TYPE line before each family's first
/// sample, well-formed (escaped) label values, monotone cumulative
/// histogram buckets terminated by `le="+Inf"`, and `+Inf` cumulative
/// count equal to the family's `_count` sample.
pub fn validate_prom(text: &str) -> Result<PromCheck, String> {
    let mut helps: BTreeMap<String, String> = BTreeMap::new();
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples = 0usize;
    // (family, non-le labels) → ascending (le, cumulative count) pairs.
    let mut hist_buckets: BTreeMap<(String, Labels), Vec<(f64, f64)>> = BTreeMap::new();
    let mut hist_counts: BTreeMap<(String, Labels), f64> = BTreeMap::new();

    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .ok_or_else(|| format!("malformed HELP line: {line}"))?;
            if !valid_metric_name(name) {
                return Err(format!("invalid metric name in HELP: {name:?}"));
            }
            if helps.insert(name.to_string(), help.to_string()).is_some() {
                return Err(format!("duplicate HELP for {name}"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, ty) = rest
                .split_once(' ')
                .ok_or_else(|| format!("malformed TYPE line: {line}"))?;
            if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&ty) {
                return Err(format!("unknown TYPE {ty:?} for {name}"));
            }
            if types.insert(name.to_string(), ty.to_string()).is_some() {
                return Err(format!("duplicate TYPE for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }

        let (name, labels, value) = parse_sample(line)?;
        let family = family_of(&name, &types).to_string();
        if !helps.contains_key(&family) {
            return Err(format!("sample for {family} before its HELP line"));
        }
        if !types.contains_key(&family) {
            return Err(format!("sample for {family} before its TYPE line"));
        }
        samples += 1;

        if types.get(&family).map(String::as_str) == Some("histogram") {
            let mut base_labels = labels.clone();
            if name.ends_with("_bucket") {
                let le_pos = base_labels.iter().position(|(k, _)| k == "le");
                let (_, le) =
                    base_labels.remove(le_pos.ok_or_else(|| {
                        format!("histogram bucket without le label: {line}")
                    })?);
                let le = match le.as_str() {
                    "+Inf" => f64::INFINITY,
                    s => s
                        .parse::<f64>()
                        .map_err(|e| format!("bad le bound {s:?}: {e}"))?,
                };
                hist_buckets
                    .entry((family.clone(), base_labels))
                    .or_default()
                    .push((le, value));
            } else if name.ends_with("_count") {
                hist_counts.insert((family.clone(), base_labels), value);
            }
        }
    }

    // Every declared family needs both HELP and TYPE.
    for name in helps.keys() {
        if !types.contains_key(name) {
            return Err(format!("{name} has HELP but no TYPE"));
        }
    }
    for name in types.keys() {
        if !helps.contains_key(name) {
            return Err(format!("{name} has TYPE but no HELP"));
        }
    }

    // Histogram invariants: le ascending, cumulative counts monotone,
    // terminal +Inf matching _count.
    for ((family, labels), buckets) in &hist_buckets {
        for w in buckets.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(format!("{family}: le bounds not ascending"));
            }
            if w[1].1 < w[0].1 {
                return Err(format!("{family}: cumulative bucket counts decrease"));
            }
        }
        let last = buckets
            .last()
            .ok_or_else(|| format!("{family}: empty bucket list"))?;
        if last.0 != f64::INFINITY {
            return Err(format!("{family}: missing le=\"+Inf\" terminal bucket"));
        }
        match hist_counts.get(&(family.clone(), labels.clone())) {
            Some(&count) if count == last.1 => {}
            Some(&count) => {
                return Err(format!(
                    "{family}: +Inf bucket {} != _count {count}",
                    last.1
                ));
            }
            None => return Err(format!("{family}: histogram without _count sample")),
        }
    }

    Ok(PromCheck {
        samples,
        families: types.len(),
        histograms: hist_buckets.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut r = Registry::new();
        let c = r.counter("jobs_total", "jobs run", &[("stage", "a\"b\\c")]);
        let g = r.gauge("occupancy", "KV occupancy", &[]);
        let h = r.histogram("batch_size", "decode batch sizes", &[]);
        r.add(c, 7);
        r.set(g, 0.5);
        r.observe(h, 1.0);
        r.observe(h, 300.0);
        r.snapshot()
    }

    #[test]
    fn export_round_trips_through_the_validator() {
        let text = to_prom(&sample_snapshot());
        let check = validate_prom(&text).expect("valid exposition");
        assert_eq!(check.families, 3);
        assert_eq!(check.histograms, 1);
        // counter + gauge + 42 buckets + sum + count
        assert_eq!(check.samples, 2 + crate::histogram::NUM_BUCKETS + 2);
    }

    #[test]
    fn label_escaping_survives_round_trip() {
        let text = to_prom(&sample_snapshot());
        assert!(text.contains("stage=\"a\\\"b\\\\c\""));
        validate_prom(&text).expect("escaped labels parse");
    }

    #[test]
    fn validator_rejects_missing_help() {
        let text = "# TYPE x gauge\nx 1\n";
        assert!(validate_prom(text).unwrap_err().contains("HELP"));
    }

    #[test]
    fn validator_rejects_bad_metric_name() {
        let text = "# HELP 9bad h\n# TYPE 9bad gauge\n9bad 1\n";
        assert!(validate_prom(text).unwrap_err().contains("invalid metric name"));
    }

    #[test]
    fn validator_rejects_non_monotone_histogram() {
        let text = "# HELP h h\n# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
                    h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n";
        assert!(validate_prom(text).unwrap_err().contains("decrease"));
    }

    #[test]
    fn validator_requires_inf_terminal() {
        let text = "# HELP h h\n# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 5\nh_sum 9\nh_count 5\n";
        assert!(validate_prom(text).unwrap_err().contains("+Inf"));
    }

    #[test]
    fn validator_rejects_count_mismatch() {
        let text = "# HELP h h\n# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 6\n";
        assert!(validate_prom(text).unwrap_err().contains("_count"));
    }
}
