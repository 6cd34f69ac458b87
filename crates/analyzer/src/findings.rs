//! Findings and the ratchet baseline.
//!
//! The ratchet makes the lint pass adoptable without a flag day: the
//! committed baseline records how many findings each `(rule, file)` pair
//! is *allowed* to have, CI fails only when a pair exceeds its baseline
//! (a **new** finding), and `--update-baseline` re-records the current
//! state once findings are fixed or deliberately accepted. This
//! repository's baseline is empty — the gate is "no unsuppressed
//! findings" — but the machinery keeps that a policy, not a hard-coding.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Finding {
    /// Repo-root-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule name.
    pub rule: String,
    /// What fired, with a source excerpt.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A finding suppressed by an `analyzer: allow` escape.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Suppressed {
    /// The finding that would have fired.
    pub finding: Finding,
    /// The escape's written justification.
    pub justification: String,
}

/// One baseline record: `(rule, file)` may have up to `count` findings.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselineEntry {
    /// Rule name.
    pub rule: String,
    /// Repo-root-relative file.
    pub file: String,
    /// Tolerated finding count.
    pub count: usize,
}

/// The committed ratchet baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    counts: BTreeMap<(String, String), usize>,
}

/// Result of comparing current findings against the baseline.
#[derive(Debug, Clone, Default)]
pub struct RatchetDiff {
    /// Findings beyond the baseline — these fail CI. For a `(rule, file)`
    /// pair over budget, the *entire* pair's findings are listed (line
    /// numbers shift; the analyzer cannot know which one is new).
    pub new: Vec<Finding>,
    /// Baseline entries now over-provisioned (fixed findings); a hint to
    /// re-run `--update-baseline`, never a failure.
    pub fixed: Vec<BaselineEntry>,
}

impl Baseline {
    /// An empty baseline (every finding is new).
    pub fn empty() -> Self {
        Baseline::default()
    }

    /// Build a baseline tolerating exactly the given findings.
    pub fn from_findings(findings: &[Finding]) -> Self {
        let mut counts = BTreeMap::new();
        for f in findings {
            *counts.entry((f.rule.clone(), f.file.clone())).or_insert(0) += 1;
        }
        Baseline { counts }
    }

    /// Parse the committed JSON form.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let entries: Vec<BaselineEntry> =
            serde_json::from_str(text).map_err(|e| format!("bad baseline JSON: {e}"))?;
        let mut counts = BTreeMap::new();
        for e in entries {
            counts.insert((e.rule, e.file), e.count);
        }
        Ok(Baseline { counts })
    }

    /// Load from disk; a missing file is the empty baseline.
    pub fn load(path: &Path) -> Result<Self, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Baseline::from_json(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Baseline::empty()),
            Err(e) => Err(format!("cannot read {}: {e}", path.display())),
        }
    }

    /// Serialize to the committed JSON form (sorted, stable).
    pub fn to_json(&self) -> String {
        let entries: Vec<BaselineEntry> = self
            .counts
            .iter()
            .map(|((rule, file), count)| BaselineEntry {
                rule: rule.clone(),
                file: file.clone(),
                count: *count,
            })
            .collect();
        #[expect(clippy::expect_used, reason = "serializing a plain vec of (string, string, usize) \
            entries cannot fail")]
        let mut s = serde_json::to_string_pretty(&entries).expect("baseline serializes");
        s.push('\n');
        s
    }

    /// Number of tolerated findings in total.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    /// Compare current findings against the baseline.
    pub fn diff(&self, findings: &[Finding]) -> RatchetDiff {
        let mut current: BTreeMap<(String, String), Vec<&Finding>> = BTreeMap::new();
        for f in findings {
            current
                .entry((f.rule.clone(), f.file.clone()))
                .or_default()
                .push(f);
        }
        let mut diff = RatchetDiff::default();
        for (key, group) in &current {
            let budget = self.counts.get(key).copied().unwrap_or(0);
            if group.len() > budget {
                diff.new.extend(group.iter().map(|f| (*f).clone()));
            }
        }
        for (key, &budget) in &self.counts {
            let have = current.get(key).map(Vec::len).unwrap_or(0);
            if have < budget {
                diff.fixed.push(BaselineEntry {
                    rule: key.0.clone(),
                    file: key.1.clone(),
                    count: budget - have,
                });
            }
        }
        diff.new.sort();
        diff
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(rule: &str, file: &str, line: usize) -> Finding {
        Finding {
            rule: rule.into(),
            file: file.into(),
            line,
            message: "m".into(),
        }
    }

    #[test]
    fn empty_baseline_flags_everything() {
        let d = Baseline::empty().diff(&[f("r", "a.rs", 1)]);
        assert_eq!(d.new.len(), 1);
        assert!(d.fixed.is_empty());
    }

    #[test]
    fn baseline_tolerates_and_ratchets() {
        let base = Baseline::from_findings(&[f("r", "a.rs", 1)]);
        // Same count, different line: tolerated (lines shift).
        assert!(base.diff(&[f("r", "a.rs", 99)]).new.is_empty());
        // One more in the same file: the whole pair is reported.
        assert_eq!(base.diff(&[f("r", "a.rs", 1), f("r", "a.rs", 2)]).new.len(), 2);
        // Fixed findings show up as over-provisioned, not failures.
        let d = base.diff(&[]);
        assert!(d.new.is_empty());
        assert_eq!(d.fixed.len(), 1);
    }

    #[test]
    fn json_round_trip() {
        let base = Baseline::from_findings(&[
            f("r1", "a.rs", 1),
            f("r1", "a.rs", 2),
            f("r2", "b.rs", 3),
        ]);
        let text = base.to_json();
        let back = Baseline::from_json(&text).unwrap();
        assert_eq!(back, base);
        assert_eq!(back.total(), 3);
    }
}
