//! The lint driver: walk the configured paths, model each file once,
//! apply every rule set that covers it, honour allow escapes.

use crate::config::Config;
use crate::findings::{Finding, Suppressed};
use crate::model::FileModel;
use crate::rules::{rule_by_name, RuleCtx};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Everything one analysis pass produced.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Unsuppressed findings (sorted by file/line/rule).
    pub findings: Vec<Finding>,
    /// Findings suppressed by a justified allow escape.
    pub suppressed: Vec<Suppressed>,
    /// Source files scanned at least once.
    pub files_scanned: usize,
}

/// Directory names never descended into: test and bench code is exempt
/// from the production invariants, generated/vcs dirs are noise.
const SKIP_DIRS: [&str; 4] = ["tests", "benches", "target", ".git"];

/// Run the configured lint pass against a repo root.
pub fn analyze_root(root: &Path, cfg: &Config) -> Result<Analysis, String> {
    // path → (set index) pairs, preserving set order per file.
    let mut file_sets: BTreeMap<PathBuf, Vec<usize>> = BTreeMap::new();
    for (si, set) in cfg.sets.iter().enumerate() {
        for p in &set.paths {
            let full = root.join(p);
            let mut files = Vec::new();
            if full.is_dir() {
                walk(&full, &mut files)
                    .map_err(|e| format!("walking {}: {e}", full.display()))?;
            } else if full.is_file() {
                files.push(full.clone());
            } else {
                return Err(format!(
                    "set `{}` path `{p}` does not exist under {}",
                    set.name,
                    root.display()
                ));
            }
            for f in files {
                file_sets.entry(f).or_default().push(si);
            }
        }
    }

    // Model every file once.
    let mut models: BTreeMap<PathBuf, FileModel> = BTreeMap::new();
    for path in file_sets.keys() {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        models.insert(path.clone(), FileModel::build(&text));
    }

    // Files declared `#[cfg(test)] mod name;` anywhere in their directory
    // are test-only: skip them wholesale.
    let mut test_files: Vec<PathBuf> = Vec::new();
    for (path, model) in &models {
        let Some(dir) = path.parent() else { continue };
        for name in &model.gated_mods {
            test_files.push(dir.join(format!("{name}.rs")));
            test_files.push(dir.join(name).join("mod.rs"));
        }
    }

    let ctx = RuleCtx {
        observers: &cfg.observers,
    };
    let mut out = Analysis {
        files_scanned: models.len(),
        ..Analysis::default()
    };
    for (path, set_ids) in &file_sets {
        if test_files.iter().any(|t| t == path) {
            continue;
        }
        let model = &models[path];
        let rel = rel_name(root, path);
        // Union of rules across the sets covering this file, first set wins
        // the ordering; a rule listed twice runs once.
        let mut rules_seen: Vec<&str> = Vec::new();
        for &si in set_ids {
            for rule in &cfg.sets[si].rules {
                if !rules_seen.contains(&rule.as_str()) {
                    rules_seen.push(rule);
                }
            }
        }
        for rule_name in &rules_seen {
            let Some(rule) = rule_by_name(rule_name) else {
                // Config validation rejects unknown rules before this
                // point; skipping keeps the driver total anyway.
                continue;
            };
            let mut hit_lines: Vec<usize> = Vec::new();
            for hit in (rule.check)(model, &ctx) {
                if model.line_in_test(hit.line) || hit_lines.contains(&hit.line) {
                    continue; // test-scoped, or a second hit on the same line
                }
                hit_lines.push(hit.line);
                let finding = Finding {
                    file: rel.clone(),
                    line: hit.line,
                    rule: (*rule_name).to_string(),
                    message: format!("{}: `{}`", hit.message, excerpt(model.raw_line(hit.line))),
                };
                match model.allows_for(hit.line, rule_name) {
                    Some(allow) if !allow.justification.is_empty() => {
                        out.suppressed.push(Suppressed {
                            finding,
                            justification: allow.justification.clone(),
                        });
                    }
                    Some(_) => {
                        // An allow with no written justification does not
                        // count; the finding stands, upgraded.
                        out.findings.push(Finding {
                            message: format!(
                                "{} (allow escape present but carries no justification)",
                                hit.message
                            ),
                            ..finding
                        });
                    }
                    None => out.findings.push(finding),
                }
            }
        }
        // Malformed escapes: an `analyzer:` comment that parses to no
        // rules is a typo that would silently not suppress.
        for allow in &model.allows {
            if allow.rules.is_empty() {
                out.findings.push(Finding {
                    file: rel.clone(),
                    line: allow.comment_line,
                    rule: "invalid-allow".to_string(),
                    message: "malformed `analyzer: allow(..)` escape (no rule names parsed)"
                        .to_string(),
                });
            } else {
                for r in &allow.rules {
                    if rule_by_name(r).is_none() {
                        out.findings.push(Finding {
                            file: rel.clone(),
                            line: allow.comment_line,
                            rule: "invalid-allow".to_string(),
                            message: format!("allow escape names unknown rule `{r}`"),
                        });
                    }
                }
            }
        }
    }
    out.findings.sort();
    out.findings.dedup();
    out.suppressed.sort_by(|a, b| a.finding.cmp(&b.finding));
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            walk(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_name(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn excerpt(raw: &str) -> String {
    let t = raw.trim();
    if t.len() > 80 {
        format!("{}…", &t[..t.char_indices().take(79).last().map(|(i, c)| i + c.len_utf8()).unwrap_or(0)])
    } else {
        t.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn excerpt_truncates_on_char_boundary() {
        let long = "x".repeat(200);
        let e = excerpt(&long);
        assert!(e.chars().count() <= 80);
        assert!(e.ends_with('…'));
        assert_eq!(excerpt("short"), "short");
    }
}
