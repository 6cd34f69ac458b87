//! `analyzer.toml` — per-crate rule sets.
//!
//! The workspace has no TOML dependency, so this module parses the small
//! subset the config actually uses:
//!
//! ```toml
//! [set.determinism]
//! paths = [
//!     "crates/sim/src",
//!     "crates/core/src",
//! ]
//! rules = ["no-instant-now", "no-hash-collections"]
//! ```
//!
//! `[set.<name>]` tables with string-array `paths` (crate source dirs or
//! single files, repo-root-relative) and `rules` (names from
//! [`crate::rules::registry`]). One auxiliary table feeds the
//! observer-purity rule:
//!
//! ```toml
//! [observers]             # roots an observer branch may assign to
//! names = ["occupancy"]
//! ```
//!
//! `#` comments and multi-line arrays are supported; anything fancier is
//! a config error, not silently ignored.

use crate::rules::rule_by_name;
use std::path::Path;

/// One named rule set: these `rules` apply to files under these `paths`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSet {
    /// Set name (from the `[set.<name>]` header).
    pub name: String,
    /// Repo-root-relative source dirs or files.
    pub paths: Vec<String>,
    /// Rule names to apply.
    pub rules: Vec<String>,
}

/// The parsed configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    /// All rule sets, in file order.
    pub sets: Vec<RuleSet>,
    /// `[observers]` names: roots observer branches may assign to.
    pub observers: Vec<String>,
}

/// Which table the parser is currently inside.
enum Section {
    Set(usize),
    Observers,
}

impl Config {
    /// Load and validate `analyzer.toml`.
    pub fn load(path: &Path) -> Result<Config, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Config::parse(&text)
    }

    /// Parse the config text; validates rule names against the registry.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut sets: Vec<RuleSet> = Vec::new();
        let mut observers: Vec<String> = Vec::new();
        let mut section: Option<Section> = None;
        let mut lines = text.lines().enumerate().peekable();
        while let Some((n, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                if let Some(name) = header.strip_prefix("set.") {
                    if name.is_empty() {
                        return Err(format!("line {}: empty set name", n + 1));
                    }
                    sets.push(RuleSet {
                        name: name.to_string(),
                        paths: Vec::new(),
                        rules: Vec::new(),
                    });
                    section = Some(Section::Set(sets.len() - 1));
                } else if header == "observers" {
                    section = Some(Section::Observers);
                } else {
                    return Err(format!(
                        "line {}: only [set.<name>] and [observers] tables are supported",
                        n + 1
                    ));
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected `key = value`", n + 1));
            };
            let key = key.trim();
            let mut value = value.trim().to_string();
            // Multi-line array: accumulate until the closing bracket.
            while value.starts_with('[') && !balanced(&value) {
                let Some((_, cont)) = lines.next() else {
                    return Err(format!("line {}: unterminated array", n + 1));
                };
                value.push(' ');
                value.push_str(strip_comment(cont).trim());
            }
            match section {
                Some(Section::Set(si)) => {
                    let items = parse_string_array(&value)
                        .map_err(|e| format!("line {}: {e}", n + 1))?;
                    match key {
                        "paths" => sets[si].paths = items,
                        "rules" => sets[si].rules = items,
                        other => {
                            return Err(format!("line {}: unknown key `{other}`", n + 1))
                        }
                    }
                }
                Some(Section::Observers) => {
                    if key != "names" {
                        return Err(format!(
                            "line {}: [observers] supports only `names`",
                            n + 1
                        ));
                    }
                    observers = parse_string_array(&value)
                        .map_err(|e| format!("line {}: {e}", n + 1))?;
                }
                None => {
                    return Err(format!(
                        "line {}: `{key}` outside a [set.*] table",
                        n + 1
                    ))
                }
            }
        }
        for set in &sets {
            if set.paths.is_empty() {
                return Err(format!("set `{}` has no paths", set.name));
            }
            if set.rules.is_empty() {
                return Err(format!("set `{}` has no rules", set.name));
            }
            for rule in &set.rules {
                if rule_by_name(rule).is_none() {
                    return Err(format!(
                        "set `{}` names unknown rule `{rule}` (see `analyzer --list-rules`)",
                        set.name
                    ));
                }
            }
        }
        Ok(Config { sets, observers })
    }

    /// The paths every set naming `rule` covers.
    pub fn paths_with_rule(&self, rule: &str) -> Vec<&str> {
        let mut out = Vec::new();
        for set in &self.sets {
            if set.rules.iter().any(|r| r == rule) {
                out.extend(set.paths.iter().map(String::as_str));
            }
        }
        out
    }
}

fn strip_comment(line: &str) -> &str {
    // `#` outside quotes starts a comment.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn balanced(value: &str) -> bool {
    value.starts_with('[') && value.trim_end().ends_with(']')
}

fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let inner = value
        .trim()
        .strip_prefix('[')
        .and_then(|v| v.trim_end().strip_suffix(']'))
        .ok_or_else(|| "expected a [\"..\"] string array".to_string())?;
    let mut items = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue; // trailing comma
        }
        let s = part
            .strip_prefix('"')
            .and_then(|p| p.strip_suffix('"'))
            .ok_or_else(|| format!("array item `{part}` is not a quoted string"))?;
        items.push(s.to_string());
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_multi_set_config() {
        let cfg = Config::parse(
            "# comment\n\
             [set.determinism]\n\
             paths = [\n  \"crates/sim/src\", # inline comment\n  \"crates/core/src\",\n]\n\
             rules = [\"no-instant-now\", \"no-hash-collections\"]\n\
             \n\
             [set.observers]\n\
             paths = [\"crates/core/src\"]\n\
             rules = [\"observer-purity\"]\n",
        )
        .unwrap();
        assert_eq!(cfg.sets.len(), 2);
        assert_eq!(cfg.sets[0].paths.len(), 2);
        assert_eq!(
            cfg.paths_with_rule("no-instant-now"),
            vec!["crates/sim/src", "crates/core/src"]
        );
        assert!(cfg.paths_with_rule("observer-purity") == vec!["crates/core/src"]);
    }

    #[test]
    fn rejects_unknown_rule() {
        let err = Config::parse(
            "[set.x]\npaths = [\"a\"]\nrules = [\"no-such-rule\"]\n",
        )
        .unwrap_err();
        assert!(err.contains("no-such-rule"), "{err}");
    }

    #[test]
    fn rejects_key_outside_table_and_empty_sets() {
        assert!(Config::parse("paths = [\"a\"]\n").is_err());
        assert!(Config::parse("[set.x]\npaths = [\"a\"]\n").is_err());
    }

    #[test]
    fn parses_observers() {
        let cfg = Config::parse(
            "[set.x]\npaths = [\"a\"]\nrules = [\"observer-purity\"]\n\
             [observers] # annotation\nnames = [\"occupancy\", \"trace_buf\"]\n",
        )
        .unwrap();
        assert_eq!(cfg.observers, vec!["occupancy", "trace_buf"]);
    }

    #[test]
    fn rejects_unknown_tables() {
        assert!(Config::parse("[units]\nheld = \"blocks\"\n").is_err());
        assert!(Config::parse("[nonsense]\nx = \"y\"\n").is_err());
        assert!(Config::parse("[observers]\nother = [\"x\"]\n").is_err());
    }

    /// The analyzer holds no hash collection: the committed config bans
    /// them in its own sources.
    #[test]
    fn the_committed_config_bans_hash_collections_in_the_analyzer() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let cfg = Config::load(&root.join("analyzer.toml")).unwrap();
        assert!(
            cfg.paths_with_rule("no-hash-collections").contains(&"crates/analyzer/src"),
            "{cfg:?}"
        );
    }
}
