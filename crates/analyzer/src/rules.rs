//! The lint rules and their registry.
//!
//! Each rule is a pure function over a [`FileModel`] — the comment-free
//! token stream of one file (see [`crate::lexer`], [`crate::model`]).
//! Rules never see comments or string contents, and the driver filters
//! hits in test scopes and applies allow escapes. Rule names are the
//! stable identifiers used in `analyzer.toml`, in
//! `// analyzer: allow(<rule>)` escapes, and in the ratchet baseline.
//!
//! Five rules, each a check clippy has no lint for yet:
//!
//! * **syntactic** — `no-instant-now`, `no-system-time`,
//!   `no-hash-collections` and `f64-sort-total-cmp`, token-exact;
//! * **semantic** — `observer-purity`, a little branch analysis around
//!   the `record_*` observer gates.
//!
//! Panic-safety and float-to-int casts are clippy lints (`unwrap_used`,
//! `expect_used`, `panic`, `todo`, `unimplemented`,
//! `cast_possible_truncation`, `cast_sign_loss`), denied per crate in
//! `Cargo.toml` or per file in `crates/core`; clippy knows the types
//! these rules used to guess from names. Mixing KV blocks with tokens is
//! a type error (`tdpipe_kvcache::Blocks`), not a rule.

use crate::lexer::{TokKind, Token};
use crate::model::FileModel;

/// One rule violation: the line it anchors to plus a message.
#[derive(Debug, Clone)]
pub struct Hit {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong (excerpt appended by the driver).
    pub message: String,
}

/// Shared context rules may consult: the `[observers]` allow-list from
/// `analyzer.toml`.
pub struct RuleCtx<'a> {
    /// Identifiers an observer branch may legally mutate (buffers that
    /// exist only to hold observer output).
    pub observers: &'a [String],
}

/// A single rule: stable name, what it protects, and the check.
pub struct Rule {
    /// Stable identifier (config / allow / baseline key).
    pub name: &'static str,
    /// One-line description of the invariant the rule protects.
    pub description: &'static str,
    /// The longer story `--explain` prints: why the rule exists here.
    pub rationale: &'static str,
    /// A minimal firing example, shown by `--explain`.
    pub example: &'static str,
    /// Returns every violation in the file (driver dedupes per line).
    pub check: fn(&FileModel, &RuleCtx) -> Vec<Hit>,
}

/// Every rule the analyzer knows, in documentation order.
pub fn registry() -> &'static [Rule] {
    &[
        Rule {
            name: "no-instant-now",
            description: "determinism: simulated results must not read the wall clock \
                          (`Instant::now`)",
            rationale: "The simulator's clock is virtual; every duration must derive from \
                        the cost model so replays are bit-identical. A wall-clock read \
                        anywhere in a result path makes output depend on host load.",
            example: "let t = Instant::now();",
            check: check_instant_now,
        },
        Rule {
            name: "no-system-time",
            description: "determinism: simulated results must not read `SystemTime`",
            rationale: "Same invariant as no-instant-now: `SystemTime` (and \
                        `UNIX_EPOCH` arithmetic) injects host time into simulated \
                        output, breaking replay determinism.",
            example: "let t = SystemTime::now();",
            check: check_system_time,
        },
        Rule {
            name: "no-hash-collections",
            description: "determinism: `HashMap`/`HashSet` iteration order can leak into \
                          serialized reports — use Vec/BTreeMap or index tables",
            rationale: "std's hashers are randomly seeded per process; iterating a hash \
                        collection yields a different order every run. Any such order \
                        reaching a report, schedule, or tie-break makes runs diverge. \
                        Deterministic crates use Vec, BTreeMap, or dense index tables.",
            example: "use std::collections::HashMap;",
            check: check_hash_collections,
        },
        Rule {
            name: "f64-sort-total-cmp",
            description: "determinism: f64 sorts must use `total_cmp`, not `partial_cmp` \
                          (NaN makes the comparator non-total)",
            rationale: "`partial_cmp` on floats returns None for NaN, and the usual \
                        `.unwrap()` panics — or worse, a `unwrap_or(Equal)` silently \
                        gives an inconsistent comparator and an implementation-defined \
                        order. `f64::total_cmp` is total and deterministic.",
            example: "v.sort_by(|a, b| a.partial_cmp(b).unwrap());",
            check: check_f64_sort,
        },
        Rule {
            name: "observer-purity",
            description: "observability: a `record_*` observer gate must be branch-only \
                          — no engine state mutated inside its branches",
            rationale: "Toggling trace/metrics/occupancy recording must never perturb \
                        the schedule: `input(off) = input(on) + reused` and every \
                        other replay invariant depend on it. Inside any branch \
                        conditioned on a `record_*` gate, only the observer sinks \
                        listed in analyzer.toml `[observers]` may be assigned to; \
                        gates themselves are construction-time-only.",
            example: "if cfg.record_metrics { self.step_budget = 0; }",
            check: check_observer_purity,
        },
    ]
}

/// Look a rule up by name.
pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    registry().iter().find(|r| r.name == name)
}

/// Index of the closer matching the opener at `open`.
fn match_fwd(code: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in code.iter().enumerate().skip(open) {
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

fn check_instant_now(f: &FileModel, _: &RuleCtx) -> Vec<Hit> {
    let c = &f.code;
    let mut hits = Vec::new();
    for i in 0..c.len() {
        if c[i].is_ident("Instant")
            && c.get(i + 1).map(|t| t.is_punct("::")).unwrap_or(false)
            && c.get(i + 2).map(|t| t.is_ident("now")).unwrap_or(false)
        {
            hits.push(Hit {
                line: c[i].line,
                message: "reads the wall clock via `Instant::now`".to_string(),
            });
        }
    }
    hits
}

fn check_system_time(f: &FileModel, _: &RuleCtx) -> Vec<Hit> {
    f.code
        .iter()
        .filter(|t| t.is_ident("SystemTime"))
        .map(|t| Hit {
            line: t.line,
            message: "uses `SystemTime`".to_string(),
        })
        .collect()
}

fn check_hash_collections(f: &FileModel, _: &RuleCtx) -> Vec<Hit> {
    f.code
        .iter()
        .filter(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
        .map(|t| Hit {
            line: t.line,
            message: format!("uses `{}` (iteration order is nondeterministic)", t.text),
        })
        .collect()
}

fn check_f64_sort(f: &FileModel, _: &RuleCtx) -> Vec<Hit> {
    let sorts = ["sort_by", "sort_unstable_by", "sort_by_cached_key"];
    let mut sort_lines: Vec<usize> = Vec::new();
    let mut cmp_lines: Vec<usize> = Vec::new();
    for t in &f.code {
        if sorts.iter().any(|s| t.is_ident(s)) {
            sort_lines.push(t.line);
        }
        if t.is_ident("partial_cmp") {
            cmp_lines.push(t.line);
        }
    }
    sort_lines
        .into_iter()
        .filter(|l| cmp_lines.contains(l))
        .map(|line| Hit {
            line,
            message: "float sort via `partial_cmp` — use `total_cmp`".to_string(),
        })
        .collect()
}

/// Assignment operators an observer branch must not apply to non-sinks.
const ASSIGN_OPS: [&str; 6] = ["=", "+=", "-=", "*=", "/=", "%="];

/// Observer-purity: (a) no `.record_*` gate is reassigned after
/// construction; (b) inside any `if` whose condition reads a `record_*`
/// gate, every assignment's root identifier must be in the `[observers]`
/// allow-list.
fn check_observer_purity(f: &FileModel, ctx: &RuleCtx) -> Vec<Hit> {
    let c = &f.code;
    let mut hits = Vec::new();
    for i in 0..c.len() {
        // (a) `.record_x =` — gates are construction-time-only.
        if c[i].is_punct(".")
            && c.get(i + 1)
                .map(|t| t.kind == TokKind::Ident && t.text.starts_with("record_"))
                .unwrap_or(false)
            && c.get(i + 2).map(|t| t.is_punct("=")).unwrap_or(false)
        {
            hits.push(Hit {
                line: c[i + 1].line,
                message: format!(
                    "observer gate `{}` reassigned after construction — gates are \
                     construction-time-only",
                    c[i + 1].text
                ),
            });
        }
        // (b) gated branches.
        if !c[i].is_ident("if") {
            continue;
        }
        // Find the branch body `{` (paren/bracket depth 0 past the cond).
        let mut depth = 0i32;
        let mut body_open = None;
        let mut reads_gate = false;
        let mut j = i + 1;
        while j < c.len() {
            let t = &c[j];
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if depth == 0 && t.is_punct("{") {
                body_open = Some(j);
                break;
            } else if depth == 0 && t.is_punct(";") {
                break;
            } else if t.kind == TokKind::Ident && t.text.starts_with("record_") {
                reads_gate = true;
            }
            j += 1;
        }
        let (Some(open), true) = (body_open, reads_gate) else {
            continue;
        };
        let Some(close) = match_fwd(c, open) else {
            continue;
        };
        scan_observer_block(c, open, close, ctx, &mut hits);
        // An `else { .. }` block runs when the gate is off — mutations
        // there perturb the off-path just the same.
        if c.get(close + 1).map(|t| t.is_ident("else")).unwrap_or(false)
            && c.get(close + 2).map(|t| t.is_punct("{")).unwrap_or(false)
        {
            if let Some(else_close) = match_fwd(c, close + 2) {
                scan_observer_block(c, close + 2, else_close, ctx, &mut hits);
            }
        }
    }
    hits
}

/// Flag assignments to non-observer roots inside `c[open..close]`.
fn scan_observer_block(
    c: &[Token],
    open: usize,
    close: usize,
    ctx: &RuleCtx,
    hits: &mut Vec<Hit>,
) {
    let mut j = open + 1;
    let mut stmt_start = true;
    while j < close {
        let t = &c[j];
        if t.is_punct("{") || t.is_punct("}") || t.is_punct(";") {
            stmt_start = true;
            j += 1;
            continue;
        }
        if stmt_start && t.kind == TokKind::Ident {
            if t.text == "let" {
                // Local bindings are fine — they die with the branch.
                stmt_start = false;
                j += 1;
                continue;
            }
            // Chain `ident(.ident)*` then an assignment operator.
            let mut k = j;
            let mut root: Option<&str> = if t.text == "self" { None } else { Some(&t.text) };
            while c.get(k + 1).map(|t| t.is_punct(".")).unwrap_or(false)
                && c.get(k + 2).map(|t| t.kind == TokKind::Ident).unwrap_or(false)
            {
                k += 2;
                if root.is_none() {
                    root = Some(&c[k].text);
                }
            }
            if c.get(k + 1)
                .map(|t| t.kind == TokKind::Punct && ASSIGN_OPS.contains(&t.text.as_str()))
                .unwrap_or(false)
            {
                let root = root.unwrap_or(&t.text);
                if !ctx.observers.iter().any(|o| o == root) {
                    hits.push(Hit {
                        line: c[k + 1].line,
                        message: format!(
                            "state mutation of `{root}` inside a `record_*` observer branch \
                             (not in the [observers] allow-list)"
                        ),
                    });
                }
            }
        }
        stmt_start = false;
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fires(rule: &str, code: &str) -> bool {
        let f = FileModel::build(code);
        !(rule_by_name(rule).unwrap().check)(&f, &RuleCtx { observers: &[] }).is_empty()
    }

    #[test]
    fn instant_now_variants() {
        assert!(fires("no-instant-now", "let t = Instant::now();"));
        assert!(fires("no-instant-now", "let t = std::time::Instant::now();"));
        assert!(!fires("no-instant-now", "let d = deadline - Instant::elapsed(&x);"));
        assert!(!fires("no-instant-now", "let x = now();"));
        assert!(!fires("no-instant-now", "let s = \"Instant::now\";"));
    }

    #[test]
    fn hash_collections() {
        assert!(fires("no-hash-collections", "use std::collections::HashMap;"));
        assert!(fires("no-hash-collections", "let s: HashSet<u64> = x;"));
        assert!(!fires("no-hash-collections", "let m: BTreeMap<u64, u64> = x;"));
        assert!(!fires("no-hash-collections", "// HashMap in a comment\nlet x = 1;"));
    }

    #[test]
    fn f64_sort() {
        assert!(fires(
            "f64-sort-total-cmp",
            "v.sort_by(|a, b| a.partial_cmp(b).unwrap());"
        ));
        assert!(!fires("f64-sort-total-cmp", "v.sort_by(f64::total_cmp);"));
        assert!(!fires("f64-sort-total-cmp", "a.partial_cmp(&b)"));
    }

    #[test]
    fn observer_purity() {
        // Gate reassignment fires.
        assert!(fires("observer-purity", "cfg.record_metrics = true;"));
        // Non-observer mutation inside a gated branch fires.
        assert!(fires(
            "observer-purity",
            "if cfg.record_metrics { self.step_budget = 0; }"
        ));
        // ...including in the else branch.
        assert!(fires(
            "observer-purity",
            "if cfg.record_trace { x(); } else { queue_len = 0; }"
        ));
        // Pure branch (calls only, no assignment) is fine.
        assert!(!fires(
            "observer-purity",
            "if cfg.record_occupancy { emit(snapshot()); }"
        ));
        // Local lets are fine.
        assert!(!fires(
            "observer-purity",
            "if cfg.record_trace { let x = f(); emit(x); }"
        ));
        // Un-gated branches are not this rule's business.
        assert!(!fires("observer-purity", "if other_flag { self.state = 1; }"));
    }

    #[test]
    fn observer_allow_list_is_honoured() {
        let f = FileModel::build("if cfg.record_occupancy { self.occupancy = x; }");
        let observers = vec!["occupancy".to_string()];
        let ctx = RuleCtx { observers: &observers };
        let hits = (rule_by_name("observer-purity").unwrap().check)(&f, &ctx);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn registry_names_are_unique_and_documented() {
        let mut names: Vec<_> = registry().iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), registry().len());
        for r in registry() {
            assert!(!r.rationale.is_empty(), "{} missing rationale", r.name);
            assert!(!r.example.is_empty(), "{} missing example", r.name);
        }
    }
}
