//! The lint rules and their registry.
//!
//! Each rule is a pure function over a [`FileModel`] — the comment-free
//! token stream of one file (see [`crate::lexer`], [`crate::model`]).
//! Rules never see comments or string contents, and the driver filters
//! hits in test scopes and applies allow escapes. Rule names are the
//! stable identifiers used in `analyzer.toml`, in
//! `// analyzer: allow(<rule>)` escapes, and in the ratchet baseline.
//!
//! Seven rules remain, each a check clippy has no lint for:
//!
//! * **syntactic** — `no-instant-now`, `no-system-time`,
//!   `no-hash-collections` and `f64-sort-total-cmp`, token-exact;
//! * **semantic** — rules that track a little state across the file:
//!   unit inference for the accounting-dimension check
//!   ([`check_unit_mismatch`]), collection-type tracking for
//!   hash-order iteration (clippy's `iter_over_hash_type` sees only
//!   `for` loops, not `.iter().count()`-style calls), and observer-gate
//!   branch analysis.
//!
//! Panic-safety and float-to-int casts are clippy lints (`unwrap_used`,
//! `expect_used`, `panic`, `todo`, `unimplemented`,
//! `cast_possible_truncation`, `cast_sign_loss`), denied per crate in
//! `Cargo.toml` or per file in `crates/core`; clippy knows the types
//! these rules used to guess from names.

use crate::lexer::{TokKind, Token};
use crate::model::FileModel;
use std::collections::BTreeMap;

/// One rule violation: the line it anchors to plus a message.
#[derive(Debug, Clone)]
pub struct Hit {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong (excerpt appended by the driver).
    pub message: String,
}

/// Shared context rules may consult: the `[units]` annotation table and
/// the `[observers]` allow-list from `analyzer.toml`.
pub struct RuleCtx<'a> {
    /// Explicit name → unit annotations (override suffix inference).
    pub units: &'a BTreeMap<String, Unit>,
    /// Identifiers an observer branch may legally mutate (buffers that
    /// exist only to hold observer output).
    pub observers: &'a [String],
}

impl RuleCtx<'_> {
    /// An empty context (unit table and observer list both empty).
    pub fn empty() -> RuleCtx<'static> {
        static EMPTY_UNITS: BTreeMap<String, Unit> = BTreeMap::new();
        RuleCtx {
            units: &EMPTY_UNITS,
            observers: &[],
        }
    }
}

/// An accounting dimension, inferred from a name or annotated in
/// `analyzer.toml`'s `[units]` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Token counts (prompt/decode/resident tokens).
    Tokens,
    /// KV-cache blocks.
    Blocks,
    /// Virtual seconds.
    Seconds,
    /// Raw byte sizes.
    Bytes,
    /// Dimensionless counts (requests, iterations).
    Count,
}

impl Unit {
    /// The unit's config-file spelling.
    pub fn name(self) -> &'static str {
        match self {
            Unit::Tokens => "tokens",
            Unit::Blocks => "blocks",
            Unit::Seconds => "seconds",
            Unit::Bytes => "bytes",
            Unit::Count => "count",
        }
    }

    /// Parse the config-file spelling.
    pub fn parse(s: &str) -> Option<Unit> {
        match s {
            "tokens" => Some(Unit::Tokens),
            "blocks" => Some(Unit::Blocks),
            "seconds" => Some(Unit::Seconds),
            "bytes" => Some(Unit::Bytes),
            "count" => Some(Unit::Count),
            _ => None,
        }
    }
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
            name: "unit-mismatch",
            description: "accounting: `+`/`-`/comparison between values of different \
                          accounting dimensions (tokens vs blocks vs seconds vs bytes)",
            rationale: "The engine tracks the same quantities in several dimensions \
                        (resident *tokens*, allocator *blocks*, virtual *seconds*); \
                        adding or comparing across dimensions is the bug class the \
                        prefill-tokens/resident-tokens split exists to prevent. Units \
                        are inferred from `_tokens`/`_blocks`/`_s`/`_bytes`/`_count` \
                        name suffixes plus the `[units]` table in analyzer.toml.",
            example: "let need = prompt_tokens + retained_blocks;",
            check: check_unit_mismatch,
        },
        Rule {
            name: "hash-order-iteration",
            description: "determinism: iterating a `HashMap`/`HashSet` (tracked by \
                          declared type, not substring) yields nondeterministic order",
            rationale: "Where hash collections are allowed (pure membership tests, \
                        model-checker seen-sets), *iterating* one is still forbidden: \
                        the visit order is seeded per process. This rule tracks which \
                        names are declared as hash collections and flags `for .. in` \
                        and `.iter()/.keys()/.values()/.drain()` over them.",
            example: "for (k, v) in seen.iter() { emit(k, v); }",
            check: check_hash_order_iteration,
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

const PRIMITIVES: [&str; 15] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    "f32", "f64", "bool",
];

/// Index of the opener matching the closer at `close` (`)`/`]`/`}`),
/// scanning backwards and treating all three bracket kinds as one
/// nesting structure.
fn match_back(code: &[Token], close: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = close;
    loop {
        let t = &code[i];
        if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth += 1;
        } else if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
        if i == 0 {
            return None;
        }
        i -= 1;
    }
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

/// Infer a unit from an identifier: the `[units]` table wins, then the
/// last `_`-separated segment is matched against the suffix conventions.
/// The bare names `s`/`sec`/`secs` are excluded (too short to mean
/// seconds on their own).
fn unit_of_name(name: &str, ctx: &RuleCtx) -> Option<Unit> {
    if let Some(u) = ctx.units.get(name) {
        return Some(*u);
    }
    let seg = name.rsplit('_').next().unwrap_or("");
    if seg == name && matches!(seg, "s" | "sec" | "secs") {
        return None;
    }
    match seg {
        "tokens" => Some(Unit::Tokens),
        "blocks" => Some(Unit::Blocks),
        "bytes" => Some(Unit::Bytes),
        "s" | "sec" | "secs" | "seconds" => Some(Unit::Seconds),
        "count" | "counts" => Some(Unit::Count),
        _ => None,
    }
}

/// Operators the unit checker inspects.
const UNIT_OPS: [&str; 11] = ["+", "-", "+=", "-=", "<", ">", "<=", ">=", "==", "!=", "="];

/// Idents that make a following `-`/`+` a prefix, not a binary operator.
const NON_VALUE_KEYWORDS: [&str; 8] =
    ["return", "in", "if", "else", "match", "while", "break", "continue"];

/// Multiplying or dividing converts units (`tokens * bytes_per_token`,
/// `tokens / block_size`), so a scaled operand has no inferable unit.
fn scaling(t: Option<&Token>) -> bool {
    t.map(|t| t.is_punct("*") || t.is_punct("/")).unwrap_or(false)
}

/// Resolve the unit of the operand ending just before index `op`
/// (exclusive). Returns the unit and the name it came from.
fn left_operand(c: &[Token], op: usize, ctx: &RuleCtx) -> Option<(Unit, String)> {
    let mut j = op.checked_sub(1)?;
    loop {
        let t = &c[j];
        // `x_tokens as u64 + ..` — skip the cast, keep resolving left.
        if t.kind == TokKind::Ident
            && PRIMITIVES.contains(&t.text.as_str())
            && j >= 1
            && c[j - 1].is_ident("as")
        {
            j = j.checked_sub(2)?;
            continue;
        }
        if t.is_punct(")") || t.is_punct("]") {
            let open = match_back(c, j)?;
            if open > 0 && c[open - 1].kind == TokKind::Ident {
                // Call or index: the callee/base name carries the unit
                // (`prefill_tokens()`, `tokens_by_req[i]`) — unless the
                // whole term is scaled by `*`/`/`.
                let callee = &c[open - 1];
                let start = chain_start(c, open - 1);
                if scaling(start.checked_sub(1).map(|p| &c[p])) {
                    return None;
                }
                let u = unit_of_name(&callee.text, ctx)?;
                return Some((u, callee.text.clone()));
            }
            return None; // grouped subexpression — stay conservative
        }
        if t.kind == TokKind::Ident {
            // `let x_tokens: u64 = ..` — the annotation type is not the
            // operand; the name before the `:` is.
            if PRIMITIVES.contains(&t.text.as_str())
                && j >= 2
                && c[j - 1].is_punct(":")
                && c[j - 2].kind == TokKind::Ident
            {
                let name = &c[j - 2];
                let u = unit_of_name(&name.text, ctx)?;
                return Some((u, name.text.clone()));
            }
            let start = chain_start(c, j);
            if scaling(start.checked_sub(1).map(|p| &c[p])) {
                return None; // `.. * x_tokens` — scaled, unit unknown
            }
            let u = unit_of_name(&t.text, ctx)?;
            return Some((u, t.text.clone()));
        }
        return None; // literal, punct, string — no unit
    }
}

/// Walk `ident (./:: ident)*` backwards from the chain's last ident to
/// its first (`self.pool.resident_tokens` → index of `self`).
fn chain_start(c: &[Token], mut j: usize) -> usize {
    while j >= 2
        && (c[j - 1].is_punct(".") || c[j - 1].is_punct("::"))
        && c[j - 2].kind == TokKind::Ident
    {
        j -= 2;
    }
    j
}

/// Resolve the unit of the operand starting at index `op + 1`.
fn right_operand(c: &[Token], op: usize, ctx: &RuleCtx) -> Option<(Unit, String)> {
    let mut k = op + 1;
    loop {
        let t = c.get(k)?;
        if t.is_punct("&") || t.is_punct("*") || t.is_ident("mut") {
            k += 1;
            continue;
        }
        if t.is_punct("(") {
            // A parenthesized group: a method call on it (`(..).div_ceil`)
            // or a `*`/`/` scale makes the unit unknowable; otherwise
            // descend into the group.
            let close = match_fwd(c, k)?;
            let after = c.get(close + 1);
            if after.map(|t| t.is_punct(".")).unwrap_or(false) || scaling(after) {
                return None;
            }
            k += 1;
            continue;
        }
        if t.kind == TokKind::Ident {
            if NON_VALUE_KEYWORDS.contains(&t.text.as_str()) {
                return None;
            }
            // Walk the field/path chain to its last identifier:
            // `self.resident_tokens`, `alloc::used_blocks`.
            let mut end = k;
            while c.get(end + 1).map(|t| t.is_punct(".") || t.is_punct("::")).unwrap_or(false)
                && c.get(end + 2).map(|t| t.kind == TokKind::Ident).unwrap_or(false)
            {
                end += 2;
            }
            let name = c[end].text.clone();
            // Extend over a call's arguments or an index to the term end.
            let mut term_end = end;
            if c.get(end + 1).map(|t| t.is_punct("(") || t.is_punct("[")).unwrap_or(false) {
                term_end = match_fwd(c, end + 1)?;
            }
            if scaling(c.get(term_end + 1)) {
                return None; // `x_blocks * block_size` — converted, not mixed
            }
            let u = unit_of_name(&name, ctx)?;
            return Some((u, name));
        }
        return None; // literal or other punct — no unit
    }
}

/// The accounting-dimension check: for each arithmetic/comparison/assign
/// operator, resolve a unit for both operands; if both resolve and they
/// differ, fire.
fn check_unit_mismatch(f: &FileModel, ctx: &RuleCtx) -> Vec<Hit> {
    let c = &f.code;
    let mut hits = Vec::new();
    for i in 0..c.len() {
        let t = &c[i];
        if t.kind != TokKind::Punct || !UNIT_OPS.contains(&t.text.as_str()) {
            continue;
        }
        let op = t.text.as_str();
        if (op == "<" || op == ">") && angle_is_generic(c, i) {
            continue;
        }
        if (op == "-" || op == "+") && !binary_position(c, i) {
            continue;
        }
        let Some((lu, ln)) = left_operand(c, i, ctx) else {
            continue;
        };
        let Some((ru, rn)) = right_operand(c, i, ctx) else {
            continue;
        };
        if lu != ru {
            hits.push(Hit {
                line: t.line,
                message: format!(
                    "mixed accounting dimensions: `{ln}` is {} but `{rn}` is {} (op `{op}`)",
                    lu.name(),
                    ru.name()
                ),
            });
        }
    }
    hits
}

/// Heuristics separating generic brackets / shifts from comparisons.
fn angle_is_generic(c: &[Token], i: usize) -> bool {
    let t = &c[i];
    let prev = i.checked_sub(1).map(|j| &c[j]);
    let next = c.get(i + 1);
    // `Vec<`, `Option<..>` — an adjacent uppercase-initial ident is a type.
    let upper = |t: &Token| {
        t.kind == TokKind::Ident && t.text.chars().next().map(|c| c.is_ascii_uppercase()).unwrap_or(false)
    };
    if prev.map(upper).unwrap_or(false) || next.map(upper).unwrap_or(false) {
        return true;
    }
    // `::<` turbofish.
    if prev.map(|p| p.is_punct("::")).unwrap_or(false) {
        return true;
    }
    // `<'a` lifetime parameter.
    if next.map(|n| n.kind == TokKind::Lifetime).unwrap_or(false) {
        return true;
    }
    // Shift: two adjacent `<`/`<` or `>`/`>` with no gap.
    let adjacent = |a: &Token, b: &Token| b.start == a.start + 1;
    if let Some(p) = prev {
        if p.text == t.text && p.kind == TokKind::Punct && adjacent(p, t) {
            return true;
        }
    }
    if let Some(n) = next {
        if n.text == t.text && n.kind == TokKind::Punct && adjacent(t, n) {
            return true;
        }
    }
    // `Vec<u64>` closing after a primitive that is *not* an `as` cast.
    if let Some(p) = prev {
        if p.kind == TokKind::Ident
            && PRIMITIVES.contains(&p.text.as_str())
            && !(i >= 2 && c[i - 2].is_ident("as"))
        {
            return true;
        }
    }
    false
}

/// `-`/`+` at `i` is a binary operator (has a value-shaped token before it).
fn binary_position(c: &[Token], i: usize) -> bool {
    let Some(p) = i.checked_sub(1).map(|j| &c[j]) else {
        return false;
    };
    match p.kind {
        TokKind::Ident => !NON_VALUE_KEYWORDS.contains(&p.text.as_str()),
        TokKind::Int | TokKind::Float => true,
        TokKind::Punct => p.is_punct(")") || p.is_punct("]"),
        _ => false,
    }
}

/// Methods whose call on a hash collection observes iteration order.
const HASH_ITER_METHODS: [&str; 7] =
    ["iter", "iter_mut", "keys", "values", "values_mut", "drain", "into_iter"];

/// Track names declared as `HashMap`/`HashSet` (type annotations on
/// fields/params/lets, and `let` initializers mentioning the types),
/// then flag iteration over them.
fn check_hash_order_iteration(f: &FileModel, _: &RuleCtx) -> Vec<Hit> {
    let c = &f.code;
    let mut tracked: Vec<String> = Vec::new();
    for i in 0..c.len() {
        // `name: [& 'a mut] [path::]HashMap<..>`
        if c[i].is_punct(":") && i > 0 && c[i - 1].kind == TokKind::Ident {
            let mut k = i + 1;
            while c
                .get(k)
                .map(|t| t.is_punct("&") || t.kind == TokKind::Lifetime || t.is_ident("mut"))
                .unwrap_or(false)
            {
                k += 1;
            }
            // Walk a `std::collections::HashMap` path to its last ident.
            while c.get(k).map(|t| t.kind == TokKind::Ident).unwrap_or(false)
                && c.get(k + 1).map(|t| t.is_punct("::")).unwrap_or(false)
                && c.get(k + 2).map(|t| t.kind == TokKind::Ident).unwrap_or(false)
            {
                k += 2;
            }
            if c.get(k).map(|t| t.is_ident("HashMap") || t.is_ident("HashSet")).unwrap_or(false)
            {
                tracked.push(c[i - 1].text.clone());
            }
        }
        // `let [mut] name = <expr mentioning HashMap/HashSet> ;`
        if c[i].is_ident("let") {
            let mut k = i + 1;
            if c.get(k).map(|t| t.is_ident("mut")).unwrap_or(false) {
                k += 1;
            }
            let Some(name) = c.get(k).filter(|t| t.kind == TokKind::Ident) else {
                continue;
            };
            if !c.get(k + 1).map(|t| t.is_punct("=")).unwrap_or(false) {
                continue;
            }
            let mut j = k + 2;
            while j < c.len() && !c[j].is_punct(";") {
                if c[j].is_ident("HashMap") || c[j].is_ident("HashSet") {
                    tracked.push(name.text.clone());
                    break;
                }
                j += 1;
            }
        }
    }
    if tracked.is_empty() {
        return Vec::new();
    }
    let mut hits = Vec::new();
    for i in 0..c.len() {
        // `name.iter()` style.
        if c[i].is_punct(".")
            && i > 0
            && c[i - 1].kind == TokKind::Ident
            && tracked.contains(&c[i - 1].text)
            && c.get(i + 1)
                .map(|t| HASH_ITER_METHODS.iter().any(|m| t.is_ident(m)))
                .unwrap_or(false)
            && c.get(i + 2).map(|t| t.is_punct("(")).unwrap_or(false)
        {
            hits.push(Hit {
                line: c[i + 1].line,
                message: format!(
                    "iterates hash collection `{}` via `.{}()` — order is nondeterministic",
                    c[i - 1].text,
                    c[i + 1].text
                ),
            });
        }
        // `for pat in <expr ending in name> {`
        if c[i].is_ident("for") {
            let mut depth = 0i32;
            let mut saw_in = false;
            let mut j = i + 1;
            while j < c.len() {
                let t = &c[j];
                if t.is_punct("(") || t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct(")") || t.is_punct("]") {
                    depth -= 1;
                } else if depth == 0 && t.is_ident("in") {
                    saw_in = true;
                } else if depth == 0 && t.is_punct("{") {
                    break;
                } else if depth == 0 && t.is_punct(";") {
                    break; // not a for-loop header after all
                }
                j += 1;
            }
            if saw_in && j < c.len() && j > 0 {
                let before = &c[j - 1];
                if before.kind == TokKind::Ident && tracked.contains(&before.text) {
                    hits.push(Hit {
                        line: c[i].line,
                        message: format!(
                            "iterates hash collection `{}` in a `for` loop — order is \
                             nondeterministic",
                            before.text
                        ),
                    });
                }
            }
        }
    }
    hits
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
        !(rule_by_name(rule).unwrap().check)(&f, &RuleCtx::empty()).is_empty()
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
    fn unit_mismatch_basics() {
        assert!(fires("unit-mismatch", "let need = prompt_tokens + retained_blocks;"));
        assert!(fires("unit-mismatch", "if used_blocks > limit_tokens { x(); }"));
        assert!(fires("unit-mismatch", "total_bytes += step_tokens;"));
        assert!(fires("unit-mismatch", "let elapsed_s = total_tokens;"));
        assert!(!fires("unit-mismatch", "let t = prompt_tokens + decode_tokens;"));
        assert!(!fires("unit-mismatch", "let t = prompt_tokens + 16;"));
        assert!(!fires("unit-mismatch", "let t = x + y;"));
    }

    #[test]
    fn unit_mismatch_calls_and_chains() {
        assert!(fires("unit-mismatch", "let x = self.resident_tokens - alloc.used_blocks();"));
        assert!(!fires("unit-mismatch", "let x = q.len() - used_blocks();"));
        // `as` casts don't launder the unit.
        assert!(fires("unit-mismatch", "let x = need_tokens as u64 + used_blocks;"));
    }

    #[test]
    fn unit_mismatch_skips_unit_conversions() {
        // `*` and `/` convert units: a scaled operand has no inferable
        // unit, so conversion arithmetic is not a mixed-unit bug.
        assert!(!fires("unit-mismatch", "let act_bytes = per_layer.tokens * bytes_per_token();"));
        assert!(!fires("unit-mismatch", "let free_tokens = alloc.free_blocks() * block_size;"));
        assert!(!fires("unit-mismatch", "let used_tokens = self.used_blocks * self.block_size as u64;"));
        assert!(!fires("unit-mismatch", "if r.tokens == r.blocks * block_size { g += 1; }"));
        assert!(!fires("unit-mismatch", "let new_blocks = (r.tokens + additional).div_ceil(block_size);"));
        assert!(!fires("unit-mismatch", "let eff_tokens = discount_blocks * 2 + base_tokens;"));
        // But an unscaled mismatch next to a conversion still fires.
        assert!(fires("unit-mismatch", "let x = a_blocks * block_size + b_tokens - c_blocks;"));
    }

    #[test]
    fn unit_mismatch_generics_do_not_fire() {
        assert!(!fires("unit-mismatch", "let v: Vec<u64> = Vec::new();"));
        assert!(!fires("unit-mismatch", "let m: BTreeMap<String, Unit> = BTreeMap::new();"));
        assert!(!fires("unit-mismatch", "fn f<T: Clone>(x: T) {}"));
        assert!(!fires("unit-mismatch", "let x = total_tokens << shift_count;"));
    }

    #[test]
    fn hash_order_iteration_tracks_types() {
        let decl = "let mut seen: HashMap<u64, u64> = HashMap::new();\n";
        assert!(fires("hash-order-iteration", &format!("{decl}for (k, v) in seen {{ }}")));
        assert!(fires("hash-order-iteration", &format!("{decl}for k in seen.keys() {{ }}")));
        assert!(fires("hash-order-iteration", &format!("{decl}let v = seen.iter().count();")));
        assert!(!fires("hash-order-iteration", &format!("{decl}let v = seen.get(&3);")));
        // Not a hash collection: no tracking, no firing.
        assert!(!fires(
            "hash-order-iteration",
            "let seen: BTreeMap<u64, u64> = BTreeMap::new();\nfor k in seen.keys() { }"
        ));
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
        let units = BTreeMap::new();
        let observers = vec!["occupancy".to_string()];
        let ctx = RuleCtx { units: &units, observers: &observers };
        let hits = (rule_by_name("observer-purity").unwrap().check)(&f, &ctx);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn unit_table_overrides_suffix() {
        let f = FileModel::build("let x = held + need_tokens;");
        let mut units = BTreeMap::new();
        units.insert("held".to_string(), Unit::Blocks);
        let ctx = RuleCtx { units: &units, observers: &[] };
        let hits = (rule_by_name("unit-mismatch").unwrap().check)(&f, &ctx);
        assert_eq!(hits.len(), 1, "{hits:?}");
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
