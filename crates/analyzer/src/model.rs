//! The token-level source model rules run against.
//!
//! [`FileModel::build`] lexes a file once (see [`crate::lexer`]) and
//! derives everything the rule engine needs:
//!
//! * **code tokens** — the comment-free token stream (strings and chars
//!   are single literal tokens, so their *contents* are invisible to
//!   rules by construction);
//! * **test scopes** — items under `#[cfg(test)]` / `#[test]` and
//!   `mod tests { .. }` blocks are excluded from linting, and
//!   `#[cfg(test)] mod name;` declarations mark whole sibling files as
//!   test-only (see [`FileModel::gated_mods`]);
//! * **allow escapes** — `// analyzer: allow(<rule>) — <justification>`
//!   line comments suppress a named rule on the same line (trailing
//!   comment) or on the next code line (standalone comment line). An
//!   allow without a justification is itself reported.

use crate::lexer::{lex, Token};

/// A parsed `analyzer: allow(...)` escape.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule names being allowed.
    pub rules: Vec<String>,
    /// The written justification (may be empty — reported if so).
    pub justification: String,
    /// Line the escape applies to.
    pub target_line: usize,
    /// Line the comment itself is written on.
    pub comment_line: usize,
}

/// A fully modeled source file.
#[derive(Debug, Clone)]
pub struct FileModel {
    /// Comment-free token stream, in source order.
    pub code: Vec<Token>,
    /// Raw source lines (for excerpts in findings), 0-indexed by line-1.
    pub raw_lines: Vec<String>,
    /// Per-line test-scope flag, 0-indexed by line-1.
    pub in_test: Vec<bool>,
    /// Allow escapes, keyed by target line elsewhere.
    pub allows: Vec<Allow>,
    /// Module names declared as `#[cfg(test)] mod name;` — their sibling
    /// `name.rs` files are test-only.
    pub gated_mods: Vec<String>,
}

impl FileModel {
    /// Lex and model one file's source text.
    pub fn build(text: &str) -> FileModel {
        let all = lex(text);
        let n_lines = text.split('\n').count();
        let code: Vec<Token> = all.iter().filter(|t| !t.is_comment()).cloned().collect();
        let (in_test, gated_mods) = test_scopes(&code, n_lines);
        let mut line_has_code = vec![false; n_lines.max(1)];
        for t in &code {
            if t.line >= 1 && t.line <= n_lines {
                line_has_code[t.line - 1] = true;
            }
        }
        let comments: Vec<(usize, String)> = all
            .iter()
            .filter(|t| t.kind == crate::lexer::TokKind::LineComment)
            .map(|t| (t.line, t.text.trim_start_matches('/').to_string()))
            .collect();
        let allows = parse_allows(&comments, &line_has_code);
        FileModel {
            code,
            raw_lines: text.split('\n').map(str::to_string).collect(),
            in_test,
            allows,
            gated_mods,
        }
    }

    /// Whether any part of `line` sits inside a test-only scope.
    pub fn line_in_test(&self, line: usize) -> bool {
        self.in_test.get(line.saturating_sub(1)).copied().unwrap_or(false)
    }

    /// Raw text of `line`, for excerpts.
    pub fn raw_line(&self, line: usize) -> &str {
        self.raw_lines
            .get(line.saturating_sub(1))
            .map(String::as_str)
            .unwrap_or("")
    }

    /// Allows that apply to `line` and mention `rule`.
    pub fn allows_for(&self, line: usize, rule: &str) -> Option<&Allow> {
        self.allows
            .iter()
            .find(|a| a.target_line == line && a.rules.iter().any(|r| r == rule))
    }
}

/// Walk the code tokens tracking brace depth, `#[cfg(test)]` / `#[test]`
/// attributes, and `mod tests { .. }` blocks. Returns a per-line
/// test-scope flag plus the test-gated `mod name;` declarations.
fn test_scopes(code: &[Token], n_lines: usize) -> (Vec<bool>, Vec<String>) {
    let mut test = vec![false; n_lines.max(1)];
    let mut gated = Vec::new();
    let mut depth = 0i32;
    // Depth (and start line) of each open test scope.
    let mut scopes: Vec<(i32, usize)> = Vec::new();
    let mut pending_test = false;
    let mut pending_mod: Option<String> = None;

    let mark = |test: &mut Vec<bool>, from: usize, to: usize| {
        let hi = to.min(test.len());
        for flag in test.iter_mut().take(hi).skip(from.saturating_sub(1)) {
            *flag = true;
        }
    };

    let mut i = 0usize;
    while i < code.len() {
        let t = &code[i];
        if t.is_punct("#") {
            // Attribute: optional `!`, then a bracketed group.
            let mut j = i + 1;
            if code.get(j).map(|t| t.is_punct("!")).unwrap_or(false) {
                j += 1;
            }
            if code.get(j).map(|t| t.is_punct("[")).unwrap_or(false) {
                let mut k = j + 1;
                let mut brackets = 1i32;
                let mut content = String::new();
                while k < code.len() && brackets > 0 {
                    let tk = &code[k];
                    if tk.is_punct("[") {
                        brackets += 1;
                    } else if tk.is_punct("]") {
                        brackets -= 1;
                    }
                    if brackets > 0 {
                        content.push_str(&tk.text);
                    }
                    k += 1;
                }
                let is_test_attr = content == "test"
                    || (content.starts_with("cfg(")
                        && contains_word(&content, "test")
                        && !content.contains("not(test"));
                if is_test_attr {
                    pending_test = true;
                }
                i = k;
                continue;
            }
            i += 1;
            continue;
        }
        if t.is_punct("{") {
            if pending_test {
                scopes.push((depth, t.line));
                pending_test = false;
            }
            pending_mod = None;
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if let Some(&(d, start)) = scopes.last() {
                if d == depth {
                    scopes.pop();
                    mark(&mut test, start, t.line);
                }
            }
        } else if t.is_punct(";") {
            if pending_test {
                if let Some(name) = pending_mod.take() {
                    gated.push(name);
                }
                pending_test = false;
            }
            pending_mod = None;
        } else if t.is_ident("mod") {
            if let Some(name) = code.get(i + 1).filter(|n| n.kind == crate::lexer::TokKind::Ident)
            {
                // `mod tests {` is a test scope even without the
                // attribute (repo convention).
                if name.text == "tests" {
                    pending_test = true;
                }
                pending_mod = Some(name.text.clone());
                i += 2;
                continue;
            }
        }
        i += 1;
    }
    // Unterminated scopes (shouldn't happen in valid Rust) cover the rest.
    for (_, start) in scopes {
        mark(&mut test, start, n_lines);
    }
    (test, gated)
}

/// `haystack` contains `word` with non-identifier chars on both sides.
pub fn contains_word(haystack: &str, word: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0
            || !haystack[..at].chars().next_back().map(ident).unwrap_or(false);
        let after_ok = !haystack[at + word.len()..]
            .chars()
            .next()
            .map(ident)
            .unwrap_or(false);
        if before_ok && after_ok {
            return true;
        }
        from = at + word.len();
    }
    false
}

/// Parse `analyzer: allow(rule[, rule]) — justification` escapes out of
/// the collected line comments. A standalone allow's justification
/// continues over the following contiguous standalone comment lines, so
/// wrapped justifications are captured whole.
fn parse_allows(comments: &[(usize, String)], line_has_code: &[bool]) -> Vec<Allow> {
    let by_line: std::collections::BTreeMap<usize, &str> =
        comments.iter().map(|(l, t)| (*l, t.as_str())).collect();
    let standalone = |line: usize| {
        !line_has_code.get(line - 1).copied().unwrap_or(false)
    };
    let mut allows = Vec::new();
    for (line, text) in comments {
        let t = text.trim();
        let Some(rest) = t.strip_prefix("analyzer:") else {
            continue;
        };
        let rest = rest.trim_start();
        let (rules, justification) = match rest.strip_prefix("allow(") {
            Some(after) => match after.find(')') {
                Some(close) => {
                    let rules: Vec<String> = after[..close]
                        .split(',')
                        .map(|r| r.trim().to_string())
                        .filter(|r| !r.is_empty())
                        .collect();
                    let tail = after[close + 1..].trim();
                    let just = tail
                        .strip_prefix('\u{2014}') // em dash
                        .or_else(|| tail.strip_prefix("--"))
                        .or_else(|| tail.strip_prefix('-'))
                        .unwrap_or("")
                        .trim()
                        .to_string();
                    (rules, just)
                }
                None => (Vec::new(), String::new()),
            },
            None => (Vec::new(), String::new()),
        };
        // Standalone comment line → applies to the next code line;
        // trailing comment → applies to its own line.
        let own_code = !standalone(*line);
        let mut justification = justification;
        if !own_code {
            // Absorb the wrapped continuation lines of the comment block.
            let mut j = *line + 1;
            while let Some(txt) = by_line.get(&j) {
                let txt = txt.trim();
                if !standalone(j) || txt.starts_with("analyzer:") {
                    break;
                }
                if !justification.is_empty() && !txt.is_empty() {
                    justification.push(' ');
                }
                justification.push_str(txt);
                j += 1;
            }
        }
        let target = if own_code {
            *line
        } else {
            let mut t = line + 1;
            while t <= line_has_code.len() && standalone(t) {
                t += 1;
            }
            t
        };
        allows.push(Allow {
            rules,
            justification,
            target_line: target,
            comment_line: *line,
        });
    }
    allows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_invisible_to_code_tokens() {
        let f = FileModel::build("let x = \"panic!()\"; // HashMap here\nlet y = 1;\n");
        assert!(!f.code.iter().any(|t| t.is_ident("panic")));
        assert!(!f.code.iter().any(|t| t.is_ident("HashMap")));
        assert!(f.code.iter().any(|t| t.is_ident("x")));
    }

    #[test]
    fn tracks_cfg_test_scopes() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { y.unwrap(); }\n\
                   }\n\
                   fn live2() {}\n";
        let f = FileModel::build(src);
        assert!(!f.line_in_test(1));
        assert!(f.line_in_test(4));
        assert!(!f.line_in_test(6));
    }

    #[test]
    fn mod_tests_block_is_test_scope_without_attr() {
        let f = FileModel::build("mod tests {\n fn t() {}\n}\nfn live() {}\n");
        assert!(f.line_in_test(2));
        assert!(!f.line_in_test(4));
    }

    #[test]
    fn gated_mod_declarations_are_collected() {
        let f = FileModel::build("pub mod real;\n#[cfg(test)]\nmod proptests;\n");
        assert_eq!(f.gated_mods, vec!["proptests".to_string()]);
    }

    #[test]
    fn not_test_cfg_is_not_a_test_scope() {
        let f = FileModel::build("#[cfg(not(test))]\nfn live() { x.unwrap(); }\n");
        assert!(!f.line_in_test(2));
    }

    #[test]
    fn multiline_attribute_scope_tracks() {
        let src = "#[cfg(\n    test\n)]\nmod tests {\n    fn t() {}\n}\nfn live() {}\n";
        let f = FileModel::build(src);
        assert!(f.line_in_test(5));
        assert!(!f.line_in_test(7));
    }

    #[test]
    fn allow_trailing_and_standalone() {
        let src = "Instant::now(); // analyzer: allow(no-instant-now) — trailing case\n\
                   // analyzer: allow(no-system-time) — standalone case\n\
                   SystemTime::now();\n";
        let f = FileModel::build(src);
        let t = f.allows_for(1, "no-instant-now").expect("trailing allow");
        assert_eq!(t.justification, "trailing case");
        let s = f.allows_for(3, "no-system-time").expect("standalone allow");
        assert_eq!(s.justification, "standalone case");
    }

    #[test]
    fn allow_without_justification_is_kept_but_empty() {
        let f = FileModel::build("Instant::now(); // analyzer: allow(no-instant-now)\n");
        let a = f.allows_for(1, "no-instant-now").unwrap();
        assert!(a.justification.is_empty());
    }

    #[test]
    fn allow_inside_string_is_not_an_escape() {
        let f = FileModel::build(
            "let s = \"// analyzer: allow(no-instant-now) — nope\";\nInstant::now();\n",
        );
        assert!(f.allows.is_empty());
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("cfg(test)", "test"));
        assert!(!contains_word("cfg(testing)", "test"));
    }
}
