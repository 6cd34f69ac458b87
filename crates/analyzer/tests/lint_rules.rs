//! End-to-end fixtures for the lint pass: for every rule, a firing and a
//! non-firing example, plus the escape machinery (test scopes, gated
//! modules, justified/unjustified allows) and a full ratchet round-trip
//! through the committed-baseline JSON format.

use analyzer::{analyze_root, Baseline, Config};
use std::path::PathBuf;

/// A scratch directory under the system temp dir, removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let root = std::env::temp_dir().join(format!(
            "tdpipe-analyzer-fixture-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("src")).expect("create fixture dir");
        Fixture { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().expect("file path has a parent"))
            .expect("create parent dir");
        std::fs::write(path, content).expect("write fixture file");
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

const FIXTURE_CONFIG: &str = r#"
[set.determinism]
paths = ["src"]
rules = [
    "no-instant-now",
    "no-system-time",
    "no-hash-collections",
    "f64-sort-total-cmp",
]
"#;

fn rules_fired(fix: &Fixture) -> Vec<(String, String, usize)> {
    let cfg = Config::parse(FIXTURE_CONFIG).expect("fixture config parses");
    let analysis = analyze_root(&fix.root, &cfg).expect("analysis runs");
    analysis
        .findings
        .iter()
        .map(|f| (f.rule.clone(), f.file.clone(), f.line))
        .collect()
}

#[test]
fn every_rule_has_a_firing_and_a_non_firing_fixture() {
    let fix = Fixture::new("rules");
    // Determinism rules: firing lines interleaved with innocent ones.
    fix.write(
        "src/det.rs",
        "use std::collections::HashMap;\n\
         use std::collections::BTreeMap;\n\
         fn a() -> Instant { Instant::now() }\n\
         fn a2(i: &Instant) -> f64 { i.elapsed().as_secs_f64() }\n\
         fn b() -> SystemTime { SystemTime::now() }\n\
         fn c(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n\
         fn d(v: &mut Vec<f64>) { v.sort_by(f64::total_cmp); }\n",
    );
    let fired = rules_fired(&fix);
    let expect = [
        ("no-hash-collections", "src/det.rs", 1),
        ("no-instant-now", "src/det.rs", 3),
        ("no-system-time", "src/det.rs", 5),
        ("f64-sort-total-cmp", "src/det.rs", 6),
    ];
    for (rule, file, line) in expect {
        assert!(
            fired.contains(&(rule.to_string(), file.to_string(), line)),
            "{rule} should fire at {file}:{line}; got {fired:?}"
        );
    }
    // Exactly the expected findings — the innocent lines stay clean.
    assert_eq!(fired.len(), expect.len(), "unexpected extra findings: {fired:?}");
}

#[test]
fn strings_comments_and_test_scopes_do_not_fire() {
    let fix = Fixture::new("scopes");
    fix.write(
        "src/det.rs",
        "fn a() { let s = \"Instant::now() HashMap\"; }\n\
         // Instant::now() in a comment, HashMap too.\n\
         /* block comment: SystemTime */\n\
         #[cfg(test)]\n\
         mod tests {\n\
             fn t() { let x = Instant::now(); }\n\
             use std::collections::HashMap;\n\
         }\n",
    );
    // A whole file gated behind `#[cfg(test)] mod helper;` is test-only.
    fix.write("src/helper.rs", "fn t() { let x = Instant::now(); }\n");
    fix.write(
        "src/lib.rs",
        "#[cfg(test)]\nmod helper;\n\
         #[test]\n\
         fn t() { let x = SystemTime::now(); }\n",
    );
    let fired = rules_fired(&fix);
    assert!(fired.is_empty(), "nothing should fire: {fired:?}");
}

#[test]
fn allow_escapes_suppress_only_with_justification() {
    let fix = Fixture::new("allows");
    fix.write(
        "src/det.rs",
        "fn a() { let t = Instant::now(); } // analyzer: allow(no-instant-now) — fixture: sanctioned wall-clock read\n\
         // analyzer: allow(no-system-time) — standalone escape, wrapped\n\
         // justification continues here.\n\
         fn b() -> SystemTime { SystemTime::now() }\n\
         fn c() { let x = Instant::now(); } // analyzer: allow(no-instant-now)\n\
         fn d() { let y = Instant::now(); } // analyzer: allow(no-such-rule) — typo'd rule name\n",
    );
    let cfg = Config::parse(FIXTURE_CONFIG).expect("fixture config parses");
    let analysis = analyze_root(&fix.root, &cfg).expect("analysis runs");

    // Lines 1 and 4: suppressed, with the full (wrapped) justification.
    assert_eq!(analysis.suppressed.len(), 2, "{:?}", analysis.suppressed);
    assert!(analysis.suppressed.iter().any(|s| {
        s.finding.line == 4 && s.justification == "standalone escape, wrapped justification continues here."
    }), "{:?}", analysis.suppressed);

    // Line 5: allow without justification — the finding stands.
    assert!(analysis
        .findings
        .iter()
        .any(|f| f.rule == "no-instant-now" && f.line == 5 && f.message.contains("justification")),
        "{:?}", analysis.findings);
    // Line 6: unknown rule in the escape — invalid-allow, plus the
    // un-suppressed original finding.
    assert!(analysis
        .findings
        .iter()
        .any(|f| f.rule == "invalid-allow" && f.line == 6), "{:?}", analysis.findings);
    assert!(analysis
        .findings
        .iter()
        .any(|f| f.rule == "no-instant-now" && f.line == 6));
}

/// Single-rule fixture config over `sem/<rule-file>.rs`, with the
/// [observers] table the observer-purity rule consumes.
fn semantic_config(file: &str, rule: &str) -> String {
    format!(
        "[set.fixture]\npaths = [\"sem/{file}\"]\nrules = [\"{rule}\"]\n\n\
         [observers]\nnames = [\"occupancy\"]\n"
    )
}

/// Fired and suppressed line numbers for one rule under `cfg_text`.
fn lines_for(fix: &Fixture, cfg_text: &str, rule: &str) -> (Vec<usize>, Vec<usize>) {
    let cfg = Config::parse(cfg_text).expect("fixture config parses");
    let analysis = analyze_root(&fix.root, &cfg).expect("analysis runs");
    let fired = analysis
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect();
    let suppressed = analysis
        .suppressed
        .iter()
        .filter(|s| s.finding.rule == rule)
        .map(|s| s.finding.line)
        .collect();
    (fired, suppressed)
}

#[test]
fn iterating_a_hash_collection_fails_at_its_declaration() {
    // `no-hash-collections` bans the type, so an iterator call over one
    // (which clippy's `iter_over_hash_type` does not see) cannot be
    // written in a scope that carries the rule.
    let fix = Fixture::new("hash");
    fix.write(
        "sem/hash.rs",
        "fn bad() {\n\
             let seen: HashMap<u64, u64> = HashMap::new();\n\
             let v = seen.iter().count();\n\
         }\n",
    );
    let cfg = semantic_config("hash.rs", "no-hash-collections");
    let (fired, _) = lines_for(&fix, &cfg, "no-hash-collections");
    assert_eq!(fired, vec![2], "{fired:?}");
}

#[test]
fn observer_purity_guards_gated_branches() {
    let fix = Fixture::new("obs");
    fix.write(
        "sem/obs.rs",
        "impl Eng {\n\
             fn pure(&mut self, used: u64) {\n\
                 if self.cfg.record_occupancy {\n\
                     self.occupancy = used;\n\
                 }\n\
             }\n\
             fn impure(&mut self, used: u64) {\n\
                 if self.cfg.record_occupancy {\n\
                     self.steps += used;\n\
                 }\n\
             }\n\
             fn off_path(&mut self) {\n\
                 if self.cfg.record_occupancy {\n\
                     let local = 1;\n\
                 } else {\n\
                     self.steps += 1;\n\
                 }\n\
             }\n\
             fn flips_gate(&mut self) {\n\
                 self.cfg.record_occupancy = false;\n\
             }\n\
             fn escaped(&mut self) {\n\
                 if self.cfg.record_occupancy {\n\
                     // analyzer: allow(observer-purity) — fixture: sample counter feeds the report only\n\
                     self.samples += 1;\n\
                 }\n\
             }\n\
         }\n\
         #[cfg(test)]\n\
         mod tests {\n\
             fn t(e: &mut Eng) {\n\
                 if e.cfg.record_occupancy {\n\
                     e.steps += 1;\n\
                 }\n\
             }\n\
         }\n",
    );
    let (fired, suppressed) =
        lines_for(&fix, &semantic_config("obs.rs", "observer-purity"), "observer-purity");
    // Line 4 assigns the allow-listed `occupancy` sink — clean. Line 9
    // mutates engine state when recording is on; line 16 mutates it when
    // recording is *off*; line 20 flips the gate after construction.
    assert_eq!(fired, vec![9, 16, 20], "{fired:?}");
    assert_eq!(suppressed, vec![25], "{suppressed:?}");
}

#[test]
fn lexer_round_trips_the_analyzer_sources() {
    // The analyzer's own sources are the richest Rust corpus guaranteed
    // present: raw strings, em-dash comments, nested generics, floats.
    let src_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut checked = 0usize;
    for entry in std::fs::read_dir(&src_dir).expect("read src dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().map(|e| e == "rs").unwrap_or(false) {
            let text = std::fs::read_to_string(&path).expect("read source");
            let toks = analyzer::lexer::lex(&text);
            assert_eq!(
                analyzer::lexer::round_trip(&text, &toks).as_deref(),
                Some(text.as_str()),
                "{} did not round-trip losslessly",
                path.display()
            );
            checked += 1;
        }
    }
    assert!(checked >= 8, "only {checked} sources round-tripped");
}

#[test]
fn ratchet_round_trip_through_committed_json() {
    let fix = Fixture::new("ratchet");
    fix.write(
        "src/det.rs",
        "fn a() { let t = Instant::now(); }\nuse std::collections::HashMap;\n",
    );
    let cfg = Config::parse(FIXTURE_CONFIG).expect("fixture config parses");
    let analysis = analyze_root(&fix.root, &cfg).expect("analysis runs");
    assert_eq!(analysis.findings.len(), 2);

    // Record the baseline, write it to disk, load it back: no new findings.
    let baseline_path = fix.root.join("analyzer.baseline.json");
    let recorded = Baseline::from_findings(&analysis.findings);
    std::fs::write(&baseline_path, recorded.to_json()).expect("write baseline");
    let loaded = Baseline::load(&baseline_path).expect("load baseline");
    assert_eq!(loaded, recorded);
    let diff = loaded.diff(&analysis.findings);
    assert!(diff.new.is_empty(), "{:?}", diff.new);
    assert!(diff.fixed.is_empty());

    // A new violation in the same file trips the ratchet...
    fix.write(
        "src/det.rs",
        "fn a() { let t = Instant::now(); }\nuse std::collections::HashMap;\n\
         fn b() { let u = Instant::now(); }\n",
    );
    let worse = analyze_root(&fix.root, &cfg).expect("analysis runs");
    let diff = loaded.diff(&worse.findings);
    assert_eq!(diff.new.len(), 2, "whole over-budget pair is reported: {:?}", diff.new);

    // ...while fixing one shows up as ratchet-down guidance, not failure.
    fix.write("src/det.rs", "use std::collections::HashMap;\n");
    let better = analyze_root(&fix.root, &cfg).expect("analysis runs");
    let diff = loaded.diff(&better.findings);
    assert!(diff.new.is_empty());
    assert_eq!(diff.fixed.len(), 1);

    // A missing baseline file is the empty baseline: everything is new.
    let missing = Baseline::load(&fix.root.join("nope.json")).expect("missing = empty");
    assert_eq!(missing.diff(&analysis.findings).new.len(), 2);
}
