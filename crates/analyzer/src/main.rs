//! `analyzer` — the repo's invariant lint gate.
//!
//! ```text
//! analyzer [--root DIR] [--config FILE] [--baseline FILE]
//!          [--json] [--update-baseline] [--list-rules]
//!          [--explain RULE] [--check-protocols] [-q]
//! ```
//!
//! Exit status: 0 when no finding exceeds the ratchet baseline (and, for
//! `--check-protocols`, when the supervision model checker passes), 1
//! when new findings or protocol violations exist (usage/config errors:
//! 2).

use analyzer::{analyze_root, Baseline, Config};
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    root: PathBuf,
    config: PathBuf,
    baseline: PathBuf,
    json: bool,
    update_baseline: bool,
    list_rules: bool,
    explain: Option<String>,
    check_protocols: bool,
    quiet: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        root: PathBuf::from("."),
        config: PathBuf::new(),
        baseline: PathBuf::new(),
        json: false,
        update_baseline: false,
        list_rules: false,
        explain: None,
        check_protocols: false,
        quiet: false,
    };
    let mut config_set = false;
    let mut baseline_set = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                opts.root = PathBuf::from(args.next().ok_or("--root needs a value")?);
            }
            "--config" => {
                opts.config = PathBuf::from(args.next().ok_or("--config needs a value")?);
                config_set = true;
            }
            "--baseline" => {
                opts.baseline = PathBuf::from(args.next().ok_or("--baseline needs a value")?);
                baseline_set = true;
            }
            "--json" => opts.json = true,
            "--update-baseline" => opts.update_baseline = true,
            "--list-rules" => opts.list_rules = true,
            "--explain" => {
                opts.explain = Some(args.next().ok_or("--explain needs a rule name")?);
            }
            "--check-protocols" => opts.check_protocols = true,
            "-q" | "--quiet" => opts.quiet = true,
            "-h" | "--help" => {
                println!(
                    "analyzer [--root DIR] [--config FILE] [--baseline FILE] \
                     [--json] [--update-baseline] [--list-rules] [--explain RULE] \
                     [--check-protocols] [-q]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !config_set {
        opts.config = opts.root.join("analyzer.toml");
    }
    if !baseline_set {
        opts.baseline = opts.root.join("analyzer.baseline.json");
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("analyzer: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for rule in analyzer::rules::registry() {
            println!("{:<22} {}", rule.name, rule.description.split_whitespace().collect::<Vec<_>>().join(" "));
        }
        println!();
        println!("run `analyzer --explain <rule>` for the rationale, a firing example,");
        println!("and the allow-escape syntax of any rule above.");
        return ExitCode::SUCCESS;
    }

    if let Some(name) = &opts.explain {
        let Some(rule) = analyzer::rules::rule_by_name(name) else {
            eprintln!("analyzer: unknown rule `{name}` (see `analyzer --list-rules`)");
            return ExitCode::from(2);
        };
        let squash = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
        println!("{}", rule.name);
        println!("{}", "=".repeat(rule.name.len()));
        println!();
        println!("{}", squash(rule.description));
        println!();
        println!("Why it exists here:");
        println!("  {}", squash(rule.rationale));
        println!();
        println!("Example firing:");
        println!("  {}", rule.example);
        println!();
        println!("Escaping a justified exception:");
        println!("  code();  // analyzer: allow({}) — <why this site is safe>", rule.name);
        println!();
        println!("  A standalone `// analyzer: allow(..)` comment line applies to the");
        println!("  next code line instead. The justification is mandatory: an allow");
        println!("  without one does not suppress, it upgrades the finding.");
        return ExitCode::SUCCESS;
    }

    if opts.check_protocols {
        return check_protocols(opts.quiet);
    }

    let cfg = match Config::load(&opts.config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("analyzer: {e}");
            return ExitCode::from(2);
        }
    };
    let analysis = match analyze_root(&opts.root, &cfg) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("analyzer: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.update_baseline {
        let base = Baseline::from_findings(&analysis.findings);
        if let Err(e) = std::fs::write(&opts.baseline, base.to_json()) {
            eprintln!("analyzer: cannot write {}: {e}", opts.baseline.display());
            return ExitCode::from(2);
        }
        if !opts.quiet {
            println!(
                "analyzer: baseline updated ({} tolerated finding(s) across {} file(s) scanned)",
                base.total(),
                analysis.files_scanned
            );
        }
        return ExitCode::SUCCESS;
    }

    let baseline = match Baseline::load(&opts.baseline) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("analyzer: {e}");
            return ExitCode::from(2);
        }
    };
    let diff = baseline.diff(&analysis.findings);

    if opts.json {
        // Machine-readable: the new findings plus suppression inventory.
        #[derive(serde::Serialize)]
        struct JsonReport {
            new_findings: Vec<analyzer::Finding>,
            suppressed: Vec<analyzer::findings::Suppressed>,
            files_scanned: usize,
            baseline_total: usize,
        }
        let report = JsonReport {
            new_findings: diff.new.clone(),
            suppressed: analysis.suppressed.clone(),
            files_scanned: analysis.files_scanned,
            baseline_total: baseline.total(),
        };
        match serde_json::to_string_pretty(&report) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("analyzer: JSON serialization failed: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        for f in &diff.new {
            println!("{f}");
        }
        if !opts.quiet {
            if !diff.fixed.is_empty() {
                let freed: usize = diff.fixed.iter().map(|e| e.count).sum();
                println!(
                    "analyzer: note: {freed} baselined finding(s) no longer fire — \
                     run with --update-baseline to ratchet down"
                );
            }
            println!(
                "analyzer: {} file(s) scanned, {} suppressed by justified allows, \
                 {} new finding(s)",
                analysis.files_scanned,
                analysis.suppressed.len(),
                diff.new.len()
            );
        }
    }

    if diff.new.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run the cluster↔worker supervision protocol sweep.
fn check_protocols(quiet: bool) -> ExitCode {
    use analyzer::protocol;

    let mut states = 0usize;
    let cluster = protocol::all_scenarios(3, 3);
    for sc in &cluster {
        match protocol::check(sc) {
            Ok(s) => states += s.states,
            Err(v) => {
                eprintln!("analyzer: cluster protocol: {v}");
                return ExitCode::FAILURE;
            }
        }
    }

    if !quiet {
        println!(
            "analyzer: protocols ok — {} cluster scenario(s), {states} state(s) explored",
            cluster.len()
        );
    }
    ExitCode::SUCCESS
}
