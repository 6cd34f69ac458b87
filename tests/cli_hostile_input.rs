//! The CLI's file readers fail cleanly on hostile JSON: a document nested
//! far past the parser's depth limit, or holding a number JSON does not
//! allow, ends the process with exit code 1 and a message, never a
//! stack-overflow abort. Only a missing or unknown command adds the usage
//! text to its error, and a command turns away, by name, a flag it does
//! not read. A `--gpus` count whose KV pool holds more tokens than one
//! request's residency record can count still runs to a report, and so
//! does a run of no requests at all. A journal in the layout that stored
//! stage events, or one with a malformed device segment, is turned away
//! with a message naming what is wrong.

use std::process::Command;

#[test]
fn deeply_nested_inputs_exit_1_with_a_message() {
    let dir = std::env::temp_dir().join(format!("tdpipe-cli-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let deep = "[".repeat(200_000);
    // A bare nest is turned away at its first token (no reader expects a
    // top-level array); under an unknown key, which readers skip, it
    // meets the depth limit.
    for (name, doc, needle) in [
        ("bare.json", deep.clone(), ""),
        (
            "keyed.json",
            format!(r#"{{"x":{deep}"#),
            "recursion limit exceeded",
        ),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, doc).unwrap();
        let file = path.to_str().unwrap();
        for cmd in [
            ["span-report", "--journal", file],
            ["bubble-report", "--journal", file],
            ["trace-summary", "--journal", file],
            ["validate-trace", "--file", file],
        ] {
            let out = Command::new(env!("CARGO_BIN_EXE_tdpipe-cli"))
                .args(cmd)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd:?} on {name}: {stderr}");
            assert!(stderr.contains(needle), "{cmd:?} on {name}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn old_layout_and_malformed_segment_journals_fail_by_name() {
    let dir = std::env::temp_dir().join(format!("tdpipe-cli-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let old = r#"{"enabled":true,"events":[],"stage_events":[{"t":0.0,"event":{"StageIdle":{"device":0,"dur":1.0}}}]}"#;
    let with_segment = |segment: &str| {
        format!(r#"{{"enabled":true,"events":[],"run_end":2.0,"devices":[[{segment}]]}}"#)
    };
    for (name, doc, needle) in [
        ("old.json", old.to_string(), "missing field `run_end`"),
        ("short.json", with_segment("[0.0,1.0]"), "`devices` segment"),
        (
            "string.json",
            with_segment(r#"["0.0",1.0,"Decode"]"#),
            "`devices` segment",
        ),
        (
            "kind.json",
            with_segment(r#"[0.0,1.0,"Idle"]"#),
            "`devices` segment",
        ),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, doc).unwrap();
        let file = path.to_str().unwrap();
        for cmd in [
            ["span-report", "--journal", file],
            ["bubble-report", "--journal", file],
            ["trace-summary", "--journal", file],
        ] {
            let out = Command::new(env!("CARGO_BIN_EXE_tdpipe-cli"))
                .args(cmd)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd:?} on {name}: {stderr}");
            assert!(
                stderr.contains("bad journal"),
                "{cmd:?} on {name}: {stderr}"
            );
            assert!(stderr.contains(needle), "{cmd:?} on {name}: {stderr}");
            assert!(!stderr.contains("panicked"), "{cmd:?} on {name}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn only_a_missing_or_unknown_command_prints_usage() {
    let dir = std::env::temp_dir().join(format!("tdpipe-cli-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("malformed.spans.json");
    std::fs::write(&path, r#"{"spans":"#).unwrap();
    let cli = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_tdpipe-cli"))
            .args(args)
            .output()
            .unwrap();
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };

    let file = path.to_str().unwrap();
    let (code, stderr) = cli(&["span-report", "--check", file]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.starts_with(&format!("error: {file}: ")), "{stderr}");
    assert!(!stderr.contains("USAGE:"), "{stderr}");

    for args in [&["bogus"][..], &[], &["bogus", "--gpus", "0"]] {
        let (code, stderr) = cli(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("USAGE:"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_flag_the_command_does_not_read_is_rejected_by_name() {
    for (args, flag) in [
        (&["run", "--reqests", "5", "--gpus", "2"][..], "--reqests"),
        (
            &["validate-trace", "--file", "x.json", "--model", "bogus"],
            "--model",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tdpipe-cli"))
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        let want = format!("error: {} does not take {flag}", args[0]);
        assert!(stderr.starts_with(&want), "{args:?}: {stderr}");
        assert!(!stderr.contains("USAGE:"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_number_json_does_not_allow_fails_validation_with_a_message() {
    let dir = std::env::temp_dir().join(format!("tdpipe-cli-number-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // RFC 8259 numbers have no leading zeros; `01` must not read as 1.
    let path = dir.join("leading-zero.trace.json");
    std::fs::write(
        &path,
        r#"{"traceEvents":[{"name":"a","ph":"i","s":"t","pid":0,"tid":0,"ts":01,"args":{}}]}"#,
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_tdpipe-cli"))
        .args(["validate-trace", "--file", path.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("invalid number `01`"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_kv_pool_past_u32_max_tokens_serves_requests() {
    let cli = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_tdpipe-cli"))
            .args(args)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        stdout
    };
    // `--gpus` alone builds a tensor-parallel pool whose token capacity
    // passes `u32::MAX`, more than one residency record can hold.
    let plan = cli(&["plan", "--gpus", "100000"]);
    let tp = plan.lines().find(|l| l.starts_with("TP plan:")).unwrap();
    let tokens: u64 = tp.split_whitespace().nth(6).unwrap().parse().unwrap();
    assert!(tokens > u32::MAX as u64, "{tp}");
    let run = ["run", "--gpus", "100000", "--requests", "20", "--scheduler"];
    for (scheduler, name) in [("tp-sb", "TP+SB"), ("tp-hb", "TP+HB")] {
        let stdout = cli(&[&run[..], &[scheduler]].concat());
        assert!(stdout.contains(name), "{scheduler}: {stdout}");
    }
}

#[test]
fn a_run_of_zero_requests_reports_zero_requests() {
    let out = Command::new(env!("CARGO_BIN_EXE_tdpipe-cli"))
        .args(["run", "--requests", "0"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stdout.contains("(0 requests)"), "{stdout}");
}
