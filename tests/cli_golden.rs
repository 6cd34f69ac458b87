//! Byte-level golden for the `tdpipe-cli` binary.
//!
//! Each case runs the CLI on a small configuration in a fresh directory
//! and records its exit code, its stdout with that directory spelled
//! `$DIR`, and for every file the run wrote, its length and an FNV-1a
//! digest of its bytes. The cases cover a single TD-Pipe run, a baseline,
//! Poisson arrivals with both metrics exports, closed-loop sessions with
//! the journal and trace exports, a routed fleet with every export, a
//! session fleet, a trained predictor's metrics, `sweep` and
//! `trace-summary`.
//!
//! After an intended change to the CLI's output, regenerate the fixture
//! deliberately and review its diff:
//!
//! ```text
//! cargo test --release --test cli_golden -- --ignored bless
//! ```

use std::path::Path;
use std::process::Command;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/cli_golden.txt");

/// `(name, arguments)`; `$DIR` in an argument is the case's directory.
const CASES: [(&str, &str); 9] = [
    ("run-td", "run --requests 40 --gpus 2"),
    ("run-tp-sb", "run --requests 40 --gpus 2 --scheduler tp-sb"),
    (
        "run-poisson-metrics",
        "run --requests 40 --gpus 2 --arrival poisson --rate 4 \
         --metrics-out $DIR/run.metrics.json --prom-out $DIR/run.prom",
    ),
    (
        "run-sessions-exports",
        "run --sessions 12 --gpus 2 --journal-out $DIR/s.journal.json \
         --trace-out $DIR/s.trace.json",
    ),
    (
        "run-fleet-exports",
        "run --requests 40 --gpus 2 --replicas 2 --router kv \
         --trace-out $DIR/f.trace.json --journal-out $DIR/f.journal.json \
         --metrics-out $DIR/f.metrics.json",
    ),
    (
        "run-fleet-sessions",
        "run --sessions 8 --gpus 2 --replicas 2 --journal-out $DIR/fs.journal.json \
         --metrics-out $DIR/fs.metrics.json",
    ),
    (
        "run-trained-metrics",
        "run --requests 40 --gpus 2 --predictor trained --metrics-out $DIR/t.metrics.json",
    ),
    ("sweep", "sweep --requests 40 --gpus 2"),
    ("trace-summary", "trace-summary --requests 40 --gpus 2"),
];

/// 64-bit FNV-1a.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Run one case in `dir` and render its record.
fn record(name: &str, args: &str, dir: &Path) -> String {
    std::fs::create_dir_all(dir).unwrap();
    let d = dir.to_str().unwrap();
    let argv: Vec<String> = args
        .split_whitespace()
        .map(|a| a.replace("$DIR", d))
        .collect();
    let out = Command::new(env!("CARGO_BIN_EXE_tdpipe-cli"))
        .args(&argv)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout).replace(d, "$DIR");
    let mut rec = format!(
        "## {name}\n$ {args}\nexit {:?}\n{stdout}",
        out.status.code()
    );
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    for f in files {
        let bytes = std::fs::read(&f).unwrap();
        let file = f.file_name().unwrap().to_string_lossy();
        rec.push_str(&format!(
            "file {file} {} {:016x}\n",
            bytes.len(),
            fnv(&bytes)
        ));
    }
    rec
}

fn render() -> String {
    let root = std::env::temp_dir().join(format!("tdpipe-cli-golden-{}", std::process::id()));
    let out: String = CASES
        .iter()
        .map(|(name, args)| record(name, args, &root.join(name)))
        .collect();
    std::fs::remove_dir_all(&root).unwrap();
    out
}

#[test]
fn cli_matches_the_committed_golden() {
    let want = std::fs::read_to_string(FIXTURE).expect("committed golden fixture");
    let got = render();
    let mut header = "";
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        if w.starts_with("## ") {
            header = w;
        }
        assert!(
            w == g,
            "{header}: line {} drifted from the golden\n  want: {w:.300}\n  got:  {g:.300}",
            i + 1
        );
    }
    assert_eq!(
        want.lines().count(),
        got.lines().count(),
        "golden and fresh output differ in length"
    );
}

/// Rewrites the fixture from the current binary. Ignored so it only runs
/// when asked for by name (see the module docs).
#[test]
#[ignore = "rewrites the committed fixture; run deliberately after an intended output change"]
fn bless() {
    std::fs::write(FIXTURE, render()).expect("write fixture");
}
