//! CLI-level tests for the `chaos` binary: both attacks, their exit-status
//! gate, their JSON, and the crash attack's scratch directory.
//!
//! The default gate is "no escapes or die"; `--expect-escapes` inverts it
//! so demonstration runs (`--no-parity` / `--no-resilience`) can assert
//! that the disabled machinery is load-bearing. The simulator is
//! deterministic, so whether a given `(trace, seeds, switches)` campaign
//! escapes is reproducible and safe to pin.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the chaos binary on `examples/histogram.trace` with extra flags.
fn chaos(extra: &[&str]) -> Output {
    // Integration tests run with the package root as cwd.
    let trace = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/histogram.trace"
    );
    Command::new(env!("CARGO_BIN_EXE_chaos"))
        .arg(trace)
        .args(["--seeds", "2", "--threads", "2"])
        .args(extra)
        .output()
        .expect("chaos binary runs")
}

/// A fresh directory for one test's crash scratch.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chaos-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn expect_escapes_passes_when_demonstration_mode_leaks() {
    // Parity off leaks silent corruption for these seeds (pinned; the
    // campaign is deterministic). The inverted gate must call that a pass.
    let out = chaos(&["--no-parity", "--expect-escapes"]);
    assert!(
        out.status.success(),
        "expected exit 0, got {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("expected escape(s) occurred"),
        "missing demonstration message in: {stdout}"
    );
    // The per-run ESCAPE detail still prints on stderr.
    assert!(String::from_utf8_lossy(&out.stderr).contains("ESCAPE:"));
}

#[test]
fn expect_escapes_fails_when_the_contract_holds() {
    // With all machinery on, nothing escapes, so an assertion that the
    // demonstration leaked must fail loudly rather than pass vacuously —
    // under either attack.
    for attack in [&[][..], &["--crash"]] {
        let out = chaos(&[attack, &["--expect-escapes"]].concat());
        assert_eq!(out.status.code(), Some(1), "{attack:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("no escapes occurred"),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn default_gate_still_fails_on_escapes() {
    // Without the flag, the same leaking campaign is a contract violation.
    let out = chaos(&["--no-parity"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("contract is violated"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn default_gate_passes_clean_campaigns() {
    for attack in [&[][..], &["--crash"]] {
        let out = chaos(attack);
        assert!(
            out.status.success(),
            "{attack:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stdout).contains("contract holds"));
    }
}

#[test]
fn crash_campaign_keeps_what_it_did_not_create() {
    let dir = scratch("keep");
    std::fs::create_dir_all(dir.join("keep")).unwrap();
    std::fs::write(dir.join("top.txt"), "sentinel").unwrap();
    std::fs::write(dir.join("keep/notes.txt"), "sentinel").unwrap();
    let out = chaos(&["--crash", "--crash-dir", dir.to_str().expect("utf-8 path")]);
    assert!(out.status.success());
    let mut left: Vec<String> = std::fs::read_dir(&dir)
        .expect("--crash-dir survives")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    left.sort();
    assert_eq!(
        left,
        ["keep", "top.txt"],
        "only the campaign's own cells go"
    );
    assert!(dir.join("keep/notes.txt").exists());
    std::fs::remove_dir_all(&dir).unwrap();

    // A directory the campaign creates, it removes.
    let created = scratch("created");
    let out = chaos(&[
        "--crash",
        "--crash-dir",
        created.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success());
    assert!(!created.exists());
}

#[test]
fn json_of_both_attacks_has_one_cell_per_run() {
    // histogram.trace runs on four configurations, two seeds each.
    for attack in [&[][..], &["--crash"]] {
        let out = chaos(&[attack, &["--json"]].concat());
        assert!(out.status.success(), "{attack:?}");
        let doc = bench::json::parse(&String::from_utf8_lossy(&out.stdout))
            .unwrap_or_else(|e| panic!("{attack:?}: {e}"));
        let cells = doc.get("cells").and_then(|c| c.as_arr()).expect("cells");
        assert_eq!(cells.len(), 8, "{attack:?}");
        for c in cells {
            assert!(c.get_u64("seed").is_some_and(|s| s == 1 || s == 2));
            assert!(c.get_str("outcome").is_some());
        }
        assert_eq!(doc.get_u64("escapes"), Some(0), "{attack:?}");
    }
}
