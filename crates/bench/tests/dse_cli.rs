//! CLI-level tests for the `dse` binary's argument errors, which exit
//! before any simulation runs: the shared `cli::take_value` names a flag
//! that lacks its value, and options outside the five the binary takes
//! (`--workload`, `--config`, `--smoke`, `--json`, `--threads`) are
//! rejected rather than ignored.

use std::process::{Command, Output};

fn dse(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dse"))
        .args(args)
        .output()
        .expect("dse binary runs")
}

#[test]
fn missing_flag_value_names_the_flag_and_exits_2() {
    let out = dse(&["--smoke", "--workload"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--workload needs a value"), "{stderr}");
}

#[test]
fn unknown_options_exit_2() {
    for flag in ["--prune", "--deny-misrank", "--top=4"] {
        let out = dse(&["--smoke", flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{flag}: {stderr}");
    }
}
