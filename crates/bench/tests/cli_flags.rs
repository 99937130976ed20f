//! Every binary's command line, at the process level: each binary takes
//! only the flags it honours and refuses the rest with exit status 2,
//! naming the argument, before it simulates or prints anything.

use std::process::{Command, Stdio};

/// Runs `exe` with `args` and checks that it exits 2 with `expected` on
/// stderr and nothing on stdout.
fn refuses(exe: &str, args: &[&str], expected: &str) {
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let bin = exe.rsplit('/').next().unwrap_or(exe);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(expected), "{bin} {args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{bin} {args:?} printed before refusing"
    );
}

#[test]
fn every_binary_refuses_what_it_does_not_take() {
    let trace = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/histogram.trace"
    );
    let dir = std::env::temp_dir().join("cli_flags_never_created");
    let dir = dir.to_str().expect("utf-8 path");
    // Each binary with a command line that is valid but for what a row
    // adds (`checkpoint` needs `--dir`, `profile` needs `--workload`).
    let bins: [(&str, Vec<&str>); 17] = [
        (env!("CARGO_BIN_EXE_ablation"), vec![]),
        (env!("CARGO_BIN_EXE_advise"), vec![]),
        (env!("CARGO_BIN_EXE_chaos"), vec![]),
        (
            env!("CARGO_BIN_EXE_checkpoint"),
            vec!["inspect", "--dir", dir],
        ),
        (env!("CARGO_BIN_EXE_dse"), vec!["--smoke"]),
        (env!("CARGO_BIN_EXE_fig5"), vec![]),
        (env!("CARGO_BIN_EXE_fig6"), vec![]),
        (env!("CARGO_BIN_EXE_inspect"), vec!["reuse", "Stash"]),
        (env!("CARGO_BIN_EXE_lint"), vec![]),
        (
            env!("CARGO_BIN_EXE_profile"),
            vec!["--workload", "implicit"],
        ),
        (env!("CARGO_BIN_EXE_run-trace"), vec![trace]),
        (env!("CARGO_BIN_EXE_stashd"), vec![]),
        (env!("CARGO_BIN_EXE_sweep"), vec![]),
        (env!("CARGO_BIN_EXE_table1"), vec![]),
        (env!("CARGO_BIN_EXE_table2"), vec![]),
        (env!("CARGO_BIN_EXE_table3"), vec![]),
        (env!("CARGO_BIN_EXE_verify"), vec![]),
    ];
    // Runs the row `<binary> <arguments…>` after the binary's base line.
    let row = |row: &str, expected: &str| {
        let mut words = row.split_whitespace();
        let name = words.next().expect("a binary");
        let (exe, base) = bins
            .iter()
            .find(|(exe, _)| exe.rsplit('/').next() == Some(name))
            .unwrap_or_else(|| panic!("no binary {name}"));
        let args: Vec<&str> = base.iter().copied().chain(words).collect();
        refuses(exe, &args, expected);
    };

    // An unknown flag, on every binary.
    for (exe, base) in &bins {
        let args = [base.as_slice(), &["--no-such-flag"]].concat();
        refuses(exe, &args, "unexpected argument `--no-such-flag`");
    }

    // A value flag with no value names the flag.
    for line in [
        "ablation --threads",
        "advise --threads",
        "chaos --threads --fault-seed --seeds --crash-dir",
        "checkpoint --until",
        "dse --threads --workload --config",
        "fig5 --threads --panel --csv",
        "fig6 --threads --panel --csv",
        "lint --baseline",
        "profile --threads --config --out --report --capacity",
        "run-trace --threads --fault-seed",
        "stashd --threads --socket --cache-dir --cache-max",
        "sweep --threads --sweep",
    ] {
        let (name, flags) = line.split_once(' ').expect("binary and flags");
        for flag in flags.split(' ') {
            row(&format!("{name} {flag}"), &format!("{flag} needs a value"));
        }
    }
    let checkpoint = env!("CARGO_BIN_EXE_checkpoint");
    refuses(checkpoint, &["inspect", "--dir"], "--dir needs a value");
    let profile = env!("CARGO_BIN_EXE_profile");
    refuses(profile, &["--workload"], "--workload needs a value");
    row("sweep --threads 0", "--threads: invalid value \"0\"");

    // One seed-range rule for every chaos campaign, checked before any
    // run: 1..=1024 seeds, and the last one inside a u64.
    for (line, expected) in [
        ("chaos --seeds 0", "--seeds: 0 seeds is outside 1..=1024"),
        (
            "chaos --seeds 1025",
            "--seeds: 1025 seeds is outside 1..=1024",
        ),
        (
            "chaos --seeds 1000000000000",
            "--seeds: 1000000000000 seeds",
        ),
        (
            "chaos --fault-seed 18446744073709551615 --seeds 2",
            "--fault-seed: 2 seeds from 18446744073709551615 run past",
        ),
        ("chaos --crash --seeds 0", "--seeds:"),
        ("chaos --crash --no-resilience", "incompatible"),
        ("chaos --crash --no-parity", "incompatible"),
        ("chaos --crash-dir scratch", "--crash-dir"),
    ] {
        row(line, expected);
    }

    // Flags other binaries take, which these never acted on.
    for line in [
        "advise --fault-seed 1",
        "advise --deny-unknown",
        "checkpoint --threads 2",
        "checkpoint --fault-seed 1",
        "checkpoint --json",
        "dse --verify",
        "dse --fault-seed 1",
        "lint --threads 2",
        "lint --verify",
        "lint --fault-seed 1",
        "profile --verify",
        "profile --json",
        "profile --fault-seed 1",
        "run-trace --json",
        "stashd --verify",
        "stashd --json",
        "stashd --fault-seed 1",
    ] {
        let flag = line.split(' ').nth(1).expect("a flag");
        row(line, &format!("unexpected argument `{flag}`"));
    }
}
