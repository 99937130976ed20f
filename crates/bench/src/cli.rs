//! Shared command-line conventions for the experiment binaries.
//!
//! Every binary accepts `--threads N` (or the `STASH_THREADS` environment
//! variable) to size the simulation job pool; unset, the pool uses every
//! available core. Parallelism never changes results — see the
//! determinism contract in [`crate::pool`].

/// The usage line binaries print for the shared flags.
pub const THREADS_USAGE: &str =
    "--threads N   worker threads for the simulation pool (default: all cores;\n              \
     also settable via STASH_THREADS)";

/// The usage line for the runtime invariant oracle flag.
pub const VERIFY_USAGE: &str =
    "--verify      cross-check protocol invariants (single registered owner,\n              \
     registry/owner agreement) after every memory-system transition; slow";

/// The usage line for machine-readable output.
pub const JSON_USAGE: &str = "--json        emit machine-readable JSON instead of the text report";

/// The usage line for deterministic fault injection.
pub const FAULT_SEED_USAGE: &str =
    "--fault-seed S  inject the deterministic chaos fault schedule seeded by S\n              \
     (also settable via STASH_FAULT_SEED); omitted = no injection";

/// True when `--verify` appears in the arguments (or `STASH_VERIFY=1`).
pub fn verify_flag(args: &[String]) -> bool {
    args.iter().any(|a| a == "--verify") || std::env::var("STASH_VERIFY").is_ok_and(|v| v == "1")
}

/// True when `--json` appears in the arguments.
pub fn json_flag(args: &[String]) -> bool {
    args.iter().any(|a| a == "--json")
}

/// Removes the shared flags (`--threads N`, `--threads=N`, `--verify`,
/// `--json`, `--fault-seed S`, `--fault-seed=S`) from `args`, leaving only
/// the binary name and positional operands. Read the flags first with
/// [`thread_count`] / [`verify_flag`] / [`json_flag`] / [`fault_seed`];
/// this only cleans up for positional parsing.
pub fn strip_common_flags(args: &mut Vec<String>) {
    for flag in ["--threads", "--fault-seed"] {
        if let Some(i) = args.iter().position(|a| a == flag) {
            args.drain(i..(i + 2).min(args.len()));
        }
    }
    args.retain(|a| {
        !a.starts_with("--threads=")
            && !a.starts_with("--fault-seed=")
            && a != "--verify"
            && a != "--json"
    });
}

/// Removes a binary-specific `--flag value` / `--flag=value` from `args`
/// and returns its value (`None` if the flag is absent). A trailing
/// `--flag` with no value names the flag and exits with status 2, like
/// the binaries' other argument errors.
pub fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            eprintln!("{flag} needs a value");
            std::process::exit(2);
        }
        let v = args.remove(i + 1);
        args.remove(i);
        return Some(v);
    }
    let prefix = format!("{flag}=");
    let i = args.iter().position(|a| a.starts_with(&prefix))?;
    Some(args.remove(i)[prefix.len()..].to_string())
}

/// Removes every occurrence of the switch `flag` from `args`; true if
/// there was one.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

/// The fault-injection seed from `--fault-seed S` / `--fault-seed=S`,
/// then `STASH_FAULT_SEED`; `None` means injection stays off.
///
/// Malformed values exit with usage (status 2), like the binaries' other
/// argument errors.
pub fn fault_seed(args: &[String]) -> Option<u64> {
    if let Some(i) = args.iter().position(|a| a == "--fault-seed") {
        return Some(parse_fault_seed(
            args.get(i + 1).map(String::as_str).unwrap_or(""),
        ));
    }
    if let Some(eq) = args.iter().find_map(|a| a.strip_prefix("--fault-seed=")) {
        return Some(parse_fault_seed(eq));
    }
    if let Ok(env) = std::env::var("STASH_FAULT_SEED") {
        return Some(parse_fault_seed(&env));
    }
    None
}

fn parse_fault_seed(s: &str) -> u64 {
    s.parse::<u64>().unwrap_or_else(|_| {
        eprintln!("--fault-seed/STASH_FAULT_SEED must be an unsigned integer, got {s:?}");
        std::process::exit(2);
    })
}

/// Reports a simulation failure on stderr and picks the process exit
/// status: a no-progress watchdog trip ([`sim::SimError::Deadlock`])
/// prints its in-flight diagnostic dump and exits 3; any other simulation
/// error exits 1.
pub fn sim_failure_status(context: &str, error: &sim::SimError) -> i32 {
    if let sim::SimError::Deadlock {
        site,
        attempts,
        dump,
    } = error
    {
        eprintln!("{context}: no-progress watchdog tripped at {site} after {attempts} attempts");
        eprintln!("--- in-flight diagnostic dump ---");
        eprintln!("{dump}");
        3
    } else {
        eprintln!("{context}: {error}");
        1
    }
}

/// Reads and parses a trace file, exiting with status 2 (like the
/// binaries' other argument errors) if it cannot be read or parsed.
pub fn load_trace(path: &str) -> workloads::trace::TraceWorkload {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    workloads::trace::parse_trace(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    })
}

/// Resolves a configuration name (case-insensitive, see
/// [`crate::server::config_named`]), exiting with status 2 and the list
/// of valid names if it is unknown.
pub fn config_by_name(s: &str) -> gpu::config::MemConfigKind {
    crate::server::config_named(s).unwrap_or_else(|| {
        let names: Vec<_> = gpu::config::MemConfigKind::ALL
            .into_iter()
            .map(|k| k.name())
            .collect();
        eprintln!(
            "unknown configuration {s} (expected one of {})",
            names.join(", ")
        );
        std::process::exit(2);
    })
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Resolves the worker-thread count from `--threads N` / `--threads=N`,
/// then `STASH_THREADS`, then the host's available parallelism.
///
/// Malformed values exit with usage (status 2), like the binaries' other
/// argument errors.
pub fn thread_count(args: &[String]) -> usize {
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        return parse_threads(args.get(i + 1).map(String::as_str).unwrap_or(""));
    }
    if let Some(eq) = args.iter().find_map(|a| a.strip_prefix("--threads=")) {
        return parse_threads(eq);
    }
    if let Ok(env) = std::env::var("STASH_THREADS") {
        return parse_threads(&env);
    }
    default_threads()
}

/// The host's available parallelism (1 if unknown).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn parse_threads(s: &str) -> usize {
    match s.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => {
            eprintln!("--threads/STASH_THREADS must be a positive integer, got {s:?}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn explicit_flag_wins() {
        assert_eq!(thread_count(&args(&["fig5", "--threads", "3"])), 3);
        assert_eq!(thread_count(&args(&["fig5", "--threads=7"])), 7);
    }

    #[test]
    fn default_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn verify_flag_only_set_when_asked() {
        assert!(verify_flag(&args(&["fig5", "--verify"])));
        assert!(!verify_flag(&args(&["fig5", "--threads", "3"])));
    }

    #[test]
    fn json_flag_only_set_when_asked() {
        assert!(json_flag(&args(&["advise", "--json"])));
        assert!(!json_flag(&args(&["advise", "a.trace"])));
    }

    #[test]
    fn strip_common_flags_leaves_positionals() {
        let mut a = args(&[
            "run-trace",
            "--threads",
            "3",
            "x.trace",
            "--verify",
            "Stash",
        ]);
        strip_common_flags(&mut a);
        assert_eq!(a, args(&["run-trace", "x.trace", "Stash"]));

        let mut b = args(&["advise", "--threads=2", "--json", "y.trace"]);
        strip_common_flags(&mut b);
        assert_eq!(b, args(&["advise", "y.trace"]));

        let mut c = args(&["chaos", "--fault-seed", "9", "--fault-seed=11", "z.trace"]);
        strip_common_flags(&mut c);
        assert_eq!(c, args(&["chaos", "z.trace"]));
    }

    #[test]
    fn take_value_parses_both_spellings() {
        let mut a = args(&["checkpoint", "--dir", "/tmp/a", "save", "--until=3"]);
        assert_eq!(take_value(&mut a, "--dir"), Some("/tmp/a".to_string()));
        assert_eq!(take_value(&mut a, "--until"), Some("3".to_string()));
        assert_eq!(take_value(&mut a, "--seeds"), None);
        assert_eq!(a, args(&["checkpoint", "save"]));
        // A longer flag sharing the prefix is not a match.
        let mut b = args(&["chaos", "--crash-dir=/x"]);
        assert_eq!(take_value(&mut b, "--crash"), None);
        assert_eq!(b, args(&["chaos", "--crash-dir=/x"]));
    }

    #[test]
    fn take_flag_removes_every_occurrence() {
        let mut a = args(&["dse", "--smoke", "x", "--smoke"]);
        assert!(take_flag(&mut a, "--smoke"));
        assert!(!take_flag(&mut a, "--smoke"));
        assert_eq!(a, args(&["dse", "x"]));
    }

    #[test]
    fn fault_seed_parses_both_spellings() {
        assert_eq!(fault_seed(&args(&["fig5", "--fault-seed", "42"])), Some(42));
        assert_eq!(fault_seed(&args(&["fig5", "--fault-seed=7"])), Some(7));
        assert_eq!(fault_seed(&args(&["fig5"])), None);
    }

    #[test]
    fn deadlock_failure_reports_status_3() {
        let e = sim::SimError::Deadlock {
            site: "cache.load",
            attempts: 9,
            dump: "in-flight: none".to_string(),
        };
        assert_eq!(sim_failure_status("test", &e), 3);
        let other = sim::SimError::Config("bad".to_string());
        assert_eq!(sim_failure_status("test", &other), 1);
    }

    #[test]
    fn config_names_resolve_case_insensitively() {
        use gpu::config::MemConfigKind;
        assert_eq!(config_by_name("stash"), MemConfigKind::Stash);
        assert_eq!(config_by_name("ScratchGD"), MemConfigKind::ScratchGD);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
