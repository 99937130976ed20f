//! Shared command-line conventions for the experiment binaries.
//!
//! Every binary reads its command line through one consuming parser:
//! it takes exactly the flags it honours — [`take_flag`] for switches,
//! [`take_value`] for `--flag value` / `--flag=value`, [`take_parsed`]
//! for values that must parse — and then calls [`finish`], which refuses
//! whatever is left before any work starts. Every argument error exits
//! with status 2 and names the offending argument.
//!
//! `--threads N` sizes a binary's simulation job pool; absent, the pool
//! uses every available core ([`default_threads`]). Parallelism never
//! changes results — see the determinism contract in [`crate::pool`].

use std::fmt::Display;
use std::str::FromStr;

/// The usage line binaries print for the shared flags.
pub const THREADS_USAGE: &str =
    "--threads N   worker threads for the simulation pool (default: all cores)";

/// The usage line for the runtime invariant oracle flag.
pub const VERIFY_USAGE: &str =
    "--verify      cross-check protocol invariants (single registered owner,\n              \
     registry/owner agreement) after every memory-system transition; slow";

/// The usage line for machine-readable output.
pub const JSON_USAGE: &str = "--json        emit machine-readable JSON instead of the text report";

/// The usage line for deterministic fault injection.
pub const FAULT_SEED_USAGE: &str =
    "--fault-seed S  inject the deterministic chaos fault schedule seeded by S;\n              \
     omitted = no injection";

/// Removes a `--flag value` / `--flag=value` from `args` and returns its
/// value (`None` if the flag is absent). A trailing `--flag` with no
/// value names the flag and exits with status 2.
pub fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    or_exit(value(args, flag))
}

/// Removes every occurrence of the switch `flag` from `args`; true if
/// there was one.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

/// Like [`take_value`], then parses the value as a `T`. A missing or
/// malformed value names the flag and exits with status 2. Use
/// `NonZeroUsize` for counts that must be positive (`--threads`).
pub fn take_parsed<T>(args: &mut Vec<String>, flag: &str) -> Option<T>
where
    T: FromStr,
    T::Err: Display,
{
    or_exit(parsed(args, flag))
}

/// The final check of a command line, once the binary has taken every
/// flag it honours: exits with status 2, naming the first argument left
/// over that the binary does not take. A binary without operands takes
/// no leftover argument at all; one with operands takes any that does
/// not start with `--`. Returns the operands (without the program name).
pub fn finish(args: Vec<String>, operands: bool) -> Vec<String> {
    or_exit(leftover(args, operands))
}

fn value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let prefix = format!("{flag}=");
    let Some(i) = args
        .iter()
        .position(|a| a == flag || a.starts_with(&prefix))
    else {
        return Ok(None);
    };
    let arg = args.remove(i);
    match arg.strip_prefix(&prefix) {
        Some(v) => Ok(Some(v.to_string())),
        None if i < args.len() => Ok(Some(args.remove(i))),
        None => Err(format!("{flag} needs a value")),
    }
}

fn parsed<T>(args: &mut Vec<String>, flag: &str) -> Result<Option<T>, String>
where
    T: FromStr,
    T::Err: Display,
{
    value(args, flag)?
        .map(|v| {
            v.parse()
                .map_err(|e| format!("{flag}: invalid value {v:?} ({e})"))
        })
        .transpose()
}

fn leftover(args: Vec<String>, operands: bool) -> Result<Vec<String>, String> {
    let mut args = args.into_iter();
    let program = args.next().unwrap_or_default();
    let rest: Vec<String> = args.collect();
    match rest.iter().find(|a| !operands || a.starts_with("--")) {
        Some(arg) => Err(format!(
            "{}: unexpected argument `{arg}`",
            program.rsplit('/').next().unwrap_or_default()
        )),
        None => Ok(rest),
    }
}

fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
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

/// The host's available parallelism (1 if unknown).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::num::NonZeroUsize;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_is_positive() {
        assert!(default_threads() >= 1);
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
    fn parsed_values_name_the_flag_when_bad_or_missing() {
        let mut a = args(&[
            "chaos",
            "--threads",
            "3",
            "--fault-seed=42",
            "--seeds=x",
            "--until",
        ]);
        assert_eq!(parsed::<usize>(&mut a, "--threads"), Ok(Some(3)));
        assert_eq!(parsed::<u64>(&mut a, "--fault-seed"), Ok(Some(42)));
        assert_eq!(parsed::<u64>(&mut a, "--cache-max"), Ok(None));
        let err = parsed::<u64>(&mut a, "--seeds").unwrap_err();
        assert!(err.starts_with("--seeds: invalid value \"x\""), "{err}");
        let err = parsed::<usize>(&mut a, "--until").unwrap_err();
        assert_eq!(err, "--until needs a value");
        assert_eq!(a, args(&["chaos"]));
        let mut b = args(&["sweep", "--threads=0"]);
        let err = parsed::<NonZeroUsize>(&mut b, "--threads").unwrap_err();
        assert!(err.starts_with("--threads: invalid value \"0\""), "{err}");
    }

    #[test]
    fn leftover_arguments_are_refused() {
        // Without operands, anything left over is refused, first one named.
        let err = leftover(args(&["/bin/fig5", "extra", "--debug"]), false).unwrap_err();
        assert_eq!(err, "fig5: unexpected argument `extra`");
        assert_eq!(leftover(args(&["fig5"]), false), Ok(Vec::new()));
        // With operands, only `--` arguments are refused.
        let ok = leftover(args(&["run-trace", "x.trace", "Stash"]), true);
        assert_eq!(ok, Ok(args(&["x.trace", "Stash"])));
        let err = leftover(args(&["run-trace", "x.trace", "--json"]), true).unwrap_err();
        assert_eq!(err, "run-trace: unexpected argument `--json`");
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
