//! Process-level tests of the `stashd` binary over its stdio transport.
//!
//! `tests/server_cache.rs` drives the daemon core in-process; these run
//! the real executable, so they also cover the line loop, the exit
//! status, and a cache that must survive a process restart.

use std::io::Write as _;
use std::process::{Command, Stdio};

use bench::json::{self, Value};

/// A small two-kernel trace request: cheap to simulate, but a real
/// end-to-end run through lowering, the job pool and the cache.
const TRACE_REQUEST: &str = r#"{"id":1,"cmd":"run-trace","configs":["Stash"],"trace":"array grid elems=256 object=4\nkernel\nblock\ntask grid 0 256 rw local\nkernel\nblock\ntask grid 0 256 r local\n"}"#;

/// Runs `stashd` with `args`, writes `input` to its stdin, closes it,
/// and returns the exit code plus every stdout line parsed as JSON.
fn stashd(args: &[&str], input: &str) -> (Option<i32>, Vec<Value>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_stashd"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("stashd starts");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("stashd reads its input");
    let out = child.wait_with_output().expect("stashd exits");
    let events = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("bad protocol line {l:?}: {e}")))
        .collect();
    assert!(
        out.stderr.is_empty(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code(), events)
}

/// The single event named `event` answering request `id`.
fn answer<'a>(events: &'a [Value], event: &str, id: u64) -> &'a Value {
    let mut found = events
        .iter()
        .filter(|v| v.get_str("event") == Some(event) && v.get_u64("id") == Some(id));
    let first = found
        .next()
        .unwrap_or_else(|| panic!("no {event} event for id {id} in {events:?}"));
    assert!(found.next().is_none(), "two {event} events for id {id}");
    first
}

#[test]
fn restart_answers_from_the_disk_cache_byte_identically() {
    let dir = std::env::temp_dir().join(format!("stashd_cli_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let args = [
        "--threads",
        "2",
        "--cache-dir",
        dir.to_str().expect("utf-8 path"),
    ];
    let input = format!("{TRACE_REQUEST}\n{{\"cmd\":\"shutdown\"}}\n");

    let (code, first) = stashd(&args, &input);
    assert_eq!(code, Some(0));
    let miss = answer(&first, "result", 1);
    assert_eq!(miss.get("cached"), Some(&Value::Bool(false)));

    // A fresh process has nothing in memory: the hit comes from disk.
    let (code, second) = stashd(&args, &input);
    assert_eq!(code, Some(0));
    let hit = answer(&second, "result", 1);
    assert_eq!(hit.get("cached"), Some(&Value::Bool(true)));
    assert_eq!(hit.get_str("key"), miss.get_str("key"));
    assert!(!miss.get_str("payload").expect("payload").is_empty());
    assert_eq!(hit.get_str("payload"), miss.get_str("payload"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deeply_nested_line_is_an_error_and_serving_continues() {
    let hostile = "[".repeat(100_000);
    let input = format!("{hostile}\n{TRACE_REQUEST}\n{{\"cmd\":\"shutdown\"}}\n");
    let (code, events) = stashd(&["--threads", "2", "--no-cache"], &input);
    assert_eq!(code, Some(0), "shutdown exits 0: {events:?}");
    let error = answer(&events, "error", 0);
    assert!(
        error
            .get_str("error")
            .is_some_and(|e| e.contains("nesting deeper than")),
        "{error:?}"
    );
    let result = answer(&events, "result", 1);
    assert!(!result.get_str("payload").expect("payload").is_empty());
    assert_eq!(
        events.last().and_then(|v| v.get_str("event")),
        Some("bye"),
        "{events:?}"
    );
}
