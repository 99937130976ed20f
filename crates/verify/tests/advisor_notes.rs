//! Pins the advisor's static notes for every built-in workload and the
//! example trace. Most of them — the reuse profile, the L1 capacity
//! note, the lazy-writeback and dead-store notes — read the word stream
//! of `analyze::reuse::word_events`, which `advise`'s exit code does not
//! gate. Each row is the note count and the FNV-1a of the notes, one
//! `Display` per line.

use sim::snapshot::fnv1a;
use verify::{symbols_for_trace, workload_notes, Note, Symbols};
use workloads::suite;
use workloads::trace::parse_trace;

/// `(workload, notes, FNV-1a of the rendered notes)`.
const PINNED: [(&str, usize, u64); 13] = [
    ("implicit", 18, 0xfc7a8393bf3b766e),
    ("pollution", 10, 0xcf635a5f71d90801),
    ("ondemand", 17, 0x9ee829c71d298981),
    ("reuse", 10, 0x584cfeb407c89c56),
    ("lud", 260, 0x21c370a5837da63c),
    ("surf", 13, 0x521a1b674e273812),
    ("backprop", 35, 0x57cd1ed0afed5cee),
    ("nw", 2050, 0x51051d2c6af8d01e),
    ("pathfinder", 9, 0xf6a6e36098e44378),
    ("sgemm", 3, 0xd2bc1b5a37fc1700),
    ("stencil", 3, 0x439a82fe54c908aa),
    ("aliasing", 35, 0x1c1204b911be88d9),
    ("examples/histogram.trace", 5, 0xbb984457a9f0c025),
];

fn row(name: &str, notes: &[Note]) -> (String, usize, u64) {
    let text: String = notes.iter().map(|n| format!("{n}\n")).collect();
    (name.to_string(), notes.len(), fnv1a(text.as_bytes()))
}

#[test]
fn advisor_notes_match_their_pins() {
    let mut got = Vec::new();
    for w in suite::all().into_iter().chain(suite::extras()) {
        let sys = w.set.system_config();
        let notes = workload_notes(w.build, &sys, w.set.figure_kinds(), &Symbols::new());
        got.push(row(w.name, &notes));
    }
    let trace = parse_trace(include_str!("../../../examples/histogram.trace"))
        .expect("the example trace parses");
    let set = trace.set();
    let notes = workload_notes(
        |kind| trace.build(kind),
        &set.system_config(),
        set.figure_kinds(),
        &symbols_for_trace(&trace),
    );
    got.push(row("examples/histogram.trace", &notes));
    let table: String = got
        .iter()
        .map(|(name, n, hash)| format!("    ({name:?}, {n}, {hash:#018x}),\n"))
        .collect();
    let pinned: Vec<(String, usize, u64)> = PINNED
        .iter()
        .map(|&(name, n, hash)| (name.to_string(), n, hash))
        .collect();
    assert_eq!(got, pinned, "advisor notes moved; now:\n{table}");
}
