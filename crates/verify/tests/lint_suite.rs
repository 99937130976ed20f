//! The race and bounds passes find no proven violation in any shipped
//! workload and prove the races in seeded racy traces — the acceptance
//! gate for `verify::dataflow_diagnostics`, the `lint` bin's checks.

use gpu::config::MemConfigKind;
use verify::dataflow::dataflow_diagnostics;
use verify::{symbols_for_trace, Rule, Severity, Symbols};
use workloads::suite;
use workloads::trace::parse_trace;

#[test]
fn shipped_suite_has_no_proven_violation_under_any_configuration() {
    let empty = Symbols::new();
    for workload in suite::all() {
        for kind in MemConfigKind::ALL {
            let program = (workload.build)(kind);
            let (diags, _) = dataflow_diagnostics(&program, &empty);
            let errors: Vec<String> = diags
                .iter()
                .filter(|d| d.severity() == Severity::Error)
                .map(ToString::to_string)
                .collect();
            assert!(
                errors.is_empty(),
                "{} on {kind} flagged:\n{}",
                workload.name,
                errors.join("\n")
            );
        }
    }
}

#[test]
fn seeded_racy_traces_are_proven_races_in_every_configuration() {
    // Two thread blocks of one kernel read-modify-write overlapping
    // element ranges of `a` with no synchronization between blocks — a
    // textbook cross-block data race. The second trace's tasks are far
    // larger than any span enumeration cap.
    let cases = [
        (
            "array a elems=1024 object=4
             kernel
             block
             task a 0 256 rw global
             block
             task a 128 256 rw global",
            "a[word 128..255] (128 words",
        ),
        (
            "array a elems=32768 object=4
             kernel
             block
             task a 0 12000 rw global
             block
             task a 4000 12000 rw global",
            "a[word 4000..11999] (8000 words",
        ),
    ];
    for (text, range) in cases {
        let trace = parse_trace(text).unwrap();
        let symbols = symbols_for_trace(&trace);
        for kind in MemConfigKind::ALL {
            let program = trace.try_build(kind).unwrap();
            let (diags, _) = dataflow_diagnostics(&program, &symbols);
            let races: Vec<String> = diags
                .iter()
                .filter(|d| d.rule == Rule::ProvenRace)
                .map(ToString::to_string)
                .collect();
            assert_eq!(races.len(), 1, "{range} on {kind}: {diags:?}");
            // The diagnostic names the conflicting tasks and the array.
            let race = &races[0];
            assert!(
                race.contains("kernel 0 block 0 and kernel 0 block 1"),
                "{race}"
            );
            assert!(race.contains(range), "{kind}: {race}");
        }
    }
}

#[test]
fn clean_trace_with_disjoint_blocks_is_silent() {
    let trace = parse_trace(
        "array a elems=1024 object=4
         kernel
         block
         task a 0 256 rw global
         block
         task a 256 256 rw global",
    )
    .unwrap();
    let symbols = symbols_for_trace(&trace);
    for kind in MemConfigKind::ALL {
        let program = trace.try_build(kind).unwrap();
        let (diags, _) = dataflow_diagnostics(&program, &symbols);
        assert!(diags.is_empty(), "clean trace flagged on {kind}: {diags:?}");
    }
}
