//! The static analyzer's exact counters against the simulator over the
//! full Figure 5/6 workload matrix.
//!
//! For every suite workload and every configuration its figure compares,
//! each [`verify::ExactCounts`] counter — transactions through the real
//! coalescer, local-op classes by slot binding, map and DMA totals — and
//! the instruction total must equal the measured run's exactly. The pass
//! is independent of the simulator, so a disagreement is an accounting
//! bug on one side or the other.
//!
//! The advisor recommends the configuration with the lowest measured
//! runtime ([`verify::measured_best`]); the Figure 6 test pins its
//! exact-tie rule on nw, whose Stash and StashG lowerings are equal.
//!
//! The `advise` binary runs the same checks as a CI gate; this test keeps
//! them enforced under plain `cargo test` as well.

use gpu::config::MemConfigKind;
use gpu::machine::Machine;
use verify::{analyze_workload, check_counts, measured_best, Symbols};
use workloads::suite::{self, WorkloadSet};

/// One workload's measured `(configuration, total_picos)` figure row.
type MeasuredRow = (&'static str, Vec<(MemConfigKind, u64)>);

/// Checks every workload of `set` over its figure's matrix row; returns
/// human-readable failure lines (empty = every counter matched) and each
/// workload's measured row.
fn crossval(set: WorkloadSet) -> (Vec<String>, Vec<MeasuredRow>) {
    let sys = set.system_config();
    let kinds = set.figure_kinds();
    let symbols = Symbols::new();
    let mut failures = Vec::new();
    let mut rows = Vec::new();
    for w in suite::all().iter().filter(|w| w.set == set) {
        let analysis = analyze_workload(w.build, &sys, kinds, &symbols);
        let mut measured = Vec::new();
        for counts in &analysis.counts {
            let mut machine = Machine::new(sys.clone(), counts.kind);
            let report = machine
                .run(&(w.build)(counts.kind))
                .unwrap_or_else(|e| panic!("{}/{} failed to simulate: {e}", w.name, counts.kind));
            measured.push((counts.kind, report.total_picos));
            for err in check_counts(counts, &report) {
                failures.push(format!("{}/{}: {err}", w.name, counts.kind));
            }
        }
        rows.push((w.name, measured));
    }
    (failures, rows)
}

#[test]
fn figure5_micros_cross_validate() {
    let (failures, _) = crossval(WorkloadSet::Micro);
    assert!(
        failures.is_empty(),
        "Figure 5 exact-counter mismatches:\n{}",
        failures.join("\n")
    );
}

#[test]
fn figure6_apps_cross_validate() {
    let (failures, rows) = crossval(WorkloadSet::Apps);
    assert!(
        failures.is_empty(),
        "Figure 6 exact-counter mismatches:\n{}",
        failures.join("\n")
    );
    let (_, nw) = rows
        .iter()
        .find(|(name, _)| *name == "nw")
        .expect("nw is a Figure 6 application");
    let time = |kind| nw.iter().find(|&&(k, _)| k == kind).map(|&(_, t)| t);
    assert_eq!(
        time(MemConfigKind::Stash),
        time(MemConfigKind::StashG),
        "nw's Stash and StashG lowerings are equal, so they must tie exactly"
    );
    assert_eq!(measured_best(nw), Some(MemConfigKind::Stash));
}
