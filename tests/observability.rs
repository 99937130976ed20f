//! The observability layer's two contracts (DESIGN.md §11):
//!
//! * **Zero-cost when off, invisible when on**: enabling tracing changes
//!   no architectural state, no counters, and no timing — `state_digest`
//!   and the full report are bit-identical either way. The tracing-off
//!   digests are additionally pinned against the Figure 5 baselines, so
//!   a change to either the simulation or the tracing hooks that moves
//!   results is caught here. So are the per-router flit profiles of the
//!   same cells and of lud StashG, which no digest covers.
//! * **Exact attribution**: with tracing on, every CU's stall breakdown
//!   sums exactly to the run's `gpu_cycles` for every cell of the
//!   Figure 5 matrix — no unattributed or double-counted cycles.

use std::collections::HashMap;

use gpu::config::MemConfigKind;
use gpu::machine::Machine;
use gpu::report::RunReport;
use sim::snapshot::fnv1a;
use sim::trace::StallReason;
use workloads::suite;

/// What one run of a cell leaves behind.
struct Cell {
    report: RunReport,
    digest: u64,
    /// FNV-1a of the per-router flit profile (little-endian `u64`s) —
    /// the route walk's footprint, which neither `state_digest` nor the
    /// report includes.
    routers: u64,
    /// Per-CU stall breakdown totals; empty when untraced.
    stall_totals: Vec<u64>,
}

/// Runs one cell, optionally traced.
fn run_cell(workload: &suite::Workload, kind: MemConfigKind, traced: bool) -> Cell {
    let program = (workload.build)(kind);
    let mut machine = Machine::new(workload.set.system_config(), kind);
    if traced {
        machine.memory_mut().enable_trace(1 << 16);
    }
    let report = machine.run(&program).expect("cell runs");
    let digest = machine.memory().state_digest();
    let profile: Vec<u8> = machine
        .memory()
        .router_flit_profile()
        .iter()
        .flat_map(|flits| flits.to_le_bytes())
        .collect();
    let stall_totals = machine
        .memory_mut()
        .take_trace()
        .map(|sink| sink.breakdowns().iter().map(|b| b.total()).collect())
        .unwrap_or_default();
    Cell {
        report,
        digest,
        routers: fnv1a(&profile),
        stall_totals,
    }
}

/// Figure 5 microbenchmark digests with tracing off, pinned. Regenerate
/// (only after an intentional timing/protocol change) by printing
/// `state_digest()` per cell in `micros() × FIGURE5` order. They repeat
/// the Figure 5 lines of `perfbench/goldens.txt`, which
/// `tests/goldens.rs` checks; perfbench's own unit test reads this
/// table and cross-checks it against that file.
const FIGURE5_DIGESTS: [(&str, [u64; 4]); 4] = [
    (
        "implicit",
        [
            12583440591047165349,
            12583440591047165349,
            10694616415496684709,
            2122675424195918525,
        ],
    ),
    (
        "pollution",
        [
            8079358055199332005,
            11522261313234679461,
            11279033796832277669,
            6887623302656712381,
        ],
    ),
    (
        "ondemand",
        [
            9588852058042289829,
            7000860099795942483,
            10138897812602508709,
            7813959061588616162,
        ],
    ),
    (
        "reuse",
        [
            14494022835524804005,
            14494022835524804005,
            10694616415496684709,
            15169198090538526781,
        ],
    ),
];

/// The same cells' router-profile hashes (`Cell::routers`), pinned the
/// same way, plus one application cell whose messages cross the whole
/// mesh.
const FIGURE5_ROUTER_PROFILES: [(&str, [u64; 4]); 4] = [
    (
        "implicit",
        [
            9566181161509727957,
            9566181161509727957,
            9092516663061665938,
            9282319858922134009,
        ],
    ),
    (
        "pollution",
        [
            4539797451691662185,
            8501737956152298104,
            12931899473336843256,
            2659341162888450188,
        ],
    ),
    (
        "ondemand",
        [
            15960916240750183219,
            14400585332264590450,
            7926628689147457090,
            17980558563155714832,
        ],
    ),
    (
        "reuse",
        [
            2550992701105360636,
            2550992701105360636,
            17413044549364850170,
            5879168378758577916,
        ],
    ),
];
const LUD_STASHG_ROUTER_PROFILE: u64 = 13143159526089892614;

#[test]
fn tracing_is_observationally_free_and_digests_match_baselines() {
    let pinned: HashMap<&str, [u64; 4]> = FIGURE5_DIGESTS.into_iter().collect();
    let pinned_routers: HashMap<&str, [u64; 4]> = FIGURE5_ROUTER_PROFILES.into_iter().collect();
    for workload in &suite::micros() {
        for (i, &kind) in MemConfigKind::FIGURE5.iter().enumerate() {
            let plain = run_cell(workload, kind, false);
            let traced = run_cell(workload, kind, true);
            assert!(plain.stall_totals.is_empty());
            assert_eq!(
                plain.digest,
                traced.digest,
                "{} / {}: tracing changed architectural state",
                workload.name,
                kind.name()
            );
            assert_eq!(
                plain.report,
                traced.report,
                "{} / {}: tracing changed the report (timing, counters, energy)",
                workload.name,
                kind.name()
            );
            assert_eq!(
                plain.digest,
                pinned[workload.name][i],
                "{} / {}: digest moved off the pinned Figure 5 baseline",
                workload.name,
                kind.name()
            );
            assert_eq!(
                plain.routers,
                pinned_routers[workload.name][i],
                "{} / {}: router flit profile moved off its pinned baseline",
                workload.name,
                kind.name()
            );
        }
    }
    let lud = suite::by_name("lud").expect("lud is in the suite");
    assert_eq!(
        run_cell(&lud, MemConfigKind::StashG, false).routers,
        LUD_STASHG_ROUTER_PROFILE,
        "lud / StashG: router flit profile moved off its pinned baseline"
    );
}

#[test]
fn stall_decomposition_sums_to_total_cycles_across_figure5() {
    for workload in &suite::micros() {
        for &kind in &MemConfigKind::FIGURE5 {
            let Cell {
                report,
                stall_totals,
                ..
            } = run_cell(workload, kind, true);
            assert!(!stall_totals.is_empty());
            for (cu, &total) in stall_totals.iter().enumerate() {
                assert_eq!(
                    total,
                    report.gpu_cycles,
                    "{} / {} cu{}: breakdown sums to {} of {} cycles",
                    workload.name,
                    kind.name(),
                    cu,
                    total,
                    report.gpu_cycles
                );
            }
        }
    }
}

#[test]
fn retry_backoff_never_appears_without_fault_injection() {
    // Schedule invariance: the retry/backoff bucket exists for chaos
    // runs; a fault-free run must attribute zero cycles to it.
    for &kind in &MemConfigKind::FIGURE5 {
        let workload = &suite::micros()[0];
        let program = (workload.build)(kind);
        let mut machine = Machine::new(workload.set.system_config(), kind);
        machine.memory_mut().enable_trace(1 << 16);
        machine.run(&program).expect("cell runs");
        let sink = machine.memory_mut().take_trace().expect("trace enabled");
        for b in sink.breakdowns() {
            assert_eq!(b.get(StallReason::RetryBackoff), 0);
        }
    }
}
