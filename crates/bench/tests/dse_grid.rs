//! The static analyzer's exact counters against the simulator at
//! hardware geometries the paper never simulated.
//!
//! `crossval.rs` checks the exact counters on all 51 Figure 5/6 cells at
//! the paper's operating point. The advisor runs on any `SystemConfig`,
//! so this test checks the same counters — transactions, local-op
//! classes, map and DMA totals — and the instruction total at every
//! point of a mesh-side {2, 4, 8} × LLC-bank {8, 16, 32} geometry grid.
//! Geometry moves timing, not structure, so every one must still equal
//! the simulator's exactly.
//!
//! The full suite × full grid would be 9× the crossval matrix, so the
//! workloads rotate round-robin over the nine cells: every workload is
//! checked at a non-default geometry, every cell checks at least one
//! workload, and the whole Figure 5/6 suite stays covered.

use gpu::machine::Machine;
use verify::dse::DesignPoint;
use verify::{analyze_workload, check_counts, Symbols};
use workloads::suite;

const MESH_SIDES: [usize; 3] = [2, 4, 8];
const L2_BANKS: [usize; 3] = [8, 16, 32];

#[test]
fn exact_counters_match_the_simulator_across_the_geometry_grid() {
    let symbols = Symbols::new();
    let workloads = suite::all();
    let cells: Vec<(usize, usize)> = MESH_SIDES
        .iter()
        .flat_map(|&side| L2_BANKS.iter().map(move |&banks| (side, banks)))
        .collect();

    let mut failures = Vec::new();
    let mut cells_hit = std::collections::HashSet::new();
    for (i, w) in workloads.iter().enumerate() {
        let (side, banks) = cells[i % cells.len()];
        cells_hit.insert((side, banks));
        let point = DesignPoint {
            mesh_side: side,
            l2_banks: banks,
            ..DesignPoint::default()
        };
        let sys = point.apply(&w.set.system_config());
        sys.validate()
            .unwrap_or_else(|e| panic!("m{side}/b{banks} invalid: {e}"));
        let kinds = w.set.figure_kinds();
        let cell = format!("{} @ m{side}/b{banks}", w.name);

        let analysis = analyze_workload(w.build, &sys, kinds, &symbols);
        for counts in &analysis.counts {
            let mut machine = Machine::new(sys.clone(), counts.kind);
            let report = machine
                .run(&(w.build)(counts.kind))
                .unwrap_or_else(|e| panic!("{cell}/{} failed to simulate: {e}", counts.kind));
            for err in check_counts(counts, &report) {
                failures.push(format!("{cell}/{}: {err}", counts.kind));
            }
        }
    }

    assert_eq!(
        cells_hit.len(),
        cells.len(),
        "every grid cell must be exercised"
    );
    assert!(
        failures.is_empty(),
        "geometry-grid exact-counter mismatches:\n{}",
        failures.join("\n")
    );
}
