//! Cross-validation of the static predictor across hardware geometries
//! the paper never simulated.
//!
//! `crossval.rs` proves the static predictor agrees with the simulator
//! at the paper's operating point. The placement advisor (`advise`)
//! predicts for any `SystemConfig`, so this test pins the same agreement
//! at every point of a mesh-side {2, 4, 8} × LLC-bank {8, 16, 32}
//! geometry grid — which is also what keeps `mean_l2_round_cycles` and
//! its 4/5 calibration honest away from the default mesh. Exact
//! counters and instruction totals must match exactly, modeled counters
//! within the documented tolerances, and the advisor's recommendation
//! must stay the measured-best configuration (or a documented tie) of
//! that cell's Figure 5/6 matrix row.
//!
//! The full suite × full grid would be 9× the crossval matrix, so the
//! workloads rotate round-robin over the nine cells: every workload is
//! checked at a non-default geometry, every cell checks at least one
//! workload, and the whole Figure 5/6 suite stays covered.

use gpu::config::MemConfigKind;
use gpu::machine::Machine;
use verify::dse::DesignPoint;
use verify::{analyze_workload, recommendation_ok, validate_prediction, Symbols};
use workloads::suite;

const MESH_SIDES: [usize; 3] = [2, 4, 8];
const L2_BANKS: [usize; 3] = [8, 16, 32];

#[test]
fn surrogate_cross_validates_across_the_geometry_grid() {
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
        let mut measured: Vec<(MemConfigKind, u64)> = Vec::new();
        for pred in &analysis.predictions {
            let mut machine = Machine::new(sys.clone(), pred.kind);
            let report = machine
                .run(&(w.build)(pred.kind))
                .unwrap_or_else(|e| panic!("{cell}/{} failed to simulate: {e}", pred.kind));
            measured.push((pred.kind, report.total_picos));
            for err in validate_prediction(pred, &report) {
                failures.push(format!("{cell}/{}: {err}", pred.kind));
            }
        }
        if !recommendation_ok(analysis.recommended, &measured) {
            let best = measured
                .iter()
                .min_by_key(|&&(_, t)| t)
                .map(|&(k, _)| k)
                .expect("non-empty matrix row");
            failures.push(format!(
                "{cell}: recommended {} but measured best is {best} \
                 (outside the tie threshold)",
                analysis.recommended
            ));
        }
    }

    assert_eq!(
        cells_hit.len(),
        cells.len(),
        "every grid cell must be exercised"
    );
    assert!(
        failures.is_empty(),
        "geometry-grid cross-validation failures:\n{}",
        failures.join("\n")
    );
}
