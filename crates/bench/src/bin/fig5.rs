//! Figure 5: microbenchmark comparison (Scratch, Cache, ScratchGD,
//! Stash), normalized to Scratch.
//!
//! ```text
//! cargo run --release -p bench --bin fig5            # all four panels
//! cargo run --release -p bench --bin fig5 -- --panel time --threads 4
//! ```
//!
//! Takes `--threads N`, `--verify`, `--panel P` and `--csv PATH`.

use bench::{figure_main, Figure, FigurePanel};
use gpu::config::MemConfigKind;
use workloads::suite::WorkloadSet;

fn main() {
    figure_main(&Figure {
        bin: "fig5",
        set: WorkloadSet::Micro,
        title: "Figure 5 — microbenchmarks on 1 GPU CU + 15 CPU cores",
        panels: &FigurePanel::FIG5,
        headline: "§6.2 headline comparisons (stash reduction vs …)",
        subject: MemConfigKind::Stash,
        versus: &[
            MemConfigKind::Scratch,
            MemConfigKind::Cache,
            MemConfigKind::ScratchGD,
        ],
        paper: "27/13/14% cycles, 53/35/32% energy",
    });
}
