//! Figure 6: application comparison (Scratch, ScratchG, Cache, Stash,
//! StashG), normalized to Scratch.
//!
//! ```text
//! cargo run --release -p bench --bin fig6            # both panels
//! cargo run --release -p bench --bin fig6 -- --panel energy --threads 4
//! ```
//!
//! Takes `--threads N`, `--verify`, `--panel P` and `--csv PATH`.

use bench::{figure_main, Figure, FigurePanel};
use gpu::config::MemConfigKind;
use workloads::suite::WorkloadSet;

fn main() {
    figure_main(&Figure {
        bin: "fig6",
        set: WorkloadSet::Apps,
        title: "Figure 6 — applications on 15 GPU CUs + 1 CPU core",
        panels: &[FigurePanel::Time, FigurePanel::Energy],
        headline: "§6.3 headline comparisons (StashG reduction vs …)",
        subject: MemConfigKind::StashG,
        versus: &[MemConfigKind::Scratch, MemConfigKind::Cache],
        paper: "10/12% cycles, 16/32% energy",
    });
}
