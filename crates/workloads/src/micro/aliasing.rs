//! **Aliasing**: the same global words mapped into many CUs' stashes.
//!
//! Every thread block maps one shared read-only coefficient table
//! coherently into its local memory while writing a private slice of
//! the output array. The program is perfectly **data-race-free** —
//! read-read sharing is never a race — yet it is deliberately
//! **uncertifiable** by `verify::dataflow`'s conflict pass on any
//! multi-CU machine: coherent stash *loads* register ownership, so the
//! shared table makes every pair of CUs claim the same words during the
//! staged-op merge. The certified merge fast path must refuse exactly this
//! shape (certificates require full access disjointness, not just
//! write disjointness), which is what this workload exists to pin down
//! in tests and in the worked EXPERIMENTS example.
//!
//! It is *not* part of the Figure 5/6 suites (it reproduces no paper
//! bar); reach it through `suite::extras()` or `suite::by_name`.

use crate::builder::{
    cpu_sweep, kernel_from_blocks, AosArray, Placement, TileTask, WorkloadBuilder,
};
use gpu::config::MemConfigKind;
use gpu::program::{Phase, Program};
use mem::addr::VAddr;

/// Registry name.
pub const NAME: &str = "aliasing";

/// Elements of the shared read-only coefficient table.
pub const TABLE_ELEMS: u64 = 512;
/// Elements of the private output array.
pub const OUT_ELEMS: u64 = 3840;
/// Thread blocks (several per CU on the 15-CU application machine).
pub const BLOCKS: u64 = 30;
/// Compute instructions per warp iteration.
pub const COMPUTE_PER_ITER: u32 = 4;

/// The shared coefficient table (read by every block).
pub fn table() -> AosArray {
    AosArray {
        base: VAddr(0x3000_0000),
        object_bytes: 16,
        elems: TABLE_ELEMS,
        field_offset: 0,
        field_bytes: 4,
    }
}

/// The output array (each block writes a private slice).
pub fn output() -> AosArray {
    AosArray {
        base: VAddr(0x4000_0000),
        object_bytes: 16,
        elems: OUT_ELEMS,
        field_offset: 0,
        field_bytes: 4,
    }
}

/// Builds the Aliasing program for one configuration.
pub fn program(kind: MemConfigKind) -> Program {
    let builder = WorkloadBuilder::new(kind);
    let table = table();
    let out = output();
    let per_block = OUT_ELEMS / BLOCKS.max(1);
    let blocks: Vec<Vec<TileTask>> = (0..BLOCKS)
        .map(|i| {
            vec![
                // Every block maps the whole table coherently, read-only:
                // the aliasing under test.
                TileTask {
                    writes: false,
                    ..TileTask::dense(
                        table.tile(0, TABLE_ELEMS),
                        Placement::Local,
                        COMPUTE_PER_ITER,
                    )
                },
                // Private output slice: write-disjoint across blocks.
                TileTask::dense(
                    out.tile(i * per_block, per_block),
                    Placement::Local,
                    COMPUTE_PER_ITER,
                ),
            ]
        })
        .collect();
    Program {
        phases: vec![
            Phase::Gpu(kernel_from_blocks(&builder, blocks)),
            Phase::Cpu(cpu_sweep(&out, 1, false)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_shares_the_table_but_owns_its_output() {
        let p = program(MemConfigKind::Stash);
        let Phase::Gpu(kernel) = &p.phases[0] else {
            panic!("first phase is the kernel")
        };
        assert_eq!(kernel.blocks.len() as u64, BLOCKS);
        // Each block maps two tiles: the shared table and its slice.
        assert_eq!(kernel.blocks[0].maps().count(), 2);
        let bases: Vec<u64> = kernel.blocks[0]
            .maps()
            .map(|m| m.tile.global_base().0)
            .collect();
        assert!(bases.contains(&0x3000_0000));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn output_splits_evenly() {
        assert_eq!(OUT_ELEMS % BLOCKS, 0);
        // Table + slice fit the 16 KB local store compactly.
        assert!((TABLE_ELEMS + OUT_ELEMS / BLOCKS) * 4 <= 16 * 1024);
    }
}
