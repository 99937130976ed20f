//! Footprint extraction: abstract interpretation of the workload IR
//! into per-thread-block read/write sets over the [`domain`] lattice.
//!
//! This is the one walk that turns IR ops into global words for the
//! race, stale-read and conflict checks. Slot bindings accumulate across
//! stages and only mapped modes bind; `LocalMem` lanes translate through
//! the bound tile (mapped stash data *is* global data); DMA transfers
//! cover their whole tiles. The result is abstracted into
//! [`AffineSet`]s, and the walk tracks the [`Taint`] lattice: a stage
//! whose lanes were computed from input *data* contributes its whole
//! hardware-checked region (mapped tile → [`Taint::Widened`]) or
//! poisons the block outright (raw global access → [`Taint::Top`]).
//!
//! Soundness obligations this module carries for the conflict pass:
//!
//! * every word a block can make its CU **claim** during the staged
//!   merge (cache-store registration, coherent stash registration, DMA
//!   store-through) lies in the block's `reads ∪ writes` — claims are a
//!   subset of accesses, and unmapped scratchpad traffic (which never
//!   reaches global addresses) is the only traffic excluded;
//! * for a [`Taint::Widened`] block the sets still cover every lane
//!   *any* input could produce, because the hardware bounds-checks
//!   mapped indices against the tile;
//! * for a [`Taint::Top`] block the sets cover nothing reliably — the
//!   consumer must treat the block as "could touch anything".
//!
//! [`domain`]: crate::dataflow::domain

use crate::dataflow::domain::{AffineSet, AffineSpan, Taint};
use gpu::program::{Kernel, Phase, Program, ThreadBlock, WarpOp};
use mem::addr::WORD_BYTES;
use mem::tile::TileMap;
use std::collections::HashMap;

/// The abstract memory behaviour of one thread block.
#[derive(Debug, Clone, Default)]
pub struct BlockFootprint {
    /// Global words the block may read (word granularity).
    pub reads: AffineSet,
    /// Global words the block may write.
    pub writes: AffineSet,
    /// How trustworthy the sets are (see [`Taint`]).
    pub taint: Taint,
}

impl BlockFootprint {
    /// The full access set, `reads ∪ writes` — what the conflict pass
    /// compares, since coherent stash *loads* register (claim words)
    /// just like stores.
    #[must_use]
    pub fn accesses(&self) -> AffineSet {
        let mut all = self.reads.clone();
        all.extend(&self.writes);
        all
    }
}

/// Footprints of every block of one kernel, in block order.
#[derive(Debug, Clone, Default)]
pub struct KernelFootprints {
    /// One entry per thread block.
    pub blocks: Vec<BlockFootprint>,
}

/// Deliberate weakenings of the extraction, driven by the conflict
/// pass's mutation hooks. All `false` is the sound analysis.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Weakening {
    /// Treat tainted stages as if their lanes were exact.
    pub ignore_taint: bool,
    /// Drop DMA tiles from the footprint.
    pub ignore_dma: bool,
    /// Drop `GlobalMem` lanes from the footprint.
    pub ignore_global: bool,
    /// Pretend every tile has a single row.
    pub shrink_tile_rows: bool,
}

/// Extracts the footprints of every GPU kernel of `program`, in kernel
/// order (CPU phases are skipped — they never contribute to a kernel's
/// staged merge).
#[must_use]
pub fn program_footprints(program: &Program) -> Vec<KernelFootprints> {
    program
        .phases
        .iter()
        .filter_map(|p| match p {
            Phase::Gpu(kernel) => Some(kernel_footprints(kernel, Weakening::default())),
            Phase::Cpu(_) => None,
        })
        .collect()
}

/// Extracts one block's footprint (sound, unweakened).
#[must_use]
pub fn block_footprint(block: &ThreadBlock) -> BlockFootprint {
    block_footprint_weakened(block, Weakening::default())
}

pub(crate) fn kernel_footprints(kernel: &Kernel, weaken: Weakening) -> KernelFootprints {
    KernelFootprints {
        blocks: kernel
            .blocks
            .iter()
            .map(|b| block_footprint_weakened(b, weaken))
            .collect(),
    }
}

pub(crate) fn block_footprint_weakened(block: &ThreadBlock, weaken: Weakening) -> BlockFootprint {
    let mut fp = BlockFootprint::default();
    // Raw word lists for lane-level accesses; compressed into spans at
    // the end so regular patterns stay symbolic.
    let mut read_words: Vec<u64> = Vec::new();
    let mut write_words: Vec<u64> = Vec::new();
    // Same binding rule as the linter: bindings accumulate as stages
    // progress, only mapped modes bind.
    let mut bindings: HashMap<usize, TileMap> = HashMap::new();
    for stage in &block.stages {
        let tainted = stage.tainted && !weaken.ignore_taint;
        for m in &stage.maps {
            if m.mode.is_mapped() {
                bindings.insert(m.slot, m.tile);
            }
        }
        for d in &stage.dmas {
            if weaken.ignore_dma {
                continue;
            }
            let set = tile_set(&d.tile, weaken.shrink_tile_rows);
            if d.load {
                fp.reads.extend(&set);
            }
            if d.store {
                fp.writes.extend(&set);
            }
        }
        for op in stage.warps.iter().flatten() {
            match op {
                WarpOp::Compute(_) => {}
                WarpOp::GlobalMem { write, lanes } => {
                    if weaken.ignore_global {
                        continue;
                    }
                    if tainted {
                        // Data-dependent raw global addresses: nothing
                        // bounds them, the block's footprint is ⊤.
                        fp.taint = Taint::Top;
                        continue;
                    }
                    let out = if *write {
                        &mut write_words
                    } else {
                        &mut read_words
                    };
                    out.extend(lanes.iter().map(|va| va.0 / WORD_BYTES));
                }
                WarpOp::LocalMem {
                    write, slot, lanes, ..
                } => {
                    // Unmapped slots are private scratchpad: no global
                    // address, no footprint, no claim.
                    let Some(tile) = bindings.get(slot) else {
                        continue;
                    };
                    if tainted {
                        // The lanes are one witness; the hardware bounds
                        // any input's lanes to the mapped tile, so the
                        // whole tile is a sound widening.
                        fp.taint = fp.taint.join(Taint::Widened);
                        let set = tile_set(tile, weaken.shrink_tile_rows);
                        if *write {
                            fp.writes.extend(&set);
                        } else {
                            fp.reads.extend(&set);
                        }
                        continue;
                    }
                    let limit = tile.local_words();
                    let out = if *write {
                        &mut write_words
                    } else {
                        &mut read_words
                    };
                    for &lane in lanes {
                        let lane = u64::from(lane);
                        // Out-of-range lanes are the OOB pass's problem;
                        // they trap in the machine and claim nothing.
                        if lane < limit {
                            out.push(tile.virt_of_local_offset(lane * WORD_BYTES).0 / WORD_BYTES);
                        }
                    }
                }
            }
        }
    }
    for (words, set) in [
        (&mut read_words, &mut fp.reads),
        (&mut write_words, &mut fp.writes),
    ] {
        words.sort_unstable();
        words.dedup();
        set.extend(&AffineSet::from_sorted_words(words));
    }
    fp
}

/// The word set a [`TileMap`] denotes: one affine span per row
/// (contiguous when the tile takes whole objects).
pub(crate) fn tile_set(tile: &TileMap, first_row_only: bool) -> AffineSet {
    let width = tile.words_per_field();
    let stride = tile.object_bytes() / WORD_BYTES;
    let rows = if first_row_only { 1 } else { tile.rows() };
    let mut set = AffineSet::new();
    for r in 0..rows {
        let base = (tile.global_base().0 + r * tile.row_stride_bytes()) / WORD_BYTES;
        if stride == width {
            set.push(AffineSpan::contiguous(base, tile.row_elems() * width));
        } else {
            set.push(AffineSpan::new(base, stride, tile.row_elems(), width));
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu::program::{AllocId, LocalAlloc, MapReq, Stage};
    use mem::addr::VAddr;
    use stash::UsageMode;

    fn mapped_block(tile: TileMap, write: bool, lanes: Vec<u32>, tainted: bool) -> ThreadBlock {
        let mut tb = ThreadBlock::new();
        tb.allocs.push(LocalAlloc {
            words: tile.local_words(),
        });
        let mut stage = Stage::new(1);
        stage.maps.push(MapReq {
            slot: 0,
            alloc: AllocId(0),
            tile,
            mode: UsageMode::MappedCoherent,
        });
        stage.warps[0] = vec![WarpOp::LocalMem {
            write,
            alloc: AllocId(0),
            slot: 0,
            lanes,
        }];
        stage.tainted = tainted;
        tb.stages.push(stage);
        tb
    }

    #[test]
    fn mapped_lanes_translate_through_the_bound_tile() {
        // 1 field word of a 2-word object, 4 elems/row, 2 rows.
        let tile = TileMap::new(VAddr(0x1000), 4, 8, 4, 0x100, 2).unwrap();
        let fp = block_footprint(&mapped_block(tile, true, vec![0, 1, 2, 3], false));
        assert_eq!(fp.taint, Taint::Exact);
        assert!(fp.reads.is_empty());
        // Lanes 0..4 are row 0: strided words 0x400, 0x402, 0x404, 0x406.
        let words = fp.writes.words_capped(1 << 10).unwrap();
        assert_eq!(
            words.into_iter().collect::<Vec<_>>(),
            vec![0x400, 0x402, 0x404, 0x406]
        );
    }

    #[test]
    fn tainted_mapped_stage_widens_to_the_whole_tile() {
        let tile = TileMap::new(VAddr(0x1000), 4, 8, 4, 0x100, 2).unwrap();
        // Only one concrete lane, but tainted: footprint is all 8 fields.
        let fp = block_footprint(&mapped_block(tile, false, vec![0], true));
        assert_eq!(fp.taint, Taint::Widened);
        assert_eq!(fp.reads.words_capped(1 << 10).unwrap().len(), 8);
    }

    #[test]
    fn tainted_global_stage_is_top() {
        let mut tb = ThreadBlock::new();
        let mut stage = Stage::new(1);
        stage.warps[0] = vec![WarpOp::GlobalMem {
            write: false,
            lanes: vec![VAddr(0x1000)],
        }];
        stage.tainted = true;
        tb.stages.push(stage);
        assert_eq!(block_footprint(&tb).taint, Taint::Top);
    }

    #[test]
    fn scratchpad_traffic_leaves_no_footprint() {
        let mut tb = ThreadBlock::new();
        tb.allocs.push(LocalAlloc { words: 64 });
        let mut stage = Stage::new(1);
        stage.warps[0] = vec![WarpOp::LocalMem {
            write: true,
            alloc: AllocId(0),
            slot: 0,
            lanes: (0..32).collect(),
        }];
        tb.stages.push(stage);
        let fp = block_footprint(&tb);
        assert!(fp.reads.is_empty() && fp.writes.is_empty());
    }

    #[test]
    fn dma_tiles_cover_load_and_store_sides() {
        let tile = TileMap::new(VAddr(0x8000), 4, 4, 8, 0, 1).unwrap();
        let mut tb = ThreadBlock::new();
        tb.allocs.push(LocalAlloc { words: 8 });
        let mut stage = Stage::new(1);
        stage.dmas.push(gpu::program::DmaReq {
            alloc: AllocId(0),
            tile,
            load: true,
            store: true,
        });
        tb.stages.push(stage);
        let fp = block_footprint(&tb);
        assert_eq!(fp.reads.words_capped(64).unwrap().len(), 8);
        assert_eq!(fp.writes.words_capped(64).unwrap().len(), 8);
    }

    #[test]
    fn footprint_covers_every_global_and_mapped_lane() {
        // Cross-check against the concrete semantics: global lanes plus
        // mapped lanes land in the abstract sets.
        let tile = TileMap::new(VAddr(0x4000), 4, 4, 16, 0, 1).unwrap();
        let mut tb = mapped_block(tile, true, (0..16).collect(), false);
        tb.stages[0].warps[0].push(WarpOp::GlobalMem {
            write: false,
            lanes: (0..8).map(|i| VAddr(0x9000 + i * 4)).collect(),
        });
        let fp = block_footprint(&tb);
        let writes = fp.writes.words_capped(1 << 12).unwrap();
        for lane in 0..16u64 {
            let va = tile.virt_of_local_offset(lane * WORD_BYTES);
            assert!(writes.contains(&(va.0 / WORD_BYTES)));
        }
        let reads = fp.reads.words_capped(1 << 12).unwrap();
        for i in 0..8u64 {
            assert!(reads.contains(&((0x9000 + i * 4) / 4)));
        }
    }
}
