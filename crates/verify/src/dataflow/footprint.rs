//! Footprint extraction: abstract interpretation of the workload IR
//! into per-thread-block read/write sets over the [`domain`] lattice.
//!
//! This is the one walk that turns program ops into global words, for
//! every static pass: the race, stale-read and conflict checks read its
//! footprints, the bounds pass its slot bindings, and the advisor's
//! reuse stream its touches in program order. Slot bindings accumulate
//! across stages and only mapped modes bind; `LocalMem` lanes translate
//! through the bound tile (mapped stash data *is* global data); DMA
//! transfers cover their whole tiles; CPU `StashMem` words translate
//! through their core's stash maps. The result is abstracted into
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
use gpu::program::{CpuOp, CpuPhase, DmaReq, Kernel, Stage, ThreadBlock, WarpOp};
use mem::addr::{VAddr, WORD_BYTES};
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

    /// Adds concrete `[reads, writes]` word lists, each sorted,
    /// deduplicated and compressed into spans once.
    fn add_words(&mut self, [reads, writes]: [Vec<u64>; 2]) {
        for (mut words, set) in [(reads, &mut self.reads), (writes, &mut self.writes)] {
            words.sort_unstable();
            words.dedup();
            set.extend(&AffineSet::from_sorted_words(&words));
        }
    }
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

/// One global touch of a thread block, as [`visit_block`] passes it.
#[derive(Debug)]
pub(crate) enum Touch<'a> {
    /// A DMA transfer: its whole tile is read (`load`) and/or written
    /// (`store`).
    Dma(&'a DmaReq),
    /// Raw global lanes, one byte address each.
    Global { write: bool, lanes: &'a [VAddr] },
    /// Local lanes of a slot bound to `tile`; [`lane_words`] translates
    /// them.
    Mapped {
        write: bool,
        tile: &'a TileMap,
        lanes: &'a [u32],
    },
}

/// The tiles a thread block's slots are bound to, as its stages run.
#[derive(Debug, Default)]
pub(crate) struct SlotBindings<'a>(HashMap<usize, &'a TileMap>);

impl<'a> SlotBindings<'a> {
    /// Applies `stage`'s maps. Only the mapped usage modes give a slot a
    /// global address, and a binding lasts until its slot is rebound.
    pub(crate) fn enter(&mut self, stage: &'a Stage) {
        for m in &stage.maps {
            if m.mode.is_mapped() {
                self.0.insert(m.slot, &m.tile);
            }
        }
    }

    /// The tile `slot` is bound to; `None` for private scratchpad.
    pub(crate) fn tile(&self, slot: usize) -> Option<&'a TileMap> {
        self.0.get(&slot).copied()
    }
}

/// Passes every global touch of `block` to `visit` in program order,
/// with its stage's taint: per stage, its maps bind first, then come its
/// DMA tiles, then its warps' raw global lanes and the lanes of bound
/// slots. Unbound `LocalMem` traffic never reaches a global address.
pub(crate) fn visit_block<'a>(block: &'a ThreadBlock, mut visit: impl FnMut(Touch<'a>, bool)) {
    let mut bindings = SlotBindings::default();
    for stage in &block.stages {
        bindings.enter(stage);
        for dma in &stage.dmas {
            visit(Touch::Dma(dma), stage.tainted);
        }
        for op in stage.warps.iter().flatten() {
            let touch = match op {
                WarpOp::Compute(_) => continue,
                WarpOp::GlobalMem { write, lanes } => Touch::Global {
                    write: *write,
                    lanes,
                },
                WarpOp::LocalMem {
                    write, slot, lanes, ..
                } => match bindings.tile(*slot) {
                    Some(tile) => Touch::Mapped {
                        write: *write,
                        tile,
                        lanes,
                    },
                    None => continue,
                },
            };
            visit(touch, stage.tainted);
        }
    }
}

/// The global words behind local words `lanes` of `tile` (the §4.2
/// translation). A lane past the tile is dropped: it traps in the
/// machine and claims nothing, and the bounds pass reports it.
pub(crate) fn lane_words<'t>(
    tile: &'t TileMap,
    lanes: impl IntoIterator<Item = u32> + 't,
) -> impl Iterator<Item = u64> + 't {
    let limit = tile.local_words();
    lanes
        .into_iter()
        .map(u64::from)
        .filter(move |&lane| lane < limit)
        .map(|lane| tile.virt_of_local_offset(lane * WORD_BYTES).0 / WORD_BYTES)
}

/// The stash map `slot` of CPU `core` names, if the phase declares it.
pub(crate) fn cpu_slot(cpu: &CpuPhase, core: usize, slot: usize) -> Option<&TileMap> {
    cpu.stash_maps.get(core)?.get(slot)
}

/// The `(write, word)` accesses of CPU `core`, in program order: `Mem`
/// ops at their address, `StashMem` ops through the core's stash maps.
/// An unmapped slot or a word past its tile is dropped, like a lane past
/// its tile.
pub(crate) fn cpu_accesses(cpu: &CpuPhase, core: usize) -> impl Iterator<Item = (bool, u64)> + '_ {
    cpu.per_core[core].iter().filter_map(move |op| match op {
        CpuOp::Compute(_) => None,
        CpuOp::Mem { write, vaddr } => Some((*write, vaddr.0 / WORD_BYTES)),
        CpuOp::StashMem { write, slot, word } => Some((
            *write,
            lane_words(cpu_slot(cpu, core, *slot)?, [*word]).next()?,
        )),
    })
}

/// Extracts one block's footprint (sound, unweakened).
#[must_use]
pub fn block_footprint(block: &ThreadBlock) -> BlockFootprint {
    block_footprint_weakened(block, Weakening::default())
}

/// The footprints of `kernel`'s blocks, in block order.
pub(crate) fn kernel_footprints(kernel: &Kernel, weaken: Weakening) -> Vec<BlockFootprint> {
    kernel
        .blocks
        .iter()
        .map(|b| block_footprint_weakened(b, weaken))
        .collect()
}

fn block_footprint_weakened(block: &ThreadBlock, weaken: Weakening) -> BlockFootprint {
    let mut fp = BlockFootprint::default();
    // Concrete `[reads, writes]`, compressed into spans at the end so
    // regular patterns stay symbolic.
    let mut words: [Vec<u64>; 2] = Default::default();
    visit_block(block, |touch, tainted| {
        let tainted = tainted && !weaken.ignore_taint;
        match touch {
            Touch::Dma(_) if weaken.ignore_dma => {}
            Touch::Dma(dma) => {
                let set = tile_set(&dma.tile, weaken.shrink_tile_rows);
                if dma.load {
                    fp.reads.extend(&set);
                }
                if dma.store {
                    fp.writes.extend(&set);
                }
            }
            Touch::Global { .. } if weaken.ignore_global => {}
            // Data-dependent raw global addresses: nothing bounds them,
            // the block's footprint is ⊤.
            Touch::Global { .. } if tainted => fp.taint = Taint::Top,
            Touch::Global { write, lanes } => {
                words[usize::from(write)].extend(lanes.iter().map(|va| va.0 / WORD_BYTES));
            }
            // The lanes are one witness; the hardware bounds any input's
            // lanes to the mapped tile, so the whole tile is a sound
            // widening.
            Touch::Mapped { write, tile, .. } if tainted => {
                fp.taint = fp.taint.join(Taint::Widened);
                let side = if write { &mut fp.writes } else { &mut fp.reads };
                side.extend(&tile_set(tile, weaken.shrink_tile_rows));
            }
            Touch::Mapped { write, tile, lanes } => {
                words[usize::from(write)].extend(lane_words(tile, lanes.iter().copied()));
            }
        }
    });
    fp.add_words(words);
    fp
}

/// Extracts CPU `core`'s footprint (always exact: CPU addresses and
/// stash words are literal in the IR).
pub(crate) fn core_footprint(cpu: &CpuPhase, core: usize) -> BlockFootprint {
    let mut words: [Vec<u64>; 2] = Default::default();
    for (write, word) in cpu_accesses(cpu, core) {
        words[usize::from(write)].push(word);
    }
    let mut fp = BlockFootprint::default();
    fp.add_words(words);
    fp
}

/// The word set a [`TileMap`] denotes: one affine span per row
/// (contiguous when the tile takes whole objects), its words in the
/// tile's local order — the order the DMA engine moves them.
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
    use crate::analyze::reuse::word_events;
    use gpu::config::MemConfigKind;
    use gpu::program::{AllocId, LocalAlloc, MapReq, Phase};
    use mem::dma::{DmaDirection, DmaTransfer};
    use sim::rng::SplitMix64;
    use stash::UsageMode;
    use std::collections::BTreeSet;
    use workloads::suite;

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

    #[test]
    fn tile_words_are_the_words_the_dma_engine_moves() {
        let mut rng = SplitMix64::new(27);
        for _ in 0..500 {
            let field = 1 + rng.next_below(3);
            let object = field + rng.next_below(3);
            let row_elems = 1 + rng.next_below(6);
            let rows = 1 + rng.next_below(4);
            let stride = if rows == 1 && rng.chance(1, 2) {
                0
            } else {
                row_elems * object + rng.next_below(8)
            };
            let base = VAddr((0x400 + rng.next_below(64)) * WORD_BYTES);
            let tile = TileMap::new(
                base,
                field * WORD_BYTES,
                object * WORD_BYTES,
                row_elems,
                stride * WORD_BYTES,
                rows,
            )
            .unwrap();
            let words: Vec<u64> = tile_set(&tile, false)
                .spans()
                .iter()
                .flat_map(AffineSpan::words)
                .collect();
            let moved: Vec<u64> = DmaTransfer::new(tile, DmaDirection::GlobalToScratch)
                .word_vaddrs()
                .map(|va| va.0 / WORD_BYTES)
                .collect();
            assert_eq!(words, moved, "{tile:?}");
        }
    }

    /// Each task's words in the reuse stream, split by write, equal its
    /// footprint's sets when they are exact and lie inside them when
    /// they are widened, on every configuration of the programs that map
    /// tiles, run DMA and sweep on CPUs.
    #[test]
    fn reuse_stream_and_footprints_agree_on_shipped_programs() {
        let trace =
            workloads::trace::parse_trace(include_str!("../../../../examples/histogram.trace"))
                .expect("the example trace parses");
        let mut programs = Vec::new();
        for kind in MemConfigKind::ALL {
            for w in suite::micros().into_iter().chain(suite::extras()) {
                programs.push((format!("{} on {kind}", w.name), (w.build)(kind)));
            }
            programs.push((format!("histogram on {kind}"), trace.build(kind)));
        }
        let mut checked = [0usize; 3];
        for (name, program) in &programs {
            let mut stream: HashMap<(u32, u32), [BTreeSet<u64>; 2]> = HashMap::new();
            for e in word_events(program) {
                stream.entry((e.phase, e.task)).or_default()[usize::from(e.write)].insert(e.word);
            }
            for (phase, p) in (0u32..).zip(&program.phases) {
                let fps: Vec<BlockFootprint> = match p {
                    Phase::Gpu(kernel) => kernel.blocks.iter().map(block_footprint).collect(),
                    Phase::Cpu(cpu) => (0..cpu.per_core.len())
                        .map(|core| core_footprint(cpu, core))
                        .collect(),
                };
                for (task, fp) in (0u32..).zip(&fps) {
                    let walked = stream.remove(&(phase, task)).unwrap_or_default();
                    let sets =
                        [&fp.reads, &fp.writes].map(|set| set.words_capped(u64::MAX).unwrap());
                    let here = format!("{name}, phase {phase} task {task}");
                    match fp.taint {
                        Taint::Exact => assert_eq!(walked, sets, "{here}"),
                        Taint::Widened => assert!(
                            walked.iter().zip(&sets).all(|(w, s)| w.is_subset(s)),
                            "{here}"
                        ),
                        Taint::Top => {}
                    }
                    checked[fp.taint as usize] += 1;
                }
            }
            assert!(stream.is_empty(), "{name}: events of no task");
        }
        assert!(checked.iter().all(|&n| n > 0), "{checked:?}");
    }
}
