//! Exact structural counts: the simulator counters a lowered program
//! determines by itself.
//!
//! Several counters depend only on program structure, never on
//! scheduling or cache contents:
//!
//! * transaction counts fall out of running the real
//!   [`gpu::coalescer::Coalescer`] over each op's lane addresses;
//! * local-memory ops classify by slot binding — a stash op on a slot a
//!   map has bound is a load or store transaction, any other a raw access;
//! * map updates (`AddMap` on a slot's first binding, `ChgMap` after) and
//!   DMA words are totals over the stages;
//! * the instruction total replays the machine's accounting (warp
//!   instructions + one per map setup + one per warp per DMA transfer).
//!
//! [`ExactCounts`] must match the simulator *exactly*
//! ([`crate::analyze::check_counts`]); any divergence is a bug in the
//! analyzer or the machine. Hit and miss counts are deliberately absent:
//! they depend on cache contents, and the advisor reads them from the
//! simulation it runs on the same cells.

use gpu::coalescer::Coalescer;
use gpu::config::MemConfigKind;
use gpu::program::{CpuOp, Phase, Program, WarpOp};
use sim::config::SystemConfig;
use sim::stats::Counter;
use std::collections::HashSet;

/// The counters one lowered program determines for one memory
/// configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactCounts {
    /// The configuration these counts are for.
    pub kind: MemConfigKind,
    /// GPU instructions the machine will report.
    pub gpu_instructions: u64,
    /// Counters determined by program structure.
    pub counters: Vec<(Counter, u64)>,
}

impl ExactCounts {
    /// Looks up one counter's value.
    #[must_use]
    pub fn counter(&self, c: Counter) -> Option<u64> {
        self.counters.iter().find(|(k, _)| *k == c).map(|&(_, v)| v)
    }
}

/// Counts what `program`, lowered for `kind`, makes the machine
/// described by `sys` report (see module docs).
#[must_use]
pub fn exact_counts(program: &Program, sys: &SystemConfig, kind: MemConfigKind) -> ExactCounts {
    let line_bytes = sys.line_bytes as u64;
    let mut coalescer = Coalescer::default();
    let (mut gpu_load, mut gpu_store, mut cpu_load, mut cpu_store) = (0u64, 0u64, 0u64, 0u64);
    let (mut scratch, mut stash_load, mut stash_store, mut stash_raw) = (0u64, 0u64, 0u64, 0u64);
    let (mut add_maps, mut chg_maps, mut dma_words, mut extra_instr) = (0u64, 0u64, 0u64, 0u64);
    for phase in &program.phases {
        match phase {
            Phase::Gpu(kernel) => {
                for tb in &kernel.blocks {
                    let mut bound: HashSet<usize> = HashSet::new();
                    for stage in &tb.stages {
                        for m in &stage.maps {
                            if bound.insert(m.slot) {
                                add_maps += 1;
                            } else {
                                chg_maps += 1;
                            }
                            extra_instr += 1;
                        }
                        for d in &stage.dmas {
                            let per_transfer = stage.warps.len().max(1) as u64;
                            if d.load {
                                dma_words += d.tile.local_words();
                                extra_instr += per_transfer;
                            }
                            if d.store {
                                dma_words += d.tile.local_words();
                                extra_instr += per_transfer;
                            }
                        }
                        for op in stage.warps.iter().flatten() {
                            match op {
                                WarpOp::GlobalMem { write, lanes } if !lanes.is_empty() => {
                                    let n = coalescer.coalesce(lanes, line_bytes).len() as u64;
                                    if *write {
                                        gpu_store += n;
                                    } else {
                                        gpu_load += n;
                                    }
                                }
                                WarpOp::LocalMem { write, slot, .. } => {
                                    if kind.uses_stash() {
                                        if bound.contains(slot) {
                                            if *write {
                                                stash_store += 1;
                                            } else {
                                                stash_load += 1;
                                            }
                                        } else {
                                            stash_raw += 1;
                                        }
                                    } else if kind.uses_scratchpad() {
                                        scratch += 1;
                                    }
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
            Phase::Cpu(p) => {
                for op in p.per_core.iter().flatten() {
                    if let CpuOp::Mem { write, .. } = op {
                        if *write {
                            cpu_store += 1;
                        } else {
                            cpu_load += 1;
                        }
                    }
                }
            }
        }
    }
    let mut counters = vec![
        (Counter::GpuKernels, program.kernel_count() as u64),
        (Counter::GpuL1LoadTx, gpu_load),
        (Counter::GpuL1StoreTx, gpu_store),
        (Counter::CpuL1LoadTx, cpu_load),
        (Counter::CpuL1StoreTx, cpu_store),
    ];
    if kind.uses_scratchpad() {
        counters.push((Counter::ScratchAccess, scratch));
    }
    if kind.uses_stash() {
        counters.push((Counter::StashLoadTx, stash_load));
        counters.push((Counter::StashStoreTx, stash_store));
        counters.push((Counter::StashRawAccess, stash_raw));
        counters.push((Counter::StashAddMap, add_maps));
        counters.push((Counter::StashChgMap, chg_maps));
    }
    if kind.uses_dma() {
        counters.push((Counter::DmaWords, dma_words));
    }
    ExactCounts {
        kind,
        gpu_instructions: program.gpu_instruction_count() + extra_instr,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu::program::{AllocId, DmaReq, Kernel, LocalAlloc, MapReq, Stage, ThreadBlock};
    use mem::addr::VAddr;
    use mem::tile::TileMap;
    use stash::UsageMode;

    fn tile_32() -> TileMap {
        // 32 contiguous words starting at 0x1000.
        TileMap::new(VAddr(0x1000), 4, 4, 32, 0, 1).unwrap()
    }

    fn one_kernel(tb: ThreadBlock) -> Program {
        Program {
            phases: vec![Phase::Gpu(Kernel { blocks: vec![tb] })],
        }
    }

    #[test]
    fn exact_counters_for_global_stream() {
        // One warp op, 32 contiguous lanes: two 64 B transactions.
        let mut tb = ThreadBlock::new();
        let mut stage = Stage::new(1);
        stage.warps[0] = vec![WarpOp::GlobalMem {
            write: false,
            lanes: (0..32).map(|i| VAddr(0x2000 + i * 4)).collect(),
        }];
        tb.stages.push(stage);
        let p = one_kernel(tb);
        let sys = SystemConfig::default();
        let counts = exact_counts(&p, &sys, MemConfigKind::Cache);
        assert_eq!(counts.counter(Counter::GpuL1LoadTx), Some(2));
        assert_eq!(counts.counter(Counter::GpuL1StoreTx), Some(0));
        assert_eq!(counts.counter(Counter::GpuKernels), Some(1));
        assert_eq!(counts.gpu_instructions, 1);
    }

    #[test]
    fn stash_ops_classify_by_binding() {
        // A mapped tile read then written back by one warp.
        let mut tb = ThreadBlock::new();
        tb.allocs.push(LocalAlloc { words: 32 });
        let mut stage = Stage::new(1);
        stage.maps.push(MapReq {
            slot: 0,
            alloc: AllocId(0),
            tile: tile_32(),
            mode: UsageMode::MappedCoherent,
        });
        stage.warps[0] = vec![
            WarpOp::Compute(2),
            WarpOp::LocalMem {
                write: false,
                alloc: AllocId(0),
                slot: 0,
                lanes: (0..32).collect(),
            },
            WarpOp::LocalMem {
                write: true,
                alloc: AllocId(0),
                slot: 0,
                lanes: (0..32).collect(),
            },
        ];
        tb.stages.push(stage);
        let p = one_kernel(tb);
        let sys = SystemConfig::default();
        let counts = exact_counts(&p, &sys, MemConfigKind::Stash);
        assert_eq!(counts.counter(Counter::StashLoadTx), Some(1));
        assert_eq!(counts.counter(Counter::StashStoreTx), Some(1));
        assert_eq!(counts.counter(Counter::StashAddMap), Some(1));
        assert_eq!(counts.counter(Counter::StashChgMap), Some(0));
        // 2 compute + 2 local ops + 1 map instruction.
        assert_eq!(counts.gpu_instructions, 5);
    }

    #[test]
    fn dma_words_count_both_directions() {
        let mut tb = ThreadBlock::new();
        tb.allocs.push(LocalAlloc { words: 32 });
        let mut stage = Stage::new(2);
        stage.dmas.push(DmaReq {
            alloc: AllocId(0),
            tile: tile_32(),
            load: true,
            store: true,
        });
        stage.warps[0] = vec![WarpOp::Compute(1)];
        tb.stages.push(stage);
        let p = one_kernel(tb);
        let sys = SystemConfig::default();
        let counts = exact_counts(&p, &sys, MemConfigKind::ScratchGD);
        assert_eq!(counts.counter(Counter::DmaWords), Some(64));
        // 1 compute + 2 warps noted per transfer direction.
        assert_eq!(counts.gpu_instructions, 5);
    }
}
