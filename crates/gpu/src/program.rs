//! The workload intermediate representation.
//!
//! A [`Program`] is what the memory system *sees* of an application: a
//! sequence of GPU kernels and CPU phases. Each kernel is a set of thread
//! blocks; each thread block declares its local-memory allocations and a
//! sequence of [`Stage`]s — barrier-separated phases (the region between
//! `__syncthreads` calls in real kernels). A stage carries its mapping
//! setup (`AddMap` on a slot's first binding, `ChgMap` on rebinding — how
//! k-stepped kernels like SGEMM stay within the 4-entry map index table),
//! its DMA transfers, and per-warp streams of operations.
//!
//! The `workloads` crate lowers each benchmark to a per-configuration
//! `Program`: the Scratch variants carry explicit copy loops, the DMA
//! variant carries [`DmaReq`]s, and the stash variants carry [`MapReq`]s —
//! exactly the code differences of Figure 1.

use mem::addr::VAddr;
use mem::tile::TileMap;
use stash::UsageMode;

/// Identifies one of a thread block's local-memory allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AllocId(pub usize);

/// A local-memory allocation request (scratchpad or stash space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocalAlloc {
    /// Size in 4-byte words.
    pub words: u64,
}

/// A mapping request: bind `tile` to map-index-table slot `slot`, backed
/// by allocation `alloc`. The first binding of a slot is an `AddMap`;
/// rebinding an already-bound slot is a `ChgMap`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MapReq {
    /// The map-index-table slot being bound.
    pub slot: usize,
    /// Which allocation receives the mapping.
    pub alloc: AllocId,
    /// The global tile being mapped.
    pub tile: TileMap,
    /// Coherent or non-coherent mapping.
    pub mode: UsageMode,
}

/// A DMA transfer request for the `ScratchGD` configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DmaReq {
    /// Which allocation the transfer fills / drains.
    pub alloc: AllocId,
    /// The global tile moved.
    pub tile: TileMap,
    /// Preload global → scratchpad before the stage body.
    pub load: bool,
    /// Write back scratchpad → global after the stage body.
    pub store: bool,
}

/// One warp-level operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WarpOp {
    /// `n` non-memory instructions (ALU, control, address arithmetic).
    Compute(u32),
    /// A global memory instruction; one virtual address per active lane.
    GlobalMem {
        /// Store (true) or load.
        write: bool,
        /// Per-lane addresses (≤ 32; inactive lanes omitted).
        lanes: Vec<VAddr>,
    },
    /// A local-memory instruction (scratchpad or stash, per the machine's
    /// configuration); one *word offset into the allocation* per lane.
    LocalMem {
        /// Store (true) or load.
        write: bool,
        /// The allocation accessed.
        alloc: AllocId,
        /// Map-index-table slot (stash configurations).
        slot: usize,
        /// Per-lane word offsets within the allocation.
        lanes: Vec<u32>,
    },
}

impl WarpOp {
    /// Number of warp instructions this op represents.
    pub fn instruction_count(&self) -> u64 {
        match self {
            WarpOp::Compute(n) => u64::from(*n),
            _ => 1,
        }
    }
}

/// A barrier-separated phase of a thread block.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Stage {
    /// Slot bindings performed before the stage body (AddMap/ChgMap).
    pub maps: Vec<MapReq>,
    /// DMA transfers: loads run before the body (blocking the core),
    /// stores after it.
    pub dmas: Vec<DmaReq>,
    /// Per-warp operation streams; all warps finish before the next
    /// stage starts (the `__syncthreads` barrier).
    pub warps: Vec<Vec<WarpOp>>,
    /// The stage's addresses were computed from input *data* (e.g. an
    /// on-demand index list), not just thread/block ids. The lowered
    /// lanes are one concrete witness; a different input could produce
    /// different ones, so static analyses must treat the stage's index
    /// expressions as unknown (`verify::dataflow` sends them to ⊤) even
    /// though the simulator executes the concrete lanes recorded here.
    pub tainted: bool,
}

impl Stage {
    /// Creates an empty stage with `warps` empty streams.
    pub fn new(warps: usize) -> Self {
        Self {
            maps: Vec::new(),
            dmas: Vec::new(),
            warps: vec![Vec::new(); warps],
            tainted: false,
        }
    }

    /// Total warp instructions in the stage.
    pub fn instruction_count(&self) -> u64 {
        self.warps
            .iter()
            .flatten()
            .map(WarpOp::instruction_count)
            .sum()
    }
}

/// One thread block: allocations plus its staged execution.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ThreadBlock {
    /// Local allocations (index = [`AllocId`]).
    pub allocs: Vec<LocalAlloc>,
    /// Barrier-separated stages, in order.
    pub stages: Vec<Stage>,
}

impl ThreadBlock {
    /// Creates an empty thread block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total warp instructions in the block (setup ops excluded).
    pub fn instruction_count(&self) -> u64 {
        self.stages.iter().map(Stage::instruction_count).sum()
    }

    /// Total local words the block allocates.
    pub fn local_words(&self) -> u64 {
        self.allocs.iter().map(|a| a.words).sum()
    }

    /// All mapping requests across stages (diagnostics).
    pub fn maps(&self) -> impl Iterator<Item = &MapReq> {
        self.stages.iter().flat_map(|s| s.maps.iter())
    }
}

/// One GPU kernel: the unit of CPU→GPU invocation, and of scratchpad
/// flushing / stash self-invalidation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Kernel {
    /// Thread blocks, distributed round-robin over the CUs.
    pub blocks: Vec<ThreadBlock>,
}

/// One CPU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuOp {
    /// `n` non-memory instructions.
    Compute(u32),
    /// A single-word memory access.
    Mem {
        /// Store (true) or load.
        write: bool,
        /// The accessed virtual address.
        vaddr: VAddr,
    },
    /// A CPU-side stash access (the paper's §8 extension: "expand the
    /// stash idea to other compute units (e.g., CPUs)"). Requires the
    /// phase to declare a mapping in [`CpuPhase::stash_maps`] and a
    /// machine whose configuration sets `cpu_stashes`.
    StashMem {
        /// Store (true) or load.
        write: bool,
        /// Which of this core's phase mappings is accessed.
        slot: usize,
        /// Word offset within the mapping.
        word: u32,
    },
}

/// A CPU phase: each core runs its op stream; cores run in parallel.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct CpuPhase {
    /// One op stream per participating CPU core.
    pub per_core: Vec<Vec<CpuOp>>,
    /// Per-core stash mappings established at phase start (CPU-side
    /// stash extension); empty when CPUs use only their caches.
    pub stash_maps: Vec<Vec<TileMap>>,
}

/// One phase of an application.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Phase {
    /// A GPU kernel launch (runs to completion).
    Gpu(Kernel),
    /// A CPU phase (after the preceding kernels complete).
    Cpu(CpuPhase),
}

/// A whole application, as the memory system sees it.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Program {
    /// Phases in program order.
    pub phases: Vec<Phase>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total GPU warp instructions across all kernels.
    pub fn gpu_instruction_count(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| match p {
                Phase::Gpu(k) => k.blocks.iter().map(ThreadBlock::instruction_count).sum(),
                Phase::Cpu(_) => 0,
            })
            .sum()
    }

    /// Number of GPU kernels.
    pub fn kernel_count(&self) -> usize {
        self.phases
            .iter()
            .filter(|p| matches!(p, Phase::Gpu(_)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> ThreadBlock {
        let mut tb = ThreadBlock::new();
        tb.allocs.push(LocalAlloc { words: 64 });
        let mut stage = Stage::new(2);
        stage.warps[0] = vec![
            WarpOp::Compute(3),
            WarpOp::LocalMem {
                write: false,
                alloc: AllocId(0),
                slot: 0,
                lanes: (0..32).collect(),
            },
        ];
        stage.warps[1] = vec![WarpOp::GlobalMem {
            write: true,
            lanes: vec![VAddr(0x100)],
        }];
        tb.stages.push(stage);
        tb
    }

    #[test]
    fn instruction_counting() {
        let tb = block();
        // 3 compute + 1 local + 1 global.
        assert_eq!(tb.instruction_count(), 5);
        assert_eq!(tb.local_words(), 64);
    }

    #[test]
    fn program_aggregates() {
        let p = Program {
            phases: vec![
                Phase::Gpu(Kernel {
                    blocks: vec![block(), block()],
                }),
                Phase::Cpu(CpuPhase {
                    per_core: vec![vec![CpuOp::Compute(1)]],
                    stash_maps: Vec::new(),
                }),
                Phase::Gpu(Kernel {
                    blocks: vec![block()],
                }),
            ],
        };
        assert_eq!(p.gpu_instruction_count(), 15);
        assert_eq!(p.kernel_count(), 2);
    }

    #[test]
    fn stage_new_sizes_warp_streams() {
        let s = Stage::new(8);
        assert_eq!(s.warps.len(), 8);
        assert_eq!(s.instruction_count(), 0);
    }
}
