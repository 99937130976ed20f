//! CPU timing model.
//!
//! CPU cores are simple in-order machines with one outstanding memory
//! access: each op costs one issue cycle plus its memory latency. Cores of
//! a phase run in parallel, so the phase's duration is the slowest core's.
//! The paper parallelizes microbenchmark CPU code across 15 cores "to
//! prevent the CPU accesses from dominating execution time" — the same
//! structure the `workloads` crate emits.
//!
//! On a machine whose configuration sets `cpu_stashes` (the paper's §8
//! extension to "other compute units"), a phase may declare per-core
//! stash mappings ([`CpuPhase::stash_maps`]); its [`CpuOp::StashMem`] ops
//! then enjoy the same implicit, compact, word-granular transfers CUs
//! get.

use crate::memsys::MemorySystem;
use crate::program::{CpuOp, CpuPhase};
use sim::SimError;
use stash::MapIndex;

/// Thread-block id of a CPU phase's stash mappings. A CPU core's stash
/// serves only that core, one phase at a time, so every phase maps
/// through the first slot of its stash's thread-block table (GPU thread
/// blocks never touch a CPU core's stash).
const CPU_PHASE_TB: usize = 0;

/// Runs a CPU phase; returns its duration in CPU cycles.
///
/// # Errors
///
/// Returns an error if the phase declares stash mappings on a machine
/// without CPU stashes (`cpu_stashes` unset, or a kind without stashes),
/// or a `StashMem` op references an undeclared slot.
///
/// # Panics
///
/// Panics if the phase uses more cores than the machine has.
pub fn run_cpu_phase(mem: &mut MemorySystem, phase: &CpuPhase) -> Result<u64, SimError> {
    assert!(
        phase.per_core.len() <= mem.config().cpu_cores,
        "phase uses {} cores, machine has {}",
        phase.per_core.len(),
        mem.config().cpu_cores
    );
    let cpu_stashes = mem.config().cpu_stashes && mem.kind().uses_stash();
    if !phase.stash_maps.is_empty() && !cpu_stashes {
        return Err(SimError::InvalidMapping(
            "CPU stash mappings need a stash configuration with cpu_stashes set".into(),
        ));
    }

    // Establish this phase's per-core mappings (bump-allocated from the
    // base of each core's stash).
    let gpu_cus = mem.config().gpu_cus;
    let chunk_words = mem.config().stash_chunk_bytes / 4;
    let mut core_maps: Vec<Vec<(MapIndex, usize)>> = Vec::new();
    for (c, tiles) in phase.stash_maps.iter().enumerate() {
        let core_id = gpu_cus + c;
        let mut maps = Vec::with_capacity(tiles.len());
        let mut next_word = 0usize;
        for tile in tiles {
            let out = mem.stash_add_map(
                core_id,
                CPU_PHASE_TB,
                *tile,
                next_word,
                stash::UsageMode::MappedCoherent,
            )?;
            next_word += (tile.local_words() as usize).next_multiple_of(chunk_words);
            maps.push((out.index, 0));
        }
        core_maps.push(maps);
    }

    let mut slowest = 0u64;
    for (core, ops) in phase.per_core.iter().enumerate() {
        let mut t = 0u64;
        for op in ops {
            match op {
                CpuOp::Compute(n) => t += u64::from(*n),
                CpuOp::Mem { write, vaddr } => {
                    t += 1 + mem.cpu_access(core, *write, *vaddr)?;
                }
                CpuOp::StashMem { write, slot, word } => {
                    let (map, _) =
                        *core_maps
                            .get(core)
                            .and_then(|m| m.get(*slot))
                            .ok_or_else(|| {
                                SimError::InvalidMapping(format!(
                                    "CPU core {core} has no stash mapping slot {slot}"
                                ))
                            })?;
                    let cost = mem.stash_tx(gpu_cus + core, *write, 0, &[*word], map)?;
                    t += 1 + cost.latency + cost.occupancy;
                }
            }
        }
        slowest = slowest.max(t);
    }

    // Phase teardown: seal dirty chunks for lazy writeback, exactly like
    // a GPU thread block completing.
    for (c, _) in phase.stash_maps.iter().enumerate() {
        let core_id = gpu_cus + c;
        mem.end_thread_block(core_id, CPU_PHASE_TB);
    }
    Ok(slowest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemConfigKind;
    use mem::addr::VAddr;
    use mem::tile::TileMap;
    use sim::config::SystemConfig;

    fn memsys() -> MemorySystem {
        MemorySystem::new(SystemConfig::for_microbenchmarks(), MemConfigKind::Cache)
    }

    #[test]
    fn parallel_cores_take_max_not_sum() {
        let mut m = memsys();
        let ops = vec![CpuOp::Compute(100)];
        let serial = run_cpu_phase(
            &mut m,
            &CpuPhase {
                per_core: vec![ops.clone()],
                stash_maps: Vec::new(),
            },
        )
        .unwrap();
        let parallel = run_cpu_phase(
            &mut m,
            &CpuPhase {
                per_core: vec![ops.clone(); 15],
                stash_maps: Vec::new(),
            },
        )
        .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn memory_ops_add_latency() {
        let mut m = memsys();
        let t = run_cpu_phase(
            &mut m,
            &CpuPhase {
                per_core: vec![vec![CpuOp::Mem {
                    write: false,
                    vaddr: VAddr(0x4000),
                }]],
                stash_maps: Vec::new(),
            },
        )
        .unwrap();
        assert!(t > 1, "a cold miss must cost more than the issue cycle");
    }

    /// The microbenchmark machine with CPU stashes switched on.
    fn with_cpu_stashes(kind: MemConfigKind) -> MemorySystem {
        let cfg = SystemConfig {
            cpu_stashes: true,
            ..SystemConfig::for_microbenchmarks()
        };
        MemorySystem::new(cfg, kind)
    }

    #[test]
    fn cpu_stash_requires_the_switch() {
        let tile = TileMap::new(VAddr(0x8000), 4, 16, 16, 0, 1).unwrap();
        let phase = CpuPhase {
            per_core: vec![vec![CpuOp::StashMem {
                write: false,
                slot: 0,
                word: 0,
            }]],
            stash_maps: vec![vec![tile]],
        };
        let mut off = MemorySystem::new(SystemConfig::for_microbenchmarks(), MemConfigKind::Stash);
        assert!(run_cpu_phase(&mut off, &phase).is_err());
        // The switch does nothing on a kind without stashes.
        assert!(run_cpu_phase(&mut with_cpu_stashes(MemConfigKind::Cache), &phase).is_err());
        let mut m = with_cpu_stashes(MemConfigKind::Stash);
        let t = run_cpu_phase(&mut m, &phase).unwrap();
        assert!(t > 1, "the first access misses and fetches");
        // A second identical phase: the mapping replicates and the data
        // is still resident (Shared words survive — no kernel-end
        // self-invalidation on CPU cores in this extension).
        let t2 = run_cpu_phase(&mut m, &phase).unwrap();
        assert!(t2 <= t);
    }

    #[test]
    fn undeclared_slot_errors() {
        let mut m = with_cpu_stashes(MemConfigKind::Stash);
        let phase = CpuPhase {
            per_core: vec![vec![CpuOp::StashMem {
                write: false,
                slot: 3,
                word: 0,
            }]],
            stash_maps: vec![vec![]],
        };
        assert!(run_cpu_phase(&mut m, &phase).is_err());
    }

    #[test]
    #[should_panic(expected = "cores")]
    fn too_many_cores_panics() {
        let mut m = memsys();
        let _ = run_cpu_phase(
            &mut m,
            &CpuPhase {
                per_core: vec![Vec::new(); 16],
                stash_maps: Vec::new(),
            },
        );
    }
}
