//! Word-granular reuse analysis: reuse scopes.
//!
//! [`classify_events`] classifies each repeated access by *scope*:
//! within one task (thread block / CPU core), across tasks of one
//! phase, or across phase boundaries. Cross-phase reuse is the paper's
//! motivating case for the stash: registered words survive a kernel's
//! end-of-kernel self-invalidation, so cross-kernel reuse hits in the
//! stash but misses in a cache or is re-copied by a scratchpad (§3,
//! "reuse").

use gpu::program::{CpuOp, Phase, Program, WarpOp};
use mem::addr::WORD_BYTES;
use mem::tile::TileMap;
use std::collections::HashMap;

/// One global-memory word access, in program order.
///
/// `phase` is the program phase index; `task` is the thread-block index
/// within a GPU kernel or the core index within a CPU phase. `LocalMem`
/// lanes are translated through their stage's active tile bindings
/// (mapped stash/scratch data *is* global data); unmapped temporaries
/// carry no global identity and are skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordEvent {
    /// Global word number (byte address / 4).
    pub word: u64,
    /// Phase index in the program.
    pub phase: u32,
    /// Task (thread block or CPU core) within the phase.
    pub task: u32,
    /// Whether the access writes.
    pub write: bool,
}

/// Reuse totals of one access stream, by scope.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseSummary {
    /// Total accesses.
    pub accesses: u64,
    /// Distinct words touched.
    pub distinct_words: u64,
    /// Repeated accesses whose previous access was the same task of the
    /// same phase.
    pub intra_task: u64,
    /// Repeated accesses whose previous access was a different task of
    /// the same phase.
    pub cross_task: u64,
    /// Repeated accesses whose previous access was an earlier phase
    /// (kernel or CPU phase) — the stash-retention case.
    pub cross_phase: u64,
}

impl ReuseSummary {
    /// Total repeated accesses (all scopes).
    #[must_use]
    pub fn reuses(&self) -> u64 {
        self.intra_task + self.cross_task + self.cross_phase
    }
}

/// Classifies every repeated access in `events` by reuse scope.
#[must_use]
pub fn classify_events(events: &[WordEvent]) -> ReuseSummary {
    let mut summary = ReuseSummary::default();
    let mut last: HashMap<u64, (u32, u32)> = HashMap::new();
    for e in events {
        summary.accesses += 1;
        match last.insert(e.word, (e.phase, e.task)) {
            None => summary.distinct_words += 1,
            Some((phase, task)) => {
                if phase != e.phase {
                    summary.cross_phase += 1;
                } else if task != e.task {
                    summary.cross_task += 1;
                } else {
                    summary.intra_task += 1;
                }
            }
        }
    }
    summary
}

/// Extracts the program-order stream of global-word accesses.
///
/// GPU blocks are walked in kernel order (stage by stage, warp by warp);
/// within a phase the cross-task order is schedule-dependent in the real
/// machine, but scope classification only compares phase/task identity,
/// so any program-order linearization yields the same summary for
/// data-race-free inputs.
#[must_use]
pub fn word_events(program: &Program) -> Vec<WordEvent> {
    let mut out = Vec::new();
    for (pi, phase) in program.phases.iter().enumerate() {
        let pi = u32::try_from(pi).unwrap_or(u32::MAX);
        match phase {
            Phase::Gpu(kernel) => {
                for (b, block) in kernel.blocks.iter().enumerate() {
                    let task = u32::try_from(b).unwrap_or(u32::MAX);
                    let mut bindings: HashMap<usize, TileMap> = HashMap::new();
                    for stage in &block.stages {
                        for m in &stage.maps {
                            if m.mode.is_mapped() {
                                bindings.insert(m.slot, m.tile);
                            }
                        }
                        for d in &stage.dmas {
                            push_tile_events(&mut out, &d.tile, pi, task, d.load, d.store);
                        }
                        for op in stage.warps.iter().flatten() {
                            push_warp_event(&mut out, op, &bindings, pi, task);
                        }
                    }
                }
            }
            Phase::Cpu(cpu) => {
                for (c, ops) in cpu.per_core.iter().enumerate() {
                    let task = u32::try_from(c).unwrap_or(u32::MAX);
                    let maps = cpu.stash_maps.get(c);
                    for op in ops {
                        match op {
                            CpuOp::Compute(_) => {}
                            CpuOp::Mem { write, vaddr } => out.push(WordEvent {
                                word: vaddr.0 / WORD_BYTES,
                                phase: pi,
                                task,
                                write: *write,
                            }),
                            CpuOp::StashMem { write, slot, word } => {
                                let Some(tile) = maps.and_then(|m| m.get(*slot)) else {
                                    continue;
                                };
                                if u64::from(*word) >= tile.local_words() {
                                    continue;
                                }
                                let va = tile.virt_of_local_offset(u64::from(*word) * WORD_BYTES);
                                out.push(WordEvent {
                                    word: va.0 / WORD_BYTES,
                                    phase: pi,
                                    task,
                                    write: *write,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

fn push_warp_event(
    out: &mut Vec<WordEvent>,
    op: &WarpOp,
    bindings: &HashMap<usize, TileMap>,
    phase: u32,
    task: u32,
) {
    match op {
        WarpOp::Compute(_) => {}
        WarpOp::GlobalMem { write, lanes } => {
            for va in lanes {
                out.push(WordEvent {
                    word: va.0 / WORD_BYTES,
                    phase,
                    task,
                    write: *write,
                });
            }
        }
        WarpOp::LocalMem {
            write, slot, lanes, ..
        } => {
            let Some(tile) = bindings.get(slot) else {
                return; // Unmapped temporary: no global identity.
            };
            for &lane in lanes {
                let lane = u64::from(lane);
                if lane >= tile.local_words() {
                    continue; // `dataflow::oob` reports out-of-bounds lanes.
                }
                let va = tile.virt_of_local_offset(lane * WORD_BYTES);
                out.push(WordEvent {
                    word: va.0 / WORD_BYTES,
                    phase,
                    task,
                    write: *write,
                });
            }
        }
    }
}

fn push_tile_events(
    out: &mut Vec<WordEvent>,
    tile: &TileMap,
    phase: u32,
    task: u32,
    load: bool,
    store: bool,
) {
    let words = tile.words_per_field();
    for va in tile.iter_field_vaddrs() {
        for w in 0..words {
            let word = va.0 / WORD_BYTES + w;
            if load {
                out.push(WordEvent {
                    word,
                    phase,
                    task,
                    write: false,
                });
            }
            if store {
                out.push(WordEvent {
                    word,
                    phase,
                    task,
                    write: true,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_scope() {
        let ev = |word, phase, task| WordEvent {
            word,
            phase,
            task,
            write: false,
        };
        let events = [
            ev(1, 0, 0), // cold
            ev(1, 0, 0), // intra-task
            ev(1, 0, 1), // cross-task
            ev(1, 1, 0), // cross-phase
            ev(2, 1, 0), // cold
        ];
        let s = classify_events(&events);
        assert_eq!(s.accesses, 5);
        assert_eq!(s.distinct_words, 2);
        assert_eq!(s.intra_task, 1);
        assert_eq!(s.cross_task, 1);
        assert_eq!(s.cross_phase, 1);
        assert_eq!(s.reuses(), 3);
    }
}
