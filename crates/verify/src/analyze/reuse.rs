//! Word-granular reuse analysis: reuse scopes.
//!
//! [`classify_events`] classifies each repeated access by *scope*:
//! within one task (thread block / CPU core), across tasks of one
//! phase, or across phase boundaries. Cross-phase reuse is the paper's
//! motivating case for the stash: registered words survive a kernel's
//! end-of-kernel self-invalidation, so cross-kernel reuse hits in the
//! stash but misses in a cache or is re-copied by a scratchpad (§3,
//! "reuse").

use crate::dataflow::domain::AffineSpan;
use crate::dataflow::footprint::{cpu_accesses, lane_words, tile_set, visit_block, Touch};
use gpu::program::{Phase, Program};
use mem::addr::WORD_BYTES;
use std::collections::HashMap;

/// One global-memory word access, in program order.
///
/// `phase` is the program phase index; `task` is the thread-block index
/// within a GPU kernel or the core index within a CPU phase. `LocalMem`
/// lanes and CPU `StashMem` words are translated through their bound
/// tiles (mapped stash data *is* global data); unmapped temporaries
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
/// GPU blocks are walked in kernel order through
/// [`footprint`](crate::dataflow::footprint)'s walk: per stage, each DMA
/// word's load then store, then the warps' lanes, tainted stages with
/// their witness lanes. Within a phase the cross-task order is
/// schedule-dependent in the real machine, but scope classification
/// only compares phase/task identity, so any program-order
/// linearization yields the same summary for data-race-free inputs.
#[must_use]
pub fn word_events(program: &Program) -> Vec<WordEvent> {
    let index = |i: usize| u32::try_from(i).unwrap_or(u32::MAX);
    let mut out = Vec::new();
    for (pi, phase) in program.phases.iter().enumerate() {
        let event = |task: usize, write: bool, word: u64| WordEvent {
            word,
            phase: index(pi),
            task: index(task),
            write,
        };
        match phase {
            Phase::Gpu(kernel) => {
                for (task, block) in kernel.blocks.iter().enumerate() {
                    visit_block(block, |touch, _| match touch {
                        Touch::Dma(dma) => {
                            let tile = tile_set(&dma.tile, false);
                            for word in tile.spans().iter().flat_map(AffineSpan::words) {
                                if dma.load {
                                    out.push(event(task, false, word));
                                }
                                if dma.store {
                                    out.push(event(task, true, word));
                                }
                            }
                        }
                        Touch::Global { write, lanes } => {
                            out.extend(lanes.iter().map(|va| event(task, write, va.0 / WORD_BYTES)))
                        }
                        Touch::Mapped { write, tile, lanes } => out.extend(
                            lane_words(tile, lanes.iter().copied())
                                .map(|word| event(task, write, word)),
                        ),
                    });
                }
            }
            Phase::Cpu(cpu) => {
                for core in 0..cpu.per_core.len() {
                    out.extend(
                        cpu_accesses(cpu, core).map(|(write, word)| event(core, write, word)),
                    );
                }
            }
        }
    }
    out
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
