//! The value-range bounds pass: three-valued out-of-bounds verdicts.
//!
//! This is the crate's only bounds check. It covers a mapped tile
//! larger than its allocation, a tile (mapped or DMA) past the end of
//! its array when symbols are known, a local lane past its tile or
//! allocation, and a CPU stash slot that is unmapped or indexed past
//! its tile. It classifies every check three ways:
//!
//! * **proven safe** — the lane interval fits inside the limit on
//!   every execution (no diagnostic; counted in the summary);
//! * **proven OOB** ([`Rule::ProvenOob`], error) — some lane exceeds
//!   the limit on every execution, because the lanes are pure
//!   functions of thread/block ids;
//! * **unknown** ([`Rule::DataDependentBounds`], warning) — the
//!   stage's indices are data-dependent ([`Stage::tainted`]); the
//!   recorded lanes are one witness, so neither verdict is provable.
//!
//! [`Stage::tainted`]: gpu::program::Stage::tainted

use crate::dataflow::domain::Interval;
use crate::dataflow::footprint::{cpu_slot, SlotBindings};
use crate::diag::{Diagnostic, Rule, Symbols};
use gpu::program::{CpuOp, Phase, Program, ThreadBlock, WarpOp};
use mem::addr::WORD_BYTES;
use mem::tile::TileMap;

/// How one bounds check came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundsVerdict {
    /// In range on every execution.
    ProvenSafe,
    /// Out of range on every execution reaching the access.
    ProvenOob,
    /// Data-dependent: neither provable.
    Unknown,
}

/// Tally of every bounds check the pass classified.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundsSummary {
    /// Checks proven in range.
    pub proven_safe: usize,
    /// Checks proven out of range.
    pub proven_oob: usize,
    /// Data-dependent checks.
    pub unknown: usize,
}

impl BoundsSummary {
    /// Total checks classified.
    #[must_use]
    pub fn checked(&self) -> usize {
        self.proven_safe + self.proven_oob + self.unknown
    }

    fn count(&mut self, verdict: BoundsVerdict) {
        match verdict {
            BoundsVerdict::ProvenSafe => self.proven_safe += 1,
            BoundsVerdict::ProvenOob => self.proven_oob += 1,
            BoundsVerdict::Unknown => self.unknown += 1,
        }
    }
}

/// Runs the bounds pass: diagnostics for proven-OOB (error) and
/// data-dependent (warning) checks, plus the full verdict tally.
#[must_use]
pub fn check_bounds(program: &Program, symbols: &Symbols) -> (Vec<Diagnostic>, BoundsSummary) {
    let mut out = Vec::new();
    let mut summary = BoundsSummary::default();
    let mut kernel_idx = 0usize;
    for (phase_idx, phase) in program.phases.iter().enumerate() {
        match phase {
            Phase::Gpu(kernel) => {
                for (b, block) in kernel.blocks.iter().enumerate() {
                    check_block(block, kernel_idx, b, symbols, &mut out, &mut summary);
                }
                kernel_idx += 1;
            }
            Phase::Cpu(cpu) => {
                check_cpu_phase(cpu, phase_idx, &mut out, &mut summary);
            }
        }
    }
    (out, summary)
}

fn check_block(
    block: &ThreadBlock,
    kernel_idx: usize,
    b: usize,
    symbols: &Symbols,
    out: &mut Vec<Diagnostic>,
    summary: &mut BoundsSummary,
) {
    let mut bindings = SlotBindings::default();
    for (si, stage) in block.stages.iter().enumerate() {
        bindings.enter(stage);
        let here = format!("kernel {kernel_idx} block {b} stage {si}");
        // One data-dependent warning per stage, not per lane.
        let mut warned_unknown = false;
        for m in &stage.maps {
            // Tile-vs-allocation and tile-vs-array geometry is static
            // regardless of taint: always decidable.
            let alloc_words = block.allocs.get(m.alloc.0).map_or(0, |a| a.words);
            if m.tile.local_words() > alloc_words {
                summary.count(BoundsVerdict::ProvenOob);
                out.push(Diagnostic::new(
                    Rule::ProvenOob,
                    format!(
                        "{here}: mapped tile needs {} local words but allocation {} holds {} \
                         — out of bounds on every execution",
                        m.tile.local_words(),
                        m.alloc.0,
                        alloc_words
                    ),
                ));
            } else {
                summary.count(BoundsVerdict::ProvenSafe);
            }
            check_tile_vs_symbols(&m.tile, &here, symbols, out, summary);
        }
        for d in &stage.dmas {
            check_tile_vs_symbols(&d.tile, &here, symbols, out, summary);
        }
        for op in stage.warps.iter().flatten() {
            let WarpOp::LocalMem {
                alloc, slot, lanes, ..
            } = op
            else {
                continue;
            };
            if lanes.is_empty() {
                continue;
            }
            let tile = bindings.tile(*slot);
            let limit = tile.map_or_else(
                || block.allocs.get(alloc.0).map_or(0, |a| a.words),
                TileMap::local_words,
            );
            let target = if tile.is_some() {
                "its mapped tile"
            } else {
                "its allocation"
            };
            if stage.tainted {
                summary.count(BoundsVerdict::Unknown);
                if !warned_unknown {
                    warned_unknown = true;
                    out.push(Diagnostic::new(
                        Rule::DataDependentBounds,
                        format!(
                            "{here}: local indices are data-dependent — bounded by {target} \
                             (size {limit} words) at runtime, but not provable statically"
                        ),
                    ));
                }
                continue;
            }
            let lanes = lane_interval(lanes);
            if lanes.hi < limit {
                summary.count(BoundsVerdict::ProvenSafe);
            } else {
                summary.count(BoundsVerdict::ProvenOob);
                out.push(Diagnostic::new(
                    Rule::ProvenOob,
                    format!(
                        "{here}: local index range [{}, {}] escapes {target} \
                         (size {limit} words) on every execution",
                        lanes.lo, lanes.hi
                    ),
                ));
            }
        }
    }
}

fn check_cpu_phase(
    cpu: &gpu::program::CpuPhase,
    phase_idx: usize,
    out: &mut Vec<Diagnostic>,
    summary: &mut BoundsSummary,
) {
    for (c, ops) in cpu.per_core.iter().enumerate() {
        for op in ops {
            let CpuOp::StashMem { slot, word, .. } = op else {
                continue;
            };
            match cpu_slot(cpu, c, *slot) {
                None => {
                    summary.count(BoundsVerdict::ProvenOob);
                    out.push(Diagnostic::new(
                        Rule::ProvenOob,
                        format!(
                            "phase {phase_idx} core {c}: StashMem slot {slot} has no mapping \
                             — faults on every execution"
                        ),
                    ));
                }
                Some(tile) if u64::from(*word) >= tile.local_words() => {
                    summary.count(BoundsVerdict::ProvenOob);
                    out.push(Diagnostic::new(
                        Rule::ProvenOob,
                        format!(
                            "phase {phase_idx} core {c}: stash index {word} escapes its mapped \
                             tile (size {} words) on every execution",
                            tile.local_words()
                        ),
                    ));
                }
                Some(_) => summary.count(BoundsVerdict::ProvenSafe),
            }
        }
    }
}

fn check_tile_vs_symbols(
    tile: &TileMap,
    here: &str,
    symbols: &Symbols,
    out: &mut Vec<Diagnostic>,
    summary: &mut BoundsSummary,
) {
    // Only checkable when the tile's base lands in a known array.
    let Some((name, _)) = symbols.locate(tile.global_base().0) else {
        return;
    };
    let words = tile.words_per_field();
    let escaped = tile.iter_field_vaddrs().any(|va| {
        let last = va.0 + words * WORD_BYTES - 1;
        symbols.locate(last).map(|(n, _)| n) != Some(name)
    });
    if escaped {
        summary.count(BoundsVerdict::ProvenOob);
        out.push(Diagnostic::new(
            Rule::ProvenOob,
            format!(
                "{here}: tile at {:#x} extends past the end of array {name} \
                 on every execution",
                tile.global_base().0
            ),
        ));
    } else {
        summary.count(BoundsVerdict::ProvenSafe);
    }
}

fn lane_interval(lanes: &[u32]) -> Interval {
    let lo = lanes.iter().copied().min().unwrap_or(0);
    let hi = lanes.iter().copied().max().unwrap_or(0);
    Interval::new(u64::from(lo), u64::from(hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu::program::{AllocId, Kernel, LocalAlloc, MapReq, Stage};
    use mem::addr::VAddr;
    use stash::UsageMode;

    fn local_block(words: u64, lanes: Vec<u32>, tainted: bool) -> ThreadBlock {
        let mut tb = ThreadBlock::new();
        tb.allocs.push(LocalAlloc { words });
        let mut stage = Stage::new(1);
        stage.warps[0] = vec![WarpOp::LocalMem {
            write: false,
            alloc: AllocId(0),
            slot: 0,
            lanes,
        }];
        stage.tainted = tainted;
        tb.stages.push(stage);
        tb
    }

    fn program_of(blocks: Vec<ThreadBlock>) -> Program {
        Program {
            phases: vec![Phase::Gpu(Kernel { blocks })],
        }
    }

    #[test]
    fn in_range_lanes_are_proven_safe() {
        let p = program_of(vec![local_block(8, vec![0, 7], false)]);
        let (diags, summary) = check_bounds(&p, &Symbols::new());
        assert!(diags.is_empty());
        assert_eq!(summary.proven_safe, 1);
        assert_eq!(summary.checked(), 1);
    }

    #[test]
    fn escaping_lanes_are_proven_oob() {
        let p = program_of(vec![local_block(8, vec![0, 8], false)]);
        let (diags, summary) = check_bounds(&p, &Symbols::new());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::ProvenOob);
        assert!(diags[0].message.contains("[0, 8]"), "{}", diags[0].message);
        assert_eq!(summary.proven_oob, 1);
    }

    #[test]
    fn tainted_lanes_are_unknown_not_oob() {
        // The concrete witness lane even escapes the allocation, but the
        // stage is data-dependent: a different input might not.
        let p = program_of(vec![local_block(8, vec![0, 100], true)]);
        let (diags, summary) = check_bounds(&p, &Symbols::new());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::DataDependentBounds);
        assert_eq!(summary.unknown, 1);
        assert_eq!(summary.proven_oob, 0);
    }

    #[test]
    fn mapped_tile_bounds_are_static_despite_taint() {
        // A tile bigger than its allocation is proven OOB even in a
        // tainted stage — the geometry is not data-dependent.
        let tile = TileMap::new(VAddr(0x4000), 4, 4, 16, 0, 1).unwrap();
        let mut tb = ThreadBlock::new();
        tb.allocs.push(LocalAlloc { words: 8 });
        let mut stage = Stage::new(1);
        stage.maps.push(MapReq {
            slot: 0,
            alloc: AllocId(0),
            tile,
            mode: UsageMode::MappedCoherent,
        });
        stage.tainted = true;
        tb.stages.push(stage);
        let (diags, summary) = check_bounds(&program_of(vec![tb]), &Symbols::new());
        assert_eq!(summary.proven_oob, 1);
        assert!(diags.iter().any(|d| d.rule == Rule::ProvenOob));
    }

    #[test]
    fn tile_past_array_end_is_proven_oob() {
        let mut symbols = Symbols::new();
        symbols.add("short", VAddr(0x4000), 32);
        let tile = TileMap::new(VAddr(0x4000), 4, 4, 16, 0, 1).unwrap();
        let mut tb = ThreadBlock::new();
        tb.allocs.push(LocalAlloc { words: 16 });
        let mut stage = Stage::new(1);
        stage.maps.push(MapReq {
            slot: 0,
            alloc: AllocId(0),
            tile,
            mode: UsageMode::MappedCoherent,
        });
        tb.stages.push(stage);
        let (diags, _) = check_bounds(&program_of(vec![tb]), &symbols);
        assert!(diags
            .iter()
            .any(|d| d.rule == Rule::ProvenOob && d.message.contains("past the end")));
    }

    #[test]
    fn cpu_stash_bounds_are_classified() {
        let tile = TileMap::new(VAddr(0x4000), 4, 4, 8, 0, 1).unwrap();
        let p = Program {
            phases: vec![Phase::Cpu(gpu::program::CpuPhase {
                per_core: vec![vec![
                    CpuOp::StashMem {
                        write: false,
                        slot: 0,
                        word: 7,
                    },
                    CpuOp::StashMem {
                        write: false,
                        slot: 0,
                        word: 8,
                    },
                ]],
                stash_maps: vec![vec![tile]],
            })],
        };
        let (diags, summary) = check_bounds(&p, &Symbols::new());
        assert_eq!(summary.proven_safe, 1);
        assert_eq!(summary.proven_oob, 1);
        assert_eq!(diags.len(), 1);
    }
}
