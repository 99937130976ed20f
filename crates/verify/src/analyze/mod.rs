//! Static access-pattern analysis for the placement advisor.
//!
//! The analyzer family consumes the same lowered [`Program`] IR the
//! simulator executes and produces two kinds of output:
//!
//! * **Diagnostics** ([`Note`]s: the crate's [`crate::Diagnostic`] with
//!   `SR02x` codes): symbolized statements about the access pattern —
//!   poor coalescing, footprint-vs-capacity thrashing, copy loops
//!   without reuse, data written but never re-read, redundant DMA.
//! * **Exact counts** ([`ExactCounts`]): per configuration, the
//!   simulator counters program structure alone determines —
//!   transactions, local-op classes, map and DMA totals, and the
//!   instruction total.
//!
//! # The advisor's contract
//!
//! The advisor (the `advise` bin and the daemon's `advise` request)
//! simulates every configuration it analyzes, so it recommends from
//! measurement: [`measured_best`] picks the configuration with the
//! lowest measured runtime. The static side is an independent check on
//! the simulator's accounting: [`check_counts`] compares every exact
//! counter and the instruction total with a [`RunReport`], and any
//! difference is a bug in the analyzer or the machine. Nothing here
//! estimates hits, misses or time — that would take most of a
//! simulation, which the advisor runs anyway.
//!
//! The sub-modules are usable on their own: [`reuse`] for word-granular
//! reuse-distance and scope classification, [`coalesce`] for static
//! coalescing efficiency, [`waste`] for dead data movement, and
//! [`counts`] for the exact counter pass.

pub mod coalesce;
pub mod counts;
pub mod reuse;
pub mod waste;

use crate::diag::Symbols;
use counts::ExactCounts;
use gpu::config::MemConfigKind;
use gpu::program::Program;
use gpu::report::RunReport;
use mem::addr::{VAddr, WORD_BYTES};
use sim::config::SystemConfig;
use stash::StashConfig;
use std::collections::HashMap;

/// Category of an analyzer diagnostic — the advisory (`SR02x`) subset of
/// the crate-wide unified [`Rule`](crate::diag::Rule) enum.
pub use crate::diag::Rule as NoteKind;

/// One analyzer diagnostic: the crate-wide unified type.
pub type Note = crate::diag::Diagnostic;

/// The full analyzer output for one workload.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Symbolized diagnostics about the access pattern.
    pub notes: Vec<Note>,
    /// One [`ExactCounts`] per requested configuration, in input order.
    pub counts: Vec<ExactCounts>,
}

/// Names the array holding `word` (a global word index), or its address.
fn word_region(symbols: &Symbols, word: u64) -> String {
    match symbols.locate(word * WORD_BYTES) {
        Some((name, _)) => format!("array `{name}`"),
        None => format!("{:#x}", word * WORD_BYTES),
    }
}

fn region_of(symbols: &Symbols, va: VAddr) -> String {
    word_region(symbols, va.0 / WORD_BYTES)
}

/// Builds the symbolized diagnostics for one workload: coalescing on the
/// cache lowering, reuse, waste and capacity on the stash lowering, copy
/// loops on the scratch lowering and redundant DMA on `ScratchGD`, each
/// when `kinds` includes it.
///
/// # Panics
///
/// Panics if `kinds` is empty.
#[must_use]
pub fn workload_notes<F: Fn(MemConfigKind) -> Program>(
    build: F,
    sys: &SystemConfig,
    kinds: &[MemConfigKind],
    symbols: &Symbols,
) -> Vec<Note> {
    let mut notes = Vec::new();
    let pick = |want: MemConfigKind| kinds.contains(&want).then(|| build(want));
    let wpl = sys.words_per_line() as u64;

    // Coalescing: judged on the all-global (cache) lowering, where every
    // access shows its raw lane addresses.
    let coalesce_program =
        pick(MemConfigKind::Cache).unwrap_or_else(|| build(*kinds.first().expect("kinds")));
    for (s, distinct) in
        coalesce::coalescing_by_region(&coalesce_program, symbols, sys.line_bytes as u64)
    {
        if s.extra_transactions() == 0 {
            continue;
        }
        let stride = match s.stride_bytes {
            Some(b) => format!("stride-{b} B"),
            None => "irregular".to_string(),
        };
        let wpt = s.words_per_transaction_x100(distinct);
        notes.push(Note {
            rule: NoteKind::PoorCoalescing,
            message: format!(
                "array `{}`: {stride} global stream, {}.{:02}/{wpl} words per transaction \
                 — {} extra transactions vs contiguous",
                s.region,
                wpt / 100,
                wpt % 100,
                s.extra_transactions()
            ),
        });
    }

    // Reuse and waste: judged on the stash lowering when available — its
    // event stream is the pure access pattern, free of copy-loop noise.
    let ref_program = pick(MemConfigKind::Stash)
        .or_else(|| pick(MemConfigKind::StashG))
        .unwrap_or_else(|| build(*kinds.first().expect("kinds")));
    let events = reuse::word_events(&ref_program);
    let summary = reuse::classify_events(&events);
    if summary.accesses > 0 {
        notes.push(Note {
            rule: NoteKind::ReuseProfile,
            message: format!(
                "{} word accesses over {} distinct words — {} intra-task, {} cross-task, \
                 {} cross-phase reuses",
                summary.accesses,
                summary.distinct_words,
                summary.intra_task,
                summary.cross_task,
                summary.cross_phase
            ),
        });
        // Footprint vs the L1: more distinct words than the cache holds
        // means the cache configuration thrashes on capacity.
        let bytes = summary.distinct_words * WORD_BYTES;
        if bytes > sys.l1_bytes as u64 {
            notes.push(Note {
                rule: NoteKind::CapacityThrash,
                message: format!(
                    "working set of {} KB exceeds the {} KB L1 — expect capacity misses \
                     in the cache configuration",
                    bytes / 1024,
                    sys.l1_bytes / 1024
                ),
            });
        }
    }
    let waste = waste::store_waste(&events);
    if !waste.unread.is_empty() {
        notes.push(Note {
            rule: NoteKind::LazyWritebackWin,
            message: format!(
                "{} words (first: {}) written but never re-read — lazy chunked \
                 writeback avoids {} eagerly written-back words",
                waste.unread.len(),
                word_region(symbols, waste.unread[0]),
                waste.unread.len()
            ),
        });
    }
    if !waste.dead.is_empty() {
        let total: u64 = waste.dead.iter().map(|&(_, n)| n).sum();
        notes.push(Note {
            rule: NoteKind::DeadStore,
            message: format!(
                "{total} stores to {} words (first: {}) overwritten before any read",
                waste.dead.len(),
                word_region(symbols, waste.dead[0].0)
            ),
        });
    }
    let temp_words = waste::write_only_temp_words(&ref_program);
    if temp_words > 0 {
        notes.push(Note {
            rule: NoteKind::DeadStore,
            message: format!(
                "{temp_words} temporary local words written but never read within their block"
            ),
        });
    }

    // Footprint vs local capacity: chunk-rounded, the granularity the
    // wave allocator hands out (shared with the stash crate).
    let stash_cfg = StashConfig::for_system(sys);
    let mut worst_block_words = 0u64;
    for phase in &ref_program.phases {
        if let gpu::program::Phase::Gpu(kernel) = phase {
            for tb in &kernel.blocks {
                let words: u64 = tb
                    .allocs
                    .iter()
                    .map(|a| stash_cfg.chunk_rounded(a.words as usize) as u64)
                    .sum();
                worst_block_words = worst_block_words.max(words);
            }
        }
    }
    if worst_block_words > 0 {
        let capacity = stash_cfg.capacity_words() as u64;
        let resident = (capacity / worst_block_words.max(1)).max(1);
        if worst_block_words > capacity {
            notes.push(Note {
                rule: NoteKind::CapacityThrash,
                message: format!(
                    "a thread block's {worst_block_words} chunk-rounded local words exceed \
                     the {capacity}-word scratchpad/stash"
                ),
            });
        } else if (resident as usize) < sys.max_blocks_per_cu {
            notes.push(Note {
                rule: NoteKind::CapacityThrash,
                message: format!(
                    "local footprint of {worst_block_words} words limits residency to \
                     {resident} blocks per CU (of {})",
                    sys.max_blocks_per_cu
                ),
            });
        }
    }

    // Copy loops: judged on the explicit-copy (scratch) lowering.
    if let Some(scratch_program) = pick(MemConfigKind::Scratch) {
        // region -> (blocks, copied words)
        let mut by_region: HashMap<String, (u64, u64)> = HashMap::new();
        for site in waste::copy_sites(&scratch_program) {
            if site.no_reuse() {
                let e = by_region
                    .entry(region_of(symbols, site.global_base))
                    .or_default();
                e.0 += 1;
                e.1 += site.copied_lanes;
            }
        }
        let mut regions: Vec<_> = by_region.into_iter().collect();
        regions.sort();
        for (region, (blocks, words)) in regions {
            notes.push(Note {
                rule: NoteKind::CopyNoReuse,
                message: format!(
                    "{region}: explicit copy-in of {words} words across {blocks} blocks \
                     with no reuse — a stash mapping or DMA removes the copy loop"
                ),
            });
        }
    }

    // Redundant DMA: judged on the DMA lowering.
    if let Some(dma_program) = pick(MemConfigKind::ScratchGD) {
        let mut by_region: HashMap<String, u64> = HashMap::new();
        for w in waste::redundant_dma(&dma_program) {
            *by_region
                .entry(region_of(symbols, w.global_base))
                .or_default() += 1;
        }
        let mut regions: Vec<_> = by_region.into_iter().collect();
        regions.sort();
        for (region, count) in regions {
            notes.push(Note {
                rule: NoteKind::RedundantDma,
                message: format!(
                    "{region}: {count} DMA transfers move data the block never touches"
                ),
            });
        }
    }

    notes
}

/// Runs the full analysis for one workload: diagnostics from the
/// pattern-revealing lowerings and one [`ExactCounts`] per configuration
/// in `kinds`.
///
/// # Panics
///
/// Panics if `kinds` is empty.
#[must_use]
pub fn analyze_workload<F: Fn(MemConfigKind) -> Program>(
    build: F,
    sys: &SystemConfig,
    kinds: &[MemConfigKind],
    symbols: &Symbols,
) -> Analysis {
    assert!(!kinds.is_empty(), "need at least one configuration");
    let counts = kinds
        .iter()
        .map(|&k| counts::exact_counts(&build(k), sys, k))
        .collect();
    Analysis {
        notes: workload_notes(build, sys, kinds, symbols),
        counts,
    }
}

/// Checks exact counts against a simulator report, returning one message
/// per mismatch (empty = every counter and the instruction total match).
#[must_use]
pub fn check_counts(counts: &ExactCounts, report: &RunReport) -> Vec<String> {
    let mut errors = Vec::new();
    if counts.gpu_instructions != report.gpu_instructions {
        errors.push(format!(
            "{}: gpu_instructions counted {} but measured {}",
            counts.kind, counts.gpu_instructions, report.gpu_instructions
        ));
    }
    for &(c, v) in &counts.counters {
        let m = report.counters.value(c);
        if v != m {
            errors.push(format!(
                "{}: {c:?} counted {v} but measured {m}",
                counts.kind
            ));
        }
    }
    errors
}

/// The advisor's recommendation: the configuration with the lowest
/// measured runtime (`RunReport::total_picos`). On an exact tie the
/// first in `measured` order wins, so callers pass the figure's order.
/// `None` when nothing was measured.
#[must_use]
pub fn measured_best(measured: &[(MemConfigKind, u64)]) -> Option<MemConfigKind> {
    measured.iter().min_by_key(|&&(_, t)| t).map(|&(k, _)| k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu::machine::Machine;

    fn implicit() -> workloads::suite::Workload {
        workloads::suite::all()
            .into_iter()
            .find(|w| w.name == "implicit")
            .expect("suite has the implicit microbenchmark")
    }

    #[test]
    fn analysis_produces_notes_and_counts() {
        let w = implicit();
        let sys = SystemConfig::for_microbenchmarks();
        let a = analyze_workload(w.build, &sys, &MemConfigKind::FIGURE5, &Symbols::new());
        let kinds: Vec<MemConfigKind> = a.counts.iter().map(|c| c.kind).collect();
        assert_eq!(kinds, MemConfigKind::FIGURE5);
        assert!(!a.notes.is_empty(), "implicit's AoS stream must be flagged");
        for n in &a.notes {
            // Display forms are the lint style: "[kind] message".
            assert!(n.to_string().starts_with('['), "{n}");
        }
    }

    #[test]
    fn exact_counters_match_the_simulator() {
        let w = implicit();
        let sys = SystemConfig::for_microbenchmarks();
        for kind in MemConfigKind::FIGURE5 {
            let program = (w.build)(kind);
            let counts = counts::exact_counts(&program, &sys, kind);
            let report = Machine::new(sys.clone(), kind)
                .run(&program)
                .expect("implicit runs clean");
            let errors = check_counts(&counts, &report);
            assert!(errors.is_empty(), "{kind}: {errors:?}");
        }
    }

    #[test]
    fn recommendation_is_the_lowest_measured_time() {
        let measured = [
            (MemConfigKind::Scratch, 1000),
            (MemConfigKind::Cache, 951),
            (MemConfigKind::Stash, 950),
        ];
        assert_eq!(measured_best(&measured), Some(MemConfigKind::Stash));
        assert_eq!(measured_best(&[]), None);
    }

    #[test]
    fn recommendation_breaks_exact_ties_in_figure_order() {
        let measured = [
            (MemConfigKind::Scratch, 1000),
            (MemConfigKind::Stash, 900),
            (MemConfigKind::StashG, 900),
        ];
        assert_eq!(measured_best(&measured), Some(MemConfigKind::Stash));
        let reversed = [(MemConfigKind::StashG, 900), (MemConfigKind::Stash, 900)];
        assert_eq!(measured_best(&reversed), Some(MemConfigKind::StashG));
    }
}
