//! The conflict pass: proves inter-CU footprint disjointness and emits
//! the [`ConflictCertificate`] the machine's staged-op merge consumes.
//!
//! For each kernel, blocks are grouped per CU with **the machine's own
//! distribution function** ([`gpu::machine::assign_blocks`] — one
//! source of truth, so the static grouping can never drift from the
//! runtime grouping), the per-CU access sets are unioned, and every CU
//! pair is tested with the sound [`AffineSet::disjoint`](crate::dataflow::domain::AffineSet::disjoint) procedure.
//!
//! # The certificate contract
//!
//! `certified ⇒ runtime-disjoint`, **never** the converse. A kernel
//! verdict of `true` promises that no two CUs will claim the same word
//! (word granularity) or any word of the same line (line granularity)
//! during that kernel's staged merge; `false` only means "not proven"
//! and costs nothing but the per-word reconciliation the merge would
//! have done anyway. Three design points carry the obligation:
//!
//! * the pass compares full access sets (`reads ∪ writes`), because
//!   coherent stash *loads* register ownership just like stores;
//! * a [`Taint::Top`] block makes its kernel uncertifiable whenever
//!   more than one CU is populated — an unbounded data-dependent index
//!   could reach anything;
//! * the line verdict is computed from enumerated line sets (there is
//!   no symbolic shortcut through line-granularity aliasing) and
//!   degrades to `false` when the enumeration would be too large.
//!
//! The `--verify` dynamic oracle in `gpu::memsys` cross-checks the
//! contract at runtime: any two CUs claiming one word in a certified
//! kernel raise a hard `SimError::CertificateViolation`. The
//! [`ConflictMutation`] hooks below deliberately weaken the pass so
//! tests can prove the oracle actually catches unsound certificates.

use crate::dataflow::domain::Taint;
use crate::dataflow::footprint::{kernel_footprints, BlockFootprint, Weakening};
use gpu::machine::{assign_blocks, BlockDistribution};
use gpu::program::{Phase, Program};
use gpu::{ConflictCertificate, KernelCertificate};
use std::collections::HashMap;

/// The machine parameters a certificate is specific to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineShape {
    /// Number of GPU CUs blocks are distributed over.
    pub cus: usize,
    /// The block distribution policy.
    pub distribution: BlockDistribution,
    /// Words per cache line (for the line-granularity verdict).
    pub line_words: u64,
}

/// Deliberate unsoundnesses for mutation testing — each one must make
/// the pass falsely certify some adversarial program, and the dynamic
/// footprint oracle must then catch the lie at runtime. **Never** use
/// outside tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictMutation {
    /// Forget that DMA transfers touch their tiles.
    IgnoreDma,
    /// Trust the concrete lanes of data-dependent stages.
    IgnoreTaint,
    /// Drop the last block of every kernel from its CU's footprint.
    DropLastBlock,
    /// Report the word verdict as the line verdict.
    WordVerdictForLines,
    /// Forget `GlobalMem` lanes entirely.
    IgnoreGlobalLanes,
    /// Pretend every tile has a single row.
    ShrinkTileRows,
}

/// Certifies `program` for `shape`: one [`KernelCertificate`] per GPU
/// kernel, in kernel order (matching the machine's kernel ordinals).
#[must_use]
pub fn certify(program: &Program, shape: &MachineShape) -> ConflictCertificate {
    certify_mutated(program, shape, None)
}

/// [`certify`] with an optional deliberate weakening. Only for tests
/// proving the dynamic oracle catches unsound certificates.
#[must_use]
pub fn certify_mutated(
    program: &Program,
    shape: &MachineShape,
    mutation: Option<ConflictMutation>,
) -> ConflictCertificate {
    let weaken = Weakening {
        ignore_taint: mutation == Some(ConflictMutation::IgnoreTaint),
        ignore_dma: mutation == Some(ConflictMutation::IgnoreDma),
        ignore_global: mutation == Some(ConflictMutation::IgnoreGlobalLanes),
        shrink_tile_rows: mutation == Some(ConflictMutation::ShrinkTileRows),
    };
    let kernels = program
        .phases
        .iter()
        .filter_map(|p| match p {
            Phase::Gpu(kernel) => {
                let mut fps = kernel_footprints(kernel, weaken);
                if mutation == Some(ConflictMutation::DropLastBlock) {
                    fps.pop();
                }
                let assignment = assign_blocks(kernel, shape.distribution, shape.cus);
                Some(kernel_verdict(&fps, &assignment, shape, mutation))
            }
            Phase::Cpu(_) => None,
        })
        .collect();
    ConflictCertificate {
        cus: shape.cus,
        distribution: shape.distribution,
        kernels,
    }
}

/// Word enumerations larger than this forfeit the line verdict.
const LINE_ENUM_CAP: u64 = 1 << 22;

fn kernel_verdict(
    fps: &[BlockFootprint],
    assignment: &[usize],
    shape: &MachineShape,
    mutation: Option<ConflictMutation>,
) -> KernelCertificate {
    // Union each CU's access sets; join each CU's taint.
    let mut per_cu: Vec<(crate::dataflow::domain::AffineSet, Taint)> = Vec::new();
    per_cu.resize_with(shape.cus, Default::default);
    for (fp, &cu) in fps.iter().zip(assignment) {
        per_cu[cu].0.extend(&fp.accesses());
        per_cu[cu].1 = per_cu[cu].1.join(fp.taint);
    }
    // A ⊤ CU counts as active even when its (meaningless) set is empty.
    let active: Vec<_> = per_cu
        .iter()
        .filter(|(set, taint)| !set.is_empty() || *taint == Taint::Top)
        .collect();
    // A ⊤ CU could touch anything: uncertifiable unless it is alone.
    // (An all-empty kernel, or one whose blocks land on one CU, is
    // vacuously disjoint — there is no pair to conflict.)
    let poisoned = active.len() > 1 && active.iter().any(|(_, t)| *t == Taint::Top);
    let word_disjoint = !poisoned
        && active
            .iter()
            .enumerate()
            .all(|(i, (a, _))| active[i + 1..].iter().all(|(b, _)| a.disjoint(b)));
    let line_disjoint = if mutation == Some(ConflictMutation::WordVerdictForLines) {
        word_disjoint
    } else {
        !poisoned && lines_disjoint(&active, shape.line_words)
    };
    KernelCertificate {
        word_disjoint,
        line_disjoint,
    }
}

/// Whether the active CUs' access sets touch pairwise-disjoint cache
/// lines — decided by exact enumeration, conservatively `false` when a
/// set is too large to enumerate. A run of contiguous words covers
/// exactly the lines from its first word's to its last word's, so the
/// lines are enumerated per run.
fn lines_disjoint(
    active: &[&(crate::dataflow::domain::AffineSet, Taint)],
    line_words: u64,
) -> bool {
    let mut owner: HashMap<u64, usize> = HashMap::new();
    for (cu, (set, _)) in active.iter().enumerate() {
        if set.words_bound() > LINE_ENUM_CAP {
            return false;
        }
        for span in set.spans() {
            for run in 0..span.count {
                let first = span.base + run * span.stride;
                for line in first / line_words..=(first + span.width - 1) / line_words {
                    if *owner.entry(line).or_insert(cu) != cu {
                        return false;
                    }
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu::program::{Kernel, ThreadBlock, WarpOp};
    use mem::addr::VAddr;

    fn global_block(base: u64, words: u64, write: bool) -> ThreadBlock {
        let mut tb = ThreadBlock::new();
        let mut stage = gpu::program::Stage::new(1);
        stage.warps[0] = vec![WarpOp::GlobalMem {
            write,
            lanes: (0..words).map(|w| VAddr(base + w * 4)).collect(),
        }];
        tb.stages.push(stage);
        tb
    }

    fn shape(cus: usize) -> MachineShape {
        MachineShape {
            cus,
            distribution: BlockDistribution::RoundRobin,
            line_words: 16,
        }
    }

    fn one_kernel(blocks: Vec<ThreadBlock>) -> Program {
        Program {
            phases: vec![Phase::Gpu(Kernel { blocks })],
        }
    }

    #[test]
    fn line_separated_blocks_certify_at_both_granularities() {
        // Two blocks, two CUs, 1 KiB apart: disjoint words *and* lines.
        let p = one_kernel(vec![
            global_block(0x1000, 8, true),
            global_block(0x2000, 8, true),
        ]);
        let cert = certify(&p, &shape(2));
        assert_eq!(cert.kernels.len(), 1);
        assert!(cert.kernels[0].word_disjoint);
        assert!(cert.kernels[0].line_disjoint);
        assert_eq!(cert.certified_kernels(), 1);
    }

    #[test]
    fn word_disjoint_but_line_shared_certifies_only_words() {
        // Adjacent half-lines: words 0..8 and 8..16 of one 16-word line.
        let p = one_kernel(vec![
            global_block(0x1000, 8, true),
            global_block(0x1020, 8, true),
        ]);
        let cert = certify(&p, &shape(2));
        assert!(cert.kernels[0].word_disjoint);
        assert!(!cert.kernels[0].line_disjoint);
    }

    #[test]
    fn overlapping_blocks_do_not_certify() {
        let p = one_kernel(vec![
            global_block(0x1000, 8, true),
            global_block(0x1010, 8, false), // reads overlap the writes
        ]);
        let cert = certify(&p, &shape(2));
        assert!(!cert.kernels[0].word_disjoint);
        assert!(!cert.kernels[0].line_disjoint);
    }

    #[test]
    fn single_cu_is_vacuously_certified_even_when_tainted() {
        let mut tb = global_block(0x1000, 4, true);
        tb.stages[0].tainted = true;
        let cert = certify(&one_kernel(vec![tb]), &shape(1));
        assert!(cert.kernels[0].word_disjoint);
        assert!(cert.kernels[0].line_disjoint);
    }

    #[test]
    fn tainted_global_poisons_multi_cu_kernels() {
        let mut tainted = global_block(0x1000, 4, false);
        tainted.stages[0].tainted = true;
        let p = one_kernel(vec![tainted, global_block(0x8000, 4, true)]);
        let cert = certify(&p, &shape(2));
        assert!(!cert.kernels[0].word_disjoint);
        assert!(!cert.kernels[0].line_disjoint);
        // The IgnoreTaint mutation trusts the concrete lanes and
        // (unsoundly) certifies.
        let lied = certify_mutated(&p, &shape(2), Some(ConflictMutation::IgnoreTaint));
        assert!(lied.kernels[0].word_disjoint);
    }

    #[test]
    fn every_mutation_changes_some_verdict() {
        // Each hook must actually weaken the analysis on a program
        // engineered to expose it (full adversarial runs live in the
        // oracle integration tests).
        use ConflictMutation::{
            DropLastBlock, IgnoreDma, IgnoreGlobalLanes, ShrinkTileRows, WordVerdictForLines,
        };
        // Overlapping global writes: dropping lanes or the last block
        // "fixes" the conflict.
        let clash = one_kernel(vec![
            global_block(0x1000, 8, true),
            global_block(0x1000, 8, true),
        ]);
        for m in [IgnoreGlobalLanes, DropLastBlock] {
            assert!(!certify(&clash, &shape(2)).kernels[0].word_disjoint);
            assert!(
                certify_mutated(&clash, &shape(2), Some(m)).kernels[0].word_disjoint,
                "{m:?} should falsely certify"
            );
        }
        // Word-disjoint, line-shared: WordVerdictForLines lies about lines.
        let half_lines = one_kernel(vec![
            global_block(0x1000, 8, true),
            global_block(0x1020, 8, true),
        ]);
        assert!(!certify(&half_lines, &shape(2)).kernels[0].line_disjoint);
        assert!(
            certify_mutated(&half_lines, &shape(2), Some(WordVerdictForLines)).kernels[0]
                .line_disjoint
        );
        // Overlapping DMA tiles: IgnoreDma hides them.
        let tile = mem::tile::TileMap::new(VAddr(0x6000), 4, 4, 8, 0, 1).unwrap();
        let dma_block = || {
            let mut tb = ThreadBlock::new();
            tb.allocs.push(gpu::program::LocalAlloc { words: 8 });
            let mut stage = gpu::program::Stage::new(1);
            stage.dmas.push(gpu::program::DmaReq {
                alloc: gpu::program::AllocId(0),
                tile,
                load: false,
                store: true,
            });
            tb.stages.push(stage);
            tb
        };
        let dma_clash = one_kernel(vec![dma_block(), dma_block()]);
        assert!(!certify(&dma_clash, &shape(2)).kernels[0].word_disjoint);
        assert!(certify_mutated(&dma_clash, &shape(2), Some(IgnoreDma)).kernels[0].word_disjoint);
        // Tiles whose rows 1.. overlap: ShrinkTileRows sees only row 0.
        let rows = |base: u64| mem::tile::TileMap::new(VAddr(base), 4, 4, 4, 0x40, 2).unwrap();
        let row_block = |base: u64| {
            let mut tb = ThreadBlock::new();
            tb.allocs.push(gpu::program::LocalAlloc { words: 8 });
            let mut stage = gpu::program::Stage::new(1);
            stage.dmas.push(gpu::program::DmaReq {
                alloc: gpu::program::AllocId(0),
                tile: rows(base),
                load: false,
                store: true,
            });
            tb.stages.push(stage);
            tb
        };
        // Rows: [base, base+16) and [base+0x40, base+0x40+16). Block B
        // at base+0x40 collides with A's second row only.
        let row_clash = one_kernel(vec![row_block(0x7000), row_block(0x7040)]);
        assert!(!certify(&row_clash, &shape(2)).kernels[0].word_disjoint);
        assert!(
            certify_mutated(&row_clash, &shape(2), Some(ShrinkTileRows)).kernels[0].word_disjoint
        );
    }

    #[test]
    fn line_verdict_matches_word_enumeration() {
        use crate::dataflow::domain::{AffineSet, AffineSpan};
        use std::collections::BTreeSet;
        let mut rng = sim::rng::SplitMix64::new(7);
        let mut verdicts = [0usize; 2];
        for _ in 0..2000 {
            let line_words = [1, 4, 16][rng.next_below(3) as usize];
            let sets: Vec<(AffineSet, Taint)> = (0..2 + rng.next_below(3))
                .map(|_| {
                    let mut set = AffineSet::new();
                    for _ in 0..=rng.next_below(2) {
                        let (base, stride) = (rng.next_below(1024), 1 + rng.next_below(40));
                        let (count, width) = (1 + rng.next_below(4), 1 + rng.next_below(20));
                        set.push(AffineSpan::new(base, stride, count, width));
                    }
                    (set, Taint::Exact)
                })
                .collect();
            let lines: Vec<BTreeSet<u64>> = sets
                .iter()
                .map(|(set, _)| {
                    let words = set.words_capped(u64::MAX).unwrap();
                    words.iter().map(|w| w / line_words).collect()
                })
                .collect();
            let disjoint = (0..lines.len())
                .all(|a| (a + 1..lines.len()).all(|b| lines[a].is_disjoint(&lines[b])));
            let active: Vec<_> = sets.iter().collect();
            assert_eq!(lines_disjoint(&active, line_words), disjoint, "{sets:?}");
            verdicts[usize::from(disjoint)] += 1;
        }
        assert!(verdicts.iter().all(|&n| n > 400), "{verdicts:?}");
        // A set too large to enumerate forfeits the verdict.
        let mut huge = AffineSet::new();
        huge.push(AffineSpan::contiguous(0, LINE_ENUM_CAP + 1));
        assert!(!lines_disjoint(&[&(huge, Taint::Exact)], 16));
    }

    #[test]
    fn certificate_records_shape_for_matching() {
        let p = one_kernel(vec![global_block(0x1000, 4, true)]);
        let cert = certify(&p, &shape(4));
        assert_eq!(cert.cus, 4);
        assert_eq!(cert.distribution, BlockDistribution::RoundRobin);
    }
}
