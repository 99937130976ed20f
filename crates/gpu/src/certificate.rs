//! Conflict certificates: static proofs that a kernel's CUs never claim
//! the same word, letting the staged-op merge skip full reconciliation.
//!
//! A certificate is *produced* by the `verify::dataflow` footprint pass
//! (which lives above this crate in the dependency graph) and *consumed*
//! by [`crate::machine::Machine::run_parallel`]: for a certified kernel,
//! [`crate::memsys::MemorySystem::apply_staged`] only tracks cross-core
//! carryover registrations (words some *other* core owned before the
//! kernel) instead of every registration the kernel replays, shrinking
//! the per-word reconciliation pass to the cross-kernel residue.
//!
//! # Soundness contract
//!
//! Certification is one-directional: **certified ⇒ runtime-disjoint**,
//! never the converse. A certificate asserts that within each certified
//! kernel, every shared word is ownership-claimed (word registration or
//! DMA store-through) by at most one CU. Under that assumption the
//! skipped reconciliation entries are provably no-ops — the sole
//! claiming CU's shard already resolved its own-word state sequentially,
//! and the merged-back shard structures carry the result — so digests
//! stay byte-identical. A *false* certificate can corrupt the merge,
//! which is why the dynamic footprint oracle (`MemorySystem::set_verify`)
//! cross-checks every certified merge and raises
//! [`sim::SimError::CertificateViolation`] on any word claimed by two
//! CUs.
//!
//! The verdicts are recorded at both word and line granularity because
//! the `line_grain_registration` ablation widens every cache-store
//! registration to the full line: a kernel whose CUs touch disjoint
//! words of a shared line is safe under word-granular DeNovo but races
//! under the MESI-style ablation. The machine picks the verdict that
//! matches its registration mode.

use crate::machine::BlockDistribution;

/// Per-kernel disjointness verdicts, indexed by GPU-phase ordinal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCertificate {
    /// All inter-CU footprint pairs are provably word-disjoint.
    pub word_disjoint: bool,
    /// All inter-CU footprint pairs are provably *line*-disjoint —
    /// required instead of `word_disjoint` when the machine runs the
    /// `line_grain_registration` ablation.
    pub line_disjoint: bool,
}

/// A static conflict certificate for one program on one machine shape.
///
/// The block-to-CU assignment is part of the proof: the footprint pass
/// groups blocks with [`crate::machine::assign_blocks`] under the same
/// `(cus, distribution)` the machine will use, and the machine ignores
/// a certificate whose shape does not match its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictCertificate {
    /// Number of GPU CUs the footprints were grouped over.
    pub cus: usize,
    /// The block distribution policy the grouping assumed.
    pub distribution: BlockDistribution,
    /// One verdict per GPU phase, in program order.
    pub kernels: Vec<KernelCertificate>,
}

impl ConflictCertificate {
    /// Number of kernels whose word-granular verdict is disjoint.
    #[must_use]
    pub fn certified_kernels(&self) -> usize {
        self.kernels.iter().filter(|k| k.word_disjoint).count()
    }
}
