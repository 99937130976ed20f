//! Abstract-interpretation dataflow framework over the workload IR.
//!
//! Where the access-pattern analyzer ([`crate::analyze`]) scores access
//! streams, this framework interprets a [`Program`] over symbolic
//! **abstract domains** — intervals and affine-stride span sets
//! ([`domain::AffineSpan`]), qualified by a taint lattice
//! ([`domain::Taint`]) that sends data-dependent index expressions to
//! ⊤ — and derives three client passes from one shared footprint
//! extraction ([`footprint`]):
//!
//! 1. [`conflict`] — proves per-(kernel, CU) footprints pairwise
//!    disjoint and emits a [`gpu::ConflictCertificate`]; the machine's
//!    staged-op merge uses it to skip per-word owner reconciliation, and
//!    the `--verify` dynamic oracle turns any broken promise into a
//!    hard `SimError::CertificateViolation`.
//! 2. [`oob`] — three-valued bounds verdicts: proven safe, proven out
//!    of bounds ([`crate::Rule::ProvenOob`]), or unknown because
//!    data-dependent ([`crate::Rule::DataDependentBounds`]).
//! 3. [`drf`] — the race rule: an exact per-word sweep over exact
//!    footprints ([`crate::Rule::ProvenRace`], with the conflicting
//!    range), the honest data-dependent middle ground
//!    ([`crate::Rule::DataDependentRace`]), and the CPU stale-read rule
//!    ([`crate::Rule::CpuStaleRead`]).
//!
//! [`oob`] and [`drf`] are the crate's only bounds and race checks, and
//! [`footprint`] is the only code that turns program ops into global
//! words, for them and for the advisor's reuse analysis
//! ([`crate::analyze::reuse::word_events`] reads the same walk, in
//! program order). All three passes report through the crate's unified
//! [`crate::Diagnostic`] type; [`dataflow_diagnostics`] runs the two
//! diagnostic passes together.
//!
//! [`Program`]: gpu::program::Program

pub mod conflict;
pub mod domain;
pub mod drf;
pub mod footprint;
pub mod oob;

pub use conflict::{certify, certify_mutated, ConflictMutation, MachineShape};
pub use domain::{AffineSet, AffineSpan, Interval, Taint};
pub use drf::check_races;
pub use footprint::{block_footprint, BlockFootprint};
pub use oob::{check_bounds, BoundsSummary, BoundsVerdict};

use crate::diag::{Diagnostic, Symbols};
use gpu::program::Program;

/// Runs the bounds and race passes, returning their diagnostics merged
/// (bounds first) plus the bounds verdict tally.
#[must_use]
pub fn dataflow_diagnostics(
    program: &Program,
    symbols: &Symbols,
) -> (Vec<Diagnostic>, BoundsSummary) {
    let (mut diags, summary) = check_bounds(program, symbols);
    diags.extend(check_races(program, symbols));
    (diags, summary)
}
