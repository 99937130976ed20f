//! Protocol verification layer for the stash reproduction.
//!
//! Five coordinated analyses guard the DeNovo coherence protocol the
//! timing model is built on (paper §4.3–§4.4):
//!
//! 1. [`model`] — an exhaustive **model checker** that enumerates every
//!    reachable protocol state of one word across N cores plus the LLC
//!    registry, driving loads, stores, evictions, self-invalidations,
//!    registration transfers, DMA fills, and lazy stash writebacks from
//!    reset via BFS. The registry is the simulator's own
//!    `mem::llc::Llc` cut down to one word, and self-invalidation is
//!    `WordState::after_self_invalidate`, so the checker explores the
//!    rules the memory system runs rather than a copy of them (for L1
//!    registrations; stash-map registrations are not modelled). It
//!    asserts the global invariants (single Registered owner,
//!    registry/owner agreement, the data-value invariant via a monotonic
//!    write timestamp, no lost writebacks) and prints a minimal
//!    counterexample event trace on violation. Mutation hooks, the only
//!    places the model overrides the LLC, deliberately break individual
//!    transitions to prove the checker actually catches each class of
//!    bug.
//! 2. The **runtime invariant oracle** in `gpu::memsys` (enabled with
//!    `MemorySystem::set_verify`, or `--verify` on the bench binaries)
//!    cross-checks the same invariants against the real L1/stash/LLC
//!    structures after every transition of a workload run, which covers
//!    the steps the model still states itself: revoking the old owner's
//!    copy, the eviction writeback and the forwarded read. The
//!    `oracle_matrix` integration test in this crate exercises it over
//!    the full Figure 5 matrix.
//! 3. [`dataflow`] — static **race and bounds checks** over the
//!    workload IR, before any simulation runs. One footprint walk
//!    ([`dataflow::footprint`]) turns ops into global words and feeds the
//!    race pass ([`dataflow::drf`]: cross-thread-block and cross-core CPU
//!    races, and CPU stale reads across unsynchronized GPU/CPU phase
//!    boundaries), the bounds pass ([`dataflow::oob`]: stash-map,
//!    allocation and AoS index expressions), the conflict certificates
//!    the parallel merge consumes, and the analyzer's reuse stream.
//! 4. [`analyze`] — a static **access-pattern analyzer** for the
//!    placement advisor over the same IR: word-granular reuse-distance
//!    analysis, static coalescing efficiency (via the machine's own
//!    coalescer), footprint-vs-capacity thrash notes, waste detection
//!    (dead stores, copy loops without reuse, redundant DMA), and the
//!    per-configuration counters program structure determines exactly,
//!    which must equal the simulator's. The advisor recommends the
//!    configuration with the lowest *measured* runtime.
//! 5. [`dse`] — the **design space** around the paper's machine:
//!    thousands of hardware [`DesignPoint`]s (mesh geometry, NoC
//!    latencies, LLC banking, stash-map capacity, latency and energy
//!    constants). The `dse` bin simulates every point, ranks them by
//!    measured runtime, and reads each dimension's sensitivity from the
//!    same simulated grid.
//!
//! DeNovo's guarantees hold only for data-race-free programs, so the
//! layers complement each other: the model checker proves the registry
//! and self-invalidation rules the simulator runs sound, the oracle
//! checks the steps between them on real runs, the race and bounds
//! checks prove the inputs satisfy the DRF precondition those proofs
//! assume (or name the data-dependent accesses they cannot decide),
//! and the analyzer explains each placement's access pattern and checks
//! the simulator's accounting of it, while the simulator alone says what
//! each placement costs.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod dataflow;
pub mod diag;
pub mod dse;
pub mod model;

pub use analyze::counts::ExactCounts;
pub use analyze::{
    analyze_workload, check_counts, measured_best, workload_notes, Analysis, Note, NoteKind,
};
pub use diag::{Diagnostic, Rule, Severity, Symbols};
pub use dse::{DesignPoint, Space};
pub use model::{check, CheckStats, Counterexample, Event, Mutation, MAX_VERSION};

use workloads::trace::TraceWorkload;

/// Builds a diagnostic symbol table from a trace workload's arrays.
pub fn symbols_for_trace(trace: &TraceWorkload) -> Symbols {
    let mut symbols = Symbols::new();
    for (name, array) in trace.arrays() {
        symbols.add(name, array.base, array.footprint_bytes());
    }
    symbols
}
