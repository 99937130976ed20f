//! Thread-sweep determinism for the parallel shard runner (DESIGN.md
//! §12): `Machine::run_parallel` must produce byte-identical reports,
//! stall breakdowns, and architectural-state digests for every thread
//! count — parallelism is a wall-clock optimization with zero
//! observable effect. The sweeps cover the full
//! Figure 5 matrix, the Figure 6 applications, and chaos (fault
//! injection) under parallelism.

use stash_repro::gpu::config::MemConfigKind;
use stash_repro::gpu::machine::{Machine, ParallelConfig};
use stash_repro::sim::fault::FaultConfig;
use stash_repro::workloads::suite::{self, Workload};

/// Everything observable from one cell: the report (counters, energy,
/// traffic, cycles), the per-CU stall breakdowns, the fault trace, and
/// the architectural-state digest.
fn fingerprint(
    workload: &Workload,
    kind: MemConfigKind,
    threads: usize,
    fault: Option<&FaultConfig>,
) -> String {
    let program = (workload.build)(kind);
    let mut machine = Machine::new(workload.set.system_config(), kind);
    machine.memory_mut().enable_trace(1 << 12);
    if let Some(cfg) = fault {
        machine.memory_mut().set_fault_injector(cfg.clone());
    }
    let outcome = machine.run_parallel(&program, &ParallelConfig::with_threads(threads));
    let digest = machine.memory().state_digest();
    let stalls = machine
        .memory()
        .trace()
        .map(|t| format!("{:?}", t.breakdowns()))
        .unwrap_or_default();
    let faults = machine
        .memory()
        .fault_injector()
        .map(|f| format!("{:?}", f.trace()))
        .unwrap_or_default();
    format!("report={outcome:?} digest={digest:#018x} stalls={stalls} faults={faults}")
}

/// Runs one cell at every thread count in `threads` and asserts each
/// reproduces the first count's fingerprint.
fn assert_invariant(workload: &Workload, kind: MemConfigKind, threads: &[usize]) {
    let (t0, rest) = threads.split_first().expect("non-empty sweep");
    let baseline = fingerprint(workload, kind, *t0, None);
    for &t in rest {
        let got = fingerprint(workload, kind, t, None);
        assert_eq!(
            baseline, got,
            "{} / {kind}: threads={t} diverged from threads={t0}",
            workload.name
        );
    }
}

/// The full Figure 5 matrix (4 microbenchmarks × 4 configurations),
/// swept over threads ∈ {1,2,4,8}.
#[test]
fn figure5_matrix_is_thread_invariant() {
    for workload in suite::micros() {
        for &kind in workload.set.figure_kinds() {
            assert_invariant(&workload, kind, &[1, 2, 4, 8]);
        }
    }
}

/// Every Figure 6 application cell, 1 vs 8 threads (the applications
/// run on the 15-CU configuration, where the shards genuinely
/// interleave).
#[test]
fn figure6_applications_are_thread_invariant() {
    for workload in suite::applications() {
        for &kind in workload.set.figure_kinds() {
            assert_invariant(&workload, kind, &[1, 8]);
        }
    }
}

/// Chaos under parallelism: with a fault schedule installed, the
/// per-shard injectors fork deterministically from `(kernel, cu)`, so
/// fault placement — and everything downstream of it: retries, repairs,
/// the fault trace, final state — is identical at every thread count.
#[test]
fn chaos_is_thread_invariant() {
    for seed in [1, 7, 23] {
        let cfg = FaultConfig::chaos(seed);
        for workload in [suite::micros()[0], suite::applications()[0]] {
            let baseline = fingerprint(&workload, MemConfigKind::Stash, 1, Some(&cfg));
            for threads in [2, 4, 8] {
                let got = fingerprint(&workload, MemConfigKind::Stash, threads, Some(&cfg));
                assert_eq!(
                    baseline, got,
                    "{} seed={seed}: chaos diverged at threads={threads}",
                    workload.name
                );
            }
        }
    }
}

/// The balanced distribution is itself deterministic: two identical
/// parallel runs (same threads) agree bit-for-bit.
#[test]
fn repeat_runs_are_reproducible() {
    let workload = suite::applications()[0];
    let a = fingerprint(&workload, MemConfigKind::StashG, 8, None);
    let b = fingerprint(&workload, MemConfigKind::StashG, 8, None);
    assert_eq!(a, b);
}
