//! Conflict-certificate end-to-end tests (DESIGN.md §13): the
//! `verify::dataflow` conflict pass certifies kernels, the machine's
//! staged-op merge consumes the certificate through its fast path, and
//! nothing observable may change — reports, stall breakdowns, and
//! architectural-state digests stay byte-identical to the uncertified
//! run on every Figure 5/6 matrix cell, at every thread count. The `--verify` dynamic footprint oracle cross-checks every
//! certified merge, and each deliberate `ConflictMutation` weakening of
//! the pass is proven to be *caught* by that oracle at runtime.

use stash_repro::gpu::config::MemConfigKind;
use stash_repro::gpu::machine::{BlockDistribution, Machine, ParallelConfig};
use stash_repro::gpu::program::{
    AllocId, DmaReq, Kernel, LocalAlloc, Phase, Program, Stage, ThreadBlock, WarpOp,
};
use stash_repro::mem::addr::VAddr;
use stash_repro::mem::tile::TileMap;
use stash_repro::sim::SimError;
use stash_repro::workloads::suite::{self, Workload};
use verify::dataflow::{certify, certify_mutated, ConflictMutation, MachineShape};

/// The machine shape a certificate must be produced for so the machine
/// accepts it: the workload set's CU count, the run's distribution
/// policy, and the configured line width.
fn shape_of(machine: &Machine, par: &ParallelConfig) -> MachineShape {
    MachineShape {
        cus: machine.memory().config().gpu_cus,
        distribution: par.distribution,
        line_words: machine.memory().config().words_per_line() as u64,
    }
}

/// Runs one matrix cell and returns everything observable (the report,
/// the state digest, and the stall breakdowns) plus how many kernel
/// merges took the certified fast path.
fn fingerprint(
    workload: &Workload,
    kind: MemConfigKind,
    threads: usize,
    certified: bool,
    verify: bool,
) -> (String, u64) {
    let program = (workload.build)(kind);
    let mut machine = Machine::new(workload.set.system_config(), kind);
    machine.memory_mut().enable_trace(1 << 12);
    machine.memory_mut().set_verify(verify);
    let par = ParallelConfig::with_threads(threads);
    if certified {
        let cert = certify(&program, &shape_of(&machine, &par));
        machine.set_certificate(cert);
    }
    let outcome = machine.run_parallel(&program, &par);
    let digest = machine.memory().state_digest();
    let stalls = machine
        .memory()
        .trace()
        .map(|t| format!("{:?}", t.breakdowns()))
        .unwrap_or_default();
    (
        format!("report={outcome:?} digest={digest:#018x} stalls={stalls}"),
        machine.certified_kernels(),
    )
}

/// Asserts that certified runs at every thread count in `threads`
/// reproduce the uncertified 1-thread fingerprint bit-for-bit; returns
/// the certified kernel-merge count observed (identical across counts).
fn assert_certified_invariant(workload: &Workload, kind: MemConfigKind, threads: &[usize]) -> u64 {
    let (baseline, _) = fingerprint(workload, kind, 1, false, false);
    let mut fast_merges = None;
    for &t in threads {
        let (got, certified) = fingerprint(workload, kind, t, true, false);
        assert_eq!(
            baseline, got,
            "{} / {kind}: certified run at threads={t} diverged from the uncertified baseline",
            workload.name
        );
        match fast_merges {
            None => fast_merges = Some(certified),
            Some(n) => assert_eq!(
                n, certified,
                "{} / {kind}: certified-merge count changed across thread counts",
                workload.name
            ),
        }
    }
    fast_merges.unwrap_or(0)
}

/// Full Figure 5 matrix (4 microbenchmarks × 4 configurations), every
/// certified thread count against the uncertified baseline. The
/// microbenchmark machine has a single CU, so every kernel is vacuously
/// disjoint: the fast path runs on *every* merge, and still nothing may
/// change.
#[test]
fn figure5_certified_matrix_is_byte_identical() {
    for workload in suite::micros() {
        for &kind in workload.set.figure_kinds() {
            let fast = assert_certified_invariant(&workload, kind, &[1, 2, 4, 8]);
            assert!(
                fast > 0,
                "{} / {kind}: single-CU kernels must all certify",
                workload.name
            );
        }
    }
}

/// Full Figure 6 application matrix on the 15-CU machine, at every
/// thread count. At least one application kernel must genuinely
/// certify — the fast path has to be exercised with real inter-CU
/// sharding, not only vacuously.
#[test]
fn figure6_certified_matrix_is_byte_identical() {
    let mut total_fast = 0;
    for workload in suite::applications() {
        for &kind in workload.set.figure_kinds() {
            total_fast += assert_certified_invariant(&workload, kind, &[1, 2, 4, 8]);
        }
    }
    assert!(
        total_fast > 0,
        "no application kernel certified on the 15-CU machine"
    );
}

/// The interleaved-tile applications are the reason the certificate
/// exists: `nw`'s per-CU column slices are provably disjoint by the
/// affine residue argument, so its merges take the fast path on the
/// multi-CU machine.
#[test]
fn nw_certifies_on_the_application_machine() {
    let workload = suite::by_name("nw").expect("nw is in the suite");
    let program = (workload.build)(MemConfigKind::Stash);
    let machine = Machine::new(workload.set.system_config(), MemConfigKind::Stash);
    let par = ParallelConfig::with_threads(1);
    let cert = certify(&program, &shape_of(&machine, &par));
    assert!(
        cert.certified_kernels() > 0,
        "nw's interleaved tiles should prove word-disjoint: {cert:?}"
    );
}

/// Certified runs *with the dynamic footprint oracle on*: the oracle
/// re-derives each certified kernel's claims from the actual staged
/// operations and must find zero violations. Covers the full Figure 5
/// matrix (every micro kernel certifies vacuously on the 1-CU machine)
/// plus `backprop` on the 15-CU machine, whose kernels all genuinely
/// certify across CUs. (The heavier applications run the same oracle in
/// the CI `--verify` advise job; under the invariant oracle they are too
/// slow for the unit suite.)
#[test]
fn certified_runs_pass_the_dynamic_oracle() {
    for workload in suite::micros() {
        for &kind in workload.set.figure_kinds() {
            let (_, fast) = fingerprint(&workload, kind, 4, true, true);
            assert!(fast > 0, "{} / {kind}: nothing certified", workload.name);
        }
    }
    let backprop = suite::by_name("backprop").expect("backprop is in the suite");
    for kind in [MemConfigKind::Stash, MemConfigKind::StashG] {
        let (_, fast) = fingerprint(&backprop, kind, 4, true, true);
        assert!(fast > 0, "backprop / {kind}: nothing certified");
    }
}

/// The aliasing diagnostic micro: every block coherently maps the same
/// lookup table, so stash *loads* register cross-CU and the kernel must
/// refuse certification on the multi-CU machine — and still run
/// byte-identically with the (useless) certificate installed.
#[test]
fn aliasing_micro_is_uncertifiable_but_runs_identically() {
    let workload = suite::by_name("aliasing").expect("aliasing extra registered");
    let program = (workload.build)(MemConfigKind::Stash);
    let machine = Machine::new(workload.set.system_config(), MemConfigKind::Stash);
    let par = ParallelConfig::with_threads(4);
    let cert = certify(&program, &shape_of(&machine, &par));
    assert_eq!(
        cert.certified_kernels(),
        0,
        "read-shared coherent tiles must not certify: {cert:?}"
    );
    let (baseline, _) = fingerprint(&workload, MemConfigKind::Stash, 1, false, false);
    let (got, fast) = fingerprint(&workload, MemConfigKind::Stash, 4, true, true);
    assert_eq!(
        baseline, got,
        "aliasing diverged under a refused certificate"
    );
    assert_eq!(fast, 0, "no merge may take the fast path uncertified");
}

// ---------------------------------------------------------------------
// Mutation tests: each deliberate weakening of the conflict pass must
// produce a *falsely* certifying certificate on an adversarial program,
// and the dynamic oracle must then catch the lie as a hard
// `SimError::CertificateViolation` at runtime.
// ---------------------------------------------------------------------

fn global_store_block(base: u64, words: u64) -> ThreadBlock {
    let mut tb = ThreadBlock::new();
    let mut stage = Stage::new(1);
    stage.warps[0] = vec![WarpOp::GlobalMem {
        write: true,
        lanes: (0..words).map(|w| VAddr(base + w * 4)).collect(),
    }];
    tb.stages.push(stage);
    tb
}

fn dma_store_block(tile: TileMap) -> ThreadBlock {
    let mut tb = ThreadBlock::new();
    tb.allocs.push(LocalAlloc {
        words: tile.local_words(),
    });
    let mut stage = Stage::new(1);
    stage.dmas.push(DmaReq {
        alloc: AllocId(0),
        tile,
        load: false,
        store: true,
    });
    tb.stages.push(stage);
    tb
}

fn one_kernel(blocks: Vec<ThreadBlock>) -> Program {
    Program {
        phases: vec![Phase::Gpu(Kernel { blocks })],
    }
}

/// Installs the mutated certificate and asserts the oracle aborts the
/// run with a certificate violation (while the honest pass refuses to
/// certify, and the same program runs fine without a certificate).
fn assert_oracle_catches(
    program: &Program,
    kind: MemConfigKind,
    mutation: ConflictMutation,
    line_grain: bool,
) {
    let sys = stash_repro::sim::config::SystemConfig {
        line_grain_registration: line_grain,
        ..stash_repro::sim::config::SystemConfig::for_applications()
    };
    let par = ParallelConfig::with_threads(2);
    let shape = MachineShape {
        cus: sys.gpu_cus,
        distribution: BlockDistribution::Balanced,
        line_words: sys.words_per_line() as u64,
    };

    let honest = certify(program, &shape);
    let lied = certify_mutated(program, &shape, Some(mutation));
    let verdict = |c: &stash_repro::gpu::ConflictCertificate| {
        if line_grain {
            c.kernels[0].line_disjoint
        } else {
            c.kernels[0].word_disjoint
        }
    };
    assert!(!verdict(&honest), "{mutation:?}: honest pass must refuse");
    assert!(
        verdict(&lied),
        "{mutation:?}: mutation must falsely certify"
    );

    // Control: without a certificate the contended program merges fine
    // through full reconciliation (races resolve by revocation).
    let mut clean = Machine::new(sys.clone(), kind);
    clean.memory_mut().set_verify(true);
    clean
        .run_parallel(program, &par)
        .expect("uncertified run is valid");

    // With the lying certificate installed, the oracle must abort the
    // merge before any state is corrupted.
    let mut machine = Machine::new(sys, kind);
    machine.memory_mut().set_verify(true);
    machine.set_certificate(lied);
    match machine.run_parallel(program, &par) {
        Err(SimError::CertificateViolation {
            first_cu,
            second_cu,
            ..
        }) => {
            assert_ne!(first_cu, second_cu, "{mutation:?}: distinct CUs");
        }
        other => panic!("{mutation:?}: expected a certificate violation, got {other:?}"),
    }
}

#[test]
fn oracle_catches_ignore_global_lanes() {
    // Two CUs store the same global words; forgetting the lanes makes
    // every footprint empty and vacuously disjoint.
    let p = one_kernel(vec![
        global_store_block(0x1000, 8),
        global_store_block(0x1000, 8),
    ]);
    assert_oracle_catches(
        &p,
        MemConfigKind::Cache,
        ConflictMutation::IgnoreGlobalLanes,
        false,
    );
}

#[test]
fn oracle_catches_drop_last_block() {
    // Dropping the second block's footprint leaves one active CU — a
    // vacuous proof the runtime immediately contradicts.
    let p = one_kernel(vec![
        global_store_block(0x2000, 8),
        global_store_block(0x2000, 8),
    ]);
    assert_oracle_catches(
        &p,
        MemConfigKind::Cache,
        ConflictMutation::DropLastBlock,
        false,
    );
}

#[test]
fn oracle_catches_word_verdict_for_lines() {
    // Two CUs store disjoint halves of one 64-byte line: word-disjoint,
    // line-shared. Under the line-granularity registration ablation each
    // store claims the *whole* line, so presenting the word verdict as
    // the line verdict is a lie the oracle sees on the first merge.
    let p = one_kernel(vec![
        global_store_block(0x3000, 8),
        global_store_block(0x3020, 8),
    ]);
    assert_oracle_catches(
        &p,
        MemConfigKind::Cache,
        ConflictMutation::WordVerdictForLines,
        true,
    );
}

#[test]
fn oracle_catches_ignore_dma() {
    // Two CUs DMA-store the same tile: the store-through claims clash.
    let tile = TileMap::new(VAddr(0x6000), 4, 4, 8, 0, 1).unwrap();
    let p = one_kernel(vec![dma_store_block(tile), dma_store_block(tile)]);
    assert_oracle_catches(
        &p,
        MemConfigKind::ScratchGD,
        ConflictMutation::IgnoreDma,
        false,
    );
}

#[test]
fn oracle_catches_shrink_tile_rows() {
    // Two-row tiles whose first rows are disjoint but whose second rows
    // land on the other block's territory: a single-row view of the
    // world proves disjointness the full tiles do not have.
    let rows = |base: u64| TileMap::new(VAddr(base), 4, 4, 4, 0x40, 2).unwrap();
    let p = one_kernel(vec![
        dma_store_block(rows(0x7000)),
        dma_store_block(rows(0x7040)),
    ]);
    assert_oracle_catches(
        &p,
        MemConfigKind::ScratchGD,
        ConflictMutation::ShrinkTileRows,
        false,
    );
}
