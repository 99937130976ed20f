//! End-to-end resilience tests (DESIGN.md §9): stash-allocation
//! fallback equivalence and the no-progress watchdog.

use stash_repro::gpu::config::MemConfigKind;
use stash_repro::gpu::machine::{Machine, RunCursor};
use stash_repro::gpu::program::{
    AllocId, Kernel, LocalAlloc, MapReq, Phase, Program, Stage, ThreadBlock, WarpOp,
};
use stash_repro::mem::addr::VAddr;
use stash_repro::mem::tile::TileMap;
use stash_repro::sim::config::SystemConfig;
use stash_repro::sim::fault::FaultConfig;
use stash_repro::sim::SimError;
use stash_repro::stash::UsageMode;
use stash_repro::workloads::suite;

const ELEMS: u64 = 8192; // 32 KB of words — twice the 16 KB stash
const WORD_BYTES: u64 = 4;

fn tile() -> TileMap {
    TileMap::new(VAddr(0x1000_0000), 4, 32, ELEMS, 0, 1).unwrap()
}

/// A kernel whose single stash allocation cannot fit: every `LocalMem`
/// access must degrade to the cache path.
fn oversized_local_program() -> Program {
    let mut tb = ThreadBlock::new();
    tb.allocs.push(LocalAlloc { words: ELEMS });
    let mut stage = Stage::new(8);
    stage.maps.push(MapReq {
        slot: 0,
        alloc: AllocId(0),
        tile: tile(),
        mode: UsageMode::MappedCoherent,
    });
    for (w, ops) in stage.warps.iter_mut().enumerate() {
        let lanes: Vec<u32> = (0..32).map(|l| (w * 32 + l) as u32).collect();
        ops.push(WarpOp::LocalMem {
            write: false,
            alloc: AllocId(0),
            slot: 0,
            lanes: lanes.clone(),
        });
        ops.push(WarpOp::LocalMem {
            write: true,
            alloc: AllocId(0),
            slot: 0,
            lanes,
        });
    }
    tb.stages.push(stage);
    Program {
        phases: vec![Phase::Gpu(Kernel { blocks: vec![tb] })],
    }
}

/// The same accesses written directly against global memory — what the
/// Cache configuration runs natively, and what the degraded stash run
/// must be equivalent to.
fn global_golden_program() -> Program {
    let t = tile();
    let mut tb = ThreadBlock::new();
    let mut stage = Stage::new(8);
    for (w, ops) in stage.warps.iter_mut().enumerate() {
        let lanes: Vec<VAddr> = (0..32)
            .map(|l| t.virt_of_local_offset((w as u64 * 32 + l) * WORD_BYTES))
            .collect();
        ops.push(WarpOp::GlobalMem {
            write: false,
            lanes: lanes.clone(),
        });
        ops.push(WarpOp::GlobalMem { write: true, lanes });
    }
    tb.stages.push(stage);
    Program {
        phases: vec![Phase::Gpu(Kernel { blocks: vec![tb] })],
    }
}

#[test]
fn stash_fallback_final_memory_matches_cache_golden() {
    let mut degraded = Machine::new(SystemConfig::for_microbenchmarks(), MemConfigKind::Stash);
    let degraded_report = degraded.run(&oversized_local_program()).unwrap();

    // The allocation did not fit and the machinery noticed.
    assert_eq!(degraded_report.counters.get("stash.addmap"), 0);
    assert_eq!(degraded_report.counters.get("resilience.stash_fallback"), 1);
    assert!(degraded_report.counters.get("resilience.fallback_tx") > 0);

    let mut golden = Machine::new(SystemConfig::for_microbenchmarks(), MemConfigKind::Cache);
    let golden_report = golden.run(&global_golden_program()).unwrap();

    // Same transaction stream through the cache hierarchy…
    for counter in ["gpu.l1.load_tx", "gpu.l1.store_tx", "dram.line_fetch"] {
        assert_eq!(
            degraded_report.counters.get(counter),
            golden_report.counters.get(counter),
            "fallback and golden disagree on {counter}"
        );
    }
    // …and identical final memory: the registry and LLC residency the
    // cache-config golden produced, word for word.
    assert_eq!(
        degraded.memory().llc().registered_words(),
        golden.memory().llc().registered_words()
    );
    assert_eq!(
        degraded.memory().llc().resident_line_addrs(),
        golden.memory().llc().resident_line_addrs()
    );
}

#[test]
fn watchdog_surfaces_deadlock_with_diagnostic_dump() {
    // Every message dropped: the retry budget must run dry and trip the
    // watchdog — never hang, never return Ok. The budget is a constant,
    // not part of the schedule, so a machine resumed from a snapshot
    // taken before the first phase gives up after the same attempts.
    let mut cfg = FaultConfig::chaos(1);
    cfg.drop_per_mille = 1000;
    let w = suite::micros()[0];
    let program = (w.build)(MemConfigKind::Stash);
    let mut machine = Machine::new(w.set.system_config(), MemConfigKind::Stash);
    machine.memory_mut().set_fault_injector(cfg);
    let snap = machine.checkpoint(&program, RunCursor::default());
    let (mut resumed, mut cursor) = Machine::resume(&snap, &program).expect("snapshot resumes");
    let runs = [
        machine.run(&program),
        resumed.run_from(&program, None, &mut cursor, |_, _| Ok(())),
    ];
    for run in runs {
        match run {
            Err(SimError::Deadlock {
                site,
                attempts,
                dump,
            }) => {
                assert!(!site.is_empty());
                assert_eq!(attempts, 9, "the first attempt and 8 retries");
                assert!(
                    dump.contains(site),
                    "diagnostic dump must name the stuck site: {dump}"
                );
            }
            other => panic!("expected a watchdog deadlock, got {other:?}"),
        }
    }
}

#[test]
fn first_drop_trips_watchdog_without_resilience() {
    let mut cfg = FaultConfig::chaos(1).without_resilience();
    cfg.drop_per_mille = 1000;
    let w = suite::micros()[0];
    let mut machine = Machine::new(w.set.system_config(), MemConfigKind::Stash);
    machine.memory_mut().set_fault_injector(cfg);
    match machine.run(&(w.build)(MemConfigKind::Stash)) {
        Err(SimError::Deadlock { attempts, dump, .. }) => {
            assert_eq!(attempts, 1, "non-resilient drop must fail-stop at once");
            assert!(!dump.is_empty());
        }
        other => panic!("expected a watchdog deadlock, got {other:?}"),
    }
}
