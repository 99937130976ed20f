//! CPU-side stash (the paper's §8 closing thought: "expand the stash
//! idea to other compute units (e.g., CPUs)").
//!
//! A GPU kernel updates one field of an AoS array through its stash; the
//! CPU cores then consume the fields. With plain caches, each CPU read
//! drags a 64-byte line through the L1 for 4 useful bytes; with CPU-side
//! stashes (`SystemConfig::cpu_stashes`) the cores map the fields
//! compactly and fetch word-granular. The example fails unless the CPU
//! stash moves fewer read flits than the CPU cache.
//!
//! ```text
//! cargo run --release --example cpu_stash
//! ```

use stash_repro::gpu::config::MemConfigKind;
use stash_repro::gpu::machine::Machine;
use stash_repro::gpu::program::{
    AllocId, CpuOp, CpuPhase, Kernel, LocalAlloc, MapReq, Phase, Program, Stage, ThreadBlock,
    WarpOp,
};
use stash_repro::mem::addr::VAddr;
use stash_repro::mem::tile::TileMap;
use stash_repro::sim::config::SystemConfig;
use stash_repro::stash::UsageMode;

const ELEMS: u64 = 4096;
const OBJECT: u64 = 64;
const CORES: usize = 15;

fn gpu_kernel() -> Kernel {
    let blocks = (0..ELEMS / 256)
        .map(|b| {
            let tile =
                TileMap::new(VAddr(0x1000_0000 + b * 256 * OBJECT), 4, OBJECT, 256, 0, 1).unwrap();
            let mut tb = ThreadBlock::new();
            tb.allocs.push(LocalAlloc { words: 256 });
            let mut stage = Stage::new(8);
            stage.maps.push(MapReq {
                slot: 0,
                alloc: AllocId(0),
                tile,
                mode: UsageMode::MappedCoherent,
            });
            for (w, ops) in stage.warps.iter_mut().enumerate() {
                let lanes: Vec<u32> = (0..32).map(|l| (w * 32 + l) as u32).collect();
                ops.push(WarpOp::Compute(4));
                ops.push(WarpOp::LocalMem {
                    write: true,
                    alloc: AllocId(0),
                    slot: 0,
                    lanes,
                });
            }
            tb.stages.push(stage);
            tb
        })
        .collect();
    Kernel { blocks }
}

fn cpu_phase(use_stash: bool) -> CpuPhase {
    let per = ELEMS / CORES as u64 + 1;
    let mut per_core = Vec::new();
    let mut stash_maps = Vec::new();
    for c in 0..CORES as u64 {
        let start = c * per;
        let end = ((c + 1) * per).min(ELEMS);
        if start >= end {
            break;
        }
        if use_stash {
            // Map this core's slice of fields compactly into its stash.
            stash_maps.push(vec![TileMap::new(
                VAddr(0x1000_0000 + start * OBJECT),
                4,
                OBJECT,
                end - start,
                0,
                1,
            )
            .unwrap()]);
            per_core.push(
                (0..(end - start) as u32)
                    .map(|w| CpuOp::StashMem {
                        write: false,
                        slot: 0,
                        word: w,
                    })
                    .collect(),
            );
        } else {
            per_core.push(
                (start..end)
                    .map(|e| CpuOp::Mem {
                        write: false,
                        vaddr: VAddr(0x1000_0000 + e * OBJECT),
                    })
                    .collect(),
            );
        }
    }
    CpuPhase {
        per_core,
        stash_maps,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "GPU writes {} fields (4 of every {} bytes); {} CPU cores consume them\n",
        ELEMS, OBJECT, CORES
    );
    println!(
        "{:<18}{:>12}{:>14}{:>14}",
        "CPU consumer", "cpu cycles", "read flits", "forwards"
    );
    let mut read_flits = Vec::new();
    for use_stash in [false, true] {
        let cfg = SystemConfig {
            cpu_stashes: use_stash,
            ..SystemConfig::for_microbenchmarks()
        };
        let mut machine = Machine::new(cfg, MemConfigKind::Stash);
        let program = Program {
            phases: vec![Phase::Gpu(gpu_kernel()), Phase::Cpu(cpu_phase(use_stash))],
        };
        let report = machine.run(&program)?;
        let flits = report.traffic.flits(stash_repro::noc::MsgClass::Read);
        println!(
            "{:<18}{:>12}{:>14}{:>14}",
            if use_stash { "CPU stash" } else { "CPU cache" },
            report.cpu_cycles,
            flits,
            report.counters.get("remote.forward") + report.counters.get("remote.self_forward"),
        );
        read_flits.push(flits);
    }
    println!("\n(the CPU stash maps only the 4-byte fields: no line fills, no L1");
    println!(" pollution on the consumer side — the §8 extension in action)");
    let (cache, stash) = (read_flits[0], read_flits[1]);
    if stash >= cache {
        return Err(
            format!("the CPU stash moved {stash} read flits, the CPU cache {cache}").into(),
        );
    }
    Ok(())
}
