//! GPU compute-unit timing model.
//!
//! A CU runs thread blocks in waves: up to `max_blocks_per_cu` (8)
//! resident blocks, further limited by local-memory capacity. Within a
//! wave, all resident warps interleave on a single-issue pipeline: the
//! scheduler always issues the ready warp with the earliest ready time,
//! each instruction occupies the issue/L1 port, and a warp's next
//! instruction waits for its previous one to complete (in-order per
//! warp). Latency hiding therefore falls out naturally — while one warp
//! waits on a miss, others issue.
//!
//! A thread block's [`Stage`]s are barriers (`__syncthreads`): all of its
//! warps finish a stage before the next stage's mapping setup (AddMap on
//! a slot's first binding, ChgMap on rebinding) and DMA transfers run.
//! DMA transfers block at *core* granularity per the paper's D2MA
//! adaptation — they occupy the shared issue port, stalling every
//! resident warp.

use crate::coalescer::Coalescer;
use crate::config::MemConfigKind;
use crate::memsys::MemorySystem;
use crate::program::{Stage, ThreadBlock, WarpOp};
use mem::tile::TileMap;
use sim::trace::{StallReason, TraceEvent};
use sim::SimError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cycle attribution of one executed op, for the stall-attribution
/// trace. Computed unconditionally (trivial arithmetic); consumed only
/// when tracing is enabled.
struct OpTrace {
    /// Issue cycles beyond the first that a coalesced memory op spent
    /// serializing its extra transactions.
    serial: u64,
    /// Issue cycles the NoC injection port was the bottleneck
    /// (transaction occupancy).
    backpressure: u64,
    /// What the warp waits on until this op's result is ready — the
    /// reason charged to the next scheduling gap it causes.
    next: StallReason,
}

/// Per-thread-block runtime state during a wave.
struct BlockCtx {
    tb_id: usize,
    /// Base (scratchpad bytes or stash words) per allocation. An
    /// allocation the wave allocator could not fit carries the sentinel
    /// base `capacity_words` (no valid base can equal it) — its mapped
    /// accesses degrade to the cache path.
    alloc_bases: Vec<usize>,
    /// Which map slots are already bound (AddMap done; later = ChgMap).
    bound_slots: Vec<bool>,
    /// Tiles for slots that degraded to the cache path because the stash
    /// could not allocate (wave overflow, full map table/chunk ring).
    fallback_tiles: Vec<Option<TileMap>>,
    /// Once any AddMap has degraded, all later AddMaps of this block do
    /// too — binding a subset would skew the stash's slot numbering
    /// against the program's declared slots.
    degraded: bool,
    /// Current stage index.
    stage: usize,
    /// Warps still running in the current stage.
    warps_left: usize,
    /// Latest completion time seen in the current stage.
    stage_end: u64,
}

/// Runs `blocks` (already assigned to CU `cu`) to completion and returns
/// the cycles consumed.
///
/// # Errors
///
/// Propagates allocation-overflow and invalid-mapping errors, and rejects
/// programs whose ops do not match the machine's configuration (e.g. a
/// `LocalMem` op on the Cache configuration).
pub fn run_cu_blocks(
    mem: &mut MemorySystem,
    cu: usize,
    blocks: &[(usize, &ThreadBlock)],
) -> Result<u64, SimError> {
    let kind = mem.kind();
    let max_blocks = mem.config().max_blocks_per_cu;
    let chunk_words = mem.config().stash_chunk_bytes / 4;
    let capacity_words = mem.config().scratchpad_bytes / 4;

    // Wave formation: occupancy-limited and local-capacity-limited.
    let block_words = |b: &ThreadBlock| -> usize {
        b.allocs
            .iter()
            .map(|a| (a.words as usize).next_multiple_of(chunk_words))
            .sum()
    };
    let mut waves: Vec<&[(usize, &ThreadBlock)]> = Vec::new();
    let mut start = 0;
    while start < blocks.len() {
        let mut end = start;
        let mut words = 0usize;
        while end < blocks.len() && end - start < max_blocks.max(1) {
            let w = block_words(blocks[end].1);
            if end > start && words + w > capacity_words {
                break;
            }
            words += w;
            end += 1;
        }
        waves.push(&blocks[start..end]);
        start = end;
    }

    // One coalescer buffer for every warp this CU issues.
    let mut coalescer = Coalescer::default();
    let mut cycle = 0u64;
    for wave in waves {
        cycle = run_wave(
            mem,
            &mut coalescer,
            cu,
            kind,
            chunk_words,
            capacity_words,
            wave,
            cycle,
        )?;
    }
    Ok(cycle)
}

#[allow(clippy::too_many_arguments)]
fn run_wave(
    mem: &mut MemorySystem,
    coalescer: &mut Coalescer,
    cu: usize,
    kind: MemConfigKind,
    chunk_words: usize,
    capacity_words: usize,
    wave: &[(usize, &ThreadBlock)],
    wave_start: u64,
) -> Result<u64, SimError> {
    // ---- Allocations. ----
    mem.scratch_free_all(cu);
    let mut stash_next_word = 0usize;
    let mut ctxs: Vec<BlockCtx> = Vec::with_capacity(wave.len());
    for &(tb_id, block) in wave {
        let mut alloc_bases = Vec::with_capacity(block.allocs.len());
        for alloc in &block.allocs {
            let base = if kind.uses_scratchpad() {
                mem.scratch_alloc(cu, alloc.words as usize * 4)?
            } else if kind.uses_stash() {
                let words = (alloc.words as usize).next_multiple_of(chunk_words);
                if stash_next_word + words > capacity_words {
                    // Graceful degradation: no stash space left for this
                    // allocation. Mark it with the sentinel base; mapped
                    // accesses re-issue down the plain cache path instead
                    // of aborting the run.
                    capacity_words
                } else {
                    let base = stash_next_word;
                    stash_next_word = base + words;
                    base
                }
            } else {
                0 // Cache configuration: allocations unused.
            };
            alloc_bases.push(base);
        }
        let max_slot = block
            .stages
            .iter()
            .flat_map(|s| s.maps.iter())
            .map(|m| m.slot + 1)
            .max()
            .unwrap_or(0);
        ctxs.push(BlockCtx {
            tb_id,
            alloc_bases,
            bound_slots: vec![false; max_slot],
            fallback_tiles: vec![None; max_slot],
            degraded: false,
            stage: 0,
            warps_left: 0,
            stage_end: wave_start,
        });
    }

    // ---- Staged, interleaved execution. ----
    let mut port_free = wave_start;
    let mut heap: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();
    let mut cursors: Vec<Vec<usize>> = wave.iter().map(|_| Vec::new()).collect();
    // What each warp is waiting on while queued (stall attribution for
    // the gap between the port going idle and the warp issuing).
    let mut pendings: Vec<Vec<StallReason>> = wave.iter().map(|_| Vec::new()).collect();
    let mut wave_end = wave_start;
    let mut done_blocks = 0usize;
    let tracing = mem.trace_enabled();

    // Launch every block's first runnable stage.
    for (bi, (_, block)) in wave.iter().enumerate() {
        if launch_until_runnable(
            mem,
            cu,
            kind,
            &mut ctxs[bi],
            block,
            &mut cursors[bi],
            &mut pendings[bi],
            &mut heap,
            bi,
            &mut port_free,
        )? {
            mem.end_thread_block(cu, ctxs[bi].tb_id);
            done_blocks += 1;
        }
    }

    while let Some(Reverse((ready, bi, wi))) = heap.pop() {
        let (_, block) = wave[bi];
        let stage = &block.stages[ctxs[bi].stage];
        let op = &stage.warps[wi][cursors[bi][wi]];
        let start = ready.max(port_free);
        if tracing {
            // The port idled from `port_free` to `start` waiting on
            // whatever the issuing warp's previous op left pending.
            if start > port_free {
                let reason = pendings[bi][wi];
                mem.trace_stall(cu, reason, start - port_free);
                let tb = ctxs[bi].tb_id as u32;
                mem.trace_with(|t| {
                    let (b, e) = (t.abs(port_free), t.abs(start));
                    let (cu, warp) = (cu as u32, wi as u32);
                    t.push(TraceEvent::StallBegin {
                        cu,
                        tb,
                        warp,
                        at: b,
                        reason,
                    });
                    t.push(TraceEvent::StallEnd {
                        cu,
                        tb,
                        warp,
                        at: e,
                        reason,
                    });
                });
            }
        }
        // Stamp the issue cycle unconditionally: it orders staged ops in
        // the staged-op merge and doubles as the trace clock when tracing.
        mem.set_now(start);
        let (issue_cycles, latency, tr) = execute_op(mem, coalescer, cu, kind, &ctxs[bi], op)?;
        if tracing {
            mem.trace_stall(
                cu,
                StallReason::Issue,
                issue_cycles - tr.serial - tr.backpressure,
            );
            mem.trace_stall(cu, StallReason::CoalescerSerial, tr.serial);
            mem.trace_stall(cu, StallReason::NocBackpressure, tr.backpressure);
            let tb = ctxs[bi].tb_id as u32;
            mem.trace_with(|t| {
                let at = t.abs(start);
                t.push(TraceEvent::WarpIssue {
                    cu: cu as u32,
                    tb,
                    warp: wi as u32,
                    at,
                    issue: issue_cycles,
                    latency,
                });
            });
        }
        pendings[bi][wi] = tr.next;
        port_free = start + issue_cycles;
        let done = start + issue_cycles + latency;
        cursors[bi][wi] += 1;
        ctxs[bi].stage_end = ctxs[bi].stage_end.max(done);
        wave_end = wave_end.max(done);
        if cursors[bi][wi] < stage.warps[wi].len() {
            heap.push(Reverse((done, bi, wi)));
            continue;
        }
        // This warp finished the stage.
        ctxs[bi].warps_left -= 1;
        if ctxs[bi].warps_left > 0 {
            continue;
        }
        // Barrier reached: DMA stores of the finished stage, then advance.
        finish_stage_dma(mem, cu, kind, block, ctxs[bi].stage, &mut port_free)?;
        ctxs[bi].stage += 1;
        if launch_until_runnable(
            mem,
            cu,
            kind,
            &mut ctxs[bi],
            block,
            &mut cursors[bi],
            &mut pendings[bi],
            &mut heap,
            bi,
            &mut port_free,
        )? {
            mem.end_thread_block(cu, ctxs[bi].tb_id);
            done_blocks += 1;
        }
        wave_end = wave_end.max(port_free);
    }
    debug_assert_eq!(done_blocks, wave.len());
    let end = wave_end.max(port_free);
    // End-of-wave drain: the port is free but in-flight results are
    // still completing. Attributed so the per-CU decomposition tiles
    // [wave_start, end] exactly.
    mem.trace_stall(cu, StallReason::Drain, end - port_free);
    Ok(end)
}

/// Advances a block through its stages until one has runnable warps
/// (registering them with the scheduler) or the block ends. Returns
/// `true` when the block has completed all stages.
#[allow(clippy::too_many_arguments)]
fn launch_until_runnable(
    mem: &mut MemorySystem,
    cu: usize,
    kind: MemConfigKind,
    ctx: &mut BlockCtx,
    block: &ThreadBlock,
    cursors: &mut Vec<usize>,
    pendings: &mut Vec<StallReason>,
    heap: &mut BinaryHeap<Reverse<(u64, usize, usize)>>,
    bi: usize,
    port_free: &mut u64,
) -> Result<bool, SimError> {
    loop {
        if ctx.stage >= block.stages.len() {
            return Ok(true);
        }
        let stage = &block.stages[ctx.stage];
        start_stage(mem, cu, kind, ctx, stage, port_free)?;
        let at = ctx.stage_end.max(*port_free);
        let runnable = stage.warps.iter().filter(|w| !w.is_empty()).count();
        if runnable > 0 {
            cursors.clear();
            cursors.resize(stage.warps.len(), 0);
            // Fresh warps wait on the stage barrier until first issue.
            pendings.clear();
            pendings.resize(stage.warps.len(), StallReason::Barrier);
            ctx.warps_left = runnable;
            ctx.stage_end = at;
            for (wi, ops) in stage.warps.iter().enumerate() {
                if !ops.is_empty() {
                    heap.push(Reverse((at, bi, wi)));
                }
            }
            return Ok(false);
        }
        // Setup-only stage: run its store DMAs and move on.
        finish_stage_dma(mem, cu, kind, block, ctx.stage, port_free)?;
        ctx.stage += 1;
    }
}

/// Runs a stage's mapping setup and DMA preloads.
fn start_stage(
    mem: &mut MemorySystem,
    cu: usize,
    kind: MemConfigKind,
    ctx: &mut BlockCtx,
    stage: &Stage,
    port_free: &mut u64,
) -> Result<(), SimError> {
    if kind.uses_stash() {
        let capacity_words = mem.config().scratchpad_bytes / 4;
        for req in &stage.maps {
            if ctx.bound_slots[req.slot] {
                mem.stash_chg_map(cu, ctx.tb_id, req.slot, req.tile, req.mode)?;
            } else if ctx.degraded || ctx.alloc_bases[req.alloc.0] >= capacity_words {
                // Graceful degradation: either the wave allocator had no
                // room for this allocation (sentinel base) or an earlier
                // AddMap of this block already degraded — binding only a
                // subset would skew the stash's slot numbering against
                // the program's declared slots. Remember the tile so the
                // slot's accesses take the plain cache path.
                ctx.fallback_tiles[req.slot] = Some(req.tile);
                ctx.degraded = true;
                mem.note_stash_fallback();
            } else {
                match mem.stash_add_map(
                    cu,
                    ctx.tb_id,
                    req.tile,
                    ctx.alloc_bases[req.alloc.0],
                    req.mode,
                ) {
                    Ok(out) => {
                        debug_assert_eq!(
                            out.slot, req.slot,
                            "slots must bind in declaration order"
                        );
                        ctx.bound_slots[req.slot] = true;
                    }
                    // Structure exhaustion (full map table / chunk ring)
                    // degrades to the cache path instead of killing the
                    // run; real errors still propagate.
                    Err(SimError::TableFull { .. } | SimError::OutOfRange { .. }) => {
                        ctx.fallback_tiles[req.slot] = Some(req.tile);
                        ctx.degraded = true;
                        mem.note_stash_fallback();
                    }
                    Err(e) => return Err(e),
                }
            }
            // One AddMap/ChgMap instruction per call (§3.1, Figure 1b).
            mem.note_gpu_instructions(1);
            // §8 extension: AddMap-time prefetch blocks like a DMA
            // preload.
            if mem.config().stash_prefetch {
                if let Some(map) = mem.stash_resolve_slot(cu, ctx.tb_id, req.slot) {
                    mem.set_now(*port_free);
                    let lat = mem.stash_prefetch_mapping(cu, map)?;
                    mem.trace_stall(cu, StallReason::StashMapRing, lat);
                    *port_free += lat;
                }
            }
        }
    }
    if kind.uses_dma() {
        for req in &stage.dmas {
            if req.load {
                let warps = stage.warps.len().max(1) as u64;
                mem.note_gpu_instructions(warps);
                // Core-granularity blocking: occupy the shared port.
                mem.set_now(*port_free);
                let lat = mem.dma_transfer(cu, &req.tile, false)?;
                mem.trace_stall(cu, StallReason::DmaWait, lat);
                *port_free += lat;
            }
        }
    }
    Ok(())
}

/// Runs a finished stage's DMA writebacks.
fn finish_stage_dma(
    mem: &mut MemorySystem,
    cu: usize,
    kind: MemConfigKind,
    block: &ThreadBlock,
    stage: usize,
    port_free: &mut u64,
) -> Result<(), SimError> {
    if kind.uses_dma() {
        for req in &block.stages[stage].dmas {
            if req.store {
                let warps = block.stages[stage].warps.len().max(1) as u64;
                mem.note_gpu_instructions(warps);
                mem.set_now(*port_free);
                let lat = mem.dma_transfer(cu, &req.tile, true)?;
                mem.trace_stall(cu, StallReason::DmaWait, lat);
                *port_free += lat;
            }
        }
    }
    Ok(())
}

/// Executes one warp op; returns `(issue_cycles, completion_latency)`
/// plus the issue-cycle decomposition for the stall trace.
fn execute_op(
    mem: &mut MemorySystem,
    coalescer: &mut Coalescer,
    cu: usize,
    kind: MemConfigKind,
    ctx: &BlockCtx,
    op: &WarpOp,
) -> Result<(u64, u64, OpTrace), SimError> {
    // Latency past the L1-hit cost means the warp is waiting on an
    // outstanding miss; stash latency past the miss-translation cost
    // means a chunk fetch is in flight.
    let l1_hit_cycles = mem.config().l1_hit_cycles;
    let miss_reason = move |lat: u64| {
        if lat > l1_hit_cycles {
            StallReason::MshrWait
        } else {
            StallReason::Scoreboard
        }
    };
    let compute_trace = OpTrace {
        serial: 0,
        backpressure: 0,
        next: StallReason::Scoreboard,
    };
    match op {
        WarpOp::Compute(n) => {
            let n = u64::from(*n);
            mem.note_gpu_instructions(n);
            Ok((n, 0, compute_trace))
        }
        WarpOp::GlobalMem { write, lanes } => {
            mem.note_gpu_instructions(1);
            let txs = coalescer.coalesce(lanes, mem.config().line_bytes as u64);
            let mut lat = 0u64;
            let mut occupancy = 0u64;
            for tx in txs {
                let cost = mem.gpu_global_tx(cu, *write, tx)?;
                lat = lat.max(cost.latency);
                occupancy += cost.occupancy;
            }
            let slots = txs.len().max(1) as u64;
            Ok((
                slots + occupancy,
                lat,
                OpTrace {
                    serial: slots - 1,
                    backpressure: occupancy,
                    next: miss_reason(lat),
                },
            ))
        }
        WarpOp::LocalMem {
            write,
            alloc,
            slot,
            lanes,
        } => {
            mem.note_gpu_instructions(1);
            let base = *ctx.alloc_bases.get(alloc.0).ok_or_else(|| {
                SimError::InvalidMapping(format!("allocation {} not declared", alloc.0))
            })?;
            if kind.uses_stash() {
                // An unbound slot means the allocation carries no global
                // mapping — §3.3's Temporary / Global-unmapped modes, in
                // which the stash degrades gracefully to a scratchpad.
                match mem.stash_resolve_slot(cu, ctx.tb_id, *slot) {
                    Some(map) => {
                        let cost = mem.stash_tx(cu, *write, base, lanes, map)?;
                        let next = if cost.latency > mem.config().stash_translation_cycles {
                            StallReason::StashFetch
                        } else {
                            StallReason::Scoreboard
                        };
                        Ok((
                            1 + cost.occupancy,
                            cost.latency,
                            OpTrace {
                                serial: 0,
                                backpressure: cost.occupancy,
                                next,
                            },
                        ))
                    }
                    None => {
                        if let Some(tile) = ctx.fallback_tiles.get(*slot).copied().flatten() {
                            // Degraded slot: re-issue through the plain
                            // cache hierarchy using the tile's mapping.
                            let cost = mem.stash_fallback_tx(cu, *write, &tile, lanes)?;
                            Ok((
                                1 + cost.occupancy,
                                cost.latency,
                                OpTrace {
                                    serial: 0,
                                    backpressure: cost.occupancy,
                                    next: miss_reason(cost.latency),
                                },
                            ))
                        } else if base >= mem.config().scratchpad_bytes / 4 {
                            // Oversized allocation with no global mapping:
                            // nowhere to degrade to.
                            Err(SimError::OutOfRange {
                                what: "stash wave allocation",
                                offset: base,
                                size: mem.config().scratchpad_bytes / 4,
                            })
                        } else {
                            let lat = mem.stash_raw_tx(cu, base, lanes);
                            Ok((1, lat, compute_trace))
                        }
                    }
                }
            } else if kind.uses_scratchpad() {
                let lat = mem.scratch_tx(cu, base, lanes);
                Ok((1, lat, compute_trace))
            } else {
                Err(SimError::InvalidMapping(format!(
                    "LocalMem op on configuration {kind} with no local memory"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{AllocId, LocalAlloc, MapReq, Stage};
    use mem::addr::VAddr;
    use mem::tile::TileMap;
    use sim::config::SystemConfig;
    use stash::UsageMode;

    fn memsys(kind: MemConfigKind) -> MemorySystem {
        MemorySystem::new(SystemConfig::for_microbenchmarks(), kind)
    }

    fn stash_block(elems: u64) -> ThreadBlock {
        let tile = TileMap::new(VAddr(0x10000), 4, 16, elems, 0, 1).unwrap();
        let mut tb = ThreadBlock::new();
        tb.allocs.push(LocalAlloc { words: elems });
        let mut stage = Stage::new(1);
        stage.maps.push(MapReq {
            slot: 0,
            alloc: AllocId(0),
            tile,
            mode: UsageMode::MappedCoherent,
        });
        stage.warps[0] = vec![
            WarpOp::LocalMem {
                write: false,
                alloc: AllocId(0),
                slot: 0,
                lanes: (0..32).collect(),
            },
            WarpOp::LocalMem {
                write: true,
                alloc: AllocId(0),
                slot: 0,
                lanes: (0..32).collect(),
            },
        ];
        tb.stages.push(stage);
        tb
    }

    #[test]
    fn stash_block_runs_and_counts() {
        let mut m = memsys(MemConfigKind::Stash);
        let tb = stash_block(64);
        let cycles = run_cu_blocks(&mut m, 0, &[(0, &tb)]).unwrap();
        assert!(cycles > 0);
        // 1 AddMap + 2 memory instructions.
        assert_eq!(m.gpu_instructions(), 3);
        assert_eq!(m.counters().get("stash.addmap"), 1);
    }

    #[test]
    fn rebinding_a_slot_is_chgmap() {
        let tile1 = TileMap::new(VAddr(0x10000), 4, 16, 32, 0, 1).unwrap();
        let tile2 = TileMap::new(VAddr(0x20000), 4, 16, 32, 0, 1).unwrap();
        let mut tb = ThreadBlock::new();
        tb.allocs.push(LocalAlloc { words: 32 });
        for tile in [tile1, tile2] {
            let mut stage = Stage::new(1);
            stage.maps.push(MapReq {
                slot: 0,
                alloc: AllocId(0),
                tile,
                mode: UsageMode::MappedCoherent,
            });
            stage.warps[0] = vec![WarpOp::LocalMem {
                write: false,
                alloc: AllocId(0),
                slot: 0,
                lanes: (0..32).collect(),
            }];
            tb.stages.push(stage);
        }
        let mut m = memsys(MemConfigKind::Stash);
        run_cu_blocks(&mut m, 0, &[(0, &tb)]).unwrap();
        assert_eq!(m.counters().get("stash.addmap"), 1);
        assert_eq!(m.counters().get("stash.chgmap"), 1);
        // Both tiles' words were fetched: the remap invalidated the range.
        assert_eq!(m.counters().get("stash.fetch_words"), 64);
    }

    #[test]
    fn warps_hide_latency() {
        // Two warps issuing independent misses should take far less than
        // twice one warp's time.
        let mk = |warp_count: usize| {
            let mut tb = ThreadBlock::new();
            let mut stage = Stage::new(warp_count);
            for wi in 0..warp_count {
                stage.warps[wi] = vec![WarpOp::GlobalMem {
                    write: false,
                    lanes: vec![VAddr(0x1000 + wi as u64 * 0x8000)],
                }];
            }
            tb.stages.push(stage);
            tb
        };
        let mut m1 = memsys(MemConfigKind::Cache);
        let one = run_cu_blocks(&mut m1, 0, &[(0, &mk(1))]).unwrap();
        let mut m2 = memsys(MemConfigKind::Cache);
        let two = run_cu_blocks(&mut m2, 0, &[(1, &mk(2))]).unwrap();
        assert!(two < one * 2, "two warps ({two}) vs one ({one})");
    }

    #[test]
    fn stages_are_barriers() {
        // Warp 1's stage-2 op cannot start before warp 0's long stage-1
        // compute finishes.
        let mut tb = ThreadBlock::new();
        let mut s1 = Stage::new(2);
        s1.warps[0] = vec![WarpOp::Compute(500)];
        s1.warps[1] = vec![WarpOp::Compute(1)];
        let mut s2 = Stage::new(2);
        s2.warps[1] = vec![WarpOp::Compute(1)];
        tb.stages.push(s1);
        tb.stages.push(s2);
        let mut m = memsys(MemConfigKind::Cache);
        let cycles = run_cu_blocks(&mut m, 0, &[(0, &tb)]).unwrap();
        assert!(cycles >= 502, "barrier must serialize stages: {cycles}");
    }

    #[test]
    fn local_op_on_cache_config_errors() {
        let mut tb = ThreadBlock::new();
        tb.allocs.push(LocalAlloc { words: 32 });
        let mut stage = Stage::new(1);
        stage.warps[0] = vec![WarpOp::LocalMem {
            write: false,
            alloc: AllocId(0),
            slot: 0,
            lanes: vec![0],
        }];
        tb.stages.push(stage);
        let mut m = memsys(MemConfigKind::Cache);
        assert!(run_cu_blocks(&mut m, 0, &[(0, &tb)]).is_err());
    }

    #[test]
    fn dma_blocks_the_whole_core() {
        // Two blocks in one wave; one carries a DMA preload. The other's
        // warps cannot start before the transfer completes (the shared
        // port is occupied).
        let tile = TileMap::new(VAddr(0x10000), 4, 16, 512, 0, 1).unwrap();
        let mut dma_tb = ThreadBlock::new();
        dma_tb.allocs.push(LocalAlloc { words: 512 });
        let mut stage = Stage::new(1);
        stage.dmas.push(crate::program::DmaReq {
            alloc: AllocId(0),
            tile,
            load: true,
            store: false,
        });
        stage.warps[0] = vec![WarpOp::LocalMem {
            write: false,
            alloc: AllocId(0),
            slot: 0,
            lanes: (0..32).collect(),
        }];
        dma_tb.stages.push(stage);

        let mut other = ThreadBlock::new();
        let mut s2 = Stage::new(1);
        s2.warps[0] = vec![WarpOp::Compute(1)];
        other.stages.push(s2);

        let mut m = memsys(MemConfigKind::ScratchGD);
        let cycles = run_cu_blocks(&mut m, 0, &[(0, &dma_tb), (1, &other)]).unwrap();
        // Alone, the compute block takes ~1 cycle; with the DMA block
        // resident it waits for the transfer.
        let mut solo = memsys(MemConfigKind::ScratchGD);
        let dma_only = run_cu_blocks(&mut solo, 0, &[(0, &dma_tb)]).unwrap();
        assert!(cycles >= dma_only, "wave ends after the DMA-bearing block");
        assert!(dma_only > 100, "a 512-word transfer is not instant");
    }

    #[test]
    fn waves_split_on_local_capacity() {
        // Three blocks of 2048 words each: 6144 words > 4096-word stash,
        // so the CU must run them in at least two waves — and the second
        // wave's AddMap reclaims the first wave's space (writebacks).
        let mk = |base: u64| {
            let tile = TileMap::new(VAddr(base), 4, 16, 2048, 0, 1).unwrap();
            let mut tb = ThreadBlock::new();
            tb.allocs.push(LocalAlloc { words: 2048 });
            let mut stage = Stage::new(1);
            stage.maps.push(MapReq {
                slot: 0,
                alloc: AllocId(0),
                tile,
                mode: UsageMode::MappedCoherent,
            });
            stage.warps[0] = vec![WarpOp::LocalMem {
                write: true,
                alloc: AllocId(0),
                slot: 0,
                lanes: (0..32).collect(),
            }];
            tb.stages.push(stage);
            tb
        };
        let blocks = [mk(0x10000), mk(0x90000), mk(0x110000)];
        let refs: Vec<(usize, &ThreadBlock)> = blocks.iter().enumerate().collect();
        let mut m = memsys(MemConfigKind::Stash);
        run_cu_blocks(&mut m, 0, &refs).unwrap();
        assert_eq!(m.counters().get("stash.addmap"), 3);
        // Block 3 landed on block 1's space: its dirty words wrote back.
        assert!(m.counters().get("wb.stash_words") > 0);
    }

    #[test]
    fn oversized_stash_allocation_falls_back_to_cache_path() {
        let mut m = memsys(MemConfigKind::Stash);
        let tb = stash_block(8192); // 32 KB of words in a 16 KB stash
        let cycles = run_cu_blocks(&mut m, 0, &[(0, &tb)]).unwrap();
        assert!(cycles > 0);
        // The allocation could not fit: no map bound, both accesses took
        // the cache path instead.
        assert_eq!(m.counters().get("stash.addmap"), 0);
        assert_eq!(m.counters().get("resilience.stash_fallback"), 1);
        assert_eq!(m.counters().get("resilience.fallback_tx"), 2);
        assert!(
            m.counters().get("gpu.l1.load_tx") + m.counters().get("gpu.l1.store_tx") > 0,
            "fallback accesses must flow through the L1"
        );
    }

    #[test]
    fn oversized_unmapped_allocation_errors() {
        // An oversized allocation with no global mapping has nowhere to
        // degrade to — the error must still surface.
        let mut m = memsys(MemConfigKind::Stash);
        let mut tb = ThreadBlock::new();
        tb.allocs.push(LocalAlloc { words: 8192 });
        let mut stage = Stage::new(1);
        stage.warps[0] = vec![WarpOp::LocalMem {
            write: false,
            alloc: AllocId(0),
            slot: 0,
            lanes: vec![0],
        }];
        tb.stages.push(stage);
        assert!(run_cu_blocks(&mut m, 0, &[(0, &tb)]).is_err());
    }
}
