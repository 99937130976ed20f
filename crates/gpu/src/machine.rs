//! The whole machine: runs a [`Program`] across its GPU and CPU phases.

use crate::certificate::ConflictCertificate;
use crate::config::MemConfigKind;
use crate::cpu::run_cpu_phase;
use crate::cu::run_cu_blocks;
use crate::memsys::{MemorySystem, ShardResult, StageLog};
use crate::program::{Kernel, Phase, Program, ThreadBlock};
use crate::report::RunReport;
use sim::config::SystemConfig;
use sim::SimError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How a kernel's thread blocks are spread across CUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockDistribution {
    /// Block `i` lands on CU `i % cus` — the seed behaviour, kept for
    /// the sequential path's pinned digests.
    RoundRobin,
    /// Greedy least-loaded by [`ThreadBlock::instruction_count`]: each
    /// block (in program order) goes to the CU with the smallest
    /// instruction load so far, ties broken by lowest CU id. Output
    /// order stays deterministic — per-CU lists preserve program order
    /// and thread-block ids are assigned in global block order.
    Balanced,
}

/// Settings for [`Machine::run_parallel`].
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Worker threads executing CU shards (clamped to the number of CUs
    /// with blocks; 1 runs the shards sequentially in CU order).
    pub threads: usize,
    /// Epoch length in kernel-local cycles for the staged-op merge. Any
    /// value produces identical state — the epochs slice one globally
    /// sorted stream — so this only sets the invariant-check cadence.
    pub epoch_cycles: u64,
    /// Block-to-CU distribution policy.
    pub distribution: BlockDistribution,
}

impl ParallelConfig {
    /// A config with `threads` workers, 64-cycle epochs, and balanced
    /// block distribution.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            epoch_cycles: 64,
            distribution: BlockDistribution::Balanced,
        }
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::with_threads(1)
    }
}

/// The block-to-CU assignment a kernel would get under `dist` on a
/// machine with `cus` CUs: entry `i` is block `i`'s CU.
///
/// This is the single source of truth for placement — both
/// [`Machine::run_parallel`] and the `verify::dataflow` footprint pass
/// (which groups block footprints per CU to prove inter-CU disjointness)
/// call it, so a [`ConflictCertificate`] always reasons about exactly
/// the grouping the machine executes.
#[must_use]
pub fn assign_blocks(kernel: &Kernel, dist: BlockDistribution, cus: usize) -> Vec<usize> {
    let mut load = vec![0u64; cus];
    kernel
        .blocks
        .iter()
        .enumerate()
        .map(|(i, block)| {
            let cu = match dist {
                BlockDistribution::RoundRobin => i % cus,
                BlockDistribution::Balanced => {
                    // min_by_key returns the first minimum: lowest CU id
                    // wins ties, so the placement is deterministic.
                    load.iter()
                        .enumerate()
                        .min_by_key(|&(_, &l)| l)
                        .map_or(0, |(cu, _)| cu)
                }
            };
            // Count an empty block as one unit so pure-launch blocks
            // still spread out instead of piling onto CU 0.
            load[cu] += block.instruction_count().max(1);
            cu
        })
        .collect()
}

/// Progress through a program's phase list — everything a resumed run
/// needs besides the memory system itself. Phases are the machine's
/// quiescence points: after [`MemorySystem::end_kernel`] no request is in
/// flight, no warp state is live, and no shard exists, so a cursor plus a
/// memory-system snapshot reproduces the run exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCursor {
    /// Index of the next phase to execute.
    pub next_phase: usize,
    /// GPU kernels completed so far (the certificate ordinal).
    pub ordinal: u64,
    /// GPU cycles accumulated over completed phases.
    pub gpu_cycles: u64,
    /// CPU cycles accumulated over completed phases.
    pub cpu_cycles: u64,
}

/// A stable fingerprint of a program's full structure, stored in every
/// checkpoint so a snapshot can only resume the program it was taken
/// from.
#[must_use]
pub fn program_fingerprint(program: &Program) -> u64 {
    sim::snapshot::fnv1a(format!("{program:?}").as_bytes())
}

/// Checkpoint section tag: machine progress metadata.
pub const SECTION_META: u32 = u32::from_le_bytes(*b"META");
/// Checkpoint section tag: the serialized memory system.
pub const SECTION_MSYS: u32 = u32::from_le_bytes(*b"MSYS");

/// A simulated machine: one [`SystemConfig`] + one [`MemConfigKind`].
///
/// # Example
///
/// ```
/// use gpu::config::MemConfigKind;
/// use gpu::machine::Machine;
/// use gpu::program::Program;
/// use sim::config::SystemConfig;
///
/// let mut machine = Machine::new(SystemConfig::for_applications(), MemConfigKind::StashG);
/// let report = machine.run(&Program::new()).unwrap();
/// assert_eq!(report.gpu_cycles, 0);
/// ```
#[derive(Debug)]
pub struct Machine {
    mem: MemorySystem,
    next_tb_id: usize,
    certificate: Option<ConflictCertificate>,
    certified_kernels: u64,
}

impl Machine {
    /// Builds a machine.
    ///
    /// # Panics
    ///
    /// Panics if the system configuration is invalid.
    pub fn new(cfg: SystemConfig, kind: MemConfigKind) -> Self {
        Self {
            mem: MemorySystem::new(cfg, kind),
            next_tb_id: 0,
            certificate: None,
            certified_kernels: 0,
        }
    }

    /// Installs a [`ConflictCertificate`] for subsequent
    /// [`Machine::run_parallel`] calls. A kernel merges through the
    /// certified fast path only when the certificate's machine shape
    /// (`cus`, `distribution`) matches the run and the kernel's verdict
    /// at the machine's registration granularity is disjoint; everything
    /// else silently falls back to full reconciliation, so installing a
    /// certificate can never change results — only merge work.
    pub fn set_certificate(&mut self, cert: ConflictCertificate) {
        self.certificate = Some(cert);
    }

    /// Removes any installed certificate (full reconciliation resumes).
    pub fn clear_certificate(&mut self) {
        self.certificate = None;
    }

    /// How many kernel merges ran the certified fast path so far.
    pub fn certified_kernels(&self) -> u64 {
        self.certified_kernels
    }

    /// The underlying memory system (diagnostics, ablation switches).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable access to the memory system (ablation switches; call before
    /// running).
    pub fn memory_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Runs a program to completion and reports the measurements.
    ///
    /// # Errors
    ///
    /// Propagates allocation, mapping and configuration errors from the
    /// program's operations.
    pub fn run(&mut self, program: &Program) -> Result<RunReport, SimError> {
        self.run_from(program, None, &mut RunCursor::default(), |_, _| Ok(()))
    }

    /// Runs a program like [`Machine::run`], but executes each kernel's
    /// CUs as parallel shards merged deterministically at epoch
    /// boundaries: every CU gets a private snapshot of the memory
    /// system, runs its blocks against it, and the shards' staged
    /// LLC/registry operations are replayed in `(cycle, cu, seq)` order.
    /// Reports, counters, stall breakdowns, and state digests are
    /// identical for every `threads` value and every `epoch_cycles`
    /// value — only wall-clock time changes.
    ///
    /// # Errors
    ///
    /// Propagates the same errors as [`Machine::run`]; when several CUs
    /// fail in one kernel, the lowest-numbered CU's error is returned
    /// (all shards are joined first), keeping the error deterministic.
    pub fn run_parallel(
        &mut self,
        program: &Program,
        par: &ParallelConfig,
    ) -> Result<RunReport, SimError> {
        self.run_from(program, Some(par), &mut RunCursor::default(), |_, _| Ok(()))
    }

    /// Runs a program from `cursor`, calling `at_barrier` after every
    /// completed phase — the machine's quiescence points, where
    /// [`Machine::checkpoint`] captures complete state. `par` selects the
    /// parallel CU-shard path; `None` runs the sequential seed path.
    /// Reports, counters, and state digests are identical to an
    /// uninterrupted [`Machine::run`] / [`Machine::run_parallel`] of the
    /// same program.
    ///
    /// The end-of-run fault scrub happens only at true completion, so a
    /// checkpoint taken mid-program still carries latent corruption for
    /// the resumed run to detect — recovery cannot launder faults.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors and any error `at_barrier` returns
    /// (e.g. a failed checkpoint write).
    pub fn run_from<F>(
        &mut self,
        program: &Program,
        par: Option<&ParallelConfig>,
        cursor: &mut RunCursor,
        mut at_barrier: F,
    ) -> Result<RunReport, SimError>
    where
        F: FnMut(&Machine, &RunCursor) -> Result<(), SimError>,
    {
        while cursor.next_phase < program.phases.len() {
            match &program.phases[cursor.next_phase] {
                Phase::Gpu(kernel) => {
                    // Keep trace stamps monotone across kernels: each
                    // kernel's scheduler restarts at cycle 0, offset by
                    // the cycles already spent.
                    self.mem.set_trace_base(cursor.gpu_cycles);
                    let cycles = match par {
                        Some(p) => self.run_kernel_parallel(kernel, p, cursor.ordinal)?,
                        None => self.run_kernel(kernel)?,
                    };
                    cursor.gpu_cycles += cycles;
                    cursor.ordinal += 1;
                }
                Phase::Cpu(cpu) => cursor.cpu_cycles += run_cpu_phase(&mut self.mem, cpu)?,
            }
            cursor.next_phase += 1;
            at_barrier(&*self, cursor)?;
        }
        // End-of-run scrub: any injected corruption still latent in the
        // LLC or a stash is surfaced (parity on) before reporting, so a
        // fault-free report implies clean architectural state.
        self.mem.scrub_faults();
        let cfg = self.mem.config();
        let total_picos = cfg.gpu_clock.cycles_to_picos(cursor.gpu_cycles)
            + cfg.cpu_clock.cycles_to_picos(cursor.cpu_cycles);
        Ok(RunReport {
            gpu_cycles: cursor.gpu_cycles,
            cpu_cycles: cursor.cpu_cycles,
            total_picos,
            gpu_instructions: self.mem.gpu_instructions(),
            energy: *self.mem.energy(),
            traffic: *self.mem.traffic(),
            counters: self.mem.counters().clone(),
        })
    }

    /// Captures a crash-consistent snapshot of the machine at a phase
    /// barrier: the program fingerprint, the run cursor, thread-block and
    /// certificate progress, and the complete memory hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the memory system is mid-shard (never the case between
    /// phases).
    #[must_use]
    pub fn checkpoint(&self, program: &Program, cursor: RunCursor) -> sim::snapshot::Snapshot {
        let mut meta = sim::snapshot::Writer::new();
        meta.put_u64(program_fingerprint(program));
        meta.put_usize(cursor.next_phase);
        meta.put_u64(cursor.ordinal);
        meta.put_u64(cursor.gpu_cycles);
        meta.put_u64(cursor.cpu_cycles);
        meta.put_usize(self.next_tb_id);
        meta.put_u64(self.certified_kernels);
        let mut msys = sim::snapshot::Writer::new();
        self.mem.save(&mut msys);
        let mut snap = sim::snapshot::Snapshot::new();
        snap.push_section(SECTION_META, meta.into_bytes());
        snap.push_section(SECTION_MSYS, msys.into_bytes());
        snap
    }

    /// Rebuilds a machine from a [`Machine::checkpoint`] snapshot,
    /// verifying the snapshot belongs to `program`. Returns the machine
    /// and the cursor to hand back to [`Machine::run_from`].
    ///
    /// An installed [`ConflictCertificate`] is *not* part of a snapshot
    /// (certificates never change results, only merge work) — re-install
    /// one after resuming if the fast path is wanted.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CheckpointCorrupt`] if the fingerprint does
    /// not match `program`, the cursor is out of range, or any section
    /// fails validation.
    pub fn resume(
        snap: &sim::snapshot::Snapshot,
        program: &Program,
    ) -> Result<(Self, RunCursor), SimError> {
        let corrupt = |detail: String| SimError::CheckpointCorrupt {
            what: "machine checkpoint",
            detail,
        };
        let meta = snap.section(SECTION_META, "checkpoint META section")?;
        let mut r = sim::snapshot::Reader::new(meta, "checkpoint META section");
        let fingerprint = r.take_u64()?;
        let expected = program_fingerprint(program);
        if fingerprint != expected {
            return Err(corrupt(format!(
                "snapshot fingerprint {fingerprint:#018x} does not match \
                 the program's {expected:#018x}"
            )));
        }
        let cursor = RunCursor {
            next_phase: r.take_usize()?,
            ordinal: r.take_u64()?,
            gpu_cycles: r.take_u64()?,
            cpu_cycles: r.take_u64()?,
        };
        if cursor.next_phase > program.phases.len() {
            return Err(corrupt(format!(
                "cursor phase {} beyond the program's {} phases",
                cursor.next_phase,
                program.phases.len()
            )));
        }
        let next_tb_id = r.take_usize()?;
        let certified_kernels = r.take_u64()?;
        r.finish()?;
        let msys = snap.section(SECTION_MSYS, "checkpoint MSYS section")?;
        let mut r = sim::snapshot::Reader::new(msys, "checkpoint MSYS section");
        let mem = MemorySystem::restore(&mut r)?;
        r.finish()?;
        Ok((
            Self {
                mem,
                next_tb_id,
                certificate: None,
                certified_kernels,
            },
            cursor,
        ))
    }

    /// Distributes a kernel's blocks across CUs, assigning thread-block
    /// ids in global block order regardless of policy.
    fn distribute<'k>(
        &mut self,
        kernel: &'k Kernel,
        dist: BlockDistribution,
        cus: usize,
    ) -> Vec<Vec<(usize, &'k ThreadBlock)>> {
        let assignment = assign_blocks(kernel, dist, cus);
        let mut per_cu: Vec<Vec<(usize, &'k ThreadBlock)>> = vec![Vec::new(); cus];
        for (block, &cu) in kernel.blocks.iter().zip(&assignment) {
            let id = self.next_tb_id;
            self.next_tb_id += 1;
            per_cu[cu].push((id, block));
        }
        per_cu
    }

    fn run_kernel_parallel(
        &mut self,
        kernel: &Kernel,
        par: &ParallelConfig,
        ordinal: u64,
    ) -> Result<u64, SimError> {
        let cus = self.mem.config().gpu_cus;
        // The kernel merges through the certified fast path when an
        // installed certificate proves its inter-CU footprints disjoint
        // for exactly this machine shape, at the granularity the
        // registry actually registers at.
        let certified = self.certificate.as_ref().is_some_and(|c| {
            c.cus == cus
                && c.distribution == par.distribution
                && usize::try_from(ordinal)
                    .ok()
                    .and_then(|k| c.kernels.get(k))
                    .is_some_and(|k| {
                        if self.mem.line_grain_registration() {
                            k.line_disjoint
                        } else {
                            k.word_disjoint
                        }
                    })
        });
        let per_cu = self.distribute(kernel, par.distribution, cus);
        // Fix every frame assignment before forking: shards must never
        // allocate a frame, or the address map would depend on the CU
        // interleaving.
        self.mem.pretouch_kernel(kernel);
        let dram_pre = self.mem.llc().dram_line_fetches();
        // One job per CU that has work, claimed off a shared cursor.
        // Each worker forks its own shard from the (now read-only)
        // master, runs it, and reduces it in place — so the snapshot
        // clone and its teardown, the dominant per-kernel costs, run on
        // the worker threads instead of serially on this one. The salt
        // ties the shard's fault stream to (kernel, cu), independent of
        // the thread count.
        let jobs: Vec<usize> = per_cu
            .iter()
            .enumerate()
            .filter(|(_, blocks)| !blocks.is_empty())
            .map(|(cu, _)| cu)
            .collect();
        let results: Vec<Mutex<Option<Result<ShardResult, SimError>>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        let workers = par.threads.clamp(1, jobs.len().max(1));
        let cursor = AtomicUsize::new(0);
        let master = &self.mem;
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&cu) = jobs.get(i) else { break };
                    let mut shard = master.fork_shard((ordinal << 32) | cu as u64);
                    let outcome = run_cu_blocks(&mut shard, cu, &per_cu[cu])
                        .map(|cycles| shard.reduce_shard(cu, cycles));
                    *results[i].lock().expect("result lock") = Some(outcome);
                });
            }
        });
        // Join every worker first, then surface the lowest-numbered
        // CU's error (jobs are in ascending CU order) so failures are
        // deterministic regardless of which worker hit one first.
        let mut reduced = Vec::with_capacity(jobs.len());
        for result in &results {
            reduced.push(
                result
                    .lock()
                    .expect("result lock")
                    .take()
                    .expect("worker ran this job")?,
            );
        }
        // Merge in CU order: private structures + accounting move over,
        // staged logs replay afterwards.
        let mut cu_cycles = vec![0u64; cus];
        let mut logs: Vec<(usize, StageLog)> = Vec::with_capacity(reduced.len());
        let mut shard_dram = Vec::with_capacity(reduced.len());
        for r in reduced {
            let cu = r.cu();
            cu_cycles[cu] = r.cycles();
            let (log, dram) = self.mem.absorb_result(r)?;
            logs.push((cu, log));
            shard_dram.push(dram);
        }
        self.mem
            .apply_staged(logs, par.epoch_cycles, dram_pre, &shard_dram, certified)?;
        if certified {
            self.certified_kernels += 1;
        }
        self.close_kernel(&cu_cycles)
    }

    fn run_kernel(&mut self, kernel: &Kernel) -> Result<u64, SimError> {
        let cus = self.mem.config().gpu_cus;
        let per_cu = self.distribute(kernel, BlockDistribution::RoundRobin, cus);
        // CUs run concurrently; the kernel completes with the slowest CU.
        // (State interactions across CUs within a kernel are processed
        // sequentially, which is exact for the paper's workloads — GPU
        // kernels share no data within a kernel, §1.2.)
        let mut cu_cycles = vec![0u64; cus];
        for (cu, blocks) in per_cu.iter().enumerate() {
            if blocks.is_empty() {
                continue;
            }
            cu_cycles[cu] = run_cu_blocks(&mut self.mem, cu, blocks)?;
        }
        self.close_kernel(&cu_cycles)
    }

    /// Ends a kernel whose CUs ran `cu_cycles` each. The kernel completes
    /// with the slowest CU; the return value adds the launch overhead.
    fn close_kernel(&mut self, cu_cycles: &[u64]) -> Result<u64, SimError> {
        let kernel_cycles = cu_cycles.iter().copied().max().unwrap_or(0);
        let launch = self.mem.config().kernel_launch_cycles;
        if self.mem.trace_enabled() {
            // Close the decomposition: every CU is attributed the full
            // kernel duration — cycles past its own last block are idle
            // (waiting on the slowest CU), plus the launch overhead —
            // so per-CU totals sum exactly to the report's gpu_cycles.
            for (cu, &used) in cu_cycles.iter().enumerate() {
                self.mem
                    .trace_stall(cu, sim::trace::StallReason::Idle, kernel_cycles - used);
                self.mem
                    .trace_stall(cu, sim::trace::StallReason::KernelLaunch, launch);
            }
            self.mem.set_trace_time(kernel_cycles);
        }
        self.mem.end_kernel()?;
        Ok(kernel_cycles + launch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{AllocId, CpuOp, CpuPhase, LocalAlloc, MapReq, Stage, WarpOp};
    use mem::addr::VAddr;
    use mem::tile::TileMap;
    use stash::UsageMode;

    fn stash_kernel(elems: u64, writes: bool) -> Kernel {
        let tile = TileMap::new(VAddr(0x40000), 4, 16, elems, 0, 1).unwrap();
        let mut tb = ThreadBlock::new();
        tb.allocs.push(LocalAlloc { words: elems });
        let mut stage = Stage::new(1);
        stage.maps.push(MapReq {
            slot: 0,
            alloc: AllocId(0),
            tile,
            mode: UsageMode::MappedCoherent,
        });
        let lanes: Vec<u32> = (0..elems.min(32) as u32).collect();
        stage.warps[0] = vec![WarpOp::LocalMem {
            write: false,
            alloc: AllocId(0),
            slot: 0,
            lanes: lanes.clone(),
        }];
        if writes {
            stage.warps[0].push(WarpOp::LocalMem {
                write: true,
                alloc: AllocId(0),
                slot: 0,
                lanes,
            });
        }
        tb.stages.push(stage);
        Kernel { blocks: vec![tb] }
    }

    #[test]
    fn gpu_then_cpu_phases_accumulate_time() {
        let program = Program {
            phases: vec![
                Phase::Gpu(stash_kernel(32, true)),
                Phase::Cpu(CpuPhase {
                    per_core: vec![vec![CpuOp::Mem {
                        write: false,
                        vaddr: VAddr(0x40000),
                    }]],
                    stash_maps: Vec::new(),
                }),
            ],
        };
        let mut machine = Machine::new(SystemConfig::for_microbenchmarks(), MemConfigKind::Stash);
        let report = machine.run(&program).unwrap();
        assert!(report.gpu_cycles > 0);
        assert!(report.cpu_cycles > 0);
        assert!(report.total_picos > 0);
        // The CPU pulled GPU-registered stash data via forwarding, not a
        // bursty kernel-end writeback.
        assert_eq!(report.counters.get("wb.stash_words"), 0);
        assert_eq!(report.counters.get("remote.forward"), 1);
    }

    #[test]
    fn cross_kernel_reuse_avoids_second_fetch() {
        // The same tile mapped by two kernels: kernel 2's accesses hit on
        // kernel 1's registered data.
        let program = Program {
            phases: vec![
                Phase::Gpu(stash_kernel(32, true)),
                Phase::Gpu(stash_kernel(32, true)),
            ],
        };
        let mut machine = Machine::new(SystemConfig::for_microbenchmarks(), MemConfigKind::Stash);
        let report = machine.run(&program).unwrap();
        // Kernel 1: 32 load fetches. Kernel 2: loads hit registered words.
        assert_eq!(report.counters.get("stash.fetch_words"), 32);
        assert_eq!(report.counters.get("stash.addmap_replicated"), 1);
    }

    #[test]
    fn blocks_distribute_across_cus() {
        let kernel = Kernel {
            blocks: (0..30)
                .map(|_| stash_kernel(32, false).blocks.remove(0))
                .collect(),
        };
        let program = Program {
            phases: vec![Phase::Gpu(kernel)],
        };
        let mut machine = Machine::new(SystemConfig::for_applications(), MemConfigKind::Stash);
        let report = machine.run(&program).unwrap();
        // 30 blocks × 1 AddMap each, across 15 CUs.
        assert_eq!(report.counters.get("stash.addmap"), 30);
    }

    fn contended_program() -> Program {
        // 30 blocks across two kernels all mapping the SAME tile with
        // writes: CUs race for word ownership, the adversarial case for
        // the epoch merge.
        let kernel = || Kernel {
            blocks: (0..30)
                .map(|_| stash_kernel(32, true).blocks.remove(0))
                .collect(),
        };
        Program {
            phases: vec![Phase::Gpu(kernel()), Phase::Gpu(kernel())],
        }
    }

    #[test]
    fn parallel_is_invariant_across_threads_and_epochs() {
        let program = contended_program();
        let mut baseline: Option<(String, u64)> = None;
        for threads in [1, 2, 4, 8] {
            for epoch_cycles in [1, 64, 4096] {
                let mut machine =
                    Machine::new(SystemConfig::for_applications(), MemConfigKind::Stash);
                let mut par = ParallelConfig::with_threads(threads);
                par.epoch_cycles = epoch_cycles;
                let report = machine.run_parallel(&program, &par).unwrap();
                let key = (format!("{report:?}"), machine.memory().state_digest());
                match &baseline {
                    None => baseline = Some(key),
                    Some(b) => {
                        assert_eq!(*b, key, "threads={threads} epoch_cycles={epoch_cycles}");
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_merge_passes_the_invariant_oracle() {
        let program = contended_program();
        let mut machine = Machine::new(SystemConfig::for_applications(), MemConfigKind::Stash);
        machine.memory_mut().set_verify(true);
        machine
            .run_parallel(&program, &ParallelConfig::with_threads(4))
            .unwrap();
    }

    #[test]
    fn balanced_distribution_runs_every_block() {
        let kernel = Kernel {
            blocks: (0..30)
                .map(|_| stash_kernel(32, false).blocks.remove(0))
                .collect(),
        };
        let program = Program {
            phases: vec![Phase::Gpu(kernel)],
        };
        let mut machine = Machine::new(SystemConfig::for_applications(), MemConfigKind::Stash);
        let report = machine
            .run_parallel(&program, &ParallelConfig::with_threads(8))
            .unwrap();
        assert_eq!(report.counters.get("stash.addmap"), 30);
    }

    #[test]
    fn empty_program_is_trivial() {
        let mut machine = Machine::new(SystemConfig::for_microbenchmarks(), MemConfigKind::Scratch);
        let report = machine.run(&Program::new()).unwrap();
        assert_eq!(report.total_picos, 0);
        assert_eq!(report.gpu_instructions, 0);
    }

    #[test]
    fn run_from_matches_run_and_resume_matches_both() {
        let program = contended_program();
        let mut golden = Machine::new(SystemConfig::for_applications(), MemConfigKind::Stash);
        let golden_report = golden.run(&program).unwrap();
        let golden_digest = golden.memory().state_digest();

        // run_from over the whole program, checkpointing at every
        // barrier, must match a plain run exactly.
        let mut first = Machine::new(SystemConfig::for_applications(), MemConfigKind::Stash);
        let mut cursor = RunCursor::default();
        let mut snaps = Vec::new();
        let full_report = first
            .run_from(&program, None, &mut cursor, |m, c| {
                snaps.push(m.checkpoint(&program, *c));
                Ok(())
            })
            .unwrap();
        assert_eq!(full_report, golden_report);
        assert_eq!(first.memory().state_digest(), golden_digest);
        assert_eq!(snaps.len(), program.phases.len());

        // Resume from the first-barrier snapshot and still match the
        // golden sequential run bit-for-bit.
        let (mut resumed, mut rc) = Machine::resume(&snaps[0], &program).unwrap();
        assert_eq!(rc.next_phase, 1);
        let resumed_report = resumed
            .run_from(&program, None, &mut rc, |_, _| Ok(()))
            .unwrap();
        assert_eq!(resumed_report, golden_report);
        assert_eq!(resumed.memory().state_digest(), golden_digest);
    }

    #[test]
    fn parallel_resume_matches_parallel_straight_through_at_any_threads() {
        // The parallel path distributes blocks differently from the
        // sequential seed path (Balanced vs RoundRobin), so its golden is
        // its own straight-through run — which PR 6 pins identical for
        // every thread count.
        let program = contended_program();
        let mut golden = Machine::new(SystemConfig::for_applications(), MemConfigKind::Stash);
        let golden_report = golden
            .run_parallel(&program, &ParallelConfig::with_threads(1))
            .unwrap();
        let golden_digest = golden.memory().state_digest();

        let mut first = Machine::new(SystemConfig::for_applications(), MemConfigKind::Stash);
        let mut cursor = RunCursor::default();
        let mut snaps = Vec::new();
        let two = ParallelConfig::with_threads(2);
        first
            .run_from(&program, Some(&two), &mut cursor, |m, c| {
                snaps.push(m.checkpoint(&program, *c));
                Ok(())
            })
            .unwrap();

        // Finish from the first barrier with a *different* thread count.
        let (mut resumed, mut rc) = Machine::resume(&snaps[0], &program).unwrap();
        let eight = ParallelConfig::with_threads(8);
        let resumed_report = resumed
            .run_from(&program, Some(&eight), &mut rc, |_, _| Ok(()))
            .unwrap();
        assert_eq!(resumed_report, golden_report);
        assert_eq!(resumed.memory().state_digest(), golden_digest);
    }

    #[test]
    fn faulty_run_resumes_identically_including_end_scrub() {
        // A checkpoint taken mid-program carries latent injected
        // corruption and the injector's RNG position; the resumed run's
        // end-of-run parity scrub must land exactly where the
        // straight-through run's does.
        use sim::fault::FaultConfig;
        let program = contended_program();
        let mut exercised = false;
        for seed in 1..=32u64 {
            let fault = FaultConfig::chaos(seed);
            let mut golden = Machine::new(SystemConfig::for_applications(), MemConfigKind::Stash);
            golden.memory_mut().set_fault_injector(fault.clone());
            let Ok(golden_report) = golden.run(&program) else {
                continue; // watchdog trip: fine, but not this test's target
            };
            let injected = golden_report.counters.get("fault.flip_injected")
                + golden_report.counters.get("fault.drop_injected")
                + golden_report.counters.get("fault.wb_lost");
            if injected == 0 {
                continue;
            }
            let mut first = Machine::new(SystemConfig::for_applications(), MemConfigKind::Stash);
            first.memory_mut().set_fault_injector(fault);
            let mut cursor = RunCursor::default();
            let mut snap = None;
            first
                .run_from(&program, None, &mut cursor, |m, c| {
                    if snap.is_none() {
                        snap = Some(m.checkpoint(&program, *c));
                    }
                    Ok(())
                })
                .unwrap();
            let (mut resumed, mut rc) = Machine::resume(&snap.unwrap(), &program).unwrap();
            let resumed_report = resumed
                .run_from(&program, None, &mut rc, |_, _| Ok(()))
                .unwrap();
            assert_eq!(resumed_report, golden_report, "seed {seed}");
            assert_eq!(
                resumed.memory().state_digest(),
                golden.memory().state_digest(),
                "seed {seed}"
            );
            assert_eq!(
                resumed.memory().remaining_corruption(),
                golden.memory().remaining_corruption(),
                "seed {seed}"
            );
            exercised = true;
            break;
        }
        assert!(
            exercised,
            "no seed in 1..=32 completed with injected faults"
        );
    }

    #[test]
    fn checkpoint_survives_the_container_format() {
        let program = contended_program();
        let mut machine = Machine::new(SystemConfig::for_applications(), MemConfigKind::Stash);
        let mut cursor = RunCursor::default();
        let mut snap = None;
        machine
            .run_from(&program, None, &mut cursor, |m, c| {
                if snap.is_none() {
                    snap = Some(m.checkpoint(&program, *c));
                }
                Ok(())
            })
            .unwrap();
        let bytes = snap.unwrap().to_bytes();
        let reread = sim::snapshot::Snapshot::from_bytes(&bytes).unwrap();
        let (m2, rc) = Machine::resume(&reread, &program).unwrap();
        assert_eq!(rc.next_phase, 1);
        assert!(m2.memory().state_digest() != 0);
    }

    #[test]
    fn resume_rejects_a_different_program() {
        let program = contended_program();
        let mut machine = Machine::new(SystemConfig::for_applications(), MemConfigKind::Stash);
        let mut cursor = RunCursor::default();
        let mut snap = None;
        machine
            .run_from(&program, None, &mut cursor, |m, c| {
                if snap.is_none() {
                    snap = Some(m.checkpoint(&program, *c));
                }
                Ok(())
            })
            .unwrap();
        let other = Program {
            phases: vec![Phase::Gpu(stash_kernel(16, false))],
        };
        let err = Machine::resume(&snap.unwrap(), &other).unwrap_err();
        assert!(matches!(
            err,
            SimError::CheckpointCorrupt {
                what: "machine checkpoint",
                ..
            }
        ));
    }
}
