//! The kill-and-recover crash campaign: prove the checkpoint/restore
//! layer's crash-consistency contract by killing runs and restoring them.
//!
//! For every `(workload, configuration, seed)` cell the campaign:
//!
//! 1. Runs the cell with auto-checkpointing at every phase barrier into a
//!    private [`CheckpointStore`], then **kills** it at a seeded barrier.
//!    A third of the seeds additionally damage the snapshot written at
//!    the kill point — truncating it or flipping a payload byte — the
//!    on-disk states a crash mid-checkpoint-write can leave behind on
//!    filesystems without durable atomic rename.
//! 2. **Recovers**: restores the newest snapshot that validates (torn and
//!    corrupt files must be *rejected*, falling back to the previous good
//!    one, or to a cold restart when nothing survives) and runs the
//!    program to completion.
//! 3. Classifies against the fault-free golden digest from
//!    [`crate::golden`] — the same reference the fault campaign uses:
//!
//! * **Recovered** — a clean kill, and the resumed run's architectural
//!   state is bit-identical to golden.
//! * **Detected** — the kill tore the newest snapshot, the store flagged
//!   it ([`Detector::Snapshot`]), and recovery from an older snapshot
//!   still converged to golden.
//! * **Silent escape** — the resumed state diverged from golden, or a
//!   damaged snapshot loaded without complaint. Contract violations; the
//!   `chaos --crash` binary exits 1 if any occur.

use crate::chaos::{Detector, Outcome, Target};
use crate::pool::JobPool;
use gpu::config::MemConfigKind;
use gpu::machine::{Machine, RunCursor};
use gpu::program::Program;
use sim::rng::SplitMix64;
use sim::snapshot::CheckpointStore;
use sim::SimError;
use std::path::Path;

/// The sentinel `at_barrier` error that simulates the process kill.
const KILL_SIGNAL: &str = "crash-campaign kill";

/// How the seeded kill damages the snapshot being written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillMode {
    /// Kill between checkpoint writes: every file on disk is complete.
    Clean,
    /// Kill mid-write: the newest snapshot is truncated to half its bytes.
    Truncate,
    /// Kill mid-write: one payload byte of the newest snapshot is flipped.
    CorruptByte,
}

impl KillMode {
    /// Whether this mode leaves a damaged file the store must reject.
    pub fn tears_file(self) -> bool {
        self != KillMode::Clean
    }
}

/// The deterministic kill a seed maps to.
#[derive(Debug, Clone, Copy)]
pub struct KillPlan {
    /// Zero-based barrier index the run dies at (after that phase's
    /// checkpoint is written).
    pub barrier: usize,
    /// What state the kill leaves the newest snapshot file in.
    pub mode: KillMode,
}

impl KillPlan {
    /// Derives the kill point for `seed` on a program with `phases`
    /// phases: a uniformly seeded barrier, with the three damage modes
    /// cycling so every third seed exercises the torn-file fallback.
    pub fn for_seed(seed: u64, phases: usize) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x6b69_6c6c_2d70_6c61); // "kill-pla"
        let barrier = usize::try_from(rng.next_below(phases.max(1) as u64)).unwrap_or(0);
        let mode = match rng.next_below(3) {
            0 => KillMode::Clean,
            1 => KillMode::Truncate,
            _ => KillMode::CorruptByte,
        };
        Self { barrier, mode }
    }
}

/// One kill-and-recover run's classified result.
#[derive(Debug, Clone)]
pub struct CrashRun {
    /// Workload name.
    pub workload: String,
    /// Memory configuration.
    pub kind: MemConfigKind,
    /// Campaign seed of this run.
    pub seed: u64,
    /// The kill this seed mapped to.
    pub barrier: usize,
    /// Damage mode of the kill.
    pub mode: KillMode,
    /// The classification.
    pub outcome: Outcome,
    /// Snapshots written before the kill (including any damaged one).
    pub checkpoints: u64,
    /// Sequence number recovery resumed from; `None` = cold restart.
    pub resumed_from: Option<u64>,
    /// Torn/corrupt snapshots the store detected and skipped.
    pub rejected: u64,
}

/// A whole crash campaign's results, in `(target, kind, seed)` order.
#[derive(Debug)]
pub struct CrashCampaign {
    /// Every kill-and-recover run.
    pub cells: Vec<CrashRun>,
}

impl CrashCampaign {
    /// Runs classified as recovered.
    pub fn recovered(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.outcome == Outcome::Recovered)
            .count()
    }

    /// Runs where the store detected (and recovered past) a torn file.
    pub fn detected(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, Outcome::Detected(_)))
            .count()
    }

    /// The silent escapes (must be empty for the contract).
    pub fn escapes(&self) -> Vec<&CrashRun> {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, Outcome::SilentEscape(_)))
            .collect()
    }

    /// Total torn/corrupt snapshot files detected across the campaign.
    pub fn total_rejected(&self) -> u64 {
        self.cells.iter().map(|c| c.rejected).sum()
    }
}

/// Crash-campaign switches (the `chaos --crash` flags).
#[derive(Debug, Clone)]
pub struct CrashCampaignConfig {
    /// Kill seeds to run per cell.
    pub seeds: Vec<u64>,
    /// Worker threads for the job pool.
    pub threads: usize,
    /// Run the runtime invariant oracle inside every cell.
    pub verify: bool,
}

impl CrashCampaignConfig {
    /// Defaults: oracle off.
    pub fn new(seeds: Vec<u64>, threads: usize) -> Self {
        Self {
            seeds,
            threads,
            verify: false,
        }
    }
}

/// Damages the newest snapshot file according to `mode`, simulating the
/// on-disk aftermath of a kill mid-checkpoint-write.
fn tear_file(path: &Path, mode: KillMode, seed: u64) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading snapshot to tear: {e}"))?;
    let damaged = match mode {
        KillMode::Clean => return Ok(()),
        KillMode::Truncate => bytes[..bytes.len() / 2].to_vec(),
        KillMode::CorruptByte => {
            let mut b = bytes;
            // Flip a byte past the 16-byte container header so the
            // damage lands in a section (CRC territory), seeded for
            // variety across the campaign.
            let mut rng = SplitMix64::new(seed);
            let span = b.len().saturating_sub(16).max(1) as u64;
            let i = 16 + usize::try_from(rng.next_below(span)).unwrap_or(0);
            let i = i.min(b.len() - 1);
            b[i] ^= 0x40;
            b
        }
    };
    std::fs::write(path, damaged).map_err(|e| format!("tearing snapshot: {e}"))
}

/// Phase 1 of one cell: run with auto-checkpointing and kill per `plan`.
/// Returns the number of checkpoints written.
fn crashed_attempt(
    target: &Target<'_>,
    kind: MemConfigKind,
    program: &Program,
    store: &CheckpointStore,
    plan: KillPlan,
    seed: u64,
    verify: bool,
) -> Result<u64, String> {
    let mut machine = Machine::new(target.sys.clone(), kind);
    machine.memory_mut().set_verify(verify);
    let mut cursor = RunCursor::default();
    let mut written = 0u64;
    let result = machine.run_from(program, None, &mut cursor, |m, c| {
        let snap = m.checkpoint(program, *c);
        let seq = store
            .save(&snap)
            .map_err(|e| SimError::Config(format!("checkpoint write failed: {e}")))?;
        written += 1;
        if c.next_phase == plan.barrier + 1 {
            tear_file(&store.path_for(seq), plan.mode, seed).map_err(SimError::Config)?;
            return Err(SimError::Config(KILL_SIGNAL.to_string()));
        }
        Ok(())
    });
    match result {
        // A kill barrier at (or past) the last phase lets the run finish;
        // recovery then resumes a complete cursor — a valid edge case.
        Ok(_) => Ok(written),
        Err(SimError::Config(msg)) if msg == KILL_SIGNAL => Ok(written),
        Err(e) => Err(format!("crashing attempt failed before the kill: {e}")),
    }
}

/// Phase 2 of one cell: restore the newest valid snapshot (cold restart
/// if none survives) and run to completion. Returns the final digest,
/// the resumed sequence number, and how many files were rejected.
fn recover(
    target: &Target<'_>,
    kind: MemConfigKind,
    program: &Program,
    store: &CheckpointStore,
    verify: bool,
) -> Result<(u64, Option<u64>, u64), String> {
    match store.latest_valid() {
        Some((seq, snap, rejections)) => {
            let (mut machine, mut cursor) = Machine::resume(&snap, program)
                .map_err(|e| format!("resume from ckpt-{seq:04} failed: {e}"))?;
            machine.memory_mut().set_verify(verify);
            machine
                .run_from(program, None, &mut cursor, |_, _| Ok(()))
                .map_err(|e| format!("resumed run failed: {e}"))?;
            Ok((
                machine.memory().state_digest(),
                Some(seq),
                rejections.len() as u64,
            ))
        }
        None => {
            // Nothing on disk validates: count the rejects, restart cold.
            let rejected = store
                .list()
                .into_iter()
                .filter(|&s| sim::snapshot::read_snapshot(&store.path_for(s)).is_err())
                .count() as u64;
            let mut machine = Machine::new(target.sys.clone(), kind);
            machine.memory_mut().set_verify(verify);
            machine
                .run(program)
                .map_err(|e| format!("cold restart failed: {e}"))?;
            Ok((machine.memory().state_digest(), None, rejected))
        }
    }
}

fn classify(
    plan: KillPlan,
    digest: u64,
    golden: u64,
    resumed_from: Option<u64>,
    rejected: u64,
    last_seq: Option<u64>,
) -> Outcome {
    if digest != golden {
        return Outcome::SilentEscape(format!(
            "recovered state digest {digest:016x} diverged from golden {golden:016x}"
        ));
    }
    if plan.mode.tears_file() {
        // The newest file was damaged; loading it anyway is a detection
        // failure even when the state happens to converge.
        if resumed_from.is_some() && resumed_from == last_seq {
            return Outcome::SilentEscape(format!(
                "torn snapshot ckpt-{:04} loaded without complaint",
                last_seq.unwrap_or(0)
            ));
        }
        if rejected == 0 {
            return Outcome::SilentEscape(
                "torn snapshot was neither loaded nor rejected — recovery never saw it".to_string(),
            );
        }
        return Outcome::Detected(Detector::Snapshot);
    }
    Outcome::Recovered
}

/// Runs the full kill-and-recover campaign under `scratch` (one private
/// subdirectory per cell, removed afterwards).
///
/// # Errors
///
/// Returns a message if any golden run fails, or scratch directories
/// cannot be managed.
pub fn run_crash_campaign(
    targets: &[Target<'_>],
    kinds: &[MemConfigKind],
    cfg: &CrashCampaignConfig,
    scratch: &Path,
) -> Result<CrashCampaign, String> {
    let pool = JobPool::new(cfg.threads);
    let golden = crate::golden::golden_digests(&pool, targets, kinds, cfg.verify)?;

    let mut meta = Vec::new();
    let mut jobs = Vec::new();
    for (cell, (t, kind)) in targets
        .iter()
        .flat_map(|t| kinds.iter().map(move |&kind| (t, kind)))
        .enumerate()
    {
        for &seed in &cfg.seeds {
            let golden_digest = golden[cell];
            let dir = scratch.join(format!("cell{cell}-seed{seed}"));
            meta.push((t.name.clone(), kind, seed));
            let verify = cfg.verify;
            jobs.push(
                move || -> Result<(KillPlan, Outcome, u64, Option<u64>, u64), String> {
                    let program = (t.build)(kind);
                    let plan = KillPlan::for_seed(seed, program.phases.len());
                    let store = CheckpointStore::open(&dir)
                        .map_err(|e| format!("opening scratch store {}: {e}", dir.display()))?;
                    let checkpoints =
                        crashed_attempt(t, kind, &program, &store, plan, seed, verify)?;
                    let last_seq = store.list().last().copied();
                    let (digest, resumed_from, rejected) =
                        recover(t, kind, &program, &store, verify)?;
                    let _ = std::fs::remove_dir_all(&dir);
                    let outcome = classify(
                        plan,
                        digest,
                        golden_digest,
                        resumed_from,
                        rejected,
                        last_seq,
                    );
                    Ok((plan, outcome, checkpoints, resumed_from, rejected))
                },
            );
        }
    }

    let cells = meta
        .into_iter()
        .zip(pool.run_catching(jobs))
        .map(|((workload, kind, seed), result)| {
            let (plan, outcome, checkpoints, resumed_from, rejected) = match result {
                Ok(r) => match r.value {
                    Ok(v) => v,
                    Err(msg) => (
                        KillPlan::for_seed(seed, 1),
                        Outcome::SilentEscape(format!("campaign cell failed: {msg}")),
                        0,
                        None,
                        0,
                    ),
                },
                Err(p) => (
                    KillPlan::for_seed(seed, 1),
                    Outcome::SilentEscape(format!("campaign cell panicked: {}", p.message)),
                    0,
                    None,
                    0,
                ),
            };
            CrashRun {
                workload,
                kind,
                seed,
                barrier: plan.barrier,
                mode: plan.mode,
                outcome,
                checkpoints,
                resumed_from,
                rejected,
            }
        })
        .collect();
    Ok(CrashCampaign { cells })
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::suite;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stash-crash-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn kill_plans_are_deterministic_and_cover_modes() {
        let a = KillPlan::for_seed(7, 9);
        let b = KillPlan::for_seed(7, 9);
        assert_eq!(a.barrier, b.barrier);
        assert_eq!(a.mode, b.mode);
        assert!(a.barrier < 9);
        let modes: std::collections::HashSet<_> = (1..=12u64)
            .map(|s| format!("{:?}", KillPlan::for_seed(s, 9).mode))
            .collect();
        assert_eq!(modes.len(), 3, "12 seeds must hit all three kill modes");
    }

    #[test]
    fn crash_campaign_on_one_micro_has_no_escapes() {
        let w = suite::micros()[3]; // reuse: 9 phases, plenty of barriers
        let target = Target {
            name: w.name.to_string(),
            sys: w.set.system_config(),
            build: &w.build,
        };
        let cfg = CrashCampaignConfig::new((1..=6).collect(), 2);
        let dir = scratch("campaign");
        let campaign = run_crash_campaign(&[target], &[MemConfigKind::Stash], &cfg, &dir)
            .expect("golden runs clean");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(campaign.cells.len(), 6);
        assert!(
            campaign.escapes().is_empty(),
            "kill-and-recover must never escape: {:?}",
            campaign.escapes()
        );
        // Every torn kill must have been detected, never silently loaded.
        for c in &campaign.cells {
            if c.mode.tears_file() {
                assert_eq!(
                    c.outcome,
                    Outcome::Detected(Detector::Snapshot),
                    "seed {} mode {:?}",
                    c.seed,
                    c.mode
                );
                assert!(c.rejected >= 1);
            } else {
                assert_eq!(c.outcome, Outcome::Recovered, "seed {}", c.seed);
            }
        }
    }
}
