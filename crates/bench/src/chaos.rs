//! The chaos campaign: attack every run of a workload matrix and hold the
//! machine's architectural state to its contracts (DESIGN.md §9, §15).
//!
//! For every `(workload, configuration)` cell the campaign first runs a
//! fault-free, uninterrupted **golden** replay and records its
//! architectural-state digest. It then runs the cell once per seed under
//! one [`Attack`] and classifies each run against that digest:
//!
//! * [`Attack::Faults`] installs the seeded chaos fault schedule
//!   (`sim::fault`): dropped, duplicated and delayed messages, word
//!   flips, lost writebacks and truncated DMA. The contract: no silent
//!   corruption.
//! * [`Attack::Crash`] saves a checkpoint at every phase barrier and
//!   kills the run at a seeded barrier; a third of the seeds also
//!   truncate or corrupt the snapshot being written, as a crash mid-write
//!   can. Recovery restores the newest snapshot that validates (a cold
//!   restart when none does) and finishes the run. The contract: crash
//!   consistency.
//!
//! Each run is one [`Outcome`]:
//!
//! * **Recovered** — the architectural state is bit-identical to golden.
//! * **Detected** — a [`Detector`] flagged the attack: the no-progress
//!   watchdog, the runtime invariant oracle (a caught panic), the
//!   parity/ECC model, or the checkpoint store rejecting a torn snapshot
//!   before recovery converged from an older one.
//! * **Silent escape** — the state diverged (or corrupt words survived,
//!   or a torn snapshot loaded) and no detector fired. This is the
//!   contract violation the campaign exists to catch; the `chaos` binary
//!   exits 1 if any occur.
//!
//! Everything is deterministic: the same targets, seeds and attack give
//! the same runs at any thread count (`tests/chaos_determinism.rs`).
//! The crash attack's two checkpoint steps, [`checkpoint_every_barrier`]
//! and [`resume_newest`], are also the `checkpoint` binary's `save` and
//! `resume`.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::pool::JobPool;
use gpu::config::MemConfigKind;
use gpu::machine::{Machine, RunCursor};
use gpu::program::Program;
use gpu::report::RunReport;
use sim::config::SystemConfig;
use sim::fault::FaultConfig;
use sim::rng::SplitMix64;
use sim::snapshot::CheckpointStore;
use sim::SimError;

/// A workload the campaign attacks: a named program factory plus the
/// machine configuration it runs on.
pub struct Target<'a> {
    /// Display name (suite name or trace path).
    pub name: String,
    /// Machine configuration for this workload.
    pub sys: SystemConfig,
    /// Builds the program for one memory configuration.
    pub build: &'a (dyn Fn(MemConfigKind) -> Program + Sync),
}

/// The most seeds a campaign runs per cell.
pub const MAX_SEEDS: u64 = 1024;

/// A campaign's seeds: `count` consecutive values from `first`. The only
/// way to build one is [`Seeds::new`], which holds every campaign to the
/// same range rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    first: u64,
    count: u64,
}

/// Why [`Seeds::new`] refused a range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedRangeError {
    /// The count is zero or above [`MAX_SEEDS`].
    Count(u64),
    /// The last seed, `first + count - 1`, is past `u64::MAX`.
    Overflow {
        /// The first seed.
        first: u64,
        /// The number of seeds.
        count: u64,
    },
}

impl fmt::Display for SeedRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Count(n) => write!(f, "{n} seeds is outside 1..={MAX_SEEDS}"),
            Self::Overflow { first, count } => write!(
                f,
                "{count} seeds from {first} run past the largest seed, {}",
                u64::MAX
            ),
        }
    }
}

impl Seeds {
    /// The `count` seeds `first, first + 1, …`.
    ///
    /// # Errors
    ///
    /// Refuses a `count` outside `1..=MAX_SEEDS` and a last seed that
    /// does not fit in a `u64`.
    pub fn new(first: u64, count: u64) -> Result<Self, SeedRangeError> {
        if count == 0 || count > MAX_SEEDS {
            Err(SeedRangeError::Count(count))
        } else if first.checked_add(count - 1).is_none() {
            Err(SeedRangeError::Overflow { first, count })
        } else {
            Ok(Self { first, count })
        }
    }

    /// The first seed.
    pub fn first(self) -> u64 {
        self.first
    }

    /// How many seeds there are.
    pub fn count(self) -> u64 {
        self.count
    }

    fn iter(self) -> impl Iterator<Item = u64> {
        self.first..=self.first + (self.count - 1)
    }
}

/// What a campaign does to each run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Attack {
    /// Inject the seeded chaos fault schedule. Switching `resilience`
    /// (retries, timeouts, fallback) or `parity` (the parity/ECC model)
    /// off demonstrates the escapes that machinery closes.
    Faults {
        /// Leave the retry/fallback machinery on.
        resilience: bool,
        /// Leave the parity/ECC detection model on.
        parity: bool,
    },
    /// Kill each run at a seeded barrier and recover it, with one
    /// checkpoint store per run under `scratch`. The campaign removes
    /// each run's directory afterwards, and `scratch` itself only if the
    /// campaign created it.
    Crash {
        /// The directory the per-run checkpoint stores go in.
        scratch: PathBuf,
    },
}

impl Attack {
    /// The contract a run escapes from.
    pub fn contract(&self) -> &'static str {
        match self {
            Attack::Faults { .. } => "no-silent-corruption",
            Attack::Crash { .. } => "crash-consistency",
        }
    }

    /// The names of the two counters of [`Run::counters`].
    pub fn counter_names(&self) -> [&'static str; 2] {
        match self {
            Attack::Faults { .. } => ["faults", "retries"],
            Attack::Crash { .. } => ["ckpts", "rejected"],
        }
    }

    /// Runs one seed of one cell and classifies it against `golden`.
    fn run(
        &self,
        target: &Target<'_>,
        kind: MemConfigKind,
        seed: u64,
        cell: usize,
        golden: u64,
        verify: bool,
    ) -> (Outcome, Detail) {
        match self {
            Attack::Faults { resilience, parity } => {
                let mut fault = FaultConfig::chaos(seed);
                if !resilience {
                    fault = fault.without_resilience();
                }
                if !parity {
                    fault = fault.without_parity();
                }
                inject_faults(target, kind, fault, verify, golden)
            }
            Attack::Crash { scratch } => {
                let dir = scratch.join(format!("cell{cell}-seed{seed}"));
                kill_and_recover(target, kind, seed, verify, &dir, golden).unwrap_or_else(|msg| {
                    crash_failed(seed, format!("campaign cell failed: {msg}"))
                })
            }
        }
    }

    /// The record of a run whose job panicked.
    fn panicked(&self, seed: u64, message: &str) -> (Outcome, Detail) {
        match self {
            // Under fault injection a panic is the runtime invariant
            // oracle firing.
            Attack::Faults { .. } => unfinished(
                Outcome::Detected(Detector::Oracle),
                format!("panic:{message}"),
            ),
            Attack::Crash { .. } => {
                crash_failed(seed, format!("campaign cell panicked: {message}"))
            }
        }
    }
}

impl fmt::Display for Attack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let on = |b: bool| if b { "on" } else { "OFF" };
        match self {
            Attack::Faults { resilience, parity } => write!(
                f,
                "fault injection, resilience {}, parity {}",
                on(*resilience),
                on(*parity)
            ),
            Attack::Crash { scratch } => {
                write!(f, "kill-and-recover, scratch {}", scratch.display())
            }
        }
    }
}

/// Which detector flagged a non-recovered run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detector {
    /// The no-progress watchdog tripped ([`SimError::Deadlock`]).
    Watchdog,
    /// A panic was caught — in practice the runtime invariant oracle.
    Oracle,
    /// The parity/ECC model flagged corruption during the run.
    Parity,
    /// The checkpoint store rejected a torn or corrupt snapshot
    /// (truncation / CRC / version check) during crash recovery and fell
    /// back to the previous good one.
    Snapshot,
}

impl Detector {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Detector::Watchdog => "watchdog",
            Detector::Oracle => "oracle",
            Detector::Parity => "parity",
            Detector::Snapshot => "snapshot",
        }
    }
}

/// How one attacked run resolved against its golden replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Architectural state converged bit-identically to golden.
    Recovered,
    /// A detector flagged the attack.
    Detected(Detector),
    /// Diverged (or carried surviving corruption, or loaded a torn
    /// snapshot) with no flag — the contract violation. The string says
    /// what leaked.
    SilentEscape(String),
}

impl Outcome {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Recovered => "recovered",
            Outcome::Detected(_) => "detected",
            Outcome::SilentEscape(_) => "ESCAPE",
        }
    }
}

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// What the attack recorded about one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Detail {
    /// A fault-injection run.
    Faults {
        /// Total injected faults (sum of the `fault.*` injection counters).
        injected: u64,
        /// Retries the resilience machinery performed.
        retries: u64,
        /// Deterministic fingerprint of the run: state digest, touched
        /// counters, and the full fault trace. Bit-identical across
        /// thread counts for identical seed + config.
        fingerprint: String,
    },
    /// A kill-and-recover run.
    Crash {
        /// Where the run was killed and what the kill left on disk.
        plan: KillPlan,
        /// Snapshots written before the kill (including any damaged one).
        checkpoints: u64,
        /// Sequence number recovery resumed from; `None` = cold restart.
        resumed_from: Option<u64>,
        /// Torn/corrupt snapshots the store detected and skipped.
        rejected: u64,
    },
}

/// One attacked run's classified result.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Memory configuration.
    pub kind: MemConfigKind,
    /// Seed of this run.
    pub seed: u64,
    /// The classification.
    pub outcome: Outcome,
    /// What the attack recorded.
    pub detail: Detail,
}

impl Run {
    /// The run's two attack counters, named by [`Attack::counter_names`]:
    /// faults injected and retries, or snapshots written and rejected.
    pub fn counters(&self) -> [u64; 2] {
        match &self.detail {
            Detail::Faults {
                injected, retries, ..
            } => [*injected, *retries],
            Detail::Crash {
                checkpoints,
                rejected,
                ..
            } => [*checkpoints, *rejected],
        }
    }
}

/// Outcome counts and summed attack counters over a set of runs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Runs counted.
    pub runs: usize,
    /// Runs classified as recovered.
    pub recovered: usize,
    /// Runs flagged by a detector.
    pub detected: usize,
    /// Silent escapes.
    pub escapes: usize,
    /// The sums of [`Run::counters`].
    pub counters: [u64; 2],
}

impl Tally {
    /// Counts `runs`.
    pub fn of(runs: &[Run]) -> Self {
        let mut t = Self::default();
        for run in runs {
            t.runs += 1;
            match run.outcome {
                Outcome::Recovered => t.recovered += 1,
                Outcome::Detected(_) => t.detected += 1,
                Outcome::SilentEscape(_) => t.escapes += 1,
            }
            for (sum, c) in t.counters.iter_mut().zip(run.counters()) {
                *sum += c;
            }
        }
        t
    }
}

/// A whole campaign's classified runs, in deterministic
/// `(target, kind, seed)` order.
#[derive(Debug)]
pub struct Campaign {
    /// Every attacked run.
    pub cells: Vec<Run>,
}

impl Campaign {
    /// The silent escapes (must be empty for the contract).
    pub fn escapes(&self) -> Vec<&Run> {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, Outcome::SilentEscape(_)))
            .collect()
    }

    /// The whole campaign's tally.
    pub fn tally(&self) -> Tally {
        Tally::of(&self.cells)
    }
}

/// A campaign's settings (the `chaos` binary's flags).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The seeds every cell runs.
    pub seeds: Seeds,
    /// Worker threads for the job pool.
    pub threads: usize,
    /// Run the runtime invariant oracle inside every run.
    pub verify: bool,
    /// What the campaign does to each run.
    pub attack: Attack,
}

/// Runs the full campaign: the golden replay of every `(target, kind)`
/// cell, then every `(target, kind, seed)` run under the attack, in one
/// pool batch, classified against the golden digests.
///
/// # Errors
///
/// Returns a message if any *golden* run fails or panics (the matrix
/// must be healthy before an attack means anything), or if the crash
/// attack cannot create its scratch directory.
pub fn run_campaign(
    targets: &[Target<'_>],
    kinds: &[MemConfigKind],
    cfg: &CampaignConfig,
) -> Result<Campaign, String> {
    let pool = JobPool::new(cfg.threads);
    let cells: Vec<(&Target<'_>, MemConfigKind)> = targets
        .iter()
        .flat_map(|t| kinds.iter().map(move |&kind| (t, kind)))
        .collect();
    let golden = golden_digests(&pool, &cells, cfg.verify)?;
    // The crash scratch goes afterwards only if this campaign creates it.
    let _scratch = match &cfg.attack {
        Attack::Crash { scratch } if !scratch.exists() => {
            std::fs::create_dir_all(scratch)
                .map_err(|e| format!("creating scratch {}: {e}", scratch.display()))?;
            Some(CreatedDir(scratch.clone()))
        }
        _ => None,
    };

    let mut meta = Vec::new();
    let mut jobs = Vec::new();
    for (cell, (&(t, kind), &golden)) in cells.iter().zip(&golden).enumerate() {
        for seed in cfg.seeds.iter() {
            meta.push((t.name.clone(), kind, seed));
            jobs.push(move || cfg.attack.run(t, kind, seed, cell, golden, cfg.verify));
        }
    }
    let cells = meta
        .into_iter()
        .zip(pool.run_catching(jobs))
        .map(|((workload, kind, seed), result)| {
            let (outcome, detail) = match result {
                Ok(r) => r.value,
                Err(p) => cfg.attack.panicked(seed, &p.message),
            };
            Run {
                workload,
                kind,
                seed,
                outcome,
                detail,
            }
        })
        .collect();
    Ok(Campaign { cells })
}

/// Golden digests for every cell, fanned out on `pool`, in cell order.
fn golden_digests(
    pool: &JobPool,
    cells: &[(&Target<'_>, MemConfigKind)],
    verify: bool,
) -> Result<Vec<u64>, String> {
    let jobs: Vec<_> = cells
        .iter()
        .map(|&(t, kind)| move || golden_digest(t, kind, verify))
        .collect();
    cells
        .iter()
        .zip(pool.run_catching(jobs))
        .map(|((t, kind), result)| {
            let context = format!("golden run of {} on {}", t.name, kind.name());
            match result {
                Ok(r) => r.value.map_err(|msg| format!("{context}: {msg}")),
                Err(p) => Err(format!("{context}: {p}")),
            }
        })
        .collect()
}

/// The architectural-state digest of a fault-free, uninterrupted run:
/// the reference both attacks classify against. A failure here means
/// the matrix itself is unhealthy.
fn golden_digest(target: &Target<'_>, kind: MemConfigKind, verify: bool) -> Result<u64, String> {
    let mut machine = Machine::new(target.sys.clone(), kind);
    machine.memory_mut().set_verify(verify);
    match machine.run(&(target.build)(kind)) {
        Ok(_) => Ok(machine.memory().state_digest()),
        Err(SimError::Deadlock { site, attempts, .. }) => Err(format!(
            "watchdog tripped at {site} after {attempts} attempts without injection"
        )),
        Err(e) => Err(e.to_string()),
    }
}

/// Runs one cell under the fault schedule `fault` and classifies it
/// against `golden`.
fn inject_faults(
    target: &Target<'_>,
    kind: MemConfigKind,
    fault: FaultConfig,
    verify: bool,
    golden: u64,
) -> (Outcome, Detail) {
    use std::fmt::Write;
    let mut machine = Machine::new(target.sys.clone(), kind);
    machine.memory_mut().set_verify(verify);
    machine.memory_mut().set_fault_injector(fault);
    match machine.run(&(target.build)(kind)) {
        Ok(_) => {}
        Err(SimError::Deadlock { site, attempts, .. }) => {
            let fingerprint = format!("deadlock:{site}:{attempts}");
            return unfinished(Outcome::Detected(Detector::Watchdog), fingerprint);
        }
        // An unexpected non-watchdog error under injection is not a
        // proven corruption, but it is not a proven recovery either —
        // count it against the contract so it gets investigated.
        Err(e) => {
            let why = format!("unexpected simulation error: {e}");
            return unfinished(Outcome::SilentEscape(why), format!("error:{e}"));
        }
    }
    let mem = machine.memory();
    let counters = mem.counters();
    let injected = counters.get("fault.drop_injected")
        + counters.get("fault.dup_injected")
        + counters.get("fault.delay_injected")
        + counters.get("fault.flip_injected")
        + counters.get("fault.wb_lost")
        + counters.get("fault.dma_truncated");
    let retries = counters.get("resilience.retry");
    let flagged = counters.get("fault.parity_detected") + counters.get("fault.scrub_detected");
    let remaining = mem.remaining_corruption();
    let digest = mem.state_digest();
    let outcome = if remaining > 0 {
        Outcome::SilentEscape(format!(
            "{remaining} corrupt word(s) survived to the end of the run undetected"
        ))
    } else if digest == golden {
        Outcome::Recovered
    } else if flagged > 0 {
        Outcome::Detected(Detector::Parity)
    } else {
        Outcome::SilentEscape(
            "architectural state diverged from the golden replay with no detector fired"
                .to_string(),
        )
    };
    // The fingerprint: state digest, touched counters, full fault trace.
    let mut fingerprint = format!("digest:{digest:016x};");
    for (name, value) in counters.iter() {
        write!(fingerprint, "{name}={value};").expect("writing to String cannot fail");
    }
    fingerprint.push_str("trace:");
    for e in mem.fault_injector().map_or(&[][..], |inj| inj.trace()) {
        write!(
            fingerprint,
            "{}:{:?}:{}:{};",
            e.site, e.kind, e.seq, e.attempt
        )
        .expect("writing to String cannot fail");
    }
    let detail = Detail::Faults {
        injected,
        retries,
        fingerprint,
    };
    (outcome, detail)
}

/// The record of a fault-injection run that did not finish.
fn unfinished(outcome: Outcome, fingerprint: String) -> (Outcome, Detail) {
    let detail = Detail::Faults {
        injected: 0,
        retries: 0,
        fingerprint,
    };
    (outcome, detail)
}

/// A directory the campaign created; dropping it removes the directory
/// and everything in it, whether its run passed, failed or panicked.
struct CreatedDir(PathBuf);

impl Drop for CreatedDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One kill-and-recover run in the fresh directory `dir`, classified
/// against `golden`.
fn kill_and_recover(
    target: &Target<'_>,
    kind: MemConfigKind,
    seed: u64,
    verify: bool,
    dir: &Path,
    golden: u64,
) -> Result<(Outcome, Detail), String> {
    std::fs::create_dir(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let _dir = CreatedDir(dir.to_path_buf());
    let store = CheckpointStore::open(dir)
        .map_err(|e| format!("opening scratch store {}: {e}", dir.display()))?;
    let program = (target.build)(kind);
    let plan = KillPlan::for_seed(seed, program.phases.len());

    // Checkpoint every barrier and die at the planned one, leaving the
    // snapshot just written as the plan says. A kill planned at the last
    // barrier lets the run finish; recovery then resumes a complete
    // cursor, which is a valid edge case.
    let mut machine = Machine::new(target.sys.clone(), kind);
    machine.memory_mut().set_verify(verify);
    let (mut checkpoints, mut last_seq) = (0, None);
    let end = checkpoint_every_barrier(
        &mut machine,
        &program,
        &store,
        Some(plan.barrier + 1),
        |_, seq| {
            checkpoints += 1;
            last_seq = Some(seq);
        },
    )
    .map_err(|e| format!("crashing attempt failed before the kill: {e}"))?;
    if let (Checkpointed::Stopped(_), Some(seq)) = (end, last_seq) {
        tear_file(&store.path_for(seq), plan.mode, seed)?;
    }

    // Recover from the newest snapshot that validates; when none does,
    // every file on disk was rejected and the run restarts cold.
    let (mut machine, mut cursor, resumed_from, rejected) = match resume_newest(&store, &program)? {
        Some(r) => (r.machine, r.cursor, Some(r.seq), r.rejected.len() as u64),
        None => (
            Machine::new(target.sys.clone(), kind),
            RunCursor::default(),
            None,
            store.list().len() as u64,
        ),
    };
    machine.memory_mut().set_verify(verify);
    machine
        .run_from(&program, None, &mut cursor, |_, _| Ok(()))
        .map_err(|e| format!("recovered run failed: {e}"))?;
    let digest = machine.memory().state_digest();
    let outcome = classify_recovery(plan, digest, golden, resumed_from, rejected, last_seq);
    let detail = Detail::Crash {
        plan,
        checkpoints,
        resumed_from,
        rejected,
    };
    Ok((outcome, detail))
}

/// The record of a kill-and-recover run that could not be carried out.
fn crash_failed(seed: u64, why: String) -> (Outcome, Detail) {
    let detail = Detail::Crash {
        plan: KillPlan::for_seed(seed, 1),
        checkpoints: 0,
        resumed_from: None,
        rejected: 0,
    };
    (Outcome::SilentEscape(why), detail)
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

fn classify_recovery(
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

/// How [`checkpoint_every_barrier`] ended.
#[derive(Debug)]
pub enum Checkpointed {
    /// The program ran to completion.
    Completed(Box<RunReport>),
    /// The run stopped after the barrier it was asked to stop at; the
    /// cursor says where.
    Stopped(RunCursor),
}

/// Runs `program` on `machine` from its first phase, saving a snapshot
/// into `store` at every phase barrier, and stops after the first
/// barrier with `until` or more phases done, if `until` is given.
/// `saved` is told each barrier's cursor and the sequence number its
/// snapshot was written under.
///
/// # Errors
///
/// Propagates simulation errors and failed snapshot writes.
pub fn checkpoint_every_barrier(
    machine: &mut Machine,
    program: &Program,
    store: &CheckpointStore,
    until: Option<usize>,
    mut saved: impl FnMut(&RunCursor, u64),
) -> Result<Checkpointed, SimError> {
    let mut cursor = RunCursor::default();
    // `run_from` stops early only on an error; the flag, not the error,
    // tells the stop asked for from a real failure.
    let mut stopped = false;
    let result = machine.run_from(program, None, &mut cursor, |m, c| {
        let seq = store
            .save(&m.checkpoint(program, *c))
            .map_err(|e| SimError::Config(format!("checkpoint write failed: {e}")))?;
        saved(c, seq);
        stopped = until.is_some_and(|k| c.next_phase >= k);
        if stopped {
            Err(SimError::Config(String::new()))
        } else {
            Ok(())
        }
    });
    match result {
        Ok(report) => Ok(Checkpointed::Completed(Box::new(report))),
        Err(_) if stopped => Ok(Checkpointed::Stopped(cursor)),
        Err(e) => Err(e),
    }
}

/// A run restored from the newest valid snapshot of a checkpoint store.
pub struct Resumed {
    /// The restored machine.
    pub machine: Machine,
    /// Where the run continues.
    pub cursor: RunCursor,
    /// Sequence number of the snapshot it was restored from.
    pub seq: u64,
    /// Newer snapshots the store rejected as torn or corrupt, newest
    /// first.
    pub rejected: Vec<(u64, SimError)>,
}

/// Restores `program`'s run from the newest snapshot in `store` that
/// validates, skipping torn and corrupt newer files; `None` when no
/// snapshot validates. Continue the run with [`Machine::run_from`].
///
/// # Errors
///
/// Returns a message naming the file if the newest valid snapshot does
/// not restore `program` (another program's snapshot, a cursor out of
/// range).
pub fn resume_newest(
    store: &CheckpointStore,
    program: &Program,
) -> Result<Option<Resumed>, String> {
    let Some((seq, snap, rejected)) = store.latest_valid() else {
        return Ok(None);
    };
    let (machine, cursor) = Machine::resume(&snap, program)
        .map_err(|e| format!("cannot resume from {}: {e}", store.path_for(seq).display()))?;
    Ok(Some(Resumed {
        machine,
        cursor,
        seq,
        rejected,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::suite;

    fn target(w: &suite::Workload) -> Target<'_> {
        Target {
            name: w.name.to_string(),
            sys: w.set.system_config(),
            build: &w.build,
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stash-chaos-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const FAULTS: Attack = Attack::Faults {
        resilience: true,
        parity: true,
    };

    #[test]
    fn resilient_chaos_on_one_micro_has_no_escapes() {
        let w = suite::micros()[0];
        let cfg = CampaignConfig {
            seeds: Seeds::new(1, 2).unwrap(),
            threads: 2,
            verify: false,
            attack: FAULTS,
        };
        let campaign =
            run_campaign(&[target(&w)], &[MemConfigKind::Stash], &cfg).expect("golden runs clean");
        assert_eq!(campaign.cells.len(), 2);
        assert!(
            campaign.escapes().is_empty(),
            "resilient runs must never escape: {:?}",
            campaign.escapes()
        );
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(Outcome::Recovered.label(), "recovered");
        assert_eq!(Outcome::Detected(Detector::Watchdog).label(), "detected");
        assert_eq!(Outcome::SilentEscape("x".into()).label(), "ESCAPE");
        assert_eq!(Detector::Parity.label(), "parity");
    }

    #[test]
    fn seed_ranges_are_checked() {
        let ok = Seeds::new(u64::MAX - 1, 2).unwrap();
        assert_eq!(ok.iter().collect::<Vec<_>>(), [u64::MAX - 1, u64::MAX]);
        assert_eq!(Seeds::new(7, MAX_SEEDS).unwrap().iter().count(), 1024);
        assert_eq!(Seeds::new(1, 0), Err(SeedRangeError::Count(0)));
        assert_eq!(
            Seeds::new(1, MAX_SEEDS + 1),
            Err(SeedRangeError::Count(MAX_SEEDS + 1))
        );
        assert_eq!(
            Seeds::new(u64::MAX, 2),
            Err(SeedRangeError::Overflow {
                first: u64::MAX,
                count: 2
            })
        );
    }

    #[test]
    fn golden_digest_is_deterministic() {
        let w = suite::micros()[0];
        let t = target(&w);
        let a = golden_digest(&t, MemConfigKind::Stash, false).unwrap();
        let b = golden_digest(&t, MemConfigKind::Stash, false).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn matrix_digests_match_single_runs() {
        let w = suite::micros()[1];
        let t = target(&w);
        let kinds = [MemConfigKind::Scratch, MemConfigKind::Stash];
        let cells: Vec<_> = kinds.iter().map(|&kind| (&t, kind)).collect();
        let matrix = golden_digests(&JobPool::new(2), &cells, false).unwrap();
        assert_eq!(matrix.len(), 2);
        for (i, &kind) in kinds.iter().enumerate() {
            assert_eq!(matrix[i], golden_digest(&t, kind, false).unwrap());
        }
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
        let dir = scratch("campaign");
        let cfg = CampaignConfig {
            seeds: Seeds::new(1, 6).unwrap(),
            threads: 2,
            verify: false,
            attack: Attack::Crash {
                scratch: dir.clone(),
            },
        };
        let campaign =
            run_campaign(&[target(&w)], &[MemConfigKind::Stash], &cfg).expect("golden runs clean");
        assert!(!dir.exists(), "the campaign removes the scratch it created");
        assert_eq!(campaign.cells.len(), 6);
        assert!(
            campaign.escapes().is_empty(),
            "kill-and-recover must never escape: {:?}",
            campaign.escapes()
        );
        // Every torn kill must have been detected, never silently loaded.
        for c in &campaign.cells {
            let Detail::Crash { plan, rejected, .. } = c.detail else {
                panic!("a crash run");
            };
            if plan.mode.tears_file() {
                assert_eq!(
                    c.outcome,
                    Outcome::Detected(Detector::Snapshot),
                    "seed {} mode {:?}",
                    c.seed,
                    plan.mode
                );
                assert!(rejected >= 1);
            } else {
                assert_eq!(c.outcome, Outcome::Recovered, "seed {}", c.seed);
            }
        }
    }
}
