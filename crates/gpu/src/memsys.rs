//! The memory-system orchestrator.
//!
//! [`MemorySystem`] owns every shared structure of Figure 4 — the mesh
//! network, the banked LLC/registry, the per-core L1s, the per-CU
//! scratchpads or stashes, and the page table — and exposes the
//! transaction-level operations the timing models call. Every operation:
//!
//! 1. applies the architectural state changes (coherence, registry,
//!    stash bookkeeping) synchronously,
//! 2. accounts energy into the five figure components and traffic into the
//!    three message classes, and
//! 3. returns the access latency in cycles, built from Table 2's formulas
//!    (L2 base + mesh hops, +DRAM for cold lines, three-leg forwarding for
//!    remotely registered words, +10 cycles for stash translations).
//!
//! Timing is *latency-and-accounting*: requests resolve immediately rather
//! than as in-flight messages. Contention appears at the CU issue/L1 port
//! (in [`crate::cu`]) and in DMA's blocking transfers; router queueing is
//! not modelled (see DESIGN.md).

use crate::coalescer::{Coalescer, Transaction};
use crate::config::MemConfigKind;
use energy::{Component, EnergyAccount, EnergyModel};
use mem::addr::{LineAddr, PAddr, VAddr, WORD_BYTES};
use mem::cache::DenovoCache;
use mem::dma::{DmaDirection, DmaTransfer};
use mem::llc::{CoreId, Llc, LlcLoadOutcome, Registration};
use mem::paging::PageTable;
use mem::scratchpad::{busiest_bank, Scratchpad};
use mem::tile::TileMap;
use noc::{Attempt, Delivery, Mesh, Message, MsgClass, Network, NodeId};
use sim::config::SystemConfig;
use sim::fault::{self, FaultConfig, FaultEvent, FaultInjector, FaultKind};
use sim::stats::{Counter, Counters};
use sim::trace::{StallReason, TraceEvent, TraceSink};
use sim::SimError;
use stash::{
    AddMapOutcome, LoadOutcome, MapIndex, Stash, StashConfig, StoreOutcome, UsageMode,
    WritebackWord,
};
use std::collections::BTreeMap;

/// The cost of one memory transaction.
///
/// `latency` is when the result returns; `occupancy` is how long the
/// core's memory path (coalescer/L1 port + NoC injection) is busy with
/// the transaction's flits — the bandwidth component. Miss-heavy
/// configurations therefore serialize on their own traffic even when
/// warp parallelism hides the latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxCost {
    /// Cycles until the transaction's data is available.
    pub latency: u64,
    /// Cycles the core's memory path is occupied (flits injected+ejected).
    pub occupancy: u64,
}

/// One shared-state mutation recorded by a CU shard for the staged-op merge.
///
/// A shard (see [`MemorySystem::fork_shard`]) runs one CU's blocks against
/// a private snapshot of the hierarchy; every operation that would touch
/// *shared* state — the LLC/registry and cross-core invalidations — is
/// recorded here with its issue cycle and a per-shard sequence number.
/// The merge sorts all shards' ops by `(cycle, cu, seq)` and replays them
/// against the master hierarchy in that order, which makes the merged
/// state independent of thread count.
#[derive(Debug, Clone, Copy)]
enum StagedOp {
    /// An LLC word read ([`Llc::load_word`]): materializes residency.
    LoadWord(LineAddr, usize),
    /// A word registration ([`Llc::register_word`]); the replayed
    /// outcome's previous owner drives the protocol invalidation.
    RegisterWord(LineAddr, usize, Registration),
    /// A registered word written back by `owner`.
    WritebackWord(LineAddr, usize, CoreId),
    /// A DMA store-through; the replayed previous owner is invalidated.
    StoreThrough(LineAddr, usize),
    /// A whole-line fill ([`Llc::line_fill`]) for `requester`.
    LineFill(LineAddr, CoreId),
    /// Fault injection marked the word corrupt.
    CorruptWord(LineAddr, usize),
    /// A store overwrote (repaired) the word's corruption.
    ClearCorrupt(LineAddr, usize),
    /// A parity check detected (and corrected) the word.
    CheckParity(LineAddr, usize),
}

/// A shard's staged-op log: `(issue_cycle, seq, op)` triples in issue
/// order, plus the running sequence counter.
#[derive(Debug, Clone, Default)]
pub struct StageLog {
    seq: u64,
    ops: Vec<(u64, u64, StagedOp)>,
}

impl StageLog {
    /// Number of staged operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operations were staged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Compact reduction of a finished CU shard — exactly the state
/// [`MemorySystem::absorb_result`] needs. Built worker-side by
/// [`MemorySystem::reduce_shard`] so the bulk of the snapshot is torn
/// down off the merge thread.
#[derive(Debug)]
pub struct ShardResult {
    cu: usize,
    cycles: u64,
    mapped_pages: usize,
    l1: DenovoCache,
    scratchpad: Option<Scratchpad>,
    stash: Option<Stash>,
    counters: Counters,
    energy: EnergyAccount,
    net: Network,
    gpu_instructions: u64,
    fault_trace: Vec<FaultEvent>,
    trace: Option<Box<TraceSink>>,
    log: StageLog,
    dram: u64,
}

impl ShardResult {
    /// The CU this shard simulated.
    pub fn cu(&self) -> usize {
        self.cu
    }

    /// Cycles the CU's blocks consumed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }
}

/// Words grouped by physical line for one batch of global actions (a
/// stash fetch, registration or writeback, a DMA transfer): lines in
/// first-touch order, each line's words in arrival order, each word a
/// physical address and one value its caller carries along (a stash
/// word). Regrouping reuses the buffers, so it allocates nothing once
/// they have grown to the batch.
#[derive(Debug, Clone, Default)]
struct LineGroups {
    /// Each line in first-touch order with the end of its words.
    lines: Vec<(LineAddr, usize)>,
    /// Each word's line index and payload, in arrival order.
    arrivals: Vec<(usize, PAddr, usize)>,
    /// The payloads grouped line by line.
    words: Vec<(PAddr, usize)>,
}

impl LineGroups {
    /// Replaces the groups with `words`, given in arrival order: a
    /// stable counting sort by each word's first-touch line.
    fn regroup(&mut self, line_bytes: u64, words: impl Iterator<Item = (PAddr, usize)>) {
        self.lines.clear();
        self.arrivals.clear();
        for (pa, aux) in words {
            let line = pa.line(line_bytes);
            // Lines are distinct; the newest is the likeliest match.
            let g = match self.lines.iter().rposition(|&(l, _)| l == line) {
                Some(g) => g,
                None => {
                    self.lines.push((line, 0));
                    self.lines.len() - 1
                }
            };
            self.lines[g].1 += 1;
            self.arrivals.push((g, pa, aux));
        }
        // Counts become start offsets, and each placement advances its
        // line's offset, which ends at the line's end.
        let mut start = 0;
        for (_, n) in &mut self.lines {
            let count = *n;
            *n = start;
            start += count;
        }
        self.words.clear();
        self.words.resize(self.arrivals.len(), (PAddr(0), 0));
        for &(g, pa, aux) in &self.arrivals {
            let at = &mut self.lines[g].1;
            self.words[*at] = (pa, aux);
            *at += 1;
        }
    }

    /// Each line with its words, in first-touch order.
    fn iter(&self) -> impl Iterator<Item = (LineAddr, &[(PAddr, usize)])> {
        let mut begin = 0;
        self.lines.iter().map(move |&(line, end)| {
            let words = &self.words[begin..end];
            begin = end;
            (line, words)
        })
    }
}

/// The lists one operation builds, kept so that operations reuse them
/// instead of allocating. Scratch only: no operation reads what an
/// earlier one left in them, so `save`, `restore`, `state_digest` and
/// `fork_shard` ignore them. An operation that fails drops the lists it
/// had taken out; the next one starts with empty ones.
#[derive(Debug, Clone, Default)]
struct OpBuffers {
    /// `stash_fallback_tx`'s lane addresses and their transactions.
    lanes: Vec<VAddr>,
    coalescer: Coalescer,
    /// `cache_tx`'s physical words.
    pas: Vec<PAddr>,
    /// `stash_tx`'s sorted distinct words, and the loads and
    /// registrations they need.
    stash_words: Vec<usize>,
    loads: Vec<(usize, VAddr)>,
    registrations: Vec<(usize, VAddr)>,
    /// One zeroed counter per stash bank, for [`busiest_bank`].
    bank_counts: Vec<u32>,
    /// The one grouping of words by line.
    groups: LineGroups,
}

impl OpBuffers {
    fn new(local_banks: usize) -> Self {
        Self {
            bank_counts: vec![0; local_banks],
            ..Self::default()
        }
    }
}

/// Takes a reused list out of its owner, emptied.
fn take_cleared<T>(list: &mut Vec<T>) -> Vec<T> {
    let mut taken = std::mem::take(list);
    taken.clear();
    taken
}

/// The assembled memory hierarchy.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: SystemConfig,
    kind: MemConfigKind,
    net: Network,
    llc: Llc,
    l1s: Vec<DenovoCache>,
    scratchpads: Vec<Scratchpad>,
    stashes: Vec<Stash>,
    pt: PageTable,
    model: EnergyModel,
    energy: EnergyAccount,
    counters: Counters,
    gpu_instructions: u64,
    verify: bool,
    fault: Option<FaultInjector>,
    trace: Option<Box<TraceSink>>,
    /// Kernel-local cycle of the operation in flight (stamped by the CU
    /// scheduler); orders staged ops in the staged-op merge.
    now: u64,
    /// Staged-op log, present only in forked CU shards.
    stage: Option<Box<StageLog>>,
    /// Per-operation lists, reused.
    bufs: OpBuffers,
}

impl MemorySystem {
    /// Builds the memory system for one configuration: the whole machine,
    /// switches included. A kind with stashes gets one per CU, plus one
    /// per CPU core when `cfg.cpu_stashes` is set (stash indices are core
    /// IDs); every stash is built from the same
    /// [`StashConfig::for_system`] translation of `cfg`. On a kind
    /// without stashes the stash switches do nothing.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn new(cfg: SystemConfig, kind: MemConfigKind) -> Self {
        cfg.validate().expect("invalid system configuration");
        let cores = cfg.gpu_cus + cfg.cpu_cores;
        let l1s = (0..cores)
            .map(|_| DenovoCache::new(cfg.l1_bytes, cfg.l1_ways, cfg.line_bytes))
            .collect();
        let scratchpads = if kind.uses_scratchpad() {
            (0..cfg.gpu_cus)
                .map(|_| Scratchpad::new(cfg.scratchpad_bytes, cfg.local_banks))
                .collect()
        } else {
            Vec::new()
        };
        let stash_count = match (kind.uses_stash(), cfg.cpu_stashes) {
            (false, _) => 0,
            (true, false) => cfg.gpu_cus,
            (true, true) => cores,
        };
        let stash_cfg = StashConfig::for_system(&cfg);
        let stashes = (0..stash_count)
            .map(|_| Stash::new(stash_cfg.clone()))
            .collect();
        Self {
            net: Network::with_latencies(
                Mesh::new(cfg.mesh_side),
                cfg.hop_round_trip_cycles,
                cfg.hop_round_trip_cycles_y,
            ),
            llc: Llc::with_interleave(cfg.l2_banks, cfg.line_bytes, cfg.l2_interleave_lines),
            l1s,
            scratchpads,
            stashes,
            pt: PageTable::new(cfg.page_bytes as u64),
            model: EnergyModel::default().scaled(cfg.energy_scale_pct),
            energy: EnergyAccount::new(),
            counters: Counters::new(),
            gpu_instructions: 0,
            verify: false,
            fault: None,
            trace: None,
            now: 0,
            stage: None,
            bufs: OpBuffers::new(cfg.local_banks),
            cfg,
            kind,
        }
    }

    /// Enables the runtime invariant oracle: after every architectural
    /// transition, the L1s, stashes, and LLC registry are cross-checked
    /// against DeNovo's global invariants — at most one Registered holder
    /// per word, every Registered copy matched by a registry entry naming
    /// its structure, and every registry entry backed by a core that
    /// really holds the word. Verification walks every registered word
    /// after every transaction, so use it for correctness runs (the
    /// bench binaries' `--verify` flag), not for timing numbers.
    ///
    /// # Panics
    ///
    /// Once enabled, any subsequent operation that leaves the hierarchy
    /// in an invariant-violating state panics with the violated invariant
    /// and the operation that exposed it.
    pub fn set_verify(&mut self, on: bool) {
        self.verify = on;
    }

    /// Whether the runtime invariant oracle is enabled.
    pub fn verify_enabled(&self) -> bool {
        self.verify
    }

    // ------------------------------------------------------------------
    // Tracing (observability layer)
    // ------------------------------------------------------------------

    /// Installs a [`TraceSink`] with the given ring capacity. With no
    /// sink installed (the default) every emission site short-circuits on
    /// a single inlined `Option` check — no allocation, no formatting —
    /// and timing, counters, and `state_digest` are bit-identical to an
    /// untraced run (pinned by tests).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Box::new(TraceSink::new(capacity)));
    }

    /// Whether a trace sink is installed.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// The installed sink, if any (exporters read events and the stall
    /// breakdown back out).
    pub fn trace(&self) -> Option<&TraceSink> {
        self.trace.as_deref()
    }

    /// Takes the sink out of the memory system (end of a traced run).
    pub fn take_trace(&mut self) -> Option<Box<TraceSink>> {
        self.trace.take()
    }

    /// Stamps the sink's clock with a kernel-local cycle. The memory
    /// system is latency-and-accounting and does not know the clock, so
    /// the warp scheduler / machine stamp "now" before operations; all
    /// events emitted inside the operation reuse the stamp.
    #[inline]
    pub fn set_trace_time(&mut self, rel_cycle: u64) {
        if let Some(t) = self.trace.as_mut() {
            t.set_now(rel_cycle);
        }
    }

    /// Stamps the operation clock: the kernel-local issue cycle of the
    /// operation about to run. Orders staged ops in the staged-op merge (and
    /// stamps the trace clock too, when tracing). Called unconditionally
    /// by the CU scheduler — a single store on the untraced, unsharded
    /// path.
    #[inline]
    pub fn set_now(&mut self, rel_cycle: u64) {
        self.now = rel_cycle;
        if let Some(t) = self.trace.as_mut() {
            t.set_now(rel_cycle);
        }
    }

    /// Records one shared-state mutation in the shard's staged-op log.
    /// Free (one branch) outside a shard.
    #[inline]
    fn stage_op(&mut self, op: StagedOp) {
        if let Some(log) = self.stage.as_mut() {
            let seq = log.seq;
            log.seq += 1;
            log.ops.push((self.now, seq, op));
        }
    }

    /// Sets the absolute-cycle base (cycles of previously completed
    /// kernels) so stamps stay monotone across kernels.
    pub fn set_trace_base(&mut self, base: u64) {
        if let Some(t) = self.trace.as_mut() {
            t.set_base(base);
        }
    }

    /// Attributes `cycles` on CU `cu` to `reason` in the stall breakdown.
    #[inline]
    pub fn trace_stall(&mut self, cu: usize, reason: StallReason, cycles: u64) {
        if let Some(t) = self.trace.as_mut() {
            t.stall(cu, reason, cycles);
        }
    }

    /// Runs `f` against the sink when tracing is enabled (event emission
    /// helper for the CU model).
    #[inline]
    pub fn trace_with(&mut self, f: impl FnOnce(&mut TraceSink)) {
        if let Some(t) = self.trace.as_mut() {
            f(t);
        }
    }

    // ------------------------------------------------------------------
    // Fault injection & resilience (chaos substrate)
    // ------------------------------------------------------------------

    /// Installs a deterministic fault-injection schedule. Call before any
    /// accesses. With no injector installed (the default) every
    /// fault/resilience path short-circuits on a single `Option` check —
    /// the machinery is overhead-free and all results are bit-identical
    /// to a fault-free build.
    pub fn set_fault_injector(&mut self, cfg: FaultConfig) {
        self.fault = Some(FaultInjector::new(cfg));
    }

    /// The installed fault injector, if any (the chaos harness reads the
    /// config and deterministic event trace back out).
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.fault.as_ref()
    }

    /// Whether the parity/ECC detection model is active.
    fn parity_on(&self) -> bool {
        self.fault.as_ref().is_some_and(|f| f.config().parity)
    }

    /// Records a stash allocation failure that degraded to the plain
    /// cache path (graceful degradation; the CU model reports the event
    /// when it rebinds the slot).
    pub fn note_stash_fallback(&mut self) {
        self.counters.bump(Counter::ResilienceStashFallback);
    }

    /// Corrupt words that survived every read check and the end-of-run
    /// scrub. Any nonzero value is a silent-corruption escape — the chaos
    /// harness's zero-tolerance gate.
    pub fn remaining_corruption(&self) -> usize {
        self.llc.corrupt_word_count()
            + self
                .stashes
                .iter()
                .map(Stash::corrupt_word_count)
                .sum::<usize>()
    }

    /// End-of-run parity scrub: with the parity model on, sweeps the LLC
    /// and every stash for corrupt words (counted as
    /// `fault.scrub_detected`). With parity off the sweep is skipped —
    /// whatever is corrupt stays corrupt, which is exactly what
    /// [`Self::remaining_corruption`] reports.
    pub fn scrub_faults(&mut self) {
        if !self.parity_on() {
            return;
        }
        let mut found = self.llc.scrub();
        for s in &mut self.stashes {
            found += s.scrub();
        }
        self.counters.add(Counter::FaultScrubDetected, found as u64);
    }

    /// An FNV-1a digest of the architectural state the protocol is
    /// responsible for: the LLC registry and resident lines, each L1's
    /// registered words, and each stash's pending writebacks, all in
    /// canonical (sorted) order. Latency, energy, and traffic are
    /// deliberately excluded — retries repeat *accounting*, never state —
    /// so a recovered faulty run digests identically to its fault-free
    /// golden replay.
    pub fn state_digest(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn put(h: &mut u64, v: u64) {
            for b in v.to_le_bytes() {
                *h = (*h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (line, word, reg) in self.llc.registered_words() {
            put(&mut h, line.0);
            put(&mut h, word as u64);
            match reg {
                Registration::Cache(core) => {
                    put(&mut h, 0);
                    put(&mut h, core.0 as u64);
                }
                Registration::Stash { core, map_index } => {
                    put(&mut h, 1);
                    put(&mut h, core.0 as u64);
                    put(&mut h, map_index as u64);
                }
            }
        }
        for line in self.llc.resident_line_addrs() {
            put(&mut h, line.0);
        }
        for l1 in &self.l1s {
            for pa in l1.registered_words() {
                put(&mut h, pa.0);
            }
            put(&mut h, u64::MAX); // per-core separator
        }
        for s in &self.stashes {
            let mut wbs: Vec<(usize, u64)> = s
                .pending_writebacks()
                .iter()
                .map(|wb| (wb.stash_word, wb.vaddr.0))
                .collect();
            wbs.sort_unstable();
            for (w, va) in wbs {
                put(&mut h, w as u64);
                put(&mut h, va);
            }
            put(&mut h, u64::MAX);
        }
        h
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    /// Serializes the machine once and then its state. The machine is
    /// the [`SystemConfig`], switches included, and the configuration
    /// kind; the state is what changes as it runs: network and LLC
    /// accounting, the LLC registry, every L1, scratchpad and stash, the
    /// page table, the energy account, the counters, and the fault
    /// injector's schedule position. No structure repeats a size the
    /// configuration holds, and what is only observed — the trace sink,
    /// its stall attribution, the fault-event log and the oracle switch —
    /// is not saved. Only meaningful at a phase barrier, where no request
    /// is in flight and the latency-and-accounting model holds no
    /// transient state.
    ///
    /// # Panics
    ///
    /// Panics if called on a forked CU shard — snapshots are taken from
    /// the quiescent master only.
    pub fn save(&self, w: &mut sim::snapshot::Writer) {
        assert!(
            self.stage.is_none(),
            "checkpoint requires the quiescent master, not a forked shard"
        );
        self.cfg.save(w);
        w.put_u8(self.kind.code());
        self.net.save(w);
        self.llc.save(w);
        for l1 in &self.l1s {
            l1.save(w);
        }
        for sp in &self.scratchpads {
            sp.save(w);
        }
        for s in &self.stashes {
            s.save(w);
        }
        self.pt.save(w);
        self.energy.save(w);
        self.counters.save(w);
        w.put_u64(self.gpu_instructions);
        match &self.fault {
            None => w.put_u8(0),
            Some(f) => {
                w.put_u8(1);
                f.save(w);
            }
        }
        w.put_u64(self.now);
    }

    /// Restores a hierarchy written by [`MemorySystem::save`]: builds the
    /// machine once, with [`MemorySystem::new`] from the saved
    /// configuration and kind, then reads the state into it. The restored
    /// system has no trace sink, no fault-event log and the oracle off; a
    /// caller that wants them installs them again.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CheckpointCorrupt`] if the configuration fails
    /// [`SystemConfig::validate`], a structure's state is malformed or
    /// does not fit its geometry, or the LLC registry names an owner the
    /// machine lacks.
    pub fn restore(r: &mut sim::snapshot::Reader<'_>) -> Result<Self, SimError> {
        let cfg = SystemConfig::load(r)?;
        let kind = MemConfigKind::from_code(r.take_u8()?)?;
        let mut m = MemorySystem::new(cfg, kind);
        m.net.restore(r)?;
        m.llc
            .restore(r, m.l1s.len(), m.stashes.len(), m.cfg.stash_map_entries)?;
        for l1 in &mut m.l1s {
            l1.restore(r)?;
        }
        for sp in &mut m.scratchpads {
            sp.restore(r)?;
        }
        for s in &mut m.stashes {
            s.restore(r)?;
        }
        m.pt.restore(r)?;
        m.energy = EnergyAccount::load(r)?;
        m.counters = Counters::load(r)?;
        m.gpu_instructions = r.take_u64()?;
        m.fault = match r.take_u8()? {
            0 => None,
            1 => Some(FaultInjector::load(r)?),
            v => {
                return Err(SimError::CheckpointCorrupt {
                    what: "memory system",
                    detail: format!("unknown fault-injector code {v}"),
                })
            }
        };
        m.now = r.take_u64()?;
        Ok(m)
    }

    /// A human-readable dump of in-flight protocol state for the
    /// no-progress watchdog: which request stalled, what every core still
    /// holds registered, what the retry counters saw, the active fault
    /// seed, and the last ring-buffered trace events leading up to the
    /// hang. Attached to [`SimError::Deadlock`] so a tripped run is
    /// diagnosable rather than a hang.
    fn diagnostic_dump(&self, site: &'static str, seq: u64, from: NodeId, to: NodeId) -> String {
        use std::fmt::Write as _;
        /// How many trailing trace events the dump carries.
        const DUMP_EVENTS: usize = 16;
        let mut out = String::new();
        let _ = write!(
            out,
            "request seq {seq} at {site} (node {} -> node {}) undeliverable;",
            from.0, to.0
        );
        let _ = write!(
            out,
            " llc: {} registered words, {} resident lines;",
            self.llc.registered_words().len(),
            self.llc.resident_line_addrs().len()
        );
        for (c, l1) in self.l1s.iter().enumerate() {
            let n = l1.registered_words().len();
            if n > 0 {
                let _ = write!(out, " l1[{c}]: {n} registered;");
            }
        }
        for (c, s) in self.stashes.iter().enumerate() {
            let n = s.pending_writebacks().len();
            if n > 0 {
                let _ = write!(out, " stash[{c}]: {n} pending writebacks;");
            }
        }
        let _ = write!(
            out,
            " retries {}, timeouts {}, fault events {}",
            self.counters.get("resilience.retry"),
            self.counters.get("resilience.timeout"),
            self.fault.as_ref().map_or(0, |f| f.trace().len())
        );
        if let Some(f) = self.fault.as_ref() {
            let _ = write!(out, "; fault seed {}", f.config().seed);
        }
        if let Some(t) = self.trace.as_ref() {
            let tail = t.last_events(DUMP_EVENTS);
            if !tail.is_empty() {
                let _ = write!(out, "; last {} trace events:", tail.len());
                for ev in tail {
                    let _ = write!(out, " {}@{}", ev.kind_name(), ev.at());
                }
            }
        }
        out
    }

    /// The invariant oracle (see [`Self::set_verify`]). Split into the
    /// owner→registry direction (every Registered word in an L1 or stash
    /// has a matching registry entry — and no two structures hold the
    /// same word Registered) and the registry→owner direction (every
    /// registry entry names a structure that holds the word Registered).
    fn check_invariants(&mut self, context: &str) {
        let line_bytes = self.cfg.line_bytes as u64;
        // Holder of each Registered word seen so far (SWMR witness).
        let mut holders: std::collections::HashMap<(LineAddr, usize), String> =
            std::collections::HashMap::new();

        // Owner → registry: L1-held Registered words.
        for (c, l1) in self.l1s.iter().enumerate() {
            for pa in l1.registered_words() {
                let line = pa.line(line_bytes);
                let w = pa.word_in_line(line_bytes);
                let holder = format!("core {c}'s L1");
                if let Some(prev) = holders.insert((line, w), holder.clone()) {
                    panic!(
                        "verify[{context}]: SWMR violated at {pa:?}: \
                         word Registered in both {prev} and {holder}"
                    );
                }
                let reg = self.llc.registration(line, w);
                assert!(
                    reg == Some(Registration::Cache(CoreId(c))),
                    "verify[{context}]: {holder} holds {pa:?} Registered \
                     but the registry entry is {reg:?}"
                );
            }
        }

        // Owner → registry: stash-held Registered words. The stash
        // reports them with virtual addresses; translate through its
        // VP-map with the page table as fallback (the same path real
        // writebacks take). The per-stash owned sets feed the registry
        // direction below: after a remap (ChgMap / next kernel's AddMap)
        // the Registered word lives in the *old* chunk awaiting its lazy
        // writeback, while reverse translation finds the new mapping.
        let mut stash_owned: Vec<std::collections::HashSet<(LineAddr, usize)>> =
            vec![std::collections::HashSet::new(); self.stashes.len()];
        for (c, owned) in stash_owned.iter_mut().enumerate() {
            for wb in self.stashes[c].pending_writebacks() {
                let pa = self.stashes[c]
                    .translate(wb.vaddr)
                    .unwrap_or_else(|| self.pt.translate(wb.vaddr));
                let line = pa.line(line_bytes);
                let w = pa.word_in_line(line_bytes);
                let holder = format!("core {c}'s stash");
                if let Some(prev) = holders.insert((line, w), holder.clone()) {
                    panic!(
                        "verify[{context}]: SWMR violated at {pa:?}: \
                         word Registered in both {prev} and {holder}"
                    );
                }
                let reg = self.llc.registration(line, w);
                assert!(
                    matches!(reg, Some(Registration::Stash { core, .. }) if core == CoreId(c)),
                    "verify[{context}]: {holder} holds {pa:?} (va {:?}) \
                     Registered but the registry entry is {reg:?}",
                    wb.vaddr
                );
                owned.insert((line, w));
            }
        }

        // Registry → owner: every registration names a live holder.
        for (line, w, reg) in self.llc.registered_words() {
            let pa = line.word_addr(w);
            match reg {
                Registration::Cache(core) => {
                    let st = self.l1s[core.0].word_state(pa);
                    assert!(
                        st == mem::coherence::WordState::Registered,
                        "verify[{context}]: registry says {core} holds {pa:?} \
                         Registered in its L1, but the L1 word state is {st}"
                    );
                }
                Registration::Stash { core, .. } => {
                    assert!(
                        core.0 < self.stashes.len(),
                        "verify[{context}]: registry names core {core}'s stash \
                         for {pa:?} but that core has no stash"
                    );
                    // A remapped word's Registered copy lives in the old
                    // chunk until its lazy writeback drains; the
                    // owner-direction sweep above already matched it to
                    // this registry entry, so it needs no lookup here.
                    if stash_owned[core.0].contains(&(line, w)) {
                        continue;
                    }
                    // Otherwise the owner must locate the word by VP-map
                    // reverse translation, exactly as a forwarded request
                    // would. A lost reverse translation (counted as
                    // remote.stash_stale on the forward path) leaves the
                    // word unlocatable; the data-holding check only
                    // applies when the stash can still find it.
                    if let Some(word) = self.stashes[core.0].remote_request(pa) {
                        let st = self.stashes[core.0].word_state(word);
                        assert!(
                            st == mem::coherence::WordState::Registered,
                            "verify[{context}]: registry says {core}'s stash \
                             holds {pa:?} Registered, but stash word {word} \
                             is {st}"
                        );
                    }
                }
            }
        }
    }

    #[inline]
    fn verify_after(&mut self, context: &str) {
        if self.verify {
            self.check_invariants(context);
        }
    }

    /// The system configuration: the machine, switches included.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The memory configuration kind.
    pub fn kind(&self) -> MemConfigKind {
        self.kind
    }

    // ------------------------------------------------------------------
    // Core/node geometry
    // ------------------------------------------------------------------

    /// The `CoreId` of GPU CU `cu` (CUs occupy the low core numbers).
    pub fn cu_core(&self, cu: usize) -> CoreId {
        debug_assert!(cu < self.cfg.gpu_cus);
        CoreId(cu)
    }

    /// The `CoreId` of CPU core `cpu`.
    pub fn cpu_core(&self, cpu: usize) -> CoreId {
        debug_assert!(cpu < self.cfg.cpu_cores);
        CoreId(self.cfg.gpu_cus + cpu)
    }

    fn node_of(&self, core: CoreId) -> NodeId {
        NodeId(core.0 % self.net.mesh().nodes())
    }

    fn home_of(&self, line: LineAddr) -> NodeId {
        NodeId(self.llc.bank_of(line) % self.net.mesh().nodes())
    }

    fn is_gpu(&self, core: CoreId) -> bool {
        core.0 < self.cfg.gpu_cus
    }

    // ------------------------------------------------------------------
    // Accounting primitives
    // ------------------------------------------------------------------

    fn send(&mut self, from: NodeId, to: NodeId, msg: Message) -> u64 {
        let hops = self.net.mesh().hops(from, to);
        self.energy
            .add(Component::Noc, msg.flits() * hops * self.model.noc_flit_hop);
        if let Some(t) = self.trace.as_mut() {
            self.net.trace_hops(from, to, msg, t);
        }
        self.net.send(from, to, msg)
    }

    /// Sends one request message under the installed fault schedule;
    /// returns the network latency of the delivering attempt. Without an
    /// injector this is exactly [`Self::send`] — the fast path the
    /// zero-overhead guarantee rests on.
    ///
    /// With an injector, the message gets a per-machine sequence number
    /// and may be delayed, duplicated (double-charged traffic; the
    /// receiver's sequence check suppresses the copy when resilience is
    /// on — the synchronous model applies state transitions exactly once
    /// either way), or dropped. A drop is counted as a
    /// `resilience.timeout` event and retried after a bounded exponential
    /// backoff, the only wait a retry charges, until delivered or the
    /// retry budget runs out; with resilience off the first drop trips
    /// the watchdog immediately.
    ///
    /// **Schedule invariance:** every fault-handling wait — injected
    /// delay and retry backoff — is *accounting only* (counters, energy,
    /// traffic); the returned latency is always the fault-free send
    /// latency. The warp scheduler orders waves by completion time, so a
    /// latency perturbation would change the interleaving and hence the
    /// cache-eviction order, making the final state legitimately diverge
    /// from the fault-free golden replay. Keeping the schedule
    /// bit-identical is what lets the chaos harness compare architectural
    /// digests directly: any divergence is real corruption, never an
    /// artifact of reordering. Retries likewise repeat only accounting —
    /// the caller applies architectural state changes once, after this
    /// returns.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] when the message cannot be delivered — the
    /// simulator surfaces no-progress as a diagnosable error, never a
    /// hang.
    fn send_reliable(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: Message,
        site: &'static str,
    ) -> Result<u64, SimError> {
        if self.fault.is_none() {
            return Ok(self.send(from, to, msg));
        }
        let resilient = self
            .fault
            .as_ref()
            .expect("injector checked")
            .config()
            .resilience;
        let seq = self.fault.as_mut().expect("injector checked").next_seq();
        let flit_energy = msg.flits() * self.net.mesh().hops(from, to) * self.model.noc_flit_hop;
        let mut attempt: u32 = 1;
        loop {
            self.energy.add(Component::Noc, flit_energy);
            let delivery = self.net.send_faulty(
                from,
                to,
                msg,
                self.fault.as_mut().expect("injector checked"),
                Attempt { site, seq, attempt },
            );
            match delivery {
                Delivery::Delivered { latency } => return Ok(latency),
                Delivery::Delayed { latency, .. } => {
                    self.counters.bump(Counter::FaultDelayInjected);
                    return Ok(latency);
                }
                Delivery::Duplicated { latency } => {
                    // The duplicate's flits burn NoC energy too.
                    self.energy.add(Component::Noc, flit_energy);
                    self.counters.bump(Counter::FaultDupInjected);
                    if resilient {
                        self.counters.bump(Counter::ResilienceDupSuppressed);
                    }
                    return Ok(latency);
                }
                Delivery::Dropped => {
                    self.counters.bump(Counter::FaultDropInjected);
                    if !resilient || attempt > fault::MAX_RETRIES {
                        return Err(SimError::Deadlock {
                            site,
                            attempts: attempt,
                            dump: self.diagnostic_dump(site, seq, from, to),
                        });
                    }
                    self.counters.bump(Counter::ResilienceTimeout);
                    attempt += 1;
                    self.counters.bump(Counter::ResilienceRetry);
                    if let Some(t) = self.trace.as_mut() {
                        let at = t.now();
                        t.push(TraceEvent::RetryFired { at, attempt });
                    }
                    let backoff = fault::backoff(attempt - 1);
                    self.counters.add(Counter::ResilienceBackoffCycles, backoff);
                    self.fault.as_mut().expect("injector checked").log(
                        site,
                        FaultKind::Retry,
                        seq,
                        attempt,
                    );
                }
            }
        }
    }

    /// Sends a fire-and-forget writeback. Writebacks have no response to
    /// time out on, so they suffer only the loss fault: a lost writeback
    /// is re-sent (the dirty chunk is still held) when resilience is on,
    /// or silently vanishes when it is off — the caller must then skip
    /// the LLC update, leaving the stale registration the digest and
    /// oracle expose. Returns whether the message (eventually) arrived.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] when the resilient retry budget runs out.
    fn send_writeback(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: Message,
        site: &'static str,
    ) -> Result<bool, SimError> {
        if self.fault.is_none() {
            self.send(from, to, msg);
            return Ok(true);
        }
        let resilient = self
            .fault
            .as_ref()
            .expect("injector checked")
            .config()
            .resilience;
        let seq = self.fault.as_mut().expect("injector checked").next_seq();
        let mut attempt: u32 = 1;
        loop {
            self.send(from, to, msg);
            if !self
                .fault
                .as_mut()
                .expect("injector checked")
                .lose_writeback(site)
            {
                return Ok(true);
            }
            self.counters.bump(Counter::FaultWbLost);
            if !resilient {
                return Ok(false);
            }
            if attempt > fault::MAX_RETRIES {
                return Err(SimError::Deadlock {
                    site,
                    attempts: attempt,
                    dump: self.diagnostic_dump(site, seq, from, to),
                });
            }
            attempt += 1;
            self.counters.bump(Counter::ResilienceRetry);
            if let Some(t) = self.trace.as_mut() {
                let at = t.now();
                t.push(TraceEvent::RetryFired { at, attempt });
            }
            let backoff = fault::backoff(attempt - 1);
            self.counters.add(Counter::ResilienceBackoffCycles, backoff);
            self.fault.as_mut().expect("injector checked").log(
                site,
                FaultKind::Retry,
                seq,
                attempt,
            );
        }
    }

    /// Draws a flip for a data word arriving at the LLC; corrupt words
    /// join the ground-truth set the parity model checks against.
    fn maybe_flip_llc(&mut self, site: &'static str, line: LineAddr, word: usize) {
        if let Some(inj) = self.fault.as_mut() {
            if inj.flip_word(site) {
                self.llc.corrupt_word(line, word);
                self.stage_op(StagedOp::CorruptWord(line, word));
                self.counters.bump(Counter::FaultFlipInjected);
            }
        }
    }

    /// Draws a flip for a data word filled into CU `cu`'s stash.
    fn maybe_flip_stash(&mut self, site: &'static str, cu: usize, word: usize) {
        if let Some(inj) = self.fault.as_mut() {
            if inj.flip_word(site) {
                self.stashes[cu].flip_word(word);
                self.counters.bump(Counter::FaultFlipInjected);
            }
        }
    }

    /// Parity-checked read of an LLC word. Detection is free in time —
    /// the model charges no latency for the check itself (DESIGN.md §9's
    /// detection-vs-recovery contract).
    fn llc_parity_read(&mut self, line: LineAddr, word: usize) {
        if self.parity_on() && self.llc.check_parity(line, word) {
            self.stage_op(StagedOp::CheckParity(line, word));
            self.counters.bump(Counter::FaultParityDetected);
        }
    }

    /// An overwriting store to an LLC word silently repairs corruption.
    fn llc_overwrite(&mut self, line: LineAddr, word: usize) {
        if self.fault.is_some() && self.llc.clear_corrupt(line, word) {
            self.stage_op(StagedOp::ClearCorrupt(line, word));
            self.counters.bump(Counter::FaultFlipOverwritten);
        }
    }

    /// Parity-checked read of a stash word.
    fn stash_parity_read(&mut self, cu: usize, word: usize) {
        if self.parity_on() && self.stashes[cu].check_parity(word) {
            self.counters.bump(Counter::FaultParityDetected);
        }
    }

    /// An overwriting store/fill to a stash word silently repairs
    /// corruption (also clears stale markers left by a lost writeback
    /// whose chunk got recycled).
    fn stash_overwrite(&mut self, cu: usize, word: usize) {
        if self.fault.is_some() && self.stashes[cu].take_corrupt(word) {
            self.counters.bump(Counter::FaultFlipOverwritten);
        }
    }

    fn llc_access(&mut self, line: LineAddr) {
        self.energy.add(Component::L2, self.model.l2_access);
        self.counters.bump(Counter::LlcAccess);
        if let Some(t) = self.trace.as_mut() {
            let at = t.now();
            let bank = self.llc.bank_of(line) as u32;
            t.push(TraceEvent::LlcBank { bank, at });
        }
    }

    /// Records `n` issued GPU warp instructions (GPU core+ energy).
    pub fn note_gpu_instructions(&mut self, n: u64) {
        self.gpu_instructions += n;
        self.energy
            .add(Component::GpuCore, n * self.model.core_instruction);
    }

    fn round_trip(&self, core_node: NodeId, home: NodeId) -> u64 {
        self.cfg.l2_base_cycles + self.net.round_trip_cycles(core_node, home)
    }

    // ------------------------------------------------------------------
    // Cache (global) transactions
    // ------------------------------------------------------------------

    /// One coalesced global-memory transaction from GPU CU `cu`.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] when a request is undeliverable under the
    /// installed fault schedule.
    pub fn gpu_global_tx(
        &mut self,
        cu: usize,
        write: bool,
        tx: &Transaction,
    ) -> Result<TxCost, SimError> {
        let core = self.cu_core(cu);
        let flits_before = self.net.traffic().total_flits();
        let latency = self.cache_tx(core, write, &tx.words, true)?;
        self.verify_after("gpu_global_tx");
        Ok(TxCost {
            latency,
            occupancy: (self.net.traffic().total_flits() - flits_before).div_ceil(2),
        })
    }

    /// A single-word CPU access. The (serial, single-outstanding-miss)
    /// CPU folds injection occupancy into the returned latency.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] when a request is undeliverable under the
    /// installed fault schedule.
    pub fn cpu_access(&mut self, cpu: usize, write: bool, va: VAddr) -> Result<u64, SimError> {
        let core = self.cpu_core(cpu);
        let flits_before = self.net.traffic().total_flits();
        let latency = self.cache_tx(core, write, &[va.align_down(WORD_BYTES)], false)?;
        self.verify_after("cpu_access");
        Ok(latency + (self.net.traffic().total_flits() - flits_before))
    }

    /// Graceful degradation: a warp access that *should* have gone
    /// through a stash mapping, re-issued down the plain cache path
    /// because the stash could not allocate (map table full or chunk
    /// ring oversubscribed). The tile's addressing still locates the
    /// data in global memory and the ordinary DeNovo cache protocol
    /// provides coherence, so the run completes with cache-config
    /// semantics instead of aborting.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Deadlock`] from the underlying sends.
    pub fn stash_fallback_tx(
        &mut self,
        cu: usize,
        write: bool,
        tile: &TileMap,
        lane_words: &[u32],
    ) -> Result<TxCost, SimError> {
        self.counters.bump(Counter::ResilienceFallbackTx);
        let core = self.cu_core(cu);
        let flits_before = self.net.traffic().total_flits();
        let mut lanes = take_cleared(&mut self.bufs.lanes);
        lanes.extend(
            lane_words
                .iter()
                .map(|&w| tile.virt_of_local_offset(u64::from(w) * WORD_BYTES)),
        );
        let mut coalescer = std::mem::take(&mut self.bufs.coalescer);
        let mut latency = 0u64;
        for t in coalescer.coalesce(&lanes, self.cfg.line_bytes as u64) {
            latency = latency.max(self.cache_tx(core, write, &t.words, true)?);
        }
        self.bufs.lanes = lanes;
        self.bufs.coalescer = coalescer;
        self.verify_after("stash_fallback_tx");
        Ok(TxCost {
            latency,
            occupancy: (self.net.traffic().total_flits() - flits_before).div_ceil(2),
        })
    }

    /// One transaction of `words`, distinct words of one line, from
    /// `core`: a GPU CU (`charge_l1`) or a CPU core.
    fn cache_tx(
        &mut self,
        core: CoreId,
        write: bool,
        words: &[VAddr],
        charge_l1: bool,
    ) -> Result<u64, SimError> {
        let mut pas = take_cleared(&mut self.bufs.pas);
        pas.extend(words.iter().map(|&va| self.pt.translate(va)));
        let latency = self.cache_line_tx(core, write, &pas, charge_l1);
        self.bufs.pas = pas;
        latency
    }

    /// [`Self::cache_tx`] on the words' physical addresses.
    fn cache_line_tx(
        &mut self,
        core: CoreId,
        write: bool,
        pas: &[PAddr],
        charge_l1: bool,
    ) -> Result<u64, SimError> {
        self.counters.bump(match (charge_l1, write) {
            (true, false) => Counter::GpuL1LoadTx,
            (true, true) => Counter::GpuL1StoreTx,
            (false, false) => Counter::CpuL1LoadTx,
            (false, true) => Counter::CpuL1StoreTx,
        });
        // Physically indexed L1: a TLB access per transaction. The paper
        // does not charge CPU-side core/L1 energy (§5.2).
        if charge_l1 {
            self.energy.add(Component::L1, self.model.tlb_access);
        }

        let line = pas[0].line(self.cfg.line_bytes as u64);
        let hit = pas.iter().all(|&pa| {
            let st = self.l1s[core.0].word_state(pa);
            if write {
                st.store_hits()
            } else {
                st.load_hits()
            }
        });
        if let Some(t) = self.trace.as_mut() {
            let at = t.now();
            t.push(TraceEvent::L1Access {
                core: core.0 as u32,
                at,
                store: write,
                hit,
            });
        }
        if hit {
            self.l1s[core.0].touch(pas[0]);
            if charge_l1 {
                self.energy.add(Component::L1, self.model.l1_hit);
            }
            return Ok(self.cfg.l1_hit_cycles);
        }

        if charge_l1 {
            self.energy.add(Component::L1, self.model.l1_miss);
        }
        self.counters.bump(if charge_l1 {
            Counter::GpuL1Miss
        } else {
            Counter::CpuL1Miss
        });

        // Allocate the tag, writing back any displaced registered words.
        let ensure = self.l1s[core.0].ensure_line(pas[0]);
        if let Some(ev) = ensure.evicted {
            self.evict_writeback(core, &ev.line, &ev.registered_words)?;
        }

        let my_node = self.node_of(core);
        let home = self.home_of(line);

        if write {
            // DeNovo store miss: obtain registration for each word; the
            // data stays in the L1 until evicted. In the line-granularity
            // ablation the whole line registers to this core (MESI-style
            // single writer), revoking every other core's words in it.
            let mut revoked: Vec<(Registration, PAddr)> = Vec::new();
            for &pa in pas {
                let w = pa.word_in_line(self.cfg.line_bytes as u64);
                let out = self.llc.register_word(line, w, Registration::Cache(core));
                self.stage_op(StagedOp::RegisterWord(line, w, Registration::Cache(core)));
                // Registration makes the LLC copy stale: any corruption
                // there is overwritten by the eventual writeback.
                self.llc_overwrite(line, w);
                if let Some(prev) = out.previous {
                    revoked.push((prev, pa));
                }
                self.l1s[core.0].set_word(pa, mem::coherence::WordState::Registered);
            }
            if self.cfg.line_grain_registration {
                for w in 0..self.l1s[core.0].words_per_line() {
                    let pa = line.word_addr(w);
                    let out = self.llc.register_word(line, w, Registration::Cache(core));
                    self.stage_op(StagedOp::RegisterWord(line, w, Registration::Cache(core)));
                    if let Some(prev) = out.previous {
                        self.counters.bump(Counter::CoherenceFalseSharingRevocation);
                        revoked.push((prev, pa));
                    }
                    self.l1s[core.0].set_word(pa, mem::coherence::WordState::Registered);
                }
            }
            self.llc_access(line);
            self.send_reliable(
                my_node,
                home,
                Message::control(MsgClass::Write),
                "cache.store",
            )?;
            self.send(home, my_node, Message::control(MsgClass::Write));
            for &(prev, pa) in &revoked {
                self.invalidate_previous_owner(prev, pa, home)?;
            }
            return Ok(self.round_trip(my_node, home));
        }

        // Load miss: fill the whole line from the LLC, word-fill anything
        // registered elsewhere via forwarding.
        let (from_memory, skip) = self.llc.line_fill(line, core);
        self.stage_op(StagedOp::LineFill(line, core));
        self.llc_access(line);
        if from_memory {
            self.counters.bump(Counter::DramLineFetch);
        }
        let supplied = self.l1s[core.0].words_per_line() - skip.len();
        self.send_reliable(
            my_node,
            home,
            Message::control(MsgClass::Read),
            "cache.load",
        )?;
        self.send(
            home,
            my_node,
            Message::data(MsgClass::Read, supplied * WORD_BYTES as usize),
        );
        // Parity-check every word the LLC supplied into the fill.
        if self.fault.is_some() {
            for w in 0..self.l1s[core.0].words_per_line() {
                if !skip.contains(&w) {
                    self.llc_parity_read(line, w);
                }
            }
        }
        self.l1s[core.0].fill_line_shared(pas[0], &skip);
        let mut latency = self.round_trip(my_node, home)
            + if from_memory {
                self.cfg.dram_extra_cycles
            } else {
                0
            };

        // Forward-fetch the needed words the LLC could not supply.
        for &pa in pas {
            let w = pa.word_in_line(self.cfg.line_bytes as u64);
            if !skip.contains(&w) {
                continue;
            }
            self.stage_op(StagedOp::LoadWord(line, w));
            if let LlcLoadOutcome::Forward(reg) = self.llc.load_word(line, w) {
                let flat = self.forward_fetch(core, pa, reg)?;
                self.l1s[core.0].set_word(pa, mem::coherence::WordState::Shared);
                latency = latency.max(flat);
            }
        }
        Ok(latency)
    }

    /// Three-leg forwarding of one word registered at another core (§4.3).
    fn forward_fetch(
        &mut self,
        requester: CoreId,
        pa: PAddr,
        reg: Registration,
    ) -> Result<u64, SimError> {
        let owner = reg.core();
        let rn = self.node_of(requester);
        let home = self.home_of(pa.line(self.cfg.line_bytes as u64));
        let on = self.node_of(owner);
        if owner == requester {
            // The registry redirects the request back to the requesting
            // core — its *other* local structure holds the word (data
            // moved between cache and stash across kernels). A registry
            // lookup round trip plus a local read; no data crosses the
            // network.
            self.counters.bump(Counter::RemoteSelfForward);
            self.send_reliable(rn, home, Message::control(MsgClass::Read), "forward.req")?;
            self.send(home, rn, Message::control(MsgClass::Read));
            self.llc_access(pa.line(self.cfg.line_bytes as u64));
            match reg {
                Registration::Stash { .. } => {
                    self.energy.add(Component::LocalMem, self.model.stash_hit);
                }
                Registration::Cache(_) => {
                    self.energy.add(Component::L1, self.model.l1_hit);
                }
            }
            return Ok(self.round_trip(rn, home) + self.cfg.l1_hit_cycles);
        }
        self.counters.bump(Counter::RemoteForward);
        let l1 = self.send_reliable(rn, home, Message::control(MsgClass::Read), "forward.req")?;
        let l2 = self.send(home, on, Message::control(MsgClass::Read));
        // Owner supplies the word; it keeps its registration (DeNovo).
        match reg {
            Registration::Stash { core, .. } => {
                let cu = core.0;
                if cu < self.stashes.len() {
                    // VP-map reverse translation locates the stash word.
                    self.energy.add(Component::LocalMem, self.model.stash_hit);
                    self.energy.add(Component::LocalMem, self.model.tlb_access);
                    if self.stashes[cu].remote_request(pa).is_none() {
                        self.counters.bump(Counter::RemoteStashStale);
                    }
                }
            }
            Registration::Cache(owner_core) => {
                if self.is_gpu(owner_core) {
                    self.energy.add(Component::L1, self.model.l1_hit);
                }
            }
        }
        let l3 = self.send(on, rn, Message::data(MsgClass::Read, WORD_BYTES as usize));
        Ok(self.cfg.remote_base_cycles + l1 + l2 + l3)
    }

    /// Invalidates the previous owner of a word whose registration moved.
    /// The invalidation is a protocol-critical message: a drop without
    /// resilience fail-stops (watchdog) rather than leaving two owners.
    fn invalidate_previous_owner(
        &mut self,
        prev: Registration,
        pa: PAddr,
        home: NodeId,
    ) -> Result<(), SimError> {
        let owner = prev.core();
        let on = self.node_of(owner);
        self.send_reliable(
            home,
            on,
            Message::control(MsgClass::Write),
            "coherence.invalidate",
        )?;
        match prev {
            Registration::Stash { core, .. } => {
                if core.0 < self.stashes.len() {
                    self.stashes[core.0].surrender_word(pa);
                }
            }
            Registration::Cache(owner_core) => {
                self.l1s[owner_core.0].downgrade_word(pa, mem::coherence::WordState::Invalid);
            }
        }
        Ok(())
    }

    /// Writes back a displaced line's registered words (L1 eviction).
    fn evict_writeback(
        &mut self,
        core: CoreId,
        line: &LineAddr,
        words: &[usize],
    ) -> Result<(), SimError> {
        if words.is_empty() {
            return Ok(());
        }
        let my_node = self.node_of(core);
        let home = self.home_of(*line);
        let delivered = self.send_writeback(
            my_node,
            home,
            Message::data(MsgClass::Writeback, words.len() * WORD_BYTES as usize),
            "cache.evict_wb",
        )?;
        self.llc_access(*line);
        if !delivered {
            // The lost writeback's registrations stay behind in the
            // registry while the L1 line is gone — the stale-state escape
            // class the digest and oracle expose.
            return Ok(());
        }
        for &w in words {
            self.stage_op(StagedOp::WritebackWord(*line, w, core));
            if self.llc.writeback_word(*line, w, core) {
                self.maybe_flip_llc("cache.evict_wb", *line, w);
            }
        }
        self.counters.add(Counter::WbCacheWords, words.len() as u64);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Scratchpad transactions
    // ------------------------------------------------------------------

    /// One warp scratchpad transaction on CU `cu` at byte offsets
    /// `base_bytes + 4 * lane_word` — direct addressed, never misses.
    pub fn scratch_tx(&mut self, cu: usize, base_bytes: usize, lane_words: &[u32]) -> u64 {
        self.counters.bump(Counter::ScratchAccess);
        self.energy
            .add(Component::LocalMem, self.model.scratchpad_access);
        let offsets = lane_words
            .iter()
            .map(|&w| base_bytes + w as usize * WORD_BYTES as usize);
        self.scratchpads[cu]
            .conflict_cycles(offsets)
            .max(self.cfg.l1_hit_cycles)
    }

    /// Scratchpad allocation for a thread block (machine-level runtime).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfRange`] if the space does not fit.
    pub fn scratch_alloc(&mut self, cu: usize, bytes: usize) -> Result<usize, SimError> {
        self.scratchpads[cu].alloc(bytes)
    }

    /// Frees every scratchpad allocation on `cu` (wave boundary).
    pub fn scratch_free_all(&mut self, cu: usize) {
        if cu < self.scratchpads.len() {
            self.scratchpads[cu].free_all();
        }
    }

    // ------------------------------------------------------------------
    // Stash transactions
    // ------------------------------------------------------------------

    /// `AddMap` on CU `cu` for thread block `tb`.
    ///
    /// # Errors
    ///
    /// Propagates the stash's table/range errors.
    pub fn stash_add_map(
        &mut self,
        cu: usize,
        tb: usize,
        tile: TileMap,
        base_word: usize,
        mode: UsageMode,
    ) -> Result<AddMapOutcome, SimError> {
        let out = self.stashes[cu].add_map(tb, tile, base_word, mode)?;
        self.counters.bump(Counter::StashAddMap);
        if out.replicates {
            self.counters.bump(Counter::StashAddMapReplicated);
        }
        // Displaced-entry writebacks block the core; charged by the caller
        // via the returned outcome if desired (rare).
        let wbs = out.writebacks.clone();
        self.perform_stash_writebacks(cu, &wbs)?;
        self.counters
            .add(Counter::StashVpFills, out.new_pages as u64);
        self.energy.add(
            Component::LocalMem,
            out.new_pages as u64 * self.model.tlb_access,
        );
        self.verify_after("stash_add_map");
        Ok(out)
    }

    /// `ChgMap` on CU `cu`: rebinds thread block `tb`'s map slot to a new
    /// tile or mode, flushing / re-registering as §4.2 requires.
    ///
    /// # Errors
    ///
    /// Propagates the stash's mapping errors.
    pub fn stash_chg_map(
        &mut self,
        cu: usize,
        tb: usize,
        slot: usize,
        tile: TileMap,
        mode: UsageMode,
    ) -> Result<(), SimError> {
        let out = self.stashes[cu].chg_map(tb, slot, tile, mode)?;
        self.counters.bump(Counter::StashChgMap);
        let wbs = out.writebacks.clone();
        self.perform_stash_writebacks(cu, &wbs)?;
        if !out.registrations.is_empty() {
            let map = self.stashes[cu]
                .resolve_slot(tb, slot)
                .ok_or_else(|| SimError::InvalidMapping(format!("slot {slot} unbound")))?;
            let regs = out.registrations.clone();
            self.stash_global_fetches(cu, map, &[], &regs)?;
        }
        self.counters
            .add(Counter::StashVpFills, out.new_pages as u64);
        self.energy.add(
            Component::LocalMem,
            out.new_pages as u64 * self.model.tlb_access,
        );
        self.verify_after("stash_chg_map");
        Ok(())
    }

    /// Resolves a thread block's map slot (the per-instruction lookup).
    pub fn stash_resolve_slot(&self, cu: usize, tb: usize, slot: usize) -> Option<MapIndex> {
        self.stashes.get(cu)?.resolve_slot(tb, slot)
    }

    /// One warp stash transaction: `lane_words` are word offsets into the
    /// allocation at `base_word`, under map `map`.
    ///
    /// # Errors
    ///
    /// Propagates invalid-mapping errors from the stash.
    pub fn stash_tx(
        &mut self,
        cu: usize,
        write: bool,
        base_word: usize,
        lane_words: &[u32],
        map: MapIndex,
    ) -> Result<TxCost, SimError> {
        let flits_before = self.net.traffic().total_flits();
        self.counters.bump(if write {
            Counter::StashStoreTx
        } else {
            Counter::StashLoadTx
        });
        let mut words = take_cleared(&mut self.bufs.stash_words);
        words.extend(lane_words.iter().map(|&w| base_word + w as usize));
        words.sort_unstable();
        words.dedup();

        // Bank conflicts behave exactly like the scratchpad's.
        let bank_cycles = busiest_bank(words.iter().copied(), &mut self.bufs.bank_counts).max(1);

        let mut missed = false;
        let mut latency = bank_cycles.max(self.cfg.l1_hit_cycles);
        // Collect per-line global actions so words sharing a line batch
        // into one message pair.
        let mut load_fetches = take_cleared(&mut self.bufs.loads);
        let mut registrations = take_cleared(&mut self.bufs.registrations);

        for &w in &words {
            if write {
                match self.stashes[cu].store(w, map)? {
                    StoreOutcome::Hit => {
                        // Stores silently overwrite (and so repair) a
                        // corrupt word without detecting it.
                        self.stash_overwrite(cu, w);
                    }
                    StoreOutcome::Miss {
                        vaddr,
                        writebacks,
                        needs_registration,
                    } => {
                        missed = true;
                        self.perform_stash_writebacks(cu, &writebacks)?;
                        if needs_registration {
                            registrations.push((w, vaddr));
                        } else {
                            self.stashes[cu].complete_store_fill(w, map);
                            self.stash_overwrite(cu, w);
                        }
                    }
                }
            } else {
                match self.stashes[cu].load(w, map)? {
                    LoadOutcome::Hit => {
                        self.stash_parity_read(cu, w);
                    }
                    LoadOutcome::ReplicaHit { writebacks, .. } => {
                        // Reclaiming the chunk for the replica may have
                        // displaced an older mapping's dirty words; those
                        // writebacks must reach the LLC even though no
                        // fetch follows, or their registrations go stale.
                        self.perform_stash_writebacks(cu, &writebacks)?;
                        // One extra storage read for the internal copy.
                        self.counters.bump(Counter::StashReplicaHit);
                        self.energy.add(Component::LocalMem, self.model.stash_hit);
                        self.stash_parity_read(cu, w);
                    }
                    LoadOutcome::Miss { vaddr, writebacks } => {
                        missed = true;
                        self.perform_stash_writebacks(cu, &writebacks)?;
                        load_fetches.push((w, vaddr));
                        // §8 flexible communication granularity: widen
                        // the miss to neighbouring mapped words.
                        let widen = self.cfg.stash_fetch_words;
                        if widen > 1 {
                            for (nw, nva) in self.stashes[cu].prefetch_candidates(w, map, widen) {
                                if !load_fetches.iter().any(|&(x, _)| x == nw) {
                                    self.counters.bump(Counter::StashWidenedFetch);
                                    load_fetches.push((nw, nva));
                                }
                            }
                        }
                    }
                }
            }
        }

        // Local storage energy: hit vs miss per transaction (Table 3).
        self.energy.add(
            Component::LocalMem,
            if missed {
                self.model.stash_miss
            } else {
                self.model.stash_hit
            },
        );
        if missed {
            self.counters.bump(Counter::StashMiss);
            // Miss translation: VP-map TLB access + 6 ALU ops (10 cycles).
            self.energy.add(Component::LocalMem, self.model.tlb_access);
            latency += self.cfg.stash_translation_cycles;
            if let Some(t) = self.trace.as_mut() {
                let at = t.now();
                t.push(TraceEvent::StashChunkMiss {
                    cu: cu as u32,
                    at,
                    words: (load_fetches.len() + registrations.len()) as u32,
                });
            }
        } else {
            self.counters.bump(Counter::StashHit);
        }

        latency += self.stash_global_fetches(cu, map, &load_fetches, &registrations)?;
        self.bufs.stash_words = words;
        self.bufs.loads = load_fetches;
        self.bufs.registrations = registrations;
        self.verify_after("stash_tx");
        Ok(TxCost {
            latency,
            occupancy: (self.net.traffic().total_flits() - flits_before).div_ceil(2),
        })
    }

    /// Performs the grouped global actions of a stash transaction; returns
    /// the added latency.
    fn stash_global_fetches(
        &mut self,
        cu: usize,
        map: MapIndex,
        load_fetches: &[(usize, VAddr)],
        registrations: &[(usize, VAddr)],
    ) -> Result<u64, SimError> {
        // `cu` indexes the stash vector, which equals the core ID (CPU
        // stashes, when enabled, sit above the CU range).
        let core = CoreId(cu);
        let my_node = self.node_of(core);
        let line_bytes = self.cfg.line_bytes as u64;
        let mut extra = 0u64;
        let mut groups = std::mem::take(&mut self.bufs.groups);

        // Loads, grouped by physical line.
        self.group_stash_words(cu, load_fetches, &mut groups);
        for (line, group) in groups.iter() {
            let home = self.home_of(line);
            self.send_reliable(
                my_node,
                home,
                Message::control(MsgClass::Read),
                "stash.fetch",
            )?;
            self.llc_access(line);
            let mut lat = self.round_trip(my_node, home);
            let mut supplied = 0usize;
            let mut self_forwards = 0usize;
            for &(pa, w) in group {
                let widx = pa.word_in_line(line_bytes);
                self.stage_op(StagedOp::LoadWord(line, widx));
                match self.llc.load_word(line, widx) {
                    LlcLoadOutcome::Data { from_memory } => {
                        if from_memory {
                            self.counters.bump(Counter::DramLineFetch);
                            lat = lat
                                .max(self.round_trip(my_node, home) + self.cfg.dram_extra_cycles);
                        }
                        self.llc_parity_read(line, widx);
                        supplied += 1;
                    }
                    LlcLoadOutcome::Forward(reg) if reg.core() == core => {
                        // Registry redirect to this core's own L1/stash:
                        // the words transfer locally; one redirect
                        // message pair covers the whole line group.
                        self_forwards += 1;
                        match reg {
                            Registration::Stash { .. } => {
                                self.energy.add(Component::LocalMem, self.model.stash_hit)
                            }
                            Registration::Cache(_) => {
                                self.energy.add(Component::L1, self.model.l1_hit)
                            }
                        }
                    }
                    LlcLoadOutcome::Forward(reg) => {
                        lat = lat.max(self.forward_fetch(core, pa, reg)?);
                    }
                }
                self.stashes[cu].complete_load_fill(w);
                // The fill overwrites any stale corruption marker, then
                // the arriving word may itself be flipped in flight.
                self.stash_overwrite(cu, w);
                self.maybe_flip_stash("stash.fetch", cu, w);
            }
            if self_forwards > 0 {
                self.counters
                    .add(Counter::RemoteSelfForward, self_forwards as u64);
                self.send(home, my_node, Message::control(MsgClass::Read));
                lat = lat.max(self.round_trip(my_node, home) + self.cfg.l1_hit_cycles);
            }
            if supplied > 0 {
                self.send(
                    home,
                    my_node,
                    Message::data(MsgClass::Read, supplied * WORD_BYTES as usize),
                );
            }
            self.counters
                .add(Counter::StashFetchWords, group.len() as u64);
            extra = extra.max(lat);
        }

        // Registrations, grouped by physical line; the request carries the
        // stash-map index that the registry records (§4.3).
        self.group_stash_words(cu, registrations, &mut groups);
        for (line, group) in groups.iter() {
            let home = self.home_of(line);
            self.send_reliable(
                my_node,
                home,
                Message::control(MsgClass::Write),
                "stash.register",
            )?;
            self.send(home, my_node, Message::control(MsgClass::Write));
            self.llc_access(line);
            for &(pa, w) in group {
                let widx = pa.word_in_line(line_bytes);
                let reg = Registration::Stash {
                    core,
                    map_index: map.0,
                };
                let out = self.llc.register_word(line, widx, reg);
                self.stage_op(StagedOp::RegisterWord(line, widx, reg));
                self.llc_overwrite(line, widx);
                if let Some(prev) = out.previous {
                    self.invalidate_previous_owner(prev, pa, home)?;
                }
                self.stashes[cu].complete_store_fill(w, map);
                self.stash_overwrite(cu, w);
            }
            self.counters
                .add(Counter::StashRegisterWords, group.len() as u64);
            extra = extra.max(self.round_trip(my_node, home));
        }
        self.bufs.groups = groups;
        Ok(extra)
    }

    /// Translates a stash transaction's `(stash word, address)` pairs in
    /// order, since first touch assigns frames, and groups them by
    /// physical line. The VP-map learns a page's frame once per run of
    /// words on that page.
    fn group_stash_words(&mut self, cu: usize, words: &[(usize, VAddr)], groups: &mut LineGroups) {
        let page_bytes = self.cfg.page_bytes as u64;
        let mut noted_page = None;
        let (pt, stash) = (&mut self.pt, &mut self.stashes[cu]);
        groups.regroup(
            self.cfg.line_bytes as u64,
            words.iter().map(|&(w, va)| {
                let pa = pt.translate(va);
                let page = va.page(page_bytes);
                if noted_page != Some(page) {
                    stash.note_translation(va, pa);
                    noted_page = Some(page);
                }
                (pa, w)
            }),
        );
    }

    /// Sends a batch of stash writebacks (lazy or blocking) to the LLC.
    fn perform_stash_writebacks(
        &mut self,
        cu: usize,
        wbs: &[WritebackWord],
    ) -> Result<(), SimError> {
        if wbs.is_empty() {
            return Ok(());
        }
        let core = CoreId(cu);
        let my_node = self.node_of(core);
        let line_bytes = self.cfg.line_bytes as u64;
        let page_bytes = self.cfg.page_bytes as u64;
        let mut groups = std::mem::take(&mut self.bufs.groups);
        // One translation per run of words on a page: the VP-map's, or
        // the page table's when the VP-map has none.
        let mut page_frame: Option<(u64, PAddr)> = None;
        let (pt, stash) = (&mut self.pt, &self.stashes[cu]);
        groups.regroup(
            line_bytes,
            wbs.iter().map(|wb| {
                let page = wb.vaddr.page(page_bytes);
                let frame = match page_frame {
                    Some((p, frame)) if p == page => frame,
                    _ => {
                        let pa = stash
                            .translate(wb.vaddr)
                            .unwrap_or_else(|| pt.translate(wb.vaddr));
                        let frame = pa.align_down(page_bytes);
                        page_frame = Some((page, frame));
                        frame
                    }
                };
                (frame.add(wb.vaddr.offset_in(page_bytes)), wb.stash_word)
            }),
        );
        for (line, group) in groups.iter() {
            let home = self.home_of(line);
            // One storage read + VP-map translation per chunk-batch.
            self.energy.add(Component::LocalMem, self.model.stash_hit);
            self.energy.add(Component::LocalMem, self.model.tlb_access);
            let delivered = self.send_writeback(
                my_node,
                home,
                Message::data(MsgClass::Writeback, group.len() * WORD_BYTES as usize),
                "stash.wb",
            )?;
            self.llc_access(line);
            if !delivered {
                // Lost: the data never reaches the LLC and the stale
                // registrations remain (escape class). Corrupt markers
                // stay in the stash until the words are refilled or the
                // scrub sweeps them.
                continue;
            }
            for &(pa, sw) in group {
                let widx = pa.word_in_line(line_bytes);
                let was_corrupt = self.fault.is_some() && self.stashes[cu].take_corrupt(sw);
                let accepted = self.llc.writeback_word(line, widx, core);
                self.stage_op(StagedOp::WritebackWord(line, widx, core));
                if accepted {
                    if was_corrupt {
                        // The writeback carries the corruption onward.
                        self.llc.corrupt_word(line, widx);
                        self.stage_op(StagedOp::CorruptWord(line, widx));
                    } else {
                        self.llc_overwrite(line, widx);
                        self.maybe_flip_llc("stash.wb", line, widx);
                    }
                } else if was_corrupt {
                    // A stale writeback is discarded, corruption and all.
                    self.counters.bump(Counter::FaultFlipOverwritten);
                }
                self.counters.bump(Counter::WbStashWords);
            }
        }
        self.bufs.groups = groups;
        Ok(())
    }

    /// A warp access to *unmapped* stash space (§3.3's Temporary /
    /// Global-unmapped modes): the stash behaves exactly like a
    /// scratchpad — direct addressing, bank conflicts, no global actions.
    pub fn stash_raw_tx(&mut self, _cu: usize, base_word: usize, lane_words: &[u32]) -> u64 {
        self.counters.bump(Counter::StashRawAccess);
        self.energy.add(Component::LocalMem, self.model.stash_hit);
        let words = lane_words.iter().map(|&w| base_word + w as usize);
        busiest_bank(words, &mut self.bufs.bank_counts).max(self.cfg.l1_hit_cycles)
    }

    /// Thread block `tb` on CU `cu` completed.
    pub fn end_thread_block(&mut self, cu: usize, tb: usize) {
        if let Some(s) = self.stashes.get_mut(cu) {
            s.end_thread_block(tb);
        }
        self.verify_after("end_thread_block");
    }

    /// Kernel boundary: self-invalidation in GPU L1s and stashes;
    /// scratchpad allocations are freed by the machine's allocator.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] when an eager writeback is undeliverable
    /// under the installed fault schedule.
    pub fn end_kernel(&mut self) -> Result<(), SimError> {
        for cu in 0..self.cfg.gpu_cus {
            self.l1s[cu].self_invalidate();
        }
        if self.cfg.eager_stash_writebacks {
            for cu in 0..self.stashes.len() {
                let wbs = self.stashes[cu].drain_writebacks();
                self.counters.add(Counter::WbEagerDrained, wbs.len() as u64);
                self.perform_stash_writebacks(cu, &wbs)?;
            }
        }
        for s in &mut self.stashes {
            s.end_kernel();
        }
        self.counters.bump(Counter::GpuKernels);
        if let Some(t) = self.trace.as_mut() {
            let at = t.now();
            let kernel = self.counters.value(Counter::GpuKernels) as u32;
            t.push(TraceEvent::EnergyEpoch { at, kernel });
        }
        self.verify_after("end_kernel");
        Ok(())
    }

    /// §8 extension: eagerly fetches every unfetched word of a fresh
    /// mapping (an `AddMap`-time prefetch). Returns the blocking latency,
    /// charged like a DMA preload by the CU model.
    pub fn stash_prefetch_mapping(&mut self, cu: usize, map: MapIndex) -> Result<u64, SimError> {
        let wbs = self.stashes[cu].claim_chunks(map);
        self.perform_stash_writebacks(cu, &wbs)?;
        let words = self.stashes[cu].unfetched_words(map);
        if words.is_empty() {
            return Ok(0);
        }
        self.counters
            .add(Counter::StashPrefetchWords, words.len() as u64);
        self.energy.add(Component::LocalMem, self.model.stash_miss);
        self.energy.add(Component::LocalMem, self.model.tlb_access);
        let lat = self.stash_global_fetches(cu, map, &words, &[])?;
        self.verify_after("stash_prefetch_mapping");
        // Pipelined like a DMA transfer: inject at 2 flits/cycle.
        Ok(lat + (words.len() as u64).div_ceil(4))
    }

    // ------------------------------------------------------------------
    // DMA (ScratchGD)
    // ------------------------------------------------------------------

    /// Runs a blocking DMA transfer of `tile` on CU `cu`; returns the
    /// transfer's completion latency in cycles.
    ///
    /// Under a fault schedule the engine may deliver only a prefix of the
    /// transfer. With resilience on, the engine's length check NACKs the
    /// short transfer and the lost tail is re-sent — every word still
    /// lands, at a NACK + backoff + resend cost. With resilience off
    /// the tail words silently never move: the truncation escape class.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] when a request is undeliverable under the
    /// installed fault schedule.
    pub fn dma_transfer(
        &mut self,
        cu: usize,
        tile: &TileMap,
        store: bool,
    ) -> Result<u64, SimError> {
        let dir = if store {
            DmaDirection::ScratchToGlobal
        } else {
            DmaDirection::GlobalToScratch
        };
        let dma = DmaTransfer::new(*tile, dir);
        let core = self.cu_core(cu);
        let my_node = self.node_of(core);
        let line_bytes = self.cfg.line_bytes as u64;
        let site = if store { "dma.store" } else { "dma.load" };

        let mut truncated_tail = 0u64;
        let vaddrs: Vec<VAddr> = match self
            .fault
            .as_mut()
            .and_then(|inj| inj.truncate_dma(site, dma.word_count()))
        {
            Some(delivered) => {
                self.counters.bump(Counter::FaultDmaTruncated);
                let resilient = self.fault.as_ref().is_some_and(|f| f.config().resilience);
                let (head, tail) = dma.split_at_truncation(delivered);
                if resilient {
                    // The resend makes the transfer whole: state for
                    // every word is applied (once), the penalty is pure
                    // accounting after the loop.
                    truncated_tail = tail.len() as u64;
                    dma.word_vaddrs().collect()
                } else {
                    head
                }
            }
            None => dma.word_vaddrs().collect(),
        };

        // Group the transferred words by physical line.
        let mut groups = std::mem::take(&mut self.bufs.groups);
        let pt = &mut self.pt;
        groups.regroup(line_bytes, vaddrs.iter().map(|&va| (pt.translate(va), 0)));

        self.counters.add(Counter::DmaWords, vaddrs.len() as u64);
        let mut issue = 0u64;
        let mut done = 0u64;
        for (line, pas) in groups.iter() {
            let home = self.home_of(line);
            let mut lat = self.round_trip(my_node, home);
            if store {
                self.send_reliable(
                    my_node,
                    home,
                    Message::data(MsgClass::Write, pas.len() * WORD_BYTES as usize),
                    site,
                )?;
                self.llc_access(line);
                for &(pa, _) in pas {
                    let widx = pa.word_in_line(line_bytes);
                    self.stage_op(StagedOp::StoreThrough(line, widx));
                    if let Some(prev) = self.llc.store_through(line, widx) {
                        self.invalidate_previous_owner(prev, pa, home)?;
                    }
                    // A DMA store overwrites the LLC word, then the
                    // arriving data may itself be flipped in flight.
                    self.llc_overwrite(line, widx);
                    self.maybe_flip_llc(site, line, widx);
                }
            } else {
                self.send_reliable(my_node, home, Message::control(MsgClass::Read), site)?;
                self.llc_access(line);
                let mut supplied = 0usize;
                for &(pa, _) in pas {
                    let widx = pa.word_in_line(line_bytes);
                    self.stage_op(StagedOp::LoadWord(line, widx));
                    match self.llc.load_word(line, widx) {
                        LlcLoadOutcome::Data { from_memory } => {
                            if from_memory {
                                self.counters.bump(Counter::DramLineFetch);
                                lat += self.cfg.dram_extra_cycles;
                            }
                            self.llc_parity_read(line, widx);
                            supplied += 1;
                        }
                        LlcLoadOutcome::Forward(reg) => {
                            lat = lat.max(self.forward_fetch(core, pa, reg)?);
                        }
                    }
                }
                if supplied > 0 {
                    self.send(
                        home,
                        my_node,
                        Message::data(MsgClass::Read, supplied * WORD_BYTES as usize),
                    );
                }
            }
            // The DMA engine also accesses the scratchpad for every word
            // it moves (§6.2: DMA "accesses the scratchpad at the DMA
            // load, the program access, and the DMA store").
            self.energy.add(
                Component::LocalMem,
                pas.len() as u64 * self.model.scratchpad_access,
            );
            // Pipelined at NoC injection bandwidth: each line-group's
            // request+response flits occupy the port; the transfer
            // completes with the last response (core-granularity
            // blocking, §5.3).
            let flits = 2 + (pas.len() * WORD_BYTES as usize).div_ceil(16) as u64;
            done = done.max(issue + lat);
            issue += flits.div_ceil(2);
        }
        self.bufs.groups = groups;
        let total = done.max(issue);
        if let Some(t) = self.trace.as_mut() {
            let at = t.now();
            t.push(TraceEvent::DmaBurst {
                cu: cu as u32,
                at,
                words: vaddrs.len() as u32,
                store,
                cycles: total,
            });
        }
        if truncated_tail > 0 {
            // Length-check NACK round trip, one backoff, then the tail
            // re-sends as a single burst to its first line's home. The
            // whole recovery is accounting-only (counters, energy,
            // traffic): the returned latency stays the fault-free value
            // so the warp schedule matches the golden replay.
            self.counters.bump(Counter::ResilienceNack);
            self.counters.bump(Counter::ResilienceRetry);
            let backoff = fault::backoff(1);
            self.counters.add(Counter::ResilienceBackoffCycles, backoff);
            let (_, tail) = dma.split_at_truncation(dma.word_count() - truncated_tail);
            let first_line = self.pt.translate(tail[0]).line(line_bytes);
            let home = self.home_of(first_line);
            self.send(my_node, home, Message::control(MsgClass::Write));
            self.send(home, my_node, Message::control(MsgClass::Write));
            self.send(
                my_node,
                home,
                Message::data(
                    if store {
                        MsgClass::Write
                    } else {
                        MsgClass::Read
                    },
                    truncated_tail as usize * WORD_BYTES as usize,
                ),
            );
        }
        self.verify_after("dma_transfer");
        Ok(total)
    }

    // ------------------------------------------------------------------
    // Parallel sharding
    // ------------------------------------------------------------------

    /// Forks a per-CU shard for parallel kernel execution: a
    /// snapshot of the hierarchy with its accounting zeroed (so shard
    /// accounting sums cleanly back into the master) and a staged-op log
    /// armed. The private structures (L1s, stashes, scratchpads) clone;
    /// the LLC forks as a copy-on-write view ([`mem::llc::Llc::fork`])
    /// whose cost is proportional to the lines the shard actually
    /// touches, not the resident footprint. `salt` derives the shard's
    /// fault-injection stream so parallel chaos runs are reproducible at
    /// any thread count.
    #[must_use]
    pub fn fork_shard(&self, salt: u64) -> MemorySystem {
        MemorySystem {
            cfg: self.cfg.clone(),
            kind: self.kind,
            net: {
                let mut net = self.net.clone();
                net.reset_accounting();
                net
            },
            // A copy-on-write view: the slot table and word arena are
            // shared with the master, and the shard's touched lines get
            // private overlay copies — the dominant fork cost on
            // many-kernel workloads was cloning the whole LLC arena.
            llc: self.llc.fork(),
            l1s: self.l1s.clone(),
            scratchpads: self.scratchpads.clone(),
            stashes: self.stashes.clone(),
            pt: self.pt.clone(),
            model: self.model.clone(),
            energy: EnergyAccount::new(),
            counters: Counters::new(),
            gpu_instructions: 0,
            verify: self.verify,
            fault: self
                .fault
                .as_ref()
                .map(|f| FaultInjector::new(f.config().fork(salt))),
            trace: self.trace.as_ref().map(|t| {
                let mut fresh = TraceSink::new(t.capacity());
                fresh.set_base(t.abs(0));
                Box::new(fresh)
            }),
            now: self.now,
            stage: Some(Box::default()),
            bufs: OpBuffers::new(self.cfg.local_banks),
        }
    }

    /// Reduces a finished shard to the pieces the merge needs — CU
    /// `cu`'s private structures (L1, scratchpad, stash), the shard's
    /// accounting deltas, its fault/stall traces, the staged-op log, and
    /// its DRAM-fetch count. The rest of the snapshot (every other
    /// core's structures, the LLC, the page table) is dropped here, on
    /// the calling thread: workers reduce their own shards, so both the
    /// clone and the teardown of the bulky state run in parallel instead
    /// of serially on the merge thread.
    #[must_use]
    pub fn reduce_shard(mut self, cu: usize, cycles: u64) -> ShardResult {
        let mapped_pages = self.pt.mapped_pages();
        let l1 = self.l1s.swap_remove(cu);
        let scratchpad = (cu < self.scratchpads.len()).then(|| self.scratchpads.swap_remove(cu));
        let stash = (cu < self.stashes.len()).then(|| self.stashes.swap_remove(cu));
        let fault_trace = self
            .fault
            .as_ref()
            .map(|f| f.trace().to_vec())
            .unwrap_or_default();
        let dram = self.llc.dram_line_fetches();
        ShardResult {
            cu,
            cycles,
            mapped_pages,
            l1,
            scratchpad,
            stash,
            counters: self.counters,
            energy: self.energy,
            net: self.net,
            gpu_instructions: self.gpu_instructions,
            fault_trace,
            trace: self.trace,
            log: self.stage.map_or_else(StageLog::default, |b| *b),
            dram,
        }
    }

    /// Absorbs a reduced shard back into the master: the CU's private
    /// structures move over wholesale, shard accounting (counters,
    /// energy, traffic, instructions, fault trace, stall trace) is
    /// summed in, and the staged-op log plus the shard's DRAM-fetch
    /// count are returned for the staged-op replay.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidMapping`] when the shard mapped pages the
    /// master's pre-touch pass missed — the kernel's footprint escaped
    /// the static walk, so frame assignment would depend on CU
    /// interleaving and determinism cannot be guaranteed.
    pub fn absorb_result(&mut self, r: ShardResult) -> Result<(StageLog, u64), SimError> {
        if r.mapped_pages != self.pt.mapped_pages() {
            return Err(SimError::InvalidMapping(format!(
                "CU {} shard mapped {} pages vs master {}: kernel footprint \
                 escaped the pre-touch pass",
                r.cu,
                r.mapped_pages,
                self.pt.mapped_pages()
            )));
        }
        self.l1s[r.cu] = r.l1;
        if let Some(sp) = r.scratchpad {
            self.scratchpads[r.cu] = sp;
        }
        if let Some(st) = r.stash {
            self.stashes[r.cu] = st;
        }
        self.counters.merge(&r.counters);
        self.energy.merge(&r.energy);
        self.net.absorb(&r.net);
        self.gpu_instructions += r.gpu_instructions;
        if let Some(mine) = self.fault.as_mut() {
            mine.absorb_trace(&r.fault_trace);
        }
        if let (Some(mine), Some(theirs)) = (self.trace.as_mut(), r.trace.as_ref()) {
            mine.absorb(theirs);
        }
        Ok((r.log, r.dram))
    }

    /// Replays the shards' staged operations against the master LLC in
    /// deterministic `(cycle, cu, seq)` order, so the merged state is
    /// identical for every thread count.
    ///
    /// Replay touches the registry only; protocol invalidations are
    /// reconciled *after* the full stream against final ownership. A
    /// mid-stream invalidation would be wrong: each CU's merged-back
    /// structures hold that CU's *final* state, so revoking a copy
    /// because some mid-history registration displaced it clobbers the
    /// final owner whenever that owner re-registered later. The
    /// reconciliation pass instead invalidates every copy whose core
    /// lost the word — exactly the set a sequential interleaving of the
    /// merged stream would have invalidated and not restored.
    ///
    /// `dram_pre` is the master's DRAM-fetch count at fork time and
    /// `shard_dram` each shard's count at absorb time: replay re-fetches
    /// lines the shards already counted, so the counter is rebuilt as
    /// `pre + Σ (shard − pre)` afterwards.
    ///
    /// # Certified fast path
    ///
    /// With `certified` a [`crate::certificate::ConflictCertificate`]
    /// vouches that every word is ownership-claimed (registration or DMA
    /// store-through) by at most one CU this kernel. The replay is
    /// unchanged, but reconciliation only tracks *cross-core carryover*:
    /// displaced previous owners whose core differs from the claiming
    /// CU — i.e. registrations left over from earlier kernels or CPU
    /// phases. Every candidate the full pass would additionally track is
    /// then a same-core revocation, and those are no-ops: the sole
    /// claiming CU's shard resolved its own words sequentially and its
    /// merged-back structures already carry the outcome. Digests are
    /// byte-identical; only the reconciliation set shrinks.
    ///
    /// When the run-time invariant oracle is armed
    /// ([`MemorySystem::set_verify`]), every certified merge is
    /// cross-checked against the actual staged footprints first.
    ///
    /// # Errors
    ///
    /// [`SimError::CertificateViolation`] if the oracle catches two CUs
    /// claiming the same word in a certified kernel — the certificate's
    /// soundness obligation (certified ⇒ runtime-disjoint) is broken and
    /// the merge cannot be trusted.
    pub fn apply_staged(
        &mut self,
        logs: Vec<(usize, StageLog)>,
        dram_pre: u64,
        shard_dram: &[u64],
        certified: bool,
    ) -> Result<(), SimError> {
        let mut ops: Vec<(u64, usize, u64, StagedOp)> = Vec::new();
        for (cu, log) in logs {
            ops.reserve(log.ops.len());
            for (cycle, seq, op) in log.ops {
                ops.push((cycle, cu, seq, op));
            }
        }
        ops.sort_by_key(|op| (op.0, op.1, op.2));
        if certified && self.verify {
            Self::oracle_check(&ops)?;
        }
        // Every registration that ever named a word this kernel, keyed
        // and iterated in address order (deterministic reconciliation).
        // Under a certificate only cross-core carryover is tracked (see
        // above): the claiming CU's own registrations are skipped.
        let mut touched: BTreeMap<(LineAddr, usize), Vec<Registration>> = BTreeMap::new();
        let note = |touched: &mut BTreeMap<(LineAddr, usize), Vec<Registration>>,
                    line: LineAddr,
                    w: usize,
                    reg: Registration| {
            let cands = touched.entry((line, w)).or_default();
            if !cands.contains(&reg) {
                cands.push(reg);
            }
        };
        for &(_, cu, _, op) in &ops {
            match op {
                StagedOp::LoadWord(line, w) => {
                    let _ = self.llc.load_word(line, w);
                }
                StagedOp::RegisterWord(line, w, reg) => {
                    let out = self.llc.register_word(line, w, reg);
                    if !certified {
                        note(&mut touched, line, w, reg);
                    }
                    if let Some(prev) = out.previous {
                        if !certified || prev.core() != CoreId(cu) {
                            note(&mut touched, line, w, prev);
                        }
                    }
                }
                StagedOp::WritebackWord(line, w, core) => {
                    let _ = self.llc.writeback_word(line, w, core);
                }
                StagedOp::StoreThrough(line, w) => {
                    if let Some(prev) = self.llc.store_through(line, w) {
                        if !certified || prev.core() != CoreId(cu) {
                            note(&mut touched, line, w, prev);
                        }
                    }
                }
                StagedOp::LineFill(line, core) => {
                    let _ = self.llc.line_fill(line, core);
                }
                StagedOp::CorruptWord(line, w) => self.llc.corrupt_word(line, w),
                StagedOp::ClearCorrupt(line, w) => {
                    let _ = self.llc.clear_corrupt(line, w);
                }
                StagedOp::CheckParity(line, w) => {
                    let _ = self.llc.check_parity(line, w);
                }
            }
        }
        // Reconcile: revoke every copy whose core is not the word's
        // final owner. Same-core transfers (old map → new map, L1 →
        // stash) were already resolved inside the owning shard, and its
        // merged-back structures carry the result — revoking by core,
        // not by exact registration, leaves them alone.
        for ((line, w), cands) in &touched {
            let owner_core = self.llc.registration(*line, *w).map(|r| r.core());
            for &r in cands {
                if Some(r.core()) != owner_core {
                    let pa = line.word_addr(*w);
                    match r {
                        Registration::Stash { core, .. } => {
                            if core.0 < self.stashes.len() {
                                self.stashes[core.0].surrender_word(pa);
                            }
                        }
                        Registration::Cache(c) => {
                            self.l1s[c.0].downgrade_word(pa, mem::coherence::WordState::Invalid);
                        }
                    }
                }
            }
        }
        let total: u64 = shard_dram.iter().map(|&d| d - dram_pre).sum();
        self.llc.set_dram_line_fetches(dram_pre + total);
        self.verify_after("apply_staged");
        Ok(())
    }

    /// The dynamic footprint oracle: walks a merged, sorted op stream
    /// and errors on the first word that two distinct CUs ownership-claim
    /// (word registration or DMA store-through). Claims are exactly the
    /// operations whose reconciliation entries the certified fast path
    /// skips, so passing the oracle implies the fast path was sound for
    /// this kernel. Loads, line fills and writebacks never claim: a
    /// writeback can legitimately come from a pre-kernel owner on
    /// another core, and neither affects final ownership.
    fn oracle_check(ops: &[(u64, usize, u64, StagedOp)]) -> Result<(), SimError> {
        let mut claims: BTreeMap<(LineAddr, usize), usize> = BTreeMap::new();
        for &(_, cu, _, op) in ops {
            let claimed = match op {
                StagedOp::RegisterWord(line, w, _) | StagedOp::StoreThrough(line, w) => {
                    Some((line, w))
                }
                _ => None,
            };
            let Some(key) = claimed else { continue };
            let first = *claims.entry(key).or_insert(cu);
            if first != cu {
                return Err(SimError::CertificateViolation {
                    word: key.0.word_addr(key.1).0,
                    first_cu: first,
                    second_cu: cu,
                });
            }
        }
        Ok(())
    }

    /// Pre-touches every page a kernel can reach, in program order, so
    /// frame assignment is fixed before the CUs fork and no shard ever
    /// allocates a frame. Covers map/DMA tiles (page-by-page) and global
    /// warp lanes; stash fallback and lazy-writeback addresses fall
    /// inside tiles mapped here or by earlier kernels.
    pub fn pretouch_kernel(&mut self, kernel: &crate::program::Kernel) {
        let page_bytes = self.cfg.page_bytes as u64;
        let touch_tile = |pt: &mut PageTable, tile: &TileMap| {
            for page in tile.pages_touched(page_bytes) {
                let _ = pt.translate(VAddr(page * page_bytes));
            }
        };
        for block in &kernel.blocks {
            for stage in &block.stages {
                for req in &stage.maps {
                    touch_tile(&mut self.pt, &req.tile);
                }
                for req in &stage.dmas {
                    touch_tile(&mut self.pt, &req.tile);
                }
                for warp in &stage.warps {
                    for op in warp {
                        if let crate::program::WarpOp::GlobalMem { lanes, .. } = op {
                            for &va in lanes {
                                let _ = self.pt.translate(va);
                            }
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Reporting
    // ------------------------------------------------------------------

    /// Total GPU warp instructions recorded.
    pub fn gpu_instructions(&self) -> u64 {
        self.gpu_instructions
    }

    /// Accumulated energy account.
    pub fn energy(&self) -> &EnergyAccount {
        &self.energy
    }

    /// Accumulated traffic statistics.
    pub fn traffic(&self) -> &noc::TrafficStats {
        self.net.traffic()
    }

    /// Per-router flit-traversal profile (hotspot analysis).
    pub fn router_flit_profile(&self) -> &[u64] {
        self.net.router_flit_profile()
    }

    /// Raw event counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Direct read access to a CU's stash (tests/diagnostics).
    pub fn stash(&self, cu: usize) -> Option<&Stash> {
        self.stashes.get(cu)
    }

    /// Direct read access to the LLC/registry (tests/diagnostics).
    pub fn llc(&self) -> &Llc {
        &self.llc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro(kind: MemConfigKind) -> MemorySystem {
        MemorySystem::new(SystemConfig::for_microbenchmarks(), kind)
    }

    /// The microbenchmark machine with `Stash` and one switch thrown.
    fn micro_stash(tweak: fn(&mut SystemConfig)) -> MemorySystem {
        let mut cfg = SystemConfig::for_microbenchmarks();
        tweak(&mut cfg);
        MemorySystem::new(cfg, MemConfigKind::Stash)
    }

    fn tx(vas: &[u64]) -> Transaction {
        Transaction {
            line_va: VAddr(vas[0]).align_down(64),
            words: vas.iter().map(|&v| VAddr(v)).collect(),
        }
    }

    /// `LineGroups` against the per-line `Vec`s it replaced, over one
    /// reused grouping: the same lines in first-touch order, the same
    /// words in arrival order.
    #[test]
    fn line_groups_match_the_per_line_vectors() {
        let mut rng = sim::rng::SplitMix64::new(0x0006_0a9f);
        let mut groups = LineGroups::default();
        for case in 0..2000 {
            let n = rng.next_below(80) as usize;
            let lines = 1 + rng.next_below(6);
            let words: Vec<(PAddr, usize)> = (0..n)
                .map(|i| (PAddr(0x4000 + rng.next_below(lines * 64)), i))
                .collect();
            let mut oracle: Vec<(LineAddr, Vec<(PAddr, usize)>)> = Vec::new();
            for &(pa, aux) in &words {
                let line = pa.line(64);
                match oracle.iter_mut().find(|(l, _)| *l == line) {
                    Some((_, v)) => v.push((pa, aux)),
                    None => oracle.push((line, vec![(pa, aux)])),
                }
            }
            groups.regroup(64, words.iter().copied());
            let got: Vec<(LineAddr, Vec<(PAddr, usize)>)> = groups
                .iter()
                .map(|(line, ws)| (line, ws.to_vec()))
                .collect();
            assert_eq!(got, oracle, "case {case}");
        }
    }

    #[test]
    fn cache_load_miss_then_hit() {
        let mut m = micro(MemConfigKind::Cache);
        let t = tx(&[0x1000]);
        let miss = m.gpu_global_tx(0, false, &t).unwrap();
        assert!(miss.latency > m.config().l1_hit_cycles);
        assert!(miss.occupancy > 0, "a miss injects flits");
        let hit = m.gpu_global_tx(0, false, &t).unwrap();
        assert_eq!(hit.latency, m.config().l1_hit_cycles);
        assert_eq!(hit.occupancy, 0, "hits stay inside the CU");
        assert_eq!(m.counters().get("gpu.l1.miss"), 1);
        // The whole line was filled: a neighbouring word also hits.
        assert_eq!(
            m.gpu_global_tx(0, false, &tx(&[0x1004])).unwrap().latency,
            1
        );
    }

    #[test]
    fn cache_store_registers_at_llc() {
        let mut m = micro(MemConfigKind::Cache);
        m.gpu_global_tx(0, true, &tx(&[0x2000])).unwrap();
        // Some word of some line is registered to CU 0.
        assert_eq!(m.llc().words_registered_to(CoreId(0)), 1);
        // A store hit afterwards.
        assert_eq!(m.gpu_global_tx(0, true, &tx(&[0x2000])).unwrap().latency, 1);
    }

    #[test]
    fn cpu_read_of_gpu_written_word_forwards() {
        let mut m = micro(MemConfigKind::Cache);
        m.gpu_global_tx(0, true, &tx(&[0x3000])).unwrap();
        let before = m.counters().get("remote.forward");
        m.cpu_access(0, false, VAddr(0x3000)).unwrap();
        assert_eq!(m.counters().get("remote.forward"), before + 1);
    }

    #[test]
    fn stash_roundtrip_through_memsys() {
        let mut m = micro(MemConfigKind::Stash);
        let tile = TileMap::new(VAddr(0x10000), 4, 16, 64, 0, 1).unwrap();
        let out = m
            .stash_add_map(0, 0, tile, 0, UsageMode::MappedCoherent)
            .unwrap();
        // First load misses (fetch), second hits.
        let c1 = m.stash_tx(0, false, 0, &[0], out.index).unwrap();
        assert!(c1.latency > 1 + m.config().stash_translation_cycles);
        assert!(c1.occupancy > 0);
        let c2 = m.stash_tx(0, false, 0, &[0], out.index).unwrap();
        assert_eq!(c2.latency, 1);
        assert_eq!(c2.occupancy, 0);
        assert_eq!(m.counters().get("stash.hit"), 1);
        assert_eq!(m.counters().get("stash.miss"), 1);
        // Stores register at the LLC with a stash registration.
        m.stash_tx(0, true, 0, &[1], out.index).unwrap();
        assert_eq!(m.llc().words_registered_to(CoreId(0)), 1);
    }

    #[test]
    fn cpu_pulls_stash_data_via_forwarding() {
        let mut m = micro(MemConfigKind::Stash);
        let tile = TileMap::new(VAddr(0x10000), 4, 16, 64, 0, 1).unwrap();
        let out = m
            .stash_add_map(0, 0, tile, 0, UsageMode::MappedCoherent)
            .unwrap();
        m.stash_tx(0, true, 0, &[0], out.index).unwrap();
        m.end_thread_block(0, 0);
        m.end_kernel().unwrap();
        // The data was NOT written back (lazy): the CPU read forwards.
        assert_eq!(m.counters().get("wb.stash_words"), 0);
        let before = m.counters().get("remote.forward");
        m.cpu_access(0, false, VAddr(0x10000)).unwrap();
        assert_eq!(m.counters().get("remote.forward"), before + 1);
    }

    #[test]
    fn scratchpad_tx_is_local_only() {
        let mut m = micro(MemConfigKind::Scratch);
        let base = m.scratch_alloc(0, 1024).unwrap();
        let lanes: Vec<u32> = (0..32).collect();
        let lat = m.scratch_tx(0, base, &lanes);
        assert_eq!(lat, 1);
        assert_eq!(m.traffic().total_messages(), 0);
        assert_eq!(m.counters().get("scratch.access"), 1);
    }

    #[test]
    fn dma_moves_whole_tile() {
        let mut m = micro(MemConfigKind::ScratchGD);
        let tile = TileMap::new(VAddr(0x10000), 4, 16, 64, 0, 1).unwrap();
        let lat = m.dma_transfer(0, &tile, false).unwrap();
        assert!(lat > 0);
        assert_eq!(m.counters().get("dma.words"), 64);
        // 64 elements of 16-byte objects span 16 lines: 16 request pairs.
        assert_eq!(m.traffic().messages(MsgClass::Read), 32);
    }

    #[test]
    fn dma_store_revokes_stale_registrations() {
        let mut m = micro(MemConfigKind::ScratchGD);
        // A GPU global store registers a word...
        m.gpu_global_tx(0, true, &tx(&[0x10000])).unwrap();
        assert_eq!(m.llc().words_registered_to(CoreId(0)), 1);
        // ...then a DMA store of the same tile writes through and revokes.
        let tile = TileMap::new(VAddr(0x10000), 4, 16, 4, 0, 1).unwrap();
        m.dma_transfer(0, &tile, true).unwrap();
        assert_eq!(m.llc().words_registered_to(CoreId(0)), 0);
    }

    #[test]
    fn lazy_writeback_traffic_appears_on_reclaim() {
        let mut m = micro(MemConfigKind::Stash);
        let t1 = TileMap::new(VAddr(0x10000), 4, 16, 16, 0, 1).unwrap();
        let out1 = m
            .stash_add_map(0, 0, t1, 0, UsageMode::MappedCoherent)
            .unwrap();
        m.stash_tx(0, true, 0, &[0], out1.index).unwrap();
        m.end_thread_block(0, 0);
        m.end_kernel().unwrap();
        assert_eq!(m.counters().get("wb.stash_words"), 0);
        // A new, different mapping reclaims the same stash space.
        let t2 = TileMap::new(VAddr(0x20000), 4, 16, 16, 0, 1).unwrap();
        let out2 = m
            .stash_add_map(0, 1, t2, 0, UsageMode::MappedCoherent)
            .unwrap();
        m.stash_tx(0, false, 0, &[0], out2.index).unwrap();
        assert_eq!(m.counters().get("wb.stash_words"), 1);
        assert!(m.traffic().messages(MsgClass::Writeback) > 0);
    }

    #[test]
    fn eager_writebacks_drain_at_kernel_end() {
        let mut m = micro_stash(|c| c.eager_stash_writebacks = true);
        let tile = TileMap::new(VAddr(0x10000), 4, 16, 64, 0, 1).unwrap();
        let out = m
            .stash_add_map(0, 0, tile, 0, UsageMode::MappedCoherent)
            .unwrap();
        m.stash_tx(0, true, 0, &[0, 1, 2], out.index).unwrap();
        m.end_thread_block(0, 0);
        m.end_kernel().unwrap();
        // The dirty words were flushed at the boundary (scratchpad-like),
        // so the CPU read hits the LLC instead of forwarding.
        assert_eq!(m.counters().get("wb.stash_words"), 3);
        let before = m.counters().get("remote.forward");
        m.cpu_access(0, false, VAddr(0x10000)).unwrap();
        assert_eq!(m.counters().get("remote.forward"), before);
    }

    #[test]
    fn widened_fetches_fill_neighbours() {
        let mut m = micro_stash(|c| c.stash_fetch_words = 4);
        let tile = TileMap::new(VAddr(0x10000), 4, 16, 64, 0, 1).unwrap();
        let out = m
            .stash_add_map(0, 0, tile, 0, UsageMode::MappedCoherent)
            .unwrap();
        m.stash_tx(0, false, 0, &[0], out.index).unwrap();
        // The miss widened to 4 words: the next three now hit.
        assert_eq!(m.counters().get("stash.fetch_words"), 4);
        assert_eq!(m.counters().get("stash.widened_fetch"), 3);
        let cost = m.stash_tx(0, false, 0, &[1, 2, 3], out.index).unwrap();
        assert_eq!(cost.latency, 1);
    }

    #[test]
    fn addmap_prefetch_fetches_whole_mapping() {
        let mut m = micro_stash(|c| c.stash_prefetch = true);
        let tile = TileMap::new(VAddr(0x10000), 4, 16, 64, 0, 1).unwrap();
        let out = m
            .stash_add_map(0, 0, tile, 0, UsageMode::MappedCoherent)
            .unwrap();
        let lat = m.stash_prefetch_mapping(0, out.index).unwrap();
        assert!(lat > 0);
        assert_eq!(m.counters().get("stash.prefetch_words"), 64);
        // Every subsequent load hits.
        let cost = m
            .stash_tx(0, false, 0, &(0..32).collect::<Vec<_>>(), out.index)
            .unwrap();
        assert_eq!(cost.latency, 1);
        assert_eq!(m.counters().get("stash.miss"), 0);
    }

    #[test]
    fn line_grain_registration_causes_false_sharing() {
        let line = SystemConfig {
            line_grain_registration: true,
            ..SystemConfig::for_applications()
        };
        let mut m = MemorySystem::new(line, MemConfigKind::Cache);
        // Two CUs store to different words of the same line: the second
        // store revokes the first core's whole-line registration.
        m.gpu_global_tx(0, true, &tx(&[0x5000])).unwrap();
        m.gpu_global_tx(1, true, &tx(&[0x5004])).unwrap();
        assert!(m.counters().get("coherence.false_sharing_revocation") > 0);
        assert_eq!(m.llc().words_registered_to(CoreId(0)), 0);
        // Word-granular DeNovo has no such revocations.
        let mut w = MemorySystem::new(SystemConfig::for_applications(), MemConfigKind::Cache);
        w.gpu_global_tx(0, true, &tx(&[0x5000])).unwrap();
        w.gpu_global_tx(1, true, &tx(&[0x5004])).unwrap();
        assert_eq!(w.counters().get("coherence.false_sharing_revocation"), 0);
        assert_eq!(w.llc().words_registered_to(CoreId(0)), 1);
    }

    #[test]
    fn cpu_stashes_are_built_only_on_a_kind_with_stashes() {
        let cfg = SystemConfig {
            cpu_stashes: true,
            ..SystemConfig::for_microbenchmarks()
        };
        let cores = cfg.gpu_cus + cfg.cpu_cores;
        let stash = MemorySystem::new(cfg.clone(), MemConfigKind::Stash);
        assert!(stash.stash(cores - 1).is_some() && stash.stash(cores).is_none());
        assert!(micro(MemConfigKind::Stash).stash(1).is_none());
        for kind in [MemConfigKind::Cache, MemConfigKind::Scratch] {
            assert!(MemorySystem::new(cfg.clone(), kind).stash(0).is_none());
        }
    }

    #[test]
    fn verify_oracle_accepts_correct_mixed_traffic() {
        for kind in MemConfigKind::ALL {
            let mut m = micro(kind);
            m.set_verify(true);
            assert!(m.verify_enabled());
            // Cache traffic: two CUs and a CPU contending on one line.
            m.gpu_global_tx(0, true, &tx(&[0x1000, 0x1004])).unwrap();
            m.cpu_access(0, false, VAddr(0x1000)).unwrap();
            m.cpu_access(1, true, VAddr(0x1008)).unwrap();
            m.gpu_global_tx(0, false, &tx(&[0x1008])).unwrap();
            if kind.uses_stash() {
                let tile = TileMap::new(VAddr(0x10000), 4, 16, 16, 0, 1).unwrap();
                let out = m
                    .stash_add_map(0, 0, tile, 0, UsageMode::MappedCoherent)
                    .unwrap();
                m.stash_tx(0, true, 0, &[0, 1], out.index).unwrap();
                m.stash_tx(0, false, 0, &[2], out.index).unwrap();
                m.end_thread_block(0, 0);
                // Lazily-held registered stash data survives the boundary.
                m.end_kernel().unwrap();
                m.cpu_access(0, false, VAddr(0x10000)).unwrap();
            }
            if kind.uses_dma() {
                let tile = TileMap::new(VAddr(0x20000), 4, 16, 16, 0, 1).unwrap();
                m.dma_transfer(0, &tile, false).unwrap();
                m.dma_transfer(0, &tile, true).unwrap();
            }
            m.end_kernel().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "registry says")]
    fn verify_oracle_rejects_phantom_registration() {
        let mut m = micro(MemConfigKind::Cache);
        m.set_verify(true);
        // Corrupt the registry directly: claim core 3's L1 owns a word it
        // never stored to. The next checked operation must panic.
        m.llc
            .register_word(LineAddr(0x4000), 0, Registration::Cache(CoreId(3)));
        m.cpu_access(0, false, VAddr(0x8000)).unwrap();
    }

    #[test]
    #[should_panic(expected = "Registered but the registry entry")]
    fn verify_oracle_rejects_lost_registration() {
        let mut m = micro(MemConfigKind::Cache);
        m.set_verify(true);
        m.gpu_global_tx(0, true, &tx(&[0x1000])).unwrap();
        // Corrupt the registry the other way: drop CU 0's registration
        // while its L1 still holds the word Registered.
        let line = m.pt.translate(VAddr(0x1000)).line(64);
        m.llc.writeback_word(line, 0, CoreId(0));
        m.cpu_access(0, false, VAddr(0x8000)).unwrap();
    }

    #[test]
    fn instruction_energy_lands_in_core_component() {
        let mut m = micro(MemConfigKind::Cache);
        m.note_gpu_instructions(10);
        assert_eq!(m.gpu_instructions(), 10);
        assert!(m.energy().component(Component::GpuCore) > 0);
        assert_eq!(m.energy().component(Component::L1), 0);
    }
}
