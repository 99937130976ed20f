//! Static performance prediction: counters and a placement cost model.
//!
//! Two passes over a lowered [`Program`] produce a [`Prediction`] for one
//! memory configuration:
//!
//! 1. **Exact structural pass.** Several simulator counters are fully
//!    determined by program structure — transaction counts fall out of
//!    running the real [`gpu::coalescer::coalesce`] over each op's lane
//!    addresses, local-memory op counts classify by slot binding, and the
//!    instruction total replays the machine's accounting (warp
//!    instructions + one per map setup + one per warp per DMA transfer).
//!    These go in [`Prediction::exact`] and must match the simulator
//!    *exactly*; any divergence is a bug in the analyzer or the machine.
//!
//! 2. **Functional replay.** Hit ratios depend on cache *content*, so the
//!    analyzer replays the access stream against small functional models:
//!    per-core set-associative word-granular L1s with DeNovo states
//!    (Shared / Registered, stores hit only Registered), a per-CU stash
//!    content model keyed by global word, and a cross-agent ownership
//!    registry for registration revocation and forwarding. The models are
//!    functional, not timing-accurate — thread blocks replay in
//!    assignment order rather than the machine's cycle-interleaved wave
//!    schedule — so these counters carry documented tolerances (see
//!    [`crate::analyze`]) instead of exact equality.
//!
//! The replay also integrates a coarse cost model (constants below) into
//! [`Prediction::est_picos`]. Its purpose is *ranking* configurations for
//! the placement advisor, not absolute runtime prediction; the
//! cross-validation suite checks the ranking against the simulator, not
//! the absolute value.

use gpu::coalescer::coalesce;
use gpu::config::MemConfigKind;
use gpu::program::{CpuOp, Phase, Program, ThreadBlock, WarpOp};
use mem::addr::WORD_BYTES;
use mem::tile::TileMap;
use sim::config::SystemConfig;
use sim::stats::Counter;
use std::collections::{HashMap, HashSet, VecDeque};

/// Issue-port occupancy of a load miss's network injection (request
/// flit + a line of response data at two flits per cycle).
const LOAD_MISS_OCCUPANCY: u64 = 3;

/// Issue-port occupancy of a store miss (two control flits).
const STORE_MISS_OCCUPANCY: u64 = 1;

/// Calibration ratio (`num`/`den`) applied to the geometric mean network
/// round trip: the machine overlaps part of each traversal with bank
/// service, so the *exposed* mean is below the geometric one. The ratio
/// is pinned so the paper's point (4×4 mesh, 16 agents, 16 banks, hop
/// cost 5/5) evaluates to exactly the 10 cycles PR 3's flat
/// `AVG_MESH_HOPS = 2` constant charged — defaults stay byte-identical.
const NET_CALIB_NUM: u64 = 4;
const NET_CALIB_DEN: u64 = 5;

/// NoC injection: flits per cycle (shared with the machine's DMA model).
const FLITS_PER_CYCLE: u64 = 2;

/// Payload bytes per data flit.
const FLIT_BYTES: u64 = 16;

/// The calibrated mean L2 round trip for a machine: base bank service
/// plus the mean network round trip over every (agent tile, bank home
/// tile) pair — agents co-locate as `agent % nodes`, bank homes as
/// `bank % nodes`, exactly the machine's placement — scaled by the
/// `NET_CALIB_NUM`/`NET_CALIB_DEN` exposure calibration.
#[must_use]
pub fn mean_l2_round_cycles(sys: &SystemConfig) -> u64 {
    let nodes = sys.mesh_nodes() as u64;
    let side = sys.mesh_side as u64;
    let agents = (sys.gpu_cus + sys.cpu_cores) as u64;
    let banks = sys.l2_banks as u64;
    let mut total = 0u64;
    for a in 0..agents {
        let an = a % nodes;
        let (ax, ay) = (an % side, an / side);
        for b in 0..banks {
            let bn = b % nodes;
            let (bx, by) = (bn % side, bn / side);
            total += ax.abs_diff(bx) * sys.hop_round_trip_cycles
                + ay.abs_diff(by) * sys.hop_round_trip_cycles_y;
        }
    }
    sys.l2_base_cycles + (total * NET_CALIB_NUM) / (NET_CALIB_DEN * agents * banks)
}

/// A static performance prediction for one memory configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prediction {
    /// The configuration this prediction is for.
    pub kind: MemConfigKind,
    /// GPU instructions the machine will report (exact).
    pub gpu_instructions: u64,
    /// Counters determined exactly by program structure.
    pub exact: Vec<(Counter, u64)>,
    /// Counters estimated by the functional replay (tolerance-checked).
    pub modeled: Vec<(Counter, u64)>,
    /// Cost-model estimate of total runtime, in picoseconds. Meaningful
    /// only for *ranking* configurations of the same workload.
    pub est_picos: u64,
}

impl Prediction {
    /// Looks up a predicted counter value (exact first, then modeled).
    #[must_use]
    pub fn counter(&self, c: Counter) -> Option<u64> {
        self.exact
            .iter()
            .chain(self.modeled.iter())
            .find(|(k, _)| *k == c)
            .map(|&(_, v)| v)
    }

    /// Predicted hit ratio of the stash (hits / (hits + misses)), if this
    /// configuration has one and it was accessed.
    #[must_use]
    pub fn stash_hit_ratio(&self) -> Option<f64> {
        let h = self.counter(Counter::StashHit)?;
        let m = self.counter(Counter::StashMiss)?;
        #[allow(clippy::cast_precision_loss)]
        match h + m {
            0 => None,
            t => Some(h as f64 / t as f64),
        }
    }
}

/// One word-granular L1 line: DeNovo Shared/Registered bit per word.
#[derive(Debug, Clone, Copy)]
struct LineEntry {
    line: u64,
    last_use: u64,
    shared: u32,
    registered: u32,
}

/// A set-associative word-granular L1 model (same geometry as the
/// machine's; the frame allocator preserves page-internal line indices,
/// so virtual set indexing matches the physically indexed cache).
#[derive(Debug)]
struct L1Model {
    sets: usize,
    ways: usize,
    slots: Vec<Option<LineEntry>>,
    tick: u64,
}

impl L1Model {
    fn new(sys: &SystemConfig) -> Self {
        let sets = sys.l1_bytes / sys.line_bytes / sys.l1_ways;
        Self {
            sets,
            ways: sys.l1_ways,
            slots: vec![None; sets * sys.l1_ways],
            tick: 0,
        }
    }

    fn slot_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = (line % self.sets as u64) as usize;
        set * self.ways..(set + 1) * self.ways
    }

    fn find(&self, line: u64) -> Option<usize> {
        self.slot_range(line)
            .find(|&i| self.slots[i].is_some_and(|e| e.line == line))
    }

    /// Whether every word in `mask` satisfies the access: stores hit only
    /// Registered words, loads hit Shared or Registered.
    fn hits(&mut self, line: u64, mask: u32, write: bool) -> bool {
        let Some(i) = self.find(line) else {
            return false;
        };
        let e = self.slots[i].as_mut().expect("found slot occupied");
        let valid = if write {
            e.registered
        } else {
            e.shared | e.registered
        };
        if valid & mask == mask {
            self.tick += 1;
            e.last_use = self.tick;
            true
        } else {
            false
        }
    }

    /// Makes `line` resident, returning the evicted entry if a victim was
    /// displaced. Mirrors the machine: prefer an empty way, else LRU.
    fn ensure(&mut self, line: u64) -> Option<LineEntry> {
        self.tick += 1;
        if let Some(i) = self.find(line) {
            self.slots[i].as_mut().expect("occupied").last_use = self.tick;
            return None;
        }
        let range = self.slot_range(line);
        let slot = range
            .clone()
            .find(|&i| self.slots[i].is_none())
            .unwrap_or_else(|| {
                range
                    .min_by_key(|&i| self.slots[i].expect("full set").last_use)
                    .expect("ways > 0")
            });
        let evicted = self.slots[slot].take();
        self.slots[slot] = Some(LineEntry {
            line,
            last_use: self.tick,
            shared: 0,
            registered: 0,
        });
        evicted
    }

    fn entry_mut(&mut self, line: u64) -> &mut LineEntry {
        let i = self.find(line).expect("line made resident");
        self.slots[i].as_mut().expect("occupied")
    }

    /// Clears one word everywhere (registration revoked remotely).
    fn drop_word(&mut self, line: u64, bit: u32) {
        if let Some(i) = self.find(line) {
            let e = self.slots[i].as_mut().expect("occupied");
            e.shared &= !bit;
            e.registered &= !bit;
        }
    }

    /// DeNovo self-invalidation: Shared words drop, Registered stay.
    fn self_invalidate(&mut self) {
        for e in self.slots.iter_mut().flatten() {
            e.shared = 0;
        }
    }
}

/// DeNovo state of one physical stash word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WState {
    Invalid,
    Shared,
    Registered,
}

/// One stash-map ring entry: a tile mapped at a physical base, plus the
/// §4.5 `reuse_of` back pointer captured at `AddMap` time. The entry
/// turns invalid when its last dirty chunk is adopted or reclaimed
/// (`#DirtyData` reaching zero, §4.2) — invalid entries no longer serve
/// as reuse targets, which is what lets an adoption *chain* form: each
/// kernel's mapping adopts from (and invalidates) the previous one.
#[derive(Debug, Clone, Copy)]
struct PhysEntry {
    id: u32,
    tile: TileMap,
    base: usize,
    reuse_of: Option<u32>,
    dirty_chunks: u32,
    valid: bool,
}

/// Per-chunk bookkeeping: owning map entry and a dirty (registered data)
/// flag feeding the owner's `#DirtyData` count.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkMeta {
    owner: Option<u32>,
    dirty: bool,
}

/// Per-CU *physical* stash model, mirroring the real stash's placement
/// semantics: per-word DeNovo state, per-chunk map-entry ownership, and a
/// FIFO map ring of `ring_cap` entries. Data survives a remap only via
/// the §4.5 reuse path — a chunk touched under a new entry is reclaimed
/// unless the new entry is a *same mapping* of the chunk's owner at the
/// same base (adoption) or a replica of it elsewhere (replica hit).
#[derive(Debug)]
struct StashModel {
    word_state: Vec<WState>,
    /// Global word each non-Invalid physical word holds.
    word_global: Vec<u64>,
    chunks: Vec<ChunkMeta>,
    ring: VecDeque<PhysEntry>,
    /// global word -> physical word, for registered words only (external
    /// revocation lookup).
    registered: HashMap<u64, usize>,
    chunk_words: usize,
    ring_cap: usize,
    next_id: u32,
}

impl StashModel {
    fn new(sys: &SystemConfig) -> Self {
        let words = sys.scratchpad_bytes / WORD_BYTES as usize;
        let chunk_words = (sys.stash_chunk_bytes / WORD_BYTES as usize).max(1);
        Self {
            word_state: vec![WState::Invalid; words],
            word_global: vec![0; words],
            chunks: vec![ChunkMeta::default(); words.div_ceil(chunk_words)],
            ring: VecDeque::new(),
            registered: HashMap::new(),
            chunk_words,
            ring_cap: sys.stash_map_entries.max(1),
            next_id: 0,
        }
    }

    fn entry(&self, id: u32) -> Option<&PhysEntry> {
        self.ring.iter().find(|e| e.id == id)
    }

    fn entry_mut(&mut self, id: u32) -> Option<&mut PhysEntry> {
        self.ring.iter_mut().find(|e| e.id == id)
    }

    /// One dirty chunk fewer for `id`; reaching zero invalidates it.
    fn decrement_dirty(&mut self, id: u32) {
        if let Some(e) = self.entry_mut(id) {
            e.dirty_chunks = e.dirty_chunks.saturating_sub(1);
            if e.dirty_chunks == 0 {
                e.valid = false;
            }
        }
    }

    /// Marks the chunk holding `phys` dirty (a store registered a word).
    fn note_store(&mut self, phys: usize) {
        let c = phys / self.chunk_words;
        if !self.chunks[c].dirty {
            self.chunks[c].dirty = true;
            if let Some(o) = self.chunks[c].owner {
                if let Some(e) = self.entry_mut(o) {
                    e.dirty_chunks += 1;
                }
            }
        }
    }

    /// Invalidates every word of chunk `c`, pushing released registered
    /// globals into `released` (the caller must drop their ownership).
    fn invalidate_chunk(&mut self, c: usize, released: &mut Vec<u64>) {
        let end = ((c + 1) * self.chunk_words).min(self.word_state.len());
        for w in c * self.chunk_words..end {
            if self.word_state[w] == WState::Registered {
                let g = self.word_global[w];
                self.registered.remove(&g);
                released.push(g);
            }
            self.word_state[w] = WState::Invalid;
        }
        if self.chunks[c].dirty {
            if let Some(o) = self.chunks[c].owner {
                self.decrement_dirty(o);
            }
        }
        self.chunks[c] = ChunkMeta::default();
    }

    /// Invalidates every owned chunk in the physical range (the real
    /// stash reclaims a displaced entry's chunks by range).
    fn reclaim_range(&mut self, base: usize, words: usize, released: &mut Vec<u64>) {
        if words == 0 {
            return;
        }
        let c0 = base / self.chunk_words;
        let c1 = (base + words)
            .div_ceil(self.chunk_words)
            .min(self.chunks.len());
        for c in c0..c1 {
            if self.chunks[c].owner.is_some() {
                self.invalidate_chunk(c, released);
            }
        }
    }

    /// `AddMap`: pushes a ring entry (displacing and reclaiming the
    /// oldest when full) and records the §4.5 same-mapping back pointer.
    fn add_map(&mut self, tile: TileMap, base: usize, released: &mut Vec<u64>) -> u32 {
        if self.ring.len() == self.ring_cap {
            if let Some(old) = self.ring.pop_front() {
                self.reclaim_range(old.base, old.tile.local_words() as usize, released);
            }
        }
        let reuse_of = self
            .ring
            .iter()
            .find(|e| e.valid && e.tile.same_mapping(&tile))
            .map(|e| e.id);
        let id = self.next_id;
        self.next_id += 1;
        self.ring.push_back(PhysEntry {
            id,
            tile,
            base,
            reuse_of,
            dirty_chunks: 0,
            valid: true,
        });
        id
    }

    /// `ChgMap` to a different mapping reclaims the entry's range; a
    /// same-mapping change is a mode change only (no data movement).
    fn chg_map(&mut self, id: u32, new_tile: TileMap, released: &mut Vec<u64>) {
        let Some(pos) = self.ring.iter().position(|e| e.id == id) else {
            return;
        };
        if self.ring[pos].tile.same_mapping(&new_tile) {
            return;
        }
        let (base, words) = (
            self.ring[pos].base,
            self.ring[pos].tile.local_words() as usize,
        );
        self.reclaim_range(base, words, released);
        let e = &mut self.ring[pos];
        e.tile = new_tile;
        e.reuse_of = None;
        // The entry lives on under the new tile (the reclaim zeroed its
        // dirty count; that must not invalidate it like a displacement).
        e.dirty_chunks = 0;
        e.valid = true;
    }

    /// Makes `phys`'s chunk belong to `entry`: claim if free, keep if
    /// already owned, *adopt* (data intact) when the entry is a same
    /// mapping of the owner at the same base, else reclaim.
    fn prepare_chunk(&mut self, phys: usize, entry: u32, released: &mut Vec<u64>) {
        let c = phys / self.chunk_words;
        match self.chunks[c].owner {
            None => self.chunks[c].owner = Some(entry),
            Some(o) if o == entry => {}
            Some(o) => {
                let adopt = self.entry(entry).is_some_and(|cur| {
                    cur.reuse_of == Some(o) && self.entry(o).is_some_and(|old| old.base == cur.base)
                });
                if adopt {
                    // The dirty data now belongs to the new entry.
                    if self.chunks[c].dirty {
                        self.decrement_dirty(o);
                        if let Some(e) = self.entry_mut(entry) {
                            e.dirty_chunks += 1;
                        }
                    }
                } else {
                    self.invalidate_chunk(c, released);
                }
                self.chunks[c].owner = Some(entry);
            }
        }
    }

    /// §4.5 replica path on a load miss: copy the word from the old
    /// same-mapping entry's location if its chunk survived. Returns true
    /// on a replica hit (the word becomes Shared at `phys`).
    fn replica_load(&mut self, phys: usize, entry: u32, global: u64) -> bool {
        let Some(cur) = self.entry(entry).copied() else {
            return false;
        };
        let Some(oid) = cur.reuse_of else {
            return false;
        };
        let Some(old) = self.entry(oid).copied() else {
            return false;
        };
        let from = old.base + (phys - cur.base);
        if from != phys
            && from < self.word_state.len()
            && self.chunks[from / self.chunk_words].owner == Some(oid)
            && self.word_state[from] != WState::Invalid
        {
            self.word_state[phys] = WState::Shared;
            self.word_global[phys] = global;
            true
        } else {
            false
        }
    }

    /// Kernel-boundary self-invalidation: Shared drops, Registered stays.
    fn self_invalidate(&mut self) {
        for s in &mut self.word_state {
            if *s == WState::Shared {
                *s = WState::Invalid;
            }
        }
    }
}

/// A bound stash-map slot during the replay of one thread block.
#[derive(Debug, Clone, Copy)]
struct StashBinding {
    entry: u32,
    tile: TileMap,
    base: usize,
}

/// Outcome of one modeled transaction, for the cost model.
#[derive(Debug, Clone, Copy, Default)]
struct TxOutcome {
    hit: bool,
    cold: bool,
    forwarded: bool,
}

/// Functional replay state: all agents' L1s, the CU stashes, and the
/// global registration registry.
struct Replay<'a> {
    sys: &'a SystemConfig,
    kind: MemConfigKind,
    /// Agents `0..gpu_cus` are CU L1s; `gpu_cus..` are CPU core L1s.
    l1s: Vec<L1Model>,
    stashes: Vec<StashModel>,
    /// word -> registered owner agent.
    owner: HashMap<u64, usize>,
    /// Lines touched so far: first touch pays the DRAM latency.
    seen_lines: HashSet<u64>,
    /// Calibrated mean L2 round trip ([`mean_l2_round_cycles`]), cached
    /// once per replay — it is geometry-dependent but stream-independent.
    l2_round_mean: u64,
    gpu_l1_miss: u64,
    cpu_l1_miss: u64,
    stash_hit: u64,
    stash_miss: u64,
    gpu_cycles: u64,
    cpu_cycles: u64,
}

impl Replay<'_> {
    fn words_per_line(&self) -> u64 {
        self.sys.words_per_line() as u64
    }

    /// Average round-trip latency of an L2 access.
    fn l2_round(&self) -> u64 {
        self.l2_round_mean
    }

    /// Full (unhidden) latency of a load miss with the given outcome.
    /// Store misses are pure registrations (control round trip only).
    fn miss_latency(&self, write: bool, out: TxOutcome) -> u64 {
        if write {
            return self.l2_round();
        }
        let mut lat = self.l2_round();
        if out.cold {
            lat += self.sys.dram_extra_cycles;
        }
        if out.forwarded {
            lat += self.sys.remote_base_cycles;
        }
        lat
    }

    /// Revokes `word`'s registration (if held elsewhere) and hands it to
    /// `new_owner` (`None` = the LLC reclaims it, e.g. a DMA drain).
    fn revoke_word(&mut self, word: u64, new_owner: Option<usize>) {
        let wpl = self.words_per_line();
        if let Some(&holder) = self.owner.get(&word) {
            if Some(holder) == new_owner {
                return;
            }
            let (line, bit) = (word / wpl, 1u32 << (word % wpl));
            self.l1s[holder].drop_word(line, bit);
            if holder < self.sys.gpu_cus {
                if let Some(phys) = self.stashes[holder].registered.remove(&word) {
                    self.stashes[holder].word_state[phys] = WState::Invalid;
                }
            }
            self.owner.remove(&word);
        }
        if let Some(n) = new_owner {
            self.owner.insert(word, n);
        }
    }

    /// Replays one coalesced transaction (all `words` in one line)
    /// against `agent`'s L1.
    fn l1_tx(&mut self, agent: usize, write: bool, words: &[u64]) -> TxOutcome {
        let wpl = self.words_per_line();
        let line = words[0] / wpl;
        let mask = words.iter().fold(0u32, |m, &w| m | 1u32 << (w % wpl));
        if self.l1s[agent].hits(line, mask, write) {
            return TxOutcome {
                hit: true,
                ..TxOutcome::default()
            };
        }
        if agent < self.sys.gpu_cus {
            self.gpu_l1_miss += 1;
        } else {
            self.cpu_l1_miss += 1;
        }
        if let Some(ev) = self.l1s[agent].ensure(line) {
            // Displaced registered words write back and release ownership.
            for b in 0..wpl {
                let word = ev.line * wpl + b;
                if ev.registered & (1u32 << b) != 0 && self.owner.get(&word) == Some(&agent) {
                    self.owner.remove(&word);
                }
            }
        }
        let mut out = TxOutcome {
            cold: self.seen_lines.insert(line),
            ..TxOutcome::default()
        };
        if write {
            // Stores are registrations; no data fetch, so never cold.
            out.cold = false;
            for &w in words {
                out.forwarded |= matches!(self.owner.get(&w), Some(&a) if a != agent);
                self.revoke_word(w, Some(agent));
                let bit = 1u32 << (w % wpl);
                self.l1s[agent].entry_mut(line).registered |= bit;
            }
        } else {
            // Fill: requested words always arrive (forwarded when
            // registered elsewhere); bystander words only when no other
            // agent holds a registration on them.
            for b in 0..wpl {
                let word = line * wpl + b;
                let bit = 1u32 << b;
                let owned_elsewhere = matches!(self.owner.get(&word), Some(&a) if a != agent);
                if mask & bit != 0 {
                    out.forwarded |= owned_elsewhere;
                    self.l1s[agent].entry_mut(line).shared |= bit;
                } else if !owned_elsewhere {
                    self.l1s[agent].entry_mut(line).shared |= bit;
                }
            }
        }
        out
    }

    /// Drops this CU's ownership of globals a stash reclaim released.
    fn release_owned(&mut self, cu: usize, released: &[u64]) {
        for &g in released {
            if self.owner.get(&g) == Some(&cu) {
                self.owner.remove(&g);
            }
        }
    }

    /// Replays one stash warp op (deduplicated local word offsets) on
    /// `cu` under `binding`. Returns the worst per-word outcome plus the
    /// number of words that missed (they size the fetch traffic).
    fn stash_op(
        &mut self,
        cu: usize,
        write: bool,
        offsets: &[u64],
        binding: StashBinding,
    ) -> (TxOutcome, u64) {
        let wpl = self.words_per_line();
        let mut out = TxOutcome {
            hit: true,
            ..TxOutcome::default()
        };
        let mut missed = 0u64;
        for &off in offsets {
            let phys = binding.base + off as usize;
            if phys >= self.stashes[cu].word_state.len() {
                continue;
            }
            let g = binding.tile.virt_of_local_offset(off * WORD_BYTES).0 / WORD_BYTES;
            let mut released = Vec::new();
            self.stashes[cu].prepare_chunk(phys, binding.entry, &mut released);
            self.release_owned(cu, &released);
            if write {
                // The store leaves registered data: the chunk is dirty.
                self.stashes[cu].note_store(phys);
            }
            let state = self.stashes[cu].word_state[phys];
            let word_hits = if write {
                // Stores hit only Registered words (DeNovo).
                state == WState::Registered
            } else {
                state != WState::Invalid || self.stashes[cu].replica_load(phys, binding.entry, g)
            };
            if word_hits {
                continue;
            }
            out.hit = false;
            missed += 1;
            if write {
                // Registration round trip; the word becomes Registered.
                out.forwarded |= matches!(self.owner.get(&g), Some(&a) if a != cu);
                self.revoke_word(g, Some(cu));
                self.stashes[cu].word_state[phys] = WState::Registered;
                self.stashes[cu].word_global[phys] = g;
                self.stashes[cu].registered.insert(g, phys);
            } else {
                // Fetch from the LLC; the word becomes Shared.
                out.cold |= self.seen_lines.insert(g / wpl);
                out.forwarded |= matches!(self.owner.get(&g), Some(&a) if a != cu);
                self.stashes[cu].word_state[phys] = WState::Shared;
                self.stashes[cu].word_global[phys] = g;
            }
        }
        if out.hit {
            self.stash_hit += 1;
        } else {
            self.stash_miss += 1;
        }
        (out, missed)
    }

    /// Kernel boundary: GPU L1s and stashes self-invalidate (Registered
    /// words survive — the basis of cross-kernel stash reuse).
    fn end_kernel(&mut self) {
        for cu in 0..self.sys.gpu_cus {
            self.l1s[cu].self_invalidate();
            self.stashes[cu].self_invalidate();
        }
    }

    /// Replays a DMA transfer of `tile` (load = fill, store = drain) and
    /// returns its blocking latency: per-line injection occupancy plus
    /// the worst line's round trip, like the machine's pipelined engine.
    fn dma_transfer(&mut self, tile: &TileMap, store: bool) -> u64 {
        let wpl = self.words_per_line();
        // (line, words in that line), in tile order like the machine.
        let mut by_line: Vec<(u64, u64)> = Vec::new();
        for va in tile.iter_field_vaddrs() {
            for k in 0..tile.words_per_field() {
                let w = (va.0 + k * WORD_BYTES) / WORD_BYTES;
                if store {
                    // The drain makes the LLC the owner again.
                    self.revoke_word(w, None);
                }
                let line = w / wpl;
                match by_line.last_mut() {
                    Some((l, n)) if *l == line => *n += 1,
                    _ => by_line.push((line, 1)),
                }
            }
        }
        let mut issue = 0u64;
        let mut worst_lat = 0u64;
        for &(line, n) in &by_line {
            let flits = 2 + (n * WORD_BYTES).div_ceil(FLIT_BYTES);
            issue += flits.div_ceil(FLITS_PER_CYCLE);
            let mut lat = self.l2_round();
            if !store && self.seen_lines.insert(line) {
                lat += self.sys.dram_extra_cycles;
            }
            worst_lat = worst_lat.max(lat);
        }
        issue + worst_lat
    }

    /// Cost of one warp op on `cu`: `(issue_cycles, completion_latency)`,
    /// mirroring the machine's shared-port scheduler — issue cycles
    /// serialize on the CU's port, latency is hidden by other warps.
    fn op_cost(
        &mut self,
        cu: usize,
        op: &WarpOp,
        bindings: &HashMap<usize, StashBinding>,
    ) -> (u64, u64) {
        match op {
            WarpOp::Compute(n) => (u64::from(*n), 0),
            WarpOp::GlobalMem { write, lanes } => {
                let txs = coalesce(lanes, self.sys.line_bytes as u64);
                let mut issue = txs.len().max(1) as u64;
                let mut lat = 0u64;
                for tx in &txs {
                    let words: Vec<u64> = tx.words.iter().map(|va| va.0 / WORD_BYTES).collect();
                    let out = self.l1_tx(cu, *write, &words);
                    if out.hit {
                        lat = lat.max(self.sys.l1_hit_cycles);
                    } else {
                        issue += if *write {
                            STORE_MISS_OCCUPANCY
                        } else {
                            LOAD_MISS_OCCUPANCY
                        };
                        lat = lat.max(self.miss_latency(*write, out));
                    }
                }
                (issue, lat)
            }
            WarpOp::LocalMem {
                write, slot, lanes, ..
            } => {
                if !self.kind.uses_stash() {
                    // Scratchpad / cache-config local op: direct addressed.
                    return (1, self.sys.l1_hit_cycles);
                }
                let Some(b) = bindings.get(slot).copied() else {
                    // Temporary / unmapped: raw stash storage access.
                    return (1, self.sys.l1_hit_cycles);
                };
                let mut offsets: Vec<u64> = lanes
                    .iter()
                    .map(|&l| u64::from(l))
                    .filter(|&l| l < b.tile.local_words())
                    .collect();
                offsets.sort_unstable();
                offsets.dedup();
                if offsets.is_empty() {
                    return (1, self.sys.l1_hit_cycles);
                }
                let (out, missed) = self.stash_op(cu, *write, &offsets, b);
                if out.hit {
                    (1, self.sys.l1_hit_cycles)
                } else {
                    let flits = 1 + (missed * WORD_BYTES).div_ceil(FLIT_BYTES);
                    let issue = 1 + flits.div_ceil(FLITS_PER_CYCLE);
                    let lat = self.sys.stash_translation_cycles + self.miss_latency(*write, out);
                    (issue, lat)
                }
            }
        }
    }

    /// Cost of one stage of one block: `(port_cycles, chain_cycles)`.
    /// Port cycles occupy the CU's shared issue port; the chain is the
    /// slowest warp's in-order op chain (stages are barriers, so a
    /// block's critical path is the sum of its stage chains). Maps update
    /// `bindings` and the stash's map ring; they cost no port time (one
    /// instruction each, already in the instruction count).
    fn stage_cost(
        &mut self,
        cu: usize,
        stage: &gpu::program::Stage,
        bindings: &mut HashMap<usize, StashBinding>,
        alloc_bases: &[usize],
    ) -> (u64, u64) {
        let mut port = 0u64;
        for m in &stage.maps {
            if !self.kind.uses_stash() {
                continue;
            }
            let base = alloc_bases.get(m.alloc.0).copied().unwrap_or(0);
            let mut released = Vec::new();
            if let Some(b) = bindings.get_mut(&m.slot) {
                // ChgMap: same entry (and base), possibly a new tile.
                let (entry, tile) = (b.entry, m.tile);
                b.tile = tile;
                self.stashes[cu].chg_map(entry, tile, &mut released);
            } else {
                let entry = self.stashes[cu].add_map(m.tile, base, &mut released);
                bindings.insert(
                    m.slot,
                    StashBinding {
                        entry,
                        tile: m.tile,
                        base,
                    },
                );
            }
            self.release_owned(cu, &released);
        }
        for d in &stage.dmas {
            if d.load {
                port += self.dma_transfer(&d.tile, false);
            }
        }
        let mut stage_chain = 0u64;
        for warp in &stage.warps {
            let mut warp_chain = 0u64;
            for op in warp {
                let (issue, lat) = self.op_cost(cu, op, bindings);
                port += issue;
                warp_chain += issue + lat;
            }
            stage_chain = stage_chain.max(warp_chain);
        }
        for d in &stage.dmas {
            if d.store {
                port += self.dma_transfer(&d.tile, true);
            }
        }
        (port, stage_chain)
    }

    /// Replays all of one CU's blocks for a kernel, in the machine's wave
    /// structure: up to `max_blocks_per_cu` resident blocks (further
    /// limited by chunk-rounded local capacity) share the issue port; a
    /// wave ends when its slowest constraint — total port occupancy or
    /// the longest block chain — is done.
    fn cu_blocks(&mut self, cu: usize, blocks: &[&ThreadBlock]) -> u64 {
        let chunk_words = (self.sys.stash_chunk_bytes / WORD_BYTES as usize).max(1);
        let capacity_words = self.sys.scratchpad_bytes / WORD_BYTES as usize;
        let block_words = |b: &ThreadBlock| -> usize {
            b.allocs
                .iter()
                .map(|a| (a.words as usize).next_multiple_of(chunk_words))
                .sum()
        };
        let mut cycles = 0u64;
        let mut start = 0usize;
        while start < blocks.len() {
            let mut end = start;
            let mut words = 0usize;
            while end < blocks.len() && end - start < self.sys.max_blocks_per_cu.max(1) {
                let w = block_words(blocks[end]);
                if end > start && words + w > capacity_words {
                    break;
                }
                words += w;
                end += 1;
            }
            // Physical bases: the wave allocator packs chunk-rounded
            // allocations from word 0, in block then declaration order.
            let wave = &blocks[start..end];
            let mut stash_next_word = 0usize;
            let mut alloc_bases: Vec<Vec<usize>> = Vec::with_capacity(wave.len());
            for tb in wave {
                let mut bases = Vec::with_capacity(tb.allocs.len());
                for a in &tb.allocs {
                    bases.push(stash_next_word);
                    stash_next_word += (a.words as usize).next_multiple_of(chunk_words);
                }
                alloc_bases.push(bases);
            }
            // Replay the wave's stages round-robin across its blocks —
            // the machine interleaves resident blocks, so a block can
            // reuse a co-resident mapping before a later stage of another
            // block reclaims its chunks.
            let mut bindings: Vec<HashMap<usize, StashBinding>> = vec![HashMap::new(); wave.len()];
            let mut chains = vec![0u64; wave.len()];
            let mut port = 0u64;
            let max_stages = wave.iter().map(|tb| tb.stages.len()).max().unwrap_or(0);
            for s in 0..max_stages {
                for (bi, tb) in wave.iter().enumerate() {
                    let Some(stage) = tb.stages.get(s) else {
                        continue;
                    };
                    let (p, c) = self.stage_cost(cu, stage, &mut bindings[bi], &alloc_bases[bi]);
                    port += p;
                    chains[bi] += c;
                }
            }
            let chain_max = chains.iter().copied().max().unwrap_or(0);
            cycles += port.max(chain_max);
            start = end;
        }
        cycles
    }

    /// Replays one CPU phase; returns its cycle count (max over cores).
    fn cpu_phase(&mut self, per_core: &[Vec<CpuOp>]) -> u64 {
        let mut phase_cycles = 0u64;
        for (core, ops) in per_core.iter().enumerate() {
            let agent = self.sys.gpu_cus + core;
            let mut t = 0u64;
            for op in ops {
                match op {
                    CpuOp::Compute(n) => t += u64::from(*n),
                    CpuOp::Mem { write, vaddr } => {
                        let out = self.l1_tx(agent, *write, &[vaddr.0 / WORD_BYTES]);
                        t += 1 + if out.hit {
                            self.sys.l1_hit_cycles
                        } else {
                            self.miss_latency(*write, out)
                        };
                    }
                    // CPU stash ops need the machine's CPU-stash switch,
                    // which the suite never enables; charge issue only.
                    CpuOp::StashMem { .. } => t += 1,
                }
            }
            phase_cycles = phase_cycles.max(t);
        }
        phase_cycles
    }
}

/// The exact structural counter pass (see module docs).
fn exact_counters(
    program: &Program,
    sys: &SystemConfig,
    kind: MemConfigKind,
) -> (Vec<(Counter, u64)>, u64) {
    let line_bytes = sys.line_bytes as u64;
    let (mut gpu_load, mut gpu_store, mut cpu_load, mut cpu_store) = (0u64, 0u64, 0u64, 0u64);
    let (mut scratch, mut stash_load, mut stash_store, mut stash_raw) = (0u64, 0u64, 0u64, 0u64);
    let (mut add_maps, mut chg_maps, mut dma_words, mut extra_instr) = (0u64, 0u64, 0u64, 0u64);
    for phase in &program.phases {
        match phase {
            Phase::Gpu(kernel) => {
                for tb in &kernel.blocks {
                    let mut bound: HashSet<usize> = HashSet::new();
                    for stage in &tb.stages {
                        for m in &stage.maps {
                            if bound.insert(m.slot) {
                                add_maps += 1;
                            } else {
                                chg_maps += 1;
                            }
                            extra_instr += 1;
                        }
                        for d in &stage.dmas {
                            let per_transfer = stage.warps.len().max(1) as u64;
                            if d.load {
                                dma_words += d.tile.local_words();
                                extra_instr += per_transfer;
                            }
                            if d.store {
                                dma_words += d.tile.local_words();
                                extra_instr += per_transfer;
                            }
                        }
                        for op in stage.warps.iter().flatten() {
                            match op {
                                WarpOp::GlobalMem { write, lanes } if !lanes.is_empty() => {
                                    let n = coalesce(lanes, line_bytes).len() as u64;
                                    if *write {
                                        gpu_store += n;
                                    } else {
                                        gpu_load += n;
                                    }
                                }
                                WarpOp::LocalMem { write, slot, .. } => {
                                    if kind.uses_stash() {
                                        if bound.contains(slot) {
                                            if *write {
                                                stash_store += 1;
                                            } else {
                                                stash_load += 1;
                                            }
                                        } else {
                                            stash_raw += 1;
                                        }
                                    } else if kind.uses_scratchpad() {
                                        scratch += 1;
                                    }
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
            Phase::Cpu(p) => {
                for op in p.per_core.iter().flatten() {
                    if let CpuOp::Mem { write, .. } = op {
                        if *write {
                            cpu_store += 1;
                        } else {
                            cpu_load += 1;
                        }
                    }
                }
            }
        }
    }
    let mut exact = vec![
        (Counter::GpuKernels, program.kernel_count() as u64),
        (Counter::GpuL1LoadTx, gpu_load),
        (Counter::GpuL1StoreTx, gpu_store),
        (Counter::CpuL1LoadTx, cpu_load),
        (Counter::CpuL1StoreTx, cpu_store),
    ];
    if kind.uses_scratchpad() {
        exact.push((Counter::ScratchAccess, scratch));
    }
    if kind.uses_stash() {
        exact.push((Counter::StashLoadTx, stash_load));
        exact.push((Counter::StashStoreTx, stash_store));
        exact.push((Counter::StashRawAccess, stash_raw));
        exact.push((Counter::StashAddMap, add_maps));
        exact.push((Counter::StashChgMap, chg_maps));
    }
    if kind.uses_dma() {
        exact.push((Counter::DmaWords, dma_words));
    }
    let gpu_instructions = program.gpu_instruction_count() + extra_instr;
    (exact, gpu_instructions)
}

/// Predicts the simulator's behaviour for `program` lowered for `kind`
/// on the machine described by `sys`.
#[must_use]
pub fn predict(program: &Program, sys: &SystemConfig, kind: MemConfigKind) -> Prediction {
    let (exact, gpu_instructions) = exact_counters(program, sys, kind);
    let agents = sys.gpu_cus + sys.cpu_cores;
    let mut replay = Replay {
        sys,
        kind,
        l1s: (0..agents).map(|_| L1Model::new(sys)).collect(),
        stashes: (0..sys.gpu_cus).map(|_| StashModel::new(sys)).collect(),
        owner: HashMap::new(),
        seen_lines: HashSet::new(),
        l2_round_mean: mean_l2_round_cycles(sys),
        gpu_l1_miss: 0,
        cpu_l1_miss: 0,
        stash_hit: 0,
        stash_miss: 0,
        gpu_cycles: 0,
        cpu_cycles: 0,
    };
    for phase in &program.phases {
        match phase {
            Phase::Gpu(kernel) => {
                // Blocks distribute round-robin over CUs like the machine;
                // the kernel takes as long as its slowest CU.
                let mut per_cu: Vec<Vec<&ThreadBlock>> = vec![Vec::new(); sys.gpu_cus];
                for (i, tb) in kernel.blocks.iter().enumerate() {
                    per_cu[i % sys.gpu_cus].push(tb);
                }
                let mut kernel_cycles = 0u64;
                for (cu, blocks) in per_cu.iter().enumerate() {
                    kernel_cycles = kernel_cycles.max(replay.cu_blocks(cu, blocks));
                }
                replay.gpu_cycles += kernel_cycles + sys.kernel_launch_cycles;
                replay.end_kernel();
            }
            Phase::Cpu(p) => {
                let cycles = replay.cpu_phase(&p.per_core);
                replay.cpu_cycles += cycles;
            }
        }
    }
    let modeled = if kind.uses_stash() {
        vec![
            (Counter::GpuL1Miss, replay.gpu_l1_miss),
            (Counter::CpuL1Miss, replay.cpu_l1_miss),
            (Counter::StashHit, replay.stash_hit),
            (Counter::StashMiss, replay.stash_miss),
        ]
    } else {
        vec![
            (Counter::GpuL1Miss, replay.gpu_l1_miss),
            (Counter::CpuL1Miss, replay.cpu_l1_miss),
        ]
    };
    let est_picos = sys.gpu_clock.cycles_to_picos(replay.gpu_cycles)
        + sys.cpu_clock.cycles_to_picos(replay.cpu_cycles);
    Prediction {
        kind,
        gpu_instructions,
        exact,
        modeled,
        est_picos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu::program::{AllocId, DmaReq, Kernel, LocalAlloc, MapReq, Stage, ThreadBlock};
    use mem::addr::VAddr;
    use stash::UsageMode;

    fn tile_32() -> TileMap {
        // 32 contiguous words starting at 0x1000.
        TileMap::new(VAddr(0x1000), 4, 4, 32, 0, 1).unwrap()
    }

    fn stash_block(write_back: bool) -> ThreadBlock {
        let mut tb = ThreadBlock::new();
        tb.allocs.push(LocalAlloc { words: 32 });
        let mut stage = Stage::new(1);
        stage.maps.push(MapReq {
            slot: 0,
            alloc: AllocId(0),
            tile: tile_32(),
            mode: UsageMode::MappedCoherent,
        });
        stage.warps[0] = vec![
            WarpOp::Compute(2),
            WarpOp::LocalMem {
                write: false,
                alloc: AllocId(0),
                slot: 0,
                lanes: (0..32).collect(),
            },
        ];
        if write_back {
            stage.warps[0].push(WarpOp::LocalMem {
                write: true,
                alloc: AllocId(0),
                slot: 0,
                lanes: (0..32).collect(),
            });
        }
        tb.stages.push(stage);
        tb
    }

    fn one_kernel(tb: ThreadBlock) -> Program {
        Program {
            phases: vec![Phase::Gpu(Kernel { blocks: vec![tb] })],
        }
    }

    #[test]
    fn exact_counters_for_global_stream() {
        // One warp op, 32 contiguous lanes: two 64 B transactions.
        let mut tb = ThreadBlock::new();
        let mut stage = Stage::new(1);
        stage.warps[0] = vec![WarpOp::GlobalMem {
            write: false,
            lanes: (0..32).map(|i| VAddr(0x2000 + i * 4)).collect(),
        }];
        tb.stages.push(stage);
        let p = one_kernel(tb);
        let sys = SystemConfig::default();
        let pred = predict(&p, &sys, MemConfigKind::Cache);
        assert_eq!(pred.counter(Counter::GpuL1LoadTx), Some(2));
        assert_eq!(pred.counter(Counter::GpuL1StoreTx), Some(0));
        assert_eq!(pred.counter(Counter::GpuKernels), Some(1));
        assert_eq!(pred.gpu_instructions, 1);
    }

    #[test]
    fn stash_ops_classify_by_binding() {
        let p = one_kernel(stash_block(true));
        let sys = SystemConfig::default();
        let pred = predict(&p, &sys, MemConfigKind::Stash);
        assert_eq!(pred.counter(Counter::StashLoadTx), Some(1));
        assert_eq!(pred.counter(Counter::StashStoreTx), Some(1));
        assert_eq!(pred.counter(Counter::StashAddMap), Some(1));
        assert_eq!(pred.counter(Counter::StashChgMap), Some(0));
        // 2 compute + 2 local ops + 1 map instruction.
        assert_eq!(pred.gpu_instructions, 5);
        // First-touch load misses, the store (needs registration) misses.
        assert_eq!(pred.counter(Counter::StashMiss), Some(2));
    }

    #[test]
    fn registered_stash_words_survive_kernel_boundaries() {
        // Kernel 1 writes the tile (registers it); kernel 2 re-reads it.
        let p = Program {
            phases: vec![
                Phase::Gpu(Kernel {
                    blocks: vec![stash_block(true)],
                }),
                Phase::Gpu(Kernel {
                    blocks: vec![stash_block(false)],
                }),
            ],
        };
        let sys = SystemConfig::default();
        let pred = predict(&p, &sys, MemConfigKind::Stash);
        // Kernel 1: the first-touch load misses and the store misses (a
        // Shared word still needs registration). Kernel 2's load then
        // hits on the registered words kernel 1 left behind.
        assert_eq!(pred.counter(Counter::StashHit), Some(1));
        assert_eq!(pred.counter(Counter::StashMiss), Some(2));
    }

    #[test]
    fn gpu_store_revokes_cpu_registration() {
        // CPU writes a word, GPU stores to it, CPU reads it back: the
        // read must miss (its registration was revoked).
        let w = VAddr(0x3000);
        let mut tb = ThreadBlock::new();
        let mut stage = Stage::new(1);
        stage.warps[0] = vec![WarpOp::GlobalMem {
            write: true,
            lanes: vec![w],
        }];
        tb.stages.push(stage);
        let p = Program {
            phases: vec![
                Phase::Cpu(gpu::program::CpuPhase {
                    per_core: vec![vec![CpuOp::Mem {
                        write: true,
                        vaddr: w,
                    }]],
                    stash_maps: Vec::new(),
                }),
                Phase::Gpu(Kernel { blocks: vec![tb] }),
                Phase::Cpu(gpu::program::CpuPhase {
                    per_core: vec![vec![
                        CpuOp::Mem {
                            write: false,
                            vaddr: w,
                        },
                        CpuOp::Mem {
                            write: false,
                            vaddr: w,
                        },
                    ]],
                    stash_maps: Vec::new(),
                }),
            ],
        };
        let sys = SystemConfig::default();
        let pred = predict(&p, &sys, MemConfigKind::Cache);
        // CPU: 1 store miss + 1 load miss after revocation; the second
        // load hits the refilled line.
        assert_eq!(pred.counter(Counter::CpuL1Miss), Some(2));
        assert_eq!(pred.counter(Counter::CpuL1LoadTx), Some(2));
        assert_eq!(pred.counter(Counter::CpuL1StoreTx), Some(1));
    }

    #[test]
    fn dma_words_count_both_directions() {
        let mut tb = ThreadBlock::new();
        tb.allocs.push(LocalAlloc { words: 32 });
        let mut stage = Stage::new(2);
        stage.dmas.push(DmaReq {
            alloc: AllocId(0),
            tile: tile_32(),
            load: true,
            store: true,
        });
        stage.warps[0] = vec![WarpOp::Compute(1)];
        tb.stages.push(stage);
        let p = one_kernel(tb);
        let sys = SystemConfig::default();
        let pred = predict(&p, &sys, MemConfigKind::ScratchGD);
        assert_eq!(pred.counter(Counter::DmaWords), Some(64));
        // 1 compute + 2 warps noted per transfer direction.
        assert_eq!(pred.gpu_instructions, 5);
    }

    #[test]
    fn l1_capacity_eviction_is_modeled() {
        // Stream 1024 lines (2× L1 capacity) then re-read the first line:
        // it must have been evicted.
        let mut ops: Vec<CpuOp> = (0..1024u64)
            .map(|i| CpuOp::Mem {
                write: false,
                vaddr: VAddr(i * 64),
            })
            .collect();
        ops.push(CpuOp::Mem {
            write: false,
            vaddr: VAddr(0),
        });
        let p = Program {
            phases: vec![Phase::Cpu(gpu::program::CpuPhase {
                per_core: vec![ops],
                stash_maps: Vec::new(),
            })],
        };
        let sys = SystemConfig::default();
        let pred = predict(&p, &sys, MemConfigKind::Cache);
        assert_eq!(pred.counter(Counter::CpuL1Miss), Some(1025));
    }

    #[test]
    fn calibrated_round_trip_matches_flat_constant_at_paper_point() {
        // PR 3 charged `l2_base + 2 * hop` = 29 + 10 = 39 at the paper's
        // point; the calibrated geometric mean must reproduce it exactly
        // for both default machines (byte-identical default outputs).
        assert_eq!(mean_l2_round_cycles(&SystemConfig::default()), 39);
        assert_eq!(
            mean_l2_round_cycles(&SystemConfig::for_microbenchmarks()),
            39
        );
        assert_eq!(mean_l2_round_cycles(&SystemConfig::for_applications()), 39);
    }

    #[test]
    fn calibrated_round_trip_tracks_geometry() {
        // A bigger mesh means longer mean trips; a degenerate 1×1 mesh
        // means none; asymmetric Y-cost moves the mean.
        let base = SystemConfig::default();
        let wide = SystemConfig {
            mesh_side: 8,
            ..base.clone()
        };
        assert!(mean_l2_round_cycles(&wide) > mean_l2_round_cycles(&base));
        let single = SystemConfig {
            mesh_side: 1,
            ..base.clone()
        };
        assert_eq!(mean_l2_round_cycles(&single), base.l2_base_cycles);
        let slow_y = SystemConfig {
            hop_round_trip_cycles_y: 50,
            ..base.clone()
        };
        assert!(mean_l2_round_cycles(&slow_y) > mean_l2_round_cycles(&base));
        // Bank count redistributes homes. 8 banks cluster on the bottom
        // two rows, whose mean distance from *uniform* agents equals the
        // full mesh's (1.5+1.0 averages like 1.5+1.0+1.0+1.5) — pinned
        // as an equality. 4 banks collapse homes onto one row, which
        // does move the mean.
        let half_banks = SystemConfig {
            l2_banks: 8,
            ..base.clone()
        };
        assert_eq!(
            mean_l2_round_cycles(&half_banks),
            mean_l2_round_cycles(&base)
        );
        let row_banks = SystemConfig {
            l2_banks: 4,
            ..base.clone()
        };
        assert_ne!(
            mean_l2_round_cycles(&row_banks),
            mean_l2_round_cycles(&base)
        );
        // 32 banks fold onto the same 16 homes: identical mean.
        let many_banks = SystemConfig {
            l2_banks: 32,
            ..base.clone()
        };
        assert_eq!(
            mean_l2_round_cycles(&many_banks),
            mean_l2_round_cycles(&base)
        );
    }

    #[test]
    fn est_picos_ranks_reuse_friendly_config_first() {
        // A kernel pair re-reading the same tile: stash (cross-kernel
        // registered reuse) must rank at least as fast as cache.
        let p = Program {
            phases: vec![
                Phase::Gpu(Kernel {
                    blocks: vec![stash_block(true)],
                }),
                Phase::Gpu(Kernel {
                    blocks: vec![stash_block(false)],
                }),
            ],
        };
        let sys = SystemConfig::default();
        let stash = predict(&p, &sys, MemConfigKind::Stash);
        assert!(stash.est_picos > 0);
        assert!(stash.stash_hit_ratio().is_some());
    }
}
