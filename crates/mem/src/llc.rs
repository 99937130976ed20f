//! The shared NUCA L2 / registry (DeNovo's directory-free "LLC").
//!
//! Under DeNovo the LLC doubles as the *registry*: for every word it
//! either holds valid data or records which core has the word Registered —
//! the owner ID is kept in the word's own data-array slot, so tracking
//! costs no extra storage (§4.3). For stash owners it additionally records
//! the owner's stash-map index so a remote request can be translated back
//! to a stash location (§4.3, feature 3).
//!
//! Capacity note: the simulated L2 is 4 MB while the paper's workloads
//! touch well under that, so this model keeps every touched line resident
//! (first touch still counts as a memory fetch). L2 *evictions* therefore
//! never occur, which matches the paper's configurations.

use crate::addr::{LineAddr, WORD_BYTES};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Identifies a core (CPU or GPU CU) for registration tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub usize);

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Who holds a word registered, and — for stash owners — through which
/// stash-map entry (so remote requests can find the stash location).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Registration {
    /// Registered in the owner's L1 cache.
    Cache(CoreId),
    /// Registered in the owner's stash via stash-map entry `map_index`.
    Stash {
        /// The owning core.
        core: CoreId,
        /// Index into the owner's stash-map (stored at the LLC alongside
        /// the core ID, §4.3).
        map_index: u8,
    },
}

impl Registration {
    /// The owning core, regardless of which structure holds the word.
    pub fn core(self) -> CoreId {
        match self {
            Registration::Cache(c) => c,
            Registration::Stash { core, .. } => core,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WordTag {
    Valid,
    Registered(Registration),
}

/// Slot-table sentinel for "line not resident".
const EMPTY: u32 = u32::MAX;

/// Outcome of a load request reaching the home L2 bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlcLoadOutcome {
    /// The LLC supplies the data; `from_memory` is true if the line had to
    /// be fetched from DRAM first.
    Data {
        /// Whether DRAM was accessed.
        from_memory: bool,
    },
    /// Another core holds the only up-to-date copy; the request must be
    /// forwarded to it.
    Forward(Registration),
}

/// Outcome of a registration (store-miss) request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterOutcome {
    /// The previous owner, if the word was registered elsewhere (that copy
    /// must be invalidated/downgraded by the orchestrator).
    pub previous: Option<Registration>,
    /// Whether DRAM was accessed to bring the line in first.
    pub from_memory: bool,
}

/// The slot table and word-tag arena an [`Llc`] master owns.
#[derive(Debug, Clone, Default)]
struct Tables {
    /// Line index (`addr / line_bytes`) → word-arena slot, [`EMPTY`] when
    /// the line is not resident. Physical frames are handed out densely
    /// from a low base, so this direct-indexed table stays proportional
    /// to the touched footprint; a lookup is one bounds check + one array
    /// read — no hashing on the load/store path.
    slots: Vec<u32>,
    /// Word-tag arena: slot `s` owns the `words_per_line` tags starting
    /// at `s * words_per_line`. Lines are never evicted, so slots are
    /// append-only.
    words: Vec<WordTag>,
}

/// The banked shared L2 + registry.
///
/// # Example
///
/// ```
/// use mem::addr::LineAddr;
/// use mem::llc::{CoreId, Llc, LlcLoadOutcome, Registration};
///
/// let mut llc = Llc::new(16, 64);
/// let line = LineAddr(0x4000);
/// // First load fetches from memory, second hits in the L2.
/// assert_eq!(llc.load_word(line, 0), LlcLoadOutcome::Data { from_memory: true });
/// assert_eq!(llc.load_word(line, 0), LlcLoadOutcome::Data { from_memory: false });
/// // A store registers the word; a later load is forwarded to the owner.
/// llc.register_word(line, 0, Registration::Cache(CoreId(2)));
/// assert!(matches!(llc.load_word(line, 0), LlcLoadOutcome::Forward(_)));
/// ```
#[derive(Debug, Clone)]
pub struct Llc {
    banks: usize,
    line_bytes: u64,
    /// `log2(line_bytes)`: a line's index is its address shifted down.
    line_shift: u32,
    words_per_line: usize,
    /// Consecutive lines mapped to the same bank before moving to the
    /// next (1 = fine line interleaving, the paper's configuration).
    interleave_lines: u64,
    /// The slot table and word-tag arena. The master owns its tables
    /// (refcount 1, so `Arc::make_mut` in [`Llc::ensure`] mutates in
    /// place); a forked shard shares them read-only and writes to
    /// `overlay` instead, which makes [`Llc::fork`] a refcount bump
    /// rather than a copy of the whole arena. Reads of a resident line
    /// go through [`Llc::line_words`] and never reach `make_mut`.
    tables: Arc<Tables>,
    /// Shard mode (`Some` only after [`Llc::fork`]): the shard's private
    /// copies of every line it touched, keyed by line index. Reads check
    /// here first and fall through to the shared `tables`; writes land
    /// here, so the base snapshot is never copied and the shard's cost
    /// is proportional to its own footprint.
    overlay: Option<BTreeMap<usize, Box<[WordTag]>>>,
    dram_line_fetches: u64,
    /// Words whose resident data is corrupt (fault injection's ground
    /// truth). Ordered so diagnostics and scrubs are deterministic.
    corrupt: BTreeSet<(LineAddr, usize)>,
}

impl Llc {
    /// Creates an LLC with `banks` banks and `line_bytes` lines,
    /// interleaved line-by-line (the paper's configuration).
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero or the line is not a
    /// power-of-two multiple of the word.
    pub fn new(banks: usize, line_bytes: usize) -> Self {
        Self::with_interleave(banks, line_bytes, 1)
    }

    /// Creates an LLC whose bank map moves to the next bank only every
    /// `interleave_lines` consecutive lines (coarser-grained NUCA
    /// interleaving — a DSE dimension).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or the line is not a power-of-two
    /// multiple of the word.
    pub fn with_interleave(banks: usize, line_bytes: usize, interleave_lines: u64) -> Self {
        assert!(banks > 0 && line_bytes > 0 && interleave_lines > 0);
        assert!(line_bytes.is_power_of_two() && line_bytes as u64 >= WORD_BYTES);
        Self {
            banks,
            line_bytes: line_bytes as u64,
            line_shift: line_bytes.trailing_zeros(),
            words_per_line: line_bytes / WORD_BYTES as usize,
            interleave_lines,
            tables: Arc::new(Tables::default()),
            overlay: None,
            dram_line_fetches: 0,
            corrupt: BTreeSet::new(),
        }
    }

    /// Forks a copy-on-write view for a per-CU shard: the slot table and
    /// word arena are shared (a refcount bump), and every line the shard
    /// touches gets a private overlay copy on first access. The master
    /// keeps sole ownership of its tables once the shards are dropped,
    /// so its own mutation path stays in-place.
    #[must_use]
    pub fn fork(&self) -> Llc {
        Llc {
            banks: self.banks,
            line_bytes: self.line_bytes,
            line_shift: self.line_shift,
            words_per_line: self.words_per_line,
            interleave_lines: self.interleave_lines,
            tables: Arc::clone(&self.tables),
            overlay: Some(BTreeMap::new()),
            dram_line_fetches: self.dram_line_fetches,
            corrupt: self.corrupt.clone(),
        }
    }

    /// The home bank of a line (groups of `interleave_lines` consecutive
    /// lines interleave across banks).
    pub fn bank_of(&self, line: LineAddr) -> usize {
        ((self.line_index(line) as u64 / self.interleave_lines) % self.banks as u64) as usize
    }

    /// Total DRAM line fetches so far.
    pub fn dram_line_fetches(&self) -> u64 {
        self.dram_line_fetches
    }

    /// Overrides the DRAM fetch tally. Used by the parallel-kernel merge:
    /// replaying staged requests re-ensures residency without charging
    /// fetches twice, so the merged tally is set from the per-shard sums.
    pub fn set_dram_line_fetches(&mut self, fetches: u64) {
        self.dram_line_fetches = fetches;
    }

    /// `line / line_bytes`, as a shift.
    #[inline]
    fn line_index(&self, line: LineAddr) -> usize {
        (line.0 >> self.line_shift) as usize
    }

    /// The base tables' tags for a line, `None` when not resident there.
    #[inline]
    fn base_words(&self, idx: usize) -> Option<&[WordTag]> {
        let &slot = self.tables.slots.get(idx)?;
        if slot == EMPTY {
            return None;
        }
        let base = slot as usize * self.words_per_line;
        Some(&self.tables.words[base..base + self.words_per_line])
    }

    /// Resident-line lookup on the read path: `None` when not resident.
    /// A shard's overlay shadows the shared base tables.
    #[inline]
    fn line_words(&self, line: LineAddr) -> Option<&[WordTag]> {
        let idx = self.line_index(line);
        if let Some(tags) = self.overlay.as_ref().and_then(|ov| ov.get(&idx)) {
            return Some(tags);
        }
        self.base_words(idx)
    }

    /// Makes `line` resident (the DRAM fetch when it was not) and returns
    /// its tags for writing: the path of a fetch or a tag change.
    fn ensure(&mut self, line: LineAddr) -> (bool, &mut [WordTag]) {
        let idx = self.line_index(line);
        let wpl = self.words_per_line;
        let Self {
            tables,
            overlay,
            dram_line_fetches,
            ..
        } = self;
        if let Some(ov) = overlay.as_mut() {
            // Shard mode: materialize a private copy of the line on first
            // touch — from the shared base if resident there, otherwise a
            // fresh all-Valid line, which is the fetch.
            let mut fetched = false;
            let tags = ov.entry(idx).or_insert_with(|| {
                let base: Option<Box<[WordTag]>> = tables
                    .slots
                    .get(idx)
                    .copied()
                    .filter(|&slot| slot != EMPTY)
                    .map(|slot| {
                        let b = slot as usize * wpl;
                        tables.words[b..b + wpl].into()
                    });
                base.unwrap_or_else(|| {
                    fetched = true;
                    vec![WordTag::Valid; wpl].into_boxed_slice()
                })
            });
            if fetched {
                *dram_line_fetches += 1;
            }
            return (fetched, tags);
        }
        let t = Arc::make_mut(tables);
        if idx >= t.slots.len() {
            t.slots.resize(idx + 1, EMPTY);
        }
        let mut fetched = false;
        if t.slots[idx] == EMPTY {
            let slot = u32::try_from(t.words.len() / wpl).expect("arena slot fits u32");
            t.words.resize(t.words.len() + wpl, WordTag::Valid);
            t.slots[idx] = slot;
            *dram_line_fetches += 1;
            fetched = true;
        }
        let base = t.slots[idx] as usize * wpl;
        (fetched, &mut t.words[base..base + wpl])
    }

    /// Visits every resident line with its tags, in ascending address
    /// order (the slot table is indexed by line address, so index order
    /// *is* address order). In shard mode the overlay's private copies
    /// shadow the base tables, and overlay-only lines — lines the shard
    /// fetched itself — are merged in at their index position.
    fn for_each_resident(&self, mut f: impl FnMut(LineAddr, &[WordTag])) {
        let line_of = |idx: usize| LineAddr(idx as u64 * self.line_bytes);
        let mut ov = self.overlay.as_ref().map(|m| m.iter().peekable());
        for (idx, &slot) in self.tables.slots.iter().enumerate() {
            let mut shadowed = false;
            if let Some(it) = ov.as_mut() {
                // Overlay-only lines below this index come first.
                while it.peek().is_some_and(|&(&oidx, _)| oidx < idx) {
                    let (&oidx, tags) = it.next().expect("peeked");
                    f(line_of(oidx), tags);
                }
                // The shard's private copy shadows the base line.
                if it.peek().is_some_and(|&(&oidx, _)| oidx == idx) {
                    let (_, tags) = it.next().expect("peeked");
                    f(line_of(idx), tags);
                    shadowed = true;
                }
            }
            if !shadowed && slot != EMPTY {
                let base = slot as usize * self.words_per_line;
                f(
                    line_of(idx),
                    &self.tables.words[base..base + self.words_per_line],
                );
            }
        }
        if let Some(it) = ov.as_mut() {
            for (&oidx, tags) in it {
                f(line_of(oidx), tags);
            }
        }
    }

    /// A load request for one word arriving at the home bank. A resident
    /// line is only read; a line that is not resident is fetched.
    pub fn load_word(&mut self, line: LineAddr, word: usize) -> LlcLoadOutcome {
        assert!(word < self.words_per_line);
        let (from_memory, tag) = match self.line_words(line) {
            Some(tags) => (false, tags[word]),
            None => (true, self.ensure(line).1[word]),
        };
        match tag {
            WordTag::Valid => LlcLoadOutcome::Data { from_memory },
            WordTag::Registered(r) => LlcLoadOutcome::Forward(r),
        }
    }

    /// A registration (store-miss) request: `new` becomes the word's owner.
    pub fn register_word(
        &mut self,
        line: LineAddr,
        word: usize,
        new: Registration,
    ) -> RegisterOutcome {
        assert!(word < self.words_per_line);
        let (from_memory, tags) = self.ensure(line);
        let previous = match tags[word] {
            WordTag::Registered(r) if r != new => Some(r),
            _ => None,
        };
        tags[word] = WordTag::Registered(new);
        RegisterOutcome {
            previous,
            from_memory,
        }
    }

    /// A writeback of one word from `owner`: clears the registration (if it
    /// still names `owner`) and marks the word Valid. Returns `true` if a
    /// matching registration was cleared — a stale writeback (the word was
    /// re-registered elsewhere meanwhile) returns `false` and is dropped.
    pub fn writeback_word(&mut self, line: LineAddr, word: usize, owner: CoreId) -> bool {
        assert!(word < self.words_per_line);
        let (_, tags) = self.ensure(line);
        match tags[word] {
            WordTag::Registered(r) if r.core() == owner => {
                tags[word] = WordTag::Valid;
                true
            }
            _ => false,
        }
    }

    /// A write-through store of one word (the DMA engine's scratchpad →
    /// global writeback path, which deposits data directly at the LLC):
    /// marks the word Valid and returns any registration that had to be
    /// revoked (the orchestrator invalidates that copy).
    pub fn store_through(&mut self, line: LineAddr, word: usize) -> Option<Registration> {
        assert!(word < self.words_per_line);
        let (_, tags) = self.ensure(line);
        let previous = match tags[word] {
            WordTag::Registered(r) => Some(r),
            WordTag::Valid => None,
        };
        tags[word] = WordTag::Valid;
        previous
    }

    /// For a full line fill: ensures the line is resident and returns
    /// `(from_memory, skip)` where `skip` lists word indices registered by
    /// cores *other than* `requester` (the LLC cannot supply those). A
    /// resident line is only read; a line that is not resident is fetched.
    pub fn line_fill(&mut self, line: LineAddr, requester: CoreId) -> (bool, Vec<usize>) {
        let (from_memory, tags) = match self.line_words(line) {
            Some(tags) => (false, tags),
            None => (true, &*self.ensure(line).1),
        };
        let skip = tags
            .iter()
            .enumerate()
            .filter(|(_, w)| matches!(w, WordTag::Registered(r) if r.core() != requester))
            .map(|(i, _)| i)
            .collect();
        (from_memory, skip)
    }

    /// The current registration of a word, if any (diagnostic/registry view).
    pub fn registration(&self, line: LineAddr, word: usize) -> Option<Registration> {
        self.line_words(line).and_then(|tags| match tags[word] {
            WordTag::Registered(r) => Some(r),
            WordTag::Valid => None,
        })
    }

    /// Number of words currently registered to `core` (diagnostics; the
    /// papershape tests use this to assert lazy-writeback behaviour).
    pub fn words_registered_to(&self, core: CoreId) -> usize {
        let mut n = 0;
        self.for_each_resident(|_, tags| {
            n += tags
                .iter()
                .filter(|w| matches!(w, WordTag::Registered(r) if r.core() == core))
                .count();
        });
        n
    }

    /// Every currently-registered word, as `(line, word index, owner)`,
    /// sorted by address — the registry side of the invariant checks (the
    /// runtime oracle walks this to confirm each registration names a core
    /// that really holds the word Registered). The slot table is indexed
    /// by line address, so the walk is sorted for free.
    pub fn registered_words(&self) -> Vec<(LineAddr, usize, Registration)> {
        let mut out = Vec::new();
        self.for_each_resident(|line, tags| {
            for (i, w) in tags.iter().enumerate() {
                if let WordTag::Registered(r) = w {
                    out.push((line, i, *r));
                }
            }
        });
        out
    }

    /// Every resident line address, sorted — the residency side of the
    /// architectural-state digest (a truncated DMA that never filled a
    /// line shows up here).
    pub fn resident_line_addrs(&self) -> Vec<LineAddr> {
        let mut out = Vec::new();
        self.for_each_resident(|line, _| out.push(line));
        out
    }

    // ------------------------------------------------------------------
    // Fault injection: corrupt-word ground truth
    // ------------------------------------------------------------------
    //
    // The transaction-level model carries no data values, so a "flipped
    // word" is tracked as membership in a corrupt set. Reads with the
    // parity model check it (detect + correct), overwrites clear it
    // silently, and the end-of-run scrub sweeps the remainder. Whatever
    // is still in the set at the end of a run escaped every check.

    /// Marks a resident word's data corrupt (a fault injector flipped it).
    pub fn corrupt_word(&mut self, line: LineAddr, word: usize) {
        assert!(word < self.words_per_line);
        self.corrupt.insert((line, word));
    }

    /// An overwriting store repairs corruption without noticing it.
    /// Returns `true` if the word was corrupt.
    pub fn clear_corrupt(&mut self, line: LineAddr, word: usize) -> bool {
        self.corrupt.remove(&(line, word))
    }

    /// A parity-checked read of the word: detects (and corrects) any
    /// corruption. Returns `true` if corruption was found.
    pub fn check_parity(&mut self, line: LineAddr, word: usize) -> bool {
        self.corrupt.remove(&(line, word))
    }

    /// Number of words currently corrupt (0 on a clean or fully-scrubbed
    /// LLC).
    pub fn corrupt_word_count(&self) -> usize {
        self.corrupt.len()
    }

    /// End-of-run scrub: detects and clears every remaining corrupt
    /// word, returning how many there were.
    pub fn scrub(&mut self) -> usize {
        let n = self.corrupt.len();
        self.corrupt.clear();
        n
    }

    /// Serializes the slot table, the word-tag arena, the resident-line
    /// count, the fetch tally and the corrupt-word set. The bank count, line
    /// size and interleave are configuration, fixed when the LLC is
    /// built, so they are not saved.
    ///
    /// # Panics
    ///
    /// Panics if called on a forked shard (checkpoints are taken at
    /// kernel barriers, where every shard has been absorbed and only the
    /// master LLC exists).
    pub fn save(&self, w: &mut sim::snapshot::Writer) {
        assert!(
            self.overlay.is_none(),
            "LLC snapshot requires the quiescent master, not a forked shard"
        );
        w.put_usize(self.tables.slots.len());
        for &slot in &self.tables.slots {
            w.put_u32(slot);
        }
        w.put_usize(self.tables.words.len());
        let mut rest = &self.tables.words[..];
        while !rest.is_empty() {
            // Most tags are Valid, code 0: each run of them is one append.
            let valid = rest.iter().take_while(|&&t| t == WordTag::Valid).count();
            w.put_u8s(std::iter::repeat_n(0, valid));
            rest = &rest[valid..];
            if let Some((&WordTag::Registered(reg), tail)) = rest.split_first() {
                match reg {
                    Registration::Cache(core) => {
                        w.put_u8(1);
                        w.put_usize(core.0);
                    }
                    Registration::Stash { core, map_index } => {
                        w.put_u8(2);
                        w.put_usize(core.0);
                        w.put_u8(map_index);
                    }
                }
                rest = tail;
            }
        }
        // Lines are never evicted: one arena slot per resident line.
        w.put_usize(self.tables.words.len() / self.words_per_line);
        w.put_u64(self.dram_line_fetches);
        w.put_usize(self.corrupt.len());
        for (line, word) in &self.corrupt {
            w.put_u64(line.0);
            w.put_usize(*word);
        }
    }

    /// Reads state written by [`Llc::save`] into this LLC, built with the
    /// saved LLC's geometry. Every registration must name an owner the
    /// machine has: the L1 of one of `cores` cores, or the stash of one
    /// of the first `stashes` cores through a map index below
    /// `map_entries`.
    ///
    /// # Errors
    ///
    /// [`sim::SimError::CheckpointCorrupt`] if the state is malformed, if
    /// the slot table does not name each arena slot exactly once, or if
    /// a registration names an owner outside those bounds.
    pub fn restore(
        &mut self,
        r: &mut sim::snapshot::Reader<'_>,
        cores: usize,
        stashes: usize,
        map_entries: usize,
    ) -> Result<(), sim::SimError> {
        let corrupt_err = |detail: String| sim::SimError::CheckpointCorrupt {
            what: "llc",
            detail,
        };
        let words_per_line = self.words_per_line;
        // A slot reads four bytes and a word tag at least one: neither
        // reservation can exceed what the rest of the payload could fill.
        let n_slots = r.take_usize()?;
        let mut slots = Vec::with_capacity(n_slots.min(r.remaining() / 4));
        for _ in 0..n_slots {
            slots.push(r.take_u32()?);
        }
        let n_words = r.take_usize()?;
        if !n_words.is_multiple_of(words_per_line) {
            return Err(corrupt_err(format!(
                "word arena length {n_words} is not a multiple of {words_per_line}"
            )));
        }
        let arena_slots = n_words / words_per_line;
        let mut words = Vec::with_capacity(n_words.min(r.remaining()));
        for _ in 0..n_words {
            let reg = match r.take_u8()? {
                0 => {
                    words.push(WordTag::Valid);
                    continue;
                }
                1 => Registration::Cache(CoreId(r.take_usize()?)),
                2 => Registration::Stash {
                    core: CoreId(r.take_usize()?),
                    map_index: r.take_u8()?,
                },
                v => return Err(corrupt_err(format!("unknown word tag code {v}"))),
            };
            let owned = match reg {
                Registration::Cache(core) => core.0 < cores,
                Registration::Stash { core, map_index } => {
                    core.0 < stashes && usize::from(map_index) < map_entries
                }
            };
            if !owned {
                return Err(corrupt_err(format!(
                    "{reg:?} names an owner outside {cores} cores, \
                     {stashes} stashes of {map_entries} map entries"
                )));
            }
            words.push(WordTag::Registered(reg));
        }
        // Each resident line owns one arena slot: a slot named twice would
        // alias two lines' tags.
        let mut named = vec![false; arena_slots];
        let mut occupied = 0;
        for (idx, &slot) in slots.iter().enumerate() {
            if slot == EMPTY {
                continue;
            }
            let Some(seen) = named.get_mut(slot as usize) else {
                return Err(corrupt_err(format!(
                    "slot table entry {idx} points past the word arena ({slot} >= {arena_slots})"
                )));
            };
            if std::mem::replace(seen, true) {
                return Err(corrupt_err(format!(
                    "slot table entry {idx} names arena slot {slot} a second time"
                )));
            }
            occupied += 1;
        }
        let resident = r.take_usize()?;
        if resident != arena_slots || occupied != arena_slots {
            return Err(corrupt_err(format!(
                "{resident} resident lines saved, {arena_slots} in the word arena, \
                 {occupied} in the slot table"
            )));
        }
        self.dram_line_fetches = r.take_u64()?;
        let n_corrupt = r.take_usize()?;
        for _ in 0..n_corrupt {
            let line = LineAddr(r.take_u64()?);
            let word = r.take_usize()?;
            if word >= words_per_line {
                return Err(corrupt_err(format!(
                    "corrupt-set word index {word} exceeds words per line"
                )));
            }
            self.corrupt.insert((line, word));
        }
        self.tables = Arc::new(Tables { slots, words });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn llc() -> Llc {
        Llc::new(16, 64)
    }

    #[test]
    fn bank_interleaving_covers_all_banks() {
        let l = llc();
        let mut seen = [false; 16];
        for i in 0..16 {
            seen[l.bank_of(LineAddr(i * 64))] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn coarse_interleave_groups_consecutive_lines() {
        let l = Llc::with_interleave(4, 64, 4);
        // Four consecutive lines share a bank, then the map advances.
        for group in 0..8u64 {
            for i in 0..4u64 {
                let line = LineAddr((group * 4 + i) * 64);
                assert_eq!(l.bank_of(line), (group % 4) as usize);
            }
        }
        // Interleave 1 reproduces the fine-grained default map.
        let fine = Llc::with_interleave(4, 64, 1);
        for i in 0..16u64 {
            assert_eq!(
                fine.bank_of(LineAddr(i * 64)),
                Llc::new(4, 64).bank_of(LineAddr(i * 64))
            );
        }
    }

    #[test]
    fn corruption_is_tracked_until_checked_or_scrubbed() {
        let mut l = llc();
        let line = LineAddr(0x40);
        l.load_word(line, 0);
        l.corrupt_word(line, 1);
        l.corrupt_word(line, 2);
        l.corrupt_word(line, 3);
        assert_eq!(l.corrupt_word_count(), 3);
        // A parity read detects and corrects.
        assert!(l.check_parity(line, 1));
        assert!(!l.check_parity(line, 1), "already corrected");
        // An overwrite silently repairs.
        assert!(l.clear_corrupt(line, 2));
        // The scrub sweeps what is left.
        assert_eq!(l.scrub(), 1);
        assert_eq!(l.corrupt_word_count(), 0);
    }

    #[test]
    fn resident_lines_are_sorted_and_complete() {
        let mut l = llc();
        l.load_word(LineAddr(0xc0), 0);
        l.load_word(LineAddr(0x40), 0);
        assert_eq!(
            l.resident_line_addrs(),
            vec![LineAddr(0x40), LineAddr(0xc0)]
        );
    }

    #[test]
    fn first_touch_fetches_from_memory_once() {
        let mut l = llc();
        let line = LineAddr(0x80);
        assert_eq!(
            l.load_word(line, 3),
            LlcLoadOutcome::Data { from_memory: true }
        );
        assert_eq!(
            l.load_word(line, 4),
            LlcLoadOutcome::Data { from_memory: false }
        );
        assert_eq!(l.dram_line_fetches(), 1);
    }

    #[test]
    fn registration_then_forward() {
        let mut l = llc();
        let line = LineAddr(0x0);
        let owner = Registration::Stash {
            core: CoreId(1),
            map_index: 7,
        };
        let out = l.register_word(line, 5, owner);
        assert_eq!(out.previous, None);
        assert!(out.from_memory);
        match l.load_word(line, 5) {
            LlcLoadOutcome::Forward(r) => {
                assert_eq!(r, owner);
                assert_eq!(r.core(), CoreId(1));
            }
            other => panic!("expected forward, got {other:?}"),
        }
        // Other words of the line are still served by the LLC.
        assert_eq!(
            l.load_word(line, 6),
            LlcLoadOutcome::Data { from_memory: false }
        );
    }

    #[test]
    fn re_registration_reports_previous_owner() {
        let mut l = llc();
        let line = LineAddr(0x40);
        l.register_word(line, 0, Registration::Cache(CoreId(1)));
        let out = l.register_word(line, 0, Registration::Cache(CoreId(2)));
        assert_eq!(out.previous, Some(Registration::Cache(CoreId(1))));
        // Same owner re-registering is not a change.
        let out = l.register_word(line, 0, Registration::Cache(CoreId(2)));
        assert_eq!(out.previous, None);
    }

    #[test]
    fn writeback_clears_matching_registration_only() {
        let mut l = llc();
        let line = LineAddr(0x40);
        l.register_word(line, 2, Registration::Cache(CoreId(3)));
        // A stale writeback from someone else is dropped.
        assert!(!l.writeback_word(line, 2, CoreId(9)));
        assert!(l.registration(line, 2).is_some());
        // The owner's writeback clears it.
        assert!(l.writeback_word(line, 2, CoreId(3)));
        assert_eq!(l.registration(line, 2), None);
        assert_eq!(
            l.load_word(line, 2),
            LlcLoadOutcome::Data { from_memory: false }
        );
    }

    #[test]
    fn line_fill_skips_other_cores_words() {
        let mut l = llc();
        let line = LineAddr(0xC0);
        l.register_word(line, 1, Registration::Cache(CoreId(1)));
        l.register_word(line, 9, Registration::Cache(CoreId(2)));
        let (from_memory, skip) = l.line_fill(line, CoreId(1));
        assert!(!from_memory); // register_word already fetched it
        assert_eq!(skip, vec![9]); // own registration is not skipped
    }

    #[test]
    fn store_through_revokes_registration() {
        let mut l = llc();
        let line = LineAddr(0x100);
        l.register_word(line, 0, Registration::Cache(CoreId(4)));
        assert_eq!(
            l.store_through(line, 0),
            Some(Registration::Cache(CoreId(4)))
        );
        assert_eq!(l.store_through(line, 0), None);
        assert_eq!(
            l.load_word(line, 0),
            LlcLoadOutcome::Data { from_memory: false }
        );
    }

    #[test]
    fn evict_while_registered_transfers_cleanly() {
        // Registration transfer while the old owner's eviction writeback is
        // in flight: core 1 owns the word, core 2 registers (revoking 1),
        // and only *then* does core 1's eviction writeback arrive. The
        // stale writeback must be dropped, leaving core 2 the owner.
        let mut l = llc();
        let line = LineAddr(0x200);
        l.register_word(line, 0, Registration::Cache(CoreId(1)));
        let out = l.register_word(line, 0, Registration::Cache(CoreId(2)));
        assert_eq!(out.previous, Some(Registration::Cache(CoreId(1))));
        // Core 1's late eviction writeback: dropped, registry untouched.
        assert!(!l.writeback_word(line, 0, CoreId(1)));
        assert_eq!(
            l.registration(line, 0),
            Some(Registration::Cache(CoreId(2)))
        );
        // Loads still forward to the real owner.
        assert!(matches!(l.load_word(line, 0), LlcLoadOutcome::Forward(r)
            if r.core() == CoreId(2)));
    }

    #[test]
    fn re_register_after_owner_writeback_starts_fresh() {
        // Owner writes back (word becomes Valid at the LLC), then the same
        // core stores again: the new registration must report no previous
        // owner — the transfer protocol must not see a phantom old copy.
        let mut l = llc();
        let line = LineAddr(0x240);
        l.register_word(line, 3, Registration::Cache(CoreId(7)));
        assert!(l.writeback_word(line, 3, CoreId(7)));
        assert_eq!(l.registration(line, 3), None);
        let out = l.register_word(line, 3, Registration::Cache(CoreId(7)));
        assert_eq!(out.previous, None);
        assert!(!out.from_memory); // line stayed resident across the cycle
        assert_eq!(
            l.registration(line, 3),
            Some(Registration::Cache(CoreId(7)))
        );
    }

    #[test]
    fn registered_words_enumerates_sorted_registry() {
        let mut l = llc();
        l.register_word(LineAddr(0x80), 2, Registration::Cache(CoreId(1)));
        l.register_word(
            LineAddr(0x40),
            5,
            Registration::Stash {
                core: CoreId(2),
                map_index: 1,
            },
        );
        l.register_word(LineAddr(0x40), 1, Registration::Cache(CoreId(3)));
        // A writeback removes its entry from the enumeration.
        l.register_word(LineAddr(0xC0), 0, Registration::Cache(CoreId(4)));
        l.writeback_word(LineAddr(0xC0), 0, CoreId(4));
        assert_eq!(
            l.registered_words(),
            vec![
                (LineAddr(0x40), 1, Registration::Cache(CoreId(3))),
                (
                    LineAddr(0x40),
                    5,
                    Registration::Stash {
                        core: CoreId(2),
                        map_index: 1
                    }
                ),
                (LineAddr(0x80), 2, Registration::Cache(CoreId(1))),
            ]
        );
    }

    #[test]
    fn llc_round_trips_through_snapshot() {
        let mut l = Llc::with_interleave(8, 64, 2);
        l.load_word(LineAddr(0x40), 0);
        l.register_word(LineAddr(0x80), 2, Registration::Cache(CoreId(1)));
        l.register_word(
            LineAddr(0xC0),
            5,
            Registration::Stash {
                core: CoreId(3),
                map_index: 2,
            },
        );
        l.corrupt_word(LineAddr(0x40), 1);
        let mut w = sim::snapshot::Writer::new();
        l.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = sim::snapshot::Reader::new(&bytes, "llc");
        let mut back = Llc::with_interleave(8, 64, 2);
        back.restore(&mut r, 4, 4, 3).unwrap();
        r.finish().unwrap();
        assert_eq!(back.registered_words(), l.registered_words());
        assert_eq!(back.resident_line_addrs(), l.resident_line_addrs());
        assert_eq!(back.dram_line_fetches(), l.dram_line_fetches());
        assert_eq!(back.corrupt_word_count(), l.corrupt_word_count());
        // The same registry on a machine that lacks one of its owners:
        // core 1's L1, core 3's stash, or stash-map entry 2.
        for (cores, stashes, map_entries) in [(1, 4, 3), (4, 3, 3), (4, 4, 2)] {
            let mut r = sim::snapshot::Reader::new(&bytes, "llc");
            assert!(
                matches!(
                    Llc::with_interleave(8, 64, 2).restore(&mut r, cores, stashes, map_entries),
                    Err(sim::SimError::CheckpointCorrupt { .. })
                ),
                "{cores} cores, {stashes} stashes, {map_entries} map entries"
            );
        }
    }

    #[test]
    fn llc_restore_rejects_dangling_slot() {
        let mut l = Llc::new(4, 64);
        l.load_word(LineAddr(0x0), 0);
        l.load_word(LineAddr(0x40), 0);
        let mut w = sim::snapshot::Writer::new();
        l.save(&mut w);
        let bytes = w.into_bytes();
        let restore = |bytes: &[u8]| {
            let mut r = sim::snapshot::Reader::new(bytes, "llc");
            Llc::new(4, 64).restore(&mut r, 1, 0, 0)
        };
        assert!(restore(&bytes).is_ok());
        // Line 0x40's slot entry follows the slot count and line 0x0's
        // entry; the resident-line count follows the 32 Valid tags.
        for (what, off, value) in [
            ("line 0x40 points past the two-slot arena", 12, 7),
            ("line 0x40 aliases line 0x0's slot", 12, 0),
            ("no line names arena slot 1", 12, EMPTY),
            ("three resident lines saved", 56, 3),
        ] {
            let mut bad = bytes.clone();
            bad[off..off + 4].copy_from_slice(&u32::to_le_bytes(value));
            assert!(restore(&bad).is_err(), "{what}");
        }
    }

    #[test]
    fn words_registered_to_counts() {
        let mut l = llc();
        l.register_word(LineAddr(0x0), 0, Registration::Cache(CoreId(5)));
        l.register_word(
            LineAddr(0x40),
            3,
            Registration::Stash {
                core: CoreId(5),
                map_index: 0,
            },
        );
        l.register_word(LineAddr(0x40), 4, Registration::Cache(CoreId(6)));
        assert_eq!(l.words_registered_to(CoreId(5)), 2);
        assert_eq!(l.words_registered_to(CoreId(6)), 1);
    }
}
