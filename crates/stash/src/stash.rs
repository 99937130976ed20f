//! The stash front-end: §4.2's operations over the Figure 3 components.
//!
//! The [`Stash`] is a *state* model: every operation applies its
//! architectural state changes synchronously and returns an outcome
//! describing the global actions (miss fetch, registration, writebacks)
//! the memory-system orchestrator must perform — the orchestrator charges
//! latency, traffic and energy for them. This split keeps the stash's
//! state machine independently testable while the timing lives with the
//! rest of the machine model.

use crate::index_table::MapIndexTable;
use crate::map::{MapIndex, StashMap, StashMapEntry};
use crate::modes::UsageMode;
use crate::storage::StashStorage;
use crate::vpmap::VpMap;
use mem::addr::{PAddr, VAddr, WORD_BYTES};
use mem::coherence::WordState;
use mem::tile::TileMap;
use sim::config::SystemConfig;
use sim::SimError;
use std::collections::{BTreeSet, HashMap};

/// Stash hardware parameters: the part of a [`SystemConfig`] one stash
/// acts on ([`StashConfig::for_system`]). The default is the paper's
/// machine, [`SystemConfig::default`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StashConfig {
    /// Storage capacity in bytes (16 KB).
    pub capacity_bytes: usize,
    /// Writeback chunk granularity in bytes (64 B).
    pub chunk_bytes: usize,
    /// Stash-map entries (64).
    pub map_entries: usize,
    /// VP-map entries (64).
    pub vp_map_entries: usize,
    /// Map-index-table entries per thread block (4).
    pub max_maps_per_thread_block: usize,
    /// Page size for the VP-map (4 KB).
    pub page_bytes: u64,
    /// §4.5 data-replication optimization switch (on in the paper's
    /// evaluation; the `ablation` grid turns it off).
    pub replication_enabled: bool,
}

impl StashConfig {
    /// The stash of a machine built from `sys`: its scratchpad capacity,
    /// chunk, map and VP-map sizes, page size and replication switch.
    #[must_use]
    pub fn for_system(sys: &SystemConfig) -> Self {
        Self {
            capacity_bytes: sys.scratchpad_bytes,
            chunk_bytes: sys.stash_chunk_bytes,
            map_entries: sys.stash_map_entries,
            vp_map_entries: sys.vp_map_entries,
            max_maps_per_thread_block: sys.max_maps_per_thread_block,
            page_bytes: sys.page_bytes as u64,
            replication_enabled: sys.stash_replication,
        }
    }

    /// Storage capacity in words.
    #[must_use]
    pub fn capacity_words(&self) -> usize {
        self.capacity_bytes / WORD_BYTES as usize
    }

    /// Writeback-chunk granularity in words.
    #[must_use]
    pub fn chunk_words(&self) -> usize {
        (self.chunk_bytes / WORD_BYTES as usize).max(1)
    }

    /// Rounds an allocation up to whole chunks — the granularity at which
    /// the wave allocator hands out stash space.
    #[must_use]
    pub fn chunk_rounded(&self, words: usize) -> usize {
        words.next_multiple_of(self.chunk_words())
    }
}

impl Default for StashConfig {
    fn default() -> Self {
        Self::for_system(&SystemConfig::default())
    }
}

/// One word that must be written back to its global address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WritebackWord {
    /// The stash word being written back.
    pub stash_word: usize,
    /// Its global virtual address (the orchestrator translates and sends).
    pub vaddr: VAddr,
}

/// Outcome of a stash load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadOutcome {
    /// Direct-addressed hit: storage access only, scratchpad-class energy.
    Hit,
    /// §4.5 replication hit: the data was copied from an older mapping's
    /// stash location instead of going to the network.
    ReplicaHit {
        /// The stash word the data was copied from.
        from_word: usize,
        /// Lazy writebacks triggered by reclaiming this word's chunk;
        /// they must be performed even though no fetch follows.
        writebacks: Vec<WritebackWord>,
    },
    /// Miss: the orchestrator must fetch `vaddr` (word granularity) and
    /// then call [`Stash::complete_load_fill`]. Any `writebacks` (lazy
    /// writebacks triggered by reclaiming this word's chunk) must be
    /// performed first.
    Miss {
        /// Global virtual address of the missing word.
        vaddr: VAddr,
        /// Lazy writebacks triggered by this access.
        writebacks: Vec<WritebackWord>,
    },
}

impl LoadOutcome {
    /// Whether the access needs a global fetch.
    pub fn missed(&self) -> bool {
        matches!(self, LoadOutcome::Miss { .. })
    }
}

/// Outcome of a stash store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The word was already Registered: pure local write.
    Hit,
    /// The word needs registration (coherent mode) before the store
    /// completes; the orchestrator sends the request (carrying the
    /// stash-map index) and then calls [`Stash::complete_store_fill`].
    Miss {
        /// Global virtual address of the stored word.
        vaddr: VAddr,
        /// Lazy writebacks triggered by this access.
        writebacks: Vec<WritebackWord>,
        /// False for Mapped Non-coherent data, whose stores stay local.
        needs_registration: bool,
    },
}

impl StoreOutcome {
    /// Whether the access needs any global action.
    pub fn missed(&self) -> bool {
        matches!(self, StoreOutcome::Miss { .. })
    }
}

/// Outcome of an `AddMap`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddMapOutcome {
    /// The new stash-map entry.
    pub index: MapIndex,
    /// The thread block's map-index-table slot.
    pub slot: usize,
    /// Writebacks of a displaced stash-map entry's dirty data; the paper
    /// blocks the core until these complete (rare).
    pub writebacks: Vec<WritebackWord>,
    /// Virtual pages newly covered by the VP-map (each is a TLB fill).
    pub new_pages: usize,
    /// Whether §4.5 found an identical older mapping.
    pub replicates: bool,
}

/// Outcome of a `ChgMap`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChgMapOutcome {
    /// Writebacks the change requires (remapping away from dirty data, or
    /// a coherent → non-coherent transition).
    pub writebacks: Vec<WritebackWord>,
    /// Words needing registration requests (non-coherent → coherent
    /// transition): `(stash_word, vaddr)` pairs.
    pub registrations: Vec<(usize, VAddr)>,
    /// Virtual pages newly covered by the VP-map.
    pub new_pages: usize,
}

/// The stash: storage + stash-map + map index tables + VP-map.
#[derive(Debug, Clone)]
pub struct Stash {
    cfg: StashConfig,
    storage: StashStorage,
    map: StashMap,
    vp: VpMap,
    /// Per-thread-block map index tables, a dense arena indexed by the
    /// global thread-block id (`None` = no live table). Thread-block ids
    /// are small sequential integers, so this keeps every stash
    /// instruction's table lookup an indexed read with no hashing.
    tables: Vec<Option<MapIndexTable>>,
    /// Stash words whose data is corrupt (fault injection's ground
    /// truth); ordered for deterministic diagnostics.
    corrupt: BTreeSet<usize>,
}

impl Stash {
    /// Creates a stash.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (ragged
    /// chunking, zero sizes).
    pub fn new(cfg: StashConfig) -> Self {
        let storage = StashStorage::new(cfg.capacity_bytes, cfg.chunk_bytes);
        let map = StashMap::new(cfg.map_entries);
        let vp = VpMap::new(cfg.vp_map_entries, cfg.page_bytes);
        Self {
            cfg,
            storage,
            map,
            vp,
            tables: Vec::new(),
            corrupt: BTreeSet::new(),
        }
    }

    /// The configuration this stash was built with.
    pub fn config(&self) -> &StashConfig {
        &self.cfg
    }

    /// Storage capacity in words.
    pub fn words(&self) -> usize {
        self.storage.words()
    }

    /// Direct read-only view of a word's coherence state (diagnostics).
    pub fn word_state(&self, word: usize) -> WordState {
        self.storage.word_state(word)
    }

    /// The stash-map entry at `idx`, if present.
    pub fn map_entry(&self, idx: MapIndex) -> Option<&StashMapEntry> {
        self.map.entry(idx)
    }

    /// VP-map occupancy (for the sizing guarantee tests).
    pub fn vp_occupancy(&self) -> usize {
        self.vp.occupancy()
    }

    /// Resolves thread block `tb`'s map-index-table slot to its current
    /// stash-map index (what the hardware does for every stash
    /// instruction, §4.1.2).
    pub fn resolve_slot(&self, tb: usize, slot: usize) -> Option<MapIndex> {
        self.tables.get(tb)?.as_ref()?.resolve(slot)
    }

    // ------------------------------------------------------------------
    // Fault injection: corrupt-word ground truth
    // ------------------------------------------------------------------
    //
    // No data values are modelled, so a flipped word is membership in a
    // corrupt set: parity-checked loads detect (and correct), stores
    // silently overwrite, writebacks *move* the corruption to the LLC,
    // and the end-of-run scrub sweeps whatever remains.

    /// Marks a stash word's data corrupt (a fault injector flipped it).
    pub fn flip_word(&mut self, word: usize) {
        assert!(word < self.storage.words());
        self.corrupt.insert(word);
    }

    /// Removes and reports corruption on `word` — used both by silently
    /// overwriting stores and by writebacks that carry the corruption
    /// onward to the LLC. Returns `true` if the word was corrupt.
    pub fn take_corrupt(&mut self, word: usize) -> bool {
        self.corrupt.remove(&word)
    }

    /// A parity-checked read of the word: detects (and corrects) any
    /// corruption. Returns `true` if corruption was found.
    pub fn check_parity(&mut self, word: usize) -> bool {
        self.corrupt.remove(&word)
    }

    /// Number of words currently corrupt.
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

    // ------------------------------------------------------------------
    // AddMap / ChgMap (§4.2)
    // ------------------------------------------------------------------

    /// `AddMap`: maps `tile` at `stash_base_word` for thread block `tb`.
    ///
    /// # Errors
    ///
    /// * [`SimError::OutOfRange`] — allocation exceeds stash capacity or
    ///   is not chunk aligned;
    /// * [`SimError::TableFull`] — more than 4 `AddMap`s in this thread
    ///   block, or the VP-map cannot cover the tile's pages;
    /// * [`SimError::InvalidMapping`] — `mode` carries no global mapping.
    pub fn add_map(
        &mut self,
        tb: usize,
        tile: TileMap,
        stash_base_word: usize,
        mode: UsageMode,
    ) -> Result<AddMapOutcome, SimError> {
        if !mode.is_mapped() {
            return Err(SimError::InvalidMapping(format!(
                "mode {mode} does not use AddMap"
            )));
        }
        let words = tile.local_words() as usize;
        if stash_base_word + words > self.storage.words() {
            return Err(SimError::OutOfRange {
                what: "stash allocation",
                offset: stash_base_word + words,
                size: self.storage.words(),
            });
        }
        if !stash_base_word.is_multiple_of(self.storage.words_per_chunk()) {
            return Err(SimError::OutOfRange {
                what: "stash base (chunk alignment)",
                offset: stash_base_word,
                size: self.storage.words_per_chunk(),
            });
        }
        // Reserve the index-table slot first so a full table fails cleanly.
        if tb >= self.tables.len() {
            self.tables.resize_with(tb + 1, || None);
        }
        let table = self.tables[tb]
            .get_or_insert_with(|| MapIndexTable::new(self.cfg.max_maps_per_thread_block));
        if table.len() == self.cfg.max_maps_per_thread_block {
            return Err(SimError::TableFull {
                table: "map index table",
                capacity: self.cfg.max_maps_per_thread_block,
            });
        }

        let (index, displaced) = self.map.push(tile, stash_base_word, mode)?;
        // Write back and detach everything the displaced entry still owned
        // (the paper blocks the core on these writebacks).
        let mut writebacks = Vec::new();
        if let Some(old) = displaced {
            writebacks = self.reclaim_entry_chunks(index, &old);
        }
        // "[AddMap] invalidates any entries from the VP-map that have the
        // new stash-map tail as the back pointer."
        self.vp_release(index);

        let slot = self.tables[tb]
            .as_mut()
            .expect("table created above")
            .allocate(index)?;

        let replicates = self.cfg.replication_enabled
            && self
                .map
                .entry(index)
                .expect("just pushed")
                .reuse_of
                .is_some();
        if !self.cfg.replication_enabled {
            self.map.entry_mut(index).expect("just pushed").reuse_of = None;
        }

        let (new_pages, spill_writebacks) = self.cover_pages(index, &tile)?;
        writebacks.extend(spill_writebacks);
        Ok(AddMapOutcome {
            index,
            slot,
            writebacks,
            new_pages,
            replicates,
        })
    }

    /// `ChgMap`: changes the mapping or mode of the entry behind `slot` of
    /// thread block `tb`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidMapping`] for an unknown slot and the
    /// same range/table errors as [`Stash::add_map`].
    pub fn chg_map(
        &mut self,
        tb: usize,
        slot: usize,
        new_tile: TileMap,
        new_mode: UsageMode,
    ) -> Result<ChgMapOutcome, SimError> {
        if !new_mode.is_mapped() {
            return Err(SimError::InvalidMapping(format!(
                "mode {new_mode} does not use ChgMap"
            )));
        }
        let index = self
            .tables
            .get(tb)
            .and_then(|t| t.as_ref()?.resolve(slot))
            .ok_or_else(|| {
                SimError::InvalidMapping(format!("thread block {tb} has no map slot {slot}"))
            })?;
        let entry = self
            .map
            .entry(index)
            .filter(|e| e.valid)
            .ok_or_else(|| SimError::InvalidMapping(format!("{index} is not valid")))?
            .clone();

        let words = new_tile.local_words() as usize;
        if entry.stash_base_word + words > self.storage.words() {
            return Err(SimError::OutOfRange {
                what: "stash allocation",
                offset: entry.stash_base_word + words,
                size: self.storage.words(),
            });
        }

        let mut out = ChgMapOutcome {
            writebacks: Vec::new(),
            registrations: Vec::new(),
            new_pages: 0,
        };

        if !entry.tile.same_mapping(&new_tile) {
            // New set of global addresses: write back the old mapping's
            // dirty data (if coherent) and invalidate the remapped range.
            if entry.mode.is_coherent() {
                out.writebacks = self.reclaim_entry_chunks(index, &entry);
            } else {
                self.drop_entry_chunks(index, &entry);
            }
            self.vp_release(index);
            let e = self.map.entry_mut(index).expect("resolved above");
            e.tile = new_tile;
            e.mode = new_mode;
            e.dirty_chunks = 0;
            let (new_pages, spill) = self.cover_pages(index, &new_tile)?;
            out.new_pages = new_pages;
            out.writebacks.extend(spill);
            return Ok(out);
        }

        // Same addresses, mode change only.
        match (entry.mode.is_coherent(), new_mode.is_coherent()) {
            (true, false) => {
                // The old mapping's stores are globally visible: flush them.
                out.writebacks = self.flush_entry_dirty(index, &entry, WordState::Shared);
            }
            (false, true) => {
                // Locally dirty words must now be registered globally.
                for chunk in self.chunks_owned_by(index) {
                    for w in self.storage.registered_words_in_chunk(chunk) {
                        let local_off = (w - entry.stash_base_word) as u64 * WORD_BYTES;
                        out.registrations
                            .push((w, entry.tile.virt_of_local_offset(local_off)));
                    }
                    let meta = self.storage.chunk_meta_mut(chunk);
                    if !meta.dirty {
                        meta.dirty = true;
                        self.map.entry_mut(index).expect("valid").dirty_chunks += 1;
                    }
                }
            }
            _ => {}
        }
        self.map.entry_mut(index).expect("valid").mode = new_mode;
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Loads and stores (§4.2)
    // ------------------------------------------------------------------

    /// A stash load of `word` under mapping `map`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidMapping`] if `map` is not a valid entry
    /// containing `word`.
    pub fn load(&mut self, word: usize, map: MapIndex) -> Result<LoadOutcome, SimError> {
        let entry = self.checked_entry(word, map)?.clone();
        let writebacks = self.prepare_chunk(word, map);
        if self.storage.word_state(word).load_hits() {
            debug_assert!(writebacks.is_empty(), "a hit cannot reclaim a chunk");
            return Ok(LoadOutcome::Hit);
        }
        // §4.5: on a load miss with the reuse bit set, check the old
        // mapping's stash location first.
        if let Some(old_idx) = entry.reuse_of.filter(|_| self.cfg.replication_enabled) {
            if let Some(old) = self.map.entry(old_idx) {
                let local_word = word - entry.stash_base_word;
                let from = old.stash_base_word + local_word;
                if from != word
                    && from < self.storage.words()
                    && self.storage.chunk_meta(self.storage.chunk_of(from)).owner == Some(old_idx)
                    && self.storage.word_state(from).load_hits()
                {
                    self.storage.set_word_state(word, WordState::Shared);
                    let chunk = self.storage.chunk_of(word);
                    self.storage.assign_chunk(chunk, map);
                    return Ok(LoadOutcome::ReplicaHit {
                        from_word: from,
                        writebacks,
                    });
                }
            }
        }
        let local_off = (word - entry.stash_base_word) as u64 * WORD_BYTES;
        Ok(LoadOutcome::Miss {
            vaddr: entry.tile.virt_of_local_offset(local_off),
            writebacks,
        })
    }

    /// Completes a load miss after the orchestrator fetched the word.
    pub fn complete_load_fill(&mut self, word: usize) {
        self.storage.set_word_state(word, WordState::Shared);
    }

    /// §8 "flexible communication granularity": the Invalid neighbours of
    /// `word` within the same chunk and mapping, with their global
    /// addresses — candidates for widening a miss fetch to up to
    /// `max_words` total. The chunk has already been prepared by the
    /// triggering access, so the candidates are safe to fill.
    pub fn prefetch_candidates(
        &self,
        word: usize,
        map: MapIndex,
        max_words: usize,
    ) -> Vec<(usize, VAddr)> {
        let Some(entry) = self.map.entry(map).filter(|e| e.valid) else {
            return Vec::new();
        };
        let chunk = self.storage.chunk_of(word);
        if self.storage.chunk_meta(chunk).owner != Some(map) {
            return Vec::new();
        }
        self.storage
            .chunk_words(chunk)
            .filter(|&w| w != word)
            .filter(|&w| entry.contains_word(w))
            .filter(|&w| self.storage.word_state(w) == WordState::Invalid)
            .take(max_words.saturating_sub(1))
            .map(|w| {
                let off = (w - entry.stash_base_word) as u64 * WORD_BYTES;
                (w, entry.tile.virt_of_local_offset(off))
            })
            .collect()
    }

    /// Every word of a valid mapping that is currently Invalid, with its
    /// global address — what an `AddMap`-time prefetch (§8) would fetch.
    pub fn unfetched_words(&self, map: MapIndex) -> Vec<(usize, VAddr)> {
        let Some(entry) = self.map.entry(map).filter(|e| e.valid) else {
            return Vec::new();
        };
        (entry.stash_base_word..entry.stash_end_word())
            .filter(|&w| self.storage.word_state(w) == WordState::Invalid)
            .map(|w| {
                let off = (w - entry.stash_base_word) as u64 * WORD_BYTES;
                (w, entry.tile.virt_of_local_offset(off))
            })
            .collect()
    }

    /// Assigns every chunk of a mapping to it (prefetch fills bypass the
    /// per-access `prepare_chunk` path, so ownership is claimed up
    /// front; triggers the same reclamation writebacks).
    pub fn claim_chunks(&mut self, map: MapIndex) -> Vec<WritebackWord> {
        let Some(entry) = self.map.entry(map).filter(|e| e.valid) else {
            return Vec::new();
        };
        let range = entry.stash_base_word..entry.stash_end_word();
        let mut writebacks = Vec::new();
        for w in range.step_by(self.storage.words_per_chunk()) {
            writebacks.extend(self.prepare_chunk(w, map));
        }
        writebacks
    }

    /// A stash store to `word` under mapping `map`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidMapping`] if `map` is not a valid entry
    /// containing `word`.
    pub fn store(&mut self, word: usize, map: MapIndex) -> Result<StoreOutcome, SimError> {
        let entry = self.checked_entry(word, map)?.clone();
        let writebacks = self.prepare_chunk(word, map);
        if self.storage.word_state(word).store_hits() {
            debug_assert!(writebacks.is_empty(), "a hit cannot reclaim a chunk");
            self.note_store(word, map);
            return Ok(StoreOutcome::Hit);
        }
        let local_off = (word - entry.stash_base_word) as u64 * WORD_BYTES;
        Ok(StoreOutcome::Miss {
            vaddr: entry.tile.virt_of_local_offset(local_off),
            writebacks,
            needs_registration: entry.mode.is_coherent(),
        })
    }

    /// Completes a store miss after any registration was obtained.
    pub fn complete_store_fill(&mut self, word: usize, map: MapIndex) {
        self.storage.set_word_state(word, WordState::Registered);
        self.note_store(word, map);
    }

    fn note_store(&mut self, word: usize, map: MapIndex) {
        self.storage.set_word_state(word, WordState::Registered);
        let coherent = self
            .map
            .entry(map)
            .map(|e| e.mode.is_coherent())
            .unwrap_or(false);
        if coherent {
            if self.storage.mark_store(word, map) {
                if let Some(e) = self.map.entry_mut(map) {
                    e.dirty_chunks += 1;
                }
            }
        } else {
            let chunk = self.storage.chunk_of(word);
            self.storage.assign_chunk(chunk, map);
        }
    }

    // ------------------------------------------------------------------
    // Kernel / thread-block lifecycle
    // ------------------------------------------------------------------

    /// Thread block `tb` completed: seal its dirty chunks for lazy
    /// writeback, deactivate its entries, and invalidate entries whose
    /// `#DirtyData` is zero. Frees the block's map index table.
    pub fn end_thread_block(&mut self, tb: usize) {
        let Some(table) = self.tables.get_mut(tb).and_then(Option::take) else {
            return;
        };
        for &idx in table.indices() {
            self.storage.seal_dirty_chunks(idx);
            if let Some(e) = self.map.entry_mut(idx) {
                e.active = false;
                if e.dirty_chunks == 0 {
                    e.valid = false;
                }
            }
            if self.map.entry(idx).map(|e| !e.valid).unwrap_or(false) {
                self.vp_release(idx);
            }
        }
    }

    /// Kernel boundary: self-invalidate Shared words (Registered data is
    /// kept — the source of cross-kernel reuse) and drop any remaining
    /// thread-block tables.
    pub fn end_kernel(&mut self) {
        // Ascending thread-block order (the arena index) keeps this
        // deterministic regardless of allocation history.
        for tb in 0..self.tables.len() {
            if self.tables[tb].is_some() {
                self.end_thread_block(tb);
            }
        }
        self.storage.self_invalidate();
    }

    // ------------------------------------------------------------------
    // Remote requests (§4.3)
    // ------------------------------------------------------------------

    /// A remote request arrives with a physical address: reverse-translate
    /// through the VP-map and locate the stash word. Returns the word if
    /// this stash holds a valid copy.
    pub fn remote_request(&self, pa: PAddr) -> Option<usize> {
        let va = self.vp.reverse(pa)?;
        self.find_word_for_vaddr(va)
            .filter(|&w| self.storage.word_state(w).load_hits())
    }

    /// Another core took registration of the word at `pa`: surrender our
    /// copy (Invalid). Returns the word if we held it.
    pub fn surrender_word(&mut self, pa: PAddr) -> Option<usize> {
        let va = self.vp.reverse(pa)?;
        let w = self.find_word_for_vaddr(va)?;
        self.storage.set_word_state(w, WordState::Invalid);
        Some(w)
    }

    /// Records a virtual→physical translation learned at a miss, so later
    /// remote requests can reverse it (§4.1.4).
    pub fn note_translation(&mut self, va: VAddr, pa: PAddr) {
        self.vp
            .fill_translation(va.page(self.cfg.page_bytes), pa.frame(self.cfg.page_bytes));
    }

    /// Forward-translates through the VP-map TLB (used by writebacks).
    pub fn translate(&self, va: VAddr) -> Option<PAddr> {
        self.vp.translate(va)
    }

    /// All dirty (Registered, pending-writeback) words with their virtual
    /// addresses — the data a teardown or drain would flush.
    pub fn pending_writebacks(&self) -> Vec<WritebackWord> {
        let mut out = Vec::new();
        for chunk in 0..self.storage.chunk_count() {
            let meta = self.storage.chunk_meta(chunk);
            if !(meta.writeback_pending || meta.dirty) {
                continue;
            }
            let Some(idx) = meta.owner else { continue };
            let Some(entry) = self.map.entry(idx) else {
                continue;
            };
            for w in self.storage.registered_words_in_chunk(chunk) {
                let local_off = (w - entry.stash_base_word) as u64 * WORD_BYTES;
                out.push(WritebackWord {
                    stash_word: w,
                    vaddr: entry.tile.virt_of_local_offset(local_off),
                });
            }
        }
        out
    }

    /// Drains every pending writeback (explicit flush; used by drains and
    /// the eager-writeback ablation). State changes are applied; the
    /// returned words must be sent by the caller.
    pub fn drain_writebacks(&mut self) -> Vec<WritebackWord> {
        let out = self.pending_writebacks();
        for chunk in 0..self.storage.chunk_count() {
            let meta = self.storage.chunk_meta(chunk);
            if meta.writeback_pending || meta.dirty {
                if let Some(idx) = meta.owner {
                    self.storage
                        .complete_chunk_writeback(chunk, WordState::Shared);
                    self.decrement_dirty(idx);
                }
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    /// Serializes every component's state: storage, the stash-map, the
    /// VP-map, live map index tables, and the corrupt-word ground truth.
    /// The [`StashConfig`] is not saved: it is a translation of the
    /// system configuration, which builds the stash a snapshot is
    /// restored into.
    pub fn save(&self, w: &mut sim::snapshot::Writer) {
        self.storage.save(w);
        self.map.save(w);
        self.vp.save(w);
        w.put_usize(self.tables.len());
        for table in &self.tables {
            match table {
                None => w.put_u8(0),
                Some(t) => {
                    w.put_u8(1);
                    t.save(w);
                }
            }
        }
        w.put_usize(self.corrupt.len());
        for &word in &self.corrupt {
            w.put_usize(word);
        }
    }

    /// Reads state written by [`Stash::save`] into this stash, built with
    /// the saved stash's configuration.
    pub fn restore(&mut self, r: &mut sim::snapshot::Reader<'_>) -> Result<(), SimError> {
        let corrupt_err = |detail: String| SimError::CheckpointCorrupt {
            what: "stash",
            detail,
        };
        self.storage.restore(r)?;
        self.map.restore(r)?;
        for i in 0..self.cfg.map_entries {
            let Some(e) = self.map.entry(MapIndex(i as u8)) else {
                continue;
            };
            // `add_map` and `chg_map` keep every mapping inside the storage.
            let end = e.stash_base_word.checked_add(e.tile.local_words() as usize);
            if end.is_none_or(|end| end > self.storage.words()) {
                return Err(corrupt_err(format!(
                    "map entry {i} at word {} runs past {} words of storage",
                    e.stash_base_word,
                    self.storage.words()
                )));
            }
        }
        self.vp.restore(r)?;
        let table_count = r.take_usize()?;
        // Every table slot reads at least one byte: bound the reservation
        // by the payload.
        let mut tables = Vec::with_capacity(table_count.min(r.remaining()));
        for _ in 0..table_count {
            tables.push(match r.take_u8()? {
                0 => None,
                1 => {
                    let mut t = MapIndexTable::new(self.cfg.max_maps_per_thread_block);
                    t.restore(r)?;
                    Some(t)
                }
                v => return Err(corrupt_err(format!("unknown table slot code {v}"))),
            });
        }
        self.tables = tables;
        let n = r.take_usize()?;
        for _ in 0..n {
            let word = r.take_usize()?;
            if word >= self.storage.words() {
                return Err(corrupt_err(format!(
                    "corrupt word {word} outside {} words of storage",
                    self.storage.words()
                )));
            }
            self.corrupt.insert(word);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn checked_entry(&self, word: usize, map: MapIndex) -> Result<&StashMapEntry, SimError> {
        self.map
            .entry(map)
            .filter(|e| e.valid && e.contains_word(word))
            .ok_or_else(|| {
                SimError::InvalidMapping(format!("{map} does not validly map stash word {word}"))
            })
    }

    /// Chunk-reclamation check run on every access (§4.2): if the chunk
    /// belongs to an older mapping, either *adopt* it (identical mapping at
    /// the same allocation — the cross-kernel reuse path) or write back its
    /// pending dirty words and reassign it.
    fn prepare_chunk(&mut self, word: usize, current: MapIndex) -> Vec<WritebackWord> {
        let chunk = self.storage.chunk_of(word);
        let meta = self.storage.chunk_meta(chunk);
        let owner = match meta.owner {
            None => {
                self.storage.assign_chunk(chunk, current);
                return Vec::new();
            }
            Some(o) if o == current => return Vec::new(),
            Some(o) => o,
        };

        let adoptable = self.cfg.replication_enabled
            && self
                .map
                .entry(current)
                .is_some_and(|cur| cur.reuse_of == Some(owner))
            && self.map.entry(owner).is_some_and(|old| {
                self.map
                    .entry(current)
                    .is_some_and(|cur| cur.stash_base_word == old.stash_base_word)
            });

        if adoptable {
            let was_counted = meta.dirty || meta.writeback_pending;
            let m = self.storage.chunk_meta_mut(chunk);
            m.owner = Some(current);
            if was_counted {
                // The dirty data now belongs to the new entry.
                m.dirty = true;
                m.writeback_pending = false;
                if let Some(e) = self.map.entry_mut(current) {
                    e.dirty_chunks += 1;
                }
                self.decrement_dirty(owner);
            }
            return Vec::new();
        }

        // Reclaim: write back the old mapping's dirty words, invalidate.
        let mut writebacks = Vec::new();
        let was_counted = meta.dirty || meta.writeback_pending;
        if was_counted {
            if let Some(old) = self.map.entry(owner) {
                for w in self.storage.registered_words_in_chunk(chunk) {
                    let local_off = (w - old.stash_base_word) as u64 * WORD_BYTES;
                    writebacks.push(WritebackWord {
                        stash_word: w,
                        vaddr: old.tile.virt_of_local_offset(local_off),
                    });
                }
            }
        }
        self.storage.invalidate_chunk(chunk);
        self.storage.assign_chunk(chunk, current);
        if was_counted {
            self.decrement_dirty(owner);
        }
        writebacks
    }

    /// Releases a retired entry's VP-map translations, re-homing each page
    /// that other valid mappings still need to the highest-slot one (see
    /// `VpMap::release`). The page → entry map is built only when the
    /// VP-map first asks for a page: half or more of the releases in the
    /// applications name an entry that no page points at.
    fn vp_release(&mut self, removed: MapIndex) {
        let (map, page_bytes) = (&self.map, self.cfg.page_bytes);
        let mut needs: Option<HashMap<u64, MapIndex>> = None;
        self.vp.release(removed, |page| {
            let needs = needs.get_or_insert_with(|| {
                let mut needs = HashMap::new();
                for (i, e) in map.iter_valid().filter(|&(i, _)| i != removed) {
                    for p in e.tile.pages_touched(page_bytes) {
                        needs.insert(p, i);
                    }
                }
                needs
            });
            needs.get(&page).copied()
        });
    }

    fn decrement_dirty(&mut self, idx: MapIndex) {
        let mut became_invalid = false;
        if let Some(e) = self.map.entry_mut(idx) {
            e.dirty_chunks = e.dirty_chunks.saturating_sub(1);
            if e.dirty_chunks == 0 && !e.active {
                e.valid = false;
                became_invalid = true;
            }
        }
        if became_invalid {
            self.vp_release(idx);
        }
    }

    /// Writes back and detaches *every* chunk a (displaced) entry owns.
    fn reclaim_entry_chunks(&mut self, _new: MapIndex, old: &StashMapEntry) -> Vec<WritebackWord> {
        let mut writebacks = Vec::new();
        for chunk in 0..self.storage.chunk_count() {
            let meta = self.storage.chunk_meta(chunk);
            // The displaced entry's index equals the new one (same slot);
            // identify its chunks by range instead.
            let in_range = old.contains_word(self.storage.chunk_words(chunk).start);
            if !in_range || meta.owner.is_none() {
                continue;
            }
            if meta.dirty || meta.writeback_pending {
                for w in self.storage.registered_words_in_chunk(chunk) {
                    if !old.contains_word(w) {
                        continue;
                    }
                    let local_off = (w - old.stash_base_word) as u64 * WORD_BYTES;
                    writebacks.push(WritebackWord {
                        stash_word: w,
                        vaddr: old.tile.virt_of_local_offset(local_off),
                    });
                }
            }
            self.storage.invalidate_chunk(chunk);
        }
        writebacks
    }

    /// Invalidates an entry's chunks without writebacks (non-coherent
    /// remap).
    fn drop_entry_chunks(&mut self, idx: MapIndex, old: &StashMapEntry) {
        for chunk in 0..self.storage.chunk_count() {
            let in_range = old.contains_word(self.storage.chunk_words(chunk).start);
            if in_range && self.storage.chunk_meta(chunk).owner == Some(idx) {
                self.storage.invalidate_chunk(chunk);
            }
        }
    }

    /// Flushes an entry's dirty chunks (writebacks) but keeps the data
    /// readable (coherent → non-coherent `ChgMap`).
    fn flush_entry_dirty(
        &mut self,
        idx: MapIndex,
        entry: &StashMapEntry,
        after: WordState,
    ) -> Vec<WritebackWord> {
        let mut writebacks = Vec::new();
        for chunk in self.chunks_owned_by(idx) {
            let meta = self.storage.chunk_meta(chunk);
            if !(meta.dirty || meta.writeback_pending) {
                continue;
            }
            for w in self.storage.registered_words_in_chunk(chunk) {
                let local_off = (w - entry.stash_base_word) as u64 * WORD_BYTES;
                writebacks.push(WritebackWord {
                    stash_word: w,
                    vaddr: entry.tile.virt_of_local_offset(local_off),
                });
            }
            self.storage.complete_chunk_writeback(chunk, after);
            self.decrement_dirty(idx);
        }
        writebacks
    }

    fn chunks_owned_by(&self, idx: MapIndex) -> Vec<usize> {
        (0..self.storage.chunk_count())
            .filter(|&c| self.storage.chunk_meta(c).owner == Some(idx))
            .collect()
    }

    /// Covers a tile's pages in the VP-map. When the VP-map fills, §4.2's
    /// spill path runs: evict (flush + invalidate) the oldest inactive
    /// stash-map entries until their translations free enough space.
    fn cover_pages(
        &mut self,
        idx: MapIndex,
        tile: &TileMap,
    ) -> Result<(usize, Vec<WritebackWord>), SimError> {
        let mut new_pages = 0;
        let mut writebacks = Vec::new();
        for page in tile.pages_touched(self.cfg.page_bytes) {
            if !self.vp.covers_page(page) {
                new_pages += 1;
            }
            loop {
                match self.vp.add_page(idx, page, None) {
                    Ok(()) => break,
                    Err(full) => match self.evict_entry_for_vp(idx) {
                        Some(wbs) => writebacks.extend(wbs),
                        None => return Err(full),
                    },
                }
            }
        }
        Ok((new_pages, writebacks))
    }

    /// Evicts the oldest inactive valid stash-map entry (other than
    /// `protect`) to reclaim VP-map space: its dirty chunks are flushed,
    /// its chunks detached, and its translations removed. Returns `None`
    /// when every other valid entry is still active (a genuine overflow).
    fn evict_entry_for_vp(&mut self, protect: MapIndex) -> Option<Vec<WritebackWord>> {
        let before = self.vp.occupancy();
        // Oldest-first: FIFO order means lower distance from the tail.
        let victim = self
            .map
            .iter_valid()
            .filter(|(i, e)| *i != protect && !e.active)
            .map(|(i, _)| i)
            .next()?;
        let entry = self.map.entry(victim)?.clone();
        let writebacks = self.flush_entry_dirty(victim, &entry, WordState::Invalid);
        for chunk in self.chunks_owned_by(victim) {
            self.storage.invalidate_chunk(chunk);
        }
        self.map.invalidate(victim);
        self.vp_release(victim);
        if self.vp.occupancy() == before {
            // This victim pinned no pages; recurse onto the next one so
            // the caller's retry loop always makes progress.
            let mut more = self.evict_entry_for_vp(protect)?;
            let mut all = writebacks;
            all.append(&mut more);
            return Some(all);
        }
        Some(writebacks)
    }

    /// The stash word holding `va`, if any mapping covers it. When two
    /// mappings hold copies of the same address (an older entry's
    /// Registered copy awaiting lazy writeback plus a fresh replica), the
    /// Registered copy wins: remote requests and surrenders must act on
    /// the authoritative word, not a Shared replica.
    fn find_word_for_vaddr(&self, va: VAddr) -> Option<usize> {
        let mut fallback = None;
        for (idx, entry) in self.map.iter_valid() {
            if let Some(local_off) = entry.tile.local_offset_of_virt(va) {
                let word = entry.stash_base_word + (local_off / WORD_BYTES) as usize;
                if self.storage.chunk_meta(self.storage.chunk_of(word)).owner == Some(idx) {
                    if self.storage.word_state(word) == WordState::Registered {
                        return Some(word);
                    }
                    fallback.get_or_insert(word);
                }
            }
        }
        fallback
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_geometry_helpers() {
        let cfg = StashConfig::default();
        assert_eq!(cfg.capacity_words(), 4096);
        assert_eq!(cfg.chunk_words(), 16);
        assert_eq!(cfg.chunk_rounded(0), 0);
        assert_eq!(cfg.chunk_rounded(1), 16);
        assert_eq!(cfg.chunk_rounded(16), 16);
        assert_eq!(cfg.chunk_rounded(17), 32);
    }

    fn tile(base: u64, elems: u64) -> TileMap {
        // One 4-byte field of a 16-byte object, linear array.
        TileMap::new(VAddr(base), 4, 16, elems, 0, 1).unwrap()
    }

    fn stash() -> Stash {
        Stash::new(StashConfig::default())
    }

    #[test]
    fn stash_round_trips_through_snapshot() {
        let mut s = stash();
        let m = s
            .add_map(0, tile(0x1000, 64), 0, UsageMode::MappedCoherent)
            .unwrap();
        s.complete_load_fill(0);
        assert!(s.store(1, m.index).unwrap().missed());
        s.complete_store_fill(1, m.index);
        s.flip_word(1);
        let m2 = s
            .add_map(1, tile(0x9000, 32), 64, UsageMode::MappedNonCoherent)
            .unwrap();
        let mut w = sim::snapshot::Writer::new();
        s.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = sim::snapshot::Reader::new(&bytes, "stash");
        let mut restored = stash();
        restored.restore(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.corrupt_word_count(), 1);
        assert_eq!(restored.word_state(0), s.word_state(0));
        assert_eq!(restored.word_state(1), WordState::Registered);
        assert_eq!(restored.map_entry(m.index), s.map_entry(m.index));
        assert_eq!(restored.map_entry(m2.index), s.map_entry(m2.index));
        assert_eq!(restored.resolve_slot(0, m.slot), Some(m.index));
        assert_eq!(restored.resolve_slot(1, m2.slot), Some(m2.index));
        assert_eq!(restored.vp_occupancy(), s.vp_occupancy());
        assert_eq!(restored.pending_writebacks(), s.pending_writebacks());
        // Behaviour resumes identically: the same load on both sides.
        assert_eq!(
            s.load(2, m.index).unwrap(),
            restored.load(2, m.index).unwrap()
        );
    }

    #[test]
    fn stash_restore_rejects_out_of_range_corrupt_word() {
        let mut s = stash();
        s.flip_word(10);
        let mut w = sim::snapshot::Writer::new();
        s.save(&mut w);
        let mut bytes = w.into_bytes();
        // The corrupt-word list is the last thing serialized: count then
        // the word. Patch the word to an out-of-range value.
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut r = sim::snapshot::Reader::new(&bytes, "stash");
        assert!(matches!(
            stash().restore(&mut r),
            Err(SimError::CheckpointCorrupt { .. })
        ));
    }

    #[test]
    fn stash_restore_rejects_a_map_entry_past_the_storage() {
        let mut s = stash();
        let m = s
            .add_map(0, tile(0x1000, 64), 0, UsageMode::MappedCoherent)
            .unwrap();
        let mut w = sim::snapshot::Writer::new();
        s.save(&mut w);
        let mut bytes = w.into_bytes();
        // The first map slot's base word follows the storage, the map's
        // tail, the slot's code and its tile.
        let mut prefix = sim::snapshot::Writer::new();
        s.storage.save(&mut prefix);
        prefix.put_usize(0);
        prefix.put_u8(1);
        s.map_entry(m.index).unwrap().tile.save(&mut prefix);
        let off = prefix.into_bytes().len();
        assert_eq!(bytes[off..off + 8], 0u64.to_le_bytes());
        for base in [s.storage.words() - 32, usize::MAX] {
            bytes[off..off + 8].copy_from_slice(&(base as u64).to_le_bytes());
            let mut r = sim::snapshot::Reader::new(&bytes, "stash");
            assert!(
                matches!(
                    stash().restore(&mut r),
                    Err(SimError::CheckpointCorrupt { .. })
                ),
                "base word {base}"
            );
        }
    }

    #[test]
    fn release_re_homes_pages_to_the_highest_slot_user() {
        let mut s = stash();
        let mut map = |tb, base, elems, word| {
            s.add_map(tb, tile(base, elems), word, UsageMode::MappedCoherent)
                .unwrap()
                .index
        };
        let a = map(0, 0x10_000, 64, 0); // page 0x10
        let b = map(1, 0x10_800, 256, 64); // pages 0x10-0x11
        let c = map(2, 0x10_c00, 512, 320); // pages 0x10-0x12
        assert!(a < b && b < c);
        for page in 0x10..=0x12 {
            assert_eq!(s.vp.back_pointer(page), Some(c));
        }
        // c retires clean: each of its pages goes to the highest-slot
        // valid entry that still touches it (b, not a), and the page only
        // c touched is freed.
        s.end_thread_block(2);
        assert_eq!(s.vp.back_pointer(0x10), Some(b));
        assert_eq!(s.vp.back_pointer(0x11), Some(b));
        assert_eq!(s.vp.back_pointer(0x12), None);
        // No page points at a, so its release leaves the VP-map as it was.
        let before = s.vp.clone();
        s.end_thread_block(0);
        assert!(s.map_entry(a).is_some_and(|e| !e.valid));
        assert_eq!(s.vp, before);
    }

    #[test]
    fn first_load_misses_then_hits() {
        let mut s = stash();
        let m = s
            .add_map(0, tile(0x1000, 64), 0, UsageMode::MappedCoherent)
            .unwrap();
        match s.load(0, m.index).unwrap() {
            LoadOutcome::Miss { vaddr, writebacks } => {
                assert_eq!(vaddr, VAddr(0x1000));
                assert!(writebacks.is_empty());
            }
            other => panic!("expected miss, got {other:?}"),
        }
        s.complete_load_fill(0);
        assert_eq!(s.load(0, m.index).unwrap(), LoadOutcome::Hit);
        // Element 5 misses independently (word granularity).
        assert!(s.load(5, m.index).unwrap().missed());
    }

    #[test]
    fn miss_translation_follows_the_tile() {
        let mut s = stash();
        let m = s
            .add_map(0, tile(0x1000, 64), 0, UsageMode::MappedCoherent)
            .unwrap();
        match s.load(7, m.index).unwrap() {
            LoadOutcome::Miss { vaddr, .. } => assert_eq!(vaddr, VAddr(0x1000 + 7 * 16)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn store_registers_then_hits() {
        let mut s = stash();
        let m = s
            .add_map(0, tile(0x1000, 64), 0, UsageMode::MappedCoherent)
            .unwrap();
        match s.store(3, m.index).unwrap() {
            StoreOutcome::Miss {
                vaddr,
                needs_registration,
                ..
            } => {
                assert_eq!(vaddr, VAddr(0x1000 + 3 * 16));
                assert!(needs_registration);
            }
            other => panic!("{other:?}"),
        }
        s.complete_store_fill(3, m.index);
        assert_eq!(s.store(3, m.index).unwrap(), StoreOutcome::Hit);
        assert_eq!(s.word_state(3), WordState::Registered);
        assert_eq!(s.map_entry(m.index).unwrap().dirty_chunks, 1);
    }

    #[test]
    fn non_coherent_store_needs_no_registration() {
        let mut s = stash();
        let m = s
            .add_map(0, tile(0x1000, 64), 0, UsageMode::MappedNonCoherent)
            .unwrap();
        match s.store(0, m.index).unwrap() {
            StoreOutcome::Miss {
                needs_registration, ..
            } => assert!(!needs_registration),
            other => panic!("{other:?}"),
        }
        s.complete_store_fill(0, m.index);
        // Non-coherent dirty data never enters the writeback pipeline.
        s.end_thread_block(0);
        assert!(s.pending_writebacks().is_empty());
    }

    #[test]
    fn registered_data_survives_kernel_end_for_reuse() {
        let mut s = stash();
        let m = s
            .add_map(0, tile(0x1000, 64), 0, UsageMode::MappedCoherent)
            .unwrap();
        s.complete_load_fill(1); // Shared
        s.complete_store_fill(0, m.index); // Registered
        s.end_kernel();
        assert_eq!(s.word_state(0), WordState::Registered);
        assert_eq!(s.word_state(1), WordState::Invalid);
        // The entry stays valid: its dirty chunk has not been written back.
        assert!(s.map_entry(m.index).unwrap().valid);
        assert!(!s.map_entry(m.index).unwrap().active);
    }

    #[test]
    fn cross_kernel_adoption_hits_without_traffic() {
        let mut s = stash();
        let t = tile(0x1000, 64);
        let m1 = s.add_map(0, t, 0, UsageMode::MappedCoherent).unwrap();
        s.complete_store_fill(0, m1.index);
        s.end_kernel();

        // Kernel 2 maps the same tile at the same allocation.
        let m2 = s.add_map(0, t, 0, UsageMode::MappedCoherent).unwrap();
        assert!(m2.replicates);
        // The store hits: the chunk is adopted, no writeback, no miss.
        assert_eq!(s.store(0, m2.index).unwrap(), StoreOutcome::Hit);
        assert!(s.pending_writebacks().iter().all(|w| w.stash_word == 0));
        // Old entry's dirty accounting moved to the new entry.
        assert!(!s.map_entry(m1.index).unwrap().valid);
        assert_eq!(s.map_entry(m2.index).unwrap().dirty_chunks, 1);
    }

    #[test]
    fn replica_load_copies_between_allocations() {
        let mut s = stash();
        let t = tile(0x1000, 16);
        let m1 = s.add_map(0, t, 0, UsageMode::MappedCoherent).unwrap();
        assert!(s.load(2, m1.index).unwrap().missed());
        s.complete_load_fill(2);
        // A second thread block maps the same tile at a different base.
        let m2 = s.add_map(1, t, 64, UsageMode::MappedCoherent).unwrap();
        assert!(m2.replicates);
        match s.load(64 + 2, m2.index).unwrap() {
            LoadOutcome::ReplicaHit {
                from_word,
                writebacks,
            } => {
                assert_eq!(from_word, 2);
                assert!(writebacks.is_empty());
            }
            other => panic!("expected replica hit, got {other:?}"),
        }
        // A word the old mapping never loaded still misses.
        assert!(s.load(64 + 3, m2.index).unwrap().missed());
        drop(m1);
    }

    #[test]
    fn replica_hit_carries_displaced_writebacks() {
        let mut s = stash();
        // An older block's dirty, sealed data occupies the chunk the
        // replica will land in.
        let old = s
            .add_map(0, tile(0x8000, 16), 64, UsageMode::MappedCoherent)
            .unwrap();
        assert!(s.store(66, old.index).unwrap().missed());
        s.complete_store_fill(66, old.index);
        s.end_thread_block(0);
        // A live mapping holds the word the replica copies from.
        let src = s
            .add_map(1, tile(0x1000, 16), 0, UsageMode::MappedCoherent)
            .unwrap();
        assert!(s.load(2, src.index).unwrap().missed());
        s.complete_load_fill(2);
        // The same tile mapped again over the sealed chunk: the replica
        // hit must surface the displaced dirty word, not drop it — a
        // dropped writeback leaves its LLC registration stale forever.
        let m2 = s
            .add_map(2, tile(0x1000, 16), 64, UsageMode::MappedCoherent)
            .unwrap();
        assert!(m2.replicates);
        match s.load(66, m2.index).unwrap() {
            LoadOutcome::ReplicaHit {
                from_word,
                writebacks,
            } => {
                assert_eq!(from_word, 2);
                assert_eq!(
                    writebacks,
                    vec![WritebackWord {
                        stash_word: 66,
                        vaddr: VAddr(0x8020),
                    }]
                );
            }
            other => panic!("expected replica hit, got {other:?}"),
        }
    }

    #[test]
    fn replication_disabled_turns_replica_hits_into_misses() {
        let mut s = Stash::new(StashConfig {
            replication_enabled: false,
            ..StashConfig::default()
        });
        let t = tile(0x1000, 16);
        let m1 = s.add_map(0, t, 0, UsageMode::MappedCoherent).unwrap();
        assert!(s.load(2, m1.index).unwrap().missed());
        s.complete_load_fill(2);
        let m2 = s.add_map(1, t, 64, UsageMode::MappedCoherent).unwrap();
        assert!(!m2.replicates);
        assert!(s.load(64 + 2, m2.index).unwrap().missed());
    }

    #[test]
    fn lazy_writeback_triggers_on_space_reuse() {
        let mut s = stash();
        let m1 = s
            .add_map(0, tile(0x1000, 16), 0, UsageMode::MappedCoherent)
            .unwrap();
        s.complete_store_fill(0, m1.index);
        s.complete_store_fill(1, m1.index);
        s.end_thread_block(0);

        // A different mapping reclaims the same stash space.
        let m2 = s
            .add_map(1, tile(0x9000, 16), 0, UsageMode::MappedCoherent)
            .unwrap();
        match s.load(0, m2.index).unwrap() {
            LoadOutcome::Miss { vaddr, writebacks } => {
                assert_eq!(vaddr, VAddr(0x9000));
                let mut wbs: Vec<_> = writebacks.iter().map(|w| w.vaddr).collect();
                wbs.sort();
                assert_eq!(wbs, vec![VAddr(0x1000), VAddr(0x1010)]);
            }
            other => panic!("{other:?}"),
        }
        // The old entry is gone once its only dirty chunk was reclaimed.
        assert!(!s.map_entry(m1.index).unwrap().valid);
    }

    #[test]
    fn untouched_dirty_chunks_stay_pending() {
        // On-demand pattern: the new mapping never touches the old dirty
        // chunk, so its writeback stays pending (lazy, not eager).
        let mut s = stash();
        let m1 = s
            .add_map(0, tile(0x1000, 32), 0, UsageMode::MappedCoherent)
            .unwrap();
        s.complete_store_fill(20, m1.index); // chunk 1
        s.end_thread_block(0);
        let m2 = s
            .add_map(1, tile(0x9000, 16), 0, UsageMode::MappedCoherent)
            .unwrap();
        // Chunk 0 is reclaimed by an access, chunk 1 never touched.
        let _ = s.load(0, m2.index).unwrap();
        assert_eq!(s.pending_writebacks().len(), 1);
        assert_eq!(s.pending_writebacks()[0].stash_word, 20);
    }

    #[test]
    fn remote_request_finds_registered_word() {
        let mut s = stash();
        let m = s
            .add_map(0, tile(0x1000, 64), 0, UsageMode::MappedCoherent)
            .unwrap();
        s.complete_store_fill(4, m.index);
        // Teach the VP-map the translation (page 1 -> frame 17).
        s.note_translation(VAddr(0x1000), PAddr(17 * 4096));
        let pa = PAddr(17 * 4096 + (4 * 16)); // element 4's field
        assert_eq!(s.remote_request(pa), Some(4));
        // Surrender on a remote registration.
        assert_eq!(s.surrender_word(pa), Some(4));
        assert_eq!(s.word_state(4), WordState::Invalid);
        assert_eq!(s.remote_request(pa), None);
    }

    #[test]
    fn chg_map_to_new_addresses_flushes_dirty() {
        let mut s = stash();
        let m = s
            .add_map(0, tile(0x1000, 16), 0, UsageMode::MappedCoherent)
            .unwrap();
        s.complete_store_fill(0, m.index);
        let out = s
            .chg_map(0, m.slot, tile(0x9000, 16), UsageMode::MappedCoherent)
            .unwrap();
        assert_eq!(out.writebacks.len(), 1);
        assert_eq!(out.writebacks[0].vaddr, VAddr(0x1000));
        // The remapped range starts invalid.
        assert!(s.load(0, m.index).unwrap().missed());
    }

    #[test]
    fn chg_map_coherent_to_non_coherent_flushes() {
        let mut s = stash();
        let m = s
            .add_map(0, tile(0x1000, 16), 0, UsageMode::MappedCoherent)
            .unwrap();
        s.complete_store_fill(2, m.index);
        let out = s
            .chg_map(0, m.slot, tile(0x1000, 16), UsageMode::MappedNonCoherent)
            .unwrap();
        assert_eq!(out.writebacks.len(), 1);
        assert!(out.registrations.is_empty());
        // Data stays readable locally after the flush.
        assert_eq!(s.load(2, m.index).unwrap(), LoadOutcome::Hit);
    }

    #[test]
    fn chg_map_non_coherent_to_coherent_registers() {
        let mut s = stash();
        let m = s
            .add_map(0, tile(0x1000, 16), 0, UsageMode::MappedNonCoherent)
            .unwrap();
        s.complete_store_fill(1, m.index);
        let out = s
            .chg_map(0, m.slot, tile(0x1000, 16), UsageMode::MappedCoherent)
            .unwrap();
        assert!(out.writebacks.is_empty());
        assert_eq!(out.registrations, vec![(1, VAddr(0x1010))]);
        assert_eq!(s.map_entry(m.index).unwrap().dirty_chunks, 1);
    }

    #[test]
    fn add_map_limits_per_thread_block() {
        let mut s = stash();
        for i in 0..4 {
            s.add_map(
                0,
                tile(0x1000 * (i + 1), 16),
                i as usize * 16,
                UsageMode::MappedCoherent,
            )
            .unwrap();
        }
        let err = s
            .add_map(0, tile(0x9000, 16), 128, UsageMode::MappedCoherent)
            .unwrap_err();
        assert!(matches!(err, SimError::TableFull { capacity: 4, .. }));
        // Another thread block still has its own table.
        s.add_map(1, tile(0x9000, 16), 128, UsageMode::MappedCoherent)
            .unwrap();
    }

    #[test]
    fn add_map_validates_allocation() {
        let mut s = stash();
        // Too large for 16 KB.
        assert!(s
            .add_map(0, tile(0x1000, 5000), 0, UsageMode::MappedCoherent)
            .is_err());
        // Misaligned base.
        assert!(s
            .add_map(0, tile(0x1000, 16), 3, UsageMode::MappedCoherent)
            .is_err());
        // Unmapped modes reject AddMap.
        assert!(s
            .add_map(0, tile(0x1000, 16), 0, UsageMode::Temporary)
            .is_err());
    }

    #[test]
    fn drain_flushes_everything() {
        let mut s = stash();
        let m = s
            .add_map(0, tile(0x1000, 16), 0, UsageMode::MappedCoherent)
            .unwrap();
        s.complete_store_fill(0, m.index);
        s.complete_store_fill(15, m.index);
        s.end_thread_block(0);
        let wbs = s.drain_writebacks();
        assert_eq!(wbs.len(), 2);
        assert!(s.pending_writebacks().is_empty());
        // After the drain the entry has no dirty data and goes invalid.
        assert!(!s.map_entry(m.index).unwrap().valid);
    }
}
