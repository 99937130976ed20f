//! The stash-map: a circular buffer of mapping entries (§4.1.3).
//!
//! Each entry stores the translation parameters of one `AddMap`/`ChgMap`
//! (precomputed so a miss needs only six arithmetic operations), a Valid
//! bit, and the `#DirtyData` counter that tracks how many dirty chunks in
//! stash storage still point at the entry. Entries are added and removed
//! in FIFO order via a tail pointer, which keeps management of the fixed
//! capacity trivial.

use crate::modes::UsageMode;
use mem::tile::TileMap;
use sim::SimError;

/// Index of a stash-map entry; travels with store-miss registration
/// requests and is recorded at the LLC registry (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MapIndex(pub u8);

impl std::fmt::Display for MapIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "map{}", self.0)
    }
}

/// One stash-map entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StashMapEntry {
    /// The stash-to-global tile mapping (precomputed translation state).
    pub tile: TileMap,
    /// First stash word of the allocation this entry maps.
    pub stash_base_word: usize,
    /// Usage mode (`isCoherent` distinguishes the two mapped modes).
    pub mode: UsageMode,
    /// Valid bit (§4.1.3).
    pub valid: bool,
    /// Whether the owning thread block is still running; inactive entries
    /// persist only to cover lazy writebacks.
    pub active: bool,
    /// `#DirtyData`: dirty chunks in stash storage pointing at this entry.
    pub dirty_chunks: u32,
    /// §4.5 `reuseBit` + pointer: the older entry this one replicates.
    pub reuse_of: Option<MapIndex>,
}

impl StashMapEntry {
    /// Last stash word (exclusive) of the mapped allocation.
    pub fn stash_end_word(&self) -> usize {
        self.stash_base_word + self.tile.local_words() as usize
    }

    /// Whether `word` (an absolute stash word index) falls in this entry's
    /// allocation.
    pub fn contains_word(&self, word: usize) -> bool {
        (self.stash_base_word..self.stash_end_word()).contains(&word)
    }
}

/// The circular stash-map.
///
/// # Example
///
/// ```
/// use mem::addr::VAddr;
/// use mem::tile::TileMap;
/// use stash::map::StashMap;
/// use stash::modes::UsageMode;
///
/// let mut sm = StashMap::new(64);
/// let tile = TileMap::new(VAddr(0x1000), 4, 16, 8, 0, 1).unwrap();
/// let (idx, displaced) = sm.push(tile, 0, UsageMode::MappedCoherent).unwrap();
/// assert!(displaced.is_none());
/// assert!(sm.entry(idx).unwrap().valid);
/// ```
#[derive(Debug, Clone)]
pub struct StashMap {
    slots: Vec<Option<StashMapEntry>>,
    tail: usize,
}

impl StashMap {
    /// Creates a stash-map with `capacity` entries (the paper sizes it at
    /// 64: 8 thread blocks × 4 maps, doubled to allow lazy writebacks).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds 256 (indices are a byte).
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0 && capacity <= 256,
            "capacity must fit a u8 index"
        );
        Self {
            slots: vec![None; capacity],
            tail: 0,
        }
    }

    /// Adds an entry at the tail, advancing it.
    ///
    /// Returns the new entry's index and, if the reused slot still held a
    /// *valid* entry (it has dirty data that was never lazily written
    /// back), that displaced entry — the caller must write its dirty
    /// chunks back before proceeding, blocking the core (§4.2, AddMap).
    ///
    /// # Errors
    ///
    /// Never errors today; the `Result` reserves room for the VP-map
    /// spill path (§4.2) which surfaces through [`crate::Stash`].
    pub fn push(
        &mut self,
        tile: TileMap,
        stash_base_word: usize,
        mode: UsageMode,
    ) -> Result<(MapIndex, Option<StashMapEntry>), SimError> {
        let idx = self.tail;
        self.tail = (self.tail + 1) % self.slots.len();
        let displaced = self.slots[idx].take().filter(|e| e.valid);
        // §4.5: search for an identical existing mapping (infrequent
        // operation, done on AddMap only).
        let reuse_of = self.find_same_mapping(&tile);
        self.slots[idx] = Some(StashMapEntry {
            tile,
            stash_base_word,
            mode,
            valid: true,
            active: true,
            dirty_chunks: 0,
            reuse_of,
        });
        Ok((MapIndex(idx as u8), displaced))
    }

    /// §4.5 replication search: a valid entry with exactly the same tile
    /// parameters.
    pub fn find_same_mapping(&self, tile: &TileMap) -> Option<MapIndex> {
        self.slots.iter().enumerate().find_map(|(i, slot)| {
            slot.as_ref()
                .filter(|e| e.valid && e.tile.same_mapping(tile))
                .map(|_| MapIndex(i as u8))
        })
    }

    /// The entry at `idx`, if present.
    pub fn entry(&self, idx: MapIndex) -> Option<&StashMapEntry> {
        self.slots.get(idx.0 as usize)?.as_ref()
    }

    /// Mutable access to the entry at `idx`.
    pub fn entry_mut(&mut self, idx: MapIndex) -> Option<&mut StashMapEntry> {
        self.slots.get_mut(idx.0 as usize)?.as_mut()
    }

    /// Marks an entry invalid (its `#DirtyData` reached zero, §4.2).
    pub fn invalidate(&mut self, idx: MapIndex) {
        if let Some(e) = self.entry_mut(idx) {
            e.valid = false;
        }
    }

    /// The valid entry whose stash allocation contains `word` and which
    /// currently owns it, preferring active entries.
    pub fn valid_entry_containing_word(&self, word: usize) -> Option<(MapIndex, &StashMapEntry)> {
        let mut fallback = None;
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(e) = slot.as_ref().filter(|e| e.valid && e.contains_word(word)) {
                if e.active {
                    return Some((MapIndex(i as u8), e));
                }
                fallback.get_or_insert((MapIndex(i as u8), e));
            }
        }
        fallback
    }

    /// Iterates over `(index, entry)` of all valid entries.
    pub fn iter_valid(&self) -> impl Iterator<Item = (MapIndex, &StashMapEntry)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.as_ref()
                .filter(|e| e.valid)
                .map(|e| (MapIndex(i as u8), e))
        })
    }

    /// Number of valid entries.
    pub fn valid_count(&self) -> usize {
        self.iter_valid().count()
    }

    /// Serializes the tail pointer and every slot. The capacity is
    /// configuration, fixed when the map is built, so it is not saved.
    pub fn save(&self, w: &mut sim::snapshot::Writer) {
        w.put_usize(self.tail);
        for slot in &self.slots {
            match slot {
                None => w.put_u8(0),
                Some(e) => {
                    w.put_u8(1);
                    e.tile.save(w);
                    w.put_usize(e.stash_base_word);
                    w.put_u8(crate::modes::usage_mode_code(e.mode));
                    w.put_bool(e.valid);
                    w.put_bool(e.active);
                    w.put_u32(e.dirty_chunks);
                    match e.reuse_of {
                        None => w.put_u8(0),
                        Some(MapIndex(i)) => {
                            w.put_u8(1);
                            w.put_u8(i);
                        }
                    }
                }
            }
        }
    }

    /// Reads state written by [`StashMap::save`] into this map, built
    /// with the saved map's capacity.
    pub fn restore(&mut self, r: &mut sim::snapshot::Reader<'_>) -> Result<(), SimError> {
        let corrupt = |detail: String| SimError::CheckpointCorrupt {
            what: "stash map",
            detail,
        };
        let tail = r.take_usize()?;
        if tail >= self.slots.len() {
            return Err(corrupt(format!(
                "tail {tail} outside {} slots",
                self.slots.len()
            )));
        }
        self.tail = tail;
        for slot in &mut self.slots {
            *slot = match r.take_u8()? {
                0 => None,
                1 => Some(StashMapEntry {
                    tile: TileMap::load(r)?,
                    stash_base_word: r.take_usize()?,
                    mode: crate::modes::usage_mode_from_code(r.take_u8()?)?,
                    valid: r.take_bool()?,
                    active: r.take_bool()?,
                    dirty_chunks: r.take_u32()?,
                    reuse_of: match r.take_u8()? {
                        0 => None,
                        1 => Some(MapIndex(r.take_u8()?)),
                        v => return Err(corrupt(format!("unknown reuse code {v}"))),
                    },
                }),
                v => return Err(corrupt(format!("unknown slot code {v}"))),
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem::addr::VAddr;

    fn tile(base: u64) -> TileMap {
        TileMap::new(VAddr(base), 4, 16, 8, 0, 1).unwrap()
    }

    #[test]
    fn push_assigns_fifo_indices() {
        let mut sm = StashMap::new(4);
        for i in 0..4 {
            let (idx, displaced) = sm
                .push(tile(0x1000 * (i + 1) as u64), 0, UsageMode::MappedCoherent)
                .unwrap();
            assert_eq!(idx, MapIndex(i as u8));
            assert!(displaced.is_none());
        }
        assert_eq!(sm.valid_count(), 4);
    }

    #[test]
    fn wrap_displaces_valid_entry() {
        let mut sm = StashMap::new(2);
        sm.push(tile(0x1000), 0, UsageMode::MappedCoherent).unwrap();
        sm.push(tile(0x2000), 64, UsageMode::MappedCoherent)
            .unwrap();
        let (idx, displaced) = sm.push(tile(0x3000), 0, UsageMode::MappedCoherent).unwrap();
        assert_eq!(idx, MapIndex(0));
        let d = displaced.expect("slot 0 held a valid entry");
        assert_eq!(d.tile.global_base(), VAddr(0x1000));
    }

    #[test]
    fn wrap_over_invalidated_entry_is_quiet() {
        let mut sm = StashMap::new(2);
        let (i0, _) = sm.push(tile(0x1000), 0, UsageMode::MappedCoherent).unwrap();
        sm.push(tile(0x2000), 64, UsageMode::MappedCoherent)
            .unwrap();
        sm.invalidate(i0);
        let (_, displaced) = sm.push(tile(0x3000), 0, UsageMode::MappedCoherent).unwrap();
        assert!(displaced.is_none());
    }

    #[test]
    fn replication_is_detected() {
        let mut sm = StashMap::new(8);
        let (i0, _) = sm.push(tile(0x1000), 0, UsageMode::MappedCoherent).unwrap();
        let (i1, _) = sm
            .push(tile(0x1000), 64, UsageMode::MappedCoherent)
            .unwrap();
        assert_eq!(sm.entry(i1).unwrap().reuse_of, Some(i0));
        // A different tile is not a replica.
        let (i2, _) = sm
            .push(tile(0x9000), 128, UsageMode::MappedCoherent)
            .unwrap();
        assert_eq!(sm.entry(i2).unwrap().reuse_of, None);
    }

    #[test]
    fn containing_word_prefers_active_entries() {
        let mut sm = StashMap::new(4);
        let (i0, _) = sm.push(tile(0x1000), 0, UsageMode::MappedCoherent).unwrap();
        sm.entry_mut(i0).unwrap().active = false;
        let (i1, _) = sm.push(tile(0x2000), 0, UsageMode::MappedCoherent).unwrap();
        // Both cover word 3; the active one wins.
        assert_eq!(sm.valid_entry_containing_word(3).unwrap().0, i1);
        sm.invalidate(i1);
        assert_eq!(sm.valid_entry_containing_word(3).unwrap().0, i0);
        assert!(sm.valid_entry_containing_word(8).is_none());
    }

    #[test]
    fn entry_word_ranges() {
        let e = StashMapEntry {
            tile: tile(0x1000),
            stash_base_word: 16,
            mode: UsageMode::MappedCoherent,
            valid: true,
            active: true,
            dirty_chunks: 0,
            reuse_of: None,
        };
        assert_eq!(e.stash_end_word(), 24); // 8 elements * 1 word
        assert!(e.contains_word(16));
        assert!(e.contains_word(23));
        assert!(!e.contains_word(24));
        assert!(!e.contains_word(15));
    }
}
