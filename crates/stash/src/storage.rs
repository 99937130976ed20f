//! Stash storage: the data array with per-word coherence state and
//! per-chunk writeback metadata (§4.1.1, §4.2, §4.4).
//!
//! Each 4-byte word carries 2 DeNovo state bits. Tracking the owning
//! stash-map entry per *word* would be wasteful, so the paper records it at
//! a chunked granularity (64 B): each chunk stores a stash-map index, a
//! dirty bit (set on the first store miss of a thread block, cleared when
//! the block completes) and a writeback bit (set for dirty chunks at
//! thread-block completion, checked on each access to trigger lazy
//! writebacks). DeNovo's spare fourth state encoding doubles as the
//! writeback bit in hardware; the model keeps it as an explicit flag and
//! counts its bits accordingly in [`crate::overhead`].

use crate::map::MapIndex;
use mem::addr::WORD_BYTES;
use mem::coherence::WordState;

/// Per-chunk metadata (§4.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkMeta {
    /// The stash-map entry whose mapping the chunk's words belong to.
    pub owner: Option<MapIndex>,
    /// Dirty bit: the running thread block has stored to this chunk.
    pub dirty: bool,
    /// Writeback bit: the chunk holds dirty data from a completed thread
    /// block awaiting a lazy writeback.
    pub writeback_pending: bool,
}

/// The stash data array plus its state and chunk metadata.
///
/// # Example
///
/// ```
/// use mem::coherence::WordState;
/// use stash::map::MapIndex;
/// use stash::storage::StashStorage;
///
/// let mut st = StashStorage::new(16 * 1024, 64);
/// assert_eq!(st.words(), 4096);
/// st.set_word_state(5, WordState::Registered);
/// let newly_dirty = st.mark_store(5, MapIndex(2));
/// assert!(newly_dirty);
/// assert_eq!(st.chunk_meta(st.chunk_of(5)).owner, Some(MapIndex(2)));
/// ```
#[derive(Debug, Clone)]
pub struct StashStorage {
    word_states: Vec<WordState>,
    chunks: Vec<ChunkMeta>,
    words_per_chunk: usize,
}

impl StashStorage {
    /// Creates storage of `capacity_bytes` with `chunk_bytes` chunks.
    ///
    /// # Panics
    ///
    /// Panics if the chunk size does not evenly divide the capacity or is
    /// not a whole number of words.
    pub fn new(capacity_bytes: usize, chunk_bytes: usize) -> Self {
        assert!(chunk_bytes > 0 && chunk_bytes.is_multiple_of(WORD_BYTES as usize));
        assert!(
            capacity_bytes.is_multiple_of(chunk_bytes),
            "ragged chunking"
        );
        let words = capacity_bytes / WORD_BYTES as usize;
        let words_per_chunk = chunk_bytes / WORD_BYTES as usize;
        Self {
            word_states: vec![WordState::Invalid; words],
            chunks: vec![ChunkMeta::default(); capacity_bytes / chunk_bytes],
            words_per_chunk,
        }
    }

    /// Total words of storage.
    pub fn words(&self) -> usize {
        self.word_states.len()
    }

    /// Total chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Words per chunk.
    pub fn words_per_chunk(&self) -> usize {
        self.words_per_chunk
    }

    /// The chunk containing a word.
    pub fn chunk_of(&self, word: usize) -> usize {
        word / self.words_per_chunk
    }

    /// The word-index range of a chunk.
    pub fn chunk_words(&self, chunk: usize) -> std::ops::Range<usize> {
        chunk * self.words_per_chunk..(chunk + 1) * self.words_per_chunk
    }

    /// Coherence state of a word.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range.
    pub fn word_state(&self, word: usize) -> WordState {
        self.word_states[word]
    }

    /// Sets the coherence state of a word.
    pub fn set_word_state(&mut self, word: usize, state: WordState) {
        self.word_states[word] = state;
    }

    /// Metadata of a chunk.
    pub fn chunk_meta(&self, chunk: usize) -> ChunkMeta {
        self.chunks[chunk]
    }

    /// Mutable chunk metadata.
    pub fn chunk_meta_mut(&mut self, chunk: usize) -> &mut ChunkMeta {
        &mut self.chunks[chunk]
    }

    /// Store-side bookkeeping (§4.2): on a store, if the chunk's dirty bit
    /// is unset, set it and record the owning map index. Returns whether
    /// the chunk became *newly* dirty (the caller then bumps the map
    /// entry's `#DirtyData`).
    pub fn mark_store(&mut self, word: usize, owner: MapIndex) -> bool {
        let chunk = self.chunk_of(word);
        let meta = &mut self.chunks[chunk];
        if meta.dirty {
            return false;
        }
        meta.dirty = true;
        meta.owner = Some(owner);
        true
    }

    /// Assigns a chunk to a map entry without dirtying it (load-side
    /// ownership, so lazy-writeback checks know whose mapping the words
    /// belong to).
    pub fn assign_chunk(&mut self, chunk: usize, owner: MapIndex) {
        self.chunks[chunk].owner = Some(owner);
    }

    /// Thread-block completion (§4.2): for every dirty chunk owned by
    /// `map`, set the writeback bit and clear the dirty bit. Returns the
    /// affected chunk indices.
    pub fn seal_dirty_chunks(&mut self, map: MapIndex) -> Vec<usize> {
        let mut sealed = Vec::new();
        for (i, meta) in self.chunks.iter_mut().enumerate() {
            if meta.dirty && meta.owner == Some(map) {
                meta.dirty = false;
                meta.writeback_pending = true;
                sealed.push(i);
            }
        }
        sealed
    }

    /// The Registered words of a chunk (the words a writeback must send —
    /// "we leverage per word coherence state to determine the dirty
    /// words").
    pub fn registered_words_in_chunk(&self, chunk: usize) -> Vec<usize> {
        self.chunk_words(chunk)
            .filter(|&w| self.word_states[w] == WordState::Registered)
            .collect()
    }

    /// Completes a chunk writeback: clears the writeback bit and
    /// downgrades its Registered words to `after` (Shared when data is
    /// kept readable, Invalid when the chunk is being reassigned).
    pub fn complete_chunk_writeback(&mut self, chunk: usize, after: WordState) {
        self.chunks[chunk].writeback_pending = false;
        self.chunks[chunk].dirty = false;
        for w in self.chunk_words(chunk) {
            if self.word_states[w] == WordState::Registered {
                self.word_states[w] = after;
            }
        }
    }

    /// Invalidates every word of a chunk and detaches it from its map
    /// entry (reassignment to a new mapping).
    pub fn invalidate_chunk(&mut self, chunk: usize) {
        for w in self.chunk_words(chunk) {
            self.word_states[w] = WordState::Invalid;
        }
        self.chunks[chunk] = ChunkMeta::default();
    }

    /// Kernel-end self-invalidation (§4.3): Shared words drop to Invalid,
    /// Registered words are kept for reuse and lazy writeback.
    pub fn self_invalidate(&mut self) {
        for w in self.word_states.iter_mut() {
            *w = w.after_self_invalidate();
        }
    }

    /// Count of currently Registered words (diagnostics).
    pub fn registered_word_count(&self) -> usize {
        self.word_states
            .iter()
            .filter(|&&w| w == WordState::Registered)
            .count()
    }

    /// Serializes the word states and per-chunk metadata. The capacity
    /// and chunk size are configuration, fixed when the storage is
    /// built, so they are not saved.
    pub fn save(&self, w: &mut sim::snapshot::Writer) {
        for &state in &self.word_states {
            w.put_u8(mem::coherence::word_state_code(state));
        }
        for meta in &self.chunks {
            match meta.owner {
                None => w.put_u8(0),
                Some(MapIndex(i)) => {
                    w.put_u8(1);
                    w.put_u8(i);
                }
            }
            w.put_bool(meta.dirty);
            w.put_bool(meta.writeback_pending);
        }
    }

    /// Reads state written by [`StashStorage::save`] into this storage,
    /// built with the saved storage's geometry.
    pub fn restore(&mut self, r: &mut sim::snapshot::Reader<'_>) -> Result<(), sim::SimError> {
        for state in &mut self.word_states {
            *state = mem::coherence::word_state_from_code(r.take_u8()?)?;
        }
        for meta in &mut self.chunks {
            let owner = match r.take_u8()? {
                0 => None,
                1 => Some(MapIndex(r.take_u8()?)),
                v => {
                    return Err(sim::SimError::CheckpointCorrupt {
                        what: "stash storage",
                        detail: format!("unknown chunk owner code {v}"),
                    })
                }
            };
            *meta = ChunkMeta {
                owner,
                dirty: r.take_bool()?,
                writeback_pending: r.take_bool()?,
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storage() -> StashStorage {
        StashStorage::new(1024, 64) // 256 words, 16 chunks
    }

    #[test]
    fn geometry() {
        let s = storage();
        assert_eq!(s.words(), 256);
        assert_eq!(s.chunk_count(), 16);
        assert_eq!(s.words_per_chunk(), 16);
        assert_eq!(s.chunk_of(17), 1);
        assert_eq!(s.chunk_words(1), 16..32);
    }

    #[test]
    fn first_store_dirties_chunk_once() {
        let mut s = storage();
        assert!(s.mark_store(3, MapIndex(1)));
        assert!(!s.mark_store(4, MapIndex(1))); // same chunk, already dirty
        let meta = s.chunk_meta(0);
        assert!(meta.dirty);
        assert_eq!(meta.owner, Some(MapIndex(1)));
    }

    #[test]
    fn seal_moves_dirty_to_pending() {
        let mut s = storage();
        s.mark_store(0, MapIndex(2));
        s.mark_store(16, MapIndex(2));
        s.mark_store(32, MapIndex(3)); // different owner, untouched
        let sealed = s.seal_dirty_chunks(MapIndex(2));
        assert_eq!(sealed, vec![0, 1]);
        assert!(s.chunk_meta(0).writeback_pending);
        assert!(!s.chunk_meta(0).dirty);
        assert!(s.chunk_meta(2).dirty);
        assert!(!s.chunk_meta(2).writeback_pending);
    }

    #[test]
    fn writeback_sends_only_registered_words() {
        let mut s = storage();
        s.set_word_state(0, WordState::Registered);
        s.set_word_state(1, WordState::Shared);
        s.set_word_state(5, WordState::Registered);
        assert_eq!(s.registered_words_in_chunk(0), vec![0, 5]);
        s.complete_chunk_writeback(0, WordState::Shared);
        assert_eq!(s.word_state(0), WordState::Shared);
        assert_eq!(s.word_state(5), WordState::Shared);
        assert!(!s.chunk_meta(0).writeback_pending);
    }

    #[test]
    fn invalidate_chunk_resets_everything() {
        let mut s = storage();
        s.set_word_state(2, WordState::Registered);
        s.mark_store(2, MapIndex(0));
        s.invalidate_chunk(0);
        assert_eq!(s.word_state(2), WordState::Invalid);
        assert_eq!(s.chunk_meta(0), ChunkMeta::default());
    }

    #[test]
    fn self_invalidate_keeps_registered() {
        let mut s = storage();
        s.set_word_state(0, WordState::Shared);
        s.set_word_state(1, WordState::Registered);
        s.self_invalidate();
        assert_eq!(s.word_state(0), WordState::Invalid);
        assert_eq!(s.word_state(1), WordState::Registered);
        assert_eq!(s.registered_word_count(), 1);
    }
}
