//! Set-associative write-back cache with DeNovo word states.
//!
//! Tags are at line granularity, coherence state at word granularity —
//! the "line-based DeNovo" configuration the paper evaluates. The cache is
//! a passive structure: it answers probes and applies fills/evictions;
//! the memory-system orchestrator decides what traffic those imply.

use crate::addr::{LineAddr, PAddr, WORD_BYTES};
use crate::coherence::{word_state_code, word_state_from_code, WordState};

/// What `ensure_line` had to do to make a tag resident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnsureOutcome {
    /// Whether the tag was already present (no allocation happened).
    pub already_present: bool,
    /// A victim line that was displaced, if allocation required one.
    pub evicted: Option<EvictedLine>,
}

/// A line displaced from the cache.
///
/// Shared and Invalid words vanish silently (the LLC has their data);
/// *Registered* words are the only up-to-date copy in the system and must
/// be written back by the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictedLine {
    /// The displaced line's address.
    pub line: LineAddr,
    /// Word indices that were Registered and need writeback.
    pub registered_words: Vec<usize>,
}

#[derive(Debug, Clone, Copy)]
struct LineEntry {
    line: LineAddr,
    last_use: u64,
}

/// A set-associative write-back cache with per-word DeNovo state.
///
/// # Example
///
/// ```
/// use mem::addr::PAddr;
/// use mem::cache::DenovoCache;
/// use mem::coherence::WordState;
///
/// let mut c = DenovoCache::new(32 * 1024, 8, 64);
/// let a = PAddr(0x1000);
/// assert_eq!(c.word_state(a), WordState::Invalid);
/// c.ensure_line(a);
/// c.set_word(a, WordState::Shared);
/// assert!(c.word_state(a).load_hits());
/// ```
#[derive(Debug, Clone)]
pub struct DenovoCache {
    sets: usize,
    ways: usize,
    line_bytes: u64,
    words_per_line: usize,
    lines: Vec<Option<LineEntry>>,
    /// Word-state arena, one `words_per_line` stripe per tag slot: slot
    /// `i`'s words live at `i * words_per_line ..`. A single flat
    /// allocation keeps the per-word hot path an indexed read and makes
    /// cloning the cache — the parallel shard runner snapshots every L1
    /// per CU shard — a memcpy instead of a per-line allocation storm.
    words: Vec<WordState>,
    tick: u64,
}

impl DenovoCache {
    /// Creates a cache of `capacity_bytes` with `ways`-way sets of
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn new(capacity_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(ways > 0 && line_bytes > 0 && capacity_bytes > 0);
        let total_lines = capacity_bytes / line_bytes;
        assert_eq!(total_lines * line_bytes, capacity_bytes, "ragged capacity");
        assert_eq!(total_lines % ways, 0, "capacity must divide into ways");
        let sets = total_lines / ways;
        let words_per_line = line_bytes / WORD_BYTES as usize;
        Self {
            sets,
            ways,
            line_bytes: line_bytes as u64,
            words_per_line,
            lines: vec![None; total_lines],
            words: vec![WordState::Invalid; total_lines * words_per_line],
            tick: 0,
        }
    }

    /// Slot `i`'s word-state stripe.
    #[inline]
    fn stripe(&self, i: usize) -> &[WordState] {
        &self.words[i * self.words_per_line..(i + 1) * self.words_per_line]
    }

    /// Slot `i`'s word-state stripe, mutably.
    #[inline]
    fn stripe_mut(&mut self, i: usize) -> &mut [WordState] {
        let wpl = self.words_per_line;
        &mut self.words[i * wpl..(i + 1) * wpl]
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Words per line.
    pub fn words_per_line(&self) -> usize {
        self.words_per_line
    }

    fn set_of(&self, line: LineAddr) -> usize {
        ((line.0 / self.line_bytes) % self.sets as u64) as usize
    }

    fn slot_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    fn find(&self, line: LineAddr) -> Option<usize> {
        self.slot_range(self.set_of(line))
            .find(|&i| self.lines[i].as_ref().is_some_and(|e| e.line == line))
    }

    /// The coherence state of the word at `pa` (Invalid if the tag is not
    /// resident).
    pub fn word_state(&self, pa: PAddr) -> WordState {
        match self.find(pa.line(self.line_bytes)) {
            Some(i) => self.stripe(i)[pa.word_in_line(self.line_bytes)],
            None => WordState::Invalid,
        }
    }

    /// Marks the line containing `pa` most-recently used.
    pub fn touch(&mut self, pa: PAddr) {
        self.tick += 1;
        let line = pa.line(self.line_bytes);
        if let Some(i) = self.find(line) {
            self.lines[i].as_mut().expect("occupied").last_use = self.tick;
        }
    }

    /// Makes the tag for `pa`'s line resident, evicting an LRU victim if
    /// the set is full. Newly allocated lines start with all words Invalid.
    pub fn ensure_line(&mut self, pa: PAddr) -> EnsureOutcome {
        self.tick += 1;
        let line = pa.line(self.line_bytes);
        if let Some(i) = self.find(line) {
            self.lines[i].as_mut().expect("occupied").last_use = self.tick;
            return EnsureOutcome {
                already_present: true,
                evicted: None,
            };
        }
        let set = self.set_of(line);
        // Prefer an empty way, else the LRU one.
        let slot = self
            .slot_range(set)
            .find(|&i| self.lines[i].is_none())
            .unwrap_or_else(|| {
                self.slot_range(set)
                    .min_by_key(|&i| self.lines[i].as_ref().expect("full set").last_use)
                    .expect("ways > 0")
            });
        let evicted = self.lines[slot].take().map(|e| EvictedLine {
            line: e.line,
            registered_words: self
                .stripe(slot)
                .iter()
                .enumerate()
                .filter(|(_, &w)| w == WordState::Registered)
                .map(|(i, _)| i)
                .collect(),
        });
        self.stripe_mut(slot).fill(WordState::Invalid);
        self.lines[slot] = Some(LineEntry {
            line,
            last_use: self.tick,
        });
        EnsureOutcome {
            already_present: false,
            evicted,
        }
    }

    /// Sets the state of the word at `pa`.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident — call [`DenovoCache::ensure_line`]
    /// first.
    pub fn set_word(&mut self, pa: PAddr, state: WordState) {
        let line = pa.line(self.line_bytes);
        let i = self
            .find(line)
            .unwrap_or_else(|| panic!("line {line} not resident"));
        let w = pa.word_in_line(self.line_bytes);
        self.stripe_mut(i)[w] = state;
    }

    /// Fills every currently Invalid word of `pa`'s resident line with
    /// `Shared` except the word indices in `skip` (words the LLC could not
    /// supply because another core has them registered). Returns how many
    /// words were filled.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn fill_line_shared(&mut self, pa: PAddr, skip: &[usize]) -> usize {
        let line = pa.line(self.line_bytes);
        let i = self
            .find(line)
            .unwrap_or_else(|| panic!("line {line} not resident"));
        let mut filled = 0;
        for (w, state) in self.stripe_mut(i).iter_mut().enumerate() {
            if *state == WordState::Invalid && !skip.contains(&w) {
                *state = WordState::Shared;
                filled += 1;
            }
        }
        filled
    }

    /// Kernel-boundary self-invalidation: Shared words drop to Invalid,
    /// Registered words are kept (§4.3). Tags stay resident.
    pub fn self_invalidate(&mut self) {
        let wpl = self.words_per_line;
        for (i, entry) in self.lines.iter().enumerate() {
            if entry.is_some() {
                for w in &mut self.words[i * wpl..(i + 1) * wpl] {
                    *w = w.after_self_invalidate();
                }
            }
        }
    }

    /// Downgrades a word in response to a remote request: the caller
    /// writes the data back; the local copy becomes `to` (Shared for a
    /// remote load, Invalid for a remote registration).
    ///
    /// Returns `true` if the word was Registered here (i.e. there was data
    /// to supply).
    pub fn downgrade_word(&mut self, pa: PAddr, to: WordState) -> bool {
        let line = pa.line(self.line_bytes);
        if let Some(i) = self.find(line) {
            let w = pa.word_in_line(self.line_bytes);
            let word = &mut self.stripe_mut(i)[w];
            let was_registered = *word == WordState::Registered;
            *word = to;
            return was_registered;
        }
        false
    }

    /// Every currently Registered word address, for teardown writebacks.
    pub fn registered_words(&self) -> Vec<PAddr> {
        let mut out = Vec::new();
        for (i, entry) in self.lines.iter().enumerate() {
            let Some(entry) = entry else { continue };
            for (w, &state) in self.stripe(i).iter().enumerate() {
                if state == WordState::Registered {
                    out.push(entry.line.word_addr(w));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Number of resident tags (for pollution/occupancy measurements).
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().flatten().count()
    }

    /// Serializes the tag slots with their LRU stamps, the word-state
    /// arena and the LRU tick. The geometry is configuration, fixed when
    /// the cache is built, so it is not saved.
    pub fn save(&self, w: &mut sim::snapshot::Writer) {
        for entry in &self.lines {
            match entry {
                None => w.put_u8(0),
                Some(e) => {
                    w.put_u8(1);
                    w.put_u64(e.line.0);
                    w.put_u64(e.last_use);
                }
            }
        }
        w.put_u8s(self.words.iter().map(|&state| word_state_code(state)));
        w.put_u64(self.tick);
    }

    /// Reads state written by [`DenovoCache::save`] into this cache,
    /// built with the saved cache's geometry.
    pub fn restore(&mut self, r: &mut sim::snapshot::Reader<'_>) -> Result<(), sim::SimError> {
        for slot in &mut self.lines {
            *slot = match r.take_u8()? {
                0 => None,
                1 => Some(LineEntry {
                    line: LineAddr(r.take_u64()?),
                    last_use: r.take_u64()?,
                }),
                v => {
                    return Err(sim::SimError::CheckpointCorrupt {
                        what: "denovo l1",
                        detail: format!("unknown tag slot code {v}"),
                    })
                }
            };
        }
        for state in &mut self.words {
            *state = word_state_from_code(r.take_u8()?)?;
        }
        self.tick = r.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DenovoCache {
        // 4 sets * 2 ways * 64 B = 512 B.
        DenovoCache::new(512, 2, 64)
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.sets(), 4);
        assert_eq!(c.words_per_line(), 16);
    }

    #[test]
    fn cache_round_trips_through_snapshot() {
        let mut c = small();
        c.ensure_line(PAddr(0x1000));
        c.fill_line_shared(PAddr(0x1000), &[2]);
        c.set_word(PAddr(0x1004), WordState::Registered);
        c.ensure_line(PAddr(0x2000));
        c.fill_line_shared(PAddr(0x2000), &[]);
        c.touch(PAddr(0x2000));
        let mut w = sim::snapshot::Writer::new();
        c.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = sim::snapshot::Reader::new(&bytes, "denovo l1");
        let mut restored = small();
        restored.restore(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.sets(), c.sets());
        assert_eq!(restored.resident_lines(), c.resident_lines());
        assert_eq!(restored.registered_words(), c.registered_words());
        for off in (0..64).step_by(4) {
            assert_eq!(
                restored.word_state(PAddr(0x1000 + off)),
                c.word_state(PAddr(0x1000 + off))
            );
        }
    }

    #[test]
    fn cache_restore_rejects_an_unknown_tag_code() {
        let mut w = sim::snapshot::Writer::new();
        small().save(&mut w);
        let mut bytes = w.into_bytes();
        // The first tag slot's code byte: 0 (empty) or 1 (resident).
        bytes[0] = 2;
        let mut r = sim::snapshot::Reader::new(&bytes, "denovo l1");
        assert!(matches!(
            small().restore(&mut r),
            Err(sim::SimError::CheckpointCorrupt { .. })
        ));
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        let a = PAddr(0x1000);
        assert_eq!(c.word_state(a), WordState::Invalid);
        let out = c.ensure_line(a);
        assert!(!out.already_present);
        assert!(out.evicted.is_none());
        c.fill_line_shared(a, &[]);
        assert_eq!(c.word_state(a), WordState::Shared);
        // Every word of the line is now Shared.
        assert_eq!(c.word_state(PAddr(0x103C)), WordState::Shared);
    }

    #[test]
    fn fill_skips_remotely_registered_words() {
        let mut c = small();
        let a = PAddr(0x1000);
        c.ensure_line(a);
        let filled = c.fill_line_shared(a, &[0, 3]);
        assert_eq!(filled, 14);
        assert_eq!(c.word_state(PAddr(0x1000)), WordState::Invalid);
        assert_eq!(c.word_state(PAddr(0x100C)), WordState::Invalid);
        assert_eq!(c.word_state(PAddr(0x1004)), WordState::Shared);
    }

    #[test]
    fn fill_does_not_clobber_registered() {
        let mut c = small();
        let a = PAddr(0x1000);
        c.ensure_line(a);
        c.set_word(a, WordState::Registered);
        c.fill_line_shared(a, &[]);
        assert_eq!(c.word_state(a), WordState::Registered);
    }

    #[test]
    fn conflict_eviction_reports_registered_words() {
        let mut c = small();
        // Lines 0x0000, 0x1000, 0x2000 all map to set 0 (4 sets * 64 B = 256 B stride).
        let a = PAddr(0x0000);
        let b = PAddr(0x1000);
        let d = PAddr(0x2000);
        c.ensure_line(a);
        c.set_word(a, WordState::Registered);
        c.set_word(PAddr(0x0004), WordState::Shared);
        c.ensure_line(b);
        let out = c.ensure_line(d);
        let ev = out.evicted.expect("two-way set must evict the LRU line");
        assert_eq!(ev.line, LineAddr(0x0000));
        assert_eq!(ev.registered_words, vec![0]);
        assert_eq!(c.word_state(a), WordState::Invalid);
    }

    #[test]
    fn lru_respects_touch() {
        let mut c = small();
        c.ensure_line(PAddr(0x0000));
        c.ensure_line(PAddr(0x1000));
        c.touch(PAddr(0x0000)); // make 0x1000 the LRU line
        let out = c.ensure_line(PAddr(0x2000));
        assert_eq!(out.evicted.expect("eviction").line, LineAddr(0x1000));
    }

    #[test]
    fn self_invalidate_keeps_registered() {
        let mut c = small();
        let a = PAddr(0x0000);
        let b = PAddr(0x0004);
        c.ensure_line(a);
        c.set_word(a, WordState::Registered);
        c.set_word(b, WordState::Shared);
        c.self_invalidate();
        assert_eq!(c.word_state(a), WordState::Registered);
        assert_eq!(c.word_state(b), WordState::Invalid);
    }

    #[test]
    fn downgrade_reports_prior_registration() {
        let mut c = small();
        let a = PAddr(0x0000);
        c.ensure_line(a);
        c.set_word(a, WordState::Registered);
        assert!(c.downgrade_word(a, WordState::Shared));
        assert_eq!(c.word_state(a), WordState::Shared);
        assert!(!c.downgrade_word(a, WordState::Invalid));
        // Downgrading a non-resident line is a no-op.
        assert!(!c.downgrade_word(PAddr(0x4000), WordState::Invalid));
    }

    #[test]
    fn registered_words_enumerates_sorted() {
        let mut c = small();
        c.ensure_line(PAddr(0x1000));
        c.set_word(PAddr(0x1008), WordState::Registered);
        c.ensure_line(PAddr(0x0040));
        c.set_word(PAddr(0x0040), WordState::Registered);
        assert_eq!(c.registered_words(), vec![PAddr(0x0040), PAddr(0x1008)]);
    }

    #[test]
    fn resident_lines_counts_allocations() {
        let mut c = small();
        assert_eq!(c.resident_lines(), 0);
        c.ensure_line(PAddr(0x0000));
        c.ensure_line(PAddr(0x0040));
        c.ensure_line(PAddr(0x0000));
        assert_eq!(c.resident_lines(), 2);
    }
}
