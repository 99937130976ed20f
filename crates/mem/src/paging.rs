//! Demand-allocating page table.
//!
//! The simulator allocates physical frames on first touch, so any virtual
//! address a workload names is backed deterministically. Frames are handed
//! out sequentially but *shuffled within a window* relative to virtual
//! order, so physically indexed structures (L2 bank interleaving) see a
//! realistic, non-identity layout while runs stay reproducible.
//!
//! There is no TLB structure. The paper does not model TLB misses ("all
//! our TLB accesses are charged as if they are hits"), so the memory
//! system charges Table 3's 14.1 pJ TLB energy per GPU L1 transaction
//! and per stash translation, and the stash's TLB is its VP-map.

use crate::addr::{PAddr, VAddr};
use std::collections::HashMap;
use std::sync::Arc;

/// Frame-table sentinel for "page not mapped".
const NO_FRAME: u64 = u64::MAX;

/// Virtual pages below this index live in the direct-indexed table; the
/// workloads' address spaces are dense and low, so in practice every
/// translation is one array read. Higher (pathological) pages spill to a
/// hash map so correctness never depends on the window.
const DIRECT_PAGES: u64 = 1 << 20;

/// A demand-allocating page table.
///
/// # Example
///
/// ```
/// use mem::addr::VAddr;
/// use mem::paging::PageTable;
///
/// let mut pt = PageTable::new(4096);
/// let a = pt.translate(VAddr(0x0));
/// let b = pt.translate(VAddr(0x1000));
/// assert_ne!(a.frame(4096), b.frame(4096));
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    page_bytes: u64,
    /// Direct-indexed page → frame table ([`NO_FRAME`] = unmapped),
    /// grown on demand: the hot translation path is a single indexed
    /// read, no hashing. Behind an `Arc` so cloning a page table — the
    /// parallel shard runner snapshots one per CU per kernel, and its
    /// pre-touch pass guarantees shards never allocate — shares the
    /// table instead of copying it; the first insert after a clone
    /// copies on write.
    frames: Arc<Vec<u64>>,
    /// Sparse spill for pages at or beyond [`DIRECT_PAGES`].
    spill: HashMap<u64, u64>,
    mapped: usize,
    next_frame: u64,
}

impl PageTable {
    /// Creates a page table with the given page size.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two.
    pub fn new(page_bytes: u64) -> Self {
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Self {
            page_bytes,
            frames: Arc::new(Vec::new()),
            spill: HashMap::new(),
            mapped: 0,
            next_frame: 16, // leave low frames unused, like a real kernel
        }
    }

    #[inline]
    fn lookup(&self, page: u64) -> Option<u64> {
        if page < DIRECT_PAGES {
            match self.frames.get(page as usize) {
                Some(&f) if f != NO_FRAME => Some(f),
                _ => None,
            }
        } else {
            self.spill.get(&page).copied()
        }
    }

    fn insert(&mut self, page: u64, frame: u64) {
        if page < DIRECT_PAGES {
            let idx = page as usize;
            let frames = Arc::make_mut(&mut self.frames);
            if idx >= frames.len() {
                frames.resize(idx + 1, NO_FRAME);
            }
            frames[idx] = frame;
        } else {
            self.spill.insert(page, frame);
        }
        self.mapped += 1;
    }

    /// Translates a virtual address, allocating a frame on first touch.
    pub fn translate(&mut self, va: VAddr) -> PAddr {
        let page = va.page(self.page_bytes);
        let frame = match self.lookup(page) {
            Some(f) => f,
            None => {
                // Mix the frame number so physical bank interleaving does
                // not mirror virtual order exactly; keep it bijective.
                let f = self.next_frame ^ (self.next_frame >> 1 & 0x3);
                self.insert(page, f);
                self.next_frame += 1;
                f
            }
        };
        PAddr(frame * self.page_bytes + va.offset_in(self.page_bytes))
    }

    /// Translates without allocating; `None` if the page was never touched.
    pub fn try_translate(&self, va: VAddr) -> Option<PAddr> {
        let page = va.page(self.page_bytes);
        self.lookup(page)
            .map(|f| PAddr(f * self.page_bytes + va.offset_in(self.page_bytes)))
    }

    /// Number of pages mapped so far.
    pub fn mapped_pages(&self) -> usize {
        self.mapped
    }

    /// Serializes the table sparsely: only mapped `(page, frame)` pairs
    /// (direct window and spill alike), plus the allocation cursor. The
    /// page size is configuration, fixed when the table is built, so it
    /// is not saved.
    pub fn save(&self, w: &mut sim::snapshot::Writer) {
        w.put_u64(self.next_frame);
        let direct = self
            .frames
            .iter()
            .enumerate()
            .filter(|(_, &f)| f != NO_FRAME)
            .map(|(p, &f)| (p as u64, f));
        let mut spill: Vec<(u64, u64)> = self.spill.iter().map(|(&p, &f)| (p, f)).collect();
        spill.sort_unstable();
        let pairs: Vec<(u64, u64)> = direct.chain(spill).collect();
        w.put_usize(pairs.len());
        for (page, frame) in pairs {
            w.put_u64(page);
            w.put_u64(frame);
        }
    }

    /// Reads mappings written by [`PageTable::save`] into this table,
    /// which must be empty and built with the saved table's page size.
    pub fn restore(&mut self, r: &mut sim::snapshot::Reader<'_>) -> Result<(), sim::SimError> {
        let next_frame = r.take_u64()?;
        let n = r.take_usize()?;
        for _ in 0..n {
            let page = r.take_u64()?;
            let frame = r.take_u64()?;
            if frame == NO_FRAME {
                return Err(sim::SimError::CheckpointCorrupt {
                    what: "page table",
                    detail: format!("page {page:#x} maps to the unmapped sentinel"),
                });
            }
            self.insert(page, frame);
        }
        self.next_frame = next_frame;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translation_is_stable() {
        let mut pt = PageTable::new(4096);
        let a1 = pt.translate(VAddr(0x1234));
        let a2 = pt.translate(VAddr(0x1234));
        assert_eq!(a1, a2);
    }

    #[test]
    fn offsets_survive_translation() {
        let mut pt = PageTable::new(4096);
        let pa = pt.translate(VAddr(0x5678));
        assert_eq!(pa.offset_in(4096), 0x678);
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut pt = PageTable::new(4096);
        let frames: Vec<u64> = (0..64)
            .map(|p| pt.translate(VAddr(p * 4096)).frame(4096))
            .collect();
        let mut dedup = frames.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            frames.len(),
            "frame allocation must be injective"
        );
    }

    #[test]
    fn try_translate_does_not_allocate() {
        let mut pt = PageTable::new(4096);
        assert_eq!(pt.try_translate(VAddr(0x9000)), None);
        pt.translate(VAddr(0x9000));
        assert!(pt.try_translate(VAddr(0x9000)).is_some());
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn page_table_round_trips_through_snapshot() {
        let mut pt = PageTable::new(4096);
        for p in 0..100u64 {
            pt.translate(VAddr(p * 4096 * 7));
        }
        // Force a spill-map entry too.
        pt.translate(VAddr((DIRECT_PAGES + 5) * 4096));
        let mut w = sim::snapshot::Writer::new();
        pt.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = sim::snapshot::Reader::new(&bytes, "page table");
        let mut restored = PageTable::new(4096);
        restored.restore(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.mapped_pages(), pt.mapped_pages());
        for p in 0..100u64 {
            let va = VAddr(p * 4096 * 7);
            assert_eq!(restored.try_translate(va), pt.try_translate(va));
        }
        let spill_va = VAddr((DIRECT_PAGES + 5) * 4096);
        assert_eq!(restored.try_translate(spill_va), pt.try_translate(spill_va));
        // Allocation resumes from the same cursor: the next fresh page
        // must get the same frame either way.
        assert_eq!(
            restored.translate(VAddr(0xDEAD_0000)),
            pt.translate(VAddr(0xDEAD_0000))
        );
    }

    #[test]
    fn page_table_restore_rejects_sentinel_frame() {
        let mut w = sim::snapshot::Writer::new();
        w.put_u64(16);
        w.put_usize(1);
        w.put_u64(3);
        w.put_u64(NO_FRAME);
        let bytes = w.into_bytes();
        let mut r = sim::snapshot::Reader::new(&bytes, "page table");
        assert!(matches!(
            PageTable::new(4096).restore(&mut r),
            Err(sim::SimError::CheckpointCorrupt { .. })
        ));
    }
}
