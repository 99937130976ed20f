//! The VP-map: virtual↔physical translations for mapped stash data
//! (§4.1.4).
//!
//! Stash misses and writebacks need forward (virtual → physical)
//! translations; remote requests arrive with a physical address and need
//! the *reverse* translation. The paper keeps a TLB and a CAM-organized
//! reverse TLB (RTLB), each entry carrying a back-pointer to the **latest**
//! stash-map entry that requires the translation: when that map entry is
//! replaced the translations are reclaimable, and by keeping each entry
//! until the last mapping using it is removed, *the RTLB never misses on a
//! remote request* — a guarantee the property tests in this crate drive.
//!
//! Footnote 3 of the paper notes the two structures can be merged to save
//! area; this model does exactly that — one table searched by either key,
//! which charges the same events as split structures.

use crate::map::MapIndex;
use mem::addr::{PAddr, VAddr};
use sim::SimError;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct VpEntry {
    vpage: u64,
    /// Physical frame; `None` until the translation is acquired at the
    /// first stash miss ("if the translation does not exist in the TLB,
    /// the physical translation is acquired at the subsequent stash miss").
    frame: Option<u64>,
    /// Back-pointer: the latest stash-map entry needing this translation.
    last_user: MapIndex,
}

/// The merged TLB + RTLB of the stash (64 entries in the paper).
///
/// # Example
///
/// ```
/// use mem::addr::{PAddr, VAddr};
/// use stash::map::MapIndex;
/// use stash::vpmap::VpMap;
///
/// let mut vp = VpMap::new(64, 4096);
/// vp.add_page(MapIndex(0), 5, Some(9)).unwrap();
/// assert_eq!(vp.translate(VAddr(5 * 4096 + 12)), Some(PAddr(9 * 4096 + 12)));
/// assert_eq!(vp.reverse(PAddr(9 * 4096 + 12)), Some(VAddr(5 * 4096 + 12)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VpMap {
    entries: Vec<VpEntry>,
    capacity: usize,
    page_bytes: u64,
}

impl VpMap {
    /// Creates a VP-map with `capacity` entries over `page_bytes` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `page_bytes` is not a power of two.
    pub fn new(capacity: usize, page_bytes: u64) -> Self {
        assert!(capacity > 0);
        assert!(page_bytes.is_power_of_two());
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            page_bytes,
        }
    }

    /// Registers that map entry `user` needs virtual page `vpage`, with
    /// physical frame `frame` if the system TLB already knows it.
    ///
    /// An existing entry for the page just has its back-pointer advanced
    /// to `user` (and its frame filled in if newly known).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TableFull`] when the VP-map has no free entry;
    /// the caller ([`crate::Stash`]) then evicts stash-map entries to
    /// reclaim translations, per §4.2.
    pub fn add_page(
        &mut self,
        user: MapIndex,
        vpage: u64,
        frame: Option<u64>,
    ) -> Result<(), SimError> {
        if let Some(e) = self.entries.iter_mut().find(|e| e.vpage == vpage) {
            e.last_user = user;
            if e.frame.is_none() {
                e.frame = frame;
            }
            return Ok(());
        }
        if self.entries.len() == self.capacity {
            return Err(SimError::TableFull {
                table: "VP-map",
                capacity: self.capacity,
            });
        }
        self.entries.push(VpEntry {
            vpage,
            frame,
            last_user: user,
        });
        Ok(())
    }

    /// Fills in the physical frame for `vpage` (acquired at a stash miss).
    pub fn fill_translation(&mut self, vpage: u64, frame: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.vpage == vpage) {
            e.frame = Some(frame);
        }
    }

    /// Forward translation (TLB): virtual → physical.
    pub fn translate(&self, va: VAddr) -> Option<PAddr> {
        let vpage = va.page(self.page_bytes);
        self.entries
            .iter()
            .find(|e| e.vpage == vpage)
            .and_then(|e| e.frame)
            .map(|f| PAddr(f * self.page_bytes + va.offset_in(self.page_bytes)))
    }

    /// Reverse translation (RTLB): physical → virtual. For remote requests
    /// this must never miss; see the crate's property tests.
    pub fn reverse(&self, pa: PAddr) -> Option<VAddr> {
        let frame = pa.frame(self.page_bytes);
        self.entries
            .iter()
            .find(|e| e.frame == Some(frame))
            .map(|e| VAddr(e.vpage * self.page_bytes + pa.offset_in(self.page_bytes)))
    }

    /// Releases `removed`'s translations, *reassigning* any page that a
    /// still-valid mapping needs (per `still_needed_by`) instead of
    /// dropping it.
    ///
    /// Stash-map entries do not strictly retire in FIFO order — a clean
    /// entry goes invalid as soon as its thread block ends (§4.2), so a
    /// short-lived newer mapping can hold a page's back-pointer and die
    /// before an older, still-dirty mapping that shares the page. Plain
    /// removal would then break the "RTLB never misses on a remote
    /// request" guarantee; the walk re-homes such pages instead.
    pub fn release(
        &mut self,
        removed: MapIndex,
        mut still_needed_by: impl FnMut(u64) -> Option<MapIndex>,
    ) {
        self.entries.retain_mut(|e| {
            if e.last_user != removed {
                return true;
            }
            match still_needed_by(e.vpage) {
                Some(idx) => {
                    e.last_user = idx;
                    true
                }
                None => false,
            }
        });
    }

    /// Occupied entries.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Free entries.
    pub fn free(&self) -> usize {
        self.capacity - self.entries.len()
    }

    /// Whether `vpage` is currently covered.
    pub fn covers_page(&self, vpage: u64) -> bool {
        self.entries.iter().any(|e| e.vpage == vpage)
    }

    /// The stash-map entry `vpage`'s back-pointer names, if covered.
    #[cfg(test)]
    pub(crate) fn back_pointer(&self, vpage: u64) -> Option<MapIndex> {
        self.entries
            .iter()
            .find(|e| e.vpage == vpage)
            .map(|e| e.last_user)
    }

    /// Serializes the live entries in table order. The capacity and
    /// page size are configuration, fixed when the map is built, so they
    /// are not saved.
    pub fn save(&self, w: &mut sim::snapshot::Writer) {
        w.put_usize(self.entries.len());
        for e in &self.entries {
            w.put_u64(e.vpage);
            match e.frame {
                None => w.put_u8(0),
                Some(f) => {
                    w.put_u8(1);
                    w.put_u64(f);
                }
            }
            w.put_u8(e.last_user.0);
        }
    }

    /// Reads entries written by [`VpMap::save`] into this map, built
    /// with the saved map's capacity and page size.
    pub fn restore(&mut self, r: &mut sim::snapshot::Reader<'_>) -> Result<(), SimError> {
        let corrupt = |detail: String| SimError::CheckpointCorrupt {
            what: "vp map",
            detail,
        };
        let n = r.take_usize()?;
        if n > self.capacity {
            return Err(corrupt(format!(
                "{n} entries exceed capacity {}",
                self.capacity
            )));
        }
        self.entries.clear();
        for _ in 0..n {
            let vpage = r.take_u64()?;
            let frame = match r.take_u8()? {
                0 => None,
                1 => Some(r.take_u64()?),
                v => return Err(corrupt(format!("unknown frame code {v}"))),
            };
            self.entries.push(VpEntry {
                vpage,
                frame,
                last_user: MapIndex(r.take_u8()?),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vp() -> VpMap {
        VpMap::new(4, 4096)
    }

    #[test]
    fn translate_both_ways() {
        let mut v = vp();
        v.add_page(MapIndex(0), 10, Some(3)).unwrap();
        let va = VAddr(10 * 4096 + 100);
        let pa = PAddr(3 * 4096 + 100);
        assert_eq!(v.translate(va), Some(pa));
        assert_eq!(v.reverse(pa), Some(va));
    }

    #[test]
    fn pending_translation_filled_later() {
        let mut v = vp();
        v.add_page(MapIndex(1), 7, None).unwrap();
        assert_eq!(v.translate(VAddr(7 * 4096)), None);
        v.fill_translation(7, 2);
        assert_eq!(v.translate(VAddr(7 * 4096)), Some(PAddr(2 * 4096)));
        assert_eq!(v.reverse(PAddr(2 * 4096)), Some(VAddr(7 * 4096)));
    }

    #[test]
    fn back_pointer_advances_to_latest_user() {
        let mut v = vp();
        v.add_page(MapIndex(0), 5, Some(1)).unwrap();
        v.add_page(MapIndex(1), 5, Some(1)).unwrap();
        // Releasing the *older* user must keep the shared page alive,
        // even with no other mapping left to re-home it to.
        v.release(MapIndex(0), |_| None);
        assert!(v.covers_page(5));
        v.release(MapIndex(1), |_| None);
        assert!(!v.covers_page(5));
    }

    #[test]
    fn capacity_overflow_reports_table_full() {
        let mut v = vp();
        for p in 0..4 {
            v.add_page(MapIndex(0), p, Some(p)).unwrap();
        }
        assert!(matches!(
            v.add_page(MapIndex(0), 99, Some(99)),
            Err(SimError::TableFull {
                table: "VP-map",
                ..
            })
        ));
        // Re-adding a covered page is not an overflow.
        v.add_page(MapIndex(2), 3, Some(3)).unwrap();
        assert_eq!(v.occupancy(), 4);
        assert_eq!(v.free(), 0);
    }

    #[test]
    fn reverse_misses_only_for_unknown_frames() {
        let mut v = vp();
        v.add_page(MapIndex(0), 1, Some(8)).unwrap();
        assert_eq!(v.reverse(PAddr(9 * 4096)), None);
    }
}
