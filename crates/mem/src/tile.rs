//! Strided tile descriptors — the `AddMap` parameters of Figure 2.
//!
//! An `AddMap(stashBase, globalBase, fieldSize, objectSize, rowSize,
//! strideSize, numStrides, isCoherent)` call describes a (possibly 2-D,
//! possibly strided) tile of an array-of-structs in the global address
//! space, of which only one field per object is mapped compactly into the
//! local memory. [`TileMap`] is that descriptor; both the stash-map and the
//! DMA engine consume it.

use crate::addr::{VAddr, WORD_BYTES};

/// Descriptor of a strided global tile mapped compactly into local memory.
///
/// Local (stash) offsets run over the tile's field bytes contiguously:
/// element `i` of the flattened tile occupies local bytes
/// `[i * field_bytes, (i+1) * field_bytes)`.
///
/// # Example
///
/// A 1-D slice of `myLen` structs mapping one 4-byte field (the paper's
/// Figure 1b call):
///
/// ```
/// use mem::addr::VAddr;
/// use mem::tile::TileMap;
///
/// let map = TileMap::new(VAddr(0x1000), 4, 16, 8, 0, 1).unwrap();
/// assert_eq!(map.total_elements(), 8);
/// assert_eq!(map.local_bytes(), 32);
/// // Element 3's field lives at globalBase + 3 * objectSize.
/// assert_eq!(map.virt_of_local_offset(12), VAddr(0x1000 + 3 * 16));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileMap {
    global_base: VAddr,
    field_bytes: u64,
    object_bytes: u64,
    row_elems: u64,
    row_stride_bytes: u64,
    rows: u64,
}

impl TileMap {
    /// Creates a tile descriptor.
    ///
    /// Parameters mirror `AddMap`: `field_bytes` of each `object_bytes`
    /// object are mapped; a row holds `row_elems` objects; consecutive rows
    /// start `row_stride_bytes` apart in global memory; there are `rows`
    /// rows (`numStrides`). A linear array is `rows == 1` (and
    /// `row_stride_bytes` is ignored; pass 0 like the paper's example).
    ///
    /// # Errors
    ///
    /// Returns a message if the geometry is inconsistent: zero sizes, a
    /// field larger than its object, word-misaligned sizes (the stash
    /// tracks coherence at word granularity; the paper's benchmarks have no
    /// byte-granularity accesses), or overlapping rows.
    pub fn new(
        global_base: VAddr,
        field_bytes: u64,
        object_bytes: u64,
        row_elems: u64,
        row_stride_bytes: u64,
        rows: u64,
    ) -> Result<Self, String> {
        if field_bytes == 0 || object_bytes == 0 || row_elems == 0 || rows == 0 {
            return Err("tile sizes must be nonzero".into());
        }
        if field_bytes > object_bytes {
            return Err(format!(
                "field ({field_bytes} B) larger than object ({object_bytes} B)"
            ));
        }
        if !field_bytes.is_multiple_of(WORD_BYTES) || !object_bytes.is_multiple_of(WORD_BYTES) {
            return Err("field and object sizes must be word multiples".into());
        }
        if !global_base.0.is_multiple_of(WORD_BYTES) {
            return Err("global base must be word aligned".into());
        }
        if rows > 1 && row_stride_bytes < row_elems * object_bytes {
            return Err("rows overlap: stride smaller than row".into());
        }
        Ok(Self {
            global_base,
            field_bytes,
            object_bytes,
            row_elems,
            row_stride_bytes,
            rows,
        })
    }

    /// The tile's global virtual base address.
    pub fn global_base(&self) -> VAddr {
        self.global_base
    }

    /// Mapped bytes per object.
    pub fn field_bytes(&self) -> u64 {
        self.field_bytes
    }

    /// Object size in the global array-of-structs.
    pub fn object_bytes(&self) -> u64 {
        self.object_bytes
    }

    /// Objects per row.
    pub fn row_elems(&self) -> u64 {
        self.row_elems
    }

    /// Number of rows (`numStrides`).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Bytes between consecutive row starts (`strideSize`; meaningful
    /// only when `rows > 1`).
    pub fn row_stride_bytes(&self) -> u64 {
        self.row_stride_bytes
    }

    /// Total mapped objects.
    pub fn total_elements(&self) -> u64 {
        self.rows * self.row_elems
    }

    /// Bytes the tile occupies in local (stash/scratchpad) space.
    pub fn local_bytes(&self) -> u64 {
        self.total_elements() * self.field_bytes
    }

    /// Words the tile occupies in local space.
    pub fn local_words(&self) -> u64 {
        self.local_bytes() / WORD_BYTES
    }

    /// Words per mapped field.
    pub fn words_per_field(&self) -> u64 {
        self.field_bytes / WORD_BYTES
    }

    /// Translates a local byte offset to its global virtual address — the
    /// paper's six-operation miss translation (§4.2).
    ///
    /// # Panics
    ///
    /// Panics if `local_off` is outside the tile.
    pub fn virt_of_local_offset(&self, local_off: u64) -> VAddr {
        assert!(
            local_off < self.local_bytes(),
            "local offset {local_off} outside tile of {} bytes",
            self.local_bytes()
        );
        let elem = local_off / self.field_bytes; // op 1
        let byte_in_field = local_off % self.field_bytes; // op 2
        let row = elem / self.row_elems; // op 3
        let col = elem % self.row_elems; // op 4
        let row_base = row * self.row_stride_bytes; // op 5
        let obj = col * self.object_bytes; // op 6
        self.global_base.add(row_base + obj + byte_in_field)
    }

    /// Reverse translation: the local byte offset holding global virtual
    /// address `va`, or `None` if `va` is not part of the mapped field
    /// bytes (it may be an unmapped field of the same object, or outside
    /// the tile entirely).
    pub fn local_offset_of_virt(&self, va: VAddr) -> Option<u64> {
        let off = va.0.checked_sub(self.global_base.0)?;
        let (row, within_row) = if self.rows == 1 {
            (0, off)
        } else {
            (off / self.row_stride_bytes, off % self.row_stride_bytes)
        };
        if row >= self.rows {
            return None;
        }
        let col = within_row / self.object_bytes;
        let byte_in_obj = within_row % self.object_bytes;
        if col >= self.row_elems || byte_in_obj >= self.field_bytes {
            return None;
        }
        let elem = row * self.row_elems + col;
        Some(elem * self.field_bytes + byte_in_obj)
    }

    /// Iterates over the global virtual address of every mapped element's
    /// field base, in local-offset order.
    pub fn iter_field_vaddrs(&self) -> impl Iterator<Item = VAddr> + '_ {
        (0..self.total_elements()).map(move |e| self.virt_of_local_offset(e * self.field_bytes))
    }

    /// The set of virtual pages the tile touches (sorted, deduplicated);
    /// its size bounds the VP-map entries the mapping needs.
    ///
    /// Costs the tile's rows and pages, not its elements: when no whole
    /// page fits between two fields (`object_bytes − field_bytes <
    /// page_bytes`), every page from a row's first byte to its last
    /// mapped byte holds a field byte, so the row is one page range.
    /// Only otherwise are the row's fields walked one by one.
    pub fn pages_touched(&self, page_bytes: u64) -> Vec<u64> {
        let gapless = self.object_bytes - self.field_bytes < page_bytes;
        let mut pages = Vec::new();
        for row in 0..self.rows {
            let row_base = self.global_base.add(row * self.row_stride_bytes);
            if gapless {
                let last =
                    row_base.add((self.row_elems - 1) * self.object_bytes + self.field_bytes - 1);
                pages.extend(row_base.page(page_bytes)..=last.page(page_bytes));
            } else {
                for col in 0..self.row_elems {
                    let field = row_base.add(col * self.object_bytes);
                    let last = field.add(self.field_bytes - 1);
                    pages.extend(field.page(page_bytes)..=last.page(page_bytes));
                }
            }
        }
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    /// Whether two tiles describe exactly the same global mapping — the
    /// §4.5 data-replication check compares "the tile specific parameters".
    pub fn same_mapping(&self, other: &TileMap) -> bool {
        self == other
    }

    /// Serializes the six `AddMap` parameters.
    pub fn save(&self, w: &mut sim::snapshot::Writer) {
        w.put_u64(self.global_base.0);
        w.put_u64(self.field_bytes);
        w.put_u64(self.object_bytes);
        w.put_u64(self.row_elems);
        w.put_u64(self.row_stride_bytes);
        w.put_u64(self.rows);
    }

    /// Restores a tile written by [`TileMap::save`], revalidating the
    /// geometry.
    pub fn load(r: &mut sim::snapshot::Reader<'_>) -> Result<Self, sim::SimError> {
        let global_base = VAddr(r.take_u64()?);
        let field_bytes = r.take_u64()?;
        let object_bytes = r.take_u64()?;
        let row_elems = r.take_u64()?;
        let row_stride_bytes = r.take_u64()?;
        let rows = r.take_u64()?;
        Self::new(
            global_base,
            field_bytes,
            object_bytes,
            row_elems,
            row_stride_bytes,
            rows,
        )
        .map_err(|detail| sim::SimError::CheckpointCorrupt {
            what: "tile map",
            detail,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::rng::SplitMix64;

    fn aos_1d() -> TileMap {
        // 8 objects of 16 B, one 4-B field mapped, linear.
        TileMap::new(VAddr(0x1000), 4, 16, 8, 0, 1).unwrap()
    }

    fn aos_2d() -> TileMap {
        // 4 rows × 8 objects of 32 B; rows are 1024 B apart; 8-B field.
        TileMap::new(VAddr(0x4000), 8, 32, 8, 1024, 4).unwrap()
    }

    #[test]
    fn forward_translation_1d() {
        let t = aos_1d();
        for e in 0..8 {
            assert_eq!(
                t.virt_of_local_offset(e * 4),
                VAddr(0x1000 + e * 16),
                "element {e}"
            );
        }
    }

    #[test]
    fn forward_translation_2d_strided() {
        let t = aos_2d();
        // Element (row 2, col 3): local offset (2*8+3)*8.
        let off = (2 * 8 + 3) * 8;
        assert_eq!(
            t.virt_of_local_offset(off),
            VAddr(0x4000 + 2 * 1024 + 3 * 32)
        );
        // Second word of that field.
        assert_eq!(
            t.virt_of_local_offset(off + 4),
            VAddr(0x4000 + 2 * 1024 + 3 * 32 + 4)
        );
    }

    #[test]
    fn reverse_inverts_forward() {
        for t in [aos_1d(), aos_2d()] {
            for off in (0..t.local_bytes()).step_by(4) {
                let va = t.virt_of_local_offset(off);
                assert_eq!(t.local_offset_of_virt(va), Some(off));
            }
        }
    }

    #[test]
    fn reverse_rejects_unmapped_bytes() {
        let t = aos_1d();
        // The 12 unmapped bytes of each object are not in the stash.
        assert_eq!(t.local_offset_of_virt(VAddr(0x1000 + 4)), None);
        assert_eq!(t.local_offset_of_virt(VAddr(0x1000 + 15)), None);
        // Below the base and past the tile.
        assert_eq!(t.local_offset_of_virt(VAddr(0xFFF)), None);
        assert_eq!(t.local_offset_of_virt(VAddr(0x1000 + 8 * 16)), None);
    }

    #[test]
    fn compaction_factor() {
        let t = aos_1d();
        // 8 * 4 = 32 local bytes represent 8 * 16 = 128 global bytes.
        assert_eq!(t.local_bytes(), 32);
        assert_eq!(t.total_elements() * t.object_bytes(), 128);
    }

    #[test]
    fn pages_touched_spans_strides() {
        let t = aos_2d();
        // Rows at 0x4000, 0x4400, 0x4800, 0x4C00: all within page 4 (4 KB).
        assert_eq!(t.pages_touched(4096), vec![4]);
        // With 1 KB pages each row is its own page.
        assert_eq!(t.pages_touched(1024), vec![16, 17, 18, 19]);
    }

    /// The reference page set: every page of every element's field.
    fn pages_by_element(t: &TileMap, page_bytes: u64) -> Vec<u64> {
        let mut pages: Vec<u64> = t
            .iter_field_vaddrs()
            .flat_map(|va| va.page(page_bytes)..=va.add(t.field_bytes() - 1).page(page_bytes))
            .collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    #[test]
    fn pages_touched_matches_the_element_walk() {
        let mut rng = SplitMix64::new(0x7113);
        let (mut cases, mut page_wide_gaps) = (0u64, 0u64);
        for _ in 0..8000 {
            let field = 4 * (1 + rng.next_below(16));
            // Up to ~12 KiB past the field, log-spread so that gaps both
            // narrower and wider than a page are common.
            let spread = 3 << rng.next_below(11);
            let object = field + 4 * rng.next_below(spread);
            let row_elems = 1 + rng.next_below(300);
            let rows = 1 + rng.next_below(8);
            let stride = row_elems * object + rng.next_below(8193);
            let base = VAddr(4 * rng.next_below(1 << 18));
            let t = TileMap::new(base, field, object, row_elems, stride, rows).unwrap();
            for page_bytes in (6..=12).map(|shift| 1u64 << shift) {
                cases += 1;
                if object - field >= page_bytes {
                    page_wide_gaps += 1;
                }
                assert_eq!(
                    t.pages_touched(page_bytes),
                    pages_by_element(&t, page_bytes),
                    "{t:?} over {page_bytes} B pages"
                );
            }
        }
        // Both the page-range rows and the field-walked rows ran.
        assert!(
            (cases / 10..cases * 9 / 10).contains(&page_wide_gaps),
            "{page_wide_gaps} of {cases} cases had a page-wide gap"
        );
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(TileMap::new(VAddr(0), 8, 4, 1, 0, 1).is_err()); // field > object
        assert!(TileMap::new(VAddr(0), 0, 4, 1, 0, 1).is_err()); // zero field
        assert!(TileMap::new(VAddr(0), 3, 16, 1, 0, 1).is_err()); // not word multiple
        assert!(TileMap::new(VAddr(1), 4, 16, 1, 0, 1).is_err()); // misaligned base
        assert!(TileMap::new(VAddr(0), 4, 16, 8, 64, 2).is_err()); // overlapping rows
    }

    #[test]
    fn same_mapping_detects_replication() {
        let a = aos_2d();
        let b = TileMap::new(VAddr(0x4000), 8, 32, 8, 1024, 4).unwrap();
        let c = TileMap::new(VAddr(0x4000), 8, 32, 8, 1024, 2).unwrap();
        assert!(a.same_mapping(&b));
        assert!(!a.same_mapping(&c));
    }
}
