//! The scratchpad: directly addressed, banked, software-managed SRAM.
//!
//! A scratchpad access needs no tags, no TLB and never misses (§1.2); its
//! model is therefore mostly bookkeeping: per-thread-block allocation of
//! the 16 KB space, bank-conflict arithmetic for warp accesses, and an
//! access counter for the energy model. Data values are not simulated —
//! the memory system's behaviour depends only on addresses and states.

use crate::addr::WORD_BYTES;
use sim::SimError;

/// A banked scratchpad (CUDA "shared memory").
///
/// # Example
///
/// ```
/// use mem::scratchpad::Scratchpad;
///
/// let mut sp = Scratchpad::new(16 * 1024, 32);
/// let alloc = sp.alloc(1024).unwrap();
/// sp.access(alloc, 0);
/// assert_eq!(sp.accesses(), 1);
/// sp.free_all(); // end of kernel: scratchpad contents are discarded
/// ```
#[derive(Debug, Clone)]
pub struct Scratchpad {
    capacity_bytes: usize,
    /// One zeroed counter per bank, for [`busiest_bank`].
    bank_counts: Vec<u32>,
    allocated_bytes: usize,
    accesses: u64,
}

/// The bank-conflict degree of one warp access: the most words any one
/// bank receives, where word `w` sits in bank `w % counts.len()` (words
/// interleave across banks); 0 for no words. `counts` holds one zeroed
/// counter per bank and is left zeroed, so one buffer serves every
/// access of a scratchpad or stash without allocating.
///
/// # Example
///
/// ```
/// use mem::scratchpad::busiest_bank;
///
/// let mut counts = vec![0; 32];
/// // Stride of 2 words: 32 lanes land on 16 even banks, two per bank.
/// assert_eq!(busiest_bank((0..32).map(|i| i * 2), &mut counts), 2);
/// assert!(counts.iter().all(|&c| c == 0));
/// ```
///
/// # Panics
///
/// Panics if `counts` is empty and `words` is not.
pub fn busiest_bank(words: impl Iterator<Item = usize>, counts: &mut [u32]) -> u64 {
    let banks = counts.len();
    let mut busiest = 0;
    for w in words {
        let count = &mut counts[w % banks];
        *count += 1;
        busiest = busiest.max(*count);
    }
    // Zeroing every counter costs less than a second divide per word.
    counts.fill(0);
    u64::from(busiest)
}

impl Scratchpad {
    /// Creates a scratchpad of `capacity_bytes` with `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(capacity_bytes: usize, banks: usize) -> Self {
        assert!(
            capacity_bytes > 0 && banks > 0,
            "scratchpad needs nonzero capacity and banks \
             (got {capacity_bytes} B, {banks} banks)"
        );
        Self {
            capacity_bytes,
            bank_counts: vec![0; banks],
            allocated_bytes: 0,
            accesses: 0,
        }
    }

    /// Bytes currently allocated.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated_bytes
    }

    /// Allocates `bytes` (word-aligned up) for a thread block and returns
    /// the base offset.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfRange`] if the space does not fit — the
    /// runtime would then limit thread-block occupancy, which the GPU
    /// model handles.
    pub fn alloc(&mut self, bytes: usize) -> Result<usize, SimError> {
        let bytes = bytes.next_multiple_of(WORD_BYTES as usize);
        if self.allocated_bytes + bytes > self.capacity_bytes {
            return Err(SimError::OutOfRange {
                what: "scratchpad allocation",
                offset: self.allocated_bytes + bytes,
                size: self.capacity_bytes,
            });
        }
        let base = self.allocated_bytes;
        self.allocated_bytes += bytes;
        Ok(base)
    }

    /// Frees every allocation (end of kernel — scratchpad data does not
    /// survive kernel boundaries, §1.2).
    pub fn free_all(&mut self) {
        self.allocated_bytes = 0;
    }

    /// Records one access at `base + offset`.
    ///
    /// # Panics
    ///
    /// Panics if the access is outside the allocated space.
    pub fn access(&mut self, base: usize, offset: usize) {
        assert!(
            base + offset < self.allocated_bytes.max(1),
            "scratchpad access at {}+{} outside {} allocated bytes",
            base,
            offset,
            self.allocated_bytes
        );
        self.accesses += 1;
    }

    /// Total accesses recorded.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of serialized bank cycles a warp's lane byte offsets need:
    /// the most lanes hitting one bank (bank conflicts serialize), at
    /// least 1.
    pub fn conflict_cycles(&mut self, lane_offsets: impl Iterator<Item = usize>) -> u64 {
        let words = lane_offsets.map(|off| off / WORD_BYTES as usize);
        busiest_bank(words, &mut self.bank_counts).max(1)
    }

    /// Serializes the allocation watermark and the access tally. The
    /// capacity and bank count are configuration, fixed when the
    /// scratchpad is built, so they are not saved.
    pub fn save(&self, w: &mut sim::snapshot::Writer) {
        w.put_usize(self.allocated_bytes);
        w.put_u64(self.accesses);
    }

    /// Reads state written by [`Scratchpad::save`] into this scratchpad.
    ///
    /// # Errors
    ///
    /// [`SimError::CheckpointCorrupt`] if the saved watermark exceeds this
    /// scratchpad's capacity.
    pub fn restore(&mut self, r: &mut sim::snapshot::Reader<'_>) -> Result<(), SimError> {
        let allocated_bytes = r.take_usize()?;
        if allocated_bytes > self.capacity_bytes {
            return Err(SimError::CheckpointCorrupt {
                what: "scratchpad",
                detail: format!(
                    "{allocated_bytes} allocated of {} capacity",
                    self.capacity_bytes
                ),
            });
        }
        self.allocated_bytes = allocated_bytes;
        self.accesses = r.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp() -> Scratchpad {
        Scratchpad::new(16 * 1024, 32)
    }

    #[test]
    fn alloc_and_exhaust() {
        let mut s = sp();
        let a = s.alloc(8 * 1024).unwrap();
        let b = s.alloc(8 * 1024).unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 8 * 1024);
        match s.alloc(4) {
            Err(SimError::OutOfRange { offset, size, .. }) => {
                assert_eq!(offset, 16 * 1024 + 4);
                assert_eq!(size, 16 * 1024);
            }
            other => panic!("expected OutOfRange, got {other:?}"),
        }
        s.free_all();
        assert_eq!(s.alloc(16 * 1024).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "nonzero capacity and banks")]
    fn zero_capacity_is_refused() {
        let _ = Scratchpad::new(0, 32);
    }

    #[test]
    #[should_panic(expected = "nonzero capacity and banks")]
    fn zero_banks_are_refused() {
        let _ = Scratchpad::new(1024, 0);
    }

    #[test]
    fn alloc_rounds_to_words() {
        let mut s = sp();
        s.alloc(3).unwrap();
        assert_eq!(s.allocated_bytes(), 4);
    }

    #[test]
    fn conflict_free_stride_one() {
        let mut s = sp();
        // 32 consecutive words -> 32 distinct banks -> 1 cycle.
        assert_eq!(s.conflict_cycles((0..32).map(|i| i * 4)), 1);
    }

    #[test]
    fn same_bank_serializes() {
        let mut s = sp();
        // Stride of 32 words: every lane hits bank 0.
        assert_eq!(s.conflict_cycles((0..32).map(|i| i * 32 * 4)), 32);
        // The counters are reset: the next access sees no conflict.
        assert_eq!(s.conflict_cycles((0..32).map(|i| i * 4)), 1);
    }

    #[test]
    fn two_way_conflict() {
        let mut s = sp();
        // Stride of 2 words: 32 lanes land on 16 even banks, two per bank.
        assert_eq!(s.conflict_cycles((0..32).map(|i| i * 2 * 4)), 2);
    }

    #[test]
    fn no_lanes_cost_one_cycle() {
        assert_eq!(sp().conflict_cycles(std::iter::empty()), 1);
        assert_eq!(busiest_bank(std::iter::empty(), &mut [0; 4]), 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_access_panics() {
        let mut s = sp();
        let base = s.alloc(64).unwrap();
        s.access(base, 64);
    }

    #[test]
    fn scratchpad_round_trips_through_snapshot() {
        let mut s = sp();
        let base = s.alloc(256).unwrap();
        s.access(base, 0);
        s.access(base, 8);
        let mut w = sim::snapshot::Writer::new();
        s.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = sim::snapshot::Reader::new(&bytes, "scratchpad");
        let mut restored = sp();
        restored.restore(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.allocated_bytes(), s.allocated_bytes());
        assert_eq!(restored.accesses(), s.accesses());
    }

    #[test]
    fn scratchpad_restore_rejects_overcommit() {
        let mut w = sim::snapshot::Writer::new();
        w.put_usize(32 * 1024); // allocated > the 16 KiB capacity
        w.put_u64(0);
        let bytes = w.into_bytes();
        let mut r = sim::snapshot::Reader::new(&bytes, "scratchpad");
        assert!(matches!(
            sp().restore(&mut r),
            Err(SimError::CheckpointCorrupt { .. })
        ));
    }
}
