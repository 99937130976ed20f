//! Typed addresses.
//!
//! The stash design distinguishes three address spaces: the *stash/local*
//! space (a small direct offset), the *global virtual* space the program
//! names, and the *physical* space the LLC and registry operate on. Using
//! newtypes for the latter two makes it impossible to, say, index the
//! registry with a virtual address — the class of bug the VP-map exists to
//! prevent in hardware.
//!
//! # Power-of-two geometry
//!
//! Every size the helpers below take — an alignment, a line size, a page
//! size — must be a power of two, which [`sim::config::SystemConfig::validate`]
//! already requires of the line and page sizes the machine is built
//! with. The helpers run on every lane of every warp access, so they
//! compute with a mask or a shift instead of a hardware divide; a size
//! that is not a power of two is a bug in the caller, caught by a
//! `debug_assert!` in debug and test builds. A unit test pins each helper
//! to its division form for every power of two from 4 B to 2^30 B.

/// Bytes per word; the stash and DeNovo track coherence at this granularity.
pub const WORD_BYTES: u64 = 4;

/// A global *virtual* address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VAddr(pub u64);

/// A global *physical* address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PAddr(pub u64);

/// A physical address of an aligned cache line (the tag+index part).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

macro_rules! addr_common {
    ($t:ty) => {
        impl $t {
            /// Byte offset within an `align`-byte aligned block; `align` is
            /// a power of two.
            #[inline]
            pub fn offset_in(self, align: u64) -> u64 {
                debug_assert!(
                    align.is_power_of_two(),
                    "alignment {align} is not a power of two"
                );
                self.0 & (align - 1)
            }

            /// This address rounded down to an `align`-byte boundary;
            /// `align` is a power of two.
            #[inline]
            pub fn align_down(self, align: u64) -> Self {
                debug_assert!(
                    align.is_power_of_two(),
                    "alignment {align} is not a power of two"
                );
                Self(self.0 & !(align - 1))
            }

            /// The word index within a line of `line_bytes` bytes, a power
            /// of two.
            #[inline]
            pub fn word_in_line(self, line_bytes: u64) -> usize {
                (self.offset_in(line_bytes) / WORD_BYTES) as usize
            }

            /// Adds a byte offset. (Named like arithmetic deliberately;
            /// addresses are not `std::ops::Add` — offsets are untyped.)
            #[allow(clippy::should_implement_trait)]
            pub fn add(self, bytes: u64) -> Self {
                Self(self.0 + bytes)
            }
        }

        impl std::fmt::Display for $t {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }
    };
}

addr_common!(VAddr);
addr_common!(PAddr);

impl VAddr {
    /// The virtual page number for `page_bytes` pages, a power of two.
    #[inline]
    pub fn page(self, page_bytes: u64) -> u64 {
        page_number(self.0, page_bytes)
    }
}

impl PAddr {
    /// The physical page (frame) number for `page_bytes` pages, a power
    /// of two.
    #[inline]
    pub fn frame(self, page_bytes: u64) -> u64 {
        page_number(self.0, page_bytes)
    }

    /// The aligned line containing this address; `line_bytes` is a power
    /// of two.
    #[inline]
    pub fn line(self, line_bytes: u64) -> LineAddr {
        LineAddr(self.align_down(line_bytes).0)
    }
}

/// `addr / page_bytes` for a power-of-two `page_bytes`, as a shift.
#[inline]
fn page_number(addr: u64, page_bytes: u64) -> u64 {
    debug_assert!(
        page_bytes.is_power_of_two(),
        "page size {page_bytes} is not a power of two"
    );
    addr >> page_bytes.trailing_zeros()
}

impl LineAddr {
    /// The physical address of word `word` within this line.
    pub fn word_addr(self, word: usize) -> PAddr {
        PAddr(self.0 + word as u64 * WORD_BYTES)
    }
}

impl std::fmt::Display for LineAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_helpers() {
        let a = PAddr(0x1234);
        assert_eq!(a.align_down(64).0, 0x1200);
        assert_eq!(a.offset_in(64), 0x34);
        assert_eq!(a.word_in_line(64), 0x34 / 4);
    }

    #[test]
    fn line_and_word_round_trip() {
        let a = PAddr(0x1040 + 5 * WORD_BYTES);
        let line = a.line(64);
        assert_eq!(line.0, 0x1040);
        assert_eq!(line.word_addr(5), PAddr(a.0));
    }

    #[test]
    fn pages_and_frames() {
        assert_eq!(VAddr(0x2FFF).page(4096), 2);
        assert_eq!(VAddr(0x3000).page(4096), 3);
        assert_eq!(PAddr(0x7FFF).frame(4096), 7);
    }

    #[test]
    fn mask_and_shift_equal_their_division_forms() {
        let mut rng = sim::rng::SplitMix64::new(0x00ad_d4e5);
        for shift in 2..=30 {
            let size = 1u64 << shift;
            // Both sides of every boundary near zero and near the top of
            // the 48-bit space, then random addresses across it.
            let edges = [0, 1, size - 1, size, size + 1, 3 * size - 1, (1 << 48) - 1];
            let random = (0..256).map(|_| rng.next_below(1 << 48));
            for a in edges.into_iter().chain(random) {
                let (va, pa) = (VAddr(a), PAddr(a));
                assert_eq!(va.offset_in(size), a % size, "offset_in({a:#x}, {size})");
                assert_eq!(pa.offset_in(size), a % size, "offset_in({a:#x}, {size})");
                assert_eq!(
                    va.align_down(size).0,
                    a - a % size,
                    "align_down({a:#x}, {size})"
                );
                assert_eq!(
                    pa.align_down(size).0,
                    a - a % size,
                    "align_down({a:#x}, {size})"
                );
                let word = ((a % size) / WORD_BYTES) as usize;
                assert_eq!(va.word_in_line(size), word, "word_in_line({a:#x}, {size})");
                assert_eq!(pa.word_in_line(size), word, "word_in_line({a:#x}, {size})");
                assert_eq!(va.page(size), a / size, "page({a:#x}, {size})");
                assert_eq!(pa.frame(size), a / size, "frame({a:#x}, {size})");
                assert_eq!(pa.line(size).0, a - a % size, "line({a:#x}, {size})");
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not a power of two")]
    fn a_size_that_is_not_a_power_of_two_is_caught() {
        let _ = PAddr(0x1234).line(48);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(VAddr(255).to_string(), "0xff");
        assert_eq!(LineAddr(64).to_string(), "0x40");
    }
}
