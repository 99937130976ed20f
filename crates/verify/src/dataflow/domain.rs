//! Abstract domains for address expressions: intervals, affine-stride
//! span sets, and the taint lattice.
//!
//! Everything is word-granular (global word number = byte address /
//! [`WORD_BYTES`](mem::addr::WORD_BYTES)). The central object is the [`AffineSpan`]
//! `{base + k·stride + u | k < count, u < width}` — exactly the shape a
//! stash-map `AddMap` descriptor denotes (a strided row of mapped
//! fields), and the shape thread/block-indexed lane patterns lower to.
//! An [`AffineSet`] is a finite union of spans.
//!
//! The payoff is [`AffineSpan::disjoint`]: a *sound* decision procedure
//! (`true` ⇒ the concrete word sets share nothing) that proves the
//! interesting cases symbolically — separated bounding intervals, or
//! separated residue classes modulo the stride gcd (two tiles
//! interleaved row-by-row through the same array never collide when
//! their column windows differ) — and falls back to exact enumeration
//! only for small spans. `false` means "could not prove", never "proven
//! to overlap"; use [`AffineSpan::common_words`] for an overlap
//! *witness*.

use std::collections::BTreeSet;

/// Spans at most this many words are enumerated exactly when the
/// symbolic disjointness arguments fail.
const ENUM_CAP: u64 = 1 << 14;

/// A nonempty inclusive interval of global word numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Smallest word in the interval.
    pub lo: u64,
    /// Largest word in the interval.
    pub hi: u64,
}

impl Interval {
    /// The interval `[lo, hi]`; `lo` must not exceed `hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` (an empty interval has no representation —
    /// use `Option<Interval>`).
    #[must_use]
    pub fn new(lo: u64, hi: u64) -> Interval {
        assert!(lo <= hi, "empty interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The least interval containing both (lattice join).
    #[must_use]
    pub fn hull(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// The intersection, or `None` when the intervals are disjoint.
    #[must_use]
    pub fn intersect(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }
}

/// The taint lattice: how trustworthy a footprint's index expressions
/// are. Ordered `Exact < Widened < Top`; the join is the maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Taint {
    /// Every index is a pure function of thread/block ids — the lowered
    /// lanes are the only lanes any input produces.
    #[default]
    Exact,
    /// Some indices are data-dependent but *bounded*: the footprint was
    /// widened to the full hardware-checked region (a mapped tile or
    /// allocation), so it still over-approximates every input soundly.
    Widened,
    /// A data-dependent index escaped every static bound (a raw global
    /// access); the footprint means ⊤ and proves nothing.
    Top,
}

impl Taint {
    /// Lattice join.
    #[must_use]
    pub fn join(self, other: Taint) -> Taint {
        self.max(other)
    }
}

/// The strided word set `{base + k·stride + u | k < count, u < width}`.
///
/// `count == 1` is a plain contiguous run (`stride` is ignored). The
/// set denotation never overflows: constructors reject geometries whose
/// maximum word exceeds `u64::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffineSpan {
    /// First word of the first run.
    pub base: u64,
    /// Words between run starts (meaningful when `count > 1`).
    pub stride: u64,
    /// Number of runs.
    pub count: u64,
    /// Contiguous words per run.
    pub width: u64,
}

impl AffineSpan {
    /// A strided span.
    ///
    /// # Panics
    ///
    /// Panics if `count` or `width` is zero, or the last word overflows.
    #[must_use]
    pub fn new(base: u64, stride: u64, count: u64, width: u64) -> AffineSpan {
        assert!(count > 0 && width > 0, "empty span");
        let span = AffineSpan {
            base,
            stride,
            count,
            width,
        };
        // Force the overflow check in max_word.
        let _ = span.max_word();
        span
    }

    /// A contiguous run of `width` words at `base`.
    #[must_use]
    pub fn contiguous(base: u64, width: u64) -> AffineSpan {
        AffineSpan::new(base, 0, 1, width)
    }

    /// Smallest word in the span.
    #[must_use]
    pub fn min_word(&self) -> u64 {
        self.base
    }

    /// Largest word in the span.
    #[must_use]
    pub fn max_word(&self) -> u64 {
        self.base
            .checked_add((self.count - 1).checked_mul(self.stride).expect("span end"))
            .and_then(|b| b.checked_add(self.width - 1))
            .expect("span end overflows")
    }

    /// The bounding interval.
    #[must_use]
    pub fn hull(&self) -> Interval {
        Interval::new(self.min_word(), self.max_word())
    }

    /// Upper bound on the number of words (exact when runs don't
    /// self-overlap).
    #[must_use]
    pub fn words_bound(&self) -> u64 {
        self.count.saturating_mul(self.width)
    }

    /// Iterates every word in the set (runs may repeat words when
    /// `stride < width`; consumers dedup).
    pub fn words(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.count)
            .flat_map(move |k| (0..self.width).map(move |u| self.base + k * self.stride + u))
    }

    /// Sound disjointness: `true` means the two concrete word sets are
    /// provably disjoint; `false` means overlap could not be excluded.
    ///
    /// Three arguments, in order: separated bounding intervals;
    /// separated residue windows modulo `gcd(stride_a, stride_b)` (the
    /// workhorse for tiles interleaved through a common array); exact
    /// enumeration for small spans.
    #[must_use]
    pub fn disjoint(&self, other: &AffineSpan) -> bool {
        if self.hull().intersect(other.hull()).is_none() {
            return true;
        }
        // A span with one run has no stride; gcd(0, s) = s keeps the
        // residue argument valid (its words are one contiguous window,
        // which is a window modulo anything).
        let sa = if self.count > 1 { self.stride } else { 0 };
        let sb = if other.count > 1 { other.stride } else { 0 };
        let g = gcd(sa, sb);
        if g > 1 && self.width < g && other.width < g {
            // Each set lives in a circular window of its width modulo g.
            let a0 = self.base % g;
            let b0 = other.base % g;
            let in_a = (b0 + g - a0) % g < self.width;
            let in_b = (a0 + g - b0) % g < other.width;
            if !in_a && !in_b {
                return true;
            }
        }
        if self.words_bound() + other.words_bound() <= ENUM_CAP {
            return self.common_words(other, 1).is_empty();
        }
        false
    }

    /// Up to `limit` words the two spans *actually* share, by
    /// enumeration (empty when disjoint, or when the spans are too big
    /// to enumerate — this is a witness finder, not a decision
    /// procedure).
    #[must_use]
    pub fn common_words(&self, other: &AffineSpan, limit: usize) -> Vec<u64> {
        if self.hull().intersect(other.hull()).is_none()
            || self.words_bound() + other.words_bound() > ENUM_CAP
        {
            return Vec::new();
        }
        let a: BTreeSet<u64> = self.words().collect();
        let mut out = Vec::new();
        for w in other.words() {
            if a.contains(&w) {
                out.push(w);
                if out.len() >= limit {
                    break;
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A finite union of [`AffineSpan`]s — the footprint abstraction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AffineSet {
    spans: Vec<AffineSpan>,
}

impl AffineSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> AffineSet {
        AffineSet::default()
    }

    /// Adds a span to the union.
    pub fn push(&mut self, span: AffineSpan) {
        self.spans.push(span);
    }

    /// Adds every span of `other`.
    pub fn extend(&mut self, other: &AffineSet) {
        self.spans.extend_from_slice(&other.spans);
    }

    /// The member spans.
    #[must_use]
    pub fn spans(&self) -> &[AffineSpan] {
        &self.spans
    }

    /// Whether the set denotes no words.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The bounding interval, or `None` when empty.
    #[must_use]
    pub fn hull(&self) -> Option<Interval> {
        self.spans
            .iter()
            .map(AffineSpan::hull)
            .reduce(Interval::hull)
    }

    /// Upper bound on the number of words.
    #[must_use]
    pub fn words_bound(&self) -> u64 {
        self.spans.iter().map(AffineSpan::words_bound).sum()
    }

    /// Compresses a sorted, deduplicated word list into spans: maximal
    /// contiguous runs first, then runs of equal length at a constant
    /// gap fused into strided spans. Exact: the result denotes the
    /// input, nothing more.
    #[must_use]
    pub fn from_sorted_words(words: &[u64]) -> AffineSet {
        debug_assert!(words.windows(2).all(|p| p[0] < p[1]), "sorted + dedup");
        // Pass 1: contiguous runs.
        let mut runs: Vec<(u64, u64)> = Vec::new(); // (start, len)
        for &w in words {
            match runs.last_mut() {
                Some((start, len)) if *start + *len == w => *len += 1,
                _ => runs.push((w, 1)),
            }
        }
        // Pass 2: fuse equal-length runs at a constant positive gap.
        let mut set = AffineSet::new();
        let mut i = 0;
        while i < runs.len() {
            let (base, width) = runs[i];
            let mut count = 1;
            if i + 1 < runs.len() && runs[i + 1].1 == width {
                let stride = runs[i + 1].0 - base;
                while i + count < runs.len()
                    && runs[i + count].1 == width
                    && runs[i + count].0 == base + count as u64 * stride
                {
                    count += 1;
                }
                if count > 1 {
                    set.push(AffineSpan::new(base, stride, count as u64, width));
                    i += count;
                    continue;
                }
            }
            set.push(AffineSpan::contiguous(base, width));
            i += 1;
        }
        set
    }

    /// Sound disjointness against another set (every span pair must be
    /// provably disjoint).
    #[must_use]
    pub fn disjoint(&self, other: &AffineSet) -> bool {
        match (self.hull(), other.hull()) {
            (Some(a), Some(b)) if a.intersect(b).is_some() => {}
            _ => return true, // a set is empty or the hulls are separated
        }
        self.spans
            .iter()
            .all(|a| other.spans.iter().all(|b| a.disjoint(b)))
    }

    /// Up to `limit` words provably shared with `other` (witnesses for
    /// race reports; empty does *not* prove disjointness).
    #[must_use]
    pub fn common_words(&self, other: &AffineSet, limit: usize) -> Vec<u64> {
        match (self.hull(), other.hull()) {
            (Some(a), Some(b)) if a.intersect(b).is_some() => {}
            _ => return Vec::new(),
        }
        let mut out = Vec::new();
        for a in &self.spans {
            for b in &other.spans {
                out.extend(a.common_words(b, limit));
                if out.len() >= limit {
                    out.sort_unstable();
                    out.dedup();
                    out.truncate(limit);
                    return out;
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out.truncate(limit);
        out
    }

    /// Every word in the set, or `None` when the enumeration would
    /// exceed `cap` words.
    #[must_use]
    pub fn words_capped(&self, cap: u64) -> Option<BTreeSet<u64>> {
        if self.words_bound() > cap {
            return None;
        }
        Some(self.spans.iter().flat_map(AffineSpan::words).collect())
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Concrete denotation, for oracle comparisons.
    fn concrete(s: &AffineSpan) -> BTreeSet<u64> {
        s.words().collect()
    }

    #[test]
    fn interval_ops_are_exact() {
        // Exhaustive over a small grid: hull and intersect agree with
        // the concrete sets they abstract.
        for alo in 0..6u64 {
            for ahi in alo..6 {
                for blo in 0..6u64 {
                    for bhi in blo..6 {
                        let a = Interval::new(alo, ahi);
                        let b = Interval::new(blo, bhi);
                        let sa: BTreeSet<u64> = (alo..=ahi).collect();
                        let sb: BTreeSet<u64> = (blo..=bhi).collect();
                        let inter: BTreeSet<u64> = sa.intersection(&sb).copied().collect();
                        match a.intersect(b) {
                            None => assert!(inter.is_empty()),
                            Some(i) => {
                                assert_eq!(
                                    (i.lo, i.hi),
                                    (
                                        *inter.first().expect("nonempty"),
                                        *inter.last().expect("nonempty")
                                    )
                                );
                            }
                        }
                        let h = a.hull(b);
                        assert_eq!(h.lo, alo.min(blo));
                        assert_eq!(h.hi, ahi.max(bhi));
                    }
                }
            }
        }
    }

    #[test]
    fn span_disjointness_is_exact_on_small_spans() {
        // Exhaustive over small geometries: small spans hit the exact
        // enumeration fallback, so `disjoint` must equal the concrete
        // answer in *both* directions — soundness and completeness.
        let mut checked = 0u64;
        for base_a in [0u64, 3, 7, 16] {
            for (sa, na, wa) in small_geometries() {
                for base_b in [0u64, 2, 5, 16] {
                    for (sb, nb, wb) in small_geometries() {
                        let a = AffineSpan::new(base_a, sa, na, wa);
                        let b = AffineSpan::new(base_b, sb, nb, wb);
                        let truly = concrete(&a).intersection(&concrete(&b)).next().is_none();
                        assert_eq!(
                            a.disjoint(&b),
                            truly,
                            "a={a:?} b={b:?} concrete-disjoint={truly}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 1000);
    }

    fn small_geometries() -> Vec<(u64, u64, u64)> {
        // (stride, count, width) mixes: contiguous, strided, overlapping
        // runs (stride < width), wide runs.
        vec![
            (0, 1, 1),
            (0, 1, 4),
            (0, 1, 9),
            (4, 3, 2),
            (4, 4, 4),
            (5, 3, 2),
            (3, 4, 4),
            (8, 2, 3),
            (16, 3, 8),
        ]
    }

    #[test]
    fn residue_argument_proves_large_interleaved_tiles_disjoint() {
        // Two 16×16 tiles threaded through a 512-wide row-major array
        // with different column windows — the `nw` pattern. Too big for
        // hull separation (rows interleave), provable by residues.
        let a = AffineSpan::new(0x1000, 512, 512, 16);
        let b = AffineSpan::new(0x1000 + 16, 512, 512, 16);
        assert!(a.hull().intersect(b.hull()).is_some());
        assert!(a.disjoint(&b));
        assert!(b.disjoint(&a));
        // Same column window: truly overlapping, never "proven" safe.
        let c = AffineSpan::new(0x1000, 512, 512, 16);
        assert!(!a.disjoint(&c));
        assert_eq!(a.common_words(&c, 1).len(), 1);
    }

    #[test]
    fn soundness_never_certifies_overlap() {
        // Deterministic pseudo-random large spans sharing their base
        // word always overlap; `disjoint` must never claim otherwise.
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let stride = 64 + (x >> 7) % 512;
            let count = 64 + (x >> 23) % 64;
            let width = 1 + (x >> 41) % 32;
            let base = (x >> 13) % (1 << 30);
            let a = AffineSpan::new(base, stride, count, width.min(stride));
            let b = AffineSpan::new(base, stride / 2 + 1, count * 2, width.min(stride / 2 + 1));
            assert!(!a.disjoint(&b), "{a:?} vs {b:?} share {base}");
        }
    }

    #[test]
    fn compression_roundtrips_exactly() {
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![5],
            vec![1, 2, 3, 4],
            vec![0, 1, 4, 5, 8, 9, 12, 13],        // strided pairs
            vec![0, 1, 2, 10, 11, 12, 20, 21, 22], // strided triples
            vec![0, 3, 7, 8, 9, 50],               // irregular
            (0..100).map(|i| i * 7).collect(),     // pure stride
        ];
        for words in cases {
            let set = AffineSet::from_sorted_words(&words);
            let mut back: Vec<u64> = set.spans().iter().flat_map(AffineSpan::words).collect();
            back.sort_unstable();
            back.dedup();
            assert_eq!(back, words);
            // Compression actually compresses the regular patterns.
            if words.len() >= 8 {
                assert!(set.spans().len() <= words.len() / 2);
            }
        }
    }

    #[test]
    fn taint_join_is_monotone() {
        use Taint::{Exact, Top, Widened};
        assert_eq!(Exact.join(Widened), Widened);
        assert_eq!(Widened.join(Top), Top);
        assert_eq!(Exact.join(Exact), Exact);
        assert_eq!(Top.join(Exact), Top);
    }

    #[test]
    fn set_disjointness_and_witnesses() {
        let mut a = AffineSet::new();
        a.push(AffineSpan::contiguous(0, 16));
        a.push(AffineSpan::new(1024, 32, 8, 4));
        let mut b = AffineSet::new();
        b.push(AffineSpan::contiguous(16, 16));
        b.push(AffineSpan::new(1024 + 8, 32, 8, 4));
        assert!(!a.disjoint(&b) || a.common_words(&b, 4).is_empty());
        // The strided members interleave without touching: 4-wide at
        // offsets 0 and 8 of each 32-word period.
        assert!(a.spans()[1].disjoint(&b.spans()[1]));
        // Shift by 2 creates real overlap with witnesses.
        let mut c = AffineSet::new();
        c.push(AffineSpan::new(1024 + 2, 32, 8, 4));
        assert!(!a.disjoint(&c));
        let w = a.common_words(&c, 8);
        assert!(!w.is_empty());
        assert!(w
            .iter()
            .all(|w| (w - 1024) % 32 < 4 && (w - 1024 - 2) % 32 < 4));
    }
}
