//! The memory coalescer: groups a warp's lane addresses into line-sized
//! transactions.
//!
//! A warp memory instruction presents up to 32 lane addresses. Lanes that
//! fall in the same cache line coalesce into one L1 transaction; a
//! unit-stride access coalesces perfectly (two 64 B transactions for 32
//! four-byte lanes) while an AoS-strided access shatters into one
//! transaction per object — the mechanism behind the cache's wasted
//! fetches and energy on AoS data (§1.1), which the stash's compact
//! storage avoids.

use mem::addr::{VAddr, WORD_BYTES};

/// One coalesced transaction: distinct words of one cache line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// The virtual line base address.
    pub line_va: VAddr,
    /// The distinct word addresses accessed within the line, sorted.
    pub words: Vec<VAddr>,
}

/// The coalescer, with the buffer its transactions live in.
///
/// Each [`Coalescer::coalesce`] call replaces the previous warp's
/// transactions. The buffer keeps every transaction's word vector across
/// calls, so once it has seen the widest warp a caller issues, coalescing
/// allocates nothing.
///
/// # Example
///
/// ```
/// use gpu::coalescer::Coalescer;
/// use mem::addr::VAddr;
///
/// let mut co = Coalescer::default();
/// // Unit stride: 32 lanes, 2 lines.
/// let lanes: Vec<VAddr> = (0..32).map(|i| VAddr(0x1000 + i * 4)).collect();
/// let txs = co.coalesce(&lanes, 64);
/// assert_eq!(txs.len(), 2);
/// assert_eq!(txs[0].words.len(), 16);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Coalescer {
    /// The last warp's transactions are `txs[..len]`; the rest are spare.
    txs: Vec<Transaction>,
    len: usize,
}

impl Coalescer {
    /// Coalesces per-lane addresses into per-line transactions of
    /// `line_bytes` bytes, a power of two.
    ///
    /// Duplicate lane addresses (broadcast reads) collapse into one word.
    /// Transactions are returned in first-touch order, matching issue
    /// order.
    pub fn coalesce(&mut self, lanes: &[VAddr], line_bytes: u64) -> &[Transaction] {
        self.len = 0;
        for &va in lanes {
            let word_va = va.align_down(WORD_BYTES);
            let line_va = va.align_down(line_bytes);
            // Lines are distinct, so searching from the newest finds the
            // same transaction as searching from the oldest, sooner.
            if let Some(t) = self.txs[..self.len]
                .iter_mut()
                .rev()
                .find(|t| t.line_va == line_va)
            {
                t.words.push(word_va);
                continue;
            }
            if self.len == self.txs.len() {
                self.txs.push(Transaction {
                    line_va,
                    words: Vec::new(),
                });
            }
            let t = &mut self.txs[self.len];
            t.line_va = line_va;
            t.words.clear();
            t.words.push(word_va);
            self.len += 1;
        }
        let txs = &mut self.txs[..self.len];
        for t in txs.iter_mut() {
            t.words.sort_unstable();
            t.words.dedup();
        }
        txs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::rng::SplitMix64;

    /// The coalescer as it was before its buffer was reused: a fresh
    /// vector of transactions per warp, each with its own word vector.
    /// The oracle of `reused_buffer_matches_the_allocating_coalescer`.
    fn coalesce_fresh(lanes: &[VAddr], line_bytes: u64) -> Vec<Transaction> {
        let mut txs: Vec<Transaction> = Vec::new();
        for &va in lanes {
            let word_va = VAddr(va.0 - va.0 % 4);
            let line_va = VAddr(va.0 - va.0 % line_bytes);
            match txs.iter_mut().find(|t| t.line_va == line_va) {
                Some(t) => {
                    if !t.words.contains(&word_va) {
                        t.words.push(word_va);
                    }
                }
                None => txs.push(Transaction {
                    line_va,
                    words: vec![word_va],
                }),
            }
        }
        for t in &mut txs {
            t.words.sort_unstable();
        }
        txs
    }

    fn coalesce(lanes: &[VAddr], line_bytes: u64) -> Vec<Transaction> {
        Coalescer::default().coalesce(lanes, line_bytes).to_vec()
    }

    /// Every case runs through one coalescer, so a warp after a wider one
    /// would expose any stale transaction or word the buffer kept.
    #[test]
    fn reused_buffer_matches_the_allocating_coalescer() {
        let mut rng = SplitMix64::new(0x000c_0a1e);
        let mut co = Coalescer::default();
        for case in 0..4000 {
            let n = 1 + rng.next_below(32);
            let base = 0x1000 + rng.next_below(1 << 20);
            let line_bytes = 1 << (4 + rng.next_below(4)); // 16..=128 B
            let lanes: Vec<VAddr> = match case % 5 {
                // Unit stride, from any byte.
                0 => (0..n).map(|i| VAddr(base + 4 * i)).collect(),
                // AoS stride: one field of 8..=256 B objects.
                1 => {
                    let stride = 8 * (1 + rng.next_below(32));
                    (0..n).map(|i| VAddr(base + stride * i)).collect()
                }
                // Broadcast.
                2 => vec![VAddr(base); n as usize],
                // Misaligned bytes over a few words.
                3 => (0..n).map(|_| VAddr(base + rng.next_below(16))).collect(),
                // Random lanes over a few lines.
                _ => (0..n)
                    .map(|_| VAddr(base + rng.next_below(4 * line_bytes)))
                    .collect(),
            };
            assert_eq!(
                co.coalesce(&lanes, line_bytes),
                coalesce_fresh(&lanes, line_bytes),
                "case {case}: {n} lanes from {base:#x}, {line_bytes} B lines"
            );
        }
    }

    #[test]
    fn strided_aos_shatters() {
        // 32 lanes reading one 4 B field of 64 B objects: 32 transactions.
        let lanes: Vec<VAddr> = (0..32).map(|i| VAddr(0x1000 + i * 64)).collect();
        let txs = coalesce(&lanes, 64);
        assert_eq!(txs.len(), 32);
        assert!(txs.iter().all(|t| t.words.len() == 1));
    }

    #[test]
    fn broadcast_collapses() {
        let lanes = vec![VAddr(0x2000); 32];
        let txs = coalesce(&lanes, 64);
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].words, vec![VAddr(0x2000)]);
    }

    #[test]
    fn misaligned_bytes_share_a_word() {
        let txs = coalesce(&[VAddr(0x1001), VAddr(0x1002)], 64);
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].words, vec![VAddr(0x1000)]);
    }

    #[test]
    fn empty_lanes_mean_no_transactions() {
        let mut co = Coalescer::default();
        let wide: Vec<VAddr> = (0..32).map(|i| VAddr(0x1000 + i * 64)).collect();
        assert_eq!(co.coalesce(&wide, 64).len(), 32);
        assert!(co.coalesce(&[], 64).is_empty());
    }

    #[test]
    fn preserves_first_touch_order() {
        let lanes = vec![VAddr(0x2000), VAddr(0x1000), VAddr(0x2004)];
        let txs = coalesce(&lanes, 64);
        assert_eq!(txs[0].line_va, VAddr(0x2000));
        assert_eq!(txs[1].line_va, VAddr(0x1000));
        assert_eq!(txs[0].words.len(), 2);
    }

    #[test]
    fn duplicates_among_distinct_lanes_do_not_add_transactions() {
        // 16 pairs of duplicate lanes over one line: every second lane
        // repeats its predecessor's address. Still one transaction with
        // the 16 distinct words, exactly as if each appeared once.
        let lanes: Vec<VAddr> = (0..32).map(|i| VAddr(0x3000 + (i / 2) * 4)).collect();
        let txs = coalesce(&lanes, 64);
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].words.len(), 16);
        assert_eq!(txs[0].words[0], VAddr(0x3000));
        assert_eq!(txs[0].words[15], VAddr(0x303c));
    }

    #[test]
    fn unaligned_warp_straddles_a_line_boundary() {
        // Unit-stride words starting 8 B before a line boundary: the warp
        // spans three lines (2 + 16 + 14 words), not the aligned two.
        let lanes: Vec<VAddr> = (0..32).map(|i| VAddr(0x1038 + i * 4)).collect();
        let txs = coalesce(&lanes, 64);
        assert_eq!(txs.len(), 3);
        assert_eq!(txs[0].line_va, VAddr(0x1000));
        assert_eq!(txs[0].words.len(), 2);
        assert_eq!(txs[1].line_va, VAddr(0x1040));
        assert_eq!(txs[1].words.len(), 16);
        assert_eq!(txs[2].line_va, VAddr(0x1080));
        assert_eq!(txs[2].words.len(), 14);
    }

    #[test]
    fn single_lane_warp_is_one_single_word_transaction() {
        // A one-lane warp (divergent tail) still costs a full transaction.
        let txs = coalesce(&[VAddr(0x4004)], 64);
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].line_va, VAddr(0x4000));
        assert_eq!(txs[0].words, vec![VAddr(0x4004)]);
    }
}
