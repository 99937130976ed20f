//! Static coalescing analysis over symbolic lane-address streams.
//!
//! Every `GlobalMem` warp op carries the exact per-lane virtual
//! addresses the machine model will coalesce, so the analysis is not an
//! approximation: it runs the *same* [`gpu::coalescer::Coalescer`] the
//! timing model uses and compares the resulting transaction count with
//! the minimum the lane set would need if it were contiguous. An AoS
//! field stride equal to the object size shatters a warp's 32 accesses
//! into up to 32 transactions (§2's poor-coalescing motivation); the
//! diagnostics quantify exactly how many extra transactions that costs.

use crate::diag::Symbols;
use gpu::coalescer::Coalescer;
use gpu::program::{Phase, Program, WarpOp};
use mem::addr::WORD_BYTES;
use std::collections::HashMap;

/// Aggregated coalescing behaviour of one array's global-access stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamStats {
    /// Array name (from symbols) or the hex base of an unnamed region.
    pub region: String,
    /// `GlobalMem` warp ops touching the region.
    pub ops: u64,
    /// Total lane addresses issued.
    pub lanes: u64,
    /// Coalesced transactions the machine will issue.
    pub transactions: u64,
    /// Minimum transactions the same distinct words would need if they
    /// were contiguous (perfectly coalesced).
    pub ideal: u64,
    /// Uniform byte stride between consecutive lanes, when every
    /// multi-lane op of the stream agrees on one.
    pub stride_bytes: Option<u64>,
}

impl StreamStats {
    /// Extra transactions versus a perfectly coalesced stream.
    #[must_use]
    pub fn extra_transactions(&self) -> u64 {
        self.transactions.saturating_sub(self.ideal)
    }

    /// Average distinct words served per transaction, ×100 (so 1600 =
    /// a full 16-word line per transaction at the paper's 64 B lines).
    #[must_use]
    pub fn words_per_transaction_x100(&self, distinct_words: u64) -> u64 {
        (distinct_words * 100)
            .checked_div(self.transactions)
            .unwrap_or(0)
    }
}

/// Per-region accumulator while walking the program.
#[derive(Debug, Default)]
struct Acc {
    ops: u64,
    lanes: u64,
    transactions: u64,
    ideal: u64,
    distinct_words: u64,
    /// `None` = no multi-lane op yet; `Some(None)` = mixed strides.
    stride: Option<Option<u64>>,
}

/// Coalescing statistics of every global-access stream in `program`,
/// grouped by the array (via `symbols`) of each op's first lane.
///
/// Returns `(stats, distinct_words)` pairs sorted by region name;
/// `distinct_words` is summed per op (a word touched by two ops counts
/// twice), matching how per-op transactions accumulate.
#[must_use]
pub fn coalescing_by_region(
    program: &Program,
    symbols: &Symbols,
    line_bytes: u64,
) -> Vec<(StreamStats, u64)> {
    let words_per_line = (line_bytes / WORD_BYTES).max(1);
    let mut regions: HashMap<String, Acc> = HashMap::new();
    let mut coalescer = Coalescer::default();
    for phase in &program.phases {
        let Phase::Gpu(kernel) = phase else {
            continue;
        };
        for op in kernel
            .blocks
            .iter()
            .flat_map(|b| b.stages.iter())
            .flat_map(|s| s.warps.iter().flatten())
        {
            let WarpOp::GlobalMem { lanes, .. } = op else {
                continue;
            };
            if lanes.is_empty() {
                continue;
            }
            let region = match symbols.locate(lanes[0].0) {
                Some((name, _)) => name.to_string(),
                None => format!("{:#x}", lanes[0].0 & !0xfffff), // 1 MB region
            };
            let acc = regions.entry(region).or_default();
            let txs = coalescer.coalesce(lanes, line_bytes);
            let mut words: Vec<u64> = lanes.iter().map(|va| va.0 / WORD_BYTES).collect();
            words.sort_unstable();
            words.dedup();
            acc.ops += 1;
            acc.lanes += lanes.len() as u64;
            acc.transactions += txs.len() as u64;
            acc.ideal += (words.len() as u64).div_ceil(words_per_line);
            acc.distinct_words += words.len() as u64;
            if lanes.len() >= 2 {
                let stride = lanes[1].0.wrapping_sub(lanes[0].0);
                let uniform = lanes
                    .windows(2)
                    .all(|w| w[1].0.wrapping_sub(w[0].0) == stride);
                let op_stride = uniform.then_some(stride);
                acc.stride = match acc.stride {
                    None => Some(op_stride),
                    Some(s) if s == op_stride => Some(s),
                    Some(_) => Some(None),
                };
            }
        }
    }
    let mut out: Vec<(StreamStats, u64)> = regions
        .into_iter()
        .map(|(region, acc)| {
            (
                StreamStats {
                    region,
                    ops: acc.ops,
                    lanes: acc.lanes,
                    transactions: acc.transactions,
                    ideal: acc.ideal,
                    stride_bytes: acc.stride.flatten(),
                },
                acc.distinct_words,
            )
        })
        .collect();
    out.sort_by(|a, b| a.0.region.cmp(&b.0.region));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu::program::{Kernel, Stage, ThreadBlock};
    use mem::addr::VAddr;

    fn program_with(ops: Vec<WarpOp>) -> Program {
        let mut tb = ThreadBlock::new();
        let mut stage = Stage::new(1);
        stage.warps[0] = ops;
        tb.stages.push(stage);
        Program {
            phases: vec![Phase::Gpu(Kernel { blocks: vec![tb] })],
        }
    }

    #[test]
    fn strided_stream_reports_extra_transactions() {
        // 32 lanes at stride 16 B: 8 lines touched, ideal would be 2.
        let p = program_with(vec![WarpOp::GlobalMem {
            write: false,
            lanes: (0..32).map(|i| VAddr(0x1000 + i * 16)).collect(),
        }]);
        let mut symbols = Symbols::new();
        symbols.add("a", VAddr(0x1000), 0x1000);
        let stats = coalescing_by_region(&p, &symbols, 64);
        assert_eq!(stats.len(), 1);
        let (s, distinct) = &stats[0];
        assert_eq!(s.region, "a");
        assert_eq!(s.transactions, 8);
        assert_eq!(s.ideal, 2);
        assert_eq!(s.extra_transactions(), 6);
        assert_eq!(s.stride_bytes, Some(16));
        assert_eq!(*distinct, 32);
    }

    #[test]
    fn contiguous_stream_is_ideal() {
        let p = program_with(vec![WarpOp::GlobalMem {
            write: false,
            lanes: (0..32).map(|i| VAddr(0x2000 + i * 4)).collect(),
        }]);
        let stats = coalescing_by_region(&p, &Symbols::new(), 64);
        let (s, _) = &stats[0];
        assert_eq!(s.transactions, 2);
        assert_eq!(s.extra_transactions(), 0);
        assert_eq!(s.stride_bytes, Some(4));
    }

    #[test]
    fn mixed_strides_report_none() {
        let p = program_with(vec![
            WarpOp::GlobalMem {
                write: false,
                lanes: vec![VAddr(0x1000), VAddr(0x1010)],
            },
            WarpOp::GlobalMem {
                write: false,
                lanes: vec![VAddr(0x1000), VAddr(0x1004)],
            },
        ]);
        let stats = coalescing_by_region(&p, &Symbols::new(), 64);
        assert_eq!(stats[0].0.stride_bytes, None);
        assert_eq!(stats[0].0.ops, 2);
    }
}
