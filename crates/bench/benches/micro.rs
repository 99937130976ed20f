//! Hot-path microbenches over the flat storage structures
//! (direct-indexed LLC slot table, stash map-index-table arena,
//! direct-indexed page table, L1 word-state arena).
//!
//! Whole Figure 5/6 cells are timed, and checked against their goldens,
//! by `perfbench` (`bash perfbench/run.sh --workload matrix`). Plain
//! harness (`harness = false`), `bench::timing` engine:
//!
//! ```text
//! cargo bench -p bench --bench micro
//! ```

use bench::timing;
use mem::addr::{PAddr, VAddr};
use mem::cache::DenovoCache;
use mem::llc::{CoreId, Llc, LlcLoadOutcome, Registration};
use mem::paging::PageTable;
use mem::tile::TileMap;
use stash::{Stash, StashConfig, UsageMode};

/// Words touched per hot-path bench iteration.
const LOOKUPS: u64 = 4096;

/// The flattened LLC: `load_word`/`registration` resolve through the
/// direct-indexed slot table and the word-tag arena.
fn bench_llc_lookups() {
    let mut llc = Llc::new(16, 64);
    for i in 0..LOOKUPS {
        let line = PAddr(i * 64).line(64);
        llc.line_fill(line, CoreId(0));
        if i % 2 == 0 {
            llc.register_word(line, (i % 16) as usize, Registration::Cache(CoreId(0)));
        }
    }
    timing::bench("flat/llc/load_word", || {
        let mut sum = 0u64;
        for i in 0..LOOKUPS {
            let line = PAddr(i * 64).line(64);
            sum += u64::from(matches!(
                llc.load_word(line, (i % 16) as usize),
                LlcLoadOutcome::Data { .. }
            ));
        }
        sum
    });
    timing::bench("flat/llc/registration", || {
        let mut owners = 0usize;
        for i in 0..LOOKUPS {
            let line = PAddr(i * 64).line(64);
            owners += usize::from(llc.registration(line, (i % 16) as usize).is_some());
        }
        owners
    });
}

/// The stash's dense map-index-table arena: `resolve_slot` is one
/// indexed read per live thread block, no hashing.
fn bench_stash_lookups() {
    let mut stash = Stash::new(StashConfig::default());
    let tile = TileMap::new(VAddr(0x10000), 4, 16, 256, 0, 1).expect("valid tile");
    let out = stash
        .add_map(7, tile, 0, UsageMode::MappedCoherent)
        .expect("map fits");
    timing::bench("flat/stash/resolve_slot", || {
        let mut hits = 0usize;
        for _ in 0..LOOKUPS {
            hits += usize::from(stash.resolve_slot(7, 0).is_some());
        }
        hits
    });
    timing::bench("flat/stash/load_hit", || {
        let mut cycles = 0usize;
        for w in 0..tile.local_words() as usize {
            cycles += usize::from(stash.load(w, out.index).expect("in range").missed());
        }
        cycles
    });
}

/// The direct-indexed page table: translate over a dense VA range.
fn bench_paging_lookups() {
    let mut pt = PageTable::new(4096);
    for p in 0..LOOKUPS {
        pt.translate(VAddr(p * 4096));
    }
    timing::bench("flat/paging/translate_hot", || {
        let mut sum = 0u64;
        for p in 0..LOOKUPS {
            sum = sum.wrapping_add(pt.translate(VAddr(p * 4096)).0);
        }
        sum
    });
}

/// The flattened L1: `word_state` probes resolve in the word-state
/// arena (one stripe per tag slot, no per-line boxes).
fn bench_cache_lookups() {
    let mut cache = DenovoCache::new(32 * 1024, 8, 64);
    for i in 0..LOOKUPS {
        cache.ensure_line(PAddr(i * 64));
        cache.fill_line_shared(PAddr(i * 64), &[]);
    }
    timing::bench("flat/l1/word_state", || {
        let mut hits = 0usize;
        for i in 0..LOOKUPS {
            hits += usize::from(cache.word_state(PAddr(i * 64 + (i % 16) * 4)).load_hits());
        }
        hits
    });
}

fn main() {
    bench_llc_lookups();
    bench_stash_lookups();
    bench_paging_lookups();
    bench_cache_lookups();
}
