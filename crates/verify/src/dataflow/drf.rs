//! The race pass: DeNovo's data-race-freedom precondition, decided
//! over footprints.
//!
//! DeNovo keeps memory coherent only for data-race-free programs (paper
//! §4.3): nothing synchronizes the thread blocks of one kernel or the
//! cores of one CPU phase, and CPU L1s never self-invalidate. Two tasks
//! of one such group race when they touch one word and at least one of
//! them writes it; read-read sharing is never reported.
//!
//! * **Exact** footprints go through one per-word sweep per group,
//!   which is exact at any footprint size. Each racing pair gets a
//!   [`Rule::ProvenRace`] error naming both tasks, the symbolized range
//!   and the number of conflicting words.
//! * A pair with a [`Taint::Widened`] side gets a
//!   [`Rule::DataDependentRace`] warning when its spans share a word or
//!   cannot be proven disjoint — the widened tile may overlap while the
//!   real lanes never do.
//! * A kernel with [`Taint::Top`] blocks gets one warning naming them —
//!   unbounded data-dependent addresses can never be proven race-free.
//! * **CPU stale reads**: a CPU core re-reading a word it still holds
//!   Shared after a kernel or another core overwrote it. Kernel
//!   boundaries self-invalidate GPU L1s and stashes, never CPU L1s, so
//!   this is the unsynchronized CPU/GPU phase-overlap hazard. An
//!   overwrite by an exact footprint or another core is a
//!   [`Rule::CpuStaleRead`] error; one by a widened footprint is a
//!   [`Rule::DataDependentRace`] warning; `Top` blocks are covered by
//!   their kernel's warning.
//!
//! [`footprint`]: crate::dataflow::footprint

use crate::dataflow::domain::{AffineSet, AffineSpan, Taint};
use crate::dataflow::footprint::{block_footprint, core_footprint, BlockFootprint};
use crate::diag::{Diagnostic, Rule, Symbols};
use gpu::program::{CpuOp, CpuPhase, Phase, Program};
use mem::addr::WORD_BYTES;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Witness words reported per racing pair with a widened side.
const WITNESS_WORDS: usize = 8;

/// Runs the race pass over every kernel and CPU phase.
#[must_use]
pub fn check_races(program: &Program, symbols: &Symbols) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut stale = StaleTracker::default();
    let mut kernel_idx = 0usize;
    for (phase_idx, phase) in program.phases.iter().enumerate() {
        match phase {
            Phase::Gpu(kernel) => {
                let fps: Vec<BlockFootprint> = kernel.blocks.iter().map(block_footprint).collect();
                let label = |i: usize| format!("kernel {kernel_idx} block {i}");
                check_group(&fps, &label, symbols, &mut out);
                let top: Vec<usize> = fps
                    .iter()
                    .enumerate()
                    .filter(|(_, fp)| fp.taint == Taint::Top)
                    .map(|(i, _)| i)
                    .collect();
                if !top.is_empty() && fps.len() > 1 {
                    out.push(Diagnostic::new(
                        Rule::DataDependentRace,
                        format!(
                            "kernel {kernel_idx}: {} of {} blocks (e.g. block {}) use \
                             data-dependent global addresses — races cannot be excluded \
                             statically",
                            top.len(),
                            fps.len(),
                            top[0]
                        ),
                    ));
                }
                stale.kernel_writes(&fps, kernel_idx);
                kernel_idx += 1;
            }
            Phase::Cpu(cpu) => {
                let fps: Vec<BlockFootprint> = (0..cpu.per_core.len())
                    .map(|c| core_footprint(cpu, c))
                    .collect();
                let label = |c: usize| format!("phase {phase_idx} core {c}");
                check_group(&fps, &label, symbols, &mut out);
                stale.cpu_phase(cpu, phase_idx, symbols, &mut out);
            }
        }
    }
    out
}

/// The race rule within one concurrency group, findings in pair order.
fn check_group(
    fps: &[BlockFootprint],
    label: &dyn Fn(usize) -> String,
    symbols: &Symbols,
    out: &mut Vec<Diagnostic>,
) {
    let mut found: BTreeMap<(usize, usize), Diagnostic> = BTreeMap::new();
    for ((i, j), (lo, hi, n)) in sweep_exact(fps) {
        let message = format!(
            "{} and {} conflict on {} ({n} word{}, at least one write) on every execution",
            label(i),
            label(j),
            symbols.range(lo, hi),
            if n == 1 { "" } else { "s" },
        );
        found.insert((i, j), Diagnostic::new(Rule::ProvenRace, message));
    }
    if fps.iter().any(|fp| fp.taint == Taint::Widened) {
        let accesses: Vec<AffineSet> = fps.iter().map(BlockFootprint::accesses).collect();
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                let (a, b) = (&fps[i], &fps[j]);
                // Exact pairs are the sweep's; `Top` pairs the kernel's.
                if a.taint.join(b.taint) != Taint::Widened {
                    continue;
                }
                let mut witness = a.writes.common_words(&accesses[j], WITNESS_WORDS);
                witness.extend(b.writes.common_words(&accesses[i], WITNESS_WORDS));
                witness.sort_unstable();
                witness.dedup();
                let message = if let (Some(&lo), Some(&hi)) = (witness.first(), witness.last()) {
                    format!(
                        "{} and {} conflict on {} (witness: {} word{}, at least one write) \
                         within a data-dependent (widened) footprint",
                        label(i),
                        label(j),
                        symbols.range(lo, hi),
                        witness.len(),
                        if witness.len() == 1 { "" } else { "s" },
                    )
                } else if !(a.writes.disjoint(&accesses[j]) && b.writes.disjoint(&accesses[i])) {
                    format!(
                        "{} and {} have data-dependent footprints that may overlap \
                         — race neither provable nor refutable",
                        label(i),
                        label(j),
                    )
                } else {
                    continue;
                };
                found.insert((i, j), Diagnostic::new(Rule::DataDependentRace, message));
            }
        }
    }
    out.extend(found.into_values());
}

/// Sweeps every word of the group's exact footprints through one table,
/// task by task. Returns each racing pair `(earlier, later)` with the
/// lowest and highest word and the number of words it was seen on.
///
/// Per word the table keeps the last task to record it, the first
/// writer and the first reader. A task records each word once, writes
/// first, so it never meets itself: a later writer races the reader,
/// and any later task races the writer. Every word two tasks touch with
/// at least one write therefore yields a race, and every race is real.
fn sweep_exact(fps: &[BlockFootprint]) -> BTreeMap<(usize, usize), (u64, u64, u64)> {
    #[derive(Default)]
    struct WordAccess {
        last: Option<u32>,
        writer: Option<u32>,
        reader: Option<u32>,
    }
    let mut table: HashMap<u64, WordAccess> = HashMap::new();
    let mut pairs = BTreeMap::new();
    for (task, fp) in fps.iter().enumerate() {
        if fp.taint != Taint::Exact {
            continue;
        }
        let t = u32::try_from(task).expect("fewer than 2^32 tasks");
        for (set, write) in [(&fp.writes, true), (&fp.reads, false)] {
            for word in set.spans().iter().flat_map(AffineSpan::words) {
                let access = table.entry(word).or_default();
                if access.last.replace(t) == Some(t) {
                    continue;
                }
                match access.writer.or(access.reader.filter(|_| write)) {
                    Some(other) => {
                        let pair = (other as usize, task);
                        let (lo, hi, n) = pairs.entry(pair).or_insert((word, word, 0));
                        (*lo, *hi, *n) = ((*lo).min(word), (*hi).max(word), *n + 1);
                    }
                    None if write => access.writer = Some(t),
                    None => {
                        access.reader.get_or_insert(t);
                    }
                }
            }
        }
    }
    pairs
}

/// The CPU copies of one word, as core bitmasks. A copy stays Shared
/// until its core writes the word, so each write stales every copy
/// already stale: the last exact writer overwrote every `proven` copy,
/// and the last widened writer every other stale one.
#[derive(Debug, Default)]
struct Copies {
    shared: u64,
    stale: u64,
    proven: u64,
    proven_by: String,
    widened_by: String,
}

impl Copies {
    /// A write by `by` stales the copies held by `cores`.
    fn overwrite(&mut self, by: &str, cores: u64, proven: bool) {
        let hit = self.shared & cores;
        if hit == 0 {
            return;
        }
        self.stale |= hit;
        if proven {
            self.proven |= hit;
            by.clone_into(&mut self.proven_by);
        } else {
            by.clone_into(&mut self.widened_by);
        }
    }
}

/// Cross-phase state of the CPU stale-read rule: the copies of every
/// word a CPU core cached, and the `(core, word)` reads reported.
#[derive(Debug, Default)]
struct StaleTracker {
    words: HashMap<u64, Copies>,
    reported: HashSet<(usize, u64)>,
}

impl StaleTracker {
    /// A kernel's writes stale every CPU copy of their words.
    fn kernel_writes(&mut self, fps: &[BlockFootprint], kernel_idx: usize) {
        if self.words.is_empty() {
            return; // no CPU copies yet
        }
        let by = format!("kernel {kernel_idx}");
        for fp in fps.iter().filter(|fp| fp.taint != Taint::Top) {
            for w in fp.writes.spans().iter().flat_map(AffineSpan::words) {
                if let Some(copies) = self.words.get_mut(&w) {
                    copies.overwrite(&by, u64::MAX, fp.taint == Taint::Exact);
                }
            }
        }
    }

    /// Walks one CPU phase's cached accesses in program order, then lets
    /// each core's writes stale the *other* cores' copies (DeNovo revokes
    /// only the registered owner; Shared copies linger). CPU stashes
    /// self-invalidate at kernel boundaries, so only `Mem` ops count.
    fn cpu_phase(
        &mut self,
        cpu: &CpuPhase,
        phase_idx: usize,
        symbols: &Symbols,
        out: &mut Vec<Diagnostic>,
    ) {
        for (core, ops) in cpu.per_core.iter().enumerate() {
            let bit = 1u64 << (core % 64);
            for (write, word) in cached_accesses(ops) {
                let copies = self.words.entry(word).or_default();
                if write {
                    // The store registers: our copy is fresh again, and on a
                    // later revocation it drops to Invalid (a later read
                    // re-fetches).
                    copies.shared &= !bit;
                    copies.stale &= !bit;
                    copies.proven &= !bit;
                } else if copies.stale & bit == 0 {
                    copies.shared |= bit;
                } else if self.reported.insert((core, word)) {
                    let (rule, by, how) = if copies.proven & bit != 0 {
                        (Rule::CpuStaleRead, &copies.proven_by, "overwrote it")
                    } else {
                        (
                            Rule::DataDependentRace,
                            &copies.widened_by,
                            "may have overwritten it through a data-dependent (widened) footprint",
                        )
                    };
                    out.push(Diagnostic::new(
                        rule,
                        format!(
                            "phase {phase_idx} core {core} reads {} from its cache, but {by} \
                             {how} and CPU L1s are never self-invalidated",
                            symbols.range(word, word)
                        ),
                    ));
                }
            }
        }
        for (core, ops) in cpu.per_core.iter().enumerate() {
            let by = format!("phase {phase_idx} core {core}");
            for (_, word) in cached_accesses(ops).filter(|&(write, _)| write) {
                if let Some(copies) = self.words.get_mut(&word) {
                    copies.overwrite(&by, !(1u64 << (core % 64)), true);
                }
            }
        }
    }
}

/// The `(write, word)` accesses of one core's op stream that go through
/// its cache.
fn cached_accesses(ops: &[CpuOp]) -> impl Iterator<Item = (bool, u64)> + '_ {
    ops.iter().filter_map(|op| match op {
        CpuOp::Mem { write, vaddr } => Some((*write, vaddr.0 / WORD_BYTES)),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu::program::{AllocId, DmaReq, Kernel, LocalAlloc, MapReq, Stage, ThreadBlock, WarpOp};
    use mem::addr::VAddr;
    use mem::tile::TileMap;
    use sim::rng::SplitMix64;
    use stash::UsageMode;

    fn global_op(write: bool, base: u64, words: u64) -> WarpOp {
        WarpOp::GlobalMem {
            write,
            lanes: (0..words).map(|w| VAddr(base + w * 4)).collect(),
        }
    }

    fn local_op(write: bool, lanes: Vec<u32>) -> WarpOp {
        WarpOp::LocalMem {
            write,
            alloc: AllocId(0),
            slot: 0,
            lanes,
        }
    }

    /// A one-stage block running `ops`, with `tile` mapped coherently
    /// into slot 0 when given.
    fn block(ops: Vec<WarpOp>, tile: Option<TileMap>, tainted: bool) -> ThreadBlock {
        let mut tb = ThreadBlock::new();
        let mut stage = Stage::new(1);
        if let Some(tile) = tile {
            tb.allocs.push(LocalAlloc {
                words: tile.local_words(),
            });
            stage.maps.push(MapReq {
                slot: 0,
                alloc: AllocId(0),
                tile,
                mode: UsageMode::MappedCoherent,
            });
        }
        stage.warps[0] = ops;
        stage.tainted = tainted;
        tb.stages.push(stage);
        tb
    }

    fn global_block(base: u64, words: u64, write: bool, tainted: bool) -> ThreadBlock {
        block(vec![global_op(write, base, words)], None, tainted)
    }

    fn kernel(blocks: Vec<ThreadBlock>) -> Phase {
        Phase::Gpu(Kernel { blocks })
    }

    fn cpu(per_core: Vec<Vec<CpuOp>>) -> Phase {
        Phase::Cpu(CpuPhase {
            per_core,
            stash_maps: Vec::new(),
        })
    }

    fn mem(write: bool, addr: u64) -> CpuOp {
        CpuOp::Mem {
            write,
            vaddr: VAddr(addr),
        }
    }

    fn races(phases: Vec<Phase>, symbols: &Symbols) -> Vec<Diagnostic> {
        check_races(&Program { phases }, symbols)
    }

    #[test]
    fn disjoint_blocks_report_nothing() {
        // Two blocks on disjoint words; one block touching only its own.
        let own = vec![global_op(true, 0x1000, 8), global_op(false, 0x1000, 8)];
        for blocks in [
            vec![
                global_block(0x1000, 8, true, false),
                global_block(0x2000, 8, true, false),
            ],
            vec![block(own, None, false)],
        ] {
            assert!(races(vec![kernel(blocks)], &Symbols::new()).is_empty());
        }
    }

    #[test]
    fn exact_overlap_is_a_proven_race_with_witness() {
        let mut symbols = Symbols::new();
        symbols.add("data", VAddr(0x1000), 0x100);
        let stash_tile = TileMap::new(VAddr(0x4000), 4, 4, 16, 0, 1).unwrap();
        let mapped = || {
            block(
                vec![local_op(true, (0..16).collect())],
                Some(stash_tile),
                false,
            )
        };
        let dma_store = || {
            let tile = TileMap::new(VAddr(0x8000), 4, 4, 8, 0, 1).unwrap();
            let mut tb = block(Vec::new(), None, false);
            tb.allocs.push(LocalAlloc { words: 8 });
            tb.stages[0].dmas.push(DmaReq {
                alloc: AllocId(0),
                tile,
                load: false,
                store: true,
            });
            tb
        };
        for (blocks, needle) in [
            // A read-write and a write-write overlap of global words.
            (
                vec![
                    global_block(0x1000, 8, true, false),
                    global_block(0x1010, 8, false, false),
                ],
                "data[word 4..7] (4 words",
            ),
            (
                vec![
                    global_block(0x1000, 8, true, false),
                    global_block(0x1010, 8, true, false),
                ],
                "data[word 4..7] (4 words",
            ),
            // Coherently mapped stash tiles race like global accesses.
            (vec![mapped(), mapped()], "0x4000..0x4040 (16 words"),
            // DMA store tiles conflict across blocks.
            (vec![dma_store(), dma_store()], "0x8000..0x8020 (8 words"),
        ] {
            let diags = races(vec![kernel(blocks)], &symbols);
            assert_eq!(diags.len(), 1, "{needle}: {diags:?}");
            assert_eq!(diags[0].rule, Rule::ProvenRace);
            let text = &diags[0].message;
            assert!(
                text.starts_with("kernel 0 block 0 and kernel 0 block 1 conflict on ")
                    && text.contains(needle),
                "{text}"
            );
        }
    }

    #[test]
    fn read_read_sharing_is_clean() {
        let blocks = vec![
            global_block(0x1000, 8, false, false),
            global_block(0x1000, 8, false, false),
        ];
        assert!(races(vec![kernel(blocks)], &Symbols::new()).is_empty());
    }

    #[test]
    fn tainted_blocks_warn_instead_of_erroring() {
        let blocks = vec![
            global_block(0x1000, 4, true, true),
            global_block(0x8000, 4, true, false),
        ];
        let diags = races(vec![kernel(blocks)], &Symbols::new());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::DataDependentRace);
        assert!(diags[0].message.contains("data-dependent"));
    }

    #[test]
    fn cpu_core_conflicts_get_witnesses_too() {
        let phase = cpu(vec![vec![mem(true, 0x1000)], vec![mem(false, 0x1000)]]);
        let diags = races(vec![phase], &Symbols::new());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::ProvenRace);
        assert!(diags[0].message.contains("core 0"));
        assert!(diags[0].message.contains("core 1"));
    }

    #[test]
    fn cpu_stale_read_across_gpu_kernel_is_flagged() {
        // CPU core 0 caches the word, a kernel overwrites it, and the
        // CPU re-reads its stale copy.
        let diags = races(
            vec![
                cpu(vec![vec![mem(false, 0x1000)]]),
                kernel(vec![global_block(0x1000, 1, true, false)]),
                cpu(vec![vec![mem(false, 0x1000)]]),
            ],
            &Symbols::new(),
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::CpuStaleRead);
        let text = &diags[0].message;
        assert!(text.contains("kernel 0 overwrote it"), "{text}");
    }

    #[test]
    fn cpu_rewrite_clears_staleness() {
        // The CPU *writes* first (Registered), so the GPU's later write
        // revokes the copy and the final read re-fetches fresh data.
        let diags = races(
            vec![
                cpu(vec![vec![mem(true, 0x1000)]]),
                kernel(vec![global_block(0x1000, 1, true, false)]),
                cpu(vec![vec![mem(false, 0x1000)]]),
            ],
            &Symbols::new(),
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn widened_overwrite_of_a_cpu_copy_is_a_warning() {
        // A data-dependent lane of a mapped tile is written: the
        // footprint widens to the whole tile, which covers the cached
        // word, so the stale read is possible but not proven.
        let tile = TileMap::new(VAddr(0x4000), 4, 4, 16, 0, 1).unwrap();
        let diags = races(
            vec![
                cpu(vec![vec![mem(false, 0x4010)]]),
                kernel(vec![block(vec![local_op(true, vec![0])], Some(tile), true)]),
                cpu(vec![vec![mem(false, 0x4010)]]),
            ],
            &Symbols::new(),
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::DataDependentRace);
        let text = &diags[0].message;
        assert!(text.contains("kernel 0 may have overwritten it"), "{text}");
    }

    /// The concrete `(write, word)` accesses of each task of one group.
    type Tasks = Vec<Vec<(bool, u64)>>;

    /// A random exact program over a 48-word window — one kernel of
    /// global and coherently mapped ops, then a CPU phase — and the words
    /// each task touches, worked out from the ops directly.
    fn random_program(rng: &mut SplitMix64) -> (Vec<Phase>, Tasks, Tasks) {
        let word = |rng: &mut SplitMix64| 0x400 + rng.next_below(48);
        let (mut blocks, mut gpu) = (Vec::new(), Tasks::new());
        for _ in 0..2 + rng.next_below(3) {
            let (mut ops, mut touched) = (Vec::new(), Vec::new());
            for _ in 0..=rng.next_below(2) {
                let write = rng.chance(1, 2);
                let words: Vec<u64> = (0..=rng.next_below(3)).map(|_| word(rng)).collect();
                touched.extend(words.iter().map(|&w| (write, w)));
                let lanes = words.iter().map(|w| VAddr(w * WORD_BYTES)).collect();
                ops.push(WarpOp::GlobalMem { write, lanes });
            }
            // Half the blocks map 4 rows of 2 one-word fields of 2-word
            // objects, rows 8 words apart, and access a few lanes.
            let tile = rng
                .chance(1, 2)
                .then(|| TileMap::new(VAddr(word(rng) * WORD_BYTES), 4, 8, 2, 32, 4).unwrap());
            if let Some(tile) = tile {
                let write = rng.chance(1, 2);
                let lanes: Vec<u32> = (0..=rng.next_below(3))
                    .map(|_| rng.next_below(tile.local_words()) as u32)
                    .collect();
                touched.extend(lanes.iter().map(|&lane| {
                    let va = tile.virt_of_local_offset(u64::from(lane) * WORD_BYTES);
                    (write, va.0 / WORD_BYTES)
                }));
                ops.push(local_op(write, lanes));
            }
            blocks.push(block(ops, tile, false));
            gpu.push(touched);
        }
        let cores: Tasks = (0..2 + rng.next_below(2))
            .map(|_| {
                (0..=rng.next_below(3))
                    .map(|_| (rng.chance(1, 2), word(rng)))
                    .collect()
            })
            .collect();
        let per_core = cores
            .iter()
            .map(|ops| {
                ops.iter()
                    .map(|&(w, word)| mem(w, word * WORD_BYTES))
                    .collect()
            })
            .collect();
        (vec![kernel(blocks), cpu(per_core)], gpu, cores)
    }

    /// Whether tasks `a` and `b` touch a common word, at least one writing.
    fn truly_race(tasks: &Tasks, a: usize, b: usize) -> bool {
        tasks[a]
            .iter()
            .any(|&(wa, x)| tasks[b].iter().any(|&(wb, y)| x == y && (wa || wb)))
    }

    /// Parses `"<prefix>I and <prefix>J conflict on …"` into `(I, J)`.
    fn named_pair(message: &str, prefix: &str) -> Option<(usize, usize)> {
        let (a, rest) = message.strip_prefix(prefix)?.split_once(" and ")?;
        let (b, _) = rest.strip_prefix(prefix)?.split_once(" conflict on ")?;
        Some((a.parse().ok()?, b.parse().ok()?))
    }

    #[test]
    fn exact_races_match_a_brute_force_reference() {
        let mut racy_groups = 0;
        for seed in 0..400 {
            let (phases, gpu, cores) = random_program(&mut SplitMix64::new(seed));
            let diags = races(phases, &Symbols::new());
            assert!(
                diags.iter().all(|d| d.rule == Rule::ProvenRace),
                "seed {seed}: {diags:?}"
            );
            for (tasks, prefix) in [(gpu, "kernel 0 block "), (cores, "phase 1 core ")] {
                let named: Vec<(usize, usize)> = diags
                    .iter()
                    .filter_map(|d| named_pair(&d.message, prefix))
                    .collect();
                let racy = (0..tasks.len())
                    .any(|a| (a + 1..tasks.len()).any(|b| truly_race(&tasks, a, b)));
                // A group gets a race exactly when brute force finds one,
                // and every pair named truly races.
                assert_eq!(!named.is_empty(), racy, "seed {seed} {prefix}: {named:?}");
                assert!(
                    named.iter().all(|&(a, b)| truly_race(&tasks, a, b)),
                    "seed {seed} {prefix}: {named:?}"
                );
                racy_groups += usize::from(racy);
            }
        }
        assert!(
            (200..600).contains(&racy_groups),
            "{racy_groups} of 800 race"
        );
    }

    /// [`random_program`] with stash maps on some CPU cores and
    /// `StashMem` ops before some `Mem` ops, and the number of those ops
    /// and of the ones that touch a word: the others name an unmapped
    /// slot or a word past the tile.
    fn random_stash_program(rng: &mut SplitMix64) -> (Vec<Phase>, Tasks, Tasks, [usize; 2]) {
        let (mut phases, gpu, mem_cores) = random_program(rng);
        let Phase::Cpu(cpu) = &mut phases[1] else {
            unreachable!("random_program ends with a CPU phase")
        };
        let (mut cores, mut stash_ops) = (Tasks::new(), [0, 0]);
        for (ops, mem_accesses) in cpu.per_core.iter_mut().zip(mem_cores) {
            // 2 rows of 3 one-word fields of 2-word objects, rows 8 words
            // apart: local words 6 and 7 are past the tile.
            let maps: Vec<TileMap> = (0..rng.next_below(3))
                .map(|_| {
                    let base = VAddr((0x400 + rng.next_below(48)) * WORD_BYTES);
                    TileMap::new(base, 4, 8, 3, 32, 2).unwrap()
                })
                .collect();
            let mut touched = Vec::new();
            for (op, access) in std::mem::take(ops).into_iter().zip(mem_accesses) {
                for _ in 0..rng.next_below(3) {
                    let write = rng.chance(1, 2);
                    let (slot, word) = (rng.next_below(3) as usize, rng.next_below(8) as u32);
                    ops.push(CpuOp::StashMem { write, slot, word });
                    stash_ops[0] += 1;
                    let tile = maps.get(slot).filter(|t| u64::from(word) < t.local_words());
                    if let Some(tile) = tile {
                        let va = tile.virt_of_local_offset(u64::from(word) * WORD_BYTES);
                        touched.push((write, va.0 / WORD_BYTES));
                        stash_ops[1] += 1;
                    }
                }
                ops.push(op);
                touched.push(access);
            }
            cpu.stash_maps.push(maps);
            cores.push(touched);
        }
        (phases, gpu, cores, stash_ops)
    }

    #[test]
    fn cpu_stash_accesses_match_a_brute_force_reference() {
        let (mut stash_ops, mut racy_groups) = ([0, 0], 0);
        for seed in 0..400 {
            let (phases, gpu, cores, ops) = random_stash_program(&mut SplitMix64::new(seed));
            stash_ops = [stash_ops[0] + ops[0], stash_ops[1] + ops[1]];
            let program = Program { phases };
            // The reuse stream is each task's reference list, in order.
            let walked: Vec<(u32, u32, bool, u64)> = crate::analyze::reuse::word_events(&program)
                .iter()
                .map(|e| (e.phase, e.task, e.write, e.word))
                .collect();
            let reference: Vec<(u32, u32, bool, u64)> = [(0, &gpu), (1, &cores)]
                .into_iter()
                .flat_map(|(phase, tasks)| {
                    (0u32..).zip(tasks).flat_map(move |(task, accesses)| {
                        accesses
                            .iter()
                            .map(move |&(w, word)| (phase, task, w, word))
                    })
                })
                .collect();
            assert_eq!(walked, reference, "seed {seed}");
            // The race pass decides the cores' stash accesses like `Mem` ops.
            let diags = check_races(&program, &Symbols::new());
            assert!(
                diags.iter().all(|d| d.rule == Rule::ProvenRace),
                "seed {seed}: {diags:?}"
            );
            for (tasks, prefix) in [(gpu, "kernel 0 block "), (cores, "phase 1 core ")] {
                let named: Vec<(usize, usize)> = diags
                    .iter()
                    .filter_map(|d| named_pair(&d.message, prefix))
                    .collect();
                let racy = (0..tasks.len())
                    .any(|a| (a + 1..tasks.len()).any(|b| truly_race(&tasks, a, b)));
                assert_eq!(!named.is_empty(), racy, "seed {seed} {prefix}: {named:?}");
                assert!(
                    named.iter().all(|&(a, b)| truly_race(&tasks, a, b)),
                    "seed {seed} {prefix}: {named:?}"
                );
                racy_groups += usize::from(racy);
            }
        }
        // Stash words are both translated and dropped, and groups race.
        let [ops, touching] = stash_ops;
        assert!(0 < touching && touching < ops, "{touching} of {ops}");
        assert!(
            (200..600).contains(&racy_groups),
            "{racy_groups} of 800 race"
        );
    }
}
