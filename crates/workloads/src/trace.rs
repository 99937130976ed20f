//! Trace-driven workloads: describe a workload in a small text format and
//! lower it to any memory configuration — the front door for running your
//! own access patterns without writing Rust.
//!
//! # Format
//!
//! Line-oriented; `#` starts a comment. Directives:
//!
//! ```text
//! machine micro|apps              # which Table 2 machine (default micro)
//! array <name> elems=<n> object=<bytes> [field_off=<b>] [field=<b>]
//! kernel                          # starts a new kernel
//! block                           # starts a new thread block
//! task <array> <start> <count> <r|w|rw> <local|global|temp>
//!      [passes=<n>] [compute=<n>] [share=<k>] [rows=<n> stride=<elems>]
//! cpu_sweep <array> [cores=<n>] [write]
//! ```
//!
//! A `task` is one [`TileTask`]: this block reads/writes `count` elements
//! of `<array>` starting at `<start>` (2-D if `rows`/`stride` given),
//! staged per the placement. Arrays are laid out at non-overlapping
//! virtual bases automatically. `object` defaults to 4 bytes, `field` to
//! 4 bytes, and a `cpu_sweep`'s `cores` to the machine's CPU core count
//! (15 on `micro`, 1 on `apps`).
//!
//! # Validation
//!
//! A trace is untrusted input, so [`parse_trace`] checks everything
//! lowering relies on and names the offending line, and
//! [`TraceWorkload::build`] cannot fail:
//!
//! * every size and address is computed without overflow: an array's
//!   footprint, its base placement and the end of its last field, and a
//!   task's element range;
//! * an array's field and each task's tile obey the [`TileMap::new`]
//!   geometry rules: nonzero, word-multiple sizes, a field no larger
//!   than its object, a word-aligned base, and rows that do not overlap;
//! * each task lies inside its array;
//! * an explicit `cores=` lies in `1..=` the machine's CPU core count;
//! * a task's `compute=` plus its per-access index cost fits in 32 bits;
//! * the whole trace lowers to at most [`MAX_TRACE_WORDS`] words.
//!
//! # Example
//!
//! ```
//! use gpu::config::MemConfigKind;
//! use workloads::trace::parse_trace;
//!
//! let tw = parse_trace(
//!     "array a elems=1024 object=16
//!      kernel
//!      block
//!      task a 0 256 rw local compute=4",
//! ).unwrap();
//! let program = tw.build(MemConfigKind::Stash);
//! assert_eq!(program.kernel_count(), 1);
//! ```
//!
//! A trace can also interleave GPU kernels with CPU phases and revisit
//! the same array tile from a later kernel — the pattern behind the
//! stash's cross-kernel reuse (§4.5) and the `reuse` microbenchmark.
//! Each `kernel` directive opens a new kernel; `cpu_sweep` inserts a
//! CPU phase reading (or, with `write`, writing) every element of an
//! array between them:
//!
//! ```
//! use gpu::config::MemConfigKind;
//! use gpu::program::Phase;
//! use workloads::trace::parse_trace;
//!
//! let tw = parse_trace(
//!     "array grid elems=512 object=4
//!      kernel                       # kernel 1 registers the tile
//!      block
//!      task grid 0 512 rw local
//!      cpu_sweep grid cores=2       # CPU reads the GPU's output
//!      kernel                       # kernel 2 re-reads the same tile:
//!      block                        #   stash hits, cache re-fetches,
//!      task grid 0 512 r local      #   scratch re-copies
//! ",
//! ).unwrap();
//! let program = tw.build(MemConfigKind::Stash);
//! assert_eq!(program.kernel_count(), 2);
//! assert!(matches!(program.phases[1], Phase::Cpu(_)));
//! ```

use crate::builder::{
    cpu_sweep, kernel_from_blocks, AosArray, Placement, TileTask, WorkloadBuilder,
    GLOBAL_INDEX_COST, LOCAL_INDEX_COST,
};
use crate::suite::WorkloadSet;
use gpu::config::MemConfigKind;
use gpu::program::{Phase, Program};
use mem::addr::{VAddr, WORD_BYTES};
use mem::tile::TileMap;
use sim::error::SimError;
use std::collections::HashMap;

/// The most words a trace may lower to, summed over every `task`
/// (`count × rows` elements of `field / 4` words each, once per pass and
/// at least once) and every `cpu_sweep` (its array's fields): 85× the
/// largest trace the repository benchmark generates (49,152 words). At
/// the cap, `run-trace --threads 1` peaks at a few hundred MB.
pub const MAX_TRACE_WORDS: u64 = 1 << 22;

/// A parsed trace: a configuration-independent workload description.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    set: WorkloadSet,
    arrays: HashMap<String, AosArray>,
    phases: Vec<TracePhase>,
}

#[derive(Debug, Clone)]
enum TracePhase {
    Kernel(Vec<Vec<TileTask>>),
    CpuSweep {
        array: AosArray,
        /// `None`: every CPU core of the machine.
        cores: Option<usize>,
        write: bool,
    },
}

impl TraceWorkload {
    /// Which machine the trace runs on.
    pub fn set(&self) -> WorkloadSet {
        self.set
    }

    /// The declared arrays, by name.
    pub fn array(&self, name: &str) -> Option<&AosArray> {
        self.arrays.get(name)
    }

    /// All declared arrays, sorted by name (diagnostics, symbol tables).
    pub fn arrays(&self) -> Vec<(&str, &AosArray)> {
        let mut out: Vec<(&str, &AosArray)> =
            self.arrays.iter().map(|(n, a)| (n.as_str(), a)).collect();
        out.sort_by_key(|&(n, _)| n);
        out
    }

    /// Lowers the trace for one memory configuration. [`parse_trace`]
    /// has validated every task and sweep, so lowering cannot fail.
    pub fn build(&self, kind: MemConfigKind) -> Program {
        let builder = WorkloadBuilder::new(kind);
        let phases = self
            .phases
            .iter()
            .map(|phase| match phase {
                TracePhase::Kernel(blocks) => {
                    Phase::Gpu(kernel_from_blocks(&builder, blocks.clone()))
                }
                TracePhase::CpuSweep {
                    array,
                    cores,
                    write,
                } => {
                    let cores = cores.unwrap_or(self.set.system_config().cpu_cores);
                    Phase::Cpu(cpu_sweep(array, cores, *write))
                }
            })
            .collect();
        Program { phases }
    }

    /// [`Self::build`] for callers that handle a `Result`.
    ///
    /// # Errors
    ///
    /// None: [`parse_trace`] rejects every trace that would not lower.
    pub fn try_build(&self, kind: MemConfigKind) -> Result<Program, SimError> {
        Ok(self.build(kind))
    }
}

fn parse_kv(token: &str) -> Option<(&str, &str)> {
    token.split_once('=')
}

fn parse_num(s: &str, what: &str, line_no: usize) -> Result<u64, String> {
    let s = s.trim();
    let parsed = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| format!("line {line_no}: invalid {what} `{s}`"))
}

fn parse_u32(s: &str, what: &str, line_no: usize) -> Result<u32, String> {
    u32::try_from(parse_num(s, what, line_no)?)
        .map_err(|_| format!("line {line_no}: {what} `{s}` does not fit in 32 bits"))
}

/// Validates one `task` against its array and builds its tile: the range
/// must lie inside the array and the geometry must pass
/// [`TileMap::new`], with every size and address computed without
/// overflow.
fn task_tile(
    a: &AosArray,
    start: u64,
    count: u64,
    rows: Option<(u64, u64)>,
) -> Result<TileMap, String> {
    let (n_rows, stride) = rows.unwrap_or((1, 0));
    let end = n_rows
        .saturating_sub(1)
        .checked_mul(stride)
        .and_then(|span| span.checked_add(start))
        .and_then(|span| span.checked_add(count));
    if end.is_none_or(|end| end > a.elems) {
        let end = end.map_or_else(|| ">= 2^64".to_string(), |end| end.to_string());
        let elems = a.elems;
        return Err(format!(
            "task reaches element {end} but the array has {elems} elements"
        ));
    }
    // Inside the array, every address is below the end of its last
    // field, which `parse_trace` has checked is addressable.
    let base = a.base.add(start * a.object_bytes + a.field_offset);
    let stride_bytes = stride
        .checked_mul(a.object_bytes)
        .ok_or_else(|| format!("task stride {stride} overflows"))?;
    TileMap::new(
        base,
        a.field_bytes,
        a.object_bytes,
        count,
        stride_bytes,
        n_rows,
    )
}

/// Parses the trace format and validates the whole workload, so that
/// [`TraceWorkload::build`] cannot fail.
///
/// # Errors
///
/// Returns [`SimError::Config`] with a message naming the offending line
/// for syntax errors, unknown directives or arrays, tasks outside any
/// `kernel`/`block`, invalid geometry, tasks outside their array, a
/// `cpu_sweep` core count outside the machine, or a trace that lowers to
/// more than [`MAX_TRACE_WORDS`] words.
pub fn parse_trace(text: &str) -> Result<TraceWorkload, SimError> {
    parse_trace_impl(text).map_err(SimError::Config)
}

fn parse_trace_impl(text: &str) -> Result<TraceWorkload, String> {
    let mut set = WorkloadSet::Micro;
    let mut arrays: HashMap<String, AosArray> = HashMap::new();
    let mut next_base: u64 = 0x1000_0000;
    let mut phases: Vec<TracePhase> = Vec::new();
    // Explicit `cpu_sweep` core counts, checked once `machine` is known.
    let mut sweep_cores: Vec<(usize, u64)> = Vec::new();
    let mut words: u64 = 0;

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let directive = tokens.next().expect("nonempty line");
        let rest: Vec<&str> = tokens.collect();
        let mut add_words = |n: Option<u64>| match n.and_then(|n| words.checked_add(n)) {
            Some(total) if total <= MAX_TRACE_WORDS => {
                words = total;
                Ok(())
            }
            _ => Err(format!(
                "line {line_no}: the trace lowers to more than {MAX_TRACE_WORDS} words"
            )),
        };
        match directive {
            "machine" => {
                set = match rest.first().copied() {
                    Some("micro") => WorkloadSet::Micro,
                    Some("apps") => WorkloadSet::Apps,
                    other => {
                        return Err(format!(
                            "line {line_no}: machine must be micro|apps, got {other:?}"
                        ))
                    }
                };
            }
            "array" => {
                let name = rest
                    .first()
                    .ok_or_else(|| format!("line {line_no}: array needs a name"))?
                    .to_string();
                let mut elems = None;
                let mut object = 4u64;
                let mut field_off = 0u64;
                let mut field = 4u64;
                for tok in &rest[1..] {
                    let (k, v) = parse_kv(tok).ok_or_else(|| {
                        format!("line {line_no}: expected key=value, got `{tok}`")
                    })?;
                    let v = parse_num(v, k, line_no)?;
                    match k {
                        "elems" => elems = Some(v),
                        "object" => object = v,
                        "field_off" => field_off = v,
                        "field" => field = v,
                        other => {
                            return Err(format!("line {line_no}: unknown array key `{other}`"))
                        }
                    }
                }
                let elems =
                    elems.ok_or_else(|| format!("line {line_no}: array needs elems=<n>"))?;
                let a = AosArray {
                    base: VAddr(next_base),
                    object_bytes: object,
                    elems,
                    field_offset: field_off,
                    field_bytes: field,
                };
                // Arrays are placed on disjoint 256 MB-aligned regions; the
                // last field's end must be addressable too.
                let footprint = elems.checked_mul(object);
                let end = footprint
                    .and_then(|bytes| bytes.checked_add(field_off))
                    .and_then(|bytes| next_base.checked_add(bytes));
                let region = footprint
                    .and_then(|bytes| bytes.checked_next_multiple_of(0x1000_0000))
                    .and_then(|bytes| next_base.checked_add(bytes));
                let (Some(_), Some(region_end)) = (end, region) else {
                    return Err(format!(
                        "line {line_no}: array `{name}` does not fit the address space"
                    ));
                };
                // One element's field must be a valid tile.
                TileMap::new(VAddr(next_base + field_off), field, object, 1, 0, 1)
                    .map_err(|e| format!("line {line_no}: array `{name}`: {e}"))?;
                next_base = region_end;
                if arrays.insert(name.clone(), a).is_some() {
                    return Err(format!("line {line_no}: array `{name}` redeclared"));
                }
            }
            "kernel" => phases.push(TracePhase::Kernel(Vec::new())),
            "block" => match phases.last_mut() {
                Some(TracePhase::Kernel(blocks)) => blocks.push(Vec::new()),
                _ => return Err(format!("line {line_no}: block outside a kernel")),
            },
            "task" => {
                let [array, start, count, mode, placement, opts @ ..] = rest.as_slice() else {
                    return Err(format!(
                        "line {line_no}: task <array> <start> <count> <r|w|rw> <local|global|temp> [opts]"
                    ));
                };
                let Some(a) = arrays.get(*array) else {
                    return Err(format!("line {line_no}: unknown array `{array}`"));
                };
                let (reads, writes) = match *mode {
                    "r" => (true, false),
                    "w" => (false, true),
                    "rw" => (true, true),
                    other => {
                        return Err(format!(
                            "line {line_no}: mode must be r|w|rw, got `{other}`"
                        ))
                    }
                };
                let placement = match *placement {
                    "local" => Placement::Local,
                    "global" => Placement::Global,
                    "temp" => Placement::Temporary,
                    other => {
                        return Err(format!(
                            "line {line_no}: placement must be local|global|temp, got `{other}`"
                        ))
                    }
                };
                let start = parse_num(start, "start", line_no)?;
                let count = parse_num(count, "count", line_no)?;
                let (mut passes, mut compute, mut share) = (1u32, 2u32, None);
                let mut rows = None;
                let mut stride = None;
                for tok in opts {
                    let (k, v) = parse_kv(tok).ok_or_else(|| {
                        format!("line {line_no}: expected key=value, got `{tok}`")
                    })?;
                    match k {
                        "passes" => passes = parse_u32(v, k, line_no)?,
                        "compute" => {
                            compute = parse_u32(v, k, line_no)?;
                            // Lowering adds the index cost to each pass's compute.
                            if compute
                                .checked_add(GLOBAL_INDEX_COST.max(LOCAL_INDEX_COST))
                                .is_none()
                            {
                                return Err(format!(
                                    "line {line_no}: compute `{v}` leaves no room for the \
                                     per-access index cost"
                                ));
                            }
                        }
                        "share" => share = Some(parse_u32(v, k, line_no)?),
                        "rows" => rows = Some(parse_num(v, k, line_no)?),
                        "stride" => stride = Some(parse_num(v, k, line_no)?),
                        other => return Err(format!("line {line_no}: unknown task key `{other}`")),
                    }
                }
                let rows = match (rows, stride) {
                    (Some(r), Some(s)) => Some((r, s)),
                    (None, None) => None,
                    _ => {
                        return Err(format!(
                            "line {line_no}: rows= and stride= must be given together"
                        ))
                    }
                };
                let tile = task_tile(a, start, count, rows)
                    .map_err(|e| format!("line {line_no}: array `{array}`: {e}"))?;
                add_words(tile.local_words().checked_mul(u64::from(passes.max(1))))?;
                let task = TileTask {
                    reads,
                    writes,
                    passes,
                    compute_per_iter: compute,
                    share,
                    ..TileTask::dense(tile, placement, compute)
                };
                match phases.last_mut() {
                    Some(TracePhase::Kernel(blocks)) if !blocks.is_empty() => {
                        blocks.last_mut().expect("nonempty").push(task);
                    }
                    _ => return Err(format!("line {line_no}: task outside a block")),
                }
            }
            "cpu_sweep" => {
                let name = rest
                    .first()
                    .ok_or_else(|| format!("line {line_no}: cpu_sweep needs an array"))?;
                let Some(&array) = arrays.get(*name) else {
                    return Err(format!("line {line_no}: unknown array `{name}`"));
                };
                let mut cores = None;
                let mut write = false;
                for tok in &rest[1..] {
                    if *tok == "write" {
                        write = true;
                    } else if let Some(("cores", v)) = parse_kv(tok) {
                        cores = Some(parse_num(v, "cores", line_no)?);
                    } else {
                        return Err(format!("line {line_no}: unknown cpu_sweep option `{tok}`"));
                    }
                }
                add_words(array.elems.checked_mul(array.field_bytes / WORD_BYTES))?;
                sweep_cores.extend(cores.map(|n| (line_no, n)));
                phases.push(TracePhase::CpuSweep {
                    array,
                    cores: cores.map(|n| usize::try_from(n).unwrap_or(usize::MAX)),
                    write,
                });
            }
            other => return Err(format!("line {line_no}: unknown directive `{other}`")),
        }
    }

    // `cores` defaults to the machine's CPU core count (see `build`); an
    // explicit count must lie in `1..=` that count.
    let machine_cores = set.system_config().cpu_cores;
    if let Some((line_no, n)) = sweep_cores
        .into_iter()
        .find(|&(_, n)| !(1..=machine_cores as u64).contains(&n))
    {
        return Err(format!(
            "line {line_no}: cpu_sweep cores={n} outside 1..={machine_cores}, \
             the machine's CPU cores"
        ));
    }
    Ok(TraceWorkload {
        set,
        arrays,
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu::machine::Machine;

    const EXAMPLE: &str = "
        # two kernels over one array, then the CPUs read it back
        machine micro
        array data elems=1024 object=32 field=4
        kernel
        block
        task data 0 256 rw local passes=1 compute=4
        block
        task data 256 256 rw local
        kernel
        block
        task data 0 256 rw local
        cpu_sweep data cores=15
    ";

    #[test]
    fn parses_and_builds_for_every_configuration() {
        let tw = parse_trace(EXAMPLE).unwrap();
        assert_eq!(tw.set(), WorkloadSet::Micro);
        assert_eq!(tw.array("data").unwrap().elems, 1024);
        for kind in MemConfigKind::ALL {
            let program = tw.build(kind);
            assert_eq!(program.kernel_count(), 2);
            let mut machine = Machine::new(tw.set().system_config(), kind);
            let report = machine.run(&program).unwrap();
            assert!(report.total_picos > 0, "{kind}");
        }
    }

    #[test]
    fn trace_reproduces_cross_kernel_reuse() {
        let tw = parse_trace(EXAMPLE).unwrap();
        let mut machine = Machine::new(tw.set().system_config(), MemConfigKind::Stash);
        let report = machine.run(&tw.build(MemConfigKind::Stash)).unwrap();
        // Kernel 2 remaps block 0's tile: adoption fires.
        assert!(report.counters.get("stash.addmap_replicated") > 0);
    }

    #[test]
    fn invalid_traces_are_rejected_at_their_line() {
        // (trace, line that must be named, part of the reason); every
        // rejection is a `SimError::Config`.
        let cases = [
            ("bogus", 1, "unknown directive"),
            ("machine neither", 1, "machine must be micro|apps"),
            ("array a", 1, "array needs elems"),
            ("array a elems=nope", 1, "invalid elems"),
            ("array a elems=16 size=4", 1, "unknown array key"),
            ("array a elems=16\narray a elems=16", 2, "redeclared"),
            ("block", 1, "outside a kernel"),
            ("task x 0 8 rw local", 1, "unknown array"),
            ("array a elems=16\nkernel\ntask a 0 8 rw local", 3, "outside a block"),
            ("array a elems=16\nkernel\nblock\ntask b 0 8 rw local", 4, "unknown array"),
            ("array a elems=16\nkernel\nblock\ntask a 0 8", 4, "task <array>"),
            ("array a elems=16\nkernel\nblock\ntask a 0 8 x local", 4, "mode must be r|w|rw"),
            ("array a elems=16\nkernel\nblock\ntask a 0 8 rw stack", 4, "placement must be local|global|temp"),
            ("array a elems=16\nkernel\nblock\ntask a 0 8 rw local passes", 4, "key=value"),
            ("array a elems=16\nkernel\nblock\ntask a 0 8 rw local warp=3", 4, "unknown task key"),
            ("array m elems=4096\nkernel\nblock\ntask m 0 16 r local rows=16", 4, "together"),
            ("cpu_sweep", 1, "needs an array"),
            ("array a elems=16\ncpu_sweep b", 2, "unknown array"),
            ("array a elems=16\ncpu_sweep a sideways", 2, "unknown cpu_sweep option"),
            ("array a elems=64\nkernel\nblock\ntask a 0 128 r global", 4, "element 128"),
            ("array a elems=16\nkernel\nblock\ntask a 8 16 rw local", 4, "element 24 but the array has 16 elements"),
            // 2-D: the last row's end is what matters.
            ("array m elems=256\nkernel\nblock\ntask m 0 16 r local rows=16 stride=17", 4, "element 271"),
            ("array m elems=64\nkernel\nblock\ntask m 0 1 r local rows=4294967297 stride=4294967296", 4, "element >= 2^64"),
            ("array a elems=64\ncpu_sweep a cores=0", 2, "outside 1..=15"),
            ("array a elems=64\ncpu_sweep a cores=100", 2, "outside 1..=15"),
            ("array a elems=64\ncpu_sweep a cores=4000000000", 2, "outside 1..=15"),
            ("array a elems=64\ncpu_sweep a cores=2\nmachine apps", 2, "outside 1..=1"),
            ("array a elems=64 object=0", 1, "nonzero"),
            ("array a elems=64 field=0", 1, "nonzero"),
            ("array a elems=64 object=6", 1, "word multiples"),
            ("array a elems=64 object=4 field=8", 1, "larger than object"),
            ("array a elems=64 field_off=2 object=8", 1, "word aligned"),
            ("array a elems=64\nkernel\nblock\ntask a 0 0 r global", 4, "nonzero"),
            ("array a elems=64\nkernel\nblock\ntask a 0 4 r global rows=0 stride=0", 4, "nonzero"),
            ("array a elems=64\nkernel\nblock\ntask a 0 8 r global rows=2 stride=4", 4, "overlap"),
            ("array a elems=1099511627776\nkernel\nblock\ntask a 0 1099511627776 r global", 4, "more than 4194304 words"),
            ("array a elems=4096\nkernel\nblock\ntask a 0 4096 rw local passes=1000000", 4, "more than 4194304 words"),
            ("array a elems=4096\nkernel\nblock\ntask a 0 4096 rw local passes=4294967296", 4, "32 bits"),
            ("array a elems=4194305\ncpu_sweep a", 2, "more than 4194304 words"),
            ("array a elems=4611686018427387904 object=8", 1, "address space"),
            ("array a elems=64\nkernel\nblock\ntask a 0 32 r global compute=4294967295", 4, "compute `4294967295` leaves no room"),
            ("array a elems=64\nkernel\nblock\ntask a 0 32 r local compute=4294967294", 4, "per-access index cost"),
        ];
        for (text, line, needle) in cases {
            let err = match parse_trace(text) {
                Err(SimError::Config(e)) => e,
                other => panic!("{text:?} was not rejected: {other:?}"),
            };
            assert!(err.starts_with(&format!("line {line}:")), "{text:?}: {err}");
            assert!(err.contains(needle), "{text:?}: {err}");
        }

        // At the boundaries, traces parse and lower for every configuration.
        for text in [
            "array a elems=16\nkernel\nblock\ntask a 8 8 rw local",
            "array m elems=4096\nkernel\nblock\ntask m 0 16 r local rows=16 stride=64",
            "array a elems=64\ncpu_sweep a cores=15",
            "array a elems=64\nkernel\nblock\ntask a 0 32 r global compute=4294967293",
        ] {
            let tw = parse_trace(text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            for kind in MemConfigKind::ALL {
                assert!(tw.try_build(kind).is_ok(), "{text:?} on {kind}");
            }
        }
        for at_cap in [
            "array a elems=4194304\ncpu_sweep a",
            "array a elems=4096\nkernel\nblock\ntask a 0 4096 r global passes=1024",
        ] {
            assert!(parse_trace(at_cap).is_ok(), "{at_cap:?}");
        }
        // A sweep without `cores=` uses every CPU core of its machine,
        // which is one on `apps`.
        let tw = parse_trace("machine apps\narray a elems=64\ncpu_sweep a").unwrap();
        let program = tw.build(MemConfigKind::Stash);
        let Phase::Cpu(sweep) = &program.phases[0] else {
            panic!("a CPU phase");
        };
        assert_eq!(sweep.per_core.len(), 1);
        Machine::new(tw.set().system_config(), MemConfigKind::Stash)
            .run(&program)
            .unwrap();
    }

    #[test]
    fn arrays_get_disjoint_bases() {
        let tw = parse_trace("array a elems=1000 object=64\narray b elems=1000 object=64").unwrap();
        let a = tw.array("a").unwrap();
        let b = tw.array("b").unwrap();
        assert!(
            b.base.0 >= a.base.0 + a.footprint_bytes()
                || a.base.0 >= b.base.0 + b.footprint_bytes()
        );
    }

    #[test]
    fn comments_and_hex_are_accepted() {
        let tw = parse_trace(
            "# header\narray a elems=0x100 object=16 # trailing\nkernel\nblock\ntask a 0 0x40 r local",
        )
        .unwrap();
        assert_eq!(tw.array("a").unwrap().elems, 256);
    }
}
