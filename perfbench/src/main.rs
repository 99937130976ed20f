//! The stash-repro benchmark: four workloads over the simulator, the
//! checkpoint store and the `stashd` daemon, with end-to-end metrics from
//! timed runs and a per-layer table from a separate traced run.
//!
//! ```text
//! bash perfbench/run.sh --workload matrix|long-sim|checkpoint|serve \
//!     --seed N --seconds S --trace 0|1
//! bash perfbench/run.sh --print-goldens > perfbench/goldens.txt
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). Any output that fails its
//! correctness check makes the run exit 1. See `perfbench/README.md`.

mod checkpoint;
mod gen;
mod golden;
mod host;
mod longsim;
mod matrix;
mod report;
mod serve;
mod simcounts;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::time::Duration;

use report::{Metric, Outcome};
use spans::LayerTime;

/// What one invocation measures.
pub struct Ctx {
    /// Workload input seed.
    pub seed: u64,
    /// Seconds of timed work per run.
    pub seconds: f64,
    /// Traced run (per-layer table) instead of timed runs.
    pub traced: bool,
    /// Worker threads for pools, shards and the daemon: the host's CPUs.
    pub threads: usize,
    /// The host's logical CPUs.
    pub cpus: usize,
}

/// Seconds in a duration.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Runs `setup` `n` times back to back and returns the last result with
/// every run's seconds (`setup_s` is their median). All samples come
/// before any timed pass: after a pass the allocator sometimes holds
/// enough freed memory to make a set-up 40% cheaper, and that would split
/// runs into two modes.
///
/// # Errors
///
/// Propagates the first set-up failure.
pub fn timed_setups<T>(
    n: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t = std::time::Instant::now();
        last = Some(setup()?);
        times.push(secs(t.elapsed()));
    }
    Ok((last.expect("at least one set-up ran"), times))
}

/// A tail percentile of an op class, or `unresolved` when fewer than ten
/// samples lie beyond it.
pub fn tail_metric(class: &str, sorted_ms: &[f64], p: f64, threads: usize) -> Metric {
    let name = format!("{class}_p{p}_ms");
    match stats::resolved_percentile(sorted_ms, p) {
        Some(v) => Metric::new(&name, "ms", v, sorted_ms.len(), threads),
        None => Metric::missing(
            &name,
            "ms",
            sorted_ms.len(),
            &format!(
                "unresolved: fewer than {} samples beyond p{p}",
                stats::MIN_BEYOND
            ),
        ),
    }
}

/// The tail of an op sample: the highest standard percentile with at
/// least ten samples beyond it, or `unresolved` for a small sample.
pub fn op_tail(class: &str, sorted_ms: &[f64], threads: usize) -> Metric {
    match stats::highest_resolved(sorted_ms.len()) {
        Some(p) => tail_metric(class, sorted_ms, p, threads),
        None => Metric::missing(
            &format!("{class}_tail_ms"),
            "ms",
            sorted_ms.len(),
            "unresolved: too few samples for ten beyond any percentile",
        ),
    }
}

/// Writes a traced run's spans as JSON lines under `.bench_out/`.
pub fn write_spans(workload: &str, ctx: &Ctx, spans: &[spans::Span]) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{workload}-seed{}.jsonl", ctx.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, spans::to_json_lines(spans)));
    match written {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

/// The rows every traced run ends with: each layer's calls, total and
/// self time; the unattributed remainder (self time of the workload's
/// root span); the tracing overhead; and the host facts.
pub fn trace_footer(
    out: &mut Outcome,
    layers: &BTreeMap<&'static str, LayerTime>,
    root: &str,
    traced_wall: Duration,
    untraced_wall: Duration,
    ctx: &Ctx,
) {
    for (name, l) in layers {
        out.facts.push(format!(
            "span {name:<24} calls {:>6} total_ms {:>12.3} self_ms {:>12.3}",
            l.calls, l.total_ms, l.self_ms
        ));
    }
    let rest = layers.get(root).map_or(0.0, |l| l.self_ms);
    out.metrics.push(
        Metric::new("trace.unattributed_ms", "ms", rest, 1, ctx.threads).labelled(format!(
            "self time of {root}, traced wall {:.3} s",
            secs(traced_wall)
        )),
    );
    out.metrics.push(
        Metric::new(
            "trace.overhead_ms",
            "ms",
            (secs(traced_wall) - secs(untraced_wall)) * 1e3,
            1,
            ctx.threads,
        )
        .labelled(format!(
            "traced wall − untraced wall ({:.3} s), probes included",
            secs(untraced_wall)
        )),
    );
    out.metrics
        .push(Metric::new("host.cpus", "count", ctx.cpus as f64, 1, 0));
    out.metrics.push(Metric::new(
        "host.threads",
        "count",
        ctx.threads as f64,
        1,
        0,
    ));
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload matrix|long-sim|checkpoint|serve --seed N \
         --seconds S --trace 0|1\n       perfbench --print-goldens"
    );
    std::process::exit(2);
}

fn flag(args: &[String], name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    match args.get(i + 1) {
        Some(v) => Some(v.clone()),
        None => usage(),
    }
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match flag(args, name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| usage()),
    }
}

fn print_goldens(threads: usize) {
    let cells = matrix::lower(&spans::Tracer::new(false));
    let pass = matrix::pass(&cells, threads, &spans::Tracer::new(false));
    println!("# workload config state_digest report_signature sim_cycles");
    println!("# Sequential Machine::run of every Figure 5 + Figure 6 cell.");
    for (cell, run) in cells.iter().zip(&pass.cells) {
        match &run.result {
            Ok((report, digest)) => {
                println!(
                    "{}",
                    golden::Golden::line(cell.workload, cell.kind, report, *digest)
                );
            }
            Err(e) => {
                eprintln!("{}/{}: {e}", cell.workload, cell.kind.name());
                std::process::exit(1);
            }
        }
    }
    println!("# run_parallel (shard engine) results, the same at any thread count.");
    match longsim::golden_lines() {
        Ok(lines) => lines.iter().for_each(|l| println!("{l}")),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cpus = bench::cli::default_threads();
    if args.iter().any(|a| a == "--print-goldens") {
        print_goldens(cpus);
        return;
    }
    let workload = flag(&args, "--workload").unwrap_or_else(|| usage());
    let ctx = Ctx {
        seed: parse(&args, "--seed", 1),
        seconds: parse(&args, "--seconds", 10.0),
        traced: match parse(&args, "--trace", 0u8) {
            0 => false,
            1 => true,
            _ => usage(),
        },
        threads: cpus,
        cpus,
    };
    let outcome = match workload.as_str() {
        "matrix" => matrix::run(&ctx),
        "long-sim" => longsim::run(&ctx),
        "checkpoint" => checkpoint::run(&ctx),
        "serve" => serve::run(&ctx),
        _ => usage(),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(2);
        }
    };
    print!("{}", outcome.table(&workload));
    println!("{}", outcome.result_line(ctx.traced));
    if !outcome.correct() {
        std::process::exit(1);
    }
}
