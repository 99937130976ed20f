//! Parameter sweeps: sensitivity curves around the paper's operating
//! points, locating the crossovers the qualitative claims predict.
//!
//! * `--sweep compaction`  — object size 4…128 B on Implicit: how the
//!   stash's compact storage pulls away from the cache as more of each
//!   line is wasted;
//! * `--sweep selectivity` — selection density 1-in-1 … 1-in-64 on
//!   On-demand: where on-demand fetching overtakes bulk DMA transfer;
//! * `--sweep reuse`       — 1…16 kernels on Reuse: how the stash's
//!   one-time fetch amortizes against per-kernel recopying.
//!
//! Without `--sweep`, all three run. Every `(sweep-point, config)` cell
//! is an independent simulation, so each sweep fans its whole grid
//! through the job pool (`--threads N`); the `host ms` column is the
//! summed per-cell wall-clock of that row's simulations.

use std::num::NonZeroUsize;
use std::time::Duration;

use bench::cli;
use bench::pool::{JobPool, JobResult};
use gpu::config::MemConfigKind;
use gpu::machine::Machine;
use gpu::program::Program;
use gpu::report::RunReport;
use sim::config::SystemConfig;
use workloads::micro::{implicit, ondemand, reuse};

fn run(kind: MemConfigKind, program: &Program) -> Result<RunReport, sim::SimError> {
    let mut machine = Machine::new(SystemConfig::for_microbenchmarks(), kind);
    machine.run(program)
}

/// Runs one sweep's full `(point × config)` grid through the pool and
/// regroups the results per point, with each row's summed host time.
///
/// A failed cell reports its configuration context and exits nonzero —
/// a deadlock additionally prints its diagnostic dump (exit 3) —
/// instead of panicking mid-batch.
fn run_grid(
    pool: &JobPool,
    cells: Vec<(MemConfigKind, Program)>,
    per_point: usize,
) -> Vec<(Vec<RunReport>, Duration)> {
    let jobs: Vec<_> = cells
        .into_iter()
        .map(|(kind, program)| move || (kind, run(kind, &program)))
        .collect();
    let mut results = Vec::with_capacity(jobs.len());
    for job in pool.run(jobs) {
        let (kind, outcome) = job.value;
        match outcome {
            Ok(report) => results.push(JobResult {
                value: report,
                host_time: job.host_time,
            }),
            Err(e) => {
                let context = format!("sweep: point on {}", kind.name());
                std::process::exit(cli::sim_failure_status(&context, &e));
            }
        }
    }
    let mut results = results.into_iter();
    let points = results.len() / per_point;
    (0..points)
        .map(|_| {
            let row: Vec<JobResult<RunReport>> = results.by_ref().take(per_point).collect();
            let host: Duration = row.iter().map(|r| r.host_time).sum();
            (row.into_iter().map(|r| r.value).collect(), host)
        })
        .collect()
}

fn pct(x: &RunReport, base: &RunReport) -> (u64, u64) {
    (x.time_percent_of(base), x.energy_percent_of(base))
}

fn host_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sweep_compaction(pool: &JobPool) {
    println!("\n== compaction: Implicit vs object size (Scratch = 100) ==");
    println!(
        "{:>10} | {:>10} {:>10} | {:>10} {:>10} | {:>9}",
        "object B", "cache t%", "cache e%", "stash t%", "stash e%", "host ms"
    );
    let sizes = [4u64, 8, 16, 32, 64, 128];
    let cells = sizes
        .iter()
        .flat_map(|&b| {
            [
                MemConfigKind::Scratch,
                MemConfigKind::Cache,
                MemConfigKind::Stash,
            ]
            .map(|k| (k, implicit::program_with_object_bytes(k, b)))
        })
        .collect();
    for (&object_bytes, (row, host)) in sizes.iter().zip(run_grid(pool, cells, 3)) {
        let [base, cache, stash] = &row[..] else {
            unreachable!("three configs per point")
        };
        let (ct, ce) = pct(cache, base);
        let (st, se) = pct(stash, base);
        println!(
            "{object_bytes:>10} | {ct:>9}% {ce:>9}% | {st:>9}% {se:>9}% | {:>9.1}",
            host_ms(host)
        );
    }
    println!("(the cache column degrades with object size — every line fill");
    println!(" carries more unused bytes; the stash's compact fetches do not)");
}

fn sweep_selectivity(pool: &JobPool) {
    println!("\n== selectivity: On-demand vs selection density (Scratch = 100) ==");
    println!(
        "{:>10} | {:>10} {:>10} | {:>10} {:>10} | {:>9}",
        "1 in N", "dma t%", "dma e%", "stash t%", "stash e%", "host ms"
    );
    let densities = [1u64, 2, 4, 8, 16, 32, 64];
    let cells = densities
        .iter()
        .flat_map(|&n| {
            [
                MemConfigKind::Scratch,
                MemConfigKind::ScratchGD,
                MemConfigKind::Stash,
            ]
            .map(|k| (k, ondemand::program_with_selectivity(k, n)))
        })
        .collect();
    for (&one_of, (row, host)) in densities.iter().zip(run_grid(pool, cells, 3)) {
        let [base, dma, stash] = &row[..] else {
            unreachable!("three configs per point")
        };
        let (dt, de) = pct(dma, base);
        let (st, se) = pct(stash, base);
        println!(
            "{one_of:>10} | {dt:>9}% {de:>9}% | {st:>9}% {se:>9}% | {:>9.1}",
            host_ms(host)
        );
    }
    println!("(dense selections amortize DMA's bulk transfer; as accesses");
    println!(" sparsify, only the stash's on-demand fetches stay proportional)");
}

fn sweep_reuse(pool: &JobPool) {
    println!("\n== reuse: Reuse vs kernel count (per-point Scratch = 100) ==");
    println!(
        "{:>10} | {:>10} {:>10} | {:>14} | {:>9}",
        "kernels", "stash t%", "stash e%", "stash fetches", "host ms"
    );
    let kernel_counts = [1usize, 2, 4, 8, 16];
    let cells = kernel_counts
        .iter()
        .flat_map(|&n| {
            [MemConfigKind::Scratch, MemConfigKind::Stash]
                .map(|k| (k, reuse::program_with_kernels(k, n)))
        })
        .collect();
    for (&kernels, (row, host)) in kernel_counts.iter().zip(run_grid(pool, cells, 2)) {
        let [base, stash] = &row[..] else {
            unreachable!("two configs per point")
        };
        let (st, se) = pct(stash, base);
        println!(
            "{kernels:>10} | {st:>9}% {se:>9}% | {:>14} | {:>9.1}",
            stash.counters.get("stash.fetch_words"),
            host_ms(host)
        );
    }
    println!("(fetches stay constant at one kernel's worth — the amortization");
    println!(" curve of global visibility + lazy writebacks)");
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let threads = cli::take_parsed(&mut args, "--threads")
        .map_or_else(cli::default_threads, NonZeroUsize::get);
    let which = cli::take_value(&mut args, "--sweep");
    cli::finish(args, false);
    let pool = JobPool::new(threads);
    let start = std::time::Instant::now();
    match which.as_deref() {
        Some("compaction") => sweep_compaction(&pool),
        Some("selectivity") => sweep_selectivity(&pool),
        Some("reuse") => sweep_reuse(&pool),
        Some(other) => {
            eprintln!("unknown sweep {other}; use compaction|selectivity|reuse");
            std::process::exit(2);
        }
        None => {
            sweep_compaction(&pool);
            sweep_selectivity(&pool);
            sweep_reuse(&pool);
        }
    }
    println!(
        "\n[harness] sweeps done on {} thread(s) in {:.2?}",
        pool.threads(),
        start.elapsed()
    );
}
