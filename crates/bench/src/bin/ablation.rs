//! Ablations of the stash's design choices (DESIGN.md §4) and the
//! paper's §8 future-work extensions.
//!
//! 1. §4.5 data replication on/off (Reuse);
//! 2. word- vs line-granularity transfer (Implicit, stash vs cache);
//! 3. lazy vs eager writebacks (Implicit, stash);
//! 4. word- vs line-granularity *registration* — DeNovo vs a MESI-style
//!    single-writer registry (Pathfinder's adjacent row slices);
//! 5. §8 extensions: AddMap-time prefetch and widened fetch granularity
//!    (On-demand vs Implicit show the trade-off).
//!
//! Each cell is a machine whose `SystemConfig` differs from the paper's
//! in at most one switch (`bench::ablation::grid`). Every ablation cell
//! is an independent simulation; the whole grid is one pool batch
//! (`--threads N`), and each printed block reports the host wall-clock
//! its simulations took.

use std::num::NonZeroUsize;
use std::time::Duration;

use bench::ablation;
use bench::cli;
use bench::pool::{JobPool, JobResult};
use gpu::config::MemConfigKind;
use gpu::report::RunReport;

fn host_ms(results: &[&JobResult<RunReport>]) -> f64 {
    results
        .iter()
        .map(|r| r.host_time)
        .sum::<Duration>()
        .as_secs_f64()
        * 1e3
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let threads = cli::take_parsed(&mut args, "--threads")
        .map_or_else(cli::default_threads, NonZeroUsize::get);
    cli::finish(args, false);
    let pool = JobPool::new(threads);
    let start = std::time::Instant::now();

    // The full ablation grid as one batch; `ablation::grid` documents
    // which cell each index below names.
    let jobs: Vec<_> = ablation::grid()
        .into_iter()
        .map(|cell| {
            move || {
                cell.run().map(|(report, _)| report).map_err(|e| {
                    let context = format!("ablation: {} on {}", cell.workload, cell.kind.name());
                    (context, e)
                })
            }
        })
        .collect();
    let jobs_len = jobs.len();
    // A failed cell reports its (workload, configuration) context and
    // exits nonzero — a deadlock additionally prints its diagnostic
    // dump (exit 3) — instead of panicking mid-batch.
    let mut results: Vec<JobResult<RunReport>> = Vec::with_capacity(jobs_len);
    for job in pool.run(jobs) {
        match job.value {
            Ok(report) => results.push(JobResult {
                value: report,
                host_time: job.host_time,
            }),
            Err((context, e)) => std::process::exit(cli::sim_failure_status(&context, &e)),
        }
    }
    let r = |i: usize| -> &JobResult<RunReport> { &results[i] };

    println!("Ablation 1 — §4.5 data replication (Reuse, Stash config)");
    let (on, off) = (r(0), r(1));
    println!(
        "  replication ON : cycles {:>9}  energy {:>14} fJ  fetches {:>6}",
        on.value.gpu_cycles,
        on.value.total_energy(),
        on.value.counters.get("stash.fetch_words")
    );
    println!(
        "  replication OFF: cycles {:>9}  energy {:>14} fJ  fetches {:>6}",
        off.value.gpu_cycles,
        off.value.total_energy(),
        off.value.counters.get("stash.fetch_words")
    );
    println!("  (host: {:.1} ms)", host_ms(&[on, off]));

    println!("\nAblation 2 — word- vs line-granularity transfer (Implicit)");
    for (kind, res) in [(MemConfigKind::Stash, r(2)), (MemConfigKind::Cache, r(3))] {
        println!(
            "  {:<10} read-crossings {:>8}  total energy {:>14} fJ",
            kind.name(),
            res.value.traffic.crossings(noc::MsgClass::Read),
            res.value.total_energy()
        );
    }
    println!("  (host: {:.1} ms)", host_ms(&[r(2), r(3)]));

    println!("\nAblation 3 — lazy vs eager stash writebacks");
    for (wl, lazy, eager) in [("reuse", r(0), r(4)), ("implicit", r(2), r(5))] {
        println!("  {wl}:");
        for (label, res) in [("lazy ", lazy), ("eager", eager)] {
            println!(
                "    {label}: wb words {:>6}  forwards {:>6}  gpu cycles {:>9}  energy {:>14} fJ",
                res.value.counters.get("wb.stash_words"),
                res.value.counters.get("remote.forward"),
                res.value.gpu_cycles,
                res.value.total_energy()
            );
        }
    }
    println!("  (host: {:.1} ms)", host_ms(&[r(4), r(5)]));
    println!("  (on Reuse, eager drains also destroy the cross-kernel reuse: the");
    println!("   data must be refetched every kernel — §2's core claim. On Implicit");
    println!("   everything is consumed once, so eager's bulk drain merely trades");
    println!("   against lazy's per-word CPU forwards.)");

    println!("\nAblation 4 — word- vs line-granularity registration (Pathfinder, Cache)");
    let (word, line) = (r(6), r(7));
    println!(
        "  word (DeNovo): false-sharing revocations {:>7}  write-crossings {:>9}",
        word.value
            .counters
            .get("coherence.false_sharing_revocation"),
        word.value.traffic.crossings(noc::MsgClass::Write)
    );
    println!(
        "  line (MESI-ish): false-sharing revocations {:>5}  write-crossings {:>9}",
        line.value
            .counters
            .get("coherence.false_sharing_revocation"),
        line.value.traffic.crossings(noc::MsgClass::Write)
    );
    println!("  (host: {:.1} ms)", host_ms(&[word, line]));

    println!("\nExtension (§8) — AddMap prefetch + widened fetches");
    for (label, base, pf, wide) in [
        ("dense (Implicit)", r(2), r(8), r(9)),
        ("sparse (On-demand)", r(10), r(11), r(12)),
    ] {
        println!("  {label}:");
        println!(
            "    on-demand : gpu cycles {:>9}  fetched words {:>7}",
            base.value.gpu_cycles,
            base.value.counters.get("stash.fetch_words")
        );
        println!(
            "    prefetch  : gpu cycles {:>9}  fetched words {:>7}",
            pf.value.gpu_cycles,
            pf.value.counters.get("stash.fetch_words")
        );
        println!(
            "    8-word fetch: gpu cycles {:>7}  fetched words {:>7}",
            wide.value.gpu_cycles,
            wide.value.counters.get("stash.fetch_words")
        );
    }
    println!(
        "  (host: {:.1} ms)",
        host_ms(&[r(8), r(9), r(10), r(11), r(12)])
    );
    println!("  (prefetch helps dense mappings, wastes transfers on sparse ones —");
    println!("   the same trade-off that separates DMA from the stash in Figure 5)");

    println!(
        "\n[harness] {} ablation cells on {} thread(s) in {:.2?} ({:.1} ms simulating)",
        jobs_len,
        pool.threads(),
        start.elapsed(),
        host_ms(&results.iter().collect::<Vec<_>>())
    );
}
