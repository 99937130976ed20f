//! Capture a cycle-attributed trace of one workload and export it.
//!
//! ```text
//! cargo run --release -p bench --bin profile -- \
//!     --workload histogram --config stash --out trace.json --report stalls
//! ```
//!
//! `--workload` takes a suite workload name (`implicit`, `lud`, ...), a
//! `.trace` file path, or a bare name resolved as `examples/<name>.trace`.
//! `--config` accepts a comma-separated list; multiple configurations run
//! concurrently on the job pool (`--threads N`) and each job keeps its
//! own trace, so output is deterministic at any thread count. With
//! several configurations, `--out trace.json` writes
//! `trace-<config>.json` per cell.
//!
//! The binary self-validates before exiting: the emitted JSON must pass
//! the Perfetto format checker (parses; timestamps monotone per track)
//! and every CU's stall decomposition must sum exactly to the run's
//! `gpu_cycles`. Any violation exits nonzero, which is what CI's smoke
//! step relies on.

use std::num::NonZeroUsize;

use bench::cli;
use bench::pool::JobPool;
use bench::profile::{self, TracedRun};
use gpu::config::MemConfigKind;
use gpu::program::Program;
use sim::config::SystemConfig;
use sim::trace::DEFAULT_CAPACITY;
use sim::SimError;
use workloads::suite;
use workloads::trace::TraceWorkload;

enum Source {
    Suite(suite::Workload),
    Trace(TraceWorkload),
}

impl Source {
    fn system(&self) -> SystemConfig {
        match self {
            Source::Suite(w) => w.set.system_config(),
            Source::Trace(t) => t.set().system_config(),
        }
    }

    fn program(&self, kind: MemConfigKind) -> Program {
        match self {
            Source::Suite(w) => (w.build)(kind),
            Source::Trace(t) => t.build(kind),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: profile --workload <name|file.trace> [--config C[,C...]] \
         [--out trace.json] [--report stalls|latency|both|none] [--capacity N] [--threads N]\n\
         \n\
         --workload W  suite workload name, .trace file path, or bare name\n              \
         resolved as examples/<W>.trace\n\
         --config C    configurations to trace (default: Stash); comma-separated\n\
         --out PATH    write Chrome/Perfetto trace JSON here (validated on write);\n              \
         with several configs, PATH gains a -<config> suffix per cell\n\
         --report R    text report(s) on stdout: stalls (default), latency, both, none\n\
         --capacity N  event ring capacity (default: {DEFAULT_CAPACITY})\n\
         {}",
        cli::THREADS_USAGE
    );
    std::process::exit(2);
}

fn resolve_workload(name: &str) -> (String, Source) {
    if let Some(w) = suite::by_name(name) {
        return (name.to_string(), Source::Suite(w));
    }
    let path = if std::path::Path::new(name).exists() {
        name.to_string()
    } else {
        format!("examples/{name}.trace")
    };
    let trace = cli::load_trace(&path);
    (path, Source::Trace(trace))
}

fn out_path(base: &str, kind: MemConfigKind, multi: bool) -> String {
    if !multi {
        return base.to_string();
    }
    let suffix = kind.name().to_ascii_lowercase();
    match base.rsplit_once('.') {
        Some((stem, ext)) => format!("{stem}-{suffix}.{ext}"),
        None => format!("{base}-{suffix}"),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let threads = cli::take_parsed(&mut args, "--threads")
        .map_or_else(cli::default_threads, NonZeroUsize::get);
    let Some(workload_arg) = cli::take_value(&mut args, "--workload") else {
        usage();
    };
    let configs = cli::take_value(&mut args, "--config").unwrap_or_else(|| "Stash".to_string());
    let out = cli::take_value(&mut args, "--out");
    let report = cli::take_value(&mut args, "--report").unwrap_or_else(|| "stalls".to_string());
    if !matches!(report.as_str(), "stalls" | "latency" | "both" | "none") {
        eprintln!("--report must be stalls, latency, both or none, got {report:?}");
        usage();
    }
    let capacity =
        cli::take_parsed(&mut args, "--capacity").map_or(DEFAULT_CAPACITY, NonZeroUsize::get);
    cli::finish(args, false);

    let kinds: Vec<MemConfigKind> = configs.split(',').map(cli::config_by_name).collect();
    let (name, source) = resolve_workload(&workload_arg);

    // One job per configuration; each job owns its sink, so traces never
    // interleave and the pool's input-order collection keeps the output
    // deterministic at any thread count.
    let pool = JobPool::new(threads);
    let source = &source;
    let name = &name;
    let jobs: Vec<_> = kinds
        .iter()
        .map(|&kind| {
            move || -> Result<TracedRun, SimError> {
                profile::run_traced(name, source.system(), &source.program(kind), kind, capacity)
            }
        })
        .collect();
    let results = pool.run(jobs);

    let multi = kinds.len() > 1;
    let mut status = 0;
    for (kind, result) in kinds.iter().zip(results) {
        let run = match result.value {
            Ok(run) => run,
            Err(e) => {
                let context = format!("profile: {name} on {}", kind.name());
                status = status.max(cli::sim_failure_status(&context, &e));
                continue;
            }
        };
        if let Err(e) = profile::decomposition_exact(&run) {
            eprintln!("profile: stall decomposition is not exact: {e}");
            status = status.max(1);
        }
        if matches!(report.as_str(), "stalls" | "both") {
            print!("{}", profile::stall_report(&run));
        }
        if matches!(report.as_str(), "latency" | "both") {
            print!("{}", profile::latency_report(&run));
        }
        let json = profile::perfetto_json(&run);
        match profile::validate_perfetto(&json) {
            Ok(stats) => {
                println!(
                    "profile: {name} / {} — {} events on {} tracks, gpu_cycles {}{}",
                    kind.name(),
                    stats.events,
                    stats.tracks,
                    run.report.gpu_cycles,
                    if run.dropped > 0 {
                        format!(" ({} dropped by the ring)", run.dropped)
                    } else {
                        String::new()
                    },
                );
            }
            Err(e) => {
                eprintln!("profile: emitted trace failed validation: {e}");
                status = status.max(1);
            }
        }
        if let Some(base) = &out {
            let path = out_path(base, *kind, multi);
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("profile: cannot write {path}: {e}");
                status = status.max(1);
            } else {
                println!("profile: wrote {path}");
            }
        }
    }
    if status != 0 {
        std::process::exit(status);
    }
}
