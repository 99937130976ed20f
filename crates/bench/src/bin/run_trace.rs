//! Run a trace file (see `workloads::trace` for the format) across the
//! memory configurations and print the comparison.
//!
//! ```text
//! cargo run --release -p bench --bin run-trace -- my_workload.trace
//! cargo run --release -p bench --bin run-trace -- my_workload.trace Stash StashG
//! ```
//!
//! The configurations run concurrently on the job pool (`--threads N`);
//! rows print in the requested order regardless. `--verify` turns on the
//! runtime protocol oracle and `--fault-seed S` injects the chaos fault
//! schedule seeded by `S`.

use std::num::NonZeroUsize;

use bench::cli;
use bench::pool::JobPool;
use gpu::config::MemConfigKind;
use gpu::machine::Machine;
use sim::fault::FaultConfig;

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let threads = cli::take_parsed(&mut args, "--threads")
        .map_or_else(cli::default_threads, NonZeroUsize::get);
    let verify = cli::take_flag(&mut args, "--verify");
    let fault_seed: Option<u64> = cli::take_parsed(&mut args, "--fault-seed");
    let args = cli::finish(args, true);
    let Some((path, configs)) = args.split_first() else {
        eprintln!(
            "usage: run-trace <file.trace> [configs...] [--threads N] [--verify] [--fault-seed S]"
        );
        std::process::exit(2);
    };
    let workload = cli::load_trace(path);

    let kinds: Vec<MemConfigKind> = if configs.is_empty() {
        MemConfigKind::ALL.to_vec()
    } else {
        configs.iter().map(|s| cli::config_by_name(s)).collect()
    };

    let pool = JobPool::new(threads);
    let workload = &workload;
    let jobs: Vec<_> = kinds
        .iter()
        .map(|&kind| {
            move || {
                let mut machine = Machine::new(workload.set().system_config(), kind);
                machine.memory_mut().set_verify(verify);
                if let Some(seed) = fault_seed {
                    machine
                        .memory_mut()
                        .set_fault_injector(FaultConfig::chaos(seed));
                }
                machine.run(&workload.build(kind))
            }
        })
        .collect();
    let results = pool.run(jobs);

    println!(
        "{:<10}{:>14}{:>18}{:>12}{:>12}{:>14}{:>10}",
        "config", "time (ps)", "energy (fJ)", "instrs", "flits", "dram fetches", "host ms"
    );
    let mut status = 0;
    for (kind, result) in kinds.iter().zip(results) {
        match result.value {
            Ok(report) => println!(
                "{:<10}{:>14}{:>18}{:>12}{:>12}{:>14}{:>10.1}",
                kind.name(),
                report.total_picos,
                report.total_energy(),
                report.gpu_instructions,
                report.traffic.total_flits(),
                report.counters.get("dram.line_fetch"),
                result.host_time.as_secs_f64() * 1e3,
            ),
            Err(e) => {
                println!("{:<10}error: {e}", kind.name());
                let context = format!("run-trace: {path} on {}", kind.name());
                status = status.max(cli::sim_failure_status(&context, &e));
            }
        }
    }
    if status != 0 {
        std::process::exit(status);
    }
}
