//! Chaos harness: fuzz deterministic fault schedules across the Figure 5
//! matrix (or trace files) and enforce the no-silent-corruption contract.
//!
//! ```text
//! cargo run --release -p bench --bin chaos -- --seeds 64
//! cargo run --release -p bench --bin chaos -- examples/histogram.trace --seeds 8
//! cargo run --release -p bench --bin chaos -- --seeds 16 --no-resilience
//! ```
//!
//! Every `(workload, configuration, seed)` run is classified against a
//! fault-free golden replay as **recovered** (bit-identical architectural
//! state), **detected** (watchdog / oracle / parity flag), or a **silent
//! escape**. Escapes are contract violations: the binary prints them and
//! exits 1. `--no-resilience` / `--no-parity` disable the machinery to
//! demonstrate the escape classes it closes; pair them with
//! `--expect-escapes`, which inverts the gate (exit 0 iff at least one
//! escape occurred), so demonstration runs can assert the machinery is
//! load-bearing instead of reporting failure.

use std::num::NonZeroUsize;

use bench::chaos::{run_campaign, CampaignConfig, CellRun, Outcome, Target};
use bench::cli;
use bench::crash::{run_crash_campaign, CrashCampaignConfig, CrashRun};
use gpu::config::MemConfigKind;
use workloads::suite;

fn usage() -> ! {
    eprintln!(
        "usage: chaos [trace files...] [--seeds N] [--no-resilience] [--no-parity]\n             \
         [--expect-escapes] [--crash [--crash-dir DIR]] [flags]\n\
         --seeds N     fault seeds per matrix cell (default 16; seeds are S..S+N\n              \
         with S from --fault-seed, default 1)\n\
         --no-resilience  disable retry/timeout/fallback machinery (demonstrates escapes)\n\
         --no-parity   disable the parity/ECC detection model (demonstrates escapes)\n\
         --expect-escapes  invert the gate: exit 0 iff escapes occurred (for\n              \
         demonstration runs with the machinery disabled)\n\
         --crash       run the kill-and-recover campaign instead of fault injection:\n              \
         each seed kills the run at a seeded barrier (a third of them\n              \
         tearing the snapshot mid-write), restores from the newest valid\n              \
         checkpoint, and classifies against the golden digest\n\
         --crash-dir DIR  scratch directory for the crash campaign's checkpoint\n              \
         stores (default: a per-process directory under the system tmpdir)\n\
         {}\n{}\n{}\n{}",
        cli::FAULT_SEED_USAGE,
        cli::THREADS_USAGE,
        cli::VERIFY_USAGE,
        cli::JSON_USAGE
    );
    std::process::exit(2);
}

fn print_json(cells: &[CellRun], escapes: usize) {
    println!("{{");
    println!("  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let detail = match &c.outcome {
            Outcome::Detected(d) => format!(", \"detector\": \"{}\"", d.label()),
            Outcome::SilentEscape(why) => {
                format!(", \"leak\": \"{}\"", cli::json_escape(why))
            }
            Outcome::Recovered => String::new(),
        };
        println!(
            "    {{\"workload\": \"{}\", \"config\": \"{}\", \"seed\": {}, \
             \"outcome\": \"{}\"{detail}, \"injected\": {}, \"retries\": {}}}{comma}",
            cli::json_escape(&c.workload),
            c.kind.name(),
            c.seed,
            c.outcome.label(),
            c.injected,
            c.retries,
        );
    }
    println!("  ],");
    println!("  \"escapes\": {escapes}");
    println!("}}");
}

fn print_crash_json(cells: &[CrashRun], escapes: usize) {
    println!("{{");
    println!("  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let detail = match &c.outcome {
            Outcome::Detected(d) => format!(", \"detector\": \"{}\"", d.label()),
            Outcome::SilentEscape(why) => {
                format!(", \"leak\": \"{}\"", cli::json_escape(why))
            }
            Outcome::Recovered => String::new(),
        };
        let resumed = c.resumed_from.map_or("null".to_string(), |s| s.to_string());
        println!(
            "    {{\"workload\": \"{}\", \"config\": \"{}\", \"seed\": {}, \
             \"barrier\": {}, \"mode\": \"{:?}\", \"outcome\": \"{}\"{detail}, \
             \"checkpoints\": {}, \"resumed_from\": {resumed}, \"rejected\": {}}}{comma}",
            cli::json_escape(&c.workload),
            c.kind.name(),
            c.seed,
            c.barrier,
            c.mode,
            c.outcome.label(),
            c.checkpoints,
            c.rejected,
        );
    }
    println!("  ],");
    println!("  \"escapes\": {escapes}");
    println!("}}");
}

fn run_crash_mode(
    targets: &[Target<'_>],
    kinds: &[MemConfigKind],
    cfg: &CrashCampaignConfig,
    scratch: &std::path::Path,
    json: bool,
) -> ! {
    if !json {
        println!(
            "chaos --crash — {} workload(s) × {} config(s) × {} seed(s), scratch {}",
            targets.len(),
            kinds.len(),
            cfg.seeds.len(),
            scratch.display(),
        );
    }
    let campaign = run_crash_campaign(targets, kinds, cfg, scratch).unwrap_or_else(|e| {
        eprintln!("chaos --crash: {e}");
        std::process::exit(2);
    });
    let _ = std::fs::remove_dir_all(scratch);
    let escapes = campaign.escapes();
    if json {
        print_crash_json(&campaign.cells, escapes.len());
    } else {
        let name_width = targets
            .iter()
            .map(|t| t.name.len())
            .max()
            .unwrap_or(0)
            .max("workload".len())
            + 2;
        println!(
            "{:<name_width$}{:<10}{:>10}{:>11}{:>10}{:>8}{:>10}",
            "workload", "config", "recovered", "detected", "escapes", "ckpts", "rejected"
        );
        for t in targets {
            for &kind in kinds {
                let runs: Vec<&CrashRun> = campaign
                    .cells
                    .iter()
                    .filter(|c| c.workload == t.name && c.kind == kind)
                    .collect();
                let recovered = runs
                    .iter()
                    .filter(|c| c.outcome == Outcome::Recovered)
                    .count();
                let detected = runs
                    .iter()
                    .filter(|c| matches!(c.outcome, Outcome::Detected(_)))
                    .count();
                let ckpts: u64 = runs.iter().map(|c| c.checkpoints).sum();
                let rejected: u64 = runs.iter().map(|c| c.rejected).sum();
                println!(
                    "{:<name_width$}{:<10}{:>10}{:>11}{:>10}{:>8}{:>10}",
                    t.name,
                    kind.name(),
                    recovered,
                    detected,
                    runs.len() - recovered - detected,
                    ckpts,
                    rejected
                );
            }
        }
        println!(
            "\ntotal: {} kill-and-recover runs — {} recovered, {} torn-snapshot detections, \
             {} escape(s); {} torn/corrupt file(s) rejected",
            campaign.cells.len(),
            campaign.recovered(),
            campaign.detected(),
            escapes.len(),
            campaign.total_rejected(),
        );
    }
    for c in &escapes {
        let why = match &c.outcome {
            Outcome::SilentEscape(why) => why.as_str(),
            _ => unreachable!("escapes() only returns silent escapes"),
        };
        eprintln!(
            "ESCAPE: {} on {} seed {} (barrier {}, {:?}): {why}",
            c.workload,
            c.kind.name(),
            c.seed,
            c.barrier,
            c.mode,
        );
    }
    if !escapes.is_empty() {
        eprintln!(
            "\n{} crash-recovery escape(s) — the crash-consistency contract is violated",
            escapes.len()
        );
        std::process::exit(1);
    }
    if !json {
        println!("no crash-recovery escapes — contract holds");
    }
    std::process::exit(0);
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    if cli::take_flag(&mut args, "--help") || cli::take_flag(&mut args, "-h") {
        usage();
    }
    let threads = cli::take_parsed(&mut args, "--threads")
        .map_or_else(cli::default_threads, NonZeroUsize::get);
    let verify = cli::take_flag(&mut args, "--verify");
    let json = cli::take_flag(&mut args, "--json");
    let seed_base: u64 = cli::take_parsed(&mut args, "--fault-seed").unwrap_or(1);
    let seed_count: u64 = cli::take_parsed(&mut args, "--seeds").unwrap_or(16);
    let resilience = !cli::take_flag(&mut args, "--no-resilience");
    let parity = !cli::take_flag(&mut args, "--no-parity");
    let expect_escapes = cli::take_flag(&mut args, "--expect-escapes");
    let crash = cli::take_flag(&mut args, "--crash");
    let crash_dir = cli::take_value(&mut args, "--crash-dir");
    let paths = cli::finish(args, true);
    if crash && (!resilience || !parity || expect_escapes) {
        eprintln!("--crash is incompatible with --no-resilience/--no-parity/--expect-escapes");
        std::process::exit(2);
    }

    // Targets: the trace files given, or the Figure 5 microbenchmarks.
    let traces: Vec<(String, workloads::trace::TraceWorkload)> = paths
        .iter()
        .map(|p| (p.clone(), cli::load_trace(p)))
        .collect();
    let micros = suite::micros();
    let mut targets: Vec<Target<'_>> = Vec::new();
    let mut kinds: Vec<MemConfigKind> = MemConfigKind::FIGURE5.to_vec();
    let builders: Vec<_> = traces
        .iter()
        .map(|(_, t)| move |kind| t.build(kind))
        .collect();
    if traces.is_empty() {
        for w in &micros {
            targets.push(Target {
                name: w.name.to_string(),
                sys: w.set.system_config(),
                build: &w.build,
            });
        }
    } else {
        kinds = traces[0].1.set().figure_kinds().to_vec();
        for ((path, trace), build) in traces.iter().zip(&builders) {
            targets.push(Target {
                name: path.clone(),
                sys: trace.set().system_config(),
                build,
            });
        }
    }

    if crash {
        let mut cfg =
            CrashCampaignConfig::new((seed_base..seed_base + seed_count).collect(), threads);
        cfg.verify = verify;
        let scratch = crash_dir.map_or_else(
            || std::env::temp_dir().join(format!("stash-chaos-crash-{}", std::process::id())),
            std::path::PathBuf::from,
        );
        run_crash_mode(&targets, &kinds, &cfg, &scratch, json);
    }

    let mut cfg = CampaignConfig::new((seed_base..seed_base + seed_count).collect(), threads);
    cfg.verify = verify;
    cfg.resilience = resilience;
    cfg.parity = parity;

    if !json {
        println!(
            "chaos — {} workload(s) × {} config(s) × {} seed(s), resilience {}, parity {}",
            targets.len(),
            kinds.len(),
            seed_count,
            if resilience { "on" } else { "OFF" },
            if parity { "on" } else { "OFF" },
        );
    }

    let campaign = run_campaign(&targets, &kinds, &cfg).unwrap_or_else(|e| {
        eprintln!("chaos: {e}");
        std::process::exit(2);
    });

    let escapes = campaign.escapes();
    if json {
        print_json(&campaign.cells, escapes.len());
    } else {
        let name_width = targets
            .iter()
            .map(|t| t.name.len())
            .max()
            .unwrap_or(0)
            .max("workload".len())
            + 2;
        println!(
            "{:<name_width$}{:<10}{:>10}{:>11}{:>10}{:>8}",
            "workload", "config", "recovered", "detected", "escapes", "faults"
        );
        for t in &targets {
            for &kind in &kinds {
                let cell_of = |c: &&CellRun| c.workload == t.name && c.kind == kind;
                let runs: Vec<&CellRun> = campaign.cells.iter().filter(|c| cell_of(c)).collect();
                let recovered = runs
                    .iter()
                    .filter(|c| c.outcome == Outcome::Recovered)
                    .count();
                let detected = runs
                    .iter()
                    .filter(|c| matches!(c.outcome, Outcome::Detected(_)))
                    .count();
                let escaped = runs.len() - recovered - detected;
                let injected: u64 = runs.iter().map(|c| c.injected).sum();
                println!(
                    "{:<name_width$}{:<10}{:>10}{:>11}{:>10}{:>8}",
                    t.name,
                    kind.name(),
                    recovered,
                    detected,
                    escaped,
                    injected
                );
            }
        }
        println!(
            "\ntotal: {} runs — {} recovered, {} detected, {} escape(s); \
             {} fault(s) injected, {} retry(ies)",
            campaign.cells.len(),
            campaign.recovered(),
            campaign.detected(),
            escapes.len(),
            campaign.total_injected(),
            campaign.total_retries(),
        );
    }

    for c in &escapes {
        let why = match &c.outcome {
            Outcome::SilentEscape(why) => why.as_str(),
            _ => unreachable!("escapes() only returns silent escapes"),
        };
        eprintln!(
            "ESCAPE: {} on {} seed {}: {why}",
            c.workload,
            c.kind.name(),
            c.seed
        );
    }
    if expect_escapes {
        // Demonstration mode: the run is supposed to show that disabling
        // the machinery leaks corruption, so escapes are the pass state.
        if escapes.is_empty() {
            eprintln!("--expect-escapes: no escapes occurred — nothing was demonstrated");
            std::process::exit(1);
        }
        if !json {
            println!(
                "{} expected escape(s) occurred — the disabled machinery is load-bearing",
                escapes.len()
            );
        }
    } else if !escapes.is_empty() {
        eprintln!(
            "\n{} silent-corruption escape(s) — the no-silent-corruption contract is violated",
            escapes.len()
        );
        std::process::exit(1);
    } else if !json {
        println!("no silent-corruption escapes — contract holds");
    }
}
