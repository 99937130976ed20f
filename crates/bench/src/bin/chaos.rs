//! Chaos campaign: attack every run of the Figure 5 matrix (or trace
//! files) and enforce the no-silent-corruption and crash-consistency
//! contracts.
//!
//! ```text
//! cargo run --release -p bench --bin chaos -- --seeds 64
//! cargo run --release -p bench --bin chaos -- examples/histogram.trace --seeds 8
//! cargo run --release -p bench --bin chaos -- --seeds 16 --no-resilience
//! cargo run --release -p bench --bin chaos -- --crash --seeds 4
//! ```
//!
//! Every `(workload, configuration, seed)` run is attacked — by injected
//! faults, or with `--crash` by a seeded kill and recovery from the
//! newest valid checkpoint — and classified against a fault-free golden
//! replay as **recovered** (bit-identical architectural state),
//! **detected** (watchdog / oracle / parity / rejected snapshot), or a
//! **silent escape**. Both attacks print through the same table, JSON
//! and gate: escapes are contract violations, printed on stderr with
//! exit 1. `--no-resilience` / `--no-parity` disable the fault machinery
//! to demonstrate the escape classes it closes; pair them with
//! `--expect-escapes`, which inverts the gate (exit 0 iff at least one
//! escape occurred), so demonstration runs can assert the machinery is
//! load-bearing instead of reporting failure.

use std::num::NonZeroUsize;
use std::path::PathBuf;

use bench::chaos::{
    run_campaign, Attack, Campaign, CampaignConfig, Detail, Outcome, SeedRangeError, Seeds, Tally,
    Target, MAX_SEEDS,
};
use bench::cli;
use gpu::config::MemConfigKind;
use workloads::suite;

fn usage() -> ! {
    eprintln!(
        "usage: chaos [trace files...] [--seeds N] [--no-resilience] [--no-parity]\n             \
         [--expect-escapes] [--crash [--crash-dir DIR]] [flags]\n\
         --seeds N     seeds per matrix cell, 1..={MAX_SEEDS} (default 16; seeds are\n              \
         S..S+N-1 with S from --fault-seed, default 1)\n\
         --no-resilience  disable retry/timeout/fallback machinery (demonstrates escapes)\n\
         --no-parity   disable the parity/ECC detection model (demonstrates escapes)\n\
         --expect-escapes  invert the gate: exit 0 iff escapes occurred (for\n              \
         demonstration runs with the machinery disabled)\n\
         --crash       run the kill-and-recover campaign instead of fault injection:\n              \
         each seed kills the run at a seeded barrier (a third of them\n              \
         tearing the snapshot mid-write), restores from the newest valid\n              \
         checkpoint, and classifies against the golden digest\n\
         --crash-dir DIR  with --crash only: scratch directory for the campaign's checkpoint\n              \
         stores (default: a per-process directory under the system tmpdir);\n              \
         the campaign removes what it creates there\n\
         {}\n{}\n{}\n{}",
        cli::FAULT_SEED_USAGE,
        cli::THREADS_USAGE,
        cli::VERIFY_USAGE,
        cli::JSON_USAGE
    );
    std::process::exit(2);
}

fn print_json(campaign: &Campaign) {
    println!("{{");
    println!("  \"cells\": [");
    for (i, c) in campaign.cells.iter().enumerate() {
        let comma = if i + 1 < campaign.cells.len() {
            ","
        } else {
            ""
        };
        let verdict = match &c.outcome {
            Outcome::Detected(d) => format!(", \"detector\": \"{}\"", d.label()),
            Outcome::SilentEscape(why) => format!(", \"leak\": \"{}\"", cli::json_escape(why)),
            Outcome::Recovered => String::new(),
        };
        let detail = match &c.detail {
            Detail::Faults {
                injected, retries, ..
            } => format!("\"injected\": {injected}, \"retries\": {retries}"),
            Detail::Crash {
                plan,
                checkpoints,
                resumed_from,
                rejected,
            } => format!(
                "\"barrier\": {}, \"mode\": \"{:?}\", \"checkpoints\": {checkpoints}, \
                 \"resumed_from\": {}, \"rejected\": {rejected}",
                plan.barrier,
                plan.mode,
                resumed_from.map_or("null".to_string(), |s| s.to_string()),
            ),
        };
        println!(
            "    {{\"workload\": \"{}\", \"config\": \"{}\", \"seed\": {}, \
             \"outcome\": \"{}\"{verdict}, {detail}}}{comma}",
            cli::json_escape(&c.workload),
            c.kind.name(),
            c.seed,
            c.outcome.label(),
        );
    }
    println!("  ],");
    println!("  \"escapes\": {}", campaign.escapes().len());
    println!("}}");
}

/// One row per cell, then the campaign's totals.
fn print_table(campaign: &Campaign, cfg: &CampaignConfig) {
    let [a, b] = cfg.attack.counter_names();
    let w = campaign
        .cells
        .iter()
        .map(|c| c.workload.len())
        .max()
        .unwrap_or(0)
        .max("workload".len())
        + 2;
    let row = |name: &str, config: &str, t: &Tally| {
        println!(
            "{name:<w$}{config:<10}{:>10}{:>11}{:>10}{:>10}{:>10}",
            t.recovered, t.detected, t.escapes, t.counters[0], t.counters[1]
        );
    };
    println!(
        "{:<w$}{:<10}{:>10}{:>11}{:>10}{a:>10}{b:>10}",
        "workload", "config", "recovered", "detected", "escapes"
    );
    let per_cell = usize::try_from(cfg.seeds.count()).expect("seed counts fit in usize");
    for runs in campaign.cells.chunks(per_cell) {
        row(&runs[0].workload, runs[0].kind.name(), &Tally::of(runs));
    }
    let t = campaign.tally();
    println!(
        "\ntotal: {} runs — {} recovered, {} detected, {} escape(s); {} {a}, {} {b}",
        t.runs, t.recovered, t.detected, t.escapes, t.counters[0], t.counters[1]
    );
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
    if crash && (!resilience || !parity) {
        eprintln!("--crash is incompatible with --no-resilience/--no-parity");
        std::process::exit(2);
    }
    if crash_dir.is_some() && !crash {
        eprintln!("--crash-dir is the --crash campaign's scratch directory; pass --crash too");
        std::process::exit(2);
    }
    let seeds = Seeds::new(seed_base, seed_count).unwrap_or_else(|e| {
        let flag = match e {
            SeedRangeError::Count(_) => "--seeds",
            SeedRangeError::Overflow { .. } => "--fault-seed",
        };
        eprintln!("{flag}: {e}");
        std::process::exit(2);
    });

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

    let attack = if crash {
        let scratch = crash_dir.map_or_else(
            || std::env::temp_dir().join(format!("stash-chaos-crash-{}", std::process::id())),
            PathBuf::from,
        );
        Attack::Crash { scratch }
    } else {
        Attack::Faults { resilience, parity }
    };
    let cfg = CampaignConfig {
        seeds,
        threads,
        verify,
        attack,
    };
    if !json {
        println!(
            "chaos — {} workload(s) × {} config(s) × {} seed(s), {}",
            targets.len(),
            kinds.len(),
            seeds.count(),
            cfg.attack,
        );
    }
    let campaign = run_campaign(&targets, &kinds, &cfg).unwrap_or_else(|e| {
        eprintln!("chaos: {e}");
        std::process::exit(2);
    });
    if json {
        print_json(&campaign);
    } else {
        print_table(&campaign, &cfg);
    }

    let escapes = campaign.escapes();
    for c in &escapes {
        let Outcome::SilentEscape(why) = &c.outcome else {
            unreachable!("escapes() only returns silent escapes")
        };
        let kill = match &c.detail {
            Detail::Crash { plan, .. } => format!(" (barrier {}, {:?})", plan.barrier, plan.mode),
            Detail::Faults { .. } => String::new(),
        };
        eprintln!(
            "ESCAPE: {} on {} seed {}{kill}: {why}",
            c.workload,
            c.kind.name(),
            c.seed
        );
    }
    let contract = cfg.attack.contract();
    if expect_escapes {
        // Demonstration mode: the run is supposed to show that disabling
        // the machinery leaks, so escapes are the pass state.
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
            "\n{} escape(s) — the {contract} contract is violated",
            escapes.len()
        );
        std::process::exit(1);
    } else if !json {
        println!("no escapes — the {contract} contract holds");
    }
}
