//! Static placement advisor: access-pattern notes, exact counters
//! checked against the simulator, and the measured-best placement.
//!
//! ```text
//! cargo run --release -p bench --bin advise                 # built-in suite
//! cargo run --release -p bench --bin advise -- my.trace     # trace files only
//! cargo run --release -p bench --bin advise -- --json       # machine-readable
//! ```
//!
//! For every workload (the eleven built-in suite workloads by default, or
//! the trace files given as arguments) the binary:
//!
//! 1. runs the static analyzer (`verify::analyze`) over the figure's
//!    configuration set, producing access-pattern notes and one
//!    [`verify::ExactCounts`] per configuration;
//! 2. runs the simulator on the same matrix cells (concurrently, on the
//!    job pool — `--threads N`);
//! 3. checks every exact counter and the instruction total against the
//!    measurement (`verify::check_counts`), and recommends the
//!    configuration with the lowest measured runtime
//!    (`verify::measured_best`; on an exact tie, the first in figure
//!    order).
//!
//! Exits 1 on an exact-counter mismatch or a failed simulation, so the
//! binary is its own CI gate. `--verify` additionally turns on the
//! runtime protocol oracle during the simulation runs. Proven
//! out-of-bounds accesses are the `lint` binary's to report: it runs the
//! `verify::dataflow` bounds pass over every configuration.

use std::num::NonZeroUsize;

use bench::cli;
use bench::pool::JobPool;
use gpu::config::MemConfigKind;
use gpu::machine::Machine;
use gpu::program::Program;
use gpu::report::RunReport;
use verify::{analyze_workload, check_counts, measured_best, symbols_for_trace, Note, Symbols};
use workloads::suite::{self, WorkloadSet};

/// One matrix cell: the simulator's runtime and any check failures.
struct Cell {
    kind: MemConfigKind,
    measured_picos: Option<u64>,
    errors: Vec<String>,
}

/// The advisor's full output for one workload.
struct Outcome {
    name: String,
    set: WorkloadSet,
    notes: Vec<Note>,
    cells: Vec<Cell>,
    /// The measured-best configuration; `None` if a cell failed.
    recommended: Option<MemConfigKind>,
}

impl Outcome {
    fn failures(&self) -> usize {
        self.cells.iter().map(|c| c.errors.len()).sum()
    }
}

fn set_name(set: WorkloadSet) -> &'static str {
    match set {
        WorkloadSet::Micro => "micro",
        WorkloadSet::Apps => "apps",
    }
}

/// Analyzes one workload, simulates its figure matrix row, checks the
/// exact counters against it, and recommends its fastest cell.
fn advise_one(
    pool: &JobPool,
    name: &str,
    set: WorkloadSet,
    build: &(dyn Fn(MemConfigKind) -> Program + Sync),
    symbols: &Symbols,
    verify: bool,
) -> Outcome {
    let sys = set.system_config();
    let kinds = set.figure_kinds();
    let analysis = analyze_workload(build, &sys, kinds, symbols);

    let jobs: Vec<_> = kinds
        .iter()
        .map(|&kind| {
            let sys = sys.clone();
            move || {
                let mut machine = Machine::new(sys, kind);
                machine.memory_mut().set_verify(verify);
                machine.run(&build(kind))
            }
        })
        .collect();
    let results = pool.run(jobs);

    let mut cells = Vec::new();
    let mut measured: Vec<(MemConfigKind, u64)> = Vec::new();
    for (counts, result) in analysis.counts.iter().zip(results) {
        match result.value {
            Ok(report) => {
                let report: RunReport = report;
                measured.push((counts.kind, report.total_picos));
                cells.push(Cell {
                    kind: counts.kind,
                    measured_picos: Some(report.total_picos),
                    errors: check_counts(counts, &report),
                });
            }
            Err(e) => {
                // A watchdog deadlock prints its in-flight diagnostic
                // dump on stderr right away; the failure still flows into
                // the cell's error list (and the nonzero exit).
                let context = format!("advise: {name} on {}", counts.kind.name());
                let _ = cli::sim_failure_status(&context, &e);
                cells.push(Cell {
                    kind: counts.kind,
                    measured_picos: None,
                    errors: vec![format!("simulation failed: {e}")],
                });
            }
        }
    }

    // A failed cell might have been the fastest: no recommendation then.
    let recommended = if measured.len() == kinds.len() {
        measured_best(&measured)
    } else {
        None
    };
    Outcome {
        name: name.to_string(),
        set,
        notes: analysis.notes,
        cells,
        recommended,
    }
}

fn print_text(o: &Outcome) {
    println!(
        "\n=== {} ({} machine, {} configurations) ===",
        o.name,
        set_name(o.set),
        o.cells.len()
    );
    for n in &o.notes {
        println!("  {} {}: {n}", n.rule.code(), n.severity().name());
    }
    println!("  {:<10}{:>16}  validation", "config", "measured (ps)");
    for c in &o.cells {
        let measured = c
            .measured_picos
            .map_or_else(|| "-".to_string(), |t| t.to_string());
        let status = if c.errors.is_empty() {
            "ok".to_string()
        } else {
            format!("{} error(s)", c.errors.len())
        };
        println!("  {:<10}{measured:>16}  {status}", c.kind.name());
        for e in &c.errors {
            println!("      {e}");
        }
    }
    match o.recommended {
        Some(k) => println!("  recommended {} (lowest measured time)", k.name()),
        None => println!("  no recommendation: a configuration failed to simulate"),
    }
}

fn print_json(outcomes: &[Outcome], failures: usize) {
    println!("{{");
    println!("  \"workloads\": [");
    for (i, o) in outcomes.iter().enumerate() {
        println!("    {{");
        println!("      \"name\": \"{}\",", cli::json_escape(&o.name));
        println!("      \"set\": \"{}\",", set_name(o.set));
        println!("      \"notes\": [");
        for (j, n) in o.notes.iter().enumerate() {
            let comma = if j + 1 < o.notes.len() { "," } else { "" };
            println!(
                "        {{\"ruleId\": \"{}\", \"level\": \"{}\", \"kind\": \"{}\", \
                 \"message\": \"{}\"}}{comma}",
                n.rule.code(),
                n.severity().name(),
                n.rule.name(),
                cli::json_escape(&n.message)
            );
        }
        println!("      ],");
        println!("      \"configs\": [");
        for (j, c) in o.cells.iter().enumerate() {
            let comma = if j + 1 < o.cells.len() { "," } else { "" };
            let measured = c
                .measured_picos
                .map_or_else(|| "null".to_string(), |t| t.to_string());
            let errors: Vec<String> = c
                .errors
                .iter()
                .map(|e| format!("\"{}\"", cli::json_escape(e)))
                .collect();
            println!(
                "        {{\"config\": \"{}\", \"measured_picos\": {measured}, \
                 \"errors\": [{}]}}{comma}",
                c.kind.name(),
                errors.join(", ")
            );
        }
        println!("      ],");
        let recommended = o
            .recommended
            .map_or_else(|| "null".to_string(), |k| format!("\"{}\"", k.name()));
        println!("      \"recommended\": {recommended}");
        let comma = if i + 1 < outcomes.len() { "," } else { "" };
        println!("    }}{comma}");
    }
    println!("  ],");
    println!("  \"failures\": {failures}");
    println!("}}");
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let threads = cli::take_parsed(&mut args, "--threads")
        .map_or_else(cli::default_threads, NonZeroUsize::get);
    let verify = cli::take_flag(&mut args, "--verify");
    let json = cli::take_flag(&mut args, "--json");
    let traces = cli::finish(args, true);

    let pool = JobPool::new(threads);
    let mut outcomes = Vec::new();

    if !traces.is_empty() {
        for path in &traces {
            let trace = cli::load_trace(path);
            let symbols = symbols_for_trace(&trace);
            let build = |kind| trace.build(kind);
            outcomes.push(advise_one(
                &pool,
                path,
                trace.set(),
                &build,
                &symbols,
                verify,
            ));
        }
    } else {
        let empty = Symbols::new();
        for w in suite::all() {
            outcomes.push(advise_one(&pool, w.name, w.set, &w.build, &empty, verify));
        }
    }

    let failures: usize = outcomes.iter().map(Outcome::failures).sum();
    if json {
        print_json(&outcomes, failures);
    } else {
        for o in &outcomes {
            print_text(o);
        }
        if failures == 0 {
            println!("\nall exact counters and instruction totals match the simulator");
        }
    }

    if failures > 0 {
        eprintln!(
            "\n{failures} cross-validation failure{} — advise FAILED",
            if failures == 1 { "" } else { "s" }
        );
        std::process::exit(1);
    }
}
