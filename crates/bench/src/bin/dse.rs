//! Design-space exploration by simulation.
//!
//! ```text
//! cargo run --release -p bench --bin dse                      # full space
//! cargo run --release -p bench --bin dse -- --smoke           # CI-sized
//! cargo run --release -p bench --bin dse -- --workload surf --config denovo
//! cargo run --release -p bench --bin dse -- --json            # machine-readable
//! ```
//!
//! The binary simulates every point of a [`verify::dse::Space`] — one
//! `Machine::run` per point, fanned over the deterministic
//! [`bench::pool::JobPool`] — and reports:
//!
//! 1. **Ranking** — the ten fastest points, sorted by simulated runtime
//!    with ties broken by space index, and where the paper's point lands.
//! 2. **Sensitivity** — for every [`verify::dse::Dim`], whether runtime
//!    is flat, monotone or non-monotone along the axis through the
//!    paper's point, read from the same simulated grid.
//!
//! A point that fails to simulate exits nonzero with the point's label.
//! Output is independent of `--threads`: results are assembled in job
//! order, never arrival order.

use std::num::NonZeroUsize;

use bench::cli;
use bench::pool::JobPool;
use gpu::config::MemConfigKind;
use gpu::machine::Machine;
use verify::dse::{rank, sensitivities, DesignPoint, Dim, Sensitivity, Space};
use workloads::suite;

/// How many of the fastest points the report lists.
const TOP: usize = 10;

struct Report {
    workload: String,
    kind: MemConfigKind,
    space: Space,
    picos: Vec<u64>,
    order: Vec<usize>,
    paper: usize,
    sensitivity: Vec<(Dim, Sensitivity)>,
}

impl Report {
    fn paper_rank(&self) -> usize {
        self.order
            .iter()
            .position(|&i| i == self.paper)
            .expect("every point is ranked")
    }
}

/// Simulates every point of `space`, exiting through
/// [`cli::sim_failure_status`] on the first (lowest-index) failure.
fn explore(
    pool: &JobPool,
    workload: &suite::Workload,
    kind: MemConfigKind,
    space: Space,
) -> Report {
    let sys = workload.set.system_config();
    let program = (workload.build)(kind);
    let jobs: Vec<_> = space
        .points()
        .into_iter()
        .map(|point| {
            let (sys, program) = (&sys, &program);
            move || {
                Machine::new(point.apply(sys), kind)
                    .run(program)
                    .map(|report| report.total_picos)
            }
        })
        .collect();
    let mut picos = Vec::with_capacity(space.len());
    for (index, result) in pool.run(jobs).into_iter().enumerate() {
        match result.value {
            Ok(total) => picos.push(total),
            Err(err) => {
                let context = format!("dse: {} at {}", workload.name, space.point(index).label());
                std::process::exit(cli::sim_failure_status(&context, &err));
            }
        }
    }
    let paper = space
        .index_of(&DesignPoint::default())
        .expect("every built-in space contains the paper's point");
    Report {
        workload: workload.name.to_string(),
        kind,
        order: rank(&picos),
        sensitivity: sensitivities(&space, paper, &picos),
        space,
        picos,
        paper,
    }
}

fn sensitivity_text(s: &Sensitivity, values: usize) -> String {
    if values < 2 {
        return "fixed (one value in this space)".into();
    }
    match s {
        Sensitivity::Flat => "flat (no runtime effect on this workload)".into(),
        Sensitivity::Monotone { worst_step } => {
            format!("monotone, worst step {worst_step} ps")
        }
        Sensitivity::NonMonotone { max_up, max_down } => {
            format!("NON-monotone (steps {max_down}..{max_up} ps)")
        }
    }
}

fn print_text(r: &Report) {
    println!(
        "=== dse: {} ({} config, {} points simulated) ===",
        r.workload,
        r.kind.name(),
        r.space.len()
    );
    println!(
        "  sensitivity along the axes through the paper's point ({}):",
        r.space.point(r.paper).label()
    );
    for (dim, s) in &r.sensitivity {
        println!(
            "    {:<18} {}",
            dim.name(),
            sensitivity_text(s, r.space.axis_len(*dim))
        );
    }
    println!("  top {TOP}:");
    for (rank, &i) in r.order.iter().enumerate().take(TOP) {
        println!(
            "    #{rank:<4} {:<38} {:>14} ps",
            r.space.point(i).label(),
            r.picos[i]
        );
    }
    println!(
        "  paper's point: #{} of {}, {} ps",
        r.paper_rank(),
        r.space.len(),
        r.picos[r.paper]
    );
}

fn print_json(r: &Report) {
    println!("{{");
    println!("  \"workload\": \"{}\",", cli::json_escape(&r.workload));
    println!("  \"config\": \"{}\",", r.kind.name());
    println!("  \"points\": {},", r.space.len());
    println!("  \"sensitivity\": [");
    for (i, (dim, s)) in r.sensitivity.iter().enumerate() {
        let comma = if i + 1 < r.sensitivity.len() { "," } else { "" };
        println!(
            "    {{\"dim\": \"{}\", \"verdict\": \"{}\"}}{comma}",
            dim.name(),
            cli::json_escape(&sensitivity_text(s, r.space.axis_len(*dim)))
        );
    }
    println!("  ],");
    println!("  \"top\": [");
    let top = r.order.len().min(TOP);
    for (rank, &i) in r.order.iter().enumerate().take(top) {
        let comma = if rank + 1 < top { "," } else { "" };
        println!(
            "    {{\"rank\": {rank}, \"point\": \"{}\", \"picos\": {}}}{comma}",
            cli::json_escape(&r.space.point(i).label()),
            r.picos[i]
        );
    }
    println!("  ],");
    println!(
        "  \"paper_point\": {{\"rank\": {}, \"picos\": {}}}",
        r.paper_rank(),
        r.picos[r.paper]
    );
    println!("}}");
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let threads = cli::take_parsed(&mut args, "--threads")
        .map_or_else(cli::default_threads, NonZeroUsize::get);
    let json = cli::take_flag(&mut args, "--json");
    let smoke = cli::take_flag(&mut args, "--smoke");
    let name = cli::take_value(&mut args, "--workload").unwrap_or_else(|| "implicit".to_string());
    let kind = cli::take_value(&mut args, "--config")
        .map_or(MemConfigKind::Stash, |s| cli::config_by_name(&s));
    cli::finish(args, false);

    let workload = suite::by_name(&name).unwrap_or_else(|| {
        eprintln!("dse: unknown workload `{name}`");
        std::process::exit(2);
    });
    let space = if smoke {
        Space::smoke_space()
    } else {
        Space::default_space()
    };

    let report = explore(&JobPool::new(threads), &workload, kind, space);
    if json {
        print_json(&report);
    } else {
        print_text(&report);
    }
}
