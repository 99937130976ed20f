//! Inspect one workload on one configuration: full counter dump, energy
//! component split, traffic classes, and phase timing — the debugging
//! companion to the figure binaries.
//!
//! ```text
//! cargo run --release -p bench --bin inspect -- reuse Stash
//! cargo run --release -p bench --bin inspect -- lud StashG
//! ```

use bench::cli;
use gpu::config::MemConfigKind;
use gpu::machine::Machine;
use noc::MsgClass;
use workloads::suite;

fn main() {
    let args = cli::finish(std::env::args().collect(), true);
    let [name, kind_s] = args.as_slice() else {
        eprintln!("usage: inspect <workload> <config>");
        eprintln!(
            "  workloads: {}",
            suite::all()
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        eprintln!(
            "  configs:   {}",
            MemConfigKind::ALL.map(|k| k.name()).join(", ")
        );
        std::process::exit(2);
    };
    let Some(workload) = suite::by_name(name) else {
        eprintln!("unknown workload {name}");
        std::process::exit(2);
    };
    let kind = cli::config_by_name(kind_s);

    // A single simulation is one job; it runs inline (the pool's serial
    // path) but still reports its host cost like the matrix binaries.
    let program = (workload.build)(kind);
    let mut machine = Machine::new(workload.set.system_config(), kind);
    let host = std::time::Instant::now();
    let report = match machine.run(&program) {
        Ok(report) => report,
        Err(e) => {
            // A deadlock prints its in-flight diagnostic dump (exit 3);
            // anything else reports the cell and exits 1.
            let context = format!("inspect: {name} on {}", kind.name());
            std::process::exit(cli::sim_failure_status(&context, &e));
        }
    };
    let host = host.elapsed();

    println!(
        "{} on {} ({:?} machine)\n",
        workload.name, kind, workload.set
    );
    println!("[harness] 1 job in {host:.2?}\n");
    println!("-- timing --");
    println!("  GPU cycles       {:>14}", report.gpu_cycles);
    println!("  CPU cycles       {:>14}", report.cpu_cycles);
    println!("  total time       {:>14} ps", report.total_picos);
    println!("  GPU instructions {:>14}", report.gpu_instructions);

    println!("\n-- energy (fJ) --");
    let total = report.total_energy().max(1);
    for (c, e) in report.energy.iter() {
        println!("  {:<14}{:>16}  ({:>3}%)", c.label(), e, e * 100 / total);
    }
    println!("  {:<14}{:>16}", "total", report.total_energy());

    println!("\n-- network traffic --");
    for class in MsgClass::ALL {
        println!(
            "  {:<11} messages {:>10}  flits {:>10}  crossings {:>11}",
            class.name(),
            report.traffic.messages(class),
            report.traffic.flits(class),
            report.traffic.crossings(class)
        );
    }

    println!("\n-- router hotspots (flits through each mesh node) --");
    let profile = machine.memory().router_flit_profile();
    let max = profile.iter().copied().max().unwrap_or(0).max(1);
    for row in 0..4 {
        print!(" ");
        for col in 0..4 {
            let v = profile[row * 4 + col];
            print!(" {:>10}", v);
        }
        print!("   ");
        for col in 0..4 {
            let bars = (profile[row * 4 + col] * 8 / max) as usize;
            print!(
                " {:<8}",
                "#".repeat(bars.max(usize::from(profile[row * 4 + col] > 0)))
            );
        }
        println!();
    }

    println!("\n-- event counters --");
    print!("{}", report.counters);
}
