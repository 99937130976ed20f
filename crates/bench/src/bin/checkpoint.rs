//! Save, resume, and inspect machine checkpoints.
//!
//! ```text
//! cargo run --release -p bench --bin checkpoint -- save lud Stash --dir /tmp/ckpt
//! cargo run --release -p bench --bin checkpoint -- save lud Stash --dir /tmp/ckpt --until 3
//! cargo run --release -p bench --bin checkpoint -- resume lud Stash --dir /tmp/ckpt
//! cargo run --release -p bench --bin checkpoint -- inspect --dir /tmp/ckpt
//! ```
//!
//! `save` runs a suite workload (or a trace file) with a snapshot at
//! every phase barrier; `--until K` stops the run after phase `K`'s
//! barrier, leaving a mid-program checkpoint behind. `resume` restores
//! the newest valid snapshot (reporting any torn files it skipped) and
//! finishes the run — the report and state digest are bit-identical to
//! an uninterrupted run. `inspect` decodes what a checkpoint directory
//! holds without running anything. `save` and `resume` are the two steps
//! of the `chaos --crash` campaign, `bench::chaos::checkpoint_every_barrier`
//! and `bench::chaos::resume_newest`.

use bench::chaos::{checkpoint_every_barrier, resume_newest, Checkpointed};
use bench::cli;
use gpu::config::MemConfigKind;
use gpu::machine::{CheckpointMeta, Machine, RunCursor, SECTION_META, SECTION_MSYS};
use gpu::program::Program;
use gpu::report::RunReport;
use sim::config::SystemConfig;
use sim::snapshot::{read_snapshot, CheckpointStore};
use workloads::suite;

fn usage() -> ! {
    eprintln!(
        "usage: checkpoint save <workload|file.trace> <config> --dir DIR [--until K] [--verify]\n\
         checkpoint resume <workload|file.trace> <config> --dir DIR [--verify]\n\
         checkpoint inspect --dir DIR\n\
         <workload>    a suite name ({}) or a .trace file\n\
         <config>      one of {}\n\
         --dir DIR     the checkpoint directory\n\
         --until K     (save) stop after phase K's barrier instead of finishing\n\
         {}",
        suite::all()
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", "),
        MemConfigKind::ALL
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", "),
        cli::VERIFY_USAGE,
    );
    std::process::exit(2);
}

/// Resolves a workload operand: a suite name or a trace file path.
fn resolve(spec: &str, kind: MemConfigKind) -> (SystemConfig, Program) {
    if spec.ends_with(".trace") || std::path::Path::new(spec).exists() {
        let trace = cli::load_trace(spec);
        (trace.set().system_config(), trace.build(kind))
    } else if let Some(w) = suite::by_name(spec) {
        (w.set.system_config(), (w.build)(kind))
    } else {
        eprintln!("unknown workload {spec} (not a suite name, and no such file)");
        std::process::exit(2);
    }
}

fn print_report(label: &str, report: &RunReport, digest: u64) {
    println!(
        "{label}: {} GPU + {} CPU cycles, {} ps, {} instrs, {} fJ, digest {digest:016x}",
        report.gpu_cycles,
        report.cpu_cycles,
        report.total_picos,
        report.gpu_instructions,
        report.total_energy(),
    );
}

fn open_store(dir: &str) -> CheckpointStore {
    CheckpointStore::open(std::path::Path::new(dir)).unwrap_or_else(|e| {
        eprintln!("cannot open checkpoint directory {dir}: {e}");
        std::process::exit(2);
    })
}

fn cmd_save(spec: &str, kind: MemConfigKind, dir: &str, until: Option<usize>, verify: bool) -> i32 {
    let (sys, program) = resolve(spec, kind);
    let store = open_store(dir);
    let phases = program.phases.len();
    let mut machine = Machine::new(sys, kind);
    machine.memory_mut().set_verify(verify);
    let saved = |c: &RunCursor, seq| {
        let path = store.path_for(seq);
        println!(
            "barrier after phase {}/{phases}: wrote {}",
            c.next_phase,
            path.display()
        );
    };
    match checkpoint_every_barrier(&mut machine, &program, &store, until, saved) {
        Ok(Checkpointed::Completed(report)) => {
            print_report("completed", &report, machine.memory().state_digest());
            0
        }
        Ok(Checkpointed::Stopped(cursor)) => {
            println!(
                "stopped after phase {}/{phases} — resume with: checkpoint resume {spec} {} --dir {dir}",
                cursor.next_phase,
                kind.name(),
            );
            0
        }
        Err(e) => {
            cli::sim_failure_status(&format!("checkpoint save: {spec} on {}", kind.name()), &e)
        }
    }
}

fn cmd_resume(spec: &str, kind: MemConfigKind, dir: &str, verify: bool) -> i32 {
    let (_, program) = resolve(spec, kind);
    let store = open_store(dir);
    let mut r = match resume_newest(&store, &program) {
        Ok(Some(r)) => r,
        Ok(None) => {
            eprintln!("no valid snapshot in {dir}");
            return 1;
        }
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    for (bad, err) in &r.rejected {
        eprintln!(
            "skipped torn/corrupt {}: {err}",
            store.path_for(*bad).display()
        );
    }
    r.machine.memory_mut().set_verify(verify);
    println!(
        "resuming {} on {} from {} at phase {}/{}",
        spec,
        kind.name(),
        store.path_for(r.seq).display(),
        r.cursor.next_phase,
        program.phases.len(),
    );
    match r
        .machine
        .run_from(&program, None, &mut r.cursor, |_, _| Ok(()))
    {
        Ok(report) => {
            print_report("completed", &report, r.machine.memory().state_digest());
            0
        }
        Err(e) => {
            cli::sim_failure_status(&format!("checkpoint resume: {spec} on {}", kind.name()), &e)
        }
    }
}

fn cmd_inspect(dir: &str) -> i32 {
    let store = open_store(dir);
    let seqs = store.list();
    if seqs.is_empty() {
        println!("{dir}: no snapshots");
        return 0;
    }
    let mut status = 0;
    for seq in seqs {
        let path = store.path_for(seq);
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        match read_snapshot(&path) {
            Ok(snap) => {
                let sections: Vec<String> = snap
                    .sections()
                    .iter()
                    .map(|(tag, payload)| {
                        let name = match *tag {
                            t if t == SECTION_META => "META".to_string(),
                            t if t == SECTION_MSYS => "MSYS".to_string(),
                            t => format!("{t:#010x}"),
                        };
                        format!("{name} ({} bytes)", payload.len())
                    })
                    .collect();
                println!("{}: {bytes} bytes, {}", path.display(), sections.join(", "));
                match snap.section(SECTION_META, "checkpoint META section") {
                    Ok(meta) => match CheckpointMeta::decode(meta) {
                        Ok(CheckpointMeta {
                            fingerprint,
                            cursor,
                            ..
                        }) => println!(
                            "  program {fingerprint:016x}, next phase {}, \
                             {} kernel(s) done, {} GPU + {} CPU cycles",
                            cursor.next_phase, cursor.ordinal, cursor.gpu_cycles, cursor.cpu_cycles
                        ),
                        Err(e) => {
                            println!("  META undecodable: {e}");
                            status = 1;
                        }
                    },
                    Err(e) => {
                        println!("  {e}");
                        status = 1;
                    }
                }
            }
            Err(e) => {
                println!("{}: {bytes} bytes, INVALID — {e}", path.display());
                status = 1;
            }
        }
    }
    status
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    if cli::take_flag(&mut args, "--help") || cli::take_flag(&mut args, "-h") {
        usage();
    }
    let verify = cli::take_flag(&mut args, "--verify");
    let dir = cli::take_value(&mut args, "--dir").unwrap_or_else(|| usage());
    let until: Option<usize> = cli::take_parsed(&mut args, "--until");
    let args = cli::finish(args, true);

    let status = match args.as_slice() {
        [cmd] if cmd == "inspect" => cmd_inspect(&dir),
        [cmd, spec, kind] if cmd == "save" => {
            cmd_save(spec, cli::config_by_name(kind), &dir, until, verify)
        }
        [cmd, spec, kind] if cmd == "resume" => {
            if until.is_some() {
                usage();
            }
            cmd_resume(spec, cli::config_by_name(kind), &dir, verify)
        }
        _ => usage(),
    };
    if status != 0 {
        std::process::exit(status);
    }
}
