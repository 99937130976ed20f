//! `checkpoint`: nw on StashG run by `Machine::run_from(par = None)` with
//! `CheckpointStore::save` at all 126 barriers into an empty directory;
//! then a sample of the checkpoints is read back and resumed, the newest
//! valid one is located the way crash recovery does, and one mid-run
//! checkpoint is resumed to completion.

use std::path::Path;
use std::time::{Duration, Instant};

use gpu::config::MemConfigKind;
use gpu::machine::{program_fingerprint, Machine, RunCursor};
use gpu::program::Program;
use gpu::report::RunReport;
use sim::config::SystemConfig;
use sim::snapshot::{crc32, read_snapshot, write_atomic, CheckpointStore, Snapshot, Writer};
use sim::SimError;
use workloads::suite;

use crate::golden::Golden;
use crate::host::ScratchDir;
use crate::report::{Metric, Outcome};
use crate::simcounts::Counts;
use crate::spans::{by_layer, self_times, SpanId, Tracer};
use crate::stats::{median, sorted};
use crate::{secs, tail_metric, Ctx};

const APP: &str = "nw";
const KIND: MemConfigKind = MemConfigKind::StashG;
/// Checkpoints read back and resumed per pass, evenly spaced.
const RESTORES: usize = 8;

struct Setup {
    sys: SystemConfig,
    program: Program,
}

fn setup(tracer: &Tracer, dir: &Path) -> Result<(Setup, CheckpointStore), String> {
    tracer.span("checkpoint.setup", 0, None, |root| {
        let w = suite::by_name(APP).ok_or_else(|| format!("no workload {APP}"))?;
        let program = tracer.span("workloads.build", 0, root, |_| (w.build)(KIND));
        let store = CheckpointStore::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok((
            Setup {
                sys: w.set.system_config(),
                program,
            },
            store,
        ))
    })
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    wall: Duration,
    ckpt_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    bytes: Vec<u64>,
    rejected: usize,
    sim_cycles: u64,
    report: Option<RunReport>,
}

/// Saves one checkpoint at a barrier: `Machine::checkpoint` then
/// `CheckpointStore::save`. Traced, the same work is split into the
/// public calls `CheckpointStore::save` makes (encode, then list + atomic
/// write), with probes of the fingerprint, memory-system save and CRC
/// that `Machine::checkpoint` and `Snapshot::to_bytes` do internally.
fn save(
    m: &Machine,
    c: &RunCursor,
    program: &Program,
    store: &CheckpointStore,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> std::io::Result<u64> {
    let id = c.next_phase as u64;
    if !tracer.on() {
        let snap = m.checkpoint(program, *c);
        store.save(&snap)?;
        return Ok(0);
    }
    tracer.span("checkpoint", id, parent, |p| {
        tracer.probe("gpu.fingerprint", id, p, || program_fingerprint(program));
        tracer.probe("snapshot.save", id, p, || {
            m.memory().save(&mut Writer::new())
        });
        let snap = tracer.span("gpu.checkpoint", id, p, |_| m.checkpoint(program, *c));
        let bytes = tracer.span("snapshot.encode", id, p, |_| snap.to_bytes());
        tracer.probe("snapshot.crc", id, p, || {
            snap.sections()
                .iter()
                .map(|(_, s)| crc32(s))
                .fold(0, u32::wrapping_add)
        });
        tracer.span("snapshot.write", id, p, |_| {
            let seq = store.list().last().map_or(0, |s| s + 1);
            write_atomic(&store.path_for(seq), &bytes)
        })?;
        Ok(bytes.len() as u64)
    })
}

/// Reads a checkpoint back and resumes it.
fn restore(
    store: &CheckpointStore,
    seq: u64,
    program: &Program,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<(Machine, RunCursor), SimError> {
    let snap: Snapshot = tracer.span("snapshot.read", seq, parent, |_| {
        read_snapshot(&store.path_for(seq))
    })?;
    if tracer.on() {
        tracer.probe("gpu.fingerprint", seq, parent, || {
            program_fingerprint(program)
        });
    }
    tracer.span("snapshot.resume", seq, parent, |_| {
        Machine::resume(&snap, program)
    })
}

/// One pass: the checkpointed run, the sampled restores, the recovery
/// scan and the mid-run resume to completion, each checked.
fn pass(s: &Setup, store: &CheckpointStore, tracer: &Tracer, out: &mut Outcome) -> Pass {
    let mut p = Pass::default();
    let start = Instant::now();
    tracer.span("checkpoint.pass", 0, None, |root| {
        let mut machine = Machine::new(s.sys.clone(), KIND);
        let mut cursor = RunCursor::default();
        let mut saves: Vec<Result<(), String>> = Vec::new();
        let straight = tracer.span("gpu.run", 0, root, |run| {
            machine.run_from(&s.program, None, &mut cursor, |m, c| {
                let t = Instant::now();
                let saved = save(m, c, &s.program, store, tracer, run);
                p.ckpt_ms.push(secs(t.elapsed()) * 1e3);
                match saved {
                    Ok(bytes) => {
                        p.bytes.push(bytes);
                        saves.push(Ok(()));
                        Ok(())
                    }
                    Err(e) => {
                        saves.push(Err(format!("checkpoint at phase {}: {e}", c.next_phase)));
                        Err(SimError::Config(format!("checkpoint write failed: {e}")))
                    }
                }
            })
        });
        saves.into_iter().for_each(|r| out.check(r));
        let straight = match straight {
            Ok(r) => {
                let digest = machine.memory().state_digest();
                out.check(Golden::check(APP, KIND, &r, digest));
                p.sim_cycles = r.gpu_cycles + r.cpu_cycles;
                p.report = Some(r.clone());
                (r, digest)
            }
            Err(e) => {
                out.check(Err(format!("{APP}: {e}")));
                return;
            }
        };

        let seqs = store.list();
        for k in 0..RESTORES {
            let seq = seqs[k * seqs.len() / RESTORES];
            let t = Instant::now();
            let restored = tracer.span("restore", seq, root, |r| {
                restore(store, seq, &s.program, tracer, r)
            });
            p.restore_ms.push(secs(t.elapsed()) * 1e3);
            out.check(match restored {
                Ok((_, c)) if c.next_phase as u64 == seq + 1 => Ok(()),
                Ok((_, c)) => Err(format!(
                    "checkpoint {seq} resumed at phase {}",
                    c.next_phase
                )),
                Err(e) => Err(format!("checkpoint {seq}: {e}")),
            });
        }

        let latest = tracer.span("snapshot.latest_valid", 0, root, |_| store.latest_valid());
        out.check(match latest {
            Some((seq, _, rejected)) if Some(&seq) == seqs.last() => {
                p.rejected = rejected.len();
                Ok(())
            }
            Some((seq, _, _)) => Err(format!(
                "latest valid checkpoint {seq}, expected {:?}",
                seqs.last()
            )),
            None => Err("no valid checkpoint".to_string()),
        });

        let mid = seqs[seqs.len() / 2];
        let resumed = tracer.span("resume_to_end", mid, root, |r| {
            let (mut m, mut c) = restore(store, mid, &s.program, tracer, r)?;
            let report = tracer.span("gpu.run", mid, r, |_| {
                m.run_from(&s.program, None, &mut c, |_, _| Ok(()))
            })?;
            Ok::<_, SimError>((report, m.memory().state_digest()))
        });
        out.check(match resumed {
            Ok(got) if got == straight => Ok(()),
            Ok(_) => Err(format!(
                "resume from checkpoint {mid} differs from straight-through"
            )),
            Err(e) => Err(format!("resume from checkpoint {mid}: {e}")),
        });
    });
    p.wall = start.elapsed();
    p
}

/// Set-ups (lowering + store creation) per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let scratch = ScratchDir::new("checkpoint").map_err(|e| e.to_string())?;
    let mut out = Outcome::default();
    let mut dirs = (0..).map(|i| scratch.path().join(format!("setup-{i}")));
    let setups_wanted = if ctx.traced { 1 } else { SETUPS };
    let (s, setups) = crate::timed_setups(setups_wanted, || {
        let dir = dirs.next().ok_or("no directory name")?;
        Ok(setup(&Tracer::new(false), &dir)?.0)
    })?;
    out.facts.push(format!(
        "{APP}/{}: {} phases, checkpoint at every barrier, {RESTORES} restores per pass; \
         sequential engine, host_cpus {}",
        KIND.name(),
        s.program.phases.len(),
        ctx.cpus
    ));
    let fresh_store = |name: &str| -> Result<CheckpointStore, String> {
        let dir = scratch.fresh(name).map_err(|e| e.to_string())?;
        CheckpointStore::open(&dir).map_err(|e| e.to_string())
    };
    if ctx.traced {
        return traced(ctx, &s, &fresh_store, out);
    }

    let start = Instant::now();
    let mut walls = Vec::new();
    let mut ckpt = Vec::new();
    let mut restores = Vec::new();
    let mut sim_cycles = 0;
    while walls.len() < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
        let store = fresh_store("store")?;
        let p = pass(&s, &store, &Tracer::new(false), &mut out);
        walls.push(secs(p.wall));
        ckpt.extend(p.ckpt_ms);
        restores.extend(p.restore_ms);
        sim_cycles = p.sim_cycles;
    }
    let wall = median(&walls).unwrap_or(0.0);
    let ckpt = sorted(ckpt);
    out.metrics.push(Metric::new(
        "setup_s",
        "s",
        median(&setups).unwrap_or(0.0),
        setups.len(),
        1,
    ));
    out.metrics.push(
        Metric::new("wall_s", "s", wall, walls.len(), 1)
            .labelled("checkpointed run + restores + recovery scan + resume to end"),
    );
    out.metrics.push(Metric::new(
        "peak_rss_mb",
        "MiB",
        crate::host::own_peak_rss_mb().unwrap_or(0.0),
        1,
        1,
    ));
    out.metrics.push(Metric::new(
        "sim_cycles_per_s",
        "1/s",
        sim_cycles as f64 / wall.max(1e-9),
        walls.len(),
        1,
    ));
    out.metrics.push(Metric::new(
        "ckpt_p50_ms",
        "ms",
        median(&ckpt).unwrap_or(0.0),
        ckpt.len(),
        1,
    ));
    out.metrics.push(tail_metric("ckpt", &ckpt, 90.0, 1));
    out.metrics.push(Metric::new(
        "restore_p50_ms",
        "ms",
        median(&restores).unwrap_or(0.0),
        restores.len(),
        1,
    ));
    Ok(out)
}

fn traced(
    ctx: &Ctx,
    s: &Setup,
    fresh_store: &dyn Fn(&str) -> Result<CheckpointStore, String>,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let untraced = pass(s, &fresh_store("untraced")?, &Tracer::new(false), &mut out);
    let tracer = Tracer::new(true);
    setup(&tracer, fresh_store("traced-setup")?.dir())?;
    let p = pass(s, &fresh_store("traced")?, &tracer, &mut out);
    let spans = tracer.into_spans();
    crate::write_spans("checkpoint", ctx, &spans);
    let layers = by_layer(&spans);
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let ckpts = p.ckpt_ms.len();
    let restores = p.restore_ms.len() + 1;
    let ms = |name: &str, m: &str, n: usize| Metric::new(name, "ms", layer(m).self_ms, n, 1);
    let mut counts = Counts::default();
    if let Some(r) = &p.report {
        counts.add(r);
    }
    out.metrics
        .push(ms("workloads.build_ms", "workloads.build", 1));
    out.metrics.push(
        ms("gpu.fingerprint_ms", "gpu.fingerprint", ckpts + restores).labelled(
            "probe: program_fingerprint as Machine::checkpoint and Machine::resume call it",
        ),
    );
    out.metrics.push(
        Metric::new(
            "gpu.fingerprint_calls",
            "count",
            (ckpts + restores) as f64,
            1,
            1,
        )
        .labelled("one per Machine::checkpoint and per Machine::resume"),
    );
    out.metrics.push(
        ms("gpu.run_ms", "gpu.run", 2)
            .labelled("Machine::run_from(par = None), checkpoint hooks excluded"),
    );
    // Host ns per simulated event of the straight-through run (span id 0),
    // checkpoint hooks excluded.
    let straight_ns = spans
        .iter()
        .zip(self_times(&spans))
        .find(|(s, _)| s.name == "gpu.run" && s.id == 0)
        .map_or(0, |(_, ns)| ns);
    out.metrics.push(Metric::new(
        "gpu.host_ns_per_event",
        "ns",
        straight_ns as f64 / counts.events.max(1) as f64,
        1,
        1,
    ));
    out.metrics.extend(counts.metrics(1));
    out.metrics
        .push(ms("snapshot.save_ms", "snapshot.save", ckpts).labelled("probe: MemorySystem::save"));
    out.metrics.push(
        ms("snapshot.encode_ms", "snapshot.encode", ckpts)
            .labelled("Snapshot::to_bytes, CRC included"),
    );
    out.metrics.push(
        ms("snapshot.crc_ms", "snapshot.crc", ckpts).labelled("probe: crc32 of every section"),
    );
    out.metrics.push(
        ms("snapshot.write_ms", "snapshot.write", ckpts).labelled("store list + write_atomic"),
    );
    out.metrics
        .push(ms("snapshot.read_ms", "snapshot.read", restores));
    out.metrics
        .push(ms("snapshot.resume_ms", "snapshot.resume", restores));
    out.metrics
        .push(ms("snapshot.latest_valid_ms", "snapshot.latest_valid", 1));
    out.metrics.push(
        Metric::new(
            "snapshot.bytes",
            "bytes",
            median(&p.bytes.iter().map(|&b| b as f64).collect::<Vec<_>>()).unwrap_or(0.0),
            p.bytes.len(),
            1,
        )
        .labelled("median checkpoint file size"),
    );
    out.metrics.push(Metric::new(
        "snapshot.rejected",
        "count",
        p.rejected as f64,
        1,
        1,
    ));
    out.metrics.push(
        ms("gpu.checkpoint_ms", "gpu.checkpoint", ckpts)
            .labelled("Machine::checkpoint, fingerprint and memory-system save included"),
    );
    crate::trace_footer(
        &mut out,
        &layers,
        "checkpoint.pass",
        p.wall,
        untraced.wall,
        ctx,
    );
    Ok(out)
}
