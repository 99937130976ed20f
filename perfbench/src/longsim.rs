//! `long-sim`: pathfinder, lud and nw on StashG, each one simulation by
//! `Machine::run_parallel` at `nproc` threads with its conflict
//! certificate installed — the time to one long result on all cores.

use std::time::{Duration, Instant};

use gpu::certificate::ConflictCertificate;
use gpu::config::MemConfigKind;
use gpu::machine::{Machine, ParallelConfig, RunCursor};
use gpu::program::Program;
use gpu::report::RunReport;
use sim::config::SystemConfig;
use verify::dataflow::{certify, MachineShape};
use workloads::suite;

use crate::golden::Golden;
use crate::matrix::{self, Cell};
use crate::report::{Metric, Outcome};
use crate::simcounts::Counts;
use crate::spans::{by_layer, SpanId, Tracer};
use crate::stats::median;
use crate::{secs, Ctx};

/// The three applications, by kernel count (10, 46, 126).
const APPS: [&str; 3] = ["pathfinder", "lud", "nw"];
const KIND: MemConfigKind = MemConfigKind::StashG;

struct Sim {
    name: &'static str,
    sys: SystemConfig,
    program: Program,
    cert: ConflictCertificate,
}

fn setup(tracer: &Tracer) -> Result<Vec<Sim>, String> {
    tracer.span("long-sim.setup", 0, None, |root| {
        APPS.iter()
            .enumerate()
            .map(|(i, &name)| {
                let w = suite::by_name(name).ok_or_else(|| format!("no workload {name}"))?;
                let sys = w.set.system_config();
                let program = tracer.span("workloads.build", i as u64, root, |_| (w.build)(KIND));
                let shape = MachineShape {
                    cus: sys.gpu_cus,
                    distribution: ParallelConfig::default().distribution,
                    line_words: sys.words_per_line() as u64,
                };
                let cert = tracer.span("verify.certify", i as u64, root, |_| {
                    certify(&program, &shape)
                });
                Ok(Sim {
                    name,
                    sys,
                    program,
                    cert,
                })
            })
            .collect()
    })
}

/// One finished simulation.
struct SimRun {
    result: Result<(RunReport, u64), String>,
    certified: u64,
    host: Duration,
}

/// Simulates with the shard engine at `threads`, certificate installed.
fn run_sharded(
    sim: &Sim,
    i: usize,
    threads: usize,
    tracer: &Tracer,
    span: &'static str,
    parent: Option<SpanId>,
) -> SimRun {
    let mut machine = Machine::new(sim.sys.clone(), KIND);
    machine.set_certificate(sim.cert.clone());
    let start = Instant::now();
    let report = tracer.span(span, i as u64, parent, |_| {
        machine.run_parallel(
            &sim.program,
            &ParallelConfig {
                distribution: ParallelConfig::default().distribution,
                ..ParallelConfig::with_threads(threads)
            },
        )
    });
    let host = start.elapsed();
    SimRun {
        result: report
            .map(|r| (r, machine.memory().state_digest()))
            .map_err(|e| e.to_string()),
        certified: machine.certified_kernels(),
        host,
    }
}

/// The golden key of the shard engine's result for `app`. The shard
/// engine's result is the same at every thread count, but differs from
/// the sequential `Machine::run` for pathfinder and lud, so it has goldens
/// of its own (for nw the two agree).
fn shard_key(app: &str) -> String {
    format!("{app}@shard")
}

/// The oracle: the sharded run's report and digest equal the shard
/// engine's goldens.
fn check(sim: &Sim, run: &SimRun, counts: &mut Counts) -> Result<(), String> {
    let (report, digest) = run
        .result
        .as_ref()
        .map_err(|e| format!("{}: {e}", sim.name))?;
    counts.add(report);
    Golden::check(&shard_key(sim.name), KIND, report, *digest)
}

/// Golden lines for the shard engine's results (1 thread).
pub fn golden_lines() -> Result<Vec<String>, String> {
    setup(&Tracer::new(false))?
        .iter()
        .map(|s| {
            let run = run_sharded(s, 0, 1, &Tracer::new(false), "shard.run_1t", None);
            let (report, digest) = run.result?;
            Ok(Golden::line(&shard_key(s.name), KIND, &report, digest))
        })
        .collect()
}

struct Pass {
    wall: Duration,
    runs: Vec<SimRun>,
}

fn pass(sims: &[Sim], threads: usize, tracer: &Tracer) -> Pass {
    let start = Instant::now();
    let runs = tracer.span("long-sim.pass", 0, None, |root| {
        sims.iter()
            .enumerate()
            .map(|(i, s)| run_sharded(s, i, threads, tracer, "shard.run", root))
            .collect()
    });
    Pass {
        wall: start.elapsed(),
        runs,
    }
}

/// Set-ups (lowering + certify) per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Passes per run at least.
const MIN_PASSES: usize = 3;

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let setups_wanted = if ctx.traced { 1 } else { SETUPS };
    let (sims, setups) = crate::timed_setups(setups_wanted, || setup(&Tracer::new(false)))?;
    for s in &sims {
        out.facts.push(format!(
            "{}: {} kernels, {} certified by the conflict pass",
            s.name,
            s.cert.kernels.len(),
            s.cert.certified_kernels()
        ));
    }
    out.facts.push(format!(
        "shard threads {} (ParallelConfig::with_threads), host_cpus {}",
        ctx.threads, ctx.cpus
    ));
    if ctx.traced {
        return Ok(traced(ctx, &sims, out));
    }

    let start = Instant::now();
    let (mut walls, mut ops) = (Vec::new(), Vec::new());
    let mut per_app: Vec<Vec<f64>> = vec![Vec::new(); APPS.len()];
    let mut counts = None;
    while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < ctx.seconds {
        let p = pass(&sims, ctx.threads, &Tracer::new(false));
        let mut c = Counts::default();
        for (i, (s, r)) in sims.iter().zip(&p.runs).enumerate() {
            out.check(check(s, r, &mut c));
            ops.push(secs(r.host) * 1e3);
            per_app[i].push(secs(r.host) * 1e3);
        }
        counts.get_or_insert(c);
        walls.push(secs(p.wall));
    }
    let counts = counts.unwrap_or_default();
    let wall = median(&walls).unwrap_or(0.0);
    let t = ctx.threads;
    out.metrics.push(
        Metric::new(
            "setup_s",
            "s",
            median(&setups).unwrap_or(0.0),
            setups.len(),
            1,
        )
        .labelled("lowering + certify of the three programs"),
    );
    out.metrics
        .push(Metric::new("wall_s", "s", wall, walls.len(), t).labelled("the three simulations"));
    out.metrics.push(Metric::new(
        "peak_rss_mb",
        "MiB",
        crate::host::own_peak_rss_mb().unwrap_or(0.0),
        1,
        t,
    ));
    out.metrics.push(Metric::new(
        "sim_cycles_per_s",
        "1/s",
        counts.sim_cycles as f64 / wall.max(1e-9),
        walls.len(),
        t,
    ));
    let ops = crate::stats::sorted(ops);
    out.metrics.push(
        Metric::new(
            "sim_p50_ms",
            "ms",
            median(&ops).unwrap_or(0.0),
            ops.len(),
            t,
        )
        .labelled("one run_parallel simulation"),
    );
    out.metrics.push(crate::op_tail("sim", &ops, t));
    for (name, ms) in APPS.iter().zip(&per_app) {
        out.metrics.push(Metric::new(
            &format!("{name}_ms"),
            "ms",
            median(ms).unwrap_or(0.0),
            ms.len(),
            t,
        ));
    }
    Ok(out)
}

fn traced(ctx: &Ctx, sims: &[Sim], mut out: Outcome) -> Outcome {
    let untraced = pass(sims, ctx.threads, &Tracer::new(false));
    for (s, r) in sims.iter().zip(&untraced.runs) {
        out.check(check(s, r, &mut Counts::default()));
    }
    let tracer = Tracer::new(true);
    let _ = setup(&tracer);
    let p = pass(sims, ctx.threads, &tracer);
    let mut counts = Counts::default();
    let mut certified = 0u64;
    let mut kernels = 0usize;
    for (s, r) in sims.iter().zip(&p.runs) {
        out.check(check(s, r, &mut counts));
        certified += r.certified;
        kernels += s.cert.kernels.len();
    }
    // The sequential engine and the 1-thread shard engine the timed calls
    // are compared with, and the fork probes, run outside the timed pass.
    tracer.span("long-sim.reference", 0, None, |root| {
        for (i, s) in sims.iter().enumerate() {
            let mut machine = Machine::new(s.sys.clone(), KIND);
            let seq = tracer.span("gpu.run", i as u64, root, |_| machine.run(&s.program));
            out.check(match seq {
                Ok(r) => Golden::check(s.name, KIND, &r, machine.memory().state_digest()),
                Err(e) => Err(format!("{}: {e}", s.name)),
            });
            let one = run_sharded(s, i, 1, &tracer, "shard.run_1t", root);
            out.check(check(s, &one, &mut Counts::default()));
            out.check(fork_probes(s, i, ctx.threads, &tracer, root));
        }
    });
    let pool = pool_pass(sims, ctx.threads, &mut out);
    let spans = tracer.into_spans();
    crate::write_spans("long-sim", ctx, &spans);
    let layers = by_layer(&spans);
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let t = ctx.threads;
    let n = sims.len();
    let seq = layer("gpu.run").self_ms;
    let one = layer("shard.run_1t").self_ms;
    let par = layer("shard.run").self_ms;
    out.metrics.push(Metric::new(
        "workloads.build_ms",
        "ms",
        layer("workloads.build").self_ms,
        n,
        1,
    ));
    out.metrics.push(Metric::new(
        "verify.certify_ms",
        "ms",
        layer("verify.certify").self_ms,
        n,
        1,
    ));
    out.metrics.push(
        Metric::new(
            "verify.certified_ratio",
            "ratio",
            certified as f64 / kernels.max(1) as f64,
            n,
            t,
        )
        .labelled(format!(
            "{certified}/{kernels} kernels merged on the certified path"
        )),
    );
    out.metrics
        .push(Metric::new("gpu.run_ms", "ms", seq, n, 1).labelled("sequential Machine::run"));
    out.metrics.push(Metric::new(
        "gpu.host_ns_per_event",
        "ns",
        seq * 1e6 / counts.events.max(1) as f64,
        n,
        1,
    ));
    out.metrics.extend(counts.metrics(n));
    out.metrics
        .push(Metric::new("shard.run_ms", "ms", par, n, t));
    out.metrics
        .push(Metric::new("shard.run_1t_ms", "ms", one, n, 1));
    out.metrics.push(
        Metric::new("shard.overhead_1t", "ratio", one / seq.max(1e-9), n, 1)
            .labelled("shard engine at 1 thread / sequential engine"),
    );
    let speedup = Metric::new("shard.speedup", "ratio", one / par.max(1e-9), n, t);
    out.metrics.push(if ctx.cpus < t {
        speedup.labelled(format!("unresolved: host_cpus {} < threads {t}", ctx.cpus))
    } else {
        speedup.labelled(format!("1 thread / {t} threads on host_cpus {}", ctx.cpus))
    });
    let fork = layer("shard.fork");
    out.metrics.push(
        Metric::new("shard.fork_ms", "ms", fork.self_ms, fork.calls as usize, 1)
            .labelled("one probe fork_shard per barrier"),
    );
    out.metrics.push(
        Metric::new("pool.busy_frac", "ratio", pool.busy_frac(t), n, t)
            .labelled("the three Machine::run simulations as JobPool jobs"),
    );
    out.metrics.push(Metric::new(
        "pool.straggler_ms",
        "ms",
        secs(pool.straggler()) * 1e3,
        1,
        t,
    ));
    crate::trace_footer(
        &mut out,
        &layers,
        "long-sim.pass",
        p.wall,
        untraced.wall,
        ctx,
    );
    out
}

/// Runs the three sequential simulations as jobs on an nproc-wide
/// `JobPool`, the way `fig5`, `fig6` and `stashd` run simulations, for the
/// pool's own metrics; each result is checked against the sequential
/// goldens. Untraced, outside the timed pass.
fn pool_pass(sims: &[Sim], threads: usize, out: &mut Outcome) -> matrix::Pass {
    let cells: Vec<Cell> = sims
        .iter()
        .map(|s| Cell::new(s.name, KIND, s.sys.clone(), s.program.clone()))
        .collect();
    let p = matrix::pass(&cells, threads, &Tracer::new(false));
    matrix::check_pass(&cells, &p, out);
    p
}

/// Runs `sim` phase by phase on the shard engine and, at every barrier,
/// times one `MemorySystem::fork_shard` of the quiescent machine.
fn fork_probes(
    sim: &Sim,
    i: usize,
    threads: usize,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<(), String> {
    let mut machine = Machine::new(sim.sys.clone(), KIND);
    let mut cursor = RunCursor::default();
    let par = ParallelConfig::with_threads(threads);
    let report = machine
        .run_from(&sim.program, Some(&par), &mut cursor, |m, c| {
            let salt = c.ordinal << 32;
            tracer.probe("shard.fork", i as u64, parent, || {
                drop(m.memory().fork_shard(salt))
            });
            Ok(())
        })
        .map_err(|e| format!("{}: {e}", sim.name))?;
    Golden::check(
        &shard_key(sim.name),
        KIND,
        &report,
        machine.memory().state_digest(),
    )
}
