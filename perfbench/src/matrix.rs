//! `matrix`: the full Figure 5 + Figure 6 grid (16 micro cells, 35 app
//! cells), each cell lowered once, then simulated by `Machine::run` with
//! the cells spread over `JobPool` workers.
//!
//! Not a gated workload of `BENCHMARK.json`: on a shared 2-CPU host its
//! pass time moved two to three times as much from run to run as
//! long-sim's in the same minutes (see `perfbench/README.md`). It stays
//! runnable, produces the goldens, and lends its pool pass to long-sim's
//! traced run for the `bench::pool` metrics.

use std::thread::ThreadId;
use std::time::{Duration, Instant};

use bench::pool::JobPool;
use gpu::config::MemConfigKind;
use gpu::machine::Machine;
use gpu::program::Program;
use gpu::report::RunReport;
use sim::config::SystemConfig;
use workloads::suite;

use crate::golden::Golden;
use crate::report::{Metric, Outcome};
use crate::simcounts::Counts;
use crate::spans::{by_layer, Tracer};
use crate::stats::{median, sorted};
use crate::{secs, Ctx};

/// One lowered cell.
pub struct Cell {
    /// Workload name.
    pub workload: &'static str,
    /// Memory configuration.
    pub kind: MemConfigKind,
    sys: SystemConfig,
    program: Program,
}

impl Cell {
    /// A cell of another workload's program, for a pool pass over it.
    pub fn new(
        workload: &'static str,
        kind: MemConfigKind,
        sys: SystemConfig,
        program: Program,
    ) -> Self {
        Cell {
            workload,
            kind,
            sys,
            program,
        }
    }
}

/// Lowers every cell of the grid, Figure 5 first, in figure order.
pub fn lower(tracer: &Tracer) -> Vec<Cell> {
    let grid = suite::micros()
        .into_iter()
        .flat_map(|w| MemConfigKind::FIGURE5.into_iter().map(move |k| (w, k)))
        .chain(
            suite::applications()
                .into_iter()
                .flat_map(|w| MemConfigKind::FIGURE6.into_iter().map(move |k| (w, k))),
        );
    tracer.span("matrix.setup", 0, None, |root| {
        grid.enumerate()
            .map(|(i, (w, kind))| Cell {
                workload: w.name,
                kind,
                sys: w.set.system_config(),
                program: tracer.span("workloads.build", i as u64, root, |_| (w.build)(kind)),
            })
            .collect()
    })
}

/// One simulated cell as the pool returned it.
pub struct CellRun {
    /// The report and state digest, or the simulation error.
    pub result: Result<(RunReport, u64), String>,
    /// Host time inside the job.
    pub host: Duration,
    end: Instant,
    worker: ThreadId,
}

/// One pass over the grid.
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// Cells in grid order.
    pub cells: Vec<CellRun>,
}

impl Pass {
    /// The pool's busy fraction: Σ job host time / (threads × wall).
    pub fn busy_frac(&self, threads: usize) -> f64 {
        let busy: Duration = self.cells.iter().map(|c| c.host).sum();
        secs(busy) / (threads as f64 * secs(self.wall)).max(1e-9)
    }

    /// Time from the first worker going idle (its last job done) to the
    /// last job done.
    pub fn straggler(&self) -> Duration {
        let mut last_end: Vec<(ThreadId, Instant)> = Vec::new();
        for c in &self.cells {
            match last_end.iter_mut().find(|(w, _)| *w == c.worker) {
                Some((_, t)) => *t = (*t).max(c.end),
                None => last_end.push((c.worker, c.end)),
            }
        }
        let first_idle = last_end.iter().map(|&(_, t)| t).min();
        let done = last_end.iter().map(|&(_, t)| t).max();
        match (first_idle, done) {
            (Some(a), Some(b)) => b - a,
            _ => Duration::ZERO,
        }
    }
}

/// Simulates every cell on a `threads`-wide pool.
pub fn pass(cells: &[Cell], threads: usize, tracer: &Tracer) -> Pass {
    let start = Instant::now();
    let runs = tracer.span("matrix.pass", 0, None, |root| {
        let jobs: Vec<_> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                move || {
                    let mut machine = Machine::new(c.sys.clone(), c.kind);
                    let report =
                        tracer.span("gpu.run", i as u64, root, |_| machine.run(&c.program));
                    let result = report
                        .map(|r| (r, machine.memory().state_digest()))
                        .map_err(|e| e.to_string());
                    (result, Instant::now(), std::thread::current().id())
                }
            })
            .collect();
        JobPool::new(threads).run(jobs)
    });
    let wall = start.elapsed();
    let cells = runs
        .into_iter()
        .map(|r| CellRun {
            result: r.value.0,
            host: r.host_time,
            end: r.value.1,
            worker: r.value.2,
        })
        .collect();
    Pass { wall, cells }
}

/// Checks every cell of a pass against the goldens; returns the pass's
/// simulated counts.
pub fn check_pass(cells: &[Cell], pass: &Pass, out: &mut Outcome) -> Counts {
    let mut counts = Counts::default();
    for (cell, run) in cells.iter().zip(&pass.cells) {
        let verdict = match &run.result {
            Ok((report, digest)) => {
                counts.add(report);
                Golden::check(cell.workload, cell.kind, report, *digest)
            }
            Err(e) => Err(format!("{}/{}: {e}", cell.workload, cell.kind.name())),
        };
        out.check(verdict);
    }
    counts
}

/// Lowerings of the grid per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Passes per run at least.
const MIN_PASSES: usize = 2;

/// Runs the workload: timed passes, or with `ctx.traced` one untraced
/// and one traced pass for the per-layer table.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.facts.push(format!(
        "cells 51 (16 Figure 5 micro, 35 Figure 6 app), pool threads {}, host_cpus {}",
        ctx.threads, ctx.cpus
    ));
    let setups_wanted = if ctx.traced { 1 } else { SETUPS };
    let (cells, setups) = crate::timed_setups(setups_wanted, || Ok(lower(&Tracer::new(false))))?;
    if ctx.traced {
        return Ok(traced(ctx, &cells, out));
    }

    let start = Instant::now();
    let (mut walls, mut ops) = (Vec::new(), Vec::new());
    let mut counts = None;
    while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < ctx.seconds {
        let p = pass(&cells, ctx.threads, &Tracer::new(false));
        let c = check_pass(&cells, &p, &mut out);
        counts.get_or_insert(c);
        walls.push(secs(p.wall));
        ops.extend(p.cells.iter().map(|c| secs(c.host) * 1e3));
    }
    let counts = counts.unwrap_or_default();
    let wall = median(&walls).unwrap_or(0.0);
    let ops = sorted(ops);
    let t = ctx.threads;
    out.metrics.push(
        Metric::new(
            "setup_s",
            "s",
            median(&setups).unwrap_or(0.0),
            setups.len(),
            1,
        )
        .labelled("lowering all 51 programs"),
    );
    out.metrics.push(
        Metric::new("wall_s", "s", wall, walls.len(), t).labelled("one pass over the 51 cells"),
    );
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
    out.metrics.push(
        Metric::new(
            "cell_p50_ms",
            "ms",
            median(&ops).unwrap_or(0.0),
            ops.len(),
            t,
        )
        .labelled("one cell: Machine::new + run + digest"),
    );
    out.metrics.push(crate::op_tail("cell", &ops, t));
    Ok(out)
}

fn traced(ctx: &Ctx, cells: &[Cell], mut out: Outcome) -> Outcome {
    let untraced = pass(cells, ctx.threads, &Tracer::new(false));
    check_pass(cells, &untraced, &mut out);
    let tracer = Tracer::new(true);
    lower(&tracer);
    let p = pass(cells, ctx.threads, &tracer);
    let counts = check_pass(cells, &p, &mut out);
    let spans = tracer.into_spans();
    crate::write_spans("matrix", ctx, &spans);
    let layers = by_layer(&spans);
    let t = ctx.threads;
    let n = cells.len();
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let run = layer("gpu.run");
    out.metrics.push(Metric::new(
        "workloads.build_ms",
        "ms",
        layer("workloads.build").self_ms,
        n,
        1,
    ));
    out.metrics
        .push(Metric::new("gpu.run_ms", "ms", run.self_ms, n, t).labelled("summed over cells"));
    out.metrics.push(Metric::new(
        "gpu.host_ns_per_event",
        "ns",
        run.total_ms * 1e6 / counts.events.max(1) as f64,
        n,
        t,
    ));
    out.metrics.extend(counts.metrics(n));
    out.metrics
        .push(Metric::new("pool.busy_frac", "ratio", p.busy_frac(t), n, t));
    out.metrics.push(Metric::new(
        "pool.straggler_ms",
        "ms",
        secs(p.straggler()) * 1e3,
        1,
        t,
    ));
    crate::trace_footer(&mut out, &layers, "matrix.pass", p.wall, untraced.wall, ctx);
    out
}
