//! Experiment harness: runs the configuration matrix and formats every
//! table and figure of the paper.
//!
//! The figure binaries (`fig5`, `fig6`) are one call each to
//! [`figure_main`], which builds on [`run_matrix_checked`] /
//! [`FigurePanel`]: fan the `(workload × configuration)` cells out
//! across a [`pool::JobPool`], normalize to the Scratch baseline (exactly
//! as the paper's figures do), and print the rows; `sweep`, `ablation`,
//! `run-trace`, `advise` and `dse` submit their cells to a `JobPool`
//! directly. Parallelism never changes output: results are collected in
//! input order and every simulation is deterministic, so an `N`-thread
//! run is byte-identical to a serial one (see `tests/determinism.rs`).

#![forbid(unsafe_code)]

pub mod ablation;
pub mod chaos;
pub mod cli;
pub mod json;
pub mod pool;
pub mod profile;
pub mod server;

use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

use gpu::config::MemConfigKind;
use gpu::machine::Machine;
use gpu::report::RunReport;
use noc::MsgClass;
use pool::JobPool;
use sim::SimError;
use workloads::suite::{self, Workload, WorkloadSet};

/// One workload's reports across configurations.
#[derive(Debug)]
pub struct MatrixRow {
    /// The workload name.
    pub workload: &'static str,
    /// `(configuration, report)` pairs, in the requested order.
    pub reports: Vec<(MemConfigKind, RunReport)>,
}

impl MatrixRow {
    /// The report for one configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration was not part of the run.
    pub fn report(&self, kind: MemConfigKind) -> &RunReport {
        &self
            .reports
            .iter()
            .find(|(k, _)| *k == kind)
            .unwrap_or_else(|| panic!("{kind} was not simulated"))
            .1
    }

    /// The Scratch baseline report.
    pub fn baseline(&self) -> &RunReport {
        self.report(MemConfigKind::Scratch)
    }
}

/// Simulator-throughput measurements of one matrix run.
#[derive(Debug, Clone, Copy)]
pub struct MatrixStats {
    /// Number of `(workload, configuration)` simulation jobs.
    pub jobs: usize,
    /// Worker threads the pool ran with.
    pub threads: usize,
    /// Wall-clock of the whole batch.
    pub wall: Duration,
    /// Summed per-job host time (the serial-equivalent cost).
    pub busy: Duration,
    /// Total simulated cycles (GPU + CPU) across all jobs.
    pub sim_cycles: u64,
}

impl MatrixStats {
    /// Jobs completed per host second.
    pub fn jobs_per_sec(&self) -> f64 {
        self.jobs as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Simulated cycles per host second (simulator throughput).
    pub fn sim_cycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Ratio of serial-equivalent time to wall-clock (the realized
    /// parallel speedup).
    pub fn speedup(&self) -> f64 {
        self.busy.as_secs_f64() / self.wall.as_secs_f64().max(1e-9)
    }

    /// The throughput line the binaries print.
    pub fn summary(&self) -> String {
        format!(
            "[harness] {} jobs on {} thread{} in {:.2?} — {:.1} jobs/s, \
             {:.2} Msimcycles/s, speedup {:.2}x",
            self.jobs,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.wall,
            self.jobs_per_sec(),
            self.sim_cycles_per_sec() / 1e6,
            self.speedup(),
        )
    }
}

/// One cell of the matrix: `workload` on `kind` as a self-contained job,
/// with the runtime invariant oracle on when `verify` is set.
fn try_run_cell(
    workload: &Workload,
    kind: MemConfigKind,
    verify: bool,
) -> Result<RunReport, SimError> {
    let program = (workload.build)(kind);
    let mut machine = Machine::new(workload.set.system_config(), kind);
    machine.memory_mut().set_verify(verify);
    machine.run(&program)
}

/// A failed matrix cell: which `(workload, configuration)` pair died and
/// why. The binaries print a watchdog deadlock's diagnostic dump and exit
/// nonzero via [`cli::sim_failure_status`].
#[derive(Debug)]
pub struct MatrixCellError {
    /// The failing cell's workload name.
    pub workload: &'static str,
    /// The failing cell's configuration.
    pub kind: MemConfigKind,
    /// The simulation error.
    pub error: SimError,
}

impl std::fmt::Display for MatrixCellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} on {}: {}", self.workload, self.kind, self.error)
    }
}

impl std::error::Error for MatrixCellError {}

/// Fans the full `(workload × configuration)` matrix out across
/// `threads` pool workers and reassembles the rows in input order, with
/// the runtime invariant oracle on every cell when `verify` is set (the
/// binaries' `--verify` flag).
///
/// Every cell is an independent [`Machine`], so scheduling cannot affect
/// results; the returned rows are byte-identical at any thread count.
/// A simulation failure comes back as a [`MatrixCellError`] instead of a
/// panic, so the binaries can print a watchdog deadlock's diagnostic
/// dump and exit nonzero.
///
/// # Errors
///
/// Returns the first cell (in `workloads × kinds` order) whose simulation
/// failed: a configuration or mapping error, or a watchdog deadlock
/// ([`SimError::Deadlock`]).
///
/// # Panics
///
/// With `verify` on, panics if the oracle finds an invariant violation
/// in any cell.
pub fn run_matrix_checked(
    workloads: &[Workload],
    kinds: &[MemConfigKind],
    threads: usize,
    verify: bool,
) -> Result<(Vec<MatrixRow>, MatrixStats), MatrixCellError> {
    let pool = JobPool::new(threads);
    let start = Instant::now();
    let jobs: Vec<_> = workloads
        .iter()
        .flat_map(|w| kinds.iter().map(move |&kind| (w, kind)))
        .map(|(w, kind)| move || (w.name, kind, try_run_cell(w, kind, verify)))
        .collect();
    let jobs_len = jobs.len();
    let results = pool.run(jobs);
    let wall = start.elapsed();

    let busy = results.iter().map(|r| r.host_time).sum();
    let mut reports = Vec::with_capacity(results.len());
    for r in results {
        let (workload, kind, outcome) = r.value;
        match outcome {
            Ok(report) => reports.push(report),
            Err(error) => {
                return Err(MatrixCellError {
                    workload,
                    kind,
                    error,
                })
            }
        }
    }
    let sim_cycles = reports.iter().map(|r| r.gpu_cycles + r.cpu_cycles).sum();
    let mut reports = reports.into_iter();
    let rows = workloads
        .iter()
        .map(|w| MatrixRow {
            workload: w.name,
            reports: kinds
                .iter()
                .map(|&kind| (kind, reports.next().expect("one report per cell")))
                .collect(),
        })
        .collect();
    Ok((
        rows,
        MatrixStats {
            jobs: jobs_len,
            threads: pool.threads(),
            wall,
            busy,
            sim_cycles,
        },
    ))
}

/// Which quantity a figure panel plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigurePanel {
    /// Execution time (Figures 5a, 6a).
    Time,
    /// Dynamic energy (Figures 5b, 6b), with the component split.
    Energy,
    /// GPU instruction count (Figure 5c).
    Instructions,
    /// Network traffic in flit crossings (Figure 5d), split by class.
    Traffic,
}

/// Parses a `--panel` argument.
impl std::str::FromStr for FigurePanel {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "time" => Ok(FigurePanel::Time),
            "energy" => Ok(FigurePanel::Energy),
            "instructions" => Ok(FigurePanel::Instructions),
            "traffic" => Ok(FigurePanel::Traffic),
            _ => Err("use time|energy|instructions|traffic"),
        }
    }
}

impl FigurePanel {
    /// All panels of Figure 5.
    pub const FIG5: [FigurePanel; 4] = [
        FigurePanel::Time,
        FigurePanel::Energy,
        FigurePanel::Instructions,
        FigurePanel::Traffic,
    ];

    /// The panel's figure title.
    pub fn title(self) -> &'static str {
        match self {
            FigurePanel::Time => "Execution time",
            FigurePanel::Energy => "Dynamic energy",
            FigurePanel::Instructions => "GPU instruction count",
            FigurePanel::Traffic => "Network traffic (flit-crossings)",
        }
    }

    /// The panel's raw quantity for one report.
    pub fn raw(self, report: &RunReport) -> u64 {
        match self {
            FigurePanel::Time => report.total_picos,
            FigurePanel::Energy => report.total_energy(),
            FigurePanel::Instructions => report.gpu_instructions,
            FigurePanel::Traffic => report.traffic.total_crossings(),
        }
    }

    /// The normalized percentage for one report (baseline = 100).
    ///
    /// # Panics
    ///
    /// Panics if the baseline quantity is zero; degenerate inputs should
    /// go through [`FigurePanel::percent_or_baseline`].
    pub fn percent(self, report: &RunReport, baseline: &RunReport) -> u64 {
        match self {
            FigurePanel::Time => report.time_percent_of(baseline),
            FigurePanel::Energy => report.energy_percent_of(baseline),
            FigurePanel::Instructions => report.instructions_percent_of(baseline),
            FigurePanel::Traffic => report.traffic_percent_of(baseline),
        }
    }

    /// Like [`FigurePanel::percent`], but a zero-quantity baseline
    /// (possible for any panel in degenerate workloads — e.g. an empty
    /// trace, or traffic-free microbenchmarks) normalizes to 100 instead
    /// of panicking.
    pub fn percent_or_baseline(self, report: &RunReport, baseline: &RunReport) -> u64 {
        if self.raw(baseline) == 0 {
            return 100;
        }
        self.percent(report, baseline)
    }
}

/// Prints one panel as the paper's normalized bars (Scratch = 100%).
pub fn print_panel(panel: FigurePanel, rows: &[MatrixRow], kinds: &[MemConfigKind]) {
    println!("\n=== {} (normalized to Scratch = 100) ===", panel.title());
    if rows.is_empty() {
        println!("(no workloads)");
        return;
    }
    print!("{:<12}", "workload");
    for k in kinds {
        print!("{:>10}", k.name());
    }
    println!();
    let mut sums = vec![0u64; kinds.len()];
    for row in rows {
        print!("{:<12}", row.workload);
        let base = row.baseline();
        for (i, &k) in kinds.iter().enumerate() {
            let pct = panel.percent_or_baseline(row.report(k), base);
            sums[i] += pct;
            print!("{pct:>9}%");
        }
        println!();
    }
    print!("{:<12}", "average");
    for s in &sums {
        print!("{:>9}%", s / rows.len() as u64);
    }
    println!();

    // Component / class splits for the energy and traffic panels.
    match panel {
        FigurePanel::Energy => {
            println!("\n-- energy split by component (% of own total) --");
            for row in rows {
                for &k in kinds {
                    let r = row.report(k);
                    let total = r.total_energy().max(1);
                    print!("{:<12}{:<10}", row.workload, k.name());
                    for (c, e) in r.energy.iter() {
                        print!(" {}={:>3}%", c.label(), e * 100 / total);
                    }
                    println!();
                }
            }
        }
        FigurePanel::Traffic => {
            println!("\n-- traffic split by message class (% of own total) --");
            for row in rows {
                for &k in kinds {
                    let r = row.report(k);
                    let total = r.traffic.total_crossings().max(1);
                    print!("{:<12}{:<10}", row.workload, k.name());
                    for class in MsgClass::ALL {
                        print!(
                            " {}={:>3}%",
                            class.name(),
                            r.traffic.crossings(class) * 100 / total
                        );
                    }
                    println!();
                }
            }
        }
        _ => {}
    }
}

/// Geometric-mean style summary the paper quotes in §6.2/§6.3: the
/// average percentage-point reduction of `subject` vs `versus`. Zero for
/// an empty matrix.
pub fn average_reduction(
    rows: &[MatrixRow],
    panel: FigurePanel,
    subject: MemConfigKind,
    versus: MemConfigKind,
) -> i64 {
    if rows.is_empty() {
        return 0;
    }
    let mut total = 0i64;
    for row in rows {
        let s = panel.percent_or_baseline(row.report(subject), row.baseline()) as i64;
        let v = panel.percent_or_baseline(row.report(versus), row.baseline()) as i64;
        // Reduction relative to the comparison configuration.
        total += 100 - s * 100 / v.max(1);
    }
    total / rows.len() as i64
}

/// What one of the paper's figure binaries (`fig5`, `fig6`) shows.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The binary's name, for error messages.
    pub bin: &'static str,
    /// The workloads, their machine and the compared configurations.
    pub set: WorkloadSet,
    /// The first line of the report.
    pub title: &'static str,
    /// The panels printed when `--panel` is absent.
    pub panels: &'static [FigurePanel],
    /// The heading of the headline comparisons.
    pub headline: &'static str,
    /// The configuration whose reductions the headline reports ...
    pub subject: MemConfigKind,
    /// ... against each of these.
    pub versus: &'static [MemConfigKind],
    /// The paper's headline numbers, printed beside the measured ones.
    pub paper: &'static str,
}

/// The main of a figure binary. It takes `--threads N`, `--verify`,
/// `--panel P` and `--csv PATH` and refuses any other argument, runs the
/// `(workload × configuration)` matrix, and prints the panels and the
/// headline reductions. A failed cell exits through
/// [`cli::sim_failure_status`].
pub fn figure_main(fig: &Figure) {
    let mut args: Vec<String> = std::env::args().collect();
    let threads = cli::take_parsed(&mut args, "--threads")
        .map_or_else(cli::default_threads, NonZeroUsize::get);
    let verify = cli::take_flag(&mut args, "--verify");
    let panel: Option<FigurePanel> = cli::take_parsed(&mut args, "--panel");
    let csv = cli::take_value(&mut args, "--csv");
    cli::finish(args, false);

    let workloads: Vec<Workload> = suite::all()
        .into_iter()
        .filter(|w| w.set == fig.set)
        .collect();
    let kinds = fig.set.figure_kinds();
    println!("{}", fig.title);
    if verify {
        println!("(runtime invariant oracle on — checking after every transition)");
    }
    let (rows, stats) =
        run_matrix_checked(&workloads, kinds, threads, verify).unwrap_or_else(|e| {
            let context = format!("{}: {} on {}", fig.bin, e.workload, e.kind.name());
            std::process::exit(cli::sim_failure_status(&context, &e.error));
        });
    println!("{}", stats.summary());
    if let Some(path) = csv {
        if let Err(e) = write_csv(std::path::Path::new(&path), &rows, kinds) {
            eprintln!("{}: cannot write {path}: {e}", fig.bin);
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
    let panels = match &panel {
        Some(p) => std::slice::from_ref(p),
        None => fig.panels,
    };
    for &panel in panels {
        print_panel(panel, &rows, kinds);
    }

    println!("\n=== {} ===", fig.headline);
    for (panel, label) in [
        (FigurePanel::Time, "cycles"),
        (FigurePanel::Energy, "energy"),
    ] {
        let mut line = format!("{label:<7}");
        for (i, &versus) in fig.versus.iter().enumerate() {
            let reduction = average_reduction(&rows, panel, fig.subject, versus);
            let gap = if i == 0 { " " } else { "  " };
            line.push_str(&format!("{gap}vs {} {reduction:>3}%", versus.name()));
        }
        println!("{line}   (paper: {})", fig.paper);
    }
}

/// Writes one figure's full panel set as CSV (one row per
/// workload×configuration, all four quantities normalized to Scratch plus
/// the raw values) — for downstream plotting.
///
/// # Errors
///
/// Propagates I/O errors from writing `path`.
pub fn write_csv(
    path: &std::path::Path,
    rows: &[MatrixRow],
    kinds: &[MemConfigKind],
) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::File::create(path)?;
    f.write_all(csv_bytes(rows, kinds).as_bytes())
}

/// The CSV text [`write_csv`] produces (determinism tests compare these
/// bytes across thread counts).
pub fn csv_bytes(rows: &[MatrixRow], kinds: &[MemConfigKind]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    out.push_str(
        "workload,config,time_pct,energy_pct,instructions_pct,traffic_pct,\
         time_ps,energy_fj,gpu_instructions,flit_crossings,read_crossings,\
         write_crossings,writeback_crossings\n",
    );
    for row in rows {
        let base = row.baseline();
        for &k in kinds {
            let r = row.report(k);
            // A zero-quantity baseline (possible for every panel in
            // degenerate workloads) normalizes to 100 rather than
            // panicking.
            writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{}",
                row.workload,
                k.name(),
                FigurePanel::Time.percent_or_baseline(r, base),
                FigurePanel::Energy.percent_or_baseline(r, base),
                FigurePanel::Instructions.percent_or_baseline(r, base),
                FigurePanel::Traffic.percent_or_baseline(r, base),
                r.total_picos,
                r.total_energy(),
                r.gpu_instructions,
                r.traffic.total_crossings(),
                r.traffic.crossings(MsgClass::Read),
                r.traffic.crossings(MsgClass::Write),
                r.traffic.crossings(MsgClass::Writeback),
            )
            .expect("writing to String cannot fail");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu::report::RunReport;

    fn fake_report(picos: u64, energy_fj: u64, instrs: u64) -> RunReport {
        let mut r = RunReport {
            total_picos: picos,
            gpu_instructions: instrs,
            ..RunReport::default()
        };
        r.energy.add(energy::Component::GpuCore, energy_fj);
        r
    }

    fn fake_row(scratch: (u64, u64, u64), stash: (u64, u64, u64)) -> MatrixRow {
        MatrixRow {
            workload: "fake",
            reports: vec![
                (
                    MemConfigKind::Scratch,
                    fake_report(scratch.0, scratch.1, scratch.2),
                ),
                (MemConfigKind::Stash, fake_report(stash.0, stash.1, stash.2)),
            ],
        }
    }

    #[test]
    fn panel_parse_roundtrip() {
        for (s, p) in [
            ("time", FigurePanel::Time),
            ("energy", FigurePanel::Energy),
            ("instructions", FigurePanel::Instructions),
            ("traffic", FigurePanel::Traffic),
        ] {
            assert_eq!(s.parse(), Ok(p));
        }
        assert!("cycles".parse::<FigurePanel>().is_err());
    }

    #[test]
    fn percent_normalizes_to_baseline() {
        let row = fake_row((1000, 2000, 100), (500, 500, 60));
        let base = row.baseline();
        let stash = row.report(MemConfigKind::Stash);
        assert_eq!(FigurePanel::Time.percent(stash, base), 50);
        assert_eq!(FigurePanel::Energy.percent(stash, base), 25);
        assert_eq!(FigurePanel::Instructions.percent(stash, base), 60);
    }

    #[test]
    fn zero_baseline_normalizes_to_100_instead_of_panicking() {
        // An all-zero baseline row: every panel quantity is degenerate.
        let row = fake_row((0, 0, 0), (500, 500, 60));
        let base = row.baseline();
        let stash = row.report(MemConfigKind::Stash);
        for panel in FigurePanel::FIG5 {
            assert_eq!(panel.percent_or_baseline(stash, base), 100);
        }
    }

    #[test]
    fn empty_matrix_prints_and_averages_without_panicking() {
        print_panel(FigurePanel::Time, &[], &[MemConfigKind::Scratch]);
        assert_eq!(
            average_reduction(
                &[],
                FigurePanel::Time,
                MemConfigKind::Stash,
                MemConfigKind::Scratch,
            ),
            0
        );
        let csv = csv_bytes(&[], &[MemConfigKind::Scratch]);
        assert_eq!(csv.lines().count(), 1, "header only");
    }

    #[test]
    fn average_reduction_over_rows() {
        let rows = vec![
            fake_row((1000, 1000, 10), (500, 500, 10)), // 50% reduction
            fake_row((1000, 1000, 10), (750, 750, 10)), // 25% reduction
        ];
        let avg = average_reduction(
            &rows,
            FigurePanel::Time,
            MemConfigKind::Stash,
            MemConfigKind::Scratch,
        );
        assert_eq!(avg, 37); // (50 + 25) / 2, integer division
    }

    #[test]
    fn csv_has_header_and_one_line_per_cell() {
        let rows = vec![fake_row((1000, 1000, 10), (500, 500, 5))];
        let dir = std::env::temp_dir().join("stash_repro_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.csv");
        write_csv(
            &path,
            &rows,
            &[MemConfigKind::Scratch, MemConfigKind::Stash],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 configurations
        assert!(lines[0].starts_with("workload,config,time_pct"));
        assert!(lines[1].starts_with("fake,Scratch,100"));
        assert!(lines[2].starts_with("fake,Stash,50"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_baseline_csv_writes_100_for_every_panel() {
        let rows = vec![fake_row((0, 0, 0), (500, 500, 5))];
        let csv = csv_bytes(&rows, &[MemConfigKind::Scratch, MemConfigKind::Stash]);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[1].starts_with("fake,Scratch,100,100,100,100"));
        assert!(lines[2].starts_with("fake,Stash,100,100,100,100"));
    }

    #[test]
    #[should_panic(expected = "was not simulated")]
    fn missing_config_panics() {
        let row = fake_row((1, 1, 1), (1, 1, 1));
        let _ = row.report(MemConfigKind::Cache);
    }
}
