//! Exact simulated counts from `RunReport`s, and the report signature
//! the correctness checks compare.

use gpu::report::RunReport;

use crate::report::Metric;

/// A 64-bit identity of everything a report measured: cycles, time,
/// instructions, energy, traffic, and every nonzero counter by name. Two
/// runs of one program agree on it exactly or the simulation changed.
pub fn signature(report: &RunReport) -> u64 {
    let mut text = format!(
        "gpu_cycles={} cpu_cycles={} total_picos={} instrs={} energy_fj={} flits={} crossings={}",
        report.gpu_cycles,
        report.cpu_cycles,
        report.total_picos,
        report.gpu_instructions,
        report.total_energy(),
        report.traffic.total_flits(),
        report.traffic.total_crossings(),
    );
    for (name, v) in report.counters.iter().filter(|&(_, v)| v != 0) {
        text.push_str(&format!(" {name}={v}"));
    }
    sim::snapshot::fnv1a(text.as_bytes())
}

/// The counters the per-layer table reports, by metric name.
const COUNTERS: [&str; 10] = [
    "gpu.l1.load_tx",
    "gpu.l1.miss",
    "stash.load_tx",
    "stash.hit",
    "stash.miss",
    "scratch.access",
    "llc.access",
    "dram.line_fetch",
    "dma.words",
    "gpu.l1.store_tx",
];

/// Simulated counts summed over the reports of one pass.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    /// Simulated GPU plus CPU cycles.
    pub sim_cycles: u64,
    /// GPU warp instructions.
    pub instructions: u64,
    /// NoC flit link crossings.
    pub flit_crossings: u64,
    /// Sum of every event counter (the denominator of host ns/event).
    pub events: u64,
    counters: [u64; COUNTERS.len()],
}

impl Counts {
    /// Adds one report.
    pub fn add(&mut self, r: &RunReport) {
        self.sim_cycles += r.gpu_cycles + r.cpu_cycles;
        self.instructions += r.gpu_instructions;
        self.flit_crossings += r.traffic.total_crossings();
        self.events += r.counters.iter().map(|(_, v)| v).sum::<u64>();
        for (slot, name) in self.counters.iter_mut().zip(COUNTERS) {
            *slot += r.counters.get(name);
        }
    }

    fn get(&self, name: &str) -> u64 {
        COUNTERS
            .iter()
            .position(|&n| n == name)
            .map_or(0, |i| self.counters[i])
    }

    /// The simulated-component rows of the per-layer table: exact counts,
    /// hit ratios, and the components' host time, which the benchmark
    /// cannot separate from `gpu.run` and so labels `unmeasured`.
    pub fn metrics(&self, sims: usize) -> Vec<Metric> {
        let count = |name: &str, v: u64| Metric::new(name, "count", v as f64, sims, 1);
        let mut out = vec![count("gpu.instructions", self.instructions)];
        for name in &COUNTERS[..9] {
            out.push(count(name, self.get(name)));
        }
        out.push(count("noc.flit_crossings", self.flit_crossings));
        let l1_tx = self.get("gpu.l1.load_tx") + self.get("gpu.l1.store_tx");
        let stash_tx = self.get("stash.hit") + self.get("stash.miss");
        out.push(Metric::new(
            "gpu.l1.hit_ratio",
            "ratio",
            ratio(l1_tx.saturating_sub(self.get("gpu.l1.miss")), l1_tx),
            sims,
            1,
        ));
        out.push(Metric::new(
            "stash.hit_ratio",
            "ratio",
            ratio(self.get("stash.hit"), stash_tx),
            sims,
            1,
        ));
        for layer in ["gpu.coalescer", "mem.l1", "stash", "mem.llc", "noc"] {
            out.push(Metric::missing(
                &format!("{layer}.host_ms"),
                "ms",
                0,
                "unmeasured: runs inside gpu.run with no span of its own",
            ));
        }
        out
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
