//! Metrics, the human-readable table, and the result line.

use std::fmt::Write as _;

use crate::stats::Tally;

/// The end-to-end metrics every workload reports with tracing off, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [&str; 3] = ["setup_s", "wall_s", "peak_rss_mb"];

/// The per-layer metrics every workload reports with tracing on, with
/// their units, in `BENCHMARK.json` order. A layer the workload does not
/// call reports zero.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("workloads.build_ms", "ms"),
    ("workloads.parse_trace_ms", "ms"),
    ("gpu.fingerprint_ms", "ms"),
    ("gpu.fingerprint_calls", "count"),
    ("verify.certify_ms", "ms"),
    ("verify.certified_ratio", "ratio"),
    ("gpu.run_ms", "ms"),
    ("gpu.host_ns_per_event", "ns"),
    ("gpu.instructions", "count"),
    ("gpu.l1.load_tx", "count"),
    ("gpu.l1.miss", "count"),
    ("stash.load_tx", "count"),
    ("stash.hit", "count"),
    ("stash.miss", "count"),
    ("scratch.access", "count"),
    ("llc.access", "count"),
    ("dram.line_fetch", "count"),
    ("dma.words", "count"),
    ("noc.flit_crossings", "count"),
    ("gpu.l1.hit_ratio", "ratio"),
    ("stash.hit_ratio", "ratio"),
    ("shard.run_ms", "ms"),
    ("shard.run_1t_ms", "ms"),
    ("shard.overhead_1t", "ratio"),
    ("shard.speedup", "ratio"),
    ("shard.fork_ms", "ms"),
    ("snapshot.save_ms", "ms"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.crc_ms", "ms"),
    ("snapshot.write_ms", "ms"),
    ("snapshot.read_ms", "ms"),
    ("snapshot.resume_ms", "ms"),
    ("snapshot.latest_valid_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.rejected", "count"),
    ("pool.busy_frac", "ratio"),
    ("pool.straggler_ms", "ms"),
    ("server.parse_ms", "ms"),
    ("server.key_ms", "ms"),
    ("server.lookup_ms", "ms"),
    ("server.store_ms", "ms"),
    ("server.batch_ms", "ms"),
    ("server.hit_ratio", "ratio"),
    ("server.corrupt_dropped", "count"),
    ("server.errors", "count"),
    ("stashd.wait_ms_p50", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("host.cpus", "count"),
    ("host.threads", "count"),
];

/// The end-to-end metric a per-layer metric is expected to move, and on
/// which workload ("little on" marks a workload that contrasts).
pub fn moves(name: &str) -> Option<&'static str> {
    const SIMULATED: [&str; 13] = [
        "gpu.instructions",
        "gpu.l1.load_tx",
        "gpu.l1.miss",
        "stash.load_tx",
        "stash.hit",
        "stash.miss",
        "scratch.access",
        "llc.access",
        "dram.line_fetch",
        "dma.words",
        "noc.flit_crossings",
        "gpu.l1.hit_ratio",
        "stash.hit_ratio",
    ];
    if SIMULATED.contains(&name) {
        return Some("none: fixed under any host-only change; explain sim_cycles_per_s on long-sim and checkpoint");
    }
    let prefix = |p: &str| name.starts_with(p);
    Some(if prefix("workloads.") {
        "setup_s on long-sim/checkpoint; miss_p50_ms on serve"
    } else if prefix("snapshot.") || prefix("gpu.checkpoint") {
        "ckpt_p50_ms, ckpt_p90_ms, restore_p50_ms, wall_s on checkpoint; miss_p50_ms on serve; none on long-sim"
    } else if prefix("gpu.fingerprint") {
        "ckpt_p50_ms and restore_p50_ms on checkpoint; miss_p50_ms on serve; none on long-sim"
    } else if prefix("verify.") {
        "setup_s and wall_s on long-sim; none elsewhere"
    } else if prefix("gpu.") || name.ends_with(".host_ms") {
        "wall_s and sim_cycles_per_s on checkpoint and the ungated matrix; miss_p50_ms on serve"
    } else if prefix("shard.") {
        "wall_s on long-sim; none on checkpoint or serve"
    } else if prefix("pool.") {
        "miss_p50_ms and wall_s on serve (stashd runs a batch's misses on a JobPool); wall_s on the ungated matrix"
    } else if prefix("server.") || prefix("stashd.") {
        "hit_p50_ms and hit_p99_ms (parse, key, lookup, wait), miss_p50_ms and wall_s (batch, store) on serve; none elsewhere"
    } else {
        return None;
    })
}

/// One reported quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit, e.g. `ms`, `s`, `count`.
    pub unit: &'static str,
    /// The value; `None` when the host cannot measure it or too few
    /// samples resolve it (see `label`).
    pub value: Option<f64>,
    /// Samples the value summarizes.
    pub samples: usize,
    /// Worker threads the measured work ran with.
    pub threads: usize,
    /// `unmeasured`, `unresolved: …`, or what the metric covers.
    pub label: String,
}

impl Metric {
    /// A measured value.
    pub fn new(name: &str, unit: &'static str, value: f64, samples: usize, threads: usize) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value: Some(value),
            samples,
            threads,
            label: String::new(),
        }
    }

    /// A value the benchmark does not report (host time it cannot
    /// separate, or a percentile with too few samples beyond it).
    pub fn missing(name: &str, unit: &'static str, samples: usize, label: &str) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value: None,
            samples,
            threads: 0,
            label: label.to_string(),
        }
    }

    /// Attaches a label.
    #[must_use]
    pub fn labelled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Every metric, in report order.
    pub metrics: Vec<Metric>,
    /// Facts about the inputs and host, one line each.
    pub facts: Vec<String>,
    /// Correctness failures, one line each.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records one checked operation; `Err` carries the failure message.
    pub fn check(&mut self, result: Result<(), String>) {
        self.tally.record(result.is_ok());
        if let Err(e) = result {
            if self.failures.len() < 20 {
                self.failures.push(e);
            }
        }
    }

    /// Whether every operation succeeded and was correct.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.value)
    }

    /// The human-readable report: facts, failures, and one row per
    /// metric with its unit, sample count and thread count.
    pub fn table(&self, workload: &str) -> String {
        let mut out = format!("== {workload}\n");
        for f in &self.facts {
            writeln!(out, "fact  {f}").expect("writing to a String cannot fail");
        }
        for f in &self.failures {
            writeln!(out, "FAIL  {f}").expect("writing to a String cannot fail");
        }
        writeln!(
            out,
            "ops   attempted {} failed {} error_rate {:.6}",
            self.tally.attempted,
            self.tally.failed,
            self.tally.error_rate()
        )
        .expect("writing to a String cannot fail");
        for m in &self.metrics {
            let value = m
                .value
                .map_or_else(|| "-".to_string(), |v| format!("{v:.6}"));
            let moves = moves(&m.name).map_or_else(String::new, |e| format!(" [moves: {e}]"));
            writeln!(
                out,
                "{:<26} {:>18} {:<6} n={:<6} threads={:<3} {}{moves}",
                m.name, value, m.unit, m.samples, m.threads, m.label
            )
            .expect("writing to a String cannot fail");
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, and the gated
    /// metrics — the end-to-end set, or the per-layer set when traced.
    pub fn result_line(&self, traced: bool) -> String {
        let mut metrics = Vec::new();
        if traced {
            for (name, unit) in PER_LAYER {
                let v = self.value(name).unwrap_or(0.0);
                metrics.push(format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    num(v)
                ));
            }
        } else {
            for name in END_TO_END {
                let m = self.metrics.iter().find(|m| m.name == name);
                let v = m.and_then(|m| m.value).unwrap_or(0.0);
                let unit = m.map_or("", |m| m.unit);
                metrics.push(format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    num(v)
                ));
            }
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(",")
        )
    }
}

/// A JSON number with all its digits (Rust's shortest round-trip form).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_gated_metrics() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        o.check(Err("cell x: digest moved".into()));
        for name in END_TO_END {
            o.metrics.push(Metric::new(name, "s", 1.25, 3, 2));
        }
        o.metrics.push(Metric::new("extra", "s", 9.0, 1, 1));
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1,"));
        assert!(line.contains("\"wall_s\":{\"value\":1.25,\"unit\":\"s\"}"));
        assert!(!line.contains("extra"));
        let traced = o.result_line(true);
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
        assert!(o.table("w").contains("FAIL  cell x: digest moved"));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END);
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
