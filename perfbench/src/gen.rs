//! The seeded request stream of the `serve` workload.
//!
//! 300 of the 396 requests repeat a hot set (`bench::server::mix_templates`:
//! every microbenchmark's advise, the Figure 5 matrix, a small chaos
//! campaign). The rest are unique `run-trace` requests whose generated
//! traces vary the footprint against the stash and L1 capacity, the
//! kernel count, and whether later kernels reuse the first kernel's tile.
//! The seed sets the order of the requests; the work is the same for
//! every seed, so runs with different seeds measure the same thing. The daemon receives only
//! the request lines.

use std::fmt::Write as _;

use bench::cli::json_escape;
use bench::server::{config_named, mix_templates};
use sim::config::SystemConfig;
use sim::rng::SplitMix64;
use workloads::trace::parse_trace;

/// Configurations every generated trace runs on.
pub const TRACE_CONFIGS: [&str; 3] = ["Scratch", "Cache", "Stash"];

/// What a generated trace exercises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceFacts {
    /// Words one kernel maps, over the stash capacity.
    pub stash_ratio: f64,
    /// Bytes of the objects one kernel touches, over the L1 capacity.
    pub l1_ratio: f64,
    /// GPU kernels in the trace.
    pub kernels: usize,
    /// Whether every kernel re-touches the first kernel's tile.
    pub reuse: bool,
}

/// One request line of the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The JSON request object, without its `id` member.
    pub line: String,
    /// Facts of the generated trace; `None` for a hot-set request.
    pub trace: Option<TraceFacts>,
}

/// A seeded stream of requests.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// The seed the stream was generated from.
    pub seed: u64,
    /// The requests in send order.
    pub requests: Vec<Request>,
}

/// Copies of each hot-set template in a stream.
const HOT_COPIES: usize = 50;

impl Stream {
    /// Generates the stream for `seed`: [`HOT_COPIES`] copies of each
    /// hot-set template and one generated trace per point of a fixed grid
    /// (per-block tile of 1–3 quarters of the stash × 1–4 blocks × 1–4
    /// kernels × reuse or not), in a seeded order. Every seed asks for the
    /// same work in another order. Every generated trace is checked with
    /// `parse_trace` and lowered for each configuration.
    ///
    /// # Errors
    ///
    /// Names a generated trace that fails to parse or lower.
    pub fn generate(seed: u64) -> Result<Stream, String> {
        let mut rng = SplitMix64::new(seed);
        let mut requests: Vec<Request> = mix_templates()
            .into_iter()
            .flat_map(|t| std::iter::repeat_n(t, HOT_COPIES))
            .map(|line| Request { line, trace: None })
            .collect();
        let grid: Vec<Shape> = (1..=3u64)
            .flat_map(|quarters| (1..=4u64).map(move |blocks| (quarters, blocks)))
            .flat_map(|(quarters, blocks)| {
                (1..=4usize).map(move |kernels| (quarters, blocks, kernels))
            })
            .flat_map(|(quarters, blocks, kernels)| {
                [false, true].map(|reuse| Shape {
                    quarters,
                    blocks,
                    kernels,
                    reuse,
                })
            })
            .collect();
        for (i, shape) in grid.into_iter().enumerate() {
            // Secondary parameters follow the grid index, not the seed, so
            // that every seed's stream costs the same to serve.
            let (object, write, compute) = (4 << (i % 4), (i / 4) % 2 == 0, 1 + (i / 8) as u64 % 4);
            let (text, facts) = trace(shape, object, write, compute, seed, i);
            check(&text).map_err(|e| format!("generated trace {i} (seed {seed}): {e}"))?;
            let configs: Vec<String> = TRACE_CONFIGS.iter().map(|c| format!("\"{c}\"")).collect();
            requests.push(Request {
                line: format!(
                    "{{\"cmd\":\"run-trace\",\"trace\":\"{}\",\"configs\":[{}]}}",
                    json_escape(&text),
                    configs.join(",")
                ),
                trace: Some(facts),
            });
        }
        rng.shuffle(&mut requests);
        Ok(Stream { seed, requests })
    }

    /// The same requests in another seeded order (`pass` selects it), so
    /// that repeated passes of one run sample several orders.
    #[must_use]
    pub fn reordered(&self, pass: u64) -> Stream {
        let mut requests = self.requests.clone();
        SplitMix64::new(self.seed ^ pass.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .shuffle(&mut requests);
        Stream {
            seed: self.seed,
            requests,
        }
    }

    /// Share of requests drawn from the hot set.
    pub fn hot_share(&self) -> f64 {
        let hot = self.requests.iter().filter(|r| r.trace.is_none()).count();
        hot as f64 / self.requests.len().max(1) as f64
    }

    /// One line per generated trace: its position, footprint ratios,
    /// kernel count and reuse.
    pub fn describe(&self) -> String {
        let mut out = format!("# seed {} hot_share {:.4}\n", self.seed, self.hot_share());
        out.push_str("# request stash_ratio l1_ratio kernels reuse\n");
        for (i, r) in self.requests.iter().enumerate() {
            if let Some(f) = r.trace {
                writeln!(
                    out,
                    "{i} {:.3} {:.3} {} {}",
                    f.stash_ratio, f.l1_ratio, f.kernels, f.reuse
                )
                .expect("writing to a String cannot fail");
            }
        }
        out
    }
}

/// One point of the trace grid.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Each block's tile, in quarters of the stash (a block's local tile
    /// must fit the 16 KB scratchpad of the Scratch configuration).
    quarters: u64,
    blocks: u64,
    kernels: usize,
    reuse: bool,
}

/// A micro-machine trace over one array: `kernels` kernels of `blocks`
/// blocks, so one kernel maps a quarter to three times the stash. The
/// `req` comment makes every generated trace a distinct request.
fn trace(
    shape: Shape,
    object: u64,
    write: bool,
    compute: u64,
    seed: u64,
    i: usize,
) -> (String, TraceFacts) {
    let sys = SystemConfig::for_microbenchmarks();
    let stash_words = (sys.scratchpad_bytes / 4) as u64;
    let per_block = stash_words * shape.quarters / 4;
    let words = per_block * shape.blocks;
    let elems = if shape.reuse {
        words
    } else {
        words * shape.kernels as u64
    };
    let mode = if write { "rw" } else { "r" };
    let mut text =
        format!("# req {seed}-{i}\nmachine micro\narray a elems={elems} object={object} field=4\n");
    for k in 0..shape.kernels as u64 {
        let base = if shape.reuse { 0 } else { k * words };
        text.push_str("kernel\n");
        for b in 0..shape.blocks {
            writeln!(
                text,
                "block\ntask a {} {per_block} {mode} local compute={compute}",
                base + b * per_block
            )
            .expect("writing to a String cannot fail");
        }
    }
    let facts = TraceFacts {
        stash_ratio: words as f64 / stash_words as f64,
        l1_ratio: (words * object) as f64 / sys.l1_bytes as f64,
        kernels: shape.kernels,
        reuse: shape.reuse,
    };
    (text, facts)
}

/// Parses a generated trace and lowers it for every configuration.
fn check(text: &str) -> Result<(), String> {
    let tw = parse_trace(text).map_err(|e| e.to_string())?;
    for name in TRACE_CONFIGS {
        let kind = config_named(name).ok_or_else(|| format!("unknown configuration {name}"))?;
        tw.try_build(kind).map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = Stream::generate(7).unwrap();
        assert_eq!(a, Stream::generate(7).unwrap());
        let b = Stream::generate(8).unwrap();
        assert_ne!(a.requests, b.requests);
        // Another order of the same requests, the same for the same pass.
        let r = a.reordered(1);
        assert_eq!(r, a.reordered(1));
        assert_ne!(r.requests, a.requests);
        let mut x: Vec<_> = r.requests.iter().map(|q| q.line.clone()).collect();
        let mut y: Vec<_> = a.requests.iter().map(|q| q.line.clone()).collect();
        x.sort();
        y.sort();
        assert_eq!(x, y);
    }

    #[test]
    fn every_seed_asks_for_the_same_work() {
        let s = Stream::generate(1).unwrap();
        assert_eq!(s.requests.len(), 396);
        assert_eq!(s.hot_share(), 300.0 / 396.0);
        let work = |s: &Stream| -> f64 {
            s.requests
                .iter()
                .filter_map(|r| r.trace)
                .map(|f| f.l1_ratio * f.kernels as f64)
                .sum()
        };
        assert_eq!(work(&s), work(&Stream::generate(2).unwrap()));
        let traces: Vec<_> = s.requests.iter().filter_map(|r| r.trace).collect();
        assert!(traces.iter().any(|f| f.stash_ratio < 1.0));
        assert!(traces.iter().any(|f| f.stash_ratio > 1.0));
        assert!(traces.iter().any(|f| f.reuse) && traces.iter().any(|f| !f.reuse));
        assert!((1..=4).all(|k| traces.iter().any(|f| f.kernels == k)));
    }

    #[test]
    fn generated_traces_simulate_on_every_configuration() {
        // The largest tiles and the most kernels the generator emits.
        let s = Stream::generate(5).unwrap();
        let mut big: Vec<_> = s.requests.iter().filter(|r| r.trace.is_some()).collect();
        big.sort_by(|a, b| {
            let f = |r: &Request| {
                r.trace
                    .map(|t| t.stash_ratio * t.kernels as f64)
                    .unwrap_or(0.0)
            };
            f(b).total_cmp(&f(a))
        });
        for r in big.iter().take(3) {
            let v = bench::json::parse(&r.line).unwrap();
            let bench::server::Request::RunTrace { trace, kinds } =
                bench::server::parse_request(&v).unwrap()
            else {
                panic!("not a run-trace request");
            };
            let tw = parse_trace(&trace).unwrap();
            for kind in kinds {
                let mut m = gpu::machine::Machine::new(tw.set().system_config(), kind);
                m.run(&tw.build(kind)).unwrap();
            }
        }
    }

    #[test]
    fn every_line_is_a_valid_request_and_traces_are_unique() {
        let s = Stream::generate(3).unwrap();
        let mut traces = std::collections::HashSet::new();
        for r in &s.requests {
            let v = bench::json::parse(&r.line).unwrap();
            bench::server::parse_request(&v).unwrap();
            if r.trace.is_some() {
                assert!(traces.insert(r.line.clone()), "duplicate trace request");
            }
        }
        assert!(s.describe().starts_with("# seed 3 hot_share"));
    }
}
