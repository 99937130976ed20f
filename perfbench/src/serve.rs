//! `serve`: one client drives a fresh `stashd --threads nproc --cache-dir
//! <empty dir>` over stdio in a closed loop with 4 requests in flight,
//! replaying the seeded stream of [`crate::gen`]. Hits and misses are told
//! apart by the result event's `cached` flag.
//!
//! The traced run replays the same stream through an in-process
//! `bench::server::Server`, one request at a time, with a span around
//! each call the daemon makes for it: parse, key, cache lookup, and for
//! a miss the batch and the cache store.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write as _};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use bench::json::{self, Value};
use bench::server::{
    parse_request, sibling_binary, Request, ResultCache, Server, DEFAULT_CACHE_MAX,
};
use gpu::config::MemConfigKind;
use gpu::machine::{program_fingerprint, Machine};
use workloads::suite;

use crate::gen::Stream;
use crate::host::{peak_rss_mb, ScratchDir};
use crate::report::{Metric, Outcome};
use crate::simcounts::Counts;
use crate::spans::{by_layer, Tracer};
use crate::stats::{median, sorted};
use crate::{secs, tail_metric, Ctx};

/// Requests in flight: the next goes out when an answer returns.
const WINDOW: usize = 4;
/// Extra spawn-to-hello samples before each pass for `setup_s`, so its
/// samples spread over the run like the passes.
const SPAWNS_PER_PASS: usize = 4;
/// Pooled samples each run needs so that p99 of hits and p95 of misses
/// each have ten samples beyond them.
const MIN_HITS: usize = 1000;
const MIN_MISSES: usize = 200;

/// A `stashd` child speaking the stdio transport. Unlike
/// `bench::server::DaemonClient`, which waits for each answer before the
/// next request, it sends and reads separately to keep a window in flight.
struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns the daemon and waits for its `hello`; returns it with the
    /// spawn-to-hello time.
    fn spawn(exe: &Path, threads: usize, cache_dir: &Path) -> Result<(Daemon, Duration), String> {
        let start = Instant::now();
        let mut child = Command::new(exe)
            .arg("--threads")
            .arg(threads.to_string())
            .arg("--cache-dir")
            .arg(cache_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let stdin = child.stdin.take().ok_or("stashd stdin")?;
        let stdout = BufReader::new(child.stdout.take().ok_or("stashd stdout")?);
        let mut d = Daemon {
            child,
            stdin,
            stdout,
        };
        let hello = d.read_line()?;
        let took = start.elapsed();
        if json::parse(&hello)
            .ok()
            .and_then(|v| v.get_str("event").map(str::to_owned))
            .as_deref()
            != Some("hello")
        {
            return Err(format!("expected hello, got {hello:?}"));
        }
        Ok((d, took))
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("stashd closed its stdout".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("reading stashd: {e}")),
        }
    }

    fn send(&mut self, id: usize, template: &str) -> Result<(), String> {
        let body = template.strip_prefix('{').unwrap_or(template);
        writeln!(self.stdin, "{{\"id\":{id},{body}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("writing to stashd: {e}"))
    }

    /// Peak resident memory of the daemon, then `shutdown` and reap.
    fn shutdown(mut self) -> Option<f64> {
        let rss = peak_rss_mb(self.child.id());
        let _ = writeln!(self.stdin, "{{\"cmd\":\"shutdown\"}}").and_then(|()| self.stdin.flush());
        let _ = self.child.wait();
        rss
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One answered request as the client saw it.
struct Answer {
    cached: bool,
    payload: Result<String, String>,
    latency: Duration,
}

/// Sends the stream in a closed loop with [`WINDOW`] requests in flight
/// and collects the answers in request order, with the stream's wall.
fn drive(d: &mut Daemon, stream: &Stream) -> Result<(Vec<Option<Answer>>, Duration), String> {
    let n = stream.requests.len();
    let mut answers: Vec<Option<Answer>> = (0..n).map(|_| None).collect();
    let mut sent_at: Vec<Option<Instant>> = vec![None; n];
    let start = Instant::now();
    let mut next = 0;
    let mut done = 0;
    while next < n.min(WINDOW) {
        sent_at[next] = Some(Instant::now());
        d.send(next, &stream.requests[next].line)?;
        next += 1;
    }
    while done < n {
        let line = d.read_line()?;
        let v = json::parse(&line).map_err(|e| format!("bad event {line:?}: {e}"))?;
        let event = v.get_str("event").unwrap_or("");
        if event == "progress" {
            continue;
        }
        let id = v
            .get_u64("id")
            .and_then(|id| usize::try_from(id).ok())
            .filter(|&id| id < n && answers[id].is_none())
            .ok_or_else(|| format!("unexpected event {line:?}"))?;
        let latency = sent_at[id].map_or(Duration::ZERO, |t| t.elapsed());
        let payload = match event {
            "result" => Ok(v.get_str("payload").unwrap_or("").to_string()),
            _ => Err(v.get_str("error").unwrap_or("unknown error").to_string()),
        };
        answers[id] = Some(Answer {
            cached: v.get("cached") == Some(&Value::Bool(true)),
            payload,
            latency,
        });
        done += 1;
        if next < n {
            sent_at[next] = Some(Instant::now());
            d.send(next, &stream.requests[next].line)?;
            next += 1;
        }
    }
    Ok((answers, start.elapsed()))
}

/// The in-process replay: every request's answer and service time.
struct Replay {
    answers: Vec<Result<String, String>>,
    service: Vec<Duration>,
    wall: Duration,
    cache_hits: u64,
    cache_misses: u64,
    corrupt_dropped: u64,
    resident_programs: usize,
    /// Simulated counts of the probed miss simulations (traced only).
    counts: Counts,
}

/// Replays the stream through an in-process `Server` one request at a
/// time, making the calls the daemon makes: parse the line, derive the
/// key, look it up, and on a miss run the batch and store the payload.
/// Traced, probes also time the trace parse, the lowering and the
/// simulation of each miss, and the fingerprint of each resident program,
/// which the server does internally.
fn replay(
    stream: &Stream,
    threads: usize,
    cache_dir: &Path,
    tracer: &Tracer,
) -> Result<Replay, String> {
    let mut server = Server::new(threads, ResultCache::disabled());
    let mut cache =
        ResultCache::on_disk(cache_dir, DEFAULT_CACHE_MAX).map_err(|e| e.to_string())?;
    let mut answers = Vec::with_capacity(stream.requests.len());
    let mut service = Vec::with_capacity(stream.requests.len());
    let mut counts = Counts::default();
    let start = Instant::now();
    tracer.span("serve.replay", 0, None, |root| {
        for (i, r) in stream.requests.iter().enumerate() {
            let id = i as u64;
            let t = Instant::now();
            let answer = tracer.span("request", id, root, |p| {
                let req = tracer.span("server.parse", id, p, |_| {
                    let body = r.line.strip_prefix('{').unwrap_or(&r.line);
                    let v = json::parse(&format!("{{\"id\":{id},{body}"))?;
                    parse_request(&v)
                })?;
                let key = tracer.span("server.key", id, p, |_| server.request_key(&req))?;
                if let Some(hit) = tracer.span("server.lookup", id, p, |_| cache.lookup(&key)) {
                    return Ok(hit);
                }
                if tracer.on() {
                    probe_miss(&req, id, tracer, p, &mut counts);
                }
                let mut events = Vec::new();
                tracer.span("server.batch", id, p, |_| {
                    server.handle_batch(&[(id, req)], &mut |e: &str| events.push(e.to_string()));
                });
                let payload = result_payload(&events)?;
                tracer.span("server.store", id, p, |_| cache.store(&key, &payload));
                Ok(payload)
            });
            service.push(t.elapsed());
            answers.push(answer);
        }
        if tracer.on() {
            for w in suite::micros() {
                for kind in MemConfigKind::FIGURE5 {
                    let program = (w.build)(kind);
                    tracer.probe("gpu.fingerprint", 0, root, || program_fingerprint(&program));
                }
            }
        }
    });
    Ok(Replay {
        answers,
        service,
        wall: start.elapsed(),
        cache_hits: cache.stats.hits,
        cache_misses: cache.stats.misses,
        corrupt_dropped: cache.stats.corrupt_dropped,
        resident_programs: server.resident_programs(),
        counts,
    })
}

/// The payload of the one `result` event of a single-request batch.
fn result_payload(events: &[String]) -> Result<String, String> {
    for e in events {
        let v = json::parse(e)?;
        match v.get_str("event") {
            Some("result") => return Ok(v.get_str("payload").unwrap_or("").to_string()),
            Some("error") => return Err(v.get_str("error").unwrap_or("unknown error").to_string()),
            _ => {}
        }
    }
    Err("no result event".to_string())
}

/// Probes of a `run-trace` miss: parse the trace, lower it and simulate
/// it on each configuration, as the server's plan does inside the batch.
fn probe_miss(
    req: &Request,
    id: u64,
    tracer: &Tracer,
    parent: Option<crate::spans::SpanId>,
    counts: &mut Counts,
) {
    let Request::RunTrace { trace, kinds } = req else {
        return;
    };
    let Ok(tw) = tracer.probe("workloads.parse_trace", id, parent, || {
        workloads::trace::parse_trace(trace)
    }) else {
        return;
    };
    for &kind in kinds {
        let program = tracer.probe("workloads.build", id, parent, || tw.build(kind));
        let mut machine = Machine::new(tw.set().system_config(), kind);
        if let Ok(report) = tracer.probe("gpu.run", id, parent, || machine.run(&program)) {
            counts.add(&report);
        }
    }
}

/// Checks one pass's answers: each is a result; a miss equals the
/// in-process answer to the same request; a hit equals the daemon's first
/// answer to the same request. Returns hit and miss latencies in ms.
fn check_pass(
    stream: &Stream,
    answers: Vec<Option<Answer>>,
    reference: &HashMap<&str, &str>,
    out: &mut Outcome,
) -> (Vec<f64>, Vec<f64>) {
    let mut first: HashMap<&str, String> = HashMap::new();
    let mut hits = Vec::new();
    let mut misses = Vec::new();
    for (i, (r, a)) in stream.requests.iter().zip(answers).enumerate() {
        let Some(a) = a else {
            out.check(Err(format!("request {i}: no answer")));
            continue;
        };
        let ms = secs(a.latency) * 1e3;
        let verdict = match a.payload {
            Err(e) => Err(format!("request {i}: error event: {e}")),
            Ok(payload) => {
                let expected = if a.cached {
                    hits.push(ms);
                    first.get(r.line.as_str()).map(String::as_str)
                } else {
                    misses.push(ms);
                    reference.get(r.line.as_str()).copied()
                };
                let verdict = match expected {
                    Some(e) if e == payload => Ok(()),
                    Some(_) if a.cached => Err(format!(
                        "request {i}: cached answer differs from the first answer"
                    )),
                    Some(_) => Err(format!(
                        "request {i}: answer differs from the in-process server"
                    )),
                    None => Err(format!(
                        "request {i}: hit before any answer to the same request"
                    )),
                };
                first.entry(r.line.as_str()).or_insert(payload);
                verdict
            }
        };
        out.check(verdict);
    }
    (hits, misses)
}

/// The in-process answers, one per distinct request line.
fn reference<'a>(
    stream: &'a Stream,
    replayed: &'a Replay,
) -> Result<HashMap<&'a str, &'a str>, String> {
    let mut map = HashMap::new();
    for (r, a) in stream.requests.iter().zip(&replayed.answers) {
        let a = a
            .as_ref()
            .map_err(|e| format!("in-process server failed: {e}"))?;
        map.insert(r.line.as_str(), a.as_str());
    }
    Ok(map)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let exe = sibling_binary("stashd").map_err(|e| e.to_string())?;
    let scratch = ScratchDir::new("serve").map_err(|e| e.to_string())?;
    let fresh = |name: &str| scratch.fresh(name).map_err(|e| e.to_string());
    let mut out = Outcome::default();
    let stream = Stream::generate(ctx.seed)?;
    let traces: Vec<_> = stream.requests.iter().filter_map(|r| r.trace).collect();
    let ratios = sorted(traces.iter().map(|f| f.stash_ratio).collect());
    out.facts.push(format!(
        "seed {} stream {} requests, hot share {:.4}, {} generated traces: stash ratio {:.2}..{:.2}, \
         kernels 1..4 ({} with cross-kernel reuse)",
        ctx.seed,
        stream.requests.len(),
        stream.hot_share(),
        traces.len(),
        ratios.first().copied().unwrap_or(0.0),
        ratios.last().copied().unwrap_or(0.0),
        traces.iter().filter(|f| f.reuse).count(),
    ));
    out.facts.push(format!(
        "closed loop, window {WINDOW}, one connection; stashd --threads {} on host_cpus {}",
        ctx.threads, ctx.cpus
    ));
    write_stream(ctx, &stream);

    let reference_replay = replay(&stream, ctx.threads, &fresh("replay")?, &Tracer::new(false))?;
    let reference = reference(&stream, &reference_replay)?;
    if ctx.traced {
        return traced(
            ctx,
            &exe,
            &stream,
            &reference,
            &reference_replay,
            &fresh,
            out,
        );
    }

    let mut setups = Vec::new();
    let start = Instant::now();
    let (mut walls, mut rss, mut hits, mut misses) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while walls.len() < 2
        || hits.len() < MIN_HITS
        || misses.len() < MIN_MISSES
        || start.elapsed().as_secs_f64() < ctx.seconds
    {
        for _ in 0..SPAWNS_PER_PASS {
            let (d, took) = Daemon::spawn(&exe, ctx.threads, &fresh("spawn")?)?;
            setups.push(secs(took));
            d.shutdown();
        }
        let order = stream.reordered(walls.len() as u64);
        let (mut d, took) = Daemon::spawn(&exe, ctx.threads, &fresh("cache")?)?;
        setups.push(secs(took));
        let (answers, wall) = drive(&mut d, &order)?;
        rss.push(d.shutdown().unwrap_or(0.0));
        walls.push(secs(wall));
        let (h, m) = check_pass(&order, answers, &reference, &mut out);
        hits.extend(h);
        misses.extend(m);
    }
    let wall = median(&walls).unwrap_or(0.0);
    let all: Vec<f64> = hits.iter().chain(&misses).copied().collect();
    let (hits, misses) = (sorted(hits), sorted(misses));
    let t = ctx.threads;
    out.metrics.push(
        Metric::new(
            "setup_s",
            "s",
            median(&setups).unwrap_or(0.0),
            setups.len(),
            1,
        )
        .labelled("spawn until hello"),
    );
    out.metrics.push(
        Metric::new("wall_s", "s", wall, walls.len(), t)
            .labelled(format!("one {}-request stream", stream.requests.len())),
    );
    out.metrics.push(Metric::new(
        "request_p50_ms",
        "ms",
        median(&all).unwrap_or(0.0),
        all.len(),
        t,
    ));
    out.metrics.push(
        Metric::new(
            "peak_rss_mb",
            "MiB",
            median(&rss).unwrap_or(0.0),
            rss.len(),
            t,
        )
        .labelled("stashd"),
    );
    out.metrics.push(Metric::new(
        "hit_p50_ms",
        "ms",
        median(&hits).unwrap_or(0.0),
        hits.len(),
        t,
    ));
    out.metrics.push(tail_metric("hit", &hits, 99.0, t));
    out.metrics.push(Metric::new(
        "miss_p50_ms",
        "ms",
        median(&misses).unwrap_or(0.0),
        misses.len(),
        t,
    ));
    out.metrics.push(tail_metric("miss", &misses, 95.0, t));
    out.metrics.push(Metric::new(
        "req_per_s",
        "1/s",
        (stream.requests.len() * walls.len()) as f64 / walls.iter().sum::<f64>().max(1e-9),
        walls.len(),
        t,
    ));
    out.metrics.push(Metric::new(
        "hit_share",
        "ratio",
        hits.len() as f64 / (hits.len() + misses.len()).max(1) as f64,
        hits.len() + misses.len(),
        t,
    ));
    Ok(out)
}

fn traced(
    ctx: &Ctx,
    exe: &Path,
    stream: &Stream,
    reference: &HashMap<&str, &str>,
    untraced: &Replay,
    fresh: &dyn Fn(&str) -> Result<std::path::PathBuf, String>,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let (mut d, _) = Daemon::spawn(exe, ctx.threads, &fresh("cache")?)?;
    let (answers, _) = drive(&mut d, stream)?;
    d.shutdown();
    let client: Vec<Option<Duration>> = answers
        .iter()
        .map(|a| a.as_ref().map(|a| a.latency))
        .collect();
    check_pass(stream, answers, reference, &mut out);

    let tracer = Tracer::new(true);
    let r = replay(stream, ctx.threads, &fresh("traced")?, &tracer)?;
    let counts = &r.counts;
    for (i, (a, want)) in r.answers.iter().zip(&untraced.answers).enumerate() {
        out.check(if a == want {
            Ok(())
        } else {
            Err(format!("request {i}: traced replay answer differs"))
        });
    }
    let spans = tracer.into_spans();
    crate::write_spans("serve", ctx, &spans);
    let layers = by_layer(&spans);
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let n = stream.requests.len();
    let ms = |name: &str, span: &str| {
        Metric::new(
            name,
            "ms",
            layer(span).self_ms,
            layer(span).calls as usize,
            1,
        )
    };
    let waits = sorted(
        client
            .iter()
            .zip(&r.service)
            .filter_map(|(c, s)| c.map(|c| (secs(c) - secs(*s)) * 1e3))
            .collect(),
    );
    let fp = layer("gpu.fingerprint");
    out.metrics.push(
        ms("workloads.build_ms", "workloads.build")
            .labelled("probe: lowering of each miss's trace"),
    );
    out.metrics
        .push(ms("workloads.parse_trace_ms", "workloads.parse_trace").labelled("probe"));
    out.metrics.push(
        ms("gpu.fingerprint_ms", "gpu.fingerprint").labelled("probe: each resident program once"),
    );
    out.metrics.push(
        Metric::new(
            "gpu.fingerprint_calls",
            "count",
            r.resident_programs as f64,
            1,
            1,
        )
        .labelled(format!(
            "resident programs, one fingerprint each ({} probed)",
            fp.calls
        )),
    );
    let run = layer("gpu.run");
    out.metrics
        .push(ms("gpu.run_ms", "gpu.run").labelled("probe: Machine::run of each miss's trace"));
    out.metrics.push(Metric::new(
        "gpu.host_ns_per_event",
        "ns",
        run.total_ms * 1e6 / counts.events.max(1) as f64,
        run.calls as usize,
        1,
    ));
    out.metrics.extend(counts.metrics(run.calls as usize));
    out.metrics
        .push(ms("server.parse_ms", "server.parse").labelled("json::parse + parse_request"));
    out.metrics
        .push(ms("server.key_ms", "server.key").labelled("Server::request_key"));
    out.metrics
        .push(ms("server.lookup_ms", "server.lookup").labelled("ResultCache::lookup"));
    out.metrics
        .push(ms("server.store_ms", "server.store").labelled("ResultCache::store"));
    out.metrics
        .push(ms("server.batch_ms", "server.batch").labelled("Server::handle_batch of each miss"));
    out.metrics.push(Metric::new(
        "server.hit_ratio",
        "ratio",
        r.cache_hits as f64 / (r.cache_hits + r.cache_misses).max(1) as f64,
        n,
        1,
    ));
    out.metrics.push(Metric::new(
        "server.corrupt_dropped",
        "count",
        r.corrupt_dropped as f64,
        n,
        1,
    ));
    out.metrics.push(Metric::new(
        "server.errors",
        "count",
        r.answers.iter().filter(|a| a.is_err()).count() as f64,
        n,
        1,
    ));
    out.metrics.push(
        Metric::new(
            "stashd.wait_ms_p50",
            "ms",
            median(&waits).unwrap_or(0.0),
            waits.len(),
            ctx.threads,
        )
        .labelled("daemon client latency − in-process service time, per request"),
    );
    crate::trace_footer(
        &mut out,
        &layers,
        "serve.replay",
        r.wall,
        untraced.wall,
        ctx,
    );
    Ok(out)
}

/// Records the stream's seed, hit share and per-trace facts.
fn write_stream(ctx: &Ctx, stream: &Stream) {
    let dir = Path::new(".bench_out");
    let path = dir.join(format!("serve-stream-seed{}.txt", ctx.seed));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, stream.describe()))
    {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
