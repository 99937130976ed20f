//! Trace capture and export: Chrome/Perfetto JSON, stall-attribution
//! summaries, and per-event latency histograms.
//!
//! [`run_traced`] runs one matrix cell with a [`sim::trace::TraceSink`]
//! installed and
//! returns the retained events plus the per-CU [`StallBreakdown`];
//! [`perfetto_json`] renders the events as a `trace.json` the Chrome
//! tracing UI / Perfetto accept (one track per CU, warp slot, LLC bank,
//! and NoC link); [`validate_perfetto`] is the format checker CI runs
//! against emitted traces (parses with [`crate::json`], and timestamps
//! are monotone per track). All of it is deterministic: the same
//! `(workload, config)` cell exports byte-identical JSON on any thread
//! count.

use gpu::config::MemConfigKind;
use gpu::machine::Machine;
use gpu::program::Program;
use gpu::report::RunReport;
use sim::config::SystemConfig;
use sim::trace::{StallBreakdown, StallReason, TraceEvent, DEFAULT_CAPACITY};
use sim::SimError;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use workloads::suite::Workload;

use crate::json::Value;

/// One traced matrix cell: the ordinary report plus the trace artifacts.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Workload name (suite name or trace-file path).
    pub name: String,
    /// Configuration the cell ran on.
    pub kind: MemConfigKind,
    /// The ordinary run report (identical to an untraced run's).
    pub report: RunReport,
    /// Architectural state digest at end of run.
    pub digest: u64,
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow.
    pub dropped: u64,
    /// Per-CU stall attribution; each CU's total equals `gpu_cycles`.
    pub breakdowns: Vec<StallBreakdown>,
    /// GPU CU count (track naming).
    pub gpu_cus: usize,
    /// Mesh node count (NoC link track ids).
    pub nodes: usize,
}

/// Runs `program` on a fresh machine with tracing enabled.
///
/// # Errors
///
/// Propagates the simulation's error, exactly as an untraced run would.
pub fn run_traced(
    name: &str,
    sys: SystemConfig,
    program: &Program,
    kind: MemConfigKind,
    capacity: usize,
) -> Result<TracedRun, SimError> {
    let gpu_cus = sys.gpu_cus;
    let nodes = sys.mesh_nodes();
    let mut machine = Machine::new(sys, kind);
    machine.memory_mut().enable_trace(capacity);
    let report = machine.run(program)?;
    let digest = machine.memory().state_digest();
    let sink = machine
        .memory_mut()
        .take_trace()
        .expect("trace was enabled");
    Ok(TracedRun {
        name: name.to_string(),
        kind,
        report,
        digest,
        events: sink.events(),
        dropped: sink.dropped(),
        breakdowns: sink.breakdowns().to_vec(),
        gpu_cus,
        nodes,
    })
}

/// [`run_traced`] for a suite workload with the default ring capacity.
///
/// # Errors
///
/// Propagates the simulation's error.
pub fn run_traced_workload(
    workload: &Workload,
    kind: MemConfigKind,
) -> Result<TracedRun, SimError> {
    let program = (workload.build)(kind);
    run_traced(
        workload.name,
        workload.set.system_config(),
        &program,
        kind,
        DEFAULT_CAPACITY,
    )
}

/// Checks the exact-decomposition invariant: every CU's stall breakdown
/// sums to the report's `gpu_cycles`.
///
/// # Errors
///
/// Describes the first CU whose breakdown total diverges.
pub fn decomposition_exact(run: &TracedRun) -> Result<(), String> {
    for (cu, b) in run.breakdowns.iter().enumerate() {
        if b.total() != run.report.gpu_cycles {
            return Err(format!(
                "cu{cu}: stall breakdown sums to {} but gpu_cycles is {} ({} / {})",
                b.total(),
                run.report.gpu_cycles,
                run.name,
                run.kind.name(),
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Perfetto export
// ---------------------------------------------------------------------

const GPU_PID: u64 = 1;
const LLC_PID: u64 = 2;
const NOC_PID: u64 = 3;
const RUN_PID: u64 = 4;
/// Warp-slot tracks sit after their CU track in a fixed-size id window.
const TRACK_STRIDE: u64 = 4096;

struct XEvent {
    pid: u64,
    tid: u64,
    ts: u64,
    dur: u64,
    name: String,
    args: Vec<(&'static str, u64)>,
}

fn cu_tid(cu: u32) -> u64 {
    u64::from(cu) * TRACK_STRIDE + 1
}

fn warp_tid(cu: u32, warp: u32) -> u64 {
    u64::from(cu) * TRACK_STRIDE + 2 + u64::from(warp).min(TRACK_STRIDE - 3)
}

/// Converts the run's events into Chrome/Perfetto JSON (the
/// `{"traceEvents": [...]}` flavour): `"M"` metadata rows name one track
/// per CU, warp slot, LLC bank, and NoC link, and every payload event is
/// a `"X"` complete event. Events are sorted per track, so timestamps
/// are monotone per `(pid, tid)` by construction.
pub fn perfetto_json(run: &TracedRun) -> String {
    let mut xs: Vec<XEvent> = Vec::with_capacity(run.events.len());
    let mut i = 0usize;
    while i < run.events.len() {
        let e = run.events[i];
        match e {
            TraceEvent::WarpIssue {
                cu,
                tb,
                warp,
                at,
                issue,
                latency,
            } => xs.push(XEvent {
                pid: GPU_PID,
                tid: warp_tid(cu, warp),
                ts: at,
                dur: issue.max(1),
                name: "issue".to_string(),
                args: vec![("tb", u64::from(tb)), ("latency", latency)],
            }),
            TraceEvent::StallBegin {
                cu,
                tb,
                warp,
                at,
                reason,
            } => {
                // The matching end is pushed immediately after the begin,
                // so it is adjacent whenever both survived the ring.
                if let Some(TraceEvent::StallEnd { at: end, .. }) = run.events.get(i + 1) {
                    xs.push(XEvent {
                        pid: GPU_PID,
                        tid: warp_tid(cu, warp),
                        ts: at,
                        dur: end.saturating_sub(at).max(1),
                        name: format!("stall:{reason}"),
                        args: vec![("tb", u64::from(tb))],
                    });
                    i += 1;
                }
            }
            // An end whose begin was dropped by the ring: no interval.
            TraceEvent::StallEnd { .. } => {}
            TraceEvent::L1Access {
                core,
                at,
                store,
                hit,
            } => xs.push(XEvent {
                pid: GPU_PID,
                tid: cu_tid(core),
                ts: at,
                dur: 1,
                name: format!(
                    "l1_{}_{}",
                    if store { "store" } else { "load" },
                    if hit { "hit" } else { "miss" }
                ),
                args: Vec::new(),
            }),
            TraceEvent::StashChunkMiss { cu, at, words } => xs.push(XEvent {
                pid: GPU_PID,
                tid: cu_tid(cu),
                ts: at,
                dur: 1,
                name: "stash_chunk_miss".to_string(),
                args: vec![("words", u64::from(words))],
            }),
            TraceEvent::LlcBank { bank, at } => xs.push(XEvent {
                pid: LLC_PID,
                tid: u64::from(bank) + 1,
                ts: at,
                dur: 1,
                name: "llc_access".to_string(),
                args: Vec::new(),
            }),
            TraceEvent::NocHop {
                from,
                to,
                at,
                flits,
                class,
            } => xs.push(XEvent {
                pid: NOC_PID,
                tid: u64::from(from) * run.nodes as u64 + u64::from(to) + 1,
                ts: at,
                dur: 1,
                name: "hop".to_string(),
                args: vec![("flits", flits), ("class", u64::from(class))],
            }),
            TraceEvent::DmaBurst {
                cu,
                at,
                words,
                store,
                cycles,
            } => xs.push(XEvent {
                pid: GPU_PID,
                tid: cu_tid(cu),
                ts: at,
                dur: cycles.max(1),
                name: if store { "dma_store" } else { "dma_load" }.to_string(),
                args: vec![("words", u64::from(words))],
            }),
            TraceEvent::RetryFired { at, attempt } => xs.push(XEvent {
                pid: RUN_PID,
                tid: 1,
                ts: at,
                dur: 1,
                name: "retry".to_string(),
                args: vec![("attempt", u64::from(attempt))],
            }),
            TraceEvent::EnergyEpoch { at, kernel } => xs.push(XEvent {
                pid: RUN_PID,
                tid: 2,
                ts: at,
                dur: 1,
                name: "energy_epoch".to_string(),
                args: vec![("kernel", u64::from(kernel))],
            }),
        }
        i += 1;
    }

    // Per-track chronological order. Events from different CUs carry
    // overlapping kernel-local timelines on shared LLC/NoC tracks; the
    // stable sort restores monotonicity per track and keeps emission
    // order within equal timestamps (deterministic output).
    xs.sort_by_key(|x| (x.pid, x.tid, x.ts));

    // Track names for every (pid, tid) that appears.
    let mut tracks: BTreeMap<(u64, u64), String> = BTreeMap::new();
    for x in &xs {
        tracks.entry((x.pid, x.tid)).or_insert_with(|| match x.pid {
            GPU_PID => {
                let unit = (x.tid - 1) / TRACK_STRIDE;
                let slot = (x.tid - 1) % TRACK_STRIDE;
                let core = if (unit as usize) < run.gpu_cus {
                    format!("cu{unit}")
                } else {
                    format!("cpu{}", unit as usize - run.gpu_cus)
                };
                if slot == 0 {
                    core
                } else {
                    format!("{core} w{}", slot - 1)
                }
            }
            LLC_PID => format!("bank{}", x.tid - 1),
            NOC_PID => {
                let link = x.tid - 1;
                format!("n{}->n{}", link / run.nodes as u64, link % run.nodes as u64)
            }
            _ => if x.tid == 1 { "retries" } else { "energy" }.to_string(),
        });
    }

    let mut out = String::with_capacity(64 + xs.len() * 96);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push_row = |out: &mut String, row: &str| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(row);
    };
    for &(pid, name) in &[
        (GPU_PID, "gpu"),
        (LLC_PID, "llc"),
        (NOC_PID, "noc"),
        (RUN_PID, "run"),
    ] {
        push_row(
            &mut out,
            &format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ),
        );
    }
    for (&(pid, tid), name) in &tracks {
        push_row(
            &mut out,
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ),
        );
    }
    for x in &xs {
        let mut row = format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}",
            x.name, x.ts, x.dur, x.pid, x.tid
        );
        if !x.args.is_empty() {
            row.push_str(",\"args\":{");
            for (j, (k, v)) in x.args.iter().enumerate() {
                if j > 0 {
                    row.push(',');
                }
                let _ = write!(row, "\"{k}\":{v}");
            }
            row.push('}');
        }
        row.push('}');
        push_row(&mut out, &row);
    }
    out.push_str("\n]}\n");
    out
}

// ---------------------------------------------------------------------
// Perfetto validation (CI's format gate)
// ---------------------------------------------------------------------

/// What [`validate_perfetto`] measured while checking a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfettoStats {
    /// `"X"` payload events.
    pub events: usize,
    /// Distinct `(pid, tid)` tracks carrying payload events.
    pub tracks: usize,
}

/// Validates a Chrome/Perfetto `trace.json`: it must parse, carry a
/// `traceEvents` array whose `"X"` events have numeric `ts`/`dur` and
/// integer `pid`/`tid`, and timestamps must be non-decreasing per
/// `(pid, tid)` track.
///
/// # Errors
///
/// Describes the first structural or monotonicity violation found.
pub fn validate_perfetto(json: &str) -> Result<PerfettoStats, String> {
    let root = crate::json::parse(json)?;
    let Some(Value::Arr(events)) = root.get("traceEvents") else {
        return Err("missing traceEvents array".to_string());
    };
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut count = 0usize;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get_str("ph")
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph != "X" {
            continue;
        }
        let number = |k: &str| {
            e.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("event {i}: missing numeric {k}"))
        };
        let integer = |k: &str| {
            e.get_u64(k)
                .ok_or_else(|| format!("event {i}: missing integer {k}"))
        };
        let (ts, _dur) = (number("ts")?, number("dur")?);
        let (pid, tid) = (integer("pid")?, integer("tid")?);
        if e.get_str("name").is_none() {
            return Err(format!("event {i}: missing name"));
        }
        let last = last_ts.entry((pid, tid)).or_insert(f64::NEG_INFINITY);
        if ts < *last {
            return Err(format!(
                "event {i}: ts {ts} goes backwards on track ({pid},{tid})"
            ));
        }
        *last = ts;
        count += 1;
    }
    Ok(PerfettoStats {
        events: count,
        tracks: last_ts.len(),
    })
}

// ---------------------------------------------------------------------
// Text reports
// ---------------------------------------------------------------------

/// Renders the stall-attribution summary: aggregate cycles per reason
/// across CUs, with the exactness line the integration tests pin.
pub fn stall_report(run: &TracedRun) -> String {
    let mut out = String::new();
    let cus = run.breakdowns.len();
    let _ = writeln!(
        out,
        "stall attribution — {} / {} (gpu_cycles {}, {} CU{})",
        run.name,
        run.kind.name(),
        run.report.gpu_cycles,
        cus,
        if cus == 1 { "" } else { "s" },
    );
    let total: u64 = run.breakdowns.iter().map(StallBreakdown::total).sum();
    let _ = writeln!(out, "{:<18}{:>14}{:>9}", "reason", "cycles", "%");
    for reason in StallReason::ALL {
        let cycles: u64 = run.breakdowns.iter().map(|b| b.get(reason)).sum();
        if cycles == 0 {
            continue;
        }
        let pct = 100.0 * cycles as f64 / (total.max(1)) as f64;
        let _ = writeln!(out, "{:<18}{cycles:>14}{pct:>8.1}%", reason.name());
    }
    let _ = writeln!(out, "{:<18}{total:>14}{:>8.1}%", "total", 100.0);
    match decomposition_exact(run) {
        Ok(()) => {
            let _ = writeln!(
                out,
                "decomposition exact: every CU sums to gpu_cycles ({})",
                run.report.gpu_cycles
            );
        }
        Err(e) => {
            let _ = writeln!(out, "DECOMPOSITION BROKEN: {e}");
        }
    }
    if run.dropped > 0 {
        let _ = writeln!(
            out,
            "note: {} event(s) dropped by the ring (breakdown is exact regardless)",
            run.dropped
        );
    }
    out
}

/// Renders the per-event-type latency histogram (p50 / p95 / max over
/// each event's duration: completion latency for warp issues, burst
/// cycles for DMA, unit occupancy for the rest).
pub fn latency_report(run: &TracedRun) -> String {
    let mut by_kind: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for e in &run.events {
        let dur = match *e {
            TraceEvent::WarpIssue { latency, .. } => latency,
            TraceEvent::DmaBurst { cycles, .. } => cycles,
            _ => 1,
        };
        by_kind.entry(e.kind_name()).or_default().push(dur);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "event latency histogram — {} / {}",
        run.name,
        run.kind.name()
    );
    let _ = writeln!(
        out,
        "{:<18}{:>10}{:>10}{:>10}{:>10}",
        "event", "count", "p50", "p95", "max"
    );
    for (kind, mut durs) in by_kind {
        durs.sort_unstable();
        let p50 = percentile_u64(&durs, 50).expect("non-empty");
        let p95 = percentile_u64(&durs, 95).expect("non-empty");
        let max = *durs.last().expect("non-empty");
        let _ = writeln!(
            out,
            "{kind:<18}{:>10}{p50:>10}{p95:>10}{max:>10}",
            durs.len()
        );
    }
    out
}

/// The `pct`-th percentile of an ascending-sorted slice by nearest rank,
/// rounding down: index `(len - 1) * pct / 100`, with `pct` capped at
/// 100, so a tiny sample selects a real sample. `None` when empty.
fn percentile_u64(sorted: &[u64], pct: u64) -> Option<u64> {
    let last = sorted.len().checked_sub(1)? as u64;
    sorted.get((last * pct.min(100) / 100) as usize).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::suite;

    fn histogram_cell() -> TracedRun {
        let w = suite::micros().remove(0);
        run_traced_workload(&w, MemConfigKind::Stash).unwrap()
    }

    #[test]
    fn traced_run_produces_events_and_exact_breakdown() {
        let run = histogram_cell();
        assert!(!run.events.is_empty());
        decomposition_exact(&run).unwrap();
        assert!(run.breakdowns[0].get(StallReason::Issue) > 0);
    }

    #[test]
    fn exported_trace_validates() {
        let run = histogram_cell();
        let json = perfetto_json(&run);
        let stats = validate_perfetto(&json).unwrap();
        assert!(stats.events > 0);
        assert!(stats.tracks >= 2);
    }

    #[test]
    fn validator_rejects_garbage_and_regressions() {
        assert!(validate_perfetto("not json").is_err());
        assert!(validate_perfetto("{}").is_err());
        assert!(validate_perfetto("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        // Backwards timestamps on one track are the regression CI guards.
        let bad = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"X\",\"ts\":5,\"dur\":1,\"pid\":1,\"tid\":1},\
            {\"name\":\"b\",\"ph\":\"X\",\"ts\":4,\"dur\":1,\"pid\":1,\"tid\":1}]}";
        assert!(validate_perfetto(bad).unwrap_err().contains("backwards"));
        // The same timestamps on different tracks are fine.
        let ok = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"X\",\"ts\":5,\"dur\":1,\"pid\":1,\"tid\":1},\
            {\"name\":\"b\",\"ph\":\"X\",\"ts\":4,\"dur\":1,\"pid\":1,\"tid\":2}]}";
        assert_eq!(
            validate_perfetto(ok).unwrap(),
            PerfettoStats {
                events: 2,
                tracks: 2
            }
        );
    }

    #[test]
    fn empty_sample_has_no_percentile() {
        assert!(percentile_u64(&[], 95).is_none());
    }

    #[test]
    fn tiny_samples_select_a_real_sample() {
        // Nearest rank, rounding down: two samples → p95 picks index 0.
        assert_eq!(percentile_u64(&[7], 95), Some(7));
        assert_eq!(percentile_u64(&[1, 2], 95), Some(1));
        assert_eq!(percentile_u64(&[1, 2], 100), Some(2));
        let sample: Vec<u64> = (0..21).collect();
        assert_eq!(percentile_u64(&sample, 95), Some(19));
        // Out-of-range percentiles clamp instead of overflowing the index.
        assert_eq!(percentile_u64(&[1, 2, 3, 4], 400), Some(4));
    }

    #[test]
    fn percentiles_pick_real_samples() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_u64(&sorted, 50), Some(50));
        assert_eq!(percentile_u64(&sorted, 95), Some(95));
        assert_eq!(percentile_u64(&sorted, 0), Some(1));
        assert_eq!(percentile_u64(&sorted, 100), Some(100));
    }

    #[test]
    fn reports_render_and_mention_the_cell() {
        let run = histogram_cell();
        let stalls = stall_report(&run);
        assert!(stalls.contains("decomposition exact"));
        assert!(stalls.contains("issue"));
        let lats = latency_report(&run);
        assert!(lats.contains("warp_issue"));
        assert!(lats.contains("p95"));
    }
}
