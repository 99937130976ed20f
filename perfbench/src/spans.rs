//! Spans recorded by the traced run around calls into each layer.
//!
//! A span is one call: its layer name, start and end, the span that
//! caused it, and the cell or request id it served. Spans stay in memory
//! until the run ends. A layer's self time is its spans' durations minus
//! the part of each interval that child spans cover (the union, so
//! children running in parallel on pool workers are not counted twice).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, used as the parent of the spans it causes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `gpu.run` or `snapshot.encode`.
    pub name: &'static str,
    /// The cell, simulation, barrier or request this call served.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// A probe repeats, on the same input, work that a composite call
    /// beside it does internally where no span can reach (for example
    /// `program_fingerprint` inside `Machine::checkpoint`). Its time is
    /// reported for its layer and adds to the tracing overhead.
    pub probe: bool,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans from any thread; does nothing when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; `f` gets the new span's id to
    /// pass as the parent of spans it causes.
    pub fn span<T>(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        self.record(name, id, parent, false, f)
    }

    /// [`Tracer::span`] for a probe call (see [`Span::probe`]).
    pub fn probe<T>(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        // The result is otherwise unused: keep the call from being
        // optimized away.
        self.record(name, id, parent, true, |_| std::hint::black_box(f()))
    }

    fn record<T>(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        probe: bool,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.on {
            return f(None);
        }
        let start_ns = self.now_ns();
        let index = {
            let mut spans = self.spans.lock().expect("span list lock");
            spans.push(Span {
                name,
                id,
                parent,
                start_ns,
                end_ns: start_ns,
                probe,
            });
            spans.len() - 1
        };
        let out = f(Some(SpanId(index)));
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list lock")[index].end_ns = end_ns;
        out
    }

    /// The recorded spans, in start order per thread.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span list lock")
    }
}

/// Per-span self time in nanoseconds: its duration minus the union of
/// its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(SpanId(p)) = s.parent {
            if let Some(list) = children.get_mut(p) {
                list.push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.ns().saturating_sub(covered)
        })
        .collect()
}

/// One layer's share of a traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed span durations, milliseconds.
    pub total_ms: f64,
    /// Summed self time, milliseconds.
    pub self_ms: f64,
}

/// Aggregates spans by name.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ms += s.ns() as f64 / 1e6;
        e.self_ms += self_ns as f64 / 1e6;
    }
    out
}

/// Writes the spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |SpanId(p)| p.to_string());
        writeln!(
            out,
            "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\
             \"start_ns\":{},\"end_ns\":{},\"probe\":{}}}",
            s.name, s.id, s.start_ns, s.end_ns, s.probe
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent: parent.map(SpanId),
            start_ns,
            end_ns,
            probe: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0, 100),
            // Two overlapping children (parallel workers) cover 10..60.
            span("gpu.run", Some(0), 10, 50),
            span("gpu.run", Some(0), 20, 60),
            // A disjoint child covers 70..80; its own child 72..75.
            span("snapshot.encode", Some(0), 70, 80),
            span("snapshot.crc", Some(3), 72, 75),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 40, 7, 3]);
        let layers = by_layer(&spans);
        // The root's self time is the unattributed remainder.
        assert_eq!(layers["root"].self_ms, 40.0 / 1e6);
        assert_eq!(layers["gpu.run"].calls, 2);
        assert_eq!(layers["gpu.run"].total_ms, 80.0 / 1e6);
        assert_eq!(layers["snapshot.encode"].self_ms, 7.0 / 1e6);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("root", None, 10, 20), span("late", Some(0), 15, 40)];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn recording_nests_and_off_records_nothing() {
        let tracer = Tracer::new(true);
        let v = tracer.span("root", 1, None, |root| {
            tracer.span("child", 1, root, |_| 7) + tracer.probe("probe", 1, root, || 1)
        });
        assert_eq!(v, 8);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(SpanId(0)));
        assert!(spans[2].probe);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(to_json_lines(&spans).contains("\"name\":\"child\""));

        let off = Tracer::new(false);
        assert!(off.span("root", 1, None, |p| p.is_none()));
        assert!(off.into_spans().is_empty());
    }
}
