//! Benchmark-side spans: recorded in memory around the calls into each
//! layer, written out as JSONL after the run. Tracing inside the
//! program is a later change; these spans see the layers from outside.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// "No parent" / "no request" marker.
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NONE`].
    pub parent: u32,
    /// Spans of one request share this id, or [`NONE`] for a probe call.
    pub request_id: u32,
}

/// The span store of one traced round. `None` in untraced rounds, so
/// the untraced hot path takes no timestamps for it.
#[derive(Clone)]
pub struct Trace {
    pub origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    /// A store whose span times count from `origin`, so the traces of
    /// one run share a time axis.
    pub fn starting_at(origin: Instant) -> Self {
        Self { origin, spans: Vec::new() }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index (a later child's
    /// `parent`).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        request_id: u32,
    ) -> u32 {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per round");
        self.spans.push(Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent, request_id });
        index
    }

    /// Times one probe call as a root span.
    pub fn probe<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        self.record(name, start, Instant::now(), NONE, NONE);
        out
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover (overlapping children counted
/// once, children clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children.entry(s.parent).or_default().push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut covered = 0u64;
            if let Some(mut intervals) = children.remove(&(i as u32)) {
                intervals.sort_unstable();
                let mut reach = s.start_ns;
                for (lo, hi) in intervals {
                    if hi > reach {
                        covered += hi - lo.max(reach);
                        reach = hi;
                    }
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// `(count, mean duration µs, mean self time µs)` per span name.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let selfs = self_times_ns(spans);
    let mut sums: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = sums.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += self_ns;
    }
    sums.into_iter()
        .map(|(name, (n, dur, own))| (name, (n, dur as f64 / n as f64 / 1e3, own as f64 / n as f64 / 1e3)))
        .collect()
}

/// Writes the spans as JSON lines, one object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut line = String::new();
    for (i, s) in spans.iter().enumerate() {
        line.clear();
        let _ = write!(
            line,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
            s.name, s.start_ns, s.end_ns
        );
        if s.parent != NONE {
            let _ = write!(line, ",\"parent\":{}", s.parent);
        }
        if s.request_id != NONE {
            let _ = write!(line, ",\"request_id\":{}", s.request_id);
        }
        line.push_str("}\n");
        out.write_all(line.as_bytes())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, request_id: 0 }
    }

    #[test]
    fn self_time_with_nested_children() {
        let spans = [
            span("root", 0, 100, NONE),
            span("a", 10, 40, 0),
            span("a.inner", 15, 25, 1), // grandchild: only reduces `a`
            span("b", 60, 90, 0),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 10, 30]);
    }

    #[test]
    fn self_time_with_overlapping_children_counts_cover_once() {
        let spans = [
            span("root", 0, 100, NONE),
            span("a", 10, 50, 0),
            span("b", 30, 70, 0),  // overlaps a on [30, 50)
            span("c", 35, 45, 0),  // inside both
            span("d", 90, 130, 0), // runs past the parent: clipped to [90, 100)
        ];
        // cover = [10, 70) ∪ [90, 100) = 70
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn summary_groups_by_name() {
        let spans = [span("root", 0, 4_000, NONE), span("call", 0, 1_000, 0), span("call", 2_000, 3_000, 0)];
        let s = summarize(&spans);
        assert_eq!(s["root"], (1, 4.0, 2.0));
        assert_eq!(s["call"], (2, 1.0, 1.0));
    }

    #[test]
    fn trace_records_parent_links_and_probe_spans() {
        let mut t = Trace::starting_at(Instant::now());
        let a = Instant::now();
        let root = t.record("driver.request", a, a + std::time::Duration::from_micros(5), NONE, 9);
        t.record("serve.submit_call", a, a + std::time::Duration::from_micros(1), root, 9);
        assert_eq!(t.probe("core.solve", || 3), 3);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[1].request_id, 9);
        assert_eq!((t.spans[2].parent, t.spans[2].request_id), (NONE, NONE));
        assert_eq!(t.spans[0].end_ns - t.spans[0].start_ns, 5_000);
    }
}
