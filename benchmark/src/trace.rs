//! The benchmark's own span recorder (choosing-metrics §4).
//!
//! Spans are recorded from the benchmark's files, around the calls into
//! each layer — nothing inside the program is instrumented. A span has a
//! name (`<layer>.<what>`), a start, an end, the span that caused it, and
//! the id of the replayed request it belongs to, so layer time joins to
//! the request that paid it. Spans stay in memory and are written out once
//! at exit. A span's *self time* is its duration minus the part of that
//! interval its child spans cover; a root's self time is time no layer
//! span accounts for.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u32,
}

/// In-memory span recorder for one (single-threaded) replay.
pub struct Recorder {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u32,
}

impl Recorder {
    /// A recorder that records (`on`) or one whose `span` only runs the
    /// closure — the "tracing off" side of the overhead ratio.
    pub fn new(on: bool) -> Recorder {
        Recorder {
            enabled: on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Start a new request: spans recorded from now on carry its id.
    pub fn next_request(&mut self) -> u32 {
        self.request += 1;
        self.request
    }

    /// Run `f` inside a span called `name`, child of the innermost open
    /// span. The recorder is handed back to `f` so spans nest.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in nanoseconds, index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            // Union of the children's intervals, clipped to the parent.
            kids.sort_unstable();
            let (mut covered, mut upto) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(upto), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    upto = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
    }
    out
}

/// The layer a span belongs to: the part of its name before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Durations (seconds) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .collect()
}

/// The trace as a JSON document: every span plus the self-time table.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    use std::fmt::Write;
    let mut s = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"self_seconds\":{{");
    for (i, (name, secs)) in self_seconds_by_name(spans).iter().enumerate() {
        let _ = write!(s, "{}\"{name}\":{secs}", if i > 0 { "," } else { "" });
    }
    s.push_str("},\"spans\":[");
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "{}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            if i > 0 { "," } else { "" },
            sp.name,
            sp.start_ns,
            sp.end_ns,
            sp.request
        );
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, a: u64, b: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: a,
            end_ns: b,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            sp("bench.root", 0, 100, None),
            sp("a.x", 10, 40, Some(0)),
            sp("b.y", 30, 60, Some(0)),  // overlaps a.x by 10
            sp("a.z", 15, 20, Some(1)),  // grandchild: not the root's child
            sp("c.w", 90, 120, Some(0)), // overruns the parent: clipped
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 5, 30]);
        let by = self_seconds_by_name(&spans);
        assert!((by["bench.root"] - 40e-9).abs() < 1e-15);
        assert_eq!(layer_of("influence.inverse_hvp"), "influence");
        assert_eq!(durations(&spans, "a.x"), vec![30e-9]);
    }

    #[test]
    fn recorder_nests_and_tags_requests() {
        let mut rec = Recorder::new(true);
        let r1 = rec.next_request();
        let v = rec.span("bench.outer", |rec| rec.span("model.inner", |_| 7));
        let r2 = rec.next_request();
        rec.span("sql.other", |_| ());
        assert_eq!(v, 7);
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[0].request, s[1].request, s[2].request), (r1, r1, r2));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let json = to_json("w", 1, s);
        assert!(rain_serve::json::parse(&json).is_ok(), "{json}");

        let mut off = Recorder::new(false);
        assert_eq!(off.span("bench.outer", |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
