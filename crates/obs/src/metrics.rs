//! Metrics registry: counters, gauges and log-bucketed quantile sketches
//! with a Prometheus text-exposition renderer and a small parser for it.
//!
//! All instruments are lock-free on the hot path — counters and sketch
//! buckets are `AtomicU64`s, gauges and sketch sums store `f64` bits in
//! an `AtomicU64` (the sum via a CAS loop). The
//! [`Registry`] hands out `Arc` handles (get-or-create by name, plus an
//! optional label set so one family can carry per-endpoint series like
//! `rain_http_request_seconds{endpoint="query"}`) and renders every
//! registered instrument in the [Prometheus text exposition
//! format](https://prometheus.io/docs/instrumenting/exposition_formats/):
//! `# TYPE` comments, `summary` families with `quantile` labels for
//! sketches, and `_sum`/`_count` series. [`parse_exposition`] inverts the renderer far
//! enough for round-trip tests and scrape assertions.

use crate::sketch::{Sketch, SLO_QUANTILES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonically increasing counter. `store` exists for mirrored values
/// (e.g. cache stats kept elsewhere and copied in at scrape time); such
/// mirrors must themselves be monotonic.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite with an externally tracked monotonic value.
    pub fn store(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down; stored as `f64` bits.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Sketch(Arc<Sketch>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Sketch(_) => "summary",
        }
    }
}

struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    inst: Instrument,
}

/// Named instruments with get-or-create registration and text
/// exposition. Handles are `Arc`s: register once, update lock-free.
/// An entry is keyed by `(name, labels)`; all entries of one name form
/// a family and must share an instrument kind.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Vec<Entry>>,
}

fn fmt_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Entry>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Get-or-create: find `(name, labels)`, checking the family kind, or
    /// insert with `make`.
    fn entry<T>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        kind: &'static str,
        get: impl Fn(&Instrument) -> Option<Arc<T>>,
        make: impl FnOnce() -> (Arc<T>, Instrument),
    ) -> Arc<T> {
        let mut inner = self.lock();
        for e in inner.iter() {
            if e.name != name {
                continue;
            }
            if e.inst.kind() != kind {
                panic!("{name} already registered as {}", e.inst.kind());
            }
            if e.labels.len() == labels.len()
                && e.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
            {
                return get(&e.inst).expect("kind checked above");
            }
        }
        let (handle, inst) = make();
        inner.push(Entry {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            inst,
        });
        handle
    }

    /// Get or create the counter `name`. Panics if `name` is registered
    /// as a different instrument kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.entry(
            name,
            &[],
            "counter",
            |i| match i {
                Instrument::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            || {
                let c = Arc::new(Counter::default());
                (Arc::clone(&c), Instrument::Counter(c))
            },
        )
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.entry(
            name,
            &[],
            "gauge",
            |i| match i {
                Instrument::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
            || {
                let g = Arc::new(Gauge::default());
                (Arc::clone(&g), Instrument::Gauge(g))
            },
        )
    }

    /// Get or create the (unlabeled) quantile sketch `name`, exposed as a
    /// Prometheus `summary` with `quantile` labels.
    pub fn sketch(&self, name: &str) -> Arc<Sketch> {
        self.sketch_with(name, &[])
    }

    /// Get or create the sketch `name` carrying a fixed label set — e.g.
    /// `sketch_with("rain_http_request_seconds", &[("endpoint", "query")])`
    /// for per-endpoint SLO series under one family.
    pub fn sketch_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Sketch> {
        self.entry(
            name,
            labels,
            "summary",
            |i| match i {
                Instrument::Sketch(s) => Some(Arc::clone(s)),
                _ => None,
            },
            || {
                let s = Arc::new(Sketch::new());
                (Arc::clone(&s), Instrument::Sketch(s))
            },
        )
    }

    /// Render every instrument in Prometheus text exposition format,
    /// sorted by metric name (then labels) for a stable scrape; one
    /// `# TYPE` line per family.
    pub fn render(&self) -> String {
        let inner = self.lock();
        let mut order: Vec<usize> = (0..inner.len()).collect();
        order.sort_by(|&a, &b| {
            (&inner[a].name, &inner[a].labels).cmp(&(&inner[b].name, &inner[b].labels))
        });
        let mut out = String::new();
        let mut last_family: Option<&str> = None;
        for i in order {
            let Entry { name, labels, inst } = &inner[i];
            if last_family != Some(name.as_str()) {
                out.push_str(&format!("# TYPE {name} {}\n", inst.kind()));
                last_family = Some(name.as_str());
            }
            let lbl = fmt_labels(labels, None);
            match inst {
                Instrument::Counter(c) => out.push_str(&format!("{name}{lbl} {}\n", c.get())),
                Instrument::Gauge(g) => {
                    out.push_str(&format!("{name}{lbl} {}\n", fmt_f64(g.get())))
                }
                Instrument::Sketch(s) => {
                    let snap = s.snapshot();
                    for q in SLO_QUANTILES {
                        let l = fmt_labels(labels, Some(("quantile", &fmt_f64(q))));
                        out.push_str(&format!("{name}{l} {}\n", fmt_f64(snap.quantile(q))));
                    }
                    out.push_str(&format!("{name}_sum{lbl} {}\n", fmt_f64(snap.sum)));
                    out.push_str(&format!("{name}_count{lbl} {}\n", snap.count));
                }
            }
        }
        out
    }
}

/// Shortest round-trippable float text (Rust's default `Display`), with
/// non-finite values in Prometheus spelling.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

fn parse_f64(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => s.parse().map_err(|_| format!("bad float: {s:?}")),
    }
}

/// One sample line of a parsed exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Full series name as written (`foo`, `foo_sum`, `foo_count`).
    pub name: String,
    /// All labels, in written order (`quantile` included).
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl Sample {
    /// Value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The `quantile` label of a summary sample, parsed.
    pub fn quantile(&self) -> Option<f64> {
        self.label("quantile").and_then(|v| parse_f64(v).ok())
    }
}

/// One metric family: a `# TYPE` comment plus its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Family name from the `# TYPE` line.
    pub name: String,
    /// `counter`, `gauge`, or `summary`.
    pub kind: String,
    /// Samples in exposition order.
    pub samples: Vec<Sample>,
}

impl Metric {
    /// The value of the unlabeled sample named exactly `name` (counters
    /// and gauges) or of a suffixed series like `foo_count`.
    pub fn value_of(&self, series: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == series && s.labels.is_empty())
            .map(|s| s.value)
    }

    /// The value of the sample named `series` carrying every label in
    /// `labels` (other labels, e.g. `quantile`, may also be present).
    pub fn value_with(&self, series: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == series && labels.iter().all(|(k, v)| s.label(k) == Some(v)))
            .map(|s| s.value)
    }
}

fn parse_labels(text: &str, line: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = text;
    while !rest.is_empty() {
        let (key, after) = rest
            .split_once("=\"")
            .ok_or_else(|| format!("bad label in: {line:?}"))?;
        let (value, after) = after
            .split_once('"')
            .ok_or_else(|| format!("unterminated label value in: {line:?}"))?;
        labels.push((key.to_string(), value.to_string()));
        rest = after.strip_prefix(',').unwrap_or(after);
        if rest == after && !rest.is_empty() {
            return Err(format!("bad label separator in: {line:?}"));
        }
    }
    Ok(labels)
}

/// Parse the subset of the Prometheus text format that [`Registry::render`]
/// emits: `# TYPE` comments, comma-separated `key="value"` labels, float
/// values.
pub fn parse_exposition(text: &str) -> Result<Vec<Metric>, String> {
    let mut metrics: Vec<Metric> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (name, kind) = (
                it.next().ok_or("TYPE line missing name")?,
                it.next().ok_or("TYPE line missing kind")?,
            );
            metrics.push(Metric {
                name: name.to_string(),
                kind: kind.to_string(),
                samples: Vec::new(),
            });
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("bad sample line: {line:?}"))?;
        let value = parse_f64(value.trim())?;
        let (name, labels) = match series.split_once('{') {
            None => (series.to_string(), Vec::new()),
            Some((base, labels)) => {
                let labels = labels
                    .strip_suffix('}')
                    .ok_or_else(|| format!("unterminated labels: {line:?}"))?;
                (base.to_string(), parse_labels(labels, line)?)
            }
        };
        let fam = metrics
            .last_mut()
            .filter(|m| name.starts_with(m.name.as_str()))
            .ok_or_else(|| format!("sample {name:?} outside its TYPE block"))?;
        fam.samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_observes_are_not_lost() {
        let reg = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = reg.counter("hits");
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.counter("hits").get(), 8000);
    }

    #[test]
    fn exposition_round_trips_through_the_parser() {
        let reg = Registry::new();
        reg.counter("rain_requests_total").add(42);
        reg.gauge("rain_sessions").set(3.0);
        let h = reg.sketch("rain_request_seconds");
        h.observe(0.0005);
        h.observe(0.5);
        let text = reg.render();
        let metrics = parse_exposition(&text).expect("valid exposition");
        assert_eq!(metrics.len(), 3);

        let req = metrics
            .iter()
            .find(|m| m.name == "rain_requests_total")
            .unwrap();
        assert_eq!(req.kind, "counter");
        assert_eq!(req.value_of("rain_requests_total"), Some(42.0));

        let sess = metrics.iter().find(|m| m.name == "rain_sessions").unwrap();
        assert_eq!(sess.kind, "gauge");
        assert_eq!(sess.value_of("rain_sessions"), Some(3.0));

        let lat = metrics
            .iter()
            .find(|m| m.name == "rain_request_seconds")
            .unwrap();
        assert_eq!(lat.kind, "summary");
        assert_eq!(lat.value_of("rain_request_seconds_count"), Some(2.0));
        assert_eq!(lat.value_of("rain_request_seconds_sum"), Some(0.5005));
    }

    #[test]
    fn registry_get_or_create_returns_the_same_instrument() {
        let reg = Registry::new();
        reg.counter("c").inc();
        reg.counter("c").inc();
        assert_eq!(reg.counter("c").get(), 2);
        let h1 = reg.sketch("h");
        let h2 = reg.sketch("h");
        h1.observe(0.5);
        assert_eq!(h2.count(), 1);
    }

    #[test]
    fn sketch_summaries_round_trip_with_labels() {
        let reg = Registry::new();
        let q = reg.sketch_with("rain_http_request_seconds", &[("endpoint", "query")]);
        let d = reg.sketch_with("rain_http_request_seconds", &[("endpoint", "debug_run")]);
        for _ in 0..100 {
            q.observe(0.002);
        }
        q.observe(1.0);
        d.observe(0.5);
        let text = reg.render();
        let metrics = parse_exposition(&text).expect("valid exposition");
        let fam = metrics
            .iter()
            .find(|m| m.name == "rain_http_request_seconds")
            .unwrap();
        assert_eq!(fam.kind, "summary");
        // One # TYPE line for the whole family.
        assert_eq!(text.matches("# TYPE rain_http_request_seconds").count(), 1);
        assert_eq!(
            fam.value_with("rain_http_request_seconds_count", &[("endpoint", "query")]),
            Some(101.0)
        );
        assert_eq!(
            fam.value_with(
                "rain_http_request_seconds_count",
                &[("endpoint", "debug_run")]
            ),
            Some(1.0)
        );
        let p50 = fam
            .samples
            .iter()
            .find(|s| {
                s.name == "rain_http_request_seconds"
                    && s.label("endpoint") == Some("query")
                    && s.quantile() == Some(0.5)
            })
            .expect("p50 sample");
        assert!(
            (p50.value - 0.002).abs() / 0.002 < 0.05,
            "p50={}",
            p50.value
        );
        let p999 = fam
            .value_with(
                "rain_http_request_seconds",
                &[("endpoint", "query"), ("quantile", "0.999")],
            )
            .expect("p999 sample");
        assert!((p999 - 1.0).abs() < 0.05, "p999={p999}");
        // Same-name different-kind registration still panics.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.counter("rain_http_request_seconds")
        }));
        assert!(r.is_err());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_exposition("no_type_block 1").is_err());
        assert!(parse_exposition("# TYPE a counter\na notanumber").is_err());
        assert!(parse_exposition("# TYPE a histogram\na_bucket{le=\"0.1\" 3").is_err());
    }
}
