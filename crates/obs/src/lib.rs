//! `rain-obs` — std-only observability: spans/traces, metrics, sketches.
//!
//! Three halves, all dependency-free and thread-safe:
//!
//! - [`trace`]: an RAII span API ([`Span::enter`] / [`Span::enter_under`])
//!   over monotonic clocks with a global atomic enable switch. Disabled
//!   spans cost one relaxed load and a branch — cheap enough to leave
//!   compiled into every operator of the query pipeline. Enabled spans
//!   record into bounded per-thread shards (writers never contend on a
//!   shared lock); a consumer wraps its work in a root span and harvests
//!   exactly that subtree with [`take_subtree`], stitched into a
//!   deterministic `(start, id)`-ordered tree, so concurrent traces
//!   don't bleed into each other.
//! - [`metrics`]: a [`Registry`] of named [`Counter`]s, [`Gauge`]s and
//!   quantile [`Sketch`]es (optionally
//!   labeled, e.g. per-endpoint) with lock-free updates, rendered in
//!   Prometheus text exposition format (served by `rain-serve` at
//!   `GET /metrics`) and re-parseable via [`parse_exposition`].
//! - [`sketch`]: the HDR-style log-bucketed latency [`Sketch`] backing
//!   the registry's `summary` families — p50/p95/p99/p999 within ~2%
//!   relative error, mergeable across shards.
//!
//! The serve layer turns harvested [`TraceNode`] trees into the JSON
//! profiles returned by `?profile=1` debug runs, `EXPLAIN ANALYZE`
//! queries, and the always-on sampled profile ring at
//! `GET /debug/profiles`; `rain-core` attaches them to `DebugReport`s.

pub mod metrics;
pub mod sketch;
pub mod trace;

pub use metrics::{parse_exposition, Counter, Gauge, Metric, Registry, Sample};
pub use sketch::{
    Sketch, SketchSnapshot, SKETCH_GAMMA, SKETCH_MIN, SKETCH_REL_ERROR, SLO_QUANTILES,
};
pub use trace::{
    activate, buffered_records, clear, dropped_records, enabled, set_enabled, take_subtree,
    ActiveTrace, Span, SpanId, TraceNode, MAX_RECORDS,
};
