//! `rain-obs` — std-only observability: spans/traces, metrics, sketches.
//!
//! Three halves, all dependency-free and thread-safe:
//!
//! - [`trace`]: request-scoped tracing. A [`Trace`] guard gives one
//!   request its own record buffer and makes it the calling thread's
//!   context; [`Span::enter`] records into the trace its thread carries
//!   and is an inert zero (one thread-local read) on a thread that
//!   carries none — cheap enough to leave compiled into every operator
//!   of the query pipeline. Worker threads join their parent's trace
//!   through [`Span::enter_under`]. [`Trace::finish`] stitches the
//!   records into a deterministic `(start, id)`-ordered [`TraceNode`]
//!   tree; concurrent traces share no buffer, so they never bleed into
//!   each other.
//! - [`metrics`]: a [`Registry`] of named [`Counter`]s, [`Gauge`]s and
//!   quantile [`Sketch`]es (optionally
//!   labeled, e.g. per-endpoint) with lock-free updates, rendered in
//!   Prometheus text exposition format (served by `rain-serve` at
//!   `GET /metrics`) and re-parseable via [`parse_exposition`].
//! - [`sketch`]: the HDR-style log-bucketed latency [`Sketch`] backing
//!   the registry's `summary` families — p50/p95/p99/p999 within ~2%
//!   relative error, mergeable across shards.
//!
//! The serve layer turns finished [`TraceNode`] trees into the JSON
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
pub use trace::{enabled, Span, Trace, TraceNode, MAX_RECORDS};
