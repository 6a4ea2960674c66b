//! The server: TCP accept loop, connection threads, endpoint dispatch.
//!
//! ## Endpoints
//!
//! | method & path                     | body → effect |
//! |-----------------------------------|---------------|
//! | `GET  /healthz`                   | liveness probe |
//! | `GET  /stats`                     | server-wide counters (sessions, requests, cache totals, job runner, per-endpoint latency quantiles) |
//! | `GET  /metrics`                   | Prometheus text exposition (per-endpoint request-latency summaries with p50/p95/p99/p999, queue/lock waits, cache + job counters) |
//! | `GET  /debug/profiles`            | the always-on sampled profile ring: recent + slow captures (see [`crate::profiles`]) |
//! | `GET  /debug/profiles/{id}`       | one captured profile with its full span tree |
//! | `POST /debug/profiles/flush`      | dump both rings (full span trees) to a JSON file under the data dir |
//! | `POST /sessions`                  | `{"name":…,"model":…[,"threads":…,"sample_every":…,"slow_ms":…]}` → create a session (worker budget fixed at creation; sampling knobs adjustable); against a recovered session the same request *re-attaches* (200 with `"recovered":true`) instead of conflicting |
//! | `GET  /sessions`                  | list sessions (generation + cache + storage counters) |
//! | `DELETE /sessions/{s}`            | drop a session (and its on-disk directory, in durable mode) |
//! | `POST /sessions/{s}/tables`       | table upload → register (replacing invalidates cached skeletons) |
//! | `POST /sessions/{s}/tables/{t}/append` | `{"rows":[[…]…][,"features":[[…]…]]}` → append rows; bumps the table's per-delta catalog version |
//! | `POST /sessions/{s}/tables/{t}/index` | `{"column":…,"kind":"hash"\|"sorted"}` → create a secondary index; the definition is durable, the data is rebuilt on recovery |
//! | `GET  /sessions/{s}/tables/{t}/stats` | planner statistics (row count, per-column distinct/nulls/min/max) plus the table's index list |
//! | `POST /sessions/{s}/train`        | training-set upload |
//! | `POST /sessions/{s}/query`        | `{"sql":…[,"analyze":true]}` → debug-mode execution through the skeleton cache; `analyze` adds an `EXPLAIN ANALYZE`-style plan + span tree |
//! | `POST /sessions/{s}/complain`     | `{"sql":…,"complaints":[…]}` → attach complaints |
//! | `POST /sessions/{s}/debug-run`    | `{"method":…,"budget":…[,"k_per_iter":…,"stop_when_satisfied":…,"profile":…,"sample_every":…]}` → enqueue job, `202 {"job":id}`; `?profile=1` (or `"profile":true`) attaches the run's span tree to the report |
//! | `GET  /jobs/{id}`                 | poll status; the report rides on `"done"` |
//!
//! Connections are HTTP/1.1 keep-alive, one thread per connection; every
//! request against a session serializes on that session's mutex while
//! distinct sessions proceed in parallel (see [`crate::pool`]). Long
//! debug runs never execute on a connection thread — they go through the
//! job runner ([`crate::jobs`]).
//!
//! ## Durable mode
//!
//! Started with a `data_dir`, every session writes a commitlog (plus
//! periodic snapshots) under `<data_dir>/sessions/<name>/`, and boot
//! replays whatever is on disk back into the pool before the listener
//! accepts — tables, null bitmaps, per-delta catalog versions, training
//! set, and model weights come back bit-identical (see
//! [`rain_core::durable`]). Recovered sessions answer `POST /sessions`
//! with `200 {"recovered":true}` so restart-safe clients just re-POST
//! and continue; cached queries re-prepare on first use and serve
//! without re-registration. Complaints are not logged: a restarted
//! session must file them again.

use crate::http::{read_request, write_response, write_response_typed, Request};
use crate::jobs::{JobRunner, JobState};
use crate::json::{self, Json};
use crate::pool::{SessionPool, SessionSlot, SessionState, StorageCounters};
use crate::profiles::{ProfileEntry, ProfileRing};
use crate::protocol::{
    append_features_from_json, append_rows_from_json, complaint_from_json, dataset_from_json,
    model_from_json, opt_field, output_to_json, report_to_json, run_request_from_json,
    session_threads_from_json, str_field, table_from_json, trace_to_json, version_to_json,
    ApiError,
};
use rain_core::driver::DebugSession;
use rain_core::durable::CommitError;
use rain_model::Classifier;
use rain_obs::{Counter, Gauge, Registry, Sketch};
use rain_sql::table::ColType;
use rain_sql::QueryCache;
use rain_storage::{Applied, Record};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (read it back off
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads executing debug-run jobs.
    pub job_workers: usize,
    /// Root of the server's persistent state. `None` (the default) keeps
    /// every session in memory only; `Some(dir)` makes sessions durable —
    /// commitlog + snapshots under `<dir>/sessions/<name>/`, recovered
    /// into the pool at the next boot — and gives `POST
    /// /debug/profiles/flush` somewhere to write.
    pub data_dir: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            job_workers: 4,
            data_dir: None,
        }
    }
}

/// The server's metrics registry plus the instruments hot paths update.
/// Request latency and queue/lock waits are observed where they happen;
/// scrape-only values (session count, cache totals, job counters) are
/// refreshed into their instruments at `GET /metrics` time instead of
/// being double-counted on the request path.
struct ServerMetrics {
    registry: Registry,
    /// Per-endpoint request-latency sketches (label `endpoint`), one per
    /// entry of [`ENDPOINTS`], pre-registered so the request path never
    /// takes the registry lock. Rendered as a `summary` family with
    /// p50/p95/p99/p999 quantile series.
    http_request_seconds: Vec<(&'static str, Arc<Sketch>)>,
    http_requests_total: Arc<Counter>,
    job_queue_wait_seconds: Arc<Sketch>,
    session_lock_wait_seconds: Arc<Sketch>,
    sessions: Arc<Gauge>,
    uptime_seconds: Arc<Gauge>,
    jobs_queued: Arc<Gauge>,
    jobs_running: Arc<Gauge>,
    jobs_done_total: Arc<Counter>,
    jobs_failed_total: Arc<Counter>,
    cache_hits_total: Arc<Counter>,
    cache_misses_total: Arc<Counter>,
    cache_invalidations_total: Arc<Counter>,
    cache_extended_total: Arc<Counter>,
    cache_hit_ratio: Arc<Gauge>,
    storage_log_bytes: Arc<Gauge>,
    storage_log_records: Arc<Gauge>,
    storage_snapshots_total: Arc<Counter>,
    storage_snapshot_lag_bytes: Arc<Gauge>,
    storage_snapshot_age_seconds: Arc<Gauge>,
    storage_recovered_sessions: Arc<Gauge>,
    storage_recovery_seconds: Arc<Gauge>,
}

/// The fixed endpoint-label set for `rain_http_request_seconds`. Routes
/// map onto these via [`endpoint_label`]; anything unroutable lands in
/// `other` so the label cardinality stays bounded no matter what clients
/// throw at the listener.
const ENDPOINTS: &[&str] = &[
    "healthz",
    "stats",
    "metrics",
    "sessions",
    "tables",
    "append",
    "index",
    "table_stats",
    "train",
    "query",
    "complain",
    "debug_run",
    "jobs",
    "debug_profiles",
    "profiles_flush",
    "other",
];

/// Which [`ENDPOINTS`] bucket a request belongs to.
fn endpoint_label(method: &str, path: &str) -> &'static str {
    let segs: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (method, segs.as_slice()) {
        ("GET", ["healthz"]) => "healthz",
        ("GET", ["stats"]) => "stats",
        ("GET", ["metrics"]) => "metrics",
        (_, ["sessions"]) | ("DELETE", ["sessions", _]) => "sessions",
        ("POST", ["sessions", _, "tables"]) => "tables",
        ("POST", ["sessions", _, "tables", _, "append"]) => "append",
        ("POST", ["sessions", _, "tables", _, "index"]) => "index",
        ("GET", ["sessions", _, "tables", _, "stats"]) => "table_stats",
        ("POST", ["sessions", _, "train"]) => "train",
        ("POST", ["sessions", _, "query"]) => "query",
        ("POST", ["sessions", _, "complain"]) => "complain",
        ("POST", ["sessions", _, "debug-run"]) => "debug_run",
        ("GET", ["jobs", _]) => "jobs",
        ("POST", ["debug", "profiles", "flush"]) => "profiles_flush",
        ("GET", ["debug", "profiles", ..]) => "debug_profiles",
        _ => "other",
    }
}

impl ServerMetrics {
    fn new() -> ServerMetrics {
        let registry = Registry::new();
        ServerMetrics {
            http_request_seconds: ENDPOINTS
                .iter()
                .map(|ep| {
                    (
                        *ep,
                        registry.sketch_with("rain_http_request_seconds", &[("endpoint", ep)]),
                    )
                })
                .collect(),
            http_requests_total: registry.counter("rain_http_requests_total"),
            job_queue_wait_seconds: registry.sketch("rain_job_queue_wait_seconds"),
            session_lock_wait_seconds: registry.sketch("rain_session_lock_wait_seconds"),
            sessions: registry.gauge("rain_sessions"),
            uptime_seconds: registry.gauge("rain_uptime_seconds"),
            jobs_queued: registry.gauge("rain_jobs_queued"),
            jobs_running: registry.gauge("rain_jobs_running"),
            jobs_done_total: registry.counter("rain_jobs_done_total"),
            jobs_failed_total: registry.counter("rain_jobs_failed_total"),
            cache_hits_total: registry.counter("rain_cache_hits_total"),
            cache_misses_total: registry.counter("rain_cache_misses_total"),
            cache_invalidations_total: registry.counter("rain_cache_invalidations_total"),
            cache_extended_total: registry.counter("rain_cache_extended_total"),
            cache_hit_ratio: registry.gauge("rain_cache_hit_ratio"),
            storage_log_bytes: registry.gauge("rain_storage_log_bytes"),
            storage_log_records: registry.gauge("rain_storage_log_records"),
            storage_snapshots_total: registry.counter("rain_storage_snapshots_total"),
            storage_snapshot_lag_bytes: registry.gauge("rain_storage_snapshot_lag_bytes"),
            storage_snapshot_age_seconds: registry.gauge("rain_storage_snapshot_age_seconds"),
            storage_recovered_sessions: registry.gauge("rain_storage_recovered_sessions"),
            storage_recovery_seconds: registry.gauge("rain_storage_recovery_seconds"),
            registry,
        }
    }

    /// Observe one request's latency into its endpoint's sketch.
    fn observe_request(&self, endpoint: &str, seconds: f64) {
        let sketch = self
            .http_request_seconds
            .iter()
            .find(|(ep, _)| *ep == endpoint)
            .or_else(|| {
                self.http_request_seconds
                    .iter()
                    .find(|(ep, _)| *ep == "other")
            });
        if let Some((_, s)) = sketch {
            s.observe(seconds);
        }
    }
}

/// Shared server state: the session pool, the job runner, and counters.
pub struct ServerState {
    pool: SessionPool,
    jobs: JobRunner,
    /// Always-on sampled profiles (1-in-N queries and debug-run
    /// iterations, plus slow captures), served at `GET /debug/profiles`.
    profiles: Arc<ProfileRing>,
    requests: AtomicU64,
    started: Instant,
    shutdown: AtomicBool,
    /// Persistent-state root, when the server runs durable.
    data_dir: Option<PathBuf>,
    /// Sessions rebuilt from disk at boot.
    recovered_sessions: u64,
    /// Wall-clock seconds boot recovery took (all sessions).
    recovery_seconds: f64,
    /// Sequence for `POST /debug/profiles/flush` output files.
    profile_flush_seq: AtomicU64,
    metrics: ServerMetrics,
}

/// Rebuild the model of a recovered session from its verbatim creation
/// JSON — the exact parser `POST /sessions` used the first time.
fn model_factory(spec: &str) -> Result<Box<dyn Classifier>, String> {
    let v = json::parse(spec).map_err(|e| format!("creation spec does not parse: {e}"))?;
    let model = v
        .get("model")
        .ok_or_else(|| "creation spec has no 'model'".to_string())?;
    model_from_json(model).map_err(|e| e.message)
}

/// Replay every session directory under `<data_dir>/sessions` into the
/// pool. A session that fails to recover is reported on stderr and
/// skipped — one corrupt directory must not keep the server down.
/// Returns `(sessions recovered, wall-clock seconds)`.
fn recover_sessions(data_dir: &Path, pool: &SessionPool) -> (u64, f64) {
    let t0 = Instant::now();
    let mut recovered = 0u64;
    let Ok(entries) = std::fs::read_dir(data_dir.join("sessions")) else {
        return (0, t0.elapsed().as_secs_f64());
    };
    let mut dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let Some(name) = dir.file_name().and_then(|n| n.to_str()).map(str::to_string) else {
            continue;
        };
        match rain_core::durable::recover(&dir, &model_factory) {
            Ok(rec) => {
                // The worker budget and sampling knobs ride on the same
                // verbatim spec the model was rebuilt from.
                let spec_json = json::parse(&rec.spec).ok();
                let threads = spec_json
                    .as_ref()
                    .and_then(|v| session_threads_from_json(v).ok())
                    .unwrap_or_default();
                match pool.reserve(&name) {
                    Ok(reserved) => {
                        let store = Some((rec.spec, rec.store));
                        let slot = reserved.insert(rec.sess, threads, store, true);
                        // A bad knob is skipped, not fatal, like a bad
                        // `threads`: one spec must not keep a session down.
                        if let Some(v) = &spec_json {
                            apply_sampling_knobs(
                                &slot,
                                sampling_knobs(v).map(Result::unwrap_or_default),
                            );
                        }
                        recovered += 1;
                    }
                    Err(e) => eprintln!(
                        "rain-serve: recovered session '{name}' not inserted: {}",
                        e.message
                    ),
                }
            }
            Err(e) => eprintln!("rain-serve: session '{name}' failed to recover: {e}"),
        }
    }
    (recovered, t0.elapsed().as_secs_f64())
}

/// The optional `sample_every` / `slow_ms` knobs of a creation (or
/// recovered) spec, each a non-negative integer when present.
fn sampling_knobs(body: &Json) -> [Result<Option<u64>, ApiError>; 2] {
    ["sample_every", "slow_ms"].map(|key| {
        let knob = opt_field(body, key, Json::as_usize, "a non-negative integer")?;
        Ok(knob.map(|n| n as u64))
    })
}

/// Set the sampling knobs that are present; an absent one keeps its
/// always-on default.
fn apply_sampling_knobs(slot: &SessionSlot, [sample_every, slow_ms]: [Option<u64>; 2]) {
    if sample_every.is_some() || slow_ms.is_some() {
        slot.set_sampling(
            sample_every.unwrap_or_else(|| slot.sample_every()),
            slow_ms.unwrap_or_else(|| slot.slow_ms()),
        );
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the threads serving until process
/// exit.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
}

/// Bind and start serving in background threads; returns immediately.
/// With a configured data dir, on-disk sessions are recovered into the
/// pool *before* the first connection is accepted.
pub fn start(cfg: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let metrics = ServerMetrics::new();
    let profiles = Arc::new(ProfileRing::new());
    let pool = SessionPool::with_lock_wait(Arc::clone(&metrics.session_lock_wait_seconds));
    let data_dir = cfg.data_dir.as_ref().map(PathBuf::from);
    let (recovered_sessions, recovery_seconds) = match &data_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir.join("sessions"))?;
            recover_sessions(dir, &pool)
        }
        None => (0, 0.0),
    };
    let state = Arc::new(ServerState {
        pool,
        jobs: JobRunner::with_observability(
            cfg.job_workers,
            Some(Arc::clone(&metrics.job_queue_wait_seconds)),
            Some(Arc::clone(&profiles)),
        ),
        profiles,
        requests: AtomicU64::new(0),
        started: Instant::now(),
        shutdown: AtomicBool::new(false),
        data_dir,
        recovered_sessions,
        recovery_seconds,
        profile_flush_seq: AtomicU64::new(0),
        metrics,
    });
    let accept_state = Arc::clone(&state);
    let accept = std::thread::Builder::new()
        .name("rain-serve-accept".to_string())
        .spawn(move || accept_loop(listener, accept_state))?;
    Ok(ServerHandle {
        addr,
        state,
        accept: Some(accept),
    })
}

impl ServerHandle {
    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections, drain the job workers, and join the
    /// accept thread. Open connections see `503` on their next request.
    pub fn shutdown(mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one last connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        self.state.jobs.shutdown();
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>) {
    for conn in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let state = Arc::clone(&state);
        let _ = std::thread::Builder::new()
            .name("rain-serve-conn".to_string())
            .spawn(move || handle_conn(stream, state));
    }
}

fn handle_conn(stream: TcpStream, state: Arc<ServerState>) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    loop {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return, // clean EOF between requests
            Err(_) => {
                let body = ApiError::bad_request("malformed HTTP request").body();
                let _ = write_response(&mut stream, 400, &body.to_string(), false);
                return;
            }
        };
        state.requests.fetch_add(1, Ordering::Relaxed);
        let t_req = Instant::now();
        if state.shutdown.load(Ordering::SeqCst) {
            let body = ApiError::internal("shutting down").body();
            let _ = write_response(&mut stream, 503, &body.to_string(), false);
            return;
        }
        // `/metrics` answers in Prometheus text exposition format; every
        // other route speaks JSON.
        let endpoint = endpoint_label(&req.method, &req.path);
        let write_ok = if req.method == "GET" && req.path == "/metrics" {
            let text = render_metrics(&state);
            state
                .metrics
                .observe_request(endpoint, t_req.elapsed().as_secs_f64());
            write_response_typed(
                &mut stream,
                200,
                "text/plain; version=0.0.4",
                &text,
                req.keep_alive,
            )
            .is_ok()
        } else {
            let (status, body) = match handle(&state, &req) {
                Ok((status, body)) => (status, body),
                Err(e) => (e.status, e.body()),
            };
            state
                .metrics
                .observe_request(endpoint, t_req.elapsed().as_secs_f64());
            write_response(&mut stream, status, &body.to_string(), req.keep_alive).is_ok()
        };
        if !write_ok || !req.keep_alive {
            return;
        }
    }
}

/// Parse a request body as JSON (empty bodies are an error for routes
/// that call this).
fn body_json(req: &Request) -> Result<Json, ApiError> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| ApiError::bad_request("request body is not UTF-8"))?;
    if text.trim().is_empty() {
        return Err(ApiError::bad_request("request body must be JSON"));
    }
    json::parse(text).map_err(|e| ApiError::bad_request(format!("invalid JSON body: {e}")))
}

/// [`body_json`] for the ingest routes, whose bodies are the large ones:
/// under a `serve.parse_body` span carrying the body's size.
fn upload_json(req: &Request) -> Result<Json, ApiError> {
    let mut span = rain_obs::Span::enter("serve.parse_body");
    span.add("bytes", req.body.len() as u64);
    body_json(req)
}

/// Run an ingest handler; under `?profile` (the flag `/debug-run` has),
/// as a trace named `what`, with the tree on the response as
/// `"profile"`. It attributes the request to `serve.parse_body` (counter
/// `bytes`), `serve.decode` (`rows`) and `serve.log_commit` (`bytes`) the
/// way a profiled debug run is attributed to train / execute / rank.
/// Without the flag the spans are inert.
fn profiled(
    req: &Request,
    what: &'static str,
    run: impl FnOnce() -> Result<(u16, Json), ApiError>,
) -> Result<(u16, Json), ApiError> {
    if !req.query_flag("profile") {
        return run();
    }
    let trace = rain_obs::Trace::start(what);
    let (status, mut body) = run()?;
    if let Json::Obj(pairs) = &mut body {
        pairs.push(("profile".to_string(), trace_to_json(&trace.finish())));
    }
    Ok((status, body))
}

/// Route and execute one request.
fn handle(state: &ServerState, req: &Request) -> Result<(u16, Json), ApiError> {
    let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segs.as_slice()) {
        ("GET", ["healthz"]) => Ok((200, Json::obj(vec![("ok", Json::Bool(true))]))),
        ("GET", ["stats"]) => Ok((200, stats(state))),
        ("POST", ["sessions"]) => create_session(state, req),
        ("GET", ["sessions"]) => Ok((200, list_sessions(state))),
        ("DELETE", ["sessions", name]) => {
            // The name stays held until the directory is gone: a create
            // of it answers 409 meanwhile instead of opening a store that
            // the removal below would delete.
            let _held = state.pool.remove(name)?;
            if let Some(root) = &state.data_dir {
                let dir = root.join("sessions").join(name);
                if let Err(e) = std::fs::remove_dir_all(&dir) {
                    if e.kind() != io::ErrorKind::NotFound {
                        eprintln!("rain-serve: failed to remove {}: {e}", dir.display());
                    }
                }
            }
            Ok((200, Json::obj(vec![("dropped", Json::str(*name))])))
        }
        ("POST", ["sessions", name, "tables"]) => {
            profiled(req, "register-table", || register_table(state, name, req))
        }
        ("POST", ["sessions", name, "tables", table, "append"]) => {
            profiled(req, "append-rows", || {
                append_to_table(state, name, table, req)
            })
        }
        ("POST", ["sessions", name, "tables", table, "index"]) => {
            create_table_index(state, name, table, req)
        }
        ("GET", ["sessions", name, "tables", table, "stats"]) => table_stats(state, name, table),
        ("POST", ["sessions", name, "train"]) => {
            profiled(req, "upload-train", || upload_train(state, name, req))
        }
        ("POST", ["sessions", name, "query"]) => query(state, name, req),
        ("POST", ["sessions", name, "complain"]) => complain(state, name, req),
        ("POST", ["sessions", name, "debug-run"]) => debug_run(state, name, req),
        ("GET", ["jobs", id]) => job_status(state, id),
        ("GET", ["debug", "profiles"]) => Ok((200, profiles_list(state))),
        ("POST", ["debug", "profiles", "flush"]) => profiles_flush(state),
        ("GET", ["debug", "profiles", id]) => profile_by_id(state, id),
        _ => Err(ApiError::not_found(format!(
            "no route {} {}",
            req.method, req.path
        ))),
    }
}

/// Refresh the scrape-time instruments and render the registry.
///
/// The mirrored counters load from the same sources as `GET /stats`
/// (request counter, the pool's churn-proof cache totals, job-runner
/// counters), so the two endpoints always agree and counters stay
/// monotonic without double bookkeeping on hot paths. Cache totals come
/// from [`SessionPool::cache_totals`], which folds removed sessions'
/// counters into a retired baseline — concurrent create/remove churn can
/// no longer make a scrape see a counter regress.
/// Sum every durable slot's lock-free storage counters, plus the Unix
/// milliseconds of the *oldest* last-snapshot among sessions that have
/// cut one (0 when none has) — the worst-case snapshot age is the number
/// an operator alerts on.
fn storage_totals(state: &ServerState) -> (StorageCounters, u64) {
    let mut agg = StorageCounters::default();
    let mut oldest_ms = 0u64;
    for slot in state.pool.list() {
        if let Some(s) = slot.storage_snapshot() {
            agg.log_bytes += s.log_bytes;
            agg.log_records += s.log_records;
            agg.snapshots += s.snapshots;
            agg.snapshot_lag_bytes += s.snapshot_lag_bytes;
            if s.last_snapshot_unix_ms > 0 {
                oldest_ms = if oldest_ms == 0 {
                    s.last_snapshot_unix_ms
                } else {
                    oldest_ms.min(s.last_snapshot_unix_ms)
                };
            }
        }
    }
    (agg, oldest_ms)
}

fn now_unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn render_metrics(state: &ServerState) -> String {
    let m = &state.metrics;
    m.http_requests_total
        .store(state.requests.load(Ordering::Relaxed));
    m.sessions.set(state.pool.len() as f64);
    m.uptime_seconds.set(state.started.elapsed().as_secs_f64());
    let cache = state.pool.cache_totals();
    m.cache_hits_total.store(cache.hits);
    m.cache_misses_total.store(cache.misses);
    m.cache_invalidations_total.store(cache.invalidations);
    m.cache_extended_total.store(cache.extended);
    let lookups = cache.hits + cache.misses;
    m.cache_hit_ratio.set(if lookups == 0 {
        0.0
    } else {
        cache.hits as f64 / lookups as f64
    });
    let jobs = state.jobs.stats();
    m.jobs_queued.set(jobs.queued as f64);
    m.jobs_running.set(jobs.running as f64);
    m.jobs_done_total.store(jobs.done as u64);
    m.jobs_failed_total.store(jobs.failed as u64);
    let (storage, oldest_snapshot_ms) = storage_totals(state);
    m.storage_log_bytes.set(storage.log_bytes as f64);
    m.storage_log_records.set(storage.log_records as f64);
    m.storage_snapshots_total.store(storage.snapshots);
    m.storage_snapshot_lag_bytes
        .set(storage.snapshot_lag_bytes as f64);
    m.storage_snapshot_age_seconds
        .set(if oldest_snapshot_ms == 0 {
            0.0
        } else {
            now_unix_ms().saturating_sub(oldest_snapshot_ms) as f64 / 1e3
        });
    m.storage_recovered_sessions
        .set(state.recovered_sessions as f64);
    m.storage_recovery_seconds.set(state.recovery_seconds);
    m.registry.render()
}

/// The skeleton-cache counters as every endpoint reports them; `extended`
/// is the share of `invalidations` answered by extending the skeleton.
fn cache_stats_json(s: rain_sql::CacheStats) -> Json {
    Json::obj(vec![
        ("hits", Json::Num(s.hits as f64)),
        ("misses", Json::Num(s.misses as f64)),
        ("invalidations", Json::Num(s.invalidations as f64)),
        ("extended", Json::Num(s.extended as f64)),
    ])
}

fn stats(state: &ServerState) -> Json {
    let cache = state.pool.cache_totals();
    let jobs = state.jobs.stats();
    // Per-endpoint latency quantiles from the same sketches `/metrics`
    // renders; endpoints nothing has hit yet are omitted.
    let latency: Vec<(String, Json)> = state
        .metrics
        .http_request_seconds
        .iter()
        .filter_map(|(ep, sketch)| {
            let snap = sketch.snapshot();
            (snap.count > 0).then(|| {
                (
                    ep.to_string(),
                    Json::obj(vec![
                        ("count", Json::Num(snap.count as f64)),
                        ("p50", Json::Num(snap.quantile(0.5))),
                        ("p95", Json::Num(snap.quantile(0.95))),
                        ("p99", Json::Num(snap.quantile(0.99))),
                    ]),
                )
            })
        })
        .collect();
    Json::obj(vec![
        ("sessions", Json::Num(state.pool.len() as f64)),
        (
            "requests",
            Json::Num(state.requests.load(Ordering::Relaxed) as f64),
        ),
        ("uptime_s", Json::Num(state.started.elapsed().as_secs_f64())),
        ("cache", cache_stats_json(cache)),
        (
            "jobs",
            Json::obj(vec![
                ("queued", Json::Num(jobs.queued as f64)),
                ("running", Json::Num(jobs.running as f64)),
                ("done", Json::Num(jobs.done as f64)),
                ("failed", Json::Num(jobs.failed as f64)),
                ("peak_running", Json::Num(jobs.peak_running as f64)),
            ]),
        ),
        ("latency_s", Json::Obj(latency)),
        (
            "profiles",
            Json::obj(vec![("recent", Json::Num(state.profiles.len() as f64))]),
        ),
        (
            "storage",
            match &state.data_dir {
                Some(dir) => {
                    let (storage, _) = storage_totals(state);
                    Json::obj(vec![
                        ("data_dir", Json::str(dir.display().to_string())),
                        ("log_bytes", Json::Num(storage.log_bytes as f64)),
                        ("log_records", Json::Num(storage.log_records as f64)),
                        ("snapshots", Json::Num(storage.snapshots as f64)),
                        (
                            "snapshot_lag_bytes",
                            Json::Num(storage.snapshot_lag_bytes as f64),
                        ),
                        (
                            "recovered_sessions",
                            Json::Num(state.recovered_sessions as f64),
                        ),
                        ("recovery_seconds", Json::Num(state.recovery_seconds)),
                    ])
                }
                None => Json::Null,
            },
        ),
    ])
}

/// Summary JSON of one profile-ring entry (no span tree; fetch by id for
/// the full capture).
fn profile_summary(e: &ProfileEntry) -> Vec<(&'static str, Json)> {
    vec![
        ("id", Json::Num(e.id as f64)),
        ("kind", Json::str(e.kind)),
        ("session", Json::str(e.session.clone())),
        ("detail", Json::str(e.detail.clone())),
        ("latency_s", Json::Num(e.latency_s)),
        (
            "request_id",
            match &e.request_id {
                Some(rid) => Json::str(rid.clone()),
                None => Json::Null,
            },
        ),
        ("unix_ms", Json::Num(e.unix_ms as f64)),
        (
            "spans",
            Json::Num(e.trace.as_ref().map_or(0, |t| t.size()) as f64),
        ),
    ]
}

fn profiles_list(state: &ServerState) -> Json {
    let (recent, slow) = state.profiles.list();
    let summarize = |entries: Vec<Arc<ProfileEntry>>| {
        Json::Arr(
            entries
                .iter()
                .map(|e| Json::obj(profile_summary(e)))
                .collect(),
        )
    };
    Json::obj(vec![
        ("recent", summarize(recent)),
        ("slow", summarize(slow)),
    ])
}

fn profile_by_id(state: &ServerState, id: &str) -> Result<(u16, Json), ApiError> {
    let id: u64 = id
        .parse()
        .map_err(|_| ApiError::bad_request("profile ids are integers"))?;
    let entry = state
        .profiles
        .get(id)
        .ok_or_else(|| ApiError::not_found(format!("no profile {id} (rings are bounded)")))?;
    let mut pairs = profile_summary(&entry);
    pairs.push((
        "profile",
        match &entry.trace {
            Some(t) => trace_to_json(t),
            None => Json::Null,
        },
    ));
    Ok((200, Json::obj(pairs)))
}

/// `POST /debug/profiles/flush`: dump both rings — summaries *and* full
/// span trees — to a JSON file under `<data_dir>/profiles/`, so a capture
/// worth keeping survives ring eviction and restarts.
fn profiles_flush(state: &ServerState) -> Result<(u16, Json), ApiError> {
    let Some(root) = &state.data_dir else {
        return Err(ApiError::bad_request(
            "profile flush needs a server data dir (start with data_dir set)",
        ));
    };
    let dir = root.join("profiles");
    std::fs::create_dir_all(&dir)
        .map_err(|e| ApiError::internal(format!("create {}: {e}", dir.display())))?;
    // The in-process sequence restarts at zero each boot; skip over files
    // an earlier process left behind instead of overwriting them.
    let path = loop {
        let seq = state.profile_flush_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let p = dir.join(format!("profiles-{seq:06}.json"));
        if !p.exists() {
            break p;
        }
    };
    let (recent, slow) = state.profiles.list();
    let full = |entries: &[Arc<ProfileEntry>]| {
        Json::Arr(
            entries
                .iter()
                .map(|e| {
                    let mut pairs = profile_summary(e);
                    pairs.push((
                        "profile",
                        match &e.trace {
                            Some(t) => trace_to_json(t),
                            None => Json::Null,
                        },
                    ));
                    Json::obj(pairs)
                })
                .collect(),
        )
    };
    let doc = Json::obj(vec![
        ("flushed_unix_ms", Json::Num(now_unix_ms() as f64)),
        ("recent", full(&recent)),
        ("slow", full(&slow)),
    ]);
    std::fs::write(&path, doc.to_string())
        .map_err(|e| ApiError::internal(format!("write {}: {e}", path.display())))?;
    Ok((
        200,
        Json::obj(vec![
            ("path", Json::str(path.display().to_string())),
            ("recent", Json::Num(recent.len() as f64)),
            ("slow", Json::Num(slow.len() as f64)),
        ]),
    ))
}

fn list_sessions(state: &ServerState) -> Json {
    let sessions: Vec<Json> = state
        .pool
        .list()
        .iter()
        .map(|slot| {
            let s = slot.cache_stats_snapshot();
            Json::obj(vec![
                ("name", Json::str(slot.name.clone())),
                ("generation", Json::Num(slot.generation() as f64)),
                ("threads", Json::Num(slot.threads as f64)),
                ("cache", cache_stats_json(s)),
                ("recovered", Json::Bool(slot.recovered())),
                (
                    "storage",
                    match slot.storage_snapshot() {
                        Some(s) => Json::obj(vec![
                            ("log_bytes", Json::Num(s.log_bytes as f64)),
                            ("log_records", Json::Num(s.log_records as f64)),
                            ("snapshots", Json::Num(s.snapshots as f64)),
                            ("snapshot_lag_bytes", Json::Num(s.snapshot_lag_bytes as f64)),
                        ]),
                        None => Json::Null,
                    },
                ),
            ])
        })
        .collect();
    Json::obj(vec![("sessions", Json::Arr(sessions))])
}

fn create_session(state: &ServerState, req: &Request) -> Result<(u16, Json), ApiError> {
    let body = body_json(req)?;
    let name = str_field(&body, "name")?;
    // Re-attach: a session recovered from disk at boot answers the same
    // creation request with 200 and its live config, instead of 409 —
    // restart-safe clients just re-POST and continue where they left off
    // (tables, indexes, training set and model weights are resident; the
    // query cache starts empty and complaints must be filed again).
    if let Ok(slot) = state.pool.get(&name) {
        if slot.recovered() {
            let kind = slot.lock().sess.model.name();
            return Ok((200, session_json(&slot, kind)));
        }
    }
    let model = model_from_json(
        body.get("model")
            .ok_or_else(|| ApiError::bad_request("missing field 'model'"))?,
    )?;
    let threads = session_threads_from_json(&body)?;
    let [sample_every, slow_ms] = sampling_knobs(&body);
    let knobs = [sample_every?, slow_ms?];
    let kind = model.name();
    // Hold the name first: a duplicate (or the loser of a race for a new
    // name) is refused here, before it could open — and write a
    // session-meta record into — the name's store directory. The
    // reservation also validates the name before it becomes a path
    // component.
    let reserved = state.pool.reserve(&name)?;
    let store = match &state.data_dir {
        Some(root) => {
            let dir = root.join("sessions").join(&name);
            let spec = String::from_utf8_lossy(&req.body).into_owned();
            let store = rain_core::durable::create_store(&dir, &spec)
                .map_err(|e| ApiError::internal(format!("open session store: {e}")))?;
            Some((spec, store))
        }
        None => None,
    };
    let slot = reserved.insert(DebugSession::for_model(model), threads, store, false);
    // Optional sampling knobs; anything omitted keeps the always-on
    // defaults (1-in-16, 500 ms slow threshold).
    apply_sampling_knobs(&slot, knobs);
    Ok((200, session_json(&slot, kind)))
}

/// A session's live config, as `POST /sessions` answers it for a new
/// session and for a re-attach to a recovered one.
fn session_json(slot: &SessionSlot, kind: &str) -> Json {
    Json::obj(vec![
        ("session", Json::str(&slot.name)),
        ("model", Json::str(kind)),
        ("threads", Json::Num(slot.threads as f64)),
        ("sample_every", Json::Num(slot.sample_every() as f64)),
        ("slow_ms", Json::Num(slot.slow_ms() as f64)),
        ("recovered", Json::Bool(slot.recovered())),
    ])
}

/// The tail every mutating route shares, under the session lock: commit
/// `rec` (check → log → apply → snapshot when due), publish the store's
/// counters, bump the generation. A record that fails its check answers
/// 400 and one whose write fails 500; either leaves session and log as
/// they were. A snapshot that fails after the record was logged and
/// applied is reported on stderr, and the request still succeeds: the
/// change is on disk, and recovery replays it from the full log.
///
/// The response is the route's own `fields`, then what the record did
/// (a table's rows and version, an index's entries, or the training
/// set's size), then the session's new generation.
fn commit(
    slot: &SessionSlot,
    st: &mut SessionState,
    rec: Record,
    mut fields: Vec<(&'static str, Json)>,
) -> Result<(u16, Json), ApiError> {
    let store = st
        .store
        .as_mut()
        .map(|(spec, store)| (store, spec.as_str()));
    let (applied, snapshot) =
        rain_core::durable::commit(&mut st.sess, store, rec).map_err(|e| match e {
            CommitError::Invalid(msg) => ApiError::bad_request(msg),
            CommitError::Storage(e) => ApiError::internal(format!("log commit: {e}")),
        })?;
    if let Some(e) = snapshot {
        eprintln!(
            "rain-serve: session '{}' failed to cut a snapshot: {e}",
            slot.name
        );
    }
    if let Some((_, store)) = &st.store {
        slot.publish_storage_stats(store);
    }
    match applied {
        Applied::Table((id, version)) => {
            let rows = st.sess.db.table_by_id(id).n_rows();
            fields.push(("rows", Json::Num(rows as f64)));
            fields.push(("version", version_to_json(version)));
        }
        Applied::Index(entries) => fields.push(("entries", Json::Num(entries as f64))),
        Applied::Train => fields.push(("train_records", Json::Num(st.sess.train.len() as f64))),
        Applied::Spec(_) | Applied::Params(_) => {}
    }
    fields.push(("generation", Json::Num(slot.bump_generation() as f64)));
    Ok((200, Json::obj(fields)))
}

fn register_table(state: &ServerState, name: &str, req: &Request) -> Result<(u16, Json), ApiError> {
    let body = upload_json(req)?;
    let (table_name, table) = {
        let mut span = rain_obs::Span::enter("serve.decode");
        let decoded = table_from_json(&body)?;
        span.add("rows", decoded.1.n_rows() as u64);
        decoded
    };
    let slot = state.pool.get(name)?;
    let fields = vec![("table", Json::str(&table_name))];
    let rec = Record::RegisterTable {
        name: table_name,
        table,
    };
    let mut st = slot.lock();
    commit(&slot, &mut st, rec, fields)
}

/// `POST /sessions/{s}/tables/{t}/append`: append a batch of rows (and,
/// for predict-visible tables, their feature rows) to a registered table.
/// The batch validates against the table's schema *before* anything is
/// logged or applied, bumps the table's per-delta catalog version on
/// success, and is durable before the response in durable mode.
fn append_to_table(
    state: &ServerState,
    name: &str,
    table_name: &str,
    req: &Request,
) -> Result<(u16, Json), ApiError> {
    let body = upload_json(req)?;
    let slot = state.pool.get(name)?;
    let mut st = slot.lock();
    let mut decode_span = rain_obs::Span::enter("serve.decode");
    let types: Vec<ColType> = st
        .sess
        .db
        .table(table_name)
        .ok_or_else(|| ApiError::bad_request(format!("no table '{table_name}'")))?
        .schema()
        .iter()
        .map(|d| d.ty)
        .collect();
    let rows = append_rows_from_json(
        body.get("rows")
            .ok_or_else(|| ApiError::bad_request("missing field 'rows'"))?,
        &types,
    )?;
    let features = match body.get("features") {
        None => None,
        Some(f) => append_features_from_json(f)?,
    };
    let appended = rows.len();
    decode_span.add("rows", appended as u64);
    drop(decode_span);
    let fields = vec![
        ("table", Json::str(table_name)),
        ("appended", Json::Num(appended as f64)),
    ];
    let rec = Record::AppendRows {
        name: table_name.to_string(),
        rows,
        features,
    };
    commit(&slot, &mut st, rec, fields)
}

/// `POST /sessions/{s}/tables/{t}/index`: create (or rebuild) a secondary
/// index on one column. Validation happens before anything is logged, so
/// a bad column or kind leaves catalog and log untouched; on success the
/// *definition* is durable while the data is rebuilt from the table on
/// recovery and kept current by every later table mutation.
fn create_table_index(
    state: &ServerState,
    name: &str,
    table_name: &str,
    req: &Request,
) -> Result<(u16, Json), ApiError> {
    let body = body_json(req)?;
    let column = str_field(&body, "column")?;
    let kind_str = str_field(&body, "kind")?;
    let kind = rain_sql::IndexKind::parse(&kind_str).ok_or_else(|| {
        ApiError::bad_request(format!(
            "unknown index kind '{kind_str}' (expected 'hash' or 'sorted')"
        ))
    })?;
    let slot = state.pool.get(name)?;
    let fields = vec![
        ("table", Json::str(table_name)),
        ("column", Json::str(&column)),
        ("kind", Json::str(kind.as_str())),
    ];
    let rec = Record::CreateIndex {
        name: table_name.to_string(),
        column,
        kind: kind.code(),
    };
    // Cached plans were costed without this index. The skeleton cache sees
    // the table's index count move and re-plans each on its next checkout;
    // the generation only records the mutation.
    let mut st = slot.lock();
    commit(&slot, &mut st, rec, fields)
}

/// `GET /sessions/{s}/tables/{t}/stats`: the planner's view of one table —
/// the statistics the cost model reads (row count, per-column distinct
/// estimates, null counts, numeric min/max) plus the secondary indexes
/// currently built over it.
fn table_stats(state: &ServerState, name: &str, table_name: &str) -> Result<(u16, Json), ApiError> {
    let slot = state.pool.get(name)?;
    let guard = slot.lock();
    let entry = guard
        .sess
        .db
        .entry(table_name)
        .ok_or_else(|| ApiError::bad_request(format!("no table '{table_name}'")))?;
    let columns = entry
        .table
        .schema()
        .iter()
        .zip(&entry.stats().columns)
        .map(|(def, c)| {
            Json::obj(vec![
                ("name", Json::str(&def.name)),
                ("distinct", Json::Num(c.distinct as f64)),
                ("nulls", Json::Num(c.null_count as f64)),
                ("min", c.min.map_or(Json::Null, Json::Num)),
                ("max", c.max.map_or(Json::Null, Json::Num)),
            ])
        })
        .collect();
    let indexes = entry
        .indexes
        .iter()
        .map(|ix| {
            Json::obj(vec![
                ("column", Json::str(&ix.column)),
                ("kind", Json::str(ix.kind.as_str())),
                ("entries", Json::Num(ix.len() as f64)),
            ])
        })
        .collect();
    Ok((
        200,
        Json::obj(vec![
            ("table", Json::str(&entry.name)),
            ("rows", Json::Num(entry.stats().row_count as f64)),
            ("version", version_to_json(entry.version)),
            ("columns", Json::Arr(columns)),
            ("indexes", Json::Arr(indexes)),
        ]),
    ))
}

fn upload_train(state: &ServerState, name: &str, req: &Request) -> Result<(u16, Json), ApiError> {
    let body = upload_json(req)?;
    let data = {
        let mut span = rain_obs::Span::enter("serve.decode");
        let data = dataset_from_json(&body)?;
        span.add("rows", data.len() as u64);
        data
    };
    let slot = state.pool.get(name)?;
    let mut st = slot.lock();
    commit(&slot, &mut st, Record::TrainSet { data }, vec![])
}

/// The optional `request_id` a client tags a query or run with.
fn request_id_field(body: &Json) -> Result<Option<String>, ApiError> {
    Ok(opt_field(body, "request_id", Json::as_str, "a string")?.map(str::to_string))
}

fn query(state: &ServerState, name: &str, req: &Request) -> Result<(u16, Json), ApiError> {
    let body = body_json(req)?;
    let sql = str_field(&body, "sql")?;
    let request_id = request_id_field(&body)?;
    let analyze = opt_field(&body, "analyze", Json::as_bool, "a boolean")?.unwrap_or(false)
        || req.query_flag("analyze");
    let slot = state.pool.get(name)?;
    // Always-on sampling: 1-in-N queries per session get the analyze
    // path's tracing treatment and land in the profile ring.
    let sampled = !analyze && slot.should_sample();
    let t_exec = Instant::now();
    let mut st = slot.lock();
    let st = &mut *st;
    // One body for every flavor: checkout → refresh → checkin. Under
    // `analyze` (`EXPLAIN ANALYZE`) it also renders the executed plan —
    // the *cached skeleton's* plan, with resolved engine, thread, and
    // morsel counts plus estimated-vs-actual row counts per scan and
    // join step. Analyzed and sampled queries run as a trace; results
    // are bit-identical either way — tracing is a pure observer.
    let trace = (analyze || sampled).then(|| rain_obs::Trace::start("query"));
    let (db, model, threads) = (&st.sess.db, st.sess.model.as_ref(), st.cache.threads());
    let cq = st.cache.checkout(db, model, &sql)?;
    let out = cq.prepared.refresh(db, model, threads)?;
    let explain = analyze.then(|| {
        let sk = cq.prepared.stats();
        let join_rows: Vec<usize> = sk.join_steps.iter().map(|&(_, n)| n).collect();
        cq.prepared
            .plan()
            .explain_analyze(db, sk.engine, threads, &sk.scan_rows, &join_rows)
    });
    let event = cq.event;
    st.cache.checkin(cq);
    let trace = trace.map(rain_obs::Trace::finish);
    let stats = st.cache.stats();
    slot.publish_cache_stats(stats);
    let latency_s = t_exec.elapsed().as_secs_f64();
    let slow = slot.is_slow_capture(latency_s);
    let mut pairs = vec![
        ("result", output_to_json(&out)),
        ("cache", Json::str(event.as_str())),
        ("cache_stats", cache_stats_json(stats)),
    ];
    if let Some(explain) = explain {
        pairs.push(("explain", Json::str(explain)));
        pairs.push(("profile", trace.as_ref().map_or(Json::Null, trace_to_json)));
    }
    // Park the capture (sampled or analyze) in the profile ring; slow
    // queries the sampler skipped still get a traceless slow-ring entry
    // (the latency is known, the trace can't be reconstructed after the
    // fact).
    if trace.is_some() || slow {
        state
            .profiles
            .push("query", &slot.name, sql, latency_s, request_id, trace, slow);
    }
    Ok((200, Json::obj(pairs)))
}

fn complain(state: &ServerState, name: &str, req: &Request) -> Result<(u16, Json), ApiError> {
    let body = body_json(req)?;
    let sql = str_field(&body, "sql")?;
    // Reject unparseable SQL up front (also yields the canonical key used
    // to merge complaints against the same statement).
    let key = QueryCache::normalize(&sql).map_err(ApiError::from)?;
    let mut complaints = Vec::new();
    if let Some(one) = body.get("complaint") {
        complaints.push(complaint_from_json(one)?);
    }
    if let Some(many) = opt_field(&body, "complaints", Json::as_arr, "an array")? {
        for c in many {
            complaints.push(complaint_from_json(c)?);
        }
    }
    if complaints.is_empty() {
        return Err(ApiError::bad_request(
            "provide 'complaint' or a non-empty 'complaints' array",
        ));
    }
    let slot = state.pool.get(name)?;
    let mut st = slot.lock();
    // A class the model does not have would fail the next debug run.
    let n_classes = st.sess.model.n_classes();
    for c in &complaints {
        if let rain_core::complaint::Complaint::PredictionIs { class, .. } = c {
            if *class >= n_classes {
                return Err(ApiError::bad_request(format!(
                    "complaint class {class} is out of range for a {n_classes}-class model"
                )));
            }
        }
    }
    let n = complaints.len();
    let spec = st
        .sess
        .queries
        .iter_mut()
        .find(|q| QueryCache::normalize(&q.sql).as_deref() == Ok(key.as_str()));
    let (sql_out, total) = match spec {
        Some(q) => {
            q.complaints.extend(complaints);
            (q.sql.clone(), q.complaints.len())
        }
        None => {
            let mut q = rain_core::complaint::QuerySpec::new(sql);
            q.complaints = complaints;
            let out = (q.sql.clone(), q.complaints.len());
            st.sess.queries.push(q);
            out
        }
    };
    let n_queries = st.sess.queries.len();
    let generation = slot.bump_generation();
    drop(st);
    Ok((
        200,
        Json::obj(vec![
            ("sql", Json::str(sql_out)),
            ("added", Json::Num(n as f64)),
            ("total_complaints", Json::Num(total as f64)),
            ("queries", Json::Num(n_queries as f64)),
            ("generation", Json::Num(generation as f64)),
        ]),
    ))
}

fn debug_run(state: &ServerState, name: &str, req: &Request) -> Result<(u16, Json), ApiError> {
    let body = body_json(req)?;
    let (method, mut cfg) = run_request_from_json(&body)?;
    let request_id = request_id_field(&body)?;
    if req.query_flag("profile") {
        cfg.profile = true;
    }
    let slot = state.pool.get(name)?;
    // The session's sampling period governs iteration profiling unless
    // the request pins its own.
    if body.get("sample_every").is_none() {
        cfg.sample_every = slot.sample_every() as usize;
    }
    let id = state.jobs.submit_tagged(slot, method, cfg, request_id);
    Ok((
        202,
        Json::obj(vec![
            ("job", Json::Num(id as f64)),
            ("status", Json::str("queued")),
        ]),
    ))
}

fn job_status(state: &ServerState, id: &str) -> Result<(u16, Json), ApiError> {
    let id: u64 = id
        .parse()
        .map_err(|_| ApiError::bad_request("job ids are integers"))?;
    let info = state.jobs.info(id)?;
    let mut pairs = vec![
        ("job", Json::Num(id as f64)),
        ("session", Json::str(info.session)),
        ("status", Json::str(info.state.label())),
    ];
    if let Some(rid) = info.request_id {
        pairs.push(("request_id", Json::str(rid)));
    }
    match info.state {
        JobState::Done(report) => pairs.push(("report", report_to_json(&report))),
        JobState::Failed(msg) => pairs.push(("error", Json::str(msg))),
        _ => {}
    }
    Ok((
        200,
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
    ))
}
