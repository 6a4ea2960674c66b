//! The client side: everything here talks to the server through
//! `rain_serve::Client` only, the way an analyst's tooling would, and
//! checks every answer it gets.
//!
//! The load is a closed loop — each client sends its next request only
//! after the previous reply — from one connection per session.

use crate::inputs::{Inputs, SessionInputs, K_PER_ITER};
use crate::layers;
use rain_serve::json::Json;
use rain_serve::{start, Client, ServerConfig, ServerHandle};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Operations attempted and failed. A wrong answer is a failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(what);
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// How long a phase runs: a share of `--seconds` (never fewer than `min`
/// operations), or — in the traced pass, so counts repeat exactly — a
/// fixed number of operations.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    After { seconds: f64, min: usize },
    Count(usize),
}

impl Stop {
    fn done(self, started: Instant, ops: usize) -> bool {
        match self {
            Stop::After { seconds, min } => {
                ops >= min && started.elapsed().as_secs_f64() >= seconds
            }
            Stop::Count(n) => ops >= n,
        }
    }
}

fn sql_body(sql: &str) -> Json {
    Json::obj(vec![("sql", Json::str(sql))])
}

fn rows_of(resp: &Json) -> Option<&Json> {
    resp.get("result").and_then(|r| r.get("rows"))
}

fn cache_of(resp: &Json) -> &str {
    resp.get("cache").and_then(Json::as_str).unwrap_or("?")
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A booted server with one connected client per session.
pub struct Booted {
    pub server: ServerHandle,
    pub clients: Vec<Client>,
    pub data_dir: PathBuf,
}

impl Booted {
    /// Hang up, stop the server (joins its accept and job threads) and
    /// delete its data directory.
    pub fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

/// Wall-clock of one set-up and of its two uploads.
pub struct SetupTimes {
    pub setup_s: f64,
    pub register_table_ms: Vec<f64>,
    pub upload_train_ms: Vec<f64>,
}

fn create_session(c: &mut Client, name: &str, model: &Json) -> io::Result<Json> {
    c.post_ok(
        "/sessions",
        &Json::obj(vec![("name", Json::str(name)), ("model", model.clone())]),
    )
}

/// Boot a durable server on `data_dir` and bring every session to the
/// point the timed phases start from: tables registered, training set
/// uploaded, complaint filed, every rotated query prepared and checked
/// against the in-process reference.
pub fn setup(
    inputs: &Inputs,
    reference: &[Vec<Json>],
    data_dir: &Path,
    checks: &mut Checks,
) -> io::Result<(Booted, SetupTimes)> {
    let t0 = Instant::now();
    let server = start(ServerConfig {
        data_dir: Some(data_dir.display().to_string()),
        ..Default::default()
    })?;
    let mut times = SetupTimes {
        setup_s: 0.0,
        register_table_ms: Vec::new(),
        upload_train_ms: Vec::new(),
    };
    let mut clients = Vec::new();
    for (s, want) in inputs.sessions.iter().zip(reference) {
        let mut c = Client::connect(server.addr())?;
        create_session(&mut c, &s.name, &s.model)?;
        for table in &s.tables {
            let t = Instant::now();
            c.post_ok(&format!("/sessions/{}/tables", s.name), table)?;
            times.register_table_ms.push(ms(t));
        }
        let t = Instant::now();
        c.post_ok(&format!("/sessions/{}/train", s.name), &s.train)?;
        times.upload_train_ms.push(ms(t));
        c.post_ok(&format!("/sessions/{}/complain", s.name), &s.complain)?;
        for (sql, want_rows) in s.queries.iter().zip(want) {
            let resp = c.post_ok(&format!("/sessions/{}/query", s.name), &sql_body(sql))?;
            checks.check(
                cache_of(&resp) == "miss" && rows_of(&resp) == Some(want_rows),
                || format!("cold query {sql:?} answered {resp}"),
            );
        }
        clients.push(c);
    }
    times.setup_s = t0.elapsed().as_secs_f64();
    Ok((
        Booted {
            server,
            clients,
            data_dir: data_dir.to_path_buf(),
        },
        times,
    ))
}

/// Latency of every cached query, and the wall-clock of the whole loop.
pub struct QueryStats {
    pub latency_ms: Vec<f64>,
    pub wall_s: f64,
}

/// Each client rotates through its session's cached queries until `stop`.
pub fn query_phase(
    clients: &mut [Client],
    inputs: &Inputs,
    reference: &[Vec<Json>],
    stop: Stop,
    checks: &mut Checks,
) -> io::Result<QueryStats> {
    let t0 = Instant::now();
    let per_client: Vec<io::Result<(Vec<f64>, Checks)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&inputs.sessions)
            .zip(reference)
            .map(|((c, s), want)| {
                scope.spawn(move || {
                    let path = format!("/sessions/{}/query", s.name);
                    let bodies: Vec<Json> = s.queries.iter().map(|q| sql_body(q)).collect();
                    let mut local = Checks::default();
                    let mut lat = Vec::new();
                    while !stop.done(t0, lat.len()) {
                        let qi = lat.len() % bodies.len();
                        let t = Instant::now();
                        let resp = c.post_ok(&path, &bodies[qi])?;
                        lat.push(ms(t));
                        local.check(
                            cache_of(&resp) == "hit" && rows_of(&resp) == Some(&want[qi]),
                            || format!("cached query {:?} answered {resp}", s.queries[qi]),
                        );
                    }
                    Ok((lat, local))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query client panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut latency_ms = Vec::new();
    for r in per_client {
        let (lat, local) = r?;
        latency_ms.extend(lat);
        checks.merge(local);
    }
    Ok(QueryStats { latency_ms, wall_s })
}

/// One debug run as the client saw it, plus what its report says.
#[derive(Debug, Clone)]
pub struct RunSample {
    pub method: &'static str,
    pub profiled: bool,
    /// `POST …/debug-run` sent → `done` report parsed.
    pub run_s: f64,
    pub polls: u64,
    /// Σ over the report's iterations (the paper's Figure 5 split).
    pub train_s: f64,
    pub encode_s: f64,
    pub rank_s: f64,
    pub iterations: usize,
    pub memo_hits: f64,
    pub memo_misses: f64,
    pub removed: Vec<usize>,
    pub auccr: f64,
}

/// `POST …/debug-run`, then poll `GET /jobs/{id}` every 2 ms to `done`.
pub fn debug_run(
    c: &mut Client,
    inputs: &Inputs,
    method: &'static str,
    profiled: bool,
    checks: &mut Checks,
) -> io::Result<RunSample> {
    let (s, budget) = (&inputs.sessions[0], inputs.budget);
    let path = format!(
        "/sessions/{}/debug-run{}",
        s.name,
        if profiled { "?profile=1" } else { "" }
    );
    let body = Json::obj(vec![
        ("method", Json::str(method)),
        ("budget", Json::num(budget as f64)),
        ("k_per_iter", Json::num(K_PER_ITER as f64)),
    ]);
    let t0 = Instant::now();
    let queued = c.post_ok(&path, &body)?;
    let job = queued.get("job").and_then(Json::as_i64).unwrap_or(-1);
    let job_path = format!("/jobs/{job}");
    let mut polls = 0u64;
    let status = loop {
        let v = c.get_ok(&job_path)?;
        polls += 1;
        match v.get("status").and_then(Json::as_str) {
            Some("queued" | "running") => std::thread::sleep(Duration::from_millis(2)),
            _ => break v,
        }
    };
    let run_s = t0.elapsed().as_secs_f64();
    let report = status.get("report").cloned().unwrap_or(Json::Null);
    let iters = report
        .get("iterations")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    let sum = |key: &str| -> f64 {
        iters
            .iter()
            .filter_map(|it| it.get(key).and_then(Json::as_f64))
            .sum()
    };
    let removed: Vec<usize> = report
        .get("removed")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_usize)
        .collect();
    let num = |key: &str| report.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let auccr = layers::auccr(&removed, &s.truth);
    checks.check(
        status.get("status").and_then(Json::as_str) == Some("done")
            && report.get("failure").is_some_and(Json::is_null)
            && iters.len() == budget.div_ceil(K_PER_ITER)
            && removed.len() == budget
            && report
                .get("profile")
                .is_some_and(|p| p.is_null() != profiled)
            && (method != "holistic" || auccr >= inputs.auccr_floor),
        || {
            format!(
                "{method} run: status {:?}, failure {:?}, {} iterations, {} removed, AUCCR {auccr}",
                status.get("status"),
                report.get("failure"),
                iters.len(),
                removed.len()
            )
        },
    );
    Ok(RunSample {
        method,
        profiled,
        run_s,
        polls,
        train_s: sum("train_s"),
        encode_s: sum("encode_s"),
        rank_s: sum("rank_s"),
        iterations: iters.len(),
        memo_hits: num("memo_hits"),
        memo_misses: num("memo_misses"),
        auccr,
        removed,
    })
}

/// Holistic and TwoStep runs on the first session, alternating, until
/// `stop` (counted in pairs). Runs do not mutate the session.
pub fn debug_phase(
    c: &mut Client,
    inputs: &Inputs,
    stop: Stop,
    checks: &mut Checks,
) -> io::Result<Vec<RunSample>> {
    let t0 = Instant::now();
    let mut runs = Vec::new();
    while !stop.done(t0, runs.len() / 2) {
        for method in ["holistic", "twostep"] {
            runs.push(debug_run(c, inputs, method, false, checks)?);
        }
    }
    Ok(runs)
}

/// What the ingest episodes measured.
#[derive(Debug, Default)]
pub struct IngestStats {
    pub append_ms: Vec<f64>,
    pub rows_acked: u64,
    /// First query after each append (invalidated → re-prepared).
    pub append_to_query_ms: Vec<f64>,
    /// Per episode: second server `start` → session answers.
    pub recovery_s: Vec<f64>,
    /// Per episode: bytes under the session's directory ÷ user bytes.
    pub storage_amp: Vec<f64>,
    /// Storage counters of the last episode's session (exact counts).
    pub log_bytes: f64,
    pub log_records: f64,
    pub snapshots: f64,
}

fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.metadata()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), &dest)?;
        }
    }
    Ok(())
}

/// One ingest episode on a fresh durable session, so every episode walks
/// the same states whatever the machine's speed: register the tables,
/// then per round append → first query (invalidated) → row count → the
/// same query again (hit). Then copy the session's directory right after
/// the last ack — while the server is still up, so nothing a shutdown
/// would flush counts — boot a second server on the copy and time until
/// the session answers what the first one did.
fn ingest_episode(
    booted: &mut Booted,
    s: &SessionInputs,
    episode: usize,
    stats: &mut IngestStats,
    checks: &mut Checks,
) -> io::Result<()> {
    let c = &mut booted.clients[0];
    let name = format!("ingest{episode}");
    create_session(c, &name, &s.model)?;
    for table in &s.tables {
        c.post_ok(&format!("/sessions/{name}/tables"), table)?;
    }
    let query_path = format!("/sessions/{name}/query");
    let query = sql_body(&s.queries[0]);
    let count = sql_body(&format!("SELECT COUNT(*) FROM {}", s.append_table));
    c.post_ok(&query_path, &query)?;
    let append_path = format!("/sessions/{name}/tables/{}/append", s.append_table);
    let mut last = (Json::Null, Json::Null);
    let mut sent = s.base_rows;
    for body in &s.appends {
        let t = Instant::now();
        let ack = c.post_ok(&append_path, body)?;
        stats.append_ms.push(ms(t));
        let appended = ack.get("appended").and_then(Json::as_usize).unwrap_or(0);
        stats.rows_acked += appended as u64;
        sent += appended;
        let total = ack.get("rows").cloned().unwrap_or(Json::Null);

        let t = Instant::now();
        let first = c.post_ok(&query_path, &query)?;
        stats.append_to_query_ms.push(ms(t));
        let counted = c.post_ok(&query_path, &count)?;
        let again = c.post_ok(&query_path, &query)?;
        checks.check(
            cache_of(&first) == "invalidated"
                && cache_of(&again) == "hit"
                && rows_of(&again) == rows_of(&first)
                && rows_of(&counted) == Some(&Json::Arr(vec![Json::Arr(vec![total.clone()])])),
            || format!("append round: acked {ack}, counted {counted}, {first} then {again}"),
        );
        last = (
            rows_of(&first).cloned().unwrap_or(Json::Null),
            rows_of(&counted).cloned().unwrap_or(Json::Null),
        );
    }
    checks.check(
        last.1 == Json::Arr(vec![Json::Arr(vec![Json::num(sent as f64)])]),
        || format!("episode ended with {} rows, sent {sent}", last.1),
    );

    let listing = c.get_ok("/sessions")?;
    let storage = listing
        .get("sessions")
        .and_then(Json::as_arr)
        .and_then(|all| {
            all.iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(&name))
        })
        .and_then(|e| e.get("storage"))
        .cloned()
        .unwrap_or(Json::Null);
    let counter = |key: &str| storage.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    stats.log_bytes = counter("log_bytes");
    stats.log_records = counter("log_records");
    stats.snapshots = counter("snapshots");

    let live = booted.data_dir.join("sessions").join(&name);
    stats
        .storage_amp
        .push(dir_bytes(&live)? as f64 / s.episode_user_bytes as f64);
    let copy = booted.data_dir.with_extension(format!("copy{episode}"));
    copy_dir(&live, &copy.join("sessions").join(&name))?;

    let t = Instant::now();
    let second = start(ServerConfig {
        data_dir: Some(copy.display().to_string()),
        ..Default::default()
    })?;
    let mut c2 = Client::connect(second.addr())?;
    let attached = create_session(&mut c2, &name, &s.model)?;
    let first = c2.post_ok(&query_path, &query)?;
    let counted = c2.post_ok(&query_path, &count)?;
    stats.recovery_s.push(t.elapsed().as_secs_f64());
    checks.check(
        attached.get("recovered").and_then(Json::as_bool) == Some(true)
            && rows_of(&first) == Some(&last.0)
            && rows_of(&counted) == Some(&last.1),
        || format!("after recovery: {attached}, {first}, {counted}; before: {last:?}"),
    );
    drop(c2);
    second.shutdown();
    std::fs::remove_dir_all(&copy)?;
    booted.clients[0].delete(&format!("/sessions/{name}"))?;
    Ok(())
}

/// Ingest episodes until `stop`, on the first session's data.
pub fn ingest_phase(
    booted: &mut Booted,
    inputs: &Inputs,
    stop: Stop,
    checks: &mut Checks,
) -> io::Result<IngestStats> {
    let t0 = Instant::now();
    let mut stats = IngestStats::default();
    let mut episode = 0;
    while !stop.done(t0, episode) {
        ingest_episode(booted, &inputs.sessions[0], episode, &mut stats, checks)?;
        episode += 1;
    }
    Ok(stats)
}

/// Server-side counters only the wire can give: `GET /metrics` sketches
/// and `GET /stats` cache totals.
pub struct ServerCounters {
    pub lock_wait_s: f64,
    pub job_queue_wait_ms: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub cache_invalidations: f64,
}

pub fn scrape(c: &mut Client) -> io::Result<ServerCounters> {
    let (_, text) = c.get_text("/metrics")?;
    let value = |name: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
            .unwrap_or(0.0)
    };
    let waits = value("rain_job_queue_wait_seconds_count").max(1.0);
    let stats = c.get_ok("/stats")?;
    let cache = |key: &str| {
        stats
            .get("cache")
            .and_then(|c| c.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    Ok(ServerCounters {
        lock_wait_s: value("rain_session_lock_wait_seconds_sum"),
        job_queue_wait_ms: value("rain_job_queue_wait_seconds_sum") / waits * 1e3,
        cache_hits: cache("hits"),
        cache_misses: cache("misses"),
        cache_invalidations: cache("invalidations"),
    })
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
