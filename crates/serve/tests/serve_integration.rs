//! Multi-threaded integration tests for the serving layer: N client
//! threads against one server doing register/query/debug concurrently,
//! asserting per-session serialization, cross-session parallelism,
//! cache-hit counters, transparent invalidation, and the protocol error
//! paths.

use rain_obs::{parse_exposition, Metric};
use rain_serve::json::Json;
use rain_serve::{start, Client, ServerConfig};
use std::time::{Duration, Instant};

/// A linearly separable toy table: `n` rows, 1-D features, class 1 iff
/// the feature is positive. `positives` of the rows are positive.
fn table_json(name: &str, n: usize, positives: usize) -> Json {
    let ids: Vec<Json> = (0..n).map(|i| Json::num(i as f64)).collect();
    let feats: Vec<Json> = (0..n)
        .map(|i| {
            let x = if i < positives {
                1.0 + (i % 3) as f64 * 0.2
            } else {
                -1.0 - (i % 3) as f64 * 0.2
            };
            Json::Arr(vec![Json::num(x)])
        })
        .collect();
    Json::obj(vec![
        ("name", Json::str(name)),
        (
            "columns",
            Json::Arr(vec![Json::obj(vec![
                ("name", Json::str("id")),
                ("type", Json::str("int")),
                ("values", Json::Arr(ids)),
            ])]),
        ),
        ("features", Json::Arr(feats)),
    ])
}

/// A 1-D training set with `flipped` of the positive labels corrupted to
/// class 0 — the debugging target.
fn train_json(n: usize, flipped: usize) -> Json {
    let mut feats = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let positive = i % 2 == 0;
        let x = if positive { 1.0 } else { -1.0 } * (1.0 + (i % 5) as f64 * 0.1);
        feats.push(Json::Arr(vec![Json::num(x)]));
        let mut y = positive as usize;
        if positive && i / 2 < flipped {
            y = 0; // corrupted match label
        }
        labels.push(Json::num(y as f64));
    }
    Json::obj(vec![
        ("features", Json::Arr(feats)),
        ("labels", Json::Arr(labels)),
        ("classes", Json::num(2.0)),
    ])
}

fn logistic_session(name: &str) -> Json {
    Json::obj(vec![
        ("name", Json::str(name)),
        (
            "model",
            Json::obj(vec![
                ("kind", Json::str("logistic")),
                ("dim", Json::num(1.0)),
                ("l2", Json::num(0.01)),
            ]),
        ),
    ])
}

/// Append `pairs` to a JSON object body.
fn with_keys(mut body: Json, pairs: Vec<(&str, Json)>) -> Json {
    if let Json::Obj(obj) = &mut body {
        obj.extend(pairs.into_iter().map(|(k, v)| (k.to_string(), v)));
    }
    body
}

/// A `POST …/complain` body: the scalar answer of `sql` should equal
/// `target`.
fn count_complaint(sql: &str, target: f64) -> Json {
    Json::obj(vec![
        ("sql", Json::str(sql)),
        (
            "complaint",
            Json::obj(vec![
                ("kind", Json::str("value")),
                ("op", Json::str("eq")),
                ("target", Json::num(target)),
            ]),
        ),
    ])
}

/// Poll a job until it settles; panics on timeout or failure.
fn await_job(client: &mut Client, id: i64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let v = client.get_ok(&format!("/jobs/{id}")).unwrap();
        match v.get("status").unwrap().as_str().unwrap() {
            "done" => return v,
            "failed" => panic!("job {id} failed: {v}"),
            _ => {
                assert!(Instant::now() < deadline, "job {id} never settled");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// The acceptance-criteria scenario: 16 client threads, one session
/// each, concurrently registering tables, querying (five times — every
/// repeat must hit the skeleton cache), filing complaints, and running debug
/// jobs. Everything completes without deadlock or cross-session
/// interference, and the cache-hit counters are visible on the wire.
#[test]
fn sixteen_concurrent_clients_query_and_debug_without_interference() {
    let server = start(ServerConfig {
        job_workers: 4,
        ..Default::default()
    })
    .unwrap();
    let addr = server.addr();

    let threads: Vec<_> = (0..16)
        .map(|ci| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let session = format!("client-{ci}");
                client
                    .post_ok("/sessions", &logistic_session(&session))
                    .unwrap();
                // Distinct data per session so cross-talk would be visible.
                let n = 20 + ci;
                let positives = 6 + ci % 5;
                client
                    .post_ok(
                        &format!("/sessions/{session}/tables"),
                        &table_json("pairs", n, positives),
                    )
                    .unwrap();
                client
                    .post_ok(&format!("/sessions/{session}/train"), &train_json(40, 8))
                    .unwrap();

                let sql = "SELECT COUNT(*) FROM pairs WHERE predict(*) = 1";
                let q = Json::obj(vec![("sql", Json::str(sql))]);
                let first = client
                    .post_ok(&format!("/sessions/{session}/query"), &q)
                    .unwrap();
                assert_eq!(first.get("cache").unwrap().as_str(), Some("miss"));
                // Different spelling, same statement: must hit the cache.
                let q2 = Json::obj(vec![(
                    "sql",
                    Json::str("select  count(*)  from PAIRS where predict(*) = 1"),
                )]);
                let second = client
                    .post_ok(&format!("/sessions/{session}/query"), &q2)
                    .unwrap();
                assert_eq!(second.get("cache").unwrap().as_str(), Some("hit"));
                assert_eq!(
                    second
                        .get("cache_stats")
                        .unwrap()
                        .get("hits")
                        .unwrap()
                        .as_i64(),
                    Some(1)
                );
                // Results are this session's data, not a neighbor's.
                let rows = first.get("result").unwrap().get("rows").unwrap();
                assert_eq!(rows, second.get("result").unwrap().get("rows").unwrap());
                // Every further repeat hits too, with the same count.
                for hits in 2..=4 {
                    let again = client
                        .post_ok(&format!("/sessions/{session}/query"), &q)
                        .unwrap();
                    assert_eq!(again.get("cache").unwrap().as_str(), Some("hit"));
                    let stats = again.get("cache_stats").unwrap();
                    assert_eq!(stats.get("hits").unwrap().as_i64(), Some(hits));
                    assert_eq!(rows, again.get("result").unwrap().get("rows").unwrap());
                }

                client
                    .post_ok(
                        &format!("/sessions/{session}/complain"),
                        &count_complaint(sql, positives as f64),
                    )
                    .unwrap();
                let run = client
                    .post_ok(
                        &format!("/sessions/{session}/debug-run"),
                        &Json::obj(vec![
                            ("method", Json::str("loss")),
                            ("budget", Json::num(4.0)),
                            ("k_per_iter", Json::num(2.0)),
                        ]),
                    )
                    .unwrap();
                let job = run.get("job").unwrap().as_i64().unwrap();
                let done = await_job(&mut client, job);
                let report = done.get("report").unwrap();
                let removed = report.get("removed").unwrap().as_arr().unwrap();
                assert!(removed.len() <= 4, "budget respected");
                assert_eq!(done.get("session").unwrap().as_str().unwrap(), session);
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread panicked");
    }

    // Server-wide counters: all sessions live, every repeat query hit.
    let mut client = Client::connect(addr).unwrap();
    let stats = client.get_ok("/stats").unwrap();
    assert_eq!(stats.get("sessions").unwrap().as_i64(), Some(16));
    let cache = stats.get("cache").unwrap();
    assert!(
        cache.get("hits").unwrap().as_i64().unwrap() >= 64,
        "expected ≥64 cache hits, got {cache}"
    );
    let jobs = stats.get("jobs").unwrap();
    assert_eq!(jobs.get("done").unwrap().as_i64(), Some(16));
    assert_eq!(jobs.get("failed").unwrap().as_i64(), Some(0));
    server.shutdown();
}

/// Per-session serialization: concurrent mutations against one session
/// each land a distinct generation (the counter is bumped under the
/// session mutex), and the final generation equals the mutation count.
#[test]
fn mutations_on_one_session_serialize() {
    let server = start(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let mut setup = Client::connect(addr).unwrap();
    setup
        .post_ok("/sessions", &logistic_session("shared"))
        .unwrap();

    const THREADS: usize = 4;
    const PER_THREAD: usize = 25;
    let threads: Vec<_> = (0..THREADS)
        .map(|ti| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut gens = Vec::with_capacity(PER_THREAD);
                for i in 0..PER_THREAD {
                    let v = client
                        .post_ok(
                            "/sessions/shared/tables",
                            &table_json("pairs", 8 + (ti + i) % 3, 4),
                        )
                        .unwrap();
                    gens.push(v.get("generation").unwrap().as_i64().unwrap());
                }
                gens
            })
        })
        .collect();
    let mut all_gens: Vec<i64> = threads
        .into_iter()
        .flat_map(|t| t.join().expect("mutator panicked"))
        .collect();
    all_gens.sort_unstable();
    let expected: Vec<i64> = (1..=(THREADS * PER_THREAD) as i64).collect();
    assert_eq!(
        all_gens, expected,
        "every mutation must land its own generation"
    );
    server.shutdown();
}

/// Re-registering a queried table invalidates the cached skeleton and the
/// next query transparently re-prepares against the new data.
#[test]
fn reregistration_invalidates_and_transparently_reprepares() {
    let server = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .post_ok("/sessions", &logistic_session("inv"))
        .unwrap();
    client
        .post_ok("/sessions/inv/tables", &table_json("pairs", 10, 4))
        .unwrap();
    // A model-free count: its value is a pure function of the registered
    // data, so it pins exactly what invalidation must refresh.
    let q = Json::obj(vec![("sql", Json::str("SELECT COUNT(*) FROM pairs"))]);
    let first = client.post_ok("/sessions/inv/query", &q).unwrap();
    assert_eq!(first.get("cache").unwrap().as_str(), Some("miss"));
    let count = |v: &Json| {
        v.get("result")
            .unwrap()
            .get("rows")
            .unwrap()
            .as_arr()
            .unwrap()[0]
            .as_arr()
            .unwrap()[0]
            .as_i64()
            .unwrap()
    };
    assert_eq!(count(&first), 10);

    // Replace the table with a larger one.
    client
        .post_ok("/sessions/inv/tables", &table_json("pairs", 14, 7))
        .unwrap();
    let second = client.post_ok("/sessions/inv/query", &q).unwrap();
    assert_eq!(second.get("cache").unwrap().as_str(), Some("invalidated"));
    assert_eq!(count(&second), 14, "result reflects the new data");
    let third = client.post_ok("/sessions/inv/query", &q).unwrap();
    assert_eq!(third.get("cache").unwrap().as_str(), Some("hit"));
    assert_eq!(
        third
            .get("cache_stats")
            .unwrap()
            .get("invalidations")
            .unwrap()
            .as_i64(),
        Some(1)
    );
    server.shutdown();
}

/// Cross-session parallelism: debug jobs against distinct sessions
/// occupy multiple workers at once (`peak_running ≥ 2`), while two jobs
/// against the *same* session serialize on its mutex and both finish.
#[test]
fn debug_jobs_run_in_parallel_across_sessions() {
    let server = start(ServerConfig {
        job_workers: 4,
        ..Default::default()
    })
    .unwrap();
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();

    // Four sessions with enough work per job (~hundreds of ms each) that
    // the four workers demonstrably overlap.
    for si in 0..4 {
        let name = format!("par-{si}");
        client
            .post_ok("/sessions", &logistic_session(&name))
            .unwrap();
        client
            .post_ok(
                &format!("/sessions/{name}/tables"),
                &table_json("pairs", 60, 24),
            )
            .unwrap();
        client
            .post_ok(&format!("/sessions/{name}/train"), &train_json(2000, 300))
            .unwrap();
        client
            .post_ok(
                &format!("/sessions/{name}/complain"),
                &count_complaint("SELECT COUNT(*) FROM pairs WHERE predict(*) = 1", 24.0),
            )
            .unwrap();
    }
    // Submit all four concurrently (sequential HTTP round-trips would
    // let a fast worker drain job N before job N+1 even arrives), then
    // one duplicate on session 0 (it must queue behind the first job's
    // session lock, not deadlock).
    let submitters: Vec<_> = (0..4)
        .map(|si| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let run = c
                    .post_ok(
                        &format!("/sessions/par-{si}/debug-run"),
                        &Json::obj(vec![
                            ("method", Json::str("holistic")),
                            ("budget", Json::num(40.0)),
                            ("k_per_iter", Json::num(5.0)),
                        ]),
                    )
                    .unwrap();
                run.get("job").unwrap().as_i64().unwrap()
            })
        })
        .collect();
    let mut job_ids: Vec<i64> = submitters
        .into_iter()
        .map(|t| t.join().expect("submitter panicked"))
        .collect();
    let rerun = client
        .post_ok(
            "/sessions/par-0/debug-run",
            &Json::obj(vec![
                ("method", Json::str("loss")),
                ("budget", Json::num(5.0)),
            ]),
        )
        .unwrap();
    job_ids.push(rerun.get("job").unwrap().as_i64().unwrap());

    for id in &job_ids {
        await_job(&mut client, *id);
    }
    let stats = client.get_ok("/stats").unwrap();
    let jobs = stats.get("jobs").unwrap();
    assert_eq!(jobs.get("done").unwrap().as_i64(), Some(5));
    assert!(
        jobs.get("peak_running").unwrap().as_i64().unwrap() >= 2,
        "jobs on distinct sessions must overlap; stats: {jobs}"
    );
    server.shutdown();
}

/// Create session `name` with a 30-row `pairs` table, a training set and
/// one count complaint over `pairs` — ready for a debug run.
fn debug_ready_session(client: &mut Client, name: &str, session: Json) {
    client.post_ok("/sessions", &session).unwrap();
    client
        .post_ok(
            &format!("/sessions/{name}/tables"),
            &table_json("pairs", 30, 10),
        )
        .unwrap();
    client
        .post_ok(&format!("/sessions/{name}/train"), &train_json(60, 10))
        .unwrap();
    client
        .post_ok(
            &format!("/sessions/{name}/complain"),
            &count_complaint("SELECT COUNT(*) FROM pairs WHERE predict(*) = 1", 10.0),
        )
        .unwrap();
}

/// A second debug run over the same complaints starts from cache hits:
/// its skeletons were checked back in by the first run.
#[test]
fn successive_debug_runs_reuse_cached_skeletons() {
    let server = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    debug_ready_session(&mut client, "warm", logistic_session("warm"));
    let run_once = |client: &mut Client| {
        let run = client
            .post_ok(
                "/sessions/warm/debug-run",
                &Json::obj(vec![
                    ("method", Json::str("loss")),
                    ("budget", Json::num(4.0)),
                    ("k_per_iter", Json::num(2.0)),
                ]),
            )
            .unwrap();
        let id = run.get("job").unwrap().as_i64().unwrap();
        await_job(client, id);
    };
    run_once(&mut client);
    run_once(&mut client);
    let sessions = client.get_ok("/sessions").unwrap();
    let warm = &sessions.get("sessions").unwrap().as_arr().unwrap()[0];
    let cache = warm.get("cache").unwrap();
    assert_eq!(cache.get("misses").unwrap().as_i64(), Some(1), "{cache}");
    assert!(
        cache.get("hits").unwrap().as_i64().unwrap() >= 1,
        "second run must check out the first run's skeleton: {cache}"
    );
    server.shutdown();
}

/// A run's `skeleton_rebuilds` counts the checkouts that found a queried
/// table changed since the session's cache last saw it: an append between
/// two runs is one rebuild, and the run after that reads zero again.
#[test]
fn skeleton_rebuilds_count_tables_changed_between_runs() {
    let server = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    debug_ready_session(&mut client, "grow", logistic_session("grow"));
    let rebuilds = |client: &mut Client| {
        let body = Json::obj(vec![
            ("method", Json::str("loss")),
            ("budget", Json::num(4.0)),
            ("k_per_iter", Json::num(2.0)),
        ]);
        let ack = client.post_ok("/sessions/grow/debug-run", &body).unwrap();
        let done = await_job(client, ack.get("job").unwrap().as_i64().unwrap());
        let report = done.get("report").unwrap();
        report.get("skeleton_rebuilds").unwrap().as_i64().unwrap()
    };
    assert_eq!(rebuilds(&mut client), 0, "first run prepares from scratch");
    let append = Json::obj(vec![
        ("rows", Json::Arr(vec![Json::Arr(vec![Json::num(30.0)])])),
        ("features", Json::Arr(vec![Json::Arr(vec![Json::num(1.5)])])),
    ]);
    client
        .post_ok("/sessions/grow/tables/pairs/append", &append)
        .unwrap();
    assert_eq!(
        rebuilds(&mut client),
        1,
        "the append invalidated the skeleton"
    );
    assert_eq!(rebuilds(&mut client), 0, "the rebuilt skeleton is current");
    server.shutdown();
}

/// A debug-run key that is present must hold what it names: a wrong type
/// is a 400 naming the field, not a run under the default. In particular
/// a malformed `sample_every` must not override a session that turned
/// sampling off.
#[test]
fn debug_run_fields_of_the_wrong_type_answer_400() {
    let server = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let session = with_keys(
        logistic_session("typed"),
        vec![("sample_every", Json::num(0.0))],
    );
    debug_ready_session(&mut client, "typed", session);
    let body = |extra: Vec<(&str, Json)>| {
        with_keys(
            Json::obj(vec![
                ("method", Json::str("loss")),
                ("budget", Json::num(4.0)),
            ]),
            extra,
        )
    };
    for (field, value) in [
        ("k_per_iter", Json::num(-1.0)),
        ("k_per_iter", Json::str("2")),
        ("sample_every", Json::str("x")),
        ("profile", Json::num(1.0)),
        ("stop_when_satisfied", Json::str("yes")),
        ("request_id", Json::num(7.0)),
    ] {
        let (status, resp) = client
            .post("/sessions/typed/debug-run", &body(vec![(field, value)]))
            .unwrap();
        assert_eq!(status, 400, "{field}: {resp}");
        let msg = resp.get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains(field), "{field}: {msg}");
    }
    // The same session still runs, unsampled as it was created.
    let ack = client
        .post_ok("/sessions/typed/debug-run", &body(vec![]))
        .unwrap();
    let done = await_job(&mut client, ack.get("job").unwrap().as_i64().unwrap());
    let report = done.get("report").unwrap();
    assert_eq!(report.get("removed").unwrap().as_arr().unwrap().len(), 4);
    let sampled = report.get("iteration_profiles").unwrap().as_arr().unwrap();
    assert!(sampled.is_empty(), "{report}");
    server.shutdown();
}

/// Session-creation keys that are present must hold what they name: a
/// wrong type or a negative count is a 400 naming the field, never a
/// session under the default, and the refused name stays free. A negative
/// `l2` would trip every model's non-negative assertion in the connection
/// thread and drop the connection unanswered; all rows run on one
/// keep-alive client, so each later one shows the connection still serves.
#[test]
fn session_fields_of_the_wrong_type_answer_400() {
    let server = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let model = |kind: &str, key: &str, value: Json| {
        let spec = Json::obj(vec![
            ("kind", Json::str(kind)),
            ("dim", Json::num(1.0)),
            ("classes", Json::num(2.0)),
            (key, value),
        ]);
        vec![("model", spec)]
    };
    for (field, extra) in [
        ("l2", model("logistic", "l2", Json::num(-1.0))),
        ("l2", model("softmax", "l2", Json::num(-1.0))),
        ("l2", model("mlp", "l2", Json::num(-1.0))),
        ("l2", model("mlp", "l2", Json::str("0.1"))),
        ("hidden", model("mlp", "hidden", Json::num(2.5))),
        ("seed", model("mlp", "seed", Json::num(-3.0))),
        ("sample_every", vec![("sample_every", Json::num(-1.0))]),
        ("slow_ms", vec![("slow_ms", Json::str("fast"))]),
    ] {
        let body = with_keys(logistic_session("typed"), extra);
        let (status, resp) = client.post("/sessions", &body).unwrap();
        assert_eq!(status, 400, "{field}: {resp}");
        let msg = resp.get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains(field), "{field}: {msg}");
    }
    let created = client
        .post_ok(
            "/sessions",
            &with_keys(
                logistic_session("typed"),
                vec![
                    ("sample_every", Json::num(0.0)),
                    ("slow_ms", Json::num(9.0)),
                ],
            ),
        )
        .unwrap();
    assert_eq!(created.get("sample_every").unwrap().as_i64(), Some(0));
    assert_eq!(created.get("slow_ms").unwrap().as_i64(), Some(9));
    server.shutdown();
}

/// Query keys that are present must hold what they name: an `analyze`
/// that is not a boolean is not an unanalyzed query, and a `request_id`
/// that is not a string is not an untagged one.
#[test]
fn query_fields_of_the_wrong_type_answer_400() {
    let server = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .post_ok("/sessions", &logistic_session("typed"))
        .unwrap();
    client
        .post_ok("/sessions/typed/tables", &table_json("pairs", 6, 3))
        .unwrap();
    let body = |extra: Vec<(&str, Json)>| {
        let sql = Json::str("SELECT COUNT(*) FROM pairs WHERE predict(*) = 1");
        with_keys(Json::obj(vec![("sql", sql)]), extra)
    };
    for (field, value) in [
        ("analyze", Json::str("yes")),
        ("analyze", Json::num(1.0)),
        ("request_id", Json::num(7.0)),
    ] {
        let (status, resp) = client
            .post("/sessions/typed/query", &body(vec![(field, value)]))
            .unwrap();
        assert_eq!(status, 400, "{field}: {resp}");
        let msg = resp.get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains(field), "{field}: {msg}");
    }
    let answer = client
        .post_ok(
            "/sessions/typed/query",
            &body(vec![("request_id", Json::str("r-1"))]),
        )
        .unwrap();
    assert!(answer.get("result").is_some(), "{answer}");
    server.shutdown();
}

/// `…/complain` bodies whose fields have the wrong type answer 400 naming
/// the field and file nothing: a cell coordinate that is not a
/// non-negative integer must not become a complaint about row 0, and a
/// `complaints` that is not an array must not be dropped.
#[test]
fn complaint_fields_of_the_wrong_type_answer_400() {
    let server = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .post_ok("/sessions", &logistic_session("typed"))
        .unwrap();
    client
        .post_ok("/sessions/typed/tables", &table_json("pairs", 6, 3))
        .unwrap();
    let sql = "SELECT COUNT(*) FROM pairs WHERE predict(*) = 1";
    let valid = count_complaint(sql, 2.0).get("complaint").unwrap().clone();
    let cell = |key: &str, value: Json| with_keys(valid.clone(), vec![(key, value)]);
    for (field, body) in [
        ("row", vec![("complaint", cell("row", Json::str("3")))]),
        ("row", vec![("complaint", cell("row", Json::num(-1.0)))]),
        ("agg", vec![("complaint", cell("agg", Json::num(0.5)))]),
        (
            "complaints",
            vec![("complaint", valid.clone()), ("complaints", valid.clone())],
        ),
    ] {
        let body = with_keys(Json::obj(vec![("sql", Json::str(sql))]), body);
        let (status, resp) = client.post("/sessions/typed/complain", &body).unwrap();
        assert_eq!(status, 400, "{field}: {resp}");
        let msg = resp.get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains(&format!("'{field}'")), "{field}: {msg}");
    }
    // Nothing was filed; a well-typed complaint is the session's first.
    let ok = client
        .post_ok(
            "/sessions/typed/complain",
            &with_keys(
                Json::obj(vec![("sql", Json::str(sql))]),
                vec![("complaints", Json::Arr(vec![cell("row", Json::num(0.0))]))],
            ),
        )
        .unwrap();
    assert_eq!(ok.get("total_complaints").and_then(Json::as_f64), Some(1.0));
    server.shutdown();
}

/// Protocol error paths: malformed requests, unknown sessions, stale job
/// ids, duplicate sessions, bad SQL — each with the right status code,
/// none of them wedging the connection.
#[test]
fn protocol_error_paths() {
    let server = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Unknown route and unknown session.
    assert_eq!(client.get("/nope").unwrap().0, 404);
    assert_eq!(
        client
            .post(
                "/sessions/ghost/query",
                &Json::obj(vec![("sql", Json::str("SELECT COUNT(*) FROM t"))]),
            )
            .unwrap()
            .0,
        404
    );
    // Stale/unknown job id, non-numeric job id.
    assert_eq!(client.get("/jobs/999").unwrap().0, 404);
    assert_eq!(client.get("/jobs/xyz").unwrap().0, 400);

    // Malformed JSON body, sent over a raw socket (the typed client can
    // only produce valid JSON).
    {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
        let body = "{not json";
        write!(
            raw,
            "POST /sessions HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .unwrap();
        let mut resp = String::new();
        raw.read_to_string(&mut resp).unwrap();
        assert!(
            resp.starts_with("HTTP/1.1 400"),
            "malformed JSON must 400, got: {}",
            resp.lines().next().unwrap_or("")
        );
        assert!(resp.contains("invalid JSON"), "{resp}");
    }
    // A well-formed JSON body of the wrong shape is also a 400.
    let (status, body) = client
        .request("POST", "/sessions", Some(&Json::str("not an object")))
        .unwrap();
    assert_eq!(status, 400, "{body}");

    // Session lifecycle conflicts and validation.
    client
        .post_ok("/sessions", &logistic_session("errs"))
        .unwrap();
    assert_eq!(
        client
            .post("/sessions", &logistic_session("errs"))
            .unwrap()
            .0,
        409
    );
    assert_eq!(
        client
            .post(
                "/sessions",
                &Json::obj(vec![("name", Json::str("bad/name"))])
            )
            .unwrap()
            .0,
        400
    );

    // Query against an empty catalog / bad SQL.
    assert_eq!(
        client
            .post(
                "/sessions/errs/query",
                &Json::obj(vec![("sql", Json::str("SELECT COUNT(*) FROM missing"))]),
            )
            .unwrap()
            .0,
        400
    );
    assert_eq!(
        client
            .post(
                "/sessions/errs/query",
                &Json::obj(vec![("sql", Json::str("SELEC nonsense"))]),
            )
            .unwrap()
            .0,
        400
    );
    // Complaint with no complaints; debug-run without method.
    assert_eq!(
        client
            .post(
                "/sessions/errs/complain",
                &Json::obj(vec![("sql", Json::str("SELECT COUNT(*) FROM pairs"))]),
            )
            .unwrap()
            .0,
        400
    );
    assert_eq!(
        client
            .post(
                "/sessions/errs/debug-run",
                &Json::obj(vec![("budget", Json::num(4.0))])
            )
            .unwrap()
            .0,
        400
    );
    // Train dim mismatch.
    client
        .post_ok("/sessions/errs/tables", &table_json("pairs", 6, 3))
        .unwrap();
    let bad_train = Json::obj(vec![
        (
            "features",
            Json::Arr(vec![Json::Arr(vec![Json::num(1.0), Json::num(2.0)])]),
        ),
        ("labels", Json::Arr(vec![Json::num(0.0)])),
        ("classes", Json::num(2.0)),
    ]);
    assert_eq!(
        client.post("/sessions/errs/train", &bad_train).unwrap().0,
        400
    );

    // The connection still works after every error.
    let ok = client
        .post_ok(
            "/sessions/errs/query",
            &Json::obj(vec![("sql", Json::str("SELECT COUNT(*) FROM pairs"))]),
        )
        .unwrap();
    assert_eq!(ok.get("cache").unwrap().as_str(), Some("miss"));
    // Dropping the session 404s subsequent use.
    client.delete("/sessions/errs").unwrap();
    assert!(!client
        .get("/sessions")
        .unwrap()
        .1
        .to_string()
        .contains("errs"));
    server.shutdown();
}

/// A labelled-prediction complaint naming a class the session's model does
/// not have is a 400 at `…/complain`, and adds nothing: accepted, it would
/// fail the next debug run.
#[test]
fn out_of_range_complaint_class_is_rejected() {
    let server = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .post_ok("/sessions", &logistic_session("cls"))
        .unwrap();
    client
        .post_ok("/sessions/cls/tables", &table_json("pairs", 6, 3))
        .unwrap();
    let sql = "SELECT COUNT(*) FROM pairs WHERE predict(*) = 1";
    let labelled = |class: f64| {
        Json::obj(vec![
            ("kind", Json::str("prediction_is")),
            ("table", Json::str("pairs")),
            ("row", Json::num(4.0)),
            ("class", Json::num(class)),
        ])
    };
    let (status, body) = client
        .post(
            "/sessions/cls/complain",
            &Json::obj(vec![("sql", Json::str(sql)), ("complaint", labelled(99.0))]),
        )
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.to_string().contains("class 99"), "{body}");
    // One bad complaint in a batch rejects the whole batch.
    let batch = Json::obj(vec![
        ("sql", Json::str(sql)),
        ("complaints", Json::Arr(vec![labelled(1.0), labelled(2.0)])),
    ]);
    assert_eq!(
        client.post("/sessions/cls/complain", &batch).unwrap().0,
        400
    );
    let ok = client
        .post_ok(
            "/sessions/cls/complain",
            &Json::obj(vec![("sql", Json::str(sql)), ("complaint", labelled(1.0))]),
        )
        .unwrap();
    assert_eq!(ok.get("total_complaints").and_then(Json::as_f64), Some(1.0));
    client
        .post_ok("/sessions/cls/train", &train_json(40, 4))
        .unwrap();
    let ack = client
        .post_ok(
            "/sessions/cls/debug-run",
            &Json::obj(vec![
                ("method", Json::str("holistic")),
                ("budget", Json::num(4.0)),
            ]),
        )
        .unwrap();
    await_job(&mut client, ack.get("job").and_then(Json::as_i64).unwrap());
    server.shutdown();
}

fn family<'a>(metrics: &'a [Metric], name: &str) -> &'a Metric {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("missing metric family {name}"))
}

fn scrape(client: &mut Client) -> Vec<Metric> {
    let (status, text) = client.get_text("/metrics").unwrap();
    assert_eq!(status, 200, "{text}");
    parse_exposition(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"))
}

/// `GET /metrics` under 16 concurrent clients that query and scrape at
/// once: every scrape is a valid Prometheus exposition, counters are
/// monotonic across scrapes, gauges reflect server state, and every
/// summary family is internally consistent.
#[test]
fn metrics_endpoint_is_consistent_under_concurrent_scrapes() {
    let server = start(ServerConfig {
        job_workers: 2,
        ..Default::default()
    })
    .unwrap();
    let addr = server.addr();
    let threads: Vec<_> = (0..16)
        .map(|ci| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let session = format!("metrics-{ci}");
                client
                    .post_ok("/sessions", &logistic_session(&session))
                    .unwrap();
                client
                    .post_ok(
                        &format!("/sessions/{session}/tables"),
                        &table_json("pairs", 12, 5),
                    )
                    .unwrap();
                let q = Json::obj(vec![("sql", Json::str("SELECT COUNT(*) FROM pairs"))]);
                client
                    .post_ok(&format!("/sessions/{session}/query"), &q)
                    .unwrap();
                client
                    .post_ok(&format!("/sessions/{session}/query"), &q)
                    .unwrap();
                // Scrape concurrently with the other 15 clients' traffic.
                let metrics = scrape(&mut client);
                assert!(!metrics.is_empty());
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread panicked");
    }

    let mut client = Client::connect(addr).unwrap();
    let first = scrape(&mut client);
    let second = scrape(&mut client);

    // Counters never go backwards between scrapes.
    for name in [
        "rain_http_requests_total",
        "rain_cache_hits_total",
        "rain_cache_misses_total",
        "rain_jobs_done_total",
        "rain_jobs_failed_total",
    ] {
        let a = family(&first, name).value_of(name).unwrap();
        let b = family(&second, name).value_of(name).unwrap();
        assert!(b >= a, "{name} went backwards: {a} -> {b}");
    }
    // Gauges reflect server state; the aggregate hit ratio is a ratio.
    assert_eq!(
        family(&second, "rain_sessions").value_of("rain_sessions"),
        Some(16.0)
    );
    let ratio = family(&second, "rain_cache_hit_ratio")
        .value_of("rain_cache_hit_ratio")
        .unwrap();
    assert!((0.0..=1.0).contains(&ratio), "hit ratio {ratio}");
    // Each client issued 5 requests before the final scrapes, and every
    // repeated query hit its session's skeleton cache.
    let requests = family(&second, "rain_http_requests_total")
        .value_of("rain_http_requests_total")
        .unwrap();
    assert!(requests >= 16.0 * 5.0, "only {requests} requests counted");
    let hits = family(&second, "rain_cache_hits_total")
        .value_of("rain_cache_hits_total")
        .unwrap();
    assert!(hits >= 16.0, "only {hits} cache hits counted");

    // Summary families (the latency sketches) are internally consistent
    // per label set: quantiles are present, finite once counted, and
    // non-decreasing in q.
    for m in &second {
        if m.kind != "summary" {
            continue;
        }
        let count: f64 = m
            .samples
            .iter()
            .filter(|s| s.name == format!("{}_count", m.name))
            .map(|s| s.value)
            .sum();
        if count == 0.0 {
            continue;
        }
        // Quantiles are only comparable within one label set (e.g. one
        // endpoint); group by the labels minus `quantile`.
        let mut by_series: std::collections::HashMap<String, Vec<(f64, f64)>> =
            std::collections::HashMap::new();
        for s in m.samples.iter().filter(|s| s.name == m.name) {
            let Some(q) = s.quantile() else { continue };
            let key: Vec<String> = s
                .labels
                .iter()
                .filter(|(k, _)| k != "quantile")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            by_series
                .entry(key.join(","))
                .or_default()
                .push((q, s.value));
        }
        assert!(!by_series.is_empty(), "{} has no quantile series", m.name);
        for (series, mut quantiles) in by_series {
            quantiles.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let mut prev = f64::NEG_INFINITY;
            for (q, v) in quantiles {
                assert!(
                    v >= prev || v.is_nan(),
                    "{}{{{series}}}: quantile {q} regressed: {v} after {prev}",
                    m.name
                );
                if !v.is_nan() {
                    prev = v;
                }
            }
        }
    }
    // The request-latency summary is per-endpoint; across endpoints it
    // saw every request that preceded the scrape, and the endpoints the
    // clients hit all have their own quantile series.
    let lat = family(&second, "rain_http_request_seconds");
    assert_eq!(lat.kind, "summary");
    let total: f64 = lat
        .samples
        .iter()
        .filter(|s| s.name == "rain_http_request_seconds_count")
        .map(|s| s.value)
        .sum();
    assert!(total >= 16.0 * 5.0, "latency summary undercounts: {total}");
    for ep in ["sessions", "tables", "query", "metrics"] {
        assert!(
            lat.value_with("rain_http_request_seconds_count", &[("endpoint", ep)])
                .is_some(),
            "no per-endpoint latency series for {ep}"
        );
        for q in ["0.5", "0.95", "0.99"] {
            assert!(
                lat.value_with(
                    "rain_http_request_seconds",
                    &[("endpoint", ep), ("quantile", q)]
                )
                .is_some(),
                "missing p{q} for endpoint {ep}"
            );
        }
    }
    // `/stats` serves the same per-endpoint quantiles as JSON.
    let stats = client.get_ok("/stats").unwrap();
    let q_lat = stats
        .get("latency_s")
        .and_then(|l| l.get("query"))
        .expect("stats carries query-endpoint latency");
    for p in ["p50", "p95", "p99"] {
        let v = q_lat.get(p).and_then(Json::as_f64).unwrap();
        assert!(v >= 0.0, "{p} = {v}");
    }
    server.shutdown();
}

/// `GET /metrics` racing session create/remove churn: the mirrored cache
/// counters fold removed sessions into a retired baseline, so no scrape
/// ever observes a counter regress.
#[test]
fn metrics_cache_counters_stay_monotonic_across_session_churn() {
    let server = start(ServerConfig {
        job_workers: 1,
        ..Default::default()
    })
    .unwrap();
    let addr = server.addr();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));

    // Churners: create a session, run queries (moving its cache
    // counters), remove it, repeat.
    let churners: Vec<_> = (0..4)
        .map(|ci| {
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut round = 0;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let session = format!("churn-{ci}-{round}");
                    round += 1;
                    client
                        .post_ok("/sessions", &logistic_session(&session))
                        .unwrap();
                    client
                        .post_ok(
                            &format!("/sessions/{session}/tables"),
                            &table_json("pairs", 12, 5),
                        )
                        .unwrap();
                    let q = Json::obj(vec![("sql", Json::str("SELECT COUNT(*) FROM pairs"))]);
                    for _ in 0..3 {
                        client
                            .post_ok(&format!("/sessions/{session}/query"), &q)
                            .unwrap();
                    }
                    client.delete(&format!("/sessions/{session}")).unwrap();
                }
            })
        })
        .collect();

    // Scraper: cache counters must never go backwards while sessions
    // come and go underneath the scrape.
    let mut client = Client::connect(addr).unwrap();
    let mut last = std::collections::HashMap::new();
    for _ in 0..40 {
        let metrics = scrape(&mut client);
        for name in [
            "rain_cache_hits_total",
            "rain_cache_misses_total",
            "rain_cache_invalidations_total",
        ] {
            let v = family(&metrics, name).value_of(name).unwrap();
            let prev = last.insert(name, v).unwrap_or(0.0);
            assert!(v >= prev, "{name} regressed under churn: {prev} -> {v}");
        }
    }
    assert!(
        last["rain_cache_misses_total"] > 0.0,
        "churn never moved the cache counters"
    );
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for t in churners {
        t.join().expect("churner panicked");
    }
    server.shutdown();
}

/// Walk a JSON trace node's children for one with the given span name.
fn child<'a>(node: &'a Json, name: &str) -> &'a Json {
    node.get("children")
        .and_then(Json::as_arr)
        .and_then(|cs| {
            cs.iter()
                .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
        })
        .unwrap_or_else(|| panic!("no child span {name:?} in {node}"))
}

/// `?profile=1` on a debug run returns the run's span tree in the job
/// report: the `prepare-queries` checkout phase, then one `iteration`
/// subtree per loop pass with train/execute/check/rank children and the
/// incremental `refresh` under execute. Without the flag the field is
/// null.
#[test]
fn debug_run_profile_flag_returns_span_tree() {
    let server = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    debug_ready_session(&mut client, "prof", logistic_session("prof"));
    let run_body = Json::obj(vec![
        ("method", Json::str("loss")),
        ("budget", Json::num(4.0)),
        ("k_per_iter", Json::num(2.0)),
    ]);

    let run = client
        .post_ok("/sessions/prof/debug-run?profile=1", &run_body)
        .unwrap();
    let done = await_job(&mut client, run.get("job").unwrap().as_i64().unwrap());
    let report = done.get("report").unwrap();
    let profile = report.get("profile").unwrap();
    assert_eq!(
        profile.get("name").and_then(Json::as_str),
        Some("debug-run")
    );
    assert!(profile.get("dur_ns").and_then(Json::as_f64).is_some());
    // The driver's own checkout phase: one cache lookup per query.
    let prepare = child(profile, "prepare-queries");
    assert!(prepare.get("dur_ns").and_then(Json::as_f64).unwrap() >= 0.0);
    let checkouts = prepare.get("children").and_then(Json::as_arr).unwrap();
    let names: Vec<&str> = checkouts
        .iter()
        .map(|c| c.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, ["cache-checkout"], "one checkout per query");
    let iterations: Vec<&Json> = profile
        .get("children")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter(|c| c.get("name").and_then(Json::as_str) == Some("iteration"))
        .collect();
    let reported = report.get("iterations").unwrap().as_arr().unwrap().len();
    assert_eq!(
        iterations.len(),
        reported,
        "one iteration span per reported iteration"
    );
    for it in &iterations {
        let execute = child(it, "execute");
        child(execute, "refresh");
        child(it, "train");
        child(it, "check");
        child(it, "rank");
        let removed = it
            .get("counters")
            .and_then(|c| c.get("removed"))
            .and_then(Json::as_f64);
        assert!(removed.is_some(), "iteration missing removed counter");
    }

    // Without the flag (and no body option) there is no profile.
    let plain = client
        .post_ok("/sessions/prof/debug-run", &run_body)
        .unwrap();
    let done = await_job(&mut client, plain.get("job").unwrap().as_i64().unwrap());
    assert_eq!(
        done.get("report").unwrap().get("profile"),
        Some(&Json::Null)
    );
    server.shutdown();
}

/// `"analyze": true` on a query returns the executed plan (with the
/// resolved engine and thread count) plus the execution's span tree —
/// and the result rows are identical to a plain run of the same query.
#[test]
fn analyze_query_returns_plan_and_execution_profile() {
    let server = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .post_ok("/sessions", &logistic_session("analyze"))
        .unwrap();
    client
        .post_ok("/sessions/analyze/tables", &table_json("pairs", 25, 9))
        .unwrap();
    let sql = "SELECT COUNT(*) FROM pairs";
    let plain = client
        .post_ok(
            "/sessions/analyze/query",
            &Json::obj(vec![("sql", Json::str(sql))]),
        )
        .unwrap();
    assert!(plain.get("explain").is_none(), "plain runs carry no plan");

    let analyzed = client
        .post_ok(
            "/sessions/analyze/query",
            &Json::obj(vec![("sql", Json::str(sql)), ("analyze", Json::Bool(true))]),
        )
        .unwrap();
    assert_eq!(
        analyzed.get("result").unwrap().get("rows"),
        plain.get("result").unwrap().get("rows"),
        "analyze must not perturb results"
    );
    let explain = analyzed.get("explain").unwrap().as_str().unwrap();
    assert!(explain.contains("Engine:"), "{explain}");
    assert!(explain.contains("threads="), "{explain}");
    let profile = analyzed.get("profile").unwrap();
    assert_eq!(profile.get("name").and_then(Json::as_str), Some("query"));
    assert!(
        !profile
            .get("children")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty(),
        "execution trace is empty: {profile}"
    );
    server.shutdown();
}

/// A cached query the size of the `query_serve` benchmark's (5 000 Adult-
/// shaped rows, 18 features, logistic) refreshes on the caller's thread
/// even when the session's budget allows more: 5 000 × 19 multiply-adds
/// is far below one worker's share, so `inference` records one worker and
/// no `shard` spans.
#[test]
fn cached_query_at_serving_size_infers_on_one_thread() {
    let (n, dim) = (5000, 18);
    let server = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let session = Json::obj(vec![
        ("name", Json::str("serve")),
        (
            "model",
            Json::obj(vec![
                ("kind", Json::str("logistic")),
                ("dim", Json::num(dim as f64)),
            ]),
        ),
        ("threads", Json::num(4.0)),
    ]);
    client.post_ok("/sessions", &session).unwrap();
    let decades: Vec<Json> = (0..n)
        .map(|i| Json::num((20 + i % 5 * 10) as f64))
        .collect();
    let feats: Vec<Json> = (0..n)
        .map(|i| {
            Json::Arr(
                (0..dim)
                    .map(|j| Json::num(((i * 7 + j) % 11) as f64 / 10.0))
                    .collect(),
            )
        })
        .collect();
    let table = Json::obj(vec![
        ("name", Json::str("adult")),
        (
            "columns",
            Json::Arr(vec![Json::obj(vec![
                ("name", Json::str("agedecade")),
                ("type", Json::str("int")),
                ("values", Json::Arr(decades)),
            ])]),
        ),
        ("features", Json::Arr(feats)),
    ]);
    client.post_ok("/sessions/serve/tables", &table).unwrap();
    let sql = "SELECT AVG(predict(*)) FROM adult GROUP BY agedecade";
    let q = |analyze| {
        Json::obj(vec![
            ("sql", Json::str(sql)),
            ("analyze", Json::Bool(analyze)),
        ])
    };
    client.post_ok("/sessions/serve/query", &q(false)).unwrap();
    let analyzed = client.post_ok("/sessions/serve/query", &q(true)).unwrap();
    assert_eq!(analyzed.get("cache").and_then(Json::as_str), Some("hit"));
    let inference = child(
        child(analyzed.get("profile").unwrap(), "refresh"),
        "inference",
    );
    let counter = |k| {
        inference
            .get("counters")
            .and_then(|c| c.get(k))
            .and_then(Json::as_f64)
    };
    assert_eq!(counter("rows_in"), Some(n as f64), "{inference}");
    assert_eq!(counter("workers"), Some(1.0), "{inference}");
    let children = inference.get("children").and_then(Json::as_arr).unwrap();
    assert!(
        children
            .iter()
            .all(|c| c.get("name").and_then(Json::as_str) != Some("shard")),
        "{inference}"
    );
    server.shutdown();
}

/// The always-on sampler: with no profile flags and no analyze requests,
/// the profile ring fills by itself. Queries land as `query` entries
/// (the session's 1-in-N knob; first query always samples), debug-run
/// iterations land as `iteration` entries, fetch-by-id returns the full
/// span tree, results stay bit-identical, and a `slow_ms` threshold of
/// zero force-captures every request into the slow ring.
#[test]
fn always_on_sampling_fills_the_profile_ring() {
    let server = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // sample_every=2 on a fresh session: queries 0, 2, 4, … are traced.
    // slow_ms=0 marks everything slow, exercising the force-capture ring.
    let body = with_keys(
        logistic_session("ring"),
        vec![
            ("sample_every", Json::num(2.0)),
            ("slow_ms", Json::num(0.0)),
        ],
    );
    let created = client.post_ok("/sessions", &body).unwrap();
    assert_eq!(
        created.get("sample_every").and_then(Json::as_f64),
        Some(2.0)
    );
    assert_eq!(created.get("slow_ms").and_then(Json::as_f64), Some(0.0));
    client
        .post_ok("/sessions/ring/tables", &table_json("pairs", 30, 10))
        .unwrap();

    let q = Json::obj(vec![("sql", Json::str("SELECT COUNT(*) FROM pairs"))]);
    let mut results = Vec::new();
    for _ in 0..4 {
        let out = client.post_ok("/sessions/ring/query", &q).unwrap();
        results.push(out.get("result").unwrap().clone());
    }
    // Sampling is a pure observer: traced and untraced queries agree.
    assert!(
        results.windows(2).all(|w| w[0] == w[1]),
        "sampled queries changed results"
    );

    // A plain debug run (no ?profile=1) contributes iteration profiles.
    client
        .post_ok("/sessions/ring/train", &train_json(60, 10))
        .unwrap();
    client
        .post_ok(
            "/sessions/ring/complain",
            &count_complaint("SELECT COUNT(*) FROM pairs WHERE predict(*) = 1", 10.0),
        )
        .unwrap();
    let run = client
        .post_ok(
            "/sessions/ring/debug-run",
            &Json::obj(vec![
                ("method", Json::str("loss")),
                ("budget", Json::num(4.0)),
                ("k_per_iter", Json::num(2.0)),
                ("sample_every", Json::num(1.0)),
            ]),
        )
        .unwrap();
    let done = await_job(&mut client, run.get("job").unwrap().as_i64().unwrap());
    // The report itself carries the sampled iteration trees (profile
    // stays null — nobody asked for the full-run tree)…
    let report = done.get("report").unwrap();
    assert_eq!(report.get("profile"), Some(&Json::Null));
    let iter_profiles = report.get("iteration_profiles").unwrap().as_arr().unwrap();
    assert_eq!(
        iter_profiles.len(),
        report.get("iterations").unwrap().as_arr().unwrap().len(),
        "a 1-in-1 run samples every iteration"
    );
    for ip in iter_profiles {
        let tree = ip.get("profile").unwrap();
        assert_eq!(tree.get("name").and_then(Json::as_str), Some("iteration"));
        assert!(ip.get("iteration").and_then(Json::as_f64).is_some());
    }

    // …and the ring now serves both kinds of capture.
    let kind_of = |e: &Json| e.get("kind").and_then(Json::as_str).map(str::to_string);
    let listing = client.get_ok("/debug/profiles").unwrap();
    let recent = listing.get("recent").unwrap().as_arr().unwrap();
    let slow = listing.get("slow").unwrap().as_arr().unwrap();
    assert!(!slow.is_empty(), "slow_ms=0 captured nothing: {listing}");
    assert!(
        recent
            .iter()
            .any(|e| kind_of(e).as_deref() == Some("query")),
        "no sampled query in ring: {listing}"
    );
    assert!(
        recent
            .iter()
            .any(|e| kind_of(e).as_deref() == Some("iteration")),
        "no sampled iteration in ring: {listing}"
    );

    // Every listed entry is fetchable by id; recent entries carry a
    // valid span tree whose root matches the kind and whose summary
    // span count matches the tree.
    for e in recent {
        let id = e.get("id").unwrap().as_i64().unwrap();
        let full = client.get_ok(&format!("/debug/profiles/{id}")).unwrap();
        let tree = full.get("profile").unwrap();
        let root = tree.get("name").and_then(Json::as_str).unwrap();
        assert!(root == "query" || root == "iteration", "odd root {root}");
        assert!(tree.get("dur_ns").and_then(Json::as_f64).unwrap() >= 0.0);
        fn count_spans(t: &Json) -> usize {
            1 + t
                .get("children")
                .and_then(Json::as_arr)
                .map_or(0, |cs| cs.iter().map(count_spans).sum())
        }
        assert_eq!(
            count_spans(tree) as f64,
            e.get("spans").unwrap().as_f64().unwrap(),
            "span count disagrees with summary"
        );
        assert_eq!(full.get("detail"), e.get("detail"));
    }
    // Sampled queries record their SQL as the detail.
    assert!(
        recent.iter().any(|e| e
            .get("detail")
            .and_then(Json::as_str)
            .is_some_and(|d| d.contains("SELECT COUNT(*)"))),
        "query detail lost: {listing}"
    );
    // Unknown ids 404.
    let (status, _) = client.get("/debug/profiles/999999").unwrap();
    assert_eq!(status, 404);
    server.shutdown();
}

/// Traces are per request. While session A runs a `?profile=1` debug
/// job and then loops `analyze` queries, session B (sampling 1-in-1)
/// issues M queries: the ring holds exactly M `query` entries from B,
/// each with a span tree, and none of A's profiles contains a span of
/// B's — B's table is 4 321 rows, A's data at most 600, so a B span
/// carries a row count A's never do.
#[test]
fn concurrent_sessions_trace_only_their_own_requests() {
    const M: usize = 24;
    const B_ROWS: usize = 4321;
    let server = start(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    client.post_ok("/sessions", &logistic_session("a")).unwrap();
    client
        .post_ok("/sessions/a/tables", &table_json("pairs", 30, 10))
        .unwrap();
    client
        .post_ok("/sessions/a/train", &train_json(600, 100))
        .unwrap();
    let a_sql = "SELECT COUNT(*) FROM pairs WHERE predict(*) = 1";
    client
        .post_ok("/sessions/a/complain", &count_complaint(a_sql, 10.0))
        .unwrap();
    let b = with_keys(
        logistic_session("b"),
        vec![("sample_every", Json::num(1.0))],
    );
    client.post_ok("/sessions", &b).unwrap();
    client
        .post_ok("/sessions/b/tables", &table_json("big", B_ROWS, 100))
        .unwrap();

    // A's profiled run is a live trace for as long as the job runs.
    let run = client
        .post_ok(
            "/sessions/a/debug-run?profile=1",
            &Json::obj(vec![
                ("method", Json::str("loss")),
                ("budget", Json::num(100.0)),
                ("k_per_iter", Json::num(2.0)),
            ]),
        )
        .unwrap();
    let job = run.get("job").unwrap().as_i64().unwrap();
    while client
        .get_ok(&format!("/jobs/{job}"))
        .unwrap()
        .get("status")
        == Some(&Json::str("queued"))
    {
        std::thread::sleep(Duration::from_millis(1));
    }

    let b_done = std::sync::atomic::AtomicBool::new(false);
    let (mut a_profiles, b_rows) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            let mut c = Client::connect(addr).unwrap();
            let analyze = Json::obj(vec![
                ("sql", Json::str(a_sql)),
                ("analyze", Json::Bool(true)),
            ]);
            let mut profiles = Vec::new();
            // At least 5, and bounded so A's and B's entries together
            // fit the ring.
            while profiles.len() < 5
                || (profiles.len() < 30 && !b_done.load(std::sync::atomic::Ordering::Relaxed))
            {
                let out = c.post_ok("/sessions/a/query", &analyze).unwrap();
                profiles.push(out.get("profile").unwrap().clone());
            }
            profiles
        });
        let mut c = Client::connect(addr).unwrap();
        let q = Json::obj(vec![("sql", Json::str("SELECT COUNT(*) FROM big"))]);
        let rows: Vec<Json> = (0..M)
            .map(|_| {
                c.post_ok("/sessions/b/query", &q)
                    .unwrap()
                    .get("result")
                    .unwrap()
                    .clone()
            })
            .collect();
        b_done.store(true, std::sync::atomic::Ordering::Relaxed);
        (a.join().unwrap(), rows)
    });
    assert!(b_rows.windows(2).all(|w| w[0] == w[1]));
    let done = await_job(&mut client, job);
    a_profiles.push(done.get("report").unwrap().get("profile").unwrap().clone());

    let listing = client.get_ok("/debug/profiles").unwrap();
    let field = |v: &Json, k: &str| v.get(k).cloned().unwrap_or(Json::Null);
    let b_entries: Vec<&Json> = listing
        .get("recent")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter(|e| field(e, "session").as_str() == Some("b"))
        .collect();
    assert_eq!(b_entries.len(), M, "B's sampler missed queries: {listing}");
    for e in b_entries {
        assert_eq!(field(e, "kind").as_str(), Some("query"));
        let spans = field(e, "spans").as_f64().unwrap();
        assert!(spans > 1.0, "B entry without a tree: {e}");
        let id = field(e, "id").as_i64().unwrap();
        let full = client.get_ok(&format!("/debug/profiles/{id}")).unwrap();
        let tree = field(&full, "profile");
        assert_eq!(field(&tree, "name").as_str(), Some("query"));
    }

    fn max_row_count(t: &Json) -> f64 {
        let own = ["rows_in", "rows_out", "n_vars", "rows"]
            .iter()
            .filter_map(|k| {
                t.get("counters")
                    .and_then(|c| c.get(k))
                    .and_then(Json::as_f64)
            })
            .fold(0.0, f64::max);
        t.get("children")
            .and_then(Json::as_arr)
            .map_or(own, |cs| cs.iter().map(max_row_count).fold(own, f64::max))
    }
    let run = a_profiles.last().unwrap();
    assert_eq!(field(run, "name").as_str(), Some("debug-run"));
    for p in a_profiles.iter() {
        assert!(
            max_row_count(p) < B_ROWS as f64,
            "a span of B's in A's profile: {p}"
        );
    }
    server.shutdown();
}

/// Durable mode end-to-end: a server with a `data_dir` logs every catalog
/// mutation, the append endpoint grows a table in place (bumping its
/// `(gen, delta)` version and invalidating the cached skeleton), and a
/// **restarted** server against the same directory recovers the session —
/// `POST /sessions` re-attaches instead of 409ing, and the cached query
/// serves the full pre-crash data without any re-registration. Also
/// covers `POST /debug/profiles/flush` and `request_id` threading.
#[test]
fn restart_recovers_sessions_and_serves_cached_queries() {
    let data_dir = std::env::temp_dir().join(format!("rain-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let dir_str = data_dir.to_string_lossy().into_owned();

    let server = start(ServerConfig {
        data_dir: Some(dir_str.clone()),
        ..Default::default()
    })
    .unwrap();
    {
        let mut client = Client::connect(server.addr()).unwrap();
        // sample_every=1: every query samples, so request_id threading is
        // observable in the profile ring after the restart too (the knob
        // rides in the logged creation spec).
        let body = with_keys(
            logistic_session("boot"),
            vec![("sample_every", Json::num(1.0))],
        );
        let created = client.post_ok("/sessions", &body).unwrap();
        assert_eq!(created.get("recovered"), Some(&Json::Bool(false)));
        client
            .post_ok("/sessions/boot/tables", &table_json("pairs", 10, 4))
            .unwrap();
        client
            .post_ok("/sessions/boot/train", &train_json(40, 8))
            .unwrap();

        let q = Json::obj(vec![("sql", Json::str("SELECT COUNT(*) FROM pairs"))]);
        let count = |v: &Json| {
            v.get("result")
                .unwrap()
                .get("rows")
                .unwrap()
                .as_arr()
                .unwrap()[0]
                .as_arr()
                .unwrap()[0]
                .as_i64()
                .unwrap()
        };
        let first = client.post_ok("/sessions/boot/query", &q).unwrap();
        assert_eq!(first.get("cache").unwrap().as_str(), Some("miss"));
        assert_eq!(count(&first), 10);

        // Ingest by append: no re-registration, delta version bump.
        let appended = client
            .post_ok(
                "/sessions/boot/tables/pairs/append",
                &Json::obj(vec![
                    (
                        "rows",
                        Json::Arr(vec![
                            Json::Arr(vec![Json::num(100.0)]),
                            Json::Arr(vec![Json::num(101.0)]),
                        ]),
                    ),
                    (
                        "features",
                        Json::Arr(vec![
                            Json::Arr(vec![Json::num(2.0)]),
                            Json::Arr(vec![Json::num(-2.0)]),
                        ]),
                    ),
                ]),
            )
            .unwrap();
        assert_eq!(appended.get("appended").unwrap().as_i64(), Some(2));
        assert_eq!(appended.get("rows").unwrap().as_i64(), Some(12));
        let version = appended.get("version").unwrap();
        assert_eq!(version.get("gen").unwrap().as_i64(), Some(0));
        assert_eq!(version.get("delta").unwrap().as_i64(), Some(1));

        // The cached skeleton notices the delta and re-prepares.
        let second = client.post_ok("/sessions/boot/query", &q).unwrap();
        assert_eq!(second.get("cache").unwrap().as_str(), Some("invalidated"));
        assert_eq!(count(&second), 12);
        assert_eq!(
            client
                .post_ok("/sessions/boot/query", &q)
                .unwrap()
                .get("cache")
                .unwrap()
                .as_str(),
            Some("hit")
        );
        // Appends to unknown tables are a 400, not a crash.
        assert_eq!(
            client
                .post(
                    "/sessions/boot/tables/ghost/append",
                    &Json::obj(vec![("rows", Json::Arr(vec![]))]),
                )
                .unwrap()
                .0,
            400
        );

        // Storage counters are live on /stats.
        let stats = client.get_ok("/stats").unwrap();
        let storage = stats.get("storage").unwrap();
        assert!(storage.get("log_records").unwrap().as_i64().unwrap() >= 4);
        assert!(storage.get("log_bytes").unwrap().as_i64().unwrap() > 0);

        // Flush the profile ring to disk; the file must exist.
        let flushed = client
            .post_ok("/debug/profiles/flush", &Json::obj(vec![]))
            .unwrap();
        let path = flushed.get("path").unwrap().as_str().unwrap().to_string();
        assert!(
            std::path::Path::new(&path).exists(),
            "no flush file at {path}"
        );
        // Every query sampled: the miss, the invalidated one and the hit.
        assert_eq!(flushed.get("recent").unwrap().as_i64(), Some(3));
    }
    server.shutdown();

    // ---- Restart against the same directory. ----
    let server = start(ServerConfig {
        data_dir: Some(dir_str),
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let stats = client.get_ok("/stats").unwrap();
    let storage = stats.get("storage").unwrap();
    assert_eq!(
        storage.get("recovered_sessions").unwrap().as_i64(),
        Some(1),
        "{stats}"
    );
    let listed = client.get_ok("/sessions").unwrap();
    let boot = &listed.get("sessions").unwrap().as_arr().unwrap()[0];
    assert_eq!(boot.get("recovered"), Some(&Json::Bool(true)));

    // Re-attach: the same creation request answers 200 with the
    // recovered state instead of 409ing.
    let reattach = client
        .post_ok("/sessions", &logistic_session("boot"))
        .unwrap();
    assert_eq!(reattach.get("recovered"), Some(&Json::Bool(true)));

    // The cached query runs against recovered data — table, appended
    // rows, and versions all came back from snapshot+log, with no
    // re-registration.
    let q = Json::obj(vec![
        ("sql", Json::str("SELECT COUNT(*) FROM pairs")),
        ("request_id", Json::str("req-42")),
    ]);
    let out = client.post_ok("/sessions/boot/query", &q).unwrap();
    assert_eq!(
        out.get("result")
            .unwrap()
            .get("rows")
            .unwrap()
            .as_arr()
            .unwrap()[0]
            .as_arr()
            .unwrap()[0]
            .as_i64(),
        Some(12),
        "recovered catalog must include the appended rows"
    );
    assert_eq!(
        client
            .post_ok("/sessions/boot/query", &q)
            .unwrap()
            .get("cache")
            .unwrap()
            .as_str(),
        Some("hit")
    );

    // The client-supplied request_id lands on both sampled profile
    // entries.
    let listing = client.get_ok("/debug/profiles").unwrap();
    let tagged = listing
        .get("recent")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter(|e| e.get("request_id").and_then(Json::as_str) == Some("req-42"))
        .count();
    assert_eq!(tagged, 2, "{listing}");

    // And through a debug job: complaints are session state (not logged),
    // so file one fresh, then tag the run.
    client
        .post_ok(
            "/sessions/boot/complain",
            &count_complaint("SELECT COUNT(*) FROM pairs WHERE predict(*) = 1", 4.0),
        )
        .unwrap();
    let run = client
        .post_ok(
            "/sessions/boot/debug-run",
            &Json::obj(vec![
                ("method", Json::str("loss")),
                ("budget", Json::num(2.0)),
                ("k_per_iter", Json::num(1.0)),
                ("request_id", Json::str("req-77")),
            ]),
        )
        .unwrap();
    let done = await_job(&mut client, run.get("job").unwrap().as_i64().unwrap());
    assert_eq!(
        done.get("request_id").and_then(Json::as_str),
        Some("req-77")
    );

    // Deleting the session removes its on-disk state: a third boot
    // recovers nothing.
    client.delete("/sessions/boot").unwrap();
    server.shutdown();
    let data_dir2 = data_dir.clone();
    let server = start(ServerConfig {
        data_dir: Some(data_dir2.to_string_lossy().into_owned()),
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let stats = client.get_ok("/stats").unwrap();
    assert_eq!(
        stats
            .get("storage")
            .unwrap()
            .get("recovered_sessions")
            .unwrap()
            .as_i64(),
        Some(0)
    );
    assert_eq!(stats.get("sessions").unwrap().as_i64(), Some(0));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// The optimizer surface on the wire: `POST …/tables/{t}/index` creates a
/// secondary index (validating before logging), `GET …/tables/{t}/stats`
/// exposes the planner statistics the cost model reads, an `analyze`
/// query shows the index-backed access path in its plan, and a restarted
/// server rebuilds the index from the logged definition.
#[test]
fn index_and_stats_endpoints_round_trip_and_recover() {
    let data_dir = std::env::temp_dir().join(format!("rain-serve-index-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let dir_str = data_dir.to_string_lossy().into_owned();

    let server = start(ServerConfig {
        data_dir: Some(dir_str.clone()),
        ..Default::default()
    })
    .unwrap();
    {
        let mut client = Client::connect(server.addr()).unwrap();
        client
            .post_ok("/sessions", &logistic_session("ix"))
            .unwrap();
        client
            .post_ok("/sessions/ix/tables", &table_json("pairs", 10, 4))
            .unwrap();

        // Bad requests validate before anything is logged.
        let body = |col: &str, kind: &str| {
            Json::obj(vec![("column", Json::str(col)), ("kind", Json::str(kind))])
        };
        assert_eq!(
            client
                .post("/sessions/ix/tables/pairs/index", &body("id", "btree"))
                .unwrap()
                .0,
            400,
            "unknown kind must 400"
        );
        assert_eq!(
            client
                .post("/sessions/ix/tables/pairs/index", &body("ghost", "hash"))
                .unwrap()
                .0,
            400,
            "unknown column must 400"
        );

        let created = client
            .post_ok("/sessions/ix/tables/pairs/index", &body("id", "hash"))
            .unwrap();
        assert_eq!(created.get("kind").unwrap().as_str(), Some("hash"));
        assert_eq!(created.get("entries").unwrap().as_i64(), Some(10));
        client
            .post_ok("/sessions/ix/tables/pairs/index", &body("id", "sorted"))
            .unwrap();

        // The stats endpoint shows the planner's inputs and both indexes.
        let stats = client.get_ok("/sessions/ix/tables/pairs/stats").unwrap();
        assert_eq!(stats.get("rows").unwrap().as_i64(), Some(10));
        let cols = stats.get("columns").unwrap().as_arr().unwrap();
        assert_eq!(cols[0].get("name").unwrap().as_str(), Some("id"));
        assert_eq!(cols[0].get("distinct").unwrap().as_i64(), Some(10));
        assert_eq!(cols[0].get("min").unwrap().as_i64(), Some(0));
        assert_eq!(cols[0].get("max").unwrap().as_i64(), Some(9));
        let indexes = stats.get("indexes").unwrap().as_arr().unwrap();
        assert_eq!(indexes.len(), 2, "{stats}");

        // An analyze query over the indexed column shows the index-backed
        // access path in the executed plan.
        let q = Json::obj(vec![
            ("sql", Json::str("SELECT COUNT(*) FROM pairs WHERE id = 3")),
            ("analyze", Json::Bool(true)),
        ]);
        let out = client.post_ok("/sessions/ix/query", &q).unwrap();
        let explain = out.get("explain").unwrap().as_str().unwrap();
        assert!(
            explain.contains("index-scan(id)"),
            "analyze plan must show the index access path: {explain}"
        );
        assert!(
            explain.contains("est=") && explain.contains("actual=1"),
            "analyze plan must pair estimates with observed rows: {explain}"
        );

        // Appends keep the index fresh and the stats current.
        client
            .post_ok(
                "/sessions/ix/tables/pairs/append",
                &Json::obj(vec![
                    ("rows", Json::Arr(vec![Json::Arr(vec![Json::num(100.0)])])),
                    ("features", Json::Arr(vec![Json::Arr(vec![Json::num(2.0)])])),
                ]),
            )
            .unwrap();
        let stats = client.get_ok("/sessions/ix/tables/pairs/stats").unwrap();
        assert_eq!(stats.get("rows").unwrap().as_i64(), Some(11));
        let indexes = stats.get("indexes").unwrap().as_arr().unwrap();
        assert!(
            indexes
                .iter()
                .all(|ix| ix.get("entries").unwrap().as_i64() == Some(11)),
            "appends must rebuild indexes: {stats}"
        );

        // Stats against an unknown table are a 400.
        assert_eq!(
            client.get("/sessions/ix/tables/ghost/stats").unwrap().0,
            400
        );
    }
    server.shutdown();

    // Restart: the logged index definitions come back, rebuilt over the
    // recovered table (original rows plus the appended one).
    let server = start(ServerConfig {
        data_dir: Some(dir_str),
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let stats = client.get_ok("/sessions/ix/tables/pairs/stats").unwrap();
    assert_eq!(stats.get("rows").unwrap().as_i64(), Some(11));
    let indexes = stats.get("indexes").unwrap().as_arr().unwrap();
    assert_eq!(indexes.len(), 2, "recovered session must keep its indexes");
    assert!(
        indexes
            .iter()
            .all(|ix| ix.get("entries").unwrap().as_i64() == Some(11)),
        "recovered indexes must cover the recovered rows: {stats}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A query cached before an index existed must not keep its sequential
/// plan: the first lookup after `POST …/index` reports `invalidated` and
/// executes the index access path, with the same rows — and it is a
/// re-plan, not an extension, in every counter that tells them apart.
#[test]
fn new_index_makes_cached_queries_replan() {
    let server = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .post_ok("/sessions", &logistic_session("replan"))
        .unwrap();
    client
        .post_ok("/sessions/replan/tables", &table_json("pairs", 30, 12))
        .unwrap();
    let q = Json::obj(vec![
        (
            "sql",
            Json::str("SELECT COUNT(*) FROM pairs WHERE id = 3 AND predict(*) = 1"),
        ),
        ("analyze", Json::Bool(true)),
    ]);
    let explain = |v: &Json| v.get("explain").unwrap().as_str().unwrap().to_string();
    let cache = |v: &Json| v.get("cache").unwrap().as_str().unwrap().to_string();
    let extended = |v: &Json| {
        v.get("cache_stats")
            .unwrap()
            .get("extended")
            .unwrap()
            .as_i64()
    };

    let before = client.post_ok("/sessions/replan/query", &q).unwrap();
    assert_eq!(cache(&before), "miss");
    assert!(
        explain(&before).contains("seq-scan"),
        "{}",
        explain(&before)
    );

    // An append in between is answered by extension, plan kept.
    client
        .post_ok(
            "/sessions/replan/tables/pairs/append",
            &Json::obj(vec![
                ("rows", Json::Arr(vec![Json::Arr(vec![Json::num(3.0)])])),
                ("features", Json::Arr(vec![Json::Arr(vec![Json::num(2.0)])])),
            ]),
        )
        .unwrap();
    let grown = client.post_ok("/sessions/replan/query", &q).unwrap();
    assert_eq!(cache(&grown), "invalidated");
    assert_eq!(extended(&grown), Some(1));
    assert!(explain(&grown).contains("seq-scan"), "{}", explain(&grown));

    client
        .post_ok(
            "/sessions/replan/tables/pairs/index",
            &Json::obj(vec![
                ("column", Json::str("id")),
                ("kind", Json::str("hash")),
            ]),
        )
        .unwrap();
    let after = client.post_ok("/sessions/replan/query", &q).unwrap();
    assert_eq!(cache(&after), "invalidated", "a new index must re-plan");
    assert_eq!(extended(&after), Some(1), "a re-plan is not an extension");
    assert!(
        explain(&after).contains("index-scan(id)"),
        "{}",
        explain(&after)
    );
    assert_eq!(after.get("result"), grown.get("result"));
    let again = client.post_ok("/sessions/replan/query", &q).unwrap();
    assert_eq!(cache(&again), "hit");

    // The same counter everywhere the other three are reported.
    let sessions = client.get_ok("/sessions").unwrap();
    let listed = &sessions.get("sessions").unwrap().as_arr().unwrap()[0];
    let counters = listed.get("cache").unwrap();
    assert_eq!(counters.get("extended").unwrap().as_i64(), Some(1));
    assert_eq!(counters.get("invalidations").unwrap().as_i64(), Some(2));
    let metrics = scrape(&mut client);
    assert_eq!(
        family(&metrics, "rain_cache_extended_total").samples[0].value,
        1.0
    );
    server.shutdown();
}

/// Whether a JSON trace node or any node below it is a span named `name`.
fn has_span(node: &Json, name: &str) -> bool {
    node.get("name").and_then(Json::as_str) == Some(name)
        || node
            .get("children")
            .and_then(Json::as_arr)
            .is_some_and(|cs| cs.iter().any(|c| has_span(c, name)))
}

/// A cached prediction join over the wire: an append to its outer (larger)
/// table is answered by extending the skeleton — `"invalidated"`, one more
/// `extended`, an `extend` span and no `prepare` — while an append to its
/// inner table re-plans and re-prepares. Both answers equal a fresh
/// session's over the same rows.
#[test]
fn outer_append_extends_a_cached_join_and_inner_append_replans() {
    let server = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let sql = "SELECT COUNT(*) FROM big b, small s WHERE predict(b) = predict(s)";
    let q = Json::obj(vec![("sql", Json::str(sql)), ("analyze", Json::Bool(true))]);
    let rows = |ids: &[f64], xs: &[f64]| {
        Json::obj(vec![
            (
                "rows",
                Json::Arr(ids.iter().map(|&i| Json::Arr(vec![Json::num(i)])).collect()),
            ),
            (
                "features",
                Json::Arr(xs.iter().map(|&x| Json::Arr(vec![Json::num(x)])).collect()),
            ),
        ])
    };
    let outer_rows = rows(&[40.0, 41.0, 42.0], &[1.5, -1.5, 2.0]);
    let inner_rows = rows(&[6.0, 7.0], &[-2.0, 1.2]);
    // A trained session holding `big` (40 rows) and `small` (6 rows).
    let session = |client: &mut Client, name: &str| {
        client
            .post_ok("/sessions", &logistic_session(name))
            .unwrap();
        for table in [table_json("big", 40, 15), table_json("small", 6, 3)] {
            client
                .post_ok(&format!("/sessions/{name}/tables"), &table)
                .unwrap();
        }
        client
            .post_ok(&format!("/sessions/{name}/train"), &train_json(60, 0))
            .unwrap();
    };
    let append = |client: &mut Client, name: &str, table: &str, body: &Json| {
        client
            .post_ok(&format!("/sessions/{name}/tables/{table}/append"), body)
            .unwrap();
    };
    let extended = |v: &Json| {
        v.get("cache_stats")
            .unwrap()
            .get("extended")
            .unwrap()
            .as_i64()
            .unwrap()
    };
    let cache = |v: &Json| v.get("cache").unwrap().as_str().unwrap().to_string();

    session(&mut client, "live");
    let first = client.post_ok("/sessions/live/query", &q).unwrap();
    assert_eq!(cache(&first), "miss");
    assert_eq!(extended(&first), 0);

    append(&mut client, "live", "big", &outer_rows);
    let grown = client.post_ok("/sessions/live/query", &q).unwrap();
    assert_eq!(cache(&grown), "invalidated");
    assert_eq!(extended(&grown), 1, "an outer append extends");
    let profile = grown.get("profile").unwrap();
    assert!(has_span(profile, "extend"), "{profile}");
    assert!(!has_span(profile, "prepare"), "{profile}");

    session(&mut client, "fresh");
    append(&mut client, "fresh", "big", &outer_rows);
    let fresh = client.post_ok("/sessions/fresh/query", &q).unwrap();
    assert_eq!(cache(&fresh), "miss");
    assert_eq!(grown.get("result"), fresh.get("result"));

    append(&mut client, "live", "small", &inner_rows);
    let replanned = client.post_ok("/sessions/live/query", &q).unwrap();
    assert_eq!(cache(&replanned), "invalidated");
    assert_eq!(extended(&replanned), 1, "an inner append re-plans");
    let profile = replanned.get("profile").unwrap();
    assert!(has_span(profile, "prepare"), "{profile}");
    assert!(!has_span(profile, "extend"), "{profile}");

    session(&mut client, "fresh2");
    append(&mut client, "fresh2", "big", &outer_rows);
    append(&mut client, "fresh2", "small", &inner_rows);
    let fresh = client.post_ok("/sessions/fresh2/query", &q).unwrap();
    assert_eq!(cache(&fresh), "miss");
    assert_eq!(replanned.get("result"), fresh.get("result"));
    server.shutdown();
}

/// Statistics and index contents are derived state: a session recovered
/// by replaying 16 logged appends must report exactly what the server
/// that wrote them reports — one statistics computation at the end
/// equals sixteen along the way, indexes grown in place equal indexes
/// grown during replay.
#[test]
fn recovered_session_reports_the_writers_stats_and_index_entries() {
    let data_dir = std::env::temp_dir().join(format!("rain-serve-stats16-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let config = || ServerConfig {
        data_dir: Some(data_dir.to_string_lossy().into_owned()),
        ..Default::default()
    };
    let server = start(config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .post_ok("/sessions", &logistic_session("grow"))
        .unwrap();
    client
        .post_ok("/sessions/grow/tables", &table_json("pairs", 20, 8))
        .unwrap();
    for kind in ["hash", "sorted"] {
        client
            .post_ok(
                "/sessions/grow/tables/pairs/index",
                &Json::obj(vec![("column", Json::str("id")), ("kind", Json::str(kind))]),
            )
            .unwrap();
    }
    for round in 0..16 {
        // Ids repeat across rounds and one per round is NULL.
        let rows = (0..5)
            .map(|i| match i {
                4 => Json::Arr(vec![Json::Null]),
                _ => Json::Arr(vec![Json::num(((round * 7 + i * 3) % 40) as f64)]),
            })
            .collect();
        let feats = (0..5)
            .map(|i| Json::Arr(vec![Json::num(i as f64 - 2.5)]))
            .collect();
        client
            .post_ok(
                "/sessions/grow/tables/pairs/append",
                &Json::obj(vec![
                    ("rows", Json::Arr(rows)),
                    ("features", Json::Arr(feats)),
                ]),
            )
            .unwrap();
    }
    let written = client.get_ok("/sessions/grow/tables/pairs/stats").unwrap();
    assert_eq!(written.get("rows").unwrap().as_i64(), Some(100));
    let entries: Vec<_> = written
        .get("indexes")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|ix| ix.get("entries").unwrap().as_i64())
        .collect();
    assert_eq!(entries, [Some(84), Some(84)], "16 NULL ids are not indexed");
    drop(client);
    server.shutdown();

    let server = start(config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let recovered = client.get_ok("/sessions/grow/tables/pairs/stats").unwrap();
    assert_eq!(recovered, written);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A snapshot that cannot be written does not fail the mutation that
/// triggered it: the mutation is logged and applied, so it answers 200
/// and bumps the generation, and recovery replays it from the full log.
/// The snapshot write is made to fail by renaming the session directory
/// once its store is open: the log's open file keeps working, and each
/// snapshot's create in the old path fails.
#[test]
fn failed_snapshot_still_acknowledges_the_logged_mutation() {
    let data_dir = std::env::temp_dir().join(format!("rain-serve-snapfail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let config = || ServerConfig {
        data_dir: Some(data_dir.to_string_lossy().into_owned()),
        ..Default::default()
    };
    let (dir, moved) = (
        data_dir.join("sessions/snap"),
        data_dir.join("sessions-moved"),
    );
    let server = start(config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .post_ok("/sessions", &logistic_session("snap"))
        .unwrap();
    let registered = client
        .post_ok("/sessions/snap/tables", &table_json("pairs", 4, 2))
        .unwrap();
    let mut generation = registered.get("generation").unwrap().as_i64().unwrap();
    std::fs::rename(&dir, &moved).unwrap();
    // Past the store's 256-record snapshot cadence: the last few appends
    // each try a snapshot, and each attempt fails.
    let appends = 260;
    for i in 0..appends {
        let body = Json::obj(vec![
            (
                "rows",
                Json::Arr(vec![Json::Arr(vec![Json::num(i as f64)])]),
            ),
            ("features", Json::Arr(vec![Json::Arr(vec![Json::num(1.0)])])),
        ]);
        let resp = client
            .post_ok("/sessions/snap/tables/pairs/append", &body)
            .unwrap_or_else(|e| panic!("append {i}: {e}"));
        generation += 1;
        assert_eq!(resp.get("generation").unwrap().as_i64(), Some(generation));
        assert_eq!(resp.get("rows").unwrap().as_i64(), Some(5 + i));
    }
    let listed = client.get_ok("/sessions").unwrap();
    let storage = listed.get("sessions").unwrap().as_arr().unwrap()[0]
        .get("storage")
        .unwrap()
        .clone();
    assert_eq!(storage.get("snapshots").unwrap().as_i64(), Some(0));
    assert_eq!(
        storage.get("log_records").unwrap().as_i64(),
        Some(2 + appends),
        "meta, table and every append logged"
    );
    let written = client.get_ok("/sessions/snap/tables/pairs/stats").unwrap();
    drop(client);
    server.shutdown();

    std::fs::rename(&moved, &dir).unwrap();
    let server = start(config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let recovered = client.get_ok("/sessions/snap/tables/pairs/stats").unwrap();
    assert_eq!(recovered.get("rows").unwrap().as_i64(), Some(4 + appends));
    assert_eq!(recovered, written);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A creation body for session `name` with a two-class model of `kind`
/// (1-D features) and the given sampling period, which the re-attach answer
/// after a restart echoes from whichever spec recovery rebuilt.
fn spec_json(name: &str, kind: &str, sample_every: f64) -> Json {
    Json::obj(vec![
        ("name", Json::str(name)),
        (
            "model",
            Json::obj(vec![
                ("kind", Json::str(kind)),
                ("dim", Json::num(1.0)),
                ("classes", Json::num(2.0)),
            ]),
        ),
        ("sample_every", Json::num(sample_every)),
    ])
}

/// A `POST /sessions` refused with 409 because the name is live writes
/// nothing into the live session's directory: after a restart the session
/// is rebuilt from its own spec, with the same model, tables and versions
/// — also when the live session commits again between two refusals.
#[test]
fn rejected_duplicate_create_leaves_the_live_session_on_disk_intact() {
    let data_dir = std::env::temp_dir().join(format!("rain-serve-dup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let config = || ServerConfig {
        data_dir: Some(data_dir.to_string_lossy().into_owned()),
        ..Default::default()
    };
    let live = spec_json("dup", "logistic", 3.0);
    let other = spec_json("dup", "softmax", 7.0);
    let q = Json::obj(vec![(
        "sql",
        Json::str("SELECT COUNT(*) FROM pairs WHERE predict(*) = 1"),
    )]);

    let server = start(config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.post_ok("/sessions", &live).unwrap();
    client
        .post_ok("/sessions/dup/tables", &table_json("pairs", 10, 4))
        .unwrap();
    client
        .post_ok("/sessions/dup/train", &train_json(40, 8))
        .unwrap();
    assert_eq!(client.post("/sessions", &other).unwrap().0, 409);
    let append = Json::obj(vec![
        ("rows", Json::Arr(vec![Json::Arr(vec![Json::num(10.0)])])),
        ("features", Json::Arr(vec![Json::Arr(vec![Json::num(2.0)])])),
    ]);
    client
        .post_ok("/sessions/dup/tables/pairs/append", &append)
        .unwrap();
    assert_eq!(client.post("/sessions", &other).unwrap().0, 409);
    let stats = client.get_ok("/sessions/dup/tables/pairs/stats").unwrap();
    let answer = client.post_ok("/sessions/dup/query", &q).unwrap();
    drop(client);
    server.shutdown();

    let server = start(config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let attached = client.post_ok("/sessions", &live).unwrap();
    assert_eq!(attached.get("recovered"), Some(&Json::Bool(true)));
    assert_eq!(
        attached.get("model").and_then(Json::as_str),
        Some("logistic")
    );
    assert_eq!(
        attached.get("sample_every").and_then(Json::as_f64),
        Some(3.0)
    );
    assert_eq!(
        client.get_ok("/sessions/dup/tables/pairs/stats").unwrap(),
        stats
    );
    let recovered = client.post_ok("/sessions/dup/query", &q).unwrap();
    assert_eq!(recovered.get("result"), answer.get("result"));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// N concurrent creates of one new name: exactly one answers 200, the
/// rest 409, and the losers write nothing into the winner's directory —
/// after a restart each session is rebuilt from its winner's spec.
#[test]
fn concurrent_creates_of_one_name_leave_only_the_winner_on_disk() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 4;
    let data_dir = std::env::temp_dir().join(format!("rain-serve-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let config = || ServerConfig {
        data_dir: Some(data_dir.to_string_lossy().into_owned()),
        ..Default::default()
    };
    // Client i's spec: a distinct sampling period, alternating model kinds.
    let spec = |name: &str, i: usize| {
        let kinds = ["logistic", "softmax"];
        spec_json(name, kinds[i % 2], (i + 1) as f64)
    };

    let server = start(config()).unwrap();
    let addr = server.addr();
    let mut winners = Vec::new();
    for round in 0..ROUNDS {
        let name = format!("race{round}");
        let gate = std::sync::Arc::new(std::sync::Barrier::new(CLIENTS));
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let (gate, body) = (gate.clone(), spec(&name, i));
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    gate.wait();
                    client.post("/sessions", &body).unwrap().0
                })
            })
            .collect();
        let statuses: Vec<u16> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let won: Vec<usize> = (0..CLIENTS).filter(|&i| statuses[i] == 200).collect();
        assert_eq!(won.len(), 1, "round {round}: {statuses:?}");
        assert_eq!(
            statuses.iter().filter(|&&s| s == 409).count(),
            CLIENTS - 1,
            "round {round}: {statuses:?}"
        );
        winners.push((name, won[0]));
    }
    server.shutdown();

    let server = start(config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for (name, i) in winners {
        let want = spec(&name, i);
        let attached = client.post_ok("/sessions", &want).unwrap();
        assert_eq!(attached.get("recovered"), Some(&Json::Bool(true)), "{name}");
        assert_eq!(
            attached.get("model"),
            want.get("model").unwrap().get("kind"),
            "{name}"
        );
        assert_eq!(
            attached.get("sample_every"),
            want.get("sample_every"),
            "{name}"
        );
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A request's body buffer follows the bytes received, not the header: a
/// connection that declares the largest legal body and sends none of it
/// is answered 400 and dropped without reaching a handler, while a
/// genuinely large body (5 MB of strings) still round-trips.
#[test]
fn declared_but_unsent_body_is_dropped_and_large_bodies_round_trip() {
    use std::io::{Read, Write};
    let server = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .post_ok("/sessions", &logistic_session("big"))
        .unwrap();
    let requests = |c: &mut Client| {
        c.get_ok("/stats")
            .unwrap()
            .get("requests")
            .unwrap()
            .as_i64()
            .unwrap()
    };
    let before = requests(&mut client);

    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.write_all(
        format!(
            "POST /sessions/big/tables HTTP/1.1\r\nHost: rain\r\nContent-Length: {}\r\n\r\n",
            rain_serve::http::MAX_BODY
        )
        .as_bytes(),
    )
    .unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    let mut answer = String::new();
    raw.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 400 "), "got {answer:?}");
    assert!(answer.contains("malformed HTTP request"), "got {answer:?}");
    // Only the `/stats` call above counts: the short request never became one.
    assert_eq!(requests(&mut client), before + 1);

    // ~5 MB: 50 000 rows of a 100-byte string cell, the last one a needle.
    let n = 50_000;
    let cell = "λ-padding-".repeat(9);
    let body = Json::obj(vec![
        ("name", Json::str("wide")),
        (
            "columns",
            Json::Arr(vec![Json::obj(vec![
                ("name", Json::str("note")),
                ("type", Json::str("str")),
                (
                    "values",
                    Json::Arr(
                        (0..n)
                            .map(|i| match i + 1 == n {
                                true => Json::str("needle"),
                                false => Json::str(format!("{cell}{i}")),
                            })
                            .collect(),
                    ),
                ),
            ])]),
        ),
    ]);
    assert!(body.to_string().len() > 5_000_000);
    let ack = client.post_ok("/sessions/big/tables", &body).unwrap();
    assert_eq!(ack.get("rows").and_then(Json::as_usize), Some(n));
    let out = client
        .post_ok(
            "/sessions/big/query",
            &Json::obj(vec![(
                "sql",
                Json::str("SELECT COUNT(*) FROM wide WHERE note = 'needle'"),
            )]),
        )
        .unwrap();
    let rows = out.get("result").unwrap().get("rows").unwrap();
    assert_eq!(rows, &Json::Arr(vec![Json::Arr(vec![Json::num(1.0)])]));
    server.shutdown();
}

/// `?profile` on the ingest routes returns the request's span tree:
/// parse, decode and (durable sessions) log commit, each with the counter
/// that sizes it. Without the flag the response carries no profile.
#[test]
fn ingest_profile_flag_attributes_parse_decode_and_log() {
    let data_dir =
        std::env::temp_dir().join(format!("rain-serve-ingest-profile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let server = start(ServerConfig {
        data_dir: Some(data_dir.to_string_lossy().into_owned()),
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .post_ok("/sessions", &logistic_session("ing"))
        .unwrap();

    let counter = |node: &Json, key: &str| {
        node.get("counters")
            .and_then(|c| c.get(key))
            .and_then(Json::as_usize)
            .unwrap_or_else(|| panic!("no counter {key:?} on {node}"))
    };
    let table = table_json("pairs", 30, 10);
    let plain = client.post_ok("/sessions/ing/tables", &table).unwrap();
    assert_eq!(plain.get("profile"), None);

    let ack = client
        .post_ok("/sessions/ing/tables?profile", &table)
        .unwrap();
    let profile = ack.get("profile").expect("profiled registration");
    assert_eq!(
        profile.get("name").and_then(Json::as_str),
        Some("register-table")
    );
    assert_eq!(
        counter(child(profile, "serve.parse_body"), "bytes"),
        table.to_string().len()
    );
    assert_eq!(counter(child(profile, "serve.decode"), "rows"), 30);
    assert!(counter(child(profile, "serve.log_commit"), "bytes") > 30 * 8);

    let ack = client
        .post_ok("/sessions/ing/train?profile=1", &train_json(40, 8))
        .unwrap();
    let profile = ack.get("profile").expect("profiled upload");
    assert_eq!(
        profile.get("name").and_then(Json::as_str),
        Some("upload-train")
    );
    assert_eq!(counter(child(profile, "serve.decode"), "rows"), 40);
    child(profile, "serve.log_commit");

    let append = Json::obj(vec![
        ("rows", Json::Arr(vec![Json::Arr(vec![Json::num(30.0)])])),
        ("features", Json::Arr(vec![Json::Arr(vec![Json::num(1.0)])])),
    ]);
    let ack = client
        .post_ok("/sessions/ing/tables/pairs/append?profile", &append)
        .unwrap();
    let profile = ack.get("profile").expect("profiled append");
    assert_eq!(
        profile.get("name").and_then(Json::as_str),
        Some("append-rows")
    );
    assert_eq!(counter(child(profile, "serve.decode"), "rows"), 1);
    child(profile, "serve.parse_body");
    child(profile, "serve.log_commit");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// Non-ASCII SQL is a parse error, not a panic: the three statements that
/// used to kill the connection thread inside the lexer (while it held the
/// session mutex) answer 400 on both SQL routes, and the same connection —
/// and session — then serves a normal query. Inside a literal, non-ASCII
/// text is data.
#[test]
fn non_ascii_sql_answers_400_and_the_connection_lives_on() {
    let server = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .post_ok("/sessions", &logistic_session("utf8"))
        .unwrap();
    client
        .post_ok("/sessions/utf8/tables", &table_json("pairs", 12, 5))
        .unwrap();
    for sql in [
        "SELECT € FROM pairs",
        "SELECT (é FROM pairs",
        "SELECT id FROM pairs WHERE id =€",
    ] {
        let (status, body) = client
            .post(
                "/sessions/utf8/query",
                &Json::obj(vec![("sql", Json::str(sql))]),
            )
            .unwrap();
        assert_eq!(status, 400, "`{sql}`: {body}");
        let msg = body.get("error").unwrap().as_str().unwrap();
        assert!(msg.contains("unexpected character"), "`{sql}`: {msg}");
        let (status, body) = client
            .post("/sessions/utf8/complain", &count_complaint(sql, 1.0))
            .unwrap();
        assert_eq!(status, 400, "`{sql}`: {body}");
    }
    let rows = |sql: &str, client: &mut Client| {
        let out = client
            .post_ok(
                "/sessions/utf8/query",
                &Json::obj(vec![("sql", Json::str(sql))]),
            )
            .unwrap();
        out.get("result").unwrap().get("rows").unwrap().clone()
    };
    assert_eq!(
        rows("SELECT COUNT(*) FROM pairs", &mut client),
        Json::Arr(vec![Json::Arr(vec![Json::num(12.0)])])
    );
    assert_eq!(
        rows("SELECT COUNT(*) FROM pairs WHERE 'λ' = 'λ'", &mut client),
        Json::Arr(vec![Json::Arr(vec![Json::num(12.0)])])
    );
    server.shutdown();
}

/// The path-selecting knobs are off the wire: `engine`, `memo`,
/// `incremental` (and, on a debug run, `threads`) are ignored like any
/// unknown key — accepted whatever they hold, and answered exactly as the
/// same body without them.
#[test]
fn retired_option_keys_are_accepted_and_ignored() {
    let server = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let retired = || {
        vec![
            ("engine", Json::str("tuple")),
            ("memo", Json::Bool(false)),
            ("incremental", Json::Bool(false)),
        ]
    };
    let plain = client
        .post_ok("/sessions", &logistic_session("knobs"))
        .unwrap();
    let other = client
        .post_ok(
            "/sessions",
            &with_keys(logistic_session("knobs2"), retired()),
        )
        .unwrap();
    assert_eq!(
        other.to_string().replace("knobs2", "knobs"),
        plain.to_string()
    );
    assert_eq!(plain.get("engine"), None, "{plain}");

    client
        .post_ok("/sessions/knobs/tables", &table_json("pairs", 30, 10))
        .unwrap();
    client
        .post_ok("/sessions/knobs/train", &train_json(60, 10))
        .unwrap();
    client
        .post_ok(
            "/sessions/knobs/complain",
            &count_complaint("SELECT COUNT(*) FROM pairs WHERE predict(*) = 1", 10.0),
        )
        .unwrap();
    let run = |client: &mut Client, extra: Vec<(&str, Json)>| {
        let body = with_keys(
            Json::obj(vec![
                ("method", Json::str("holistic")),
                ("budget", Json::num(6.0)),
                ("k_per_iter", Json::num(2.0)),
            ]),
            extra,
        );
        let ack = client.post_ok("/sessions/knobs/debug-run", &body).unwrap();
        let done = await_job(client, ack.get("job").unwrap().as_i64().unwrap());
        done.get("report").unwrap().clone()
    };
    // Everything in a report but its wall-clock fields.
    let answer = |report: &Json| {
        let per_iter: Vec<Json> = report
            .get("iterations")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|it| {
                Json::Arr(
                    [
                        "removed",
                        "complaints_satisfied",
                        "checks_skipped",
                        "train_loss",
                    ]
                    .iter()
                    .map(|k| it.get(k).unwrap().clone())
                    .collect(),
                )
            })
            .collect();
        let top: Vec<Json> = ["removed", "skeleton_rebuilds", "failure", "profile"]
            .iter()
            .map(|k| report.get(k).unwrap().clone())
            .collect();
        (top, per_iter)
    };
    let want = run(&mut client, vec![]);
    assert_eq!(want.get("removed").unwrap().as_arr().unwrap().len(), 6);
    assert_eq!(want.get("memo_hits"), None, "{want}");
    let mut keys = retired();
    keys.push(("threads", Json::num(1.0)));
    assert_eq!(answer(&run(&mut client, keys)), answer(&want));
    // Values that used to be rejected are not even looked at.
    let junk = vec![
        ("threads", Json::str("many")),
        ("engine", Json::num(7.0)),
        ("memo", Json::Null),
    ];
    assert_eq!(answer(&run(&mut client, junk)), answer(&want));
    server.shutdown();
}

/// A data directory written by a server that still read `"engine"`: the
/// logged `SessionMeta` spec is the creation body verbatim, so it carries
/// `"engine":"tuple"`. It must recover — onto the one engine there is —
/// and serve its cached query bit-equal.
#[test]
fn session_logged_with_an_engine_key_recovers_and_serves_bit_equal() {
    let data_dir = std::env::temp_dir().join(format!("rain-serve-engine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let config = || ServerConfig {
        data_dir: Some(data_dir.to_string_lossy().into_owned()),
        ..Default::default()
    };
    let q = Json::obj(vec![
        (
            "sql",
            Json::str("SELECT COUNT(*) FROM pairs WHERE predict(*) = 1"),
        ),
        ("analyze", Json::Bool(true)),
    ]);

    let server = start(config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let spec = with_keys(
        logistic_session("old"),
        vec![("engine", Json::str("tuple")), ("threads", Json::num(2.0))],
    );
    client.post_ok("/sessions", &spec).unwrap();
    client
        .post_ok("/sessions/old/tables", &table_json("pairs", 20, 7))
        .unwrap();
    let before = client.post_ok("/sessions/old/query", &q).unwrap();
    drop(client);
    server.shutdown();
    let logged = std::fs::read(data_dir.join("sessions/old/log.bin")).unwrap();
    assert!(
        logged
            .windows(16)
            .any(|w| w == br#""engine":"tuple""#.as_slice()),
        "the creation body is logged verbatim"
    );

    let server = start(config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let reattach = client.post_ok("/sessions", &spec).unwrap();
    assert_eq!(reattach.get("recovered"), Some(&Json::Bool(true)));
    assert_eq!(reattach.get("threads").unwrap().as_i64(), Some(2));
    let after = client.post_ok("/sessions/old/query", &q).unwrap();
    assert_eq!(after.get("result"), before.get("result"));
    assert_eq!(after.get("explain"), before.get("explain"));
    let explain = after.get("explain").unwrap().as_str().unwrap();
    assert!(
        explain.starts_with("Engine: vectorized threads=2"),
        "{explain}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}
