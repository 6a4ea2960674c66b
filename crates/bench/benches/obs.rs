//! Instrumentation-overhead bench on the DBLP join workload.
//!
//! Times the model-free DBLP equi-join (the `BENCH_parallel.json` join
//! shape) twice: with tracing disabled (the default — every span is
//! inert, no clock reads) and with a live trace finished per run the
//! way `?profile=1` does it (start a trace, execute, finish it). Before
//! timing, the two modes' outputs are asserted bit-identical —
//! instrumentation is a pure observer.
//!
//! A second section measures **always-on sampling** end to end: the
//! 16-client serve workload (one session per client, cached debug-mode
//! queries) with per-session sampling off versus sampling 1-in-16 into
//! the profile ring — the serving layer's production default.
//!
//! Writes `BENCH_obs.json` (path overridable via `RAIN_BENCH_JSON`)
//! with the headline `overhead.ratio = disabled_ms / enabled_ms` and
//! `sampling.ratio` (same definition, serve workload); the regression
//! gate floors both at 0.95, i.e. tracing/sampling may cost at most
//! ~5% end to end.

use rain_bench::BenchGroup;
use rain_data::{dblp::DblpConfig, tables::dataset_to_table};
use rain_model::{train_lbfgs, LogisticRegression};
use rain_serve::json::Json;
use rain_serve::{start, Client, ServerConfig};
use rain_sql::table::Column;
use rain_sql::{bind, execute, optimize, parse_select, Database, ExecOptions, QueryPlan};
use std::net::SocketAddr;

const JOIN_SQL: &str = "SELECT COUNT(*) FROM pairs_a a, pairs_b b \
                        WHERE a.id = b.id AND b.bucket < 2";

fn plan_for(sql: &str, db: &Database) -> QueryPlan {
    let stmt = parse_select(sql).unwrap();
    let bound = bind(&stmt, db).unwrap();
    optimize(bound, db)
}

const SERVE_CLIENTS: usize = 16;
const SERVE_SQL: &str = "SELECT COUNT(*) FROM dblp WHERE predict(*) = 1";

/// One session per client, prefixed `prefix-`, with explicit sampling
/// knobs (`slow_ms` pushed out of reach so only the 1-in-N sampler
/// differs between the two phases).
fn serve_sessions(addr: SocketAddr, prefix: &str, sample_every: f64, table: &Json, train: &Json) {
    let mut client = Client::connect(addr).expect("connect for setup");
    for si in 0..SERVE_CLIENTS {
        let name = format!("{prefix}-{si}");
        client
            .post_ok(
                "/sessions",
                &Json::obj(vec![
                    ("name", Json::str(name.clone())),
                    (
                        "model",
                        Json::obj(vec![
                            ("kind", Json::str("logistic")),
                            ("dim", Json::num(rain_data::dblp::N_FEATURES as f64)),
                            ("l2", Json::num(0.01)),
                        ]),
                    ),
                    ("sample_every", Json::num(sample_every)),
                    ("slow_ms", Json::num(3_600_000.0)),
                ]),
            )
            .expect("create session");
        client
            .post_ok(&format!("/sessions/{name}/tables"), table)
            .expect("register table");
        client
            .post_ok(&format!("/sessions/{name}/train"), train)
            .expect("upload train");
    }
}

/// Drive 16 client threads, `requests` cached queries each, against the
/// `prefix-` sessions; returns when every thread is done.
fn serve_drive(addr: SocketAddr, prefix: &str, requests: usize) {
    let threads: Vec<_> = (0..SERVE_CLIENTS)
        .map(|ci| {
            let path = format!("/sessions/{prefix}-{ci}/query");
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let body = Json::obj(vec![("sql", Json::str(SERVE_SQL))]);
                for _ in 0..requests {
                    client.post_ok(&path, &body).expect("query");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("bench client panicked");
    }
}

fn main() {
    let quick = rain_bench::is_quick();
    let n_query = if quick { 150_000 } else { 300_000 };
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let w = DblpConfig {
        n_train: 400,
        n_query,
        ..Default::default()
    }
    .generate(42);
    let mut model = LogisticRegression::new(17, 0.01);
    train_lbfgs(&mut model, &w.train, &Default::default());

    let n = w.query.len();
    let bucket = |n: usize| Column::Int((0..n as i64).map(|i| i % 10).collect());
    let n_build = (n / 5).min(20_000);
    let b_side = w.query.select(&(0..n_build).collect::<Vec<_>>());
    let mut db = Database::new();
    db.register(
        "pairs_a",
        dataset_to_table(&w.query, vec![("bucket", bucket(n))]),
    );
    db.register(
        "pairs_b",
        dataset_to_table(&b_side, vec![("bucket", bucket(n_build))]),
    );
    let plan = plan_for(JOIN_SQL, &db);
    let opts = ExecOptions::default;

    // One profiled execution, exactly as the serving layer runs it.
    let run_traced = || {
        let trace = rain_obs::Trace::start("query");
        let out = execute(&db, &model, &plan, opts()).unwrap();
        (out, trace.finish())
    };

    // Correctness before timing: tracing must not perturb results, and
    // the finished tree must actually cover the execution.
    let baseline = execute(&db, &model, &plan, opts()).unwrap();
    let (traced_out, tree) = run_traced();
    assert_eq!(
        baseline.table.to_tsv(),
        traced_out.table.to_tsv(),
        "tracing changed query results"
    );
    assert!(tree.find("join").is_some(), "trace misses the join span");
    assert!(tree.find("scan").is_some(), "trace misses the scan span");
    assert!(
        !rain_obs::enabled(),
        "this thread still carries the finished trace"
    );

    let samples = if quick { 3 } else { 20 };
    let mut g = BenchGroup::new("obs_overhead", samples);
    g.bench("join_disabled", || {
        execute(&db, &model, &plan, opts()).unwrap()
    });
    g.bench("join_enabled", &run_traced);
    g.finish();

    let disabled_ms = g.median_secs("join_disabled").unwrap() * 1e3;
    let enabled_ms = g.median_secs("join_enabled").unwrap() * 1e3;
    let ratio = disabled_ms / enabled_ms;
    println!("host_cores: {host_cores}");
    println!(
        "instrumentation overhead: {:.2}% ({disabled_ms:.3} ms off -> {enabled_ms:.3} ms on, ratio {ratio:.3})",
        (enabled_ms / disabled_ms - 1.0) * 100.0
    );

    // --- Always-on sampling on the 16-client serve workload ---
    let (serve_rows, serve_requests) = if quick { (300, 20) } else { (1500, 80) };
    let sw = DblpConfig {
        n_train: 400,
        n_query: serve_rows,
        ..Default::default()
    }
    .generate(42);
    let table = rain_serve::protocol::table_to_json("dblp", &sw.query_table());
    let train = rain_serve::protocol::dataset_to_json(&sw.train);
    let server = start(ServerConfig {
        job_workers: 2,
        ..Default::default()
    })
    .expect("start server");
    let addr = server.addr();
    serve_sessions(addr, "off", 0.0, &table, &train);
    serve_sessions(addr, "on", 16.0, &table, &train);
    // Warm both session sets (skeleton-cache misses happen here).
    serve_drive(addr, "off", 1);
    serve_drive(addr, "on", 1);

    let mut sg = BenchGroup::new("obs_sampling", samples);
    sg.bench("serve_sampling_off", || {
        serve_drive(addr, "off", serve_requests)
    });
    sg.bench("serve_sampling_on", || {
        serve_drive(addr, "on", serve_requests)
    });
    sg.finish();
    let s_disabled_ms = sg.median_secs("serve_sampling_off").unwrap() * 1e3;
    let s_enabled_ms = sg.median_secs("serve_sampling_on").unwrap() * 1e3;
    let s_ratio = s_disabled_ms / s_enabled_ms;
    println!(
        "sampling overhead: {:.2}% ({s_disabled_ms:.3} ms off -> {s_enabled_ms:.3} ms on, ratio {s_ratio:.3})",
        (s_enabled_ms / s_disabled_ms - 1.0) * 100.0
    );
    // The enabled phase must actually have filled the profile ring —
    // otherwise the "overhead" was measured against a sampler that
    // never fired.
    let mut probe = Client::connect(addr).expect("connect");
    let profiles = probe.get_ok("/debug/profiles").expect("profiles");
    let captured = profiles
        .get("recent")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    assert!(captured > 0, "sampling-on phase captured no profiles");
    server.shutdown();

    let json = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"n_query\": {n_query},\n  \
         \"samples\": {samples},\n  \"host_cores\": {host_cores},\n  \
         \"trace_spans\": {},\n  \
         \"overhead\": {{ \"disabled_ms\": {disabled_ms:.6}, \
         \"enabled_ms\": {enabled_ms:.6}, \"ratio\": {ratio:.3} }},\n  \
         \"sampling\": {{ \"clients\": {SERVE_CLIENTS}, \
         \"requests_per_client\": {serve_requests}, \
         \"profiles_captured\": {captured}, \
         \"disabled_ms\": {s_disabled_ms:.6}, \
         \"enabled_ms\": {s_enabled_ms:.6}, \"ratio\": {s_ratio:.3} }}\n}}\n",
        tree.size()
    );
    let path = std::env::var("RAIN_BENCH_JSON").unwrap_or_else(|_| "BENCH_obs.json".to_string());
    std::fs::write(&path, &json).expect("write bench artifact");
    println!("wrote {path}");
}
