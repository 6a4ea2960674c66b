//! The per-layer replay: the one file that calls library functions
//! directly instead of going through the wire.
//!
//! It rebuilds a session in-process from the very bodies the server was
//! sent and replays the workload's operations through each layer's public
//! functions, a span of the benchmark's recorder around every call. One
//! pass of `driver::run_loop` is re-implemented from public calls only.
//! Entry points ROADMAP plans to collapse (`refresh_*`, `*_threaded`,
//! `with_threads`) are avoided on purpose, so an API-simplification PR
//! needs at most a change to this file first.
//!
//! Pinned API (see the README): `train_lbfgs`, `Classifier::{loss, grad,
//! hvp, predict_batch, grad_proba}`, `Dataset::remove_ids`,
//! `Matrix::{matvec, matvec_t}`, `parse_select`, `bind`, `optimize`,
//! `prepare`, `run_query`, `QueryCache::{new, execute}`,
//! `Database::{register, append_to}`, `Complaint::satisfied`, the three
//! `qfunc` functions, `sql_step`, `inverse_hvp`, `score_records`,
//! `rank_descending`, `durable::{create_store, snapshot_state, recover}`,
//! `SessionStore::{append_commit, snapshot}`, `json::parse`,
//! `Json::to_string`, the `protocol::*_from_json` decoders and
//! `output_to_json`, `metrics::auccr`.

use crate::inputs::{Inputs, SessionInputs, K_PER_ITER};
use crate::stats::median;
use crate::trace::{durations, layer_of, self_seconds_by_name, self_times, Recorder, Span};
use crate::wire::RunSample;
use rain_core::complaint::Complaint;
use rain_core::qfunc::{prob_grad_to_theta, probs_for, q_value_and_prob_grad};
use rain_core::twostep::{sql_step, SqlStep, SqlStepConfig};
use rain_influence::{inverse_hvp, rank_descending, score_records, InfluenceConfig};
use rain_model::{train_lbfgs, Classifier, Dataset, LbfgsConfig};
use rain_serve::json::{self, Json};
use rain_serve::protocol::{
    append_features_from_json, append_rows_from_json, complaint_from_json, dataset_from_json,
    model_from_json, output_to_json, table_from_json,
};
use rain_sql::table::ColType;
use rain_sql::{Database, Engine, ExecOptions, QueryCache, QueryOutput};
use rain_storage::Record;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;

/// AUCCR of a wire report's removal order against the seeded corruptions.
pub fn auccr(removed: &[usize], truth: &[usize]) -> f64 {
    rain_core::metrics::auccr(removed, truth)
}

/// A session rebuilt in-process from the bodies the server is sent,
/// through the same decoders the server uses.
struct Local {
    db: Database,
    train: Dataset,
    model: Box<dyn Classifier>,
    complaint_sql: String,
    complaints: Vec<Complaint>,
}

fn local_session(s: &SessionInputs) -> Local {
    let mut db = Database::new();
    for body in &s.tables {
        let (name, table) = table_from_json(body).expect("generated table decodes");
        db.register(&name, table);
    }
    let complaint = s.complain.get("complaint").expect("complaint body");
    Local {
        db,
        train: dataset_from_json(&s.train).expect("generated training set decodes"),
        model: model_from_json(&s.model).expect("generated model spec decodes"),
        complaint_sql: s
            .complain
            .get("sql")
            .and_then(Json::as_str)
            .expect("complaint sql")
            .to_string(),
        complaints: vec![complaint_from_json(complaint).expect("generated complaint decodes")],
    }
}

fn rows_json(out: &QueryOutput) -> Json {
    output_to_json(out)
        .get("rows")
        .cloned()
        .expect("output has rows")
}

/// What every wire query must answer: per session, per rotated query, the
/// rows of an in-process debug-mode `run_query` on the same data and the
/// session's (untrained) model.
pub fn reference_rows(inputs: &Inputs) -> Vec<Vec<Json>> {
    inputs
        .sessions
        .iter()
        .map(|s| {
            let local = local_session(s);
            s.queries
                .iter()
                .map(|sql| {
                    let out = rain_sql::run_query(
                        &local.db,
                        local.model.as_ref(),
                        sql,
                        ExecOptions::debug(),
                    )
                    .expect("reference query runs");
                    rows_json(&out)
                })
                .collect()
        })
        .collect()
}

/// Counts one replayed debug run made (they repeat exactly at a seed).
#[derive(Default)]
struct RunCounts {
    removed: Vec<usize>,
    lbfgs_iters: usize,
    cg_iters: usize,
    repairs: usize,
}

/// One pass of the train–rank–fix loop from public calls only, a span
/// around each. `cache` already holds the query's skeleton, as the
/// session's cache does on the wire after set-up.
fn replay_debug_run(
    rec: &mut Recorder,
    local: &Local,
    cache: &mut QueryCache,
    twostep: bool,
    budget: usize,
) -> RunCounts {
    let train_cfg = LbfgsConfig::default();
    let influence = InfluenceConfig::default();
    let sqlstep = SqlStepConfig::default();
    let mut counts = RunCounts::default();
    rec.next_request();
    rec.span("bench.debug_run", |rec| {
        let mut model = local.model.clone();
        let mut train = local.train.clone();
        let mut pass = 0u64;
        while counts.removed.len() < budget {
            let cfg = LbfgsConfig {
                max_iters: if pass == 0 {
                    train_cfg.max_iters
                } else {
                    train_cfg.max_iters.min(60)
                },
                ..train_cfg.clone()
            };
            let name = if pass == 0 {
                "model.train_cold"
            } else {
                "model.train_warm"
            };
            counts.lbfgs_iters += rec
                .span(name, |_| train_lbfgs(model.as_mut(), &train, &cfg))
                .iters;
            let out = rec.span("sql.cache_execute", |_| {
                cache
                    .execute(&local.db, model.as_ref(), &local.complaint_sql)
                    .expect("replayed query runs")
                    .0
            });
            rec.span("core.check", |_| {
                black_box(local.complaints.iter().all(|c| c.satisfied(&out)))
            });
            let grad_q = if twostep {
                let step_cfg = SqlStepConfig {
                    seed: sqlstep.seed ^ pass.wrapping_mul(0x9E37),
                    ..sqlstep.clone()
                };
                let repairs = rec.span("ilp.sql_step", |_| {
                    match sql_step(&out, &local.complaints, model.n_classes(), &step_cfg) {
                        SqlStep::Repairs(r) => r,
                        other => panic!("replayed SQL step did not solve: {other:?}"),
                    }
                });
                counts.repairs += repairs.len();
                rec.span("core.encode", |_| {
                    let mut g = vec![0.0; model.n_params()];
                    for (var, class) in repairs {
                        let info = out.predvars.info(var);
                        let table = local.db.table(&info.table).expect("predvar table");
                        let x = table.feature_row(info.row).expect("predvar features");
                        rain_linalg::vecops::axpy(-1.0, &model.grad_proba(x, class), &mut g);
                    }
                    g
                })
            } else {
                rec.span("core.encode", |_| {
                    let probs = probs_for(&local.db, &out, model.as_ref());
                    let (_, pg) = q_value_and_prob_grad(&out, &local.complaints, &probs);
                    prob_grad_to_theta(&local.db, &out, model.as_ref(), &pg)
                })
            };
            let solved = rec.span("influence.inverse_hvp", |_| {
                inverse_hvp(model.as_ref(), &train, &grad_q, &influence)
            });
            counts.cg_iters += solved.iters;
            let scores = rec.span("influence.score_records", |_| {
                score_records(model.as_ref(), &train, &solved.x, influence.threads)
            });
            let ranked = rec.span("influence.rank_descending", |_| {
                rank_descending(&train, &scores)
            });
            let k = K_PER_ITER.min(budget - counts.removed.len());
            let batch: Vec<usize> = ranked.iter().take(k).map(|r| r.id).collect();
            train = rec.span("model.remove_ids", |_| train.remove_ids(&batch));
            counts.removed.extend(batch);
            pass += 1;
        }
    });
    counts
}

/// Run `f` `n` times, a span called `name` around each.
fn repeat<R>(rec: &mut Recorder, name: &'static str, n: usize, mut f: impl FnMut() -> R) {
    for _ in 0..n {
        rec.span(name, |_| black_box(f()));
    }
}

const MICRO_REPS: usize = 20;
const HIT_REPS: usize = 200;

/// serve: the JSON codec over the real upload bodies, and the decoders
/// behind `POST …/tables` and `POST …/train`. Returns the session they
/// decode to and the megabytes of JSON text involved.
fn replay_uploads(rec: &mut Recorder, s: &SessionInputs) -> (Local, f64) {
    rec.next_request();
    let texts: Vec<String> = s
        .tables
        .iter()
        .chain([&s.train])
        .map(|body| rec.span("serve.json_write", |_| body.to_string()))
        .collect();
    for t in &texts {
        rec.span("serve.json_parse", |_| black_box(json::parse(t).is_ok()));
    }
    let local = rec.span("serve.decode_uploads", |_| local_session(s));
    (
        local,
        texts.iter().map(String::len).sum::<usize>() as f64 / 1e6,
    )
}

/// sql: plan, prepare, the full debug-mode execution the cache avoids,
/// and the cache's miss and hit paths. Returns the warm cache and the
/// prediction variables one refresh re-scores.
fn replay_queries(rec: &mut Recorder, local: &Local) -> (QueryCache, f64) {
    rec.next_request();
    let (sql, model) = (&local.complaint_sql, local.model.as_ref());
    let plan = || {
        let stmt = rain_sql::parse_select(sql).expect("query parses");
        let bound = rain_sql::bind(&stmt, &local.db).expect("query binds");
        rain_sql::optimize(bound, &local.db)
    };
    repeat(rec, "sql.plan", MICRO_REPS, plan);
    let the_plan = plan();
    repeat(rec, "sql.prepare", 3, || {
        rain_sql::prepare(&local.db, model, &the_plan, Engine::Vectorized).is_ok()
    });
    repeat(rec, "sql.full_exec", 3, || {
        rain_sql::run_query(&local.db, model, sql, ExecOptions::debug()).is_ok()
    });
    let mut cache = QueryCache::new(Engine::Vectorized);
    let first = rec.span("sql.cache_miss", |_| {
        cache.execute(&local.db, model, sql).expect("query runs").0
    });
    repeat(rec, "sql.cache_hit", HIT_REPS, || {
        cache.execute(&local.db, model, sql).is_ok()
    });
    (cache, first.predvars.len() as f64)
}

/// model, linalg: the kernels under train and rank, on the workload's own
/// training matrix and a trained model. Returns the rows one
/// `predict_batch` scores.
fn replay_kernels(rec: &mut Recorder, s: &SessionInputs, local: &Local) -> f64 {
    rec.next_request();
    let mut trained = local.model.clone();
    train_lbfgs(trained.as_mut(), &local.train, &LbfgsConfig::default());
    let v: Vec<f64> = (0..trained.n_params())
        .map(|i| ((i % 7) as f64 - 3.0) / 7.0)
        .collect();
    repeat(rec, "model.loss_grad", MICRO_REPS, || {
        (trained.loss(&local.train), trained.grad(&local.train))
    });
    repeat(rec, "model.hvp", MICRO_REPS, || {
        trained.hvp(&local.train, &v)
    });
    let queried = local.db.table(&s.append_table).expect("append target");
    let feats = queried.features().expect("featured table");
    repeat(rec, "model.predict_batch", MICRO_REPS, || {
        trained.predict_batch(feats)
    });
    let x = local.train.features();
    let (col_vec, row_vec) = (vec![0.5; x.cols()], vec![0.5; x.rows()]);
    repeat(rec, "linalg.matvec", MICRO_REPS, || x.matvec(&col_vec));
    repeat(rec, "linalg.matvec_t", MICRO_REPS, || x.matvec_t(&row_vec));
    feats.rows() as f64
}

/// One ingest episode: log the tables, then per append decode → catalog
/// append → log commit → the invalidated query; then snapshots and
/// recoveries. Returns the span range of the episode's rounds and the rows
/// a recovery brings back.
fn replay_ingest(
    rec: &mut Recorder,
    s: &SessionInputs,
    local: &Local,
    scratch: &Path,
) -> (std::ops::Range<usize>, f64) {
    rec.next_request();
    let start = rec.spans().len();
    let spec = Json::obj(vec![
        ("name", Json::str("replay")),
        ("model", s.model.clone()),
    ])
    .to_string();
    let dir = scratch.join("replay");
    let mut store = rain_core::durable::create_store(&dir, &spec).expect("open replay store");
    let mut sess = rain_core::driver::DebugSession::new(
        Database::new(),
        local.train.clone(),
        local.model.clone(),
    );
    for body in &s.tables {
        let (name, table) = table_from_json(body).expect("generated table decodes");
        let record = Record::RegisterTable {
            name: name.clone(),
            table: table.clone(),
        };
        rec.span("storage.append_commit", |_| {
            store.append_commit(&record).expect("log the table")
        });
        sess.db.register(&name, table);
    }
    let target = sess.db.table(&s.append_table).expect("append target");
    let types: Vec<ColType> = target.schema().iter().map(|d| d.ty).collect();
    let (query, model) = (&s.queries[0], local.model.as_ref());
    let mut cache = QueryCache::new(Engine::Vectorized);
    cache.execute(&sess.db, model, query).expect("query runs");
    for body in &s.appends {
        let text = body.to_string();
        let (rows, features) = rec.span("serve.decode_append", |_| {
            let body = json::parse(&text).expect("append body parses");
            (
                append_rows_from_json(body.get("rows").expect("rows"), &types)
                    .expect("rows decode"),
                append_features_from_json(body.get("features").expect("features"))
                    .expect("features decode"),
            )
        });
        let record = Record::AppendRows {
            name: s.append_table.clone(),
            rows: rows.clone(),
            features: features.clone(),
        };
        rec.span("sql.append_to", |_| {
            sess.db
                .append_to(&s.append_table, rows, features)
                .expect("append applies")
        });
        rec.span("storage.append_commit", |_| {
            store.append_commit(&record).expect("log the append")
        });
        rec.span("sql.cache_invalidated", |_| {
            cache.execute(&sess.db, model, query).expect("query runs")
        });
    }
    let rounds = start..rec.spans().len();
    repeat(rec, "storage.snapshot", 3, || {
        store
            .snapshot(&rain_core::durable::snapshot_state(&sess, &spec))
            .is_ok()
    });
    drop(store);
    let factory = |spec: &str| -> Result<Box<dyn Classifier>, String> {
        let v = json::parse(spec).map_err(|e| e.to_string())?;
        model_from_json(v.get("model").ok_or("no model")?).map_err(|e| e.message)
    };
    let mut recovered_rows = 0;
    for _ in 0..3 {
        let back = rec.span("storage.recover", |_| {
            rain_core::durable::recover(&dir, &factory).expect("replay store recovers")
        });
        recovered_rows = back.sess.db.iter().map(|(_, t)| t.n_rows()).sum();
    }
    let _ = std::fs::remove_dir_all(&dir);
    (rounds, recovered_rows as f64)
}

/// Share of each layer in the self time of the spans in `range`.
fn layer_shares(
    spans: &[Span],
    selfs: &[u64],
    range: std::ops::Range<usize>,
) -> BTreeMap<&'static str, f64> {
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, &ns) in spans[range.clone()].iter().zip(&selfs[range]) {
        *by_layer.entry(layer_of(s.name)).or_default() += ns as f64;
    }
    let total: f64 = by_layer.values().sum();
    by_layer.values_mut().for_each(|v| *v /= total.max(1.0));
    by_layer
}

/// What the wire side of the traced pass hands the replay.
pub struct WireSide<'a> {
    pub query_p50_ms: f64,
    pub runs: &'a [RunSample],
    /// Share of the end-to-end pass each phase gets (query, debug,
    /// ingest): the weights of the layer shares.
    pub shares: [f64; 3],
}

/// The replay's per-layer metrics and the spans behind them.
pub struct Replayed {
    pub metrics: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
}

/// Replay the first session's operations through the layers under a
/// recorder. `scratch` is a directory for the storage replay.
pub fn replay(inputs: &Inputs, wire: &WireSide<'_>, scratch: &Path) -> Replayed {
    let s = &inputs.sessions[0];
    let mut rec = Recorder::new(true);
    let (local, upload_mb) = replay_uploads(&mut rec, s);
    let (mut cache, refreshed_rows) = replay_queries(&mut rec, &local);

    // Holistic twice — recorder on, then off, for the tracing overhead —
    // and TwoStep once.
    let debug_start = rec.spans().len();
    let holistic = replay_debug_run(&mut rec, &local, &mut cache, false, inputs.budget);
    let holistic_end = rec.spans().len();
    let twostep = replay_debug_run(&mut rec, &local, &mut cache, true, inputs.budget);
    let debug_runs = debug_start..rec.spans().len();
    let t_off = std::time::Instant::now();
    let mut off = Recorder::new(false);
    replay_debug_run(&mut off, &local, &mut cache, false, inputs.budget);
    let untraced_s = t_off.elapsed().as_secs_f64();

    let predicted_rows = replay_kernels(&mut rec, s, &local);
    let (ingest_rounds, recovered_rows) = replay_ingest(&mut rec, s, &local, scratch);

    let spans = rec.spans().to_vec();
    let secs = |name: &str| median(&durations(&spans, name));
    let total = |name: &str| durations(&spans, name).iter().sum::<f64>();
    let x = local.train.features();
    let hit_s = secs("sql.cache_hit");
    let roots = durations(&spans, "bench.debug_run");
    let wire_holistic: Vec<&RunSample> = wire
        .runs
        .iter()
        .filter(|r| r.method == "holistic" && !r.profiled)
        .collect();
    let wire_run_s = median(&wire_holistic.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let agreement = wire_holistic.first().map_or(0.0, |w| {
        let same = w.removed.iter().zip(&holistic.removed);
        same.filter(|(a, b)| a == b).count() as f64 / w.removed.len().max(1) as f64
    });
    let mut m = BTreeMap::from([
        (
            "serve.json_write_mb_s",
            upload_mb / total("serve.json_write"),
        ),
        (
            "serve.json_parse_mb_s",
            upload_mb / total("serve.json_parse"),
        ),
        (
            "serve.http_overhead_us",
            wire.query_p50_ms * 1e3 - hit_s * 1e6,
        ),
        ("sql.plan_us", secs("sql.plan") * 1e6),
        ("sql.prepare_ms", secs("sql.prepare") * 1e3),
        ("sql.cache_miss_ms", secs("sql.cache_miss") * 1e3),
        ("sql.cache_hit_us", hit_s * 1e6),
        ("sql.refresh_rows_per_s", refreshed_rows / hit_s),
        ("sql.full_exec_ms", secs("sql.full_exec") * 1e3),
        (
            "core.encode_ms",
            median(&durations(&spans[..holistic_end], "core.encode")) * 1e3,
        ),
        ("core.check_us", secs("core.check") * 1e6),
        ("model.train_cold_ms", secs("model.train_cold") * 1e3),
        ("model.train_warm_ms", secs("model.train_warm") * 1e3),
        ("model.lbfgs_iters", holistic.lbfgs_iters as f64),
        ("model.loss_grad_us", secs("model.loss_grad") * 1e6),
        ("model.hvp_us", secs("model.hvp") * 1e6),
        (
            "model.predict_batch_rows_per_s",
            predicted_rows / secs("model.predict_batch"),
        ),
        (
            "influence.inverse_hvp_ms",
            secs("influence.inverse_hvp") * 1e3,
        ),
        ("influence.cg_iters", holistic.cg_iters as f64),
        (
            "influence.score_records_ms",
            secs("influence.score_records") * 1e3,
        ),
        (
            "influence.score_rows_per_s",
            local.train.len() as f64 / secs("influence.score_records"),
        ),
        ("linalg.matvec_us", secs("linalg.matvec") * 1e6),
        ("linalg.matvec_t_us", secs("linalg.matvec_t") * 1e6),
        // 2·rows·cols floating-point operations per product: computed,
        // not counted.
        (
            "linalg.matvec_gflop_s",
            2.0 * (x.rows() * x.cols()) as f64 / secs("linalg.matvec") / 1e9,
        ),
        ("ilp.sql_step_ms", secs("ilp.sql_step") * 1e3),
        ("ilp.repairs", twostep.repairs as f64),
        (
            "storage.append_commit_ms",
            secs("storage.append_commit") * 1e3,
        ),
        ("storage.snapshot_ms", secs("storage.snapshot") * 1e3),
        ("storage.recover_s", secs("storage.recover")),
        (
            "storage.recover_rows_per_s",
            recovered_rows / secs("storage.recover"),
        ),
        // How well the replay stands in for the wire run.
        ("bench.replay_coverage", roots[0] / wire_run_s),
        ("bench.replay_agreement", agreement),
        (
            "bench.unattributed_share",
            self_seconds_by_name(&spans)["bench.debug_run"] / roots.iter().sum::<f64>(),
        ),
        ("bench.trace_overhead_ratio", roots[0] / untraced_s),
    ]);

    // Layer shares of the workload's measured seconds: each phase's
    // replayed spans split by layer, weighted by the phase's share of the
    // run. Time only the wire sees goes to `serve`: per cached query the
    // wire p50 beyond the in-process hit, per debug run the wire run
    // beyond the report's own train + encode + rank. The debug root's self
    // time is the unattributed rest.
    let selfs = self_times(&spans);
    let [query_w, debug_w, ingest_w] = wire.shares;
    let in_sql = (hit_s / (wire.query_p50_ms / 1e3)).min(1.0);
    let plain_runs = wire.runs.iter().filter(|r| !r.profiled);
    let job_overhead = median(
        &plain_runs
            .map(|r| (1.0 - (r.train_s + r.encode_s + r.rank_s) / r.run_s).max(0.0))
            .collect::<Vec<_>>(),
    );
    let mut shares = BTreeMap::from([
        ("sql", query_w * in_sql),
        ("serve", query_w * (1.0 - in_sql) + debug_w * job_overhead),
    ]);
    for (layer, share) in layer_shares(&spans, &selfs, debug_runs) {
        *shares.entry(layer).or_default() += debug_w * (1.0 - job_overhead) * share;
    }
    for (layer, share) in layer_shares(&spans, &selfs, ingest_rounds) {
        *shares.entry(layer).or_default() += ingest_w * share;
    }
    for (name, layer) in [
        ("share.serve", "serve"),
        ("share.sql", "sql"),
        ("share.core", "core"),
        ("share.model", "model"),
        ("share.influence", "influence"),
        ("share.ilp", "ilp"),
        ("share.storage", "storage"),
    ] {
        m.insert(name, 100.0 * shares.get(layer).copied().unwrap_or(0.0));
    }
    Replayed { metrics: m, spans }
}
