//! Differential tests for incremental re-execution: a skeleton prepared
//! under one set of model parameters and refreshed under another must be
//! **bit-identical** to a fresh full debug-mode execution with the new
//! parameters — same result rows, same schema, same `ScalarResult`, same
//! prediction-variable registry (ids, sources, hard predictions), and
//! structurally equal provenance polynomials — on both engines, for
//! skeletons prepared on either engine.
//!
//! Workloads are the shared harness's seeded-random SPJA queries
//! (`common::random_query`: joins, `predict = c` / `predict != c` atoms,
//! `predict(a) = predict(b)` join predicates, grouped and predict-keyed
//! aggregates, projections), plus nullable tables, stale-skeleton
//! detection, and model-architecture mismatches. The full executions a
//! refresh is held to are first pinned to the tuple oracle at every
//! thread budget (`common::assert_matches_oracle`).
//!
//! The second half holds skeleton *extension* to the same standard: after
//! random appends, `catch_up` + `refresh` must equal a fresh re-plan +
//! `prepare` + `refresh` in every observable — rows, provenance (term
//! order included), prediction variables, packed features, skeleton
//! statistics.

mod common;

use common::{
    assert_identical, assert_matches_oracle, counter, flipped_model, index_all, plan_of,
    punch_nulls, random_db, random_model, random_query, sign_features, step_model, wide_step_model,
    Tally, THREADS,
};
use rain_linalg::{Matrix, RainRng};
use rain_model::Classifier;
use rain_sql::table::{ColType, Column, Schema, Table};
use rain_sql::{
    execute, prepare, prepare_with, AccessPath, CacheEvent, Database, Engine, ExecOptions,
    IndexKind, PreparedQuery, QueryCache, QueryPlan, StaleKind, Value,
};
use std::time::Instant;

const CASES: u64 = 128;

/// Prepare `plan` on both engines under the step model, refresh under
/// each model in `refresh_models` at every thread budget, and pin every
/// refresh against the full debug execution that `assert_matches_oracle`
/// has already pinned across engines and budgets.
fn check_case(label: &str, db: &Database, plan: &QueryPlan, refresh_models: &[&dyn Classifier]) {
    let prepared = [Engine::Tuple, Engine::Vectorized].map(|engine| {
        prepare(db, &step_model(), plan, engine)
            .unwrap_or_else(|e| panic!("{label} prepare[{engine:?}]: {e}"))
    });
    for model in refresh_models {
        let full = assert_matches_oracle(label, db, plan, *model).debug;
        for pq in &prepared {
            for threads in THREADS {
                let label = format!("{label} [prep={:?}, threads={threads}]", pq.stats().engine);
                let refreshed = pq
                    .refresh(db, *model, threads)
                    .unwrap_or_else(|e| panic!("{label} refresh: {e}"));
                assert_identical(&label, &full, &refreshed);
            }
        }
    }
}

/// The headline property: refresh-after-parameter-change is bit-identical
/// to fresh full execution, across seeded SPJA workloads, engines, and
/// three parameter updates (same params, all predictions flipped, random
/// soft boundary). Odd seeds index the catalog, so skeletons are also
/// captured through every index path.
#[test]
fn refresh_matches_full_reexecution_bit_for_bit() {
    let same = step_model();
    let flipped = flipped_model();
    let mut tally = Tally::default();
    for seed in 0..CASES {
        let mut rng = RainRng::seed_from_u64(0x14C ^ seed);
        let mut db = random_db(&mut rng);
        if seed % 2 == 1 {
            index_all(&mut db);
        }
        let sql = random_query(&mut rng, &mut tally);
        let plan = plan_of(&db, &sql);
        tally.note_plan(&plan);
        let random = random_model(&mut rng);
        let label = format!("seed {seed} `{sql}`");
        check_case(&label, &db, &plan, &[&same, &flipped, &random]);
    }
    tally.assert_complete("refresh sweep");
}

/// Nullable base tables exercise the fallback scan/join/group paths and
/// NULL-skipping aggregate terms; the skeleton must reproduce them too.
#[test]
fn refresh_matches_full_reexecution_on_nullable_tables() {
    let flipped = flipped_model();
    for seed in 0..CASES / 4 {
        let mut rng = RainRng::seed_from_u64(0xA11 ^ seed);
        let mut db = random_db(&mut rng);
        punch_nulls(&mut rng, &mut db, "t1");
        punch_nulls(&mut rng, &mut db, "t2");
        let sql = random_query(&mut rng, &mut Tally::default());
        let label = format!("seed {seed} `{sql}` [nullable]");
        check_case(&label, &db, &plan_of(&db, &sql), &[&flipped]);
    }
}

/// Large-input refresh sweep: enough prediction variables and a wide
/// enough model that the batched-inference fan-out actually shards across
/// workers (small cases stay under one worker's share of work), and a
/// table big enough that capture runs the morsel-parallel scan/probe
/// paths. Skeletons captured under different worker budgets and refreshed
/// under every thread budget must all be bit-identical to full
/// re-execution.
#[test]
fn threaded_refresh_and_capture_are_bit_identical_on_large_inputs() {
    let mut rng = RainRng::seed_from_u64(0xBEEF);
    let n = 9_000usize;
    let feats = sign_features(&mut rng, n);
    let f: Vec<f64> = (0..n).map(|_| rng.uniform_range(-2.0, 4.0)).collect();
    // Both queries keep every `a` row with `f < 2.0`: at least that many
    // variables, which sizes the model to shard them.
    let vars = f.iter().filter(|&&f| f < 2.0).count();
    let t1 = Table::from_columns(
        Schema::new(&[("x", ColType::Int), ("f", ColType::Float)]),
        vec![
            Column::Int((0..n).map(|i| (i % 3001) as i64).collect()),
            Column::Float(f),
        ],
    )
    .with_features(feats);
    let mut db = Database::new();
    db.register("t1", t1.clone());
    db.register("t2", t1);

    let flipped = wide_step_model(-1.0, vars);
    for sql in [
        "SELECT COUNT(*) FROM t1 a WHERE a.f < 3.0 AND predict(a) = 1",
        "SELECT COUNT(*) FROM t1 a, t2 b WHERE a.x = b.x AND a.f < 2.0 AND predict(a) = 1",
    ] {
        let plan = plan_of(&db, sql);
        // The vectorized engine alone: each execution here spends ≈ 1 s
        // of a debug build in the wide model's inference, on either
        // engine, and an oracle sweep would run eight of them per query.
        let full = execute(&db, &flipped, &plan, ExecOptions::debug()).unwrap();
        for capture_threads in [1, 8] {
            let prepared = prepare_with(
                &db,
                &wide_step_model(1.0, vars),
                &plan,
                Engine::Vectorized,
                capture_threads,
            )
            .unwrap();
            assert!(prepared.stats().n_vars >= vars, "fan-out must shard");
            for refresh_threads in THREADS {
                let trace = rain_obs::Trace::start("refresh");
                let out = prepared.refresh(&db, &flipped, refresh_threads).unwrap();
                let tree = trace.finish();
                let inference = tree.find("inference").expect("inference span");
                assert_eq!(
                    counter(inference, "workers").map(|w| w.min(2)),
                    Some(refresh_threads.min(2) as u64),
                    "`{sql}` [refresh={refresh_threads}]: fan-out must shard"
                );
                assert_identical(
                    &format!("`{sql}` [capture={capture_threads}, refresh={refresh_threads}]"),
                    &full,
                    &out,
                );
            }
        }
    }
}

/// A fully model-free query prepares and refreshes too: the output is
/// independent of whichever model refreshes it.
#[test]
fn model_free_skeleton_refreshes_identically_under_any_model() {
    let mut rng = RainRng::seed_from_u64(7);
    let db = random_db(&mut rng);
    let sql = "SELECT x, COUNT(*) FROM t1 a, t2 b WHERE a.x = b.k AND a.flag GROUP BY x";
    let plan = plan_of(&db, sql);
    assert!(plan.model_deps().is_model_free());
    let prepared = prepare(&db, &step_model(), &plan, Engine::Vectorized).unwrap();
    assert!(prepared.stats().model_free);
    assert_eq!(prepared.stats().n_vars, 0);
    let a = prepared.refresh(&db, &step_model(), 0).unwrap();
    let b = prepared.refresh(&db, &flipped_model(), 0).unwrap();
    assert_identical("model-free", &a, &b);
}

/// Re-registering a queried table invalidates the skeleton: refresh must
/// fail loudly instead of replaying stale row identities.
#[test]
fn refresh_rejects_stale_skeletons() {
    let mut rng = RainRng::seed_from_u64(11);
    let mut db = random_db(&mut rng);
    let sql = "SELECT COUNT(*) FROM t1 a WHERE predict(a) = 1";
    let plan = plan_of(&db, sql);
    let prepared = prepare(&db, &step_model(), &plan, Engine::Vectorized).unwrap();
    prepared
        .refresh(&db, &step_model(), 0)
        .expect("fresh skeleton");
    // Same data, re-registered: the version bump alone must invalidate.
    let t1 = db.table("t1").unwrap().clone();
    db.register("t1", t1);
    let err = prepared.refresh(&db, &step_model(), 0).unwrap_err();
    assert!(err.to_string().contains("stale"), "unexpected error: {err}");
}

/// A model with a different architecture (class count) cannot refresh a
/// skeleton whose formulas were fanned out over the old class set.
#[test]
fn refresh_rejects_model_architecture_changes() {
    let mut rng = RainRng::seed_from_u64(13);
    let db = random_db(&mut rng);
    let sql = "SELECT COUNT(*) FROM t1 a WHERE predict(a) = 1 GROUP BY predict(a)";
    let plan = plan_of(&db, sql);
    let prepared = prepare(&db, &step_model(), &plan, Engine::Tuple).unwrap();
    let tri = rain_model::SoftmaxRegression::new(1, 3, 0.0);
    let err = prepared.refresh(&db, &tri, 0).unwrap_err();
    assert!(
        err.to_string().contains("classes"),
        "unexpected error: {err}"
    );
}

/// `catch_up` re-prepares a stale skeleton from its cached plan, and the
/// refresh after it matches a fresh execution — including when the
/// re-registered table has entirely different rows.
#[test]
fn refresh_with_rebuild_recovers_from_reregistration() {
    let mut rng = RainRng::seed_from_u64(19);
    let mut db = random_db(&mut rng);
    let sql = "SELECT COUNT(*) FROM t1 a WHERE predict(a) = 1";
    let plan = plan_of(&db, sql);
    let mut prepared = prepare(&db, &step_model(), &plan, Engine::Vectorized).unwrap();
    let rebuilt = prepared.catch_up(&db, &step_model(), 0).unwrap();
    prepared.refresh(&db, &step_model(), 0).unwrap();
    assert!(!rebuilt, "fresh skeleton must not rebuild");
    assert!(!prepared.is_stale(&db));

    // Replace t1 with a same-schema table of different rows.
    let other = random_db(&mut rng);
    db.register("t1", other.table("t1").unwrap().clone());
    assert!(prepared.is_stale(&db));
    let rebuilt = prepared.catch_up(&db, &step_model(), 0).unwrap();
    let out = prepared.refresh(&db, &step_model(), 0).unwrap();
    assert!(rebuilt, "stale skeleton must re-prepare");
    let fresh = execute(&db, &step_model(), &plan, ExecOptions::debug()).unwrap();
    assert_identical("rebuild", &fresh, &out);

    // The rebuilt skeleton is warm again...
    let again = prepared.catch_up(&db, &step_model(), 0).unwrap();
    prepared.refresh(&db, &step_model(), 0).unwrap();
    assert!(!again);
    // ...and without `catch_up`, refresh is still the explicit error.
    let t1 = db.table("t1").unwrap().clone();
    db.register("t1", t1);
    assert!(prepared.refresh(&db, &step_model(), 0).is_err());
}

/// `catch_up` also recovers from a model-architecture change: the class
/// fan-out of predict-keyed groups is re-captured for the new class set.
#[test]
fn refresh_with_rebuild_recaptures_for_new_architecture() {
    let mut rng = RainRng::seed_from_u64(23);
    let db = random_db(&mut rng);
    let sql = "SELECT COUNT(*) FROM t1 a GROUP BY predict(a)";
    let plan = plan_of(&db, sql);
    let mut prepared = prepare(&db, &step_model(), &plan, Engine::Tuple).unwrap();
    let tri = rain_model::SoftmaxRegression::new(1, 3, 0.0);
    let rebuilt = prepared.catch_up(&db, &tri, 0).unwrap();
    let out = prepared.refresh(&db, &tri, 0).unwrap();
    assert!(rebuilt);
    assert!(!prepared.catch_up(&db, &tri, 0).unwrap());
    let fresh = execute(&db, &tri, &plan, ExecOptions::debug().on(Engine::Tuple)).unwrap();
    assert_identical("arch rebuild", &fresh, &out);
}

/// The prepare-time stats reflect the pipeline: scan selections per
/// relation, one join step, and the model-dependence classification.
#[test]
fn skeleton_stats_describe_the_pipeline() {
    let mut rng = RainRng::seed_from_u64(17);
    let db = random_db(&mut rng);
    let sql = "SELECT COUNT(*) FROM t1 a, t2 b \
               WHERE a.x = b.k AND a.x > 1 AND predict(a) = 1";
    let plan = plan_of(&db, sql);
    for engine in [Engine::Tuple, Engine::Vectorized] {
        let prepared = prepare(&db, &step_model(), &plan, engine).unwrap();
        let stats = prepared.stats();
        assert_eq!(stats.engine, engine);
        assert_eq!(stats.scan_rows.len(), 2, "one scan per relation");
        assert!(
            stats.scan_rows[0] <= db.table("t1").unwrap().n_rows(),
            "scan filter must not widen the selection"
        );
        assert_eq!(stats.join_steps.len(), 1, "one join step");
        assert!(
            stats.join_steps[0].0.contains("hash"),
            "equi-join is hashed"
        );
        assert_eq!(stats.candidate_tuples, stats.join_steps[0].1);
        assert!(!stats.model_free);
        assert_eq!(
            stats.n_vars,
            prepared
                .refresh(&db, &step_model(), 0)
                .unwrap()
                .predvars
                .len()
        );
    }
}

// ---------------------------------------------------------------------
// Extension ≡ rebuild
// ---------------------------------------------------------------------

/// One append batch: value rows plus row-aligned features.
type Batch = (Vec<Vec<Value>>, Vec<Vec<f64>>);

/// `ext(g int?, x int, n int?, f float, s str)`, featured. `g` is the
/// group key and `n` the nullable filter column; both carry NULLs.
fn ext_schema() -> Schema {
    Schema::new(&[
        ("g", ColType::Int),
        ("x", ColType::Int),
        ("n", ColType::Int),
        ("f", ColType::Float),
        ("s", ColType::Str),
    ])
}

/// `n` random rows whose group keys fall in `g_lo..g_hi` (NULL one time in
/// eight), so a caller can open groups before, between and after the ones
/// a table already has.
fn ext_rows(rng: &mut RainRng, n: usize, g_lo: i64, g_hi: i64) -> Batch {
    let words = ["http", "deal", "spam", ""];
    let null_or = |rng: &mut RainRng, v: i64| {
        if rng.bernoulli(0.125) {
            Value::Null
        } else {
            Value::Int(v)
        }
    };
    let rows = (0..n)
        .map(|_| {
            let g = rng.int_range(g_lo, g_hi);
            let nn = rng.int_range(0, 6);
            vec![
                null_or(rng, 2 * g), // even keys: odd ones can land between
                Value::Int(rng.int_range(0, 5)),
                null_or(rng, nn),
                Value::Float(rng.uniform_range(-2.0, 4.0)),
                Value::Str(words[rng.below(words.len())].to_string()),
            ]
        })
        .collect();
    let feats = sign_features(rng, n)
        .iter_rows()
        .map(<[f64]>::to_vec)
        .collect();
    (rows, feats)
}

fn ext_table(batch: Batch) -> Table {
    let mut t = Table::empty(ext_schema()).with_features(Matrix::zeros(0, 1));
    t.append_rows(batch.0, Some(&batch.1));
    t
}

/// The shapes extension must reproduce, each with the table the tests
/// append to: single relations, then joins. A join extends when the
/// appended table is its plan's first relation and no other one — the
/// planner puts the larger table first, so usually `ext` — and otherwise
/// takes the rebuild branch and must still agree: the self-join always,
/// an append to `side` while it is the inner relation.
const EXT_QUERIES: [(&str, &str); 13] = [
    ("SELECT x, predict(a) FROM ext a WHERE a.f < 3", "ext"),
    ("SELECT x, s FROM ext a WHERE a.x > 1", "ext"),
    ("SELECT COUNT(*) FROM ext a WHERE predict(a) = 1", "ext"),
    ("SELECT g, AVG(predict(a)) FROM ext a GROUP BY g", "ext"),
    (
        "SELECT COUNT(*), SUM(f) FROM ext a GROUP BY predict(a)",
        "ext",
    ),
    (
        "SELECT SUM(f) FROM ext a WHERE a.n > 2 AND predict(a) = 0",
        "ext",
    ),
    (
        "SELECT COUNT(*) FROM ext a WHERE a.x = 2 AND predict(a) = 1",
        "ext",
    ),
    (
        "SELECT g, COUNT(*) FROM ext a WHERE a.f < 1.5 AND a.n >= 1 GROUP BY g",
        "ext",
    ),
    (
        "SELECT COUNT(*) FROM ext a, side b WHERE a.x = b.x AND predict(a) = 1",
        "ext",
    ),
    (
        "SELECT a.g, COUNT(*) FROM ext a, side b WHERE predict(a) = predict(b) GROUP BY a.g",
        "ext",
    ),
    (
        "SELECT b.g, COUNT(*) FROM ext a, side b, side c \
         WHERE a.x = b.x AND a.x = c.x AND predict(a) = predict(c) GROUP BY b.g",
        "ext",
    ),
    (
        "SELECT COUNT(*) FROM ext a, ext b WHERE a.x = b.x AND predict(a) = predict(b)",
        "ext",
    ),
    (
        "SELECT a.x, predict(b) FROM ext a, side b WHERE a.x = b.x AND b.f < 3",
        "side",
    ),
];

/// Whether an append to `table` leaves `plan`'s skeleton extendable: the
/// table is the plan's first relation and appears nowhere else in it.
fn extends_on_append(plan: &rain_sql::QueryPlan, table: &str) -> bool {
    plan.rels[0].table == table && plan.rels[1..].iter().all(|r| r.table != table)
}

/// `caught_up` (a skeleton extended or rebuilt in place) against a fresh
/// prepare on the same catalog: every observable must agree. A
/// single-relation query is re-planned from its SQL first — extension must
/// not depend on what the planner would choose today; a join is prepared
/// from the plan the skeleton kept, since a re-plan may order the join the
/// other way round and number its prediction variables differently.
fn assert_same_skeleton(
    label: &str,
    db: &Database,
    sql: &str,
    caught_up: &PreparedQuery,
    engine: Engine,
    threads: usize,
) {
    let plan = match caught_up.plan().rels.len() {
        1 => plan_of(db, sql),
        _ => caught_up.plan().clone(),
    };
    let fresh = prepare_with(db, &step_model(), &plan, engine, threads).unwrap();
    assert!(!caught_up.is_stale(db), "{label}: still stale");
    assert_eq!(caught_up.stats(), fresh.stats(), "{label}: skeleton stats");
    assert_eq!(
        caught_up.features().as_slice(),
        fresh.features().as_slice(),
        "{label}: packed features"
    );
    for model in [step_model(), flipped_model()] {
        let want = fresh.refresh(db, &model, threads).unwrap();
        let got = caught_up.refresh(db, &model, threads).unwrap();
        assert_identical(label, &want, &got);
    }
}

/// The headline property of extension: over seeded tables, queries and
/// append sequences (1–3 batches between queries; zero-row batches; a
/// table registered empty; groups opened before, between and after the
/// existing ones; NULL keys; hash and sorted index scans; joins extended
/// over their outer relation or rebuilt), on both engines at 1 and 2
/// threads, a skeleton caught up after the appends equals one prepared
/// from scratch.
#[test]
fn extension_matches_rebuild_bit_for_bit() {
    let (mut extended, mut extended_joins) = (0usize, 0usize);
    let mut index_scans = [false; 2];
    for seed in 0..CASES / 2 {
        let mut rng = RainRng::seed_from_u64(0xE87 ^ seed);
        let start_empty = seed % 8 == 0;
        let n_base = if start_empty { 0 } else { 4 + rng.below(30) };
        let base = ext_table(ext_rows(&mut rng, n_base, 2, 5));
        // A small second table so join queries have something to join.
        let side = ext_table(ext_rows(&mut rng, 6, 0, 3));
        let (sql, appended) = EXT_QUERIES[seed as usize % EXT_QUERIES.len()];
        // Three query points, 1..4 batches before each.
        let steps: Vec<Vec<Batch>> = (0..3)
            .map(|_| {
                (0..1 + rng.below(3))
                    .map(|_| {
                        let n = if rng.bernoulli(0.2) {
                            0
                        } else {
                            1 + rng.below(12)
                        };
                        ext_rows(&mut rng, n, 0, 8)
                    })
                    .collect()
            })
            .collect();
        for engine in [Engine::Tuple, Engine::Vectorized] {
            for threads in [1, 2] {
                let label = format!("seed {seed} `{sql}` [{engine:?}, threads={threads}]");
                let mut db = Database::new();
                db.register("ext", base.clone());
                db.register("side", side.clone());
                db.create_index("ext", "x", IndexKind::Hash).unwrap();
                db.create_index("ext", "f", IndexKind::Sorted).unwrap();
                let plan = plan_of(&db, sql);
                if let AccessPath::IndexScan { kind, .. } = plan.access[0] {
                    index_scans[(kind == IndexKind::Sorted) as usize] = true;
                }
                let extends = extends_on_append(&plan, appended);
                let mut pq = prepare_with(&db, &step_model(), &plan, engine, threads).unwrap();
                for (si, batches) in steps.iter().enumerate() {
                    for (rows, feats) in batches {
                        db.append_to(appended, rows.clone(), Some(feats.clone()))
                            .unwrap();
                    }
                    assert_eq!(pq.stale_kind(&db), Some(StaleKind::Appended), "{label}");
                    assert_eq!(pq.can_extend(&db, &step_model()), extends, "{label}");
                    extended += extends as usize;
                    extended_joins += (extends && plan.rels.len() > 1) as usize;
                    pq.catch_up(&db, &step_model(), threads).unwrap();
                    assert_same_skeleton(
                        &format!("{label} step {si}"),
                        &db,
                        sql,
                        &pq,
                        engine,
                        threads,
                    );
                }
                // A re-registration takes the rebuild branch.
                db.register("ext", side.clone());
                assert_eq!(pq.stale_kind(&db), Some(StaleKind::Replaced), "{label}");
                assert!(!pq.can_extend(&db, &step_model()), "{label}");
                pq.catch_up(&db, &step_model(), threads).unwrap();
                assert_same_skeleton(
                    &format!("{label} re-registered"),
                    &db,
                    sql,
                    &pq,
                    engine,
                    threads,
                );
            }
        }
    }
    assert!(extended > 100, "extension branch barely ran: {extended}");
    assert!(
        extended_joins > 100,
        "join extension barely ran: {extended_joins}"
    );
    assert!(index_scans[0], "no case planned a hash index scan");
    assert!(index_scans[1], "no case planned a sorted index scan");
}

/// Morsel-parallel scans honour the floor too: on a table big enough to
/// shard, an appended suffix that itself spans several morsels extends to
/// what a rebuild captures, at every thread count.
#[test]
fn extension_matches_rebuild_across_morsels() {
    let mut rng = RainRng::seed_from_u64(0x0E57);
    let base = ext_table(ext_rows(&mut rng, 3_000, 0, 6));
    let delta = ext_rows(&mut rng, 9_500, 0, 9);
    let sql = "SELECT g, AVG(predict(a)) FROM ext a WHERE a.s LIKE '%a%' AND a.f < 3 GROUP BY g";
    for threads in [1, 2, 8] {
        let mut db = Database::new();
        db.register("ext", base.clone());
        let mut pq = prepare_with(
            &db,
            &step_model(),
            &plan_of(&db, sql),
            Engine::Vectorized,
            threads,
        )
        .unwrap();
        db.append_to("ext", delta.0.clone(), Some(delta.1.clone()))
            .unwrap();
        assert!(pq.can_extend(&db, &step_model()));
        pq.catch_up(&db, &step_model(), threads).unwrap();
        assert_same_skeleton(
            &format!("morsels, threads={threads}"),
            &db,
            sql,
            &pq,
            Engine::Vectorized,
            threads,
        );
    }
}

/// The join twin: an outer relation big enough to shard, with an appended
/// suffix spanning several morsels, joined to a small inner one by a hash
/// join and by a cross join, extends to what a fresh prepare of the kept
/// plan captures, at every thread count.
#[test]
fn join_extension_matches_rebuild_across_morsels() {
    let mut rng = RainRng::seed_from_u64(0x70E57);
    let base = ext_table(ext_rows(&mut rng, 3_000, 0, 6));
    let side = ext_table(ext_rows(&mut rng, 4, 0, 3));
    let delta = ext_rows(&mut rng, 9_500, 0, 9);
    let queries = [
        "SELECT a.g, COUNT(*) FROM ext a, side b \
         WHERE a.x = b.x AND a.f < 3 AND predict(a) = predict(b) GROUP BY a.g",
        "SELECT COUNT(*) FROM ext a, side b WHERE a.s LIKE '%a%' AND predict(a) = predict(b)",
    ];
    for sql in queries {
        for threads in [1, 2, 8] {
            let label = format!("`{sql}` morsels, threads={threads}");
            let mut db = Database::new();
            db.register("ext", base.clone());
            db.register("side", side.clone());
            let plan = plan_of(&db, sql);
            assert_eq!(plan.rels[0].table, "ext", "{label}: outer relation");
            let mut pq =
                prepare_with(&db, &step_model(), &plan, Engine::Vectorized, threads).unwrap();
            db.append_to("ext", delta.0.clone(), Some(delta.1.clone()))
                .unwrap();
            assert!(pq.can_extend(&db, &step_model()), "{label}");
            pq.catch_up(&db, &step_model(), threads).unwrap();
            assert_same_skeleton(&label, &db, sql, &pq, Engine::Vectorized, threads);
        }
    }
}

/// Prediction variables are numbered pass by pass (the conjuncts after
/// each join step, then the capture). A query creating them in two passes
/// cannot append the delta's to the old ones and keep a fresh prepare's
/// ids, so it rebuilds — bit-identically — while one whose later pass
/// only meets variables an earlier one created still extends.
#[test]
fn variables_from_two_passes_rebuild_instead_of_extending() {
    let cases = [
        // The filter short-circuits for `x > 1`; the capture creates the
        // variables of those rows.
        (
            "SELECT predict(a), x FROM ext a WHERE (a.x > 1 OR predict(a) = 1)",
            false,
        ),
        // `a`'s variables in the first pass, `b`'s after the join.
        (
            "SELECT COUNT(*) FROM ext a, side b \
             WHERE a.x = b.x AND predict(a) = 1 AND predict(b) = 0",
            false,
        ),
        // The capture reads only variables the filter created.
        ("SELECT predict(a), x FROM ext a WHERE predict(a) = 1", true),
    ];
    let mut rng = RainRng::seed_from_u64(0x2FA5);
    for (sql, extends) in cases {
        for engine in [Engine::Tuple, Engine::Vectorized] {
            let label = format!("`{sql}` [{engine:?}]");
            let mut db = Database::new();
            db.register("ext", ext_table(ext_rows(&mut rng, 30, 0, 4)));
            db.register("side", ext_table(ext_rows(&mut rng, 5, 0, 3)));
            let mut pq = prepare_with(&db, &step_model(), &plan_of(&db, sql), engine, 1).unwrap();
            assert_eq!(pq.plan().rels[0].table, "ext", "{label}: outer relation");
            for _ in 0..2 {
                let (rows, feats) = ext_rows(&mut rng, 20, 0, 4);
                db.append_to("ext", rows, Some(feats)).unwrap();
                assert_eq!(pq.can_extend(&db, &step_model()), extends, "{label}");
                pq.catch_up(&db, &step_model(), 1).unwrap();
                assert_same_skeleton(&label, &db, sql, &pq, engine, 1);
            }
        }
    }
}

/// An output handed out before the append must not change when the
/// skeleton it came from is extended: the provenance sums it shares with
/// the skeleton are copied on write, never grown in place.
#[test]
fn outputs_taken_before_an_append_are_untouched_by_extension() {
    let mut rng = RainRng::seed_from_u64(0x0A7C);
    for (sql, appended) in EXT_QUERIES {
        let mut db = Database::new();
        db.register("ext", ext_table(ext_rows(&mut rng, 20, 2, 5)));
        db.register("side", ext_table(ext_rows(&mut rng, 6, 0, 3)));
        let plan = plan_of(&db, sql);
        let extends = extends_on_append(&plan, appended);
        let mut pq = prepare(&db, &step_model(), &plan, Engine::Vectorized).unwrap();
        let before = pq.refresh(&db, &step_model(), 0).unwrap();
        let snapshot = format!("{before:?}");
        let (rows, feats) = ext_rows(&mut rng, 15, 0, 8);
        db.append_to(appended, rows, Some(feats)).unwrap();
        assert_eq!(pq.can_extend(&db, &step_model()), extends, "`{sql}`");
        pq.catch_up(&db, &step_model(), 1).unwrap();
        let after = pq.refresh(&db, &step_model(), 0).unwrap();
        assert_eq!(format!("{before:?}"), snapshot, "`{sql}`: old output moved");
        assert_ne!(
            format!("{after:?}"),
            snapshot,
            "`{sql}`: append not visible"
        );
    }
}

/// Through the cache: appends are `invalidated` lookups answered by
/// extension (counted in both `invalidations` and `extended`); a new
/// index re-plans — same answer, new access path, not an extension.
#[test]
fn cache_extends_on_append_and_replans_on_a_new_index() {
    let mut rng = RainRng::seed_from_u64(0xCAC);
    let mut db = Database::new();
    db.register("ext", ext_table(ext_rows(&mut rng, 40, 0, 4)));
    let mut cache = QueryCache::new(Engine::Vectorized);
    let sql = "SELECT COUNT(*) FROM ext a WHERE a.x = 2 AND predict(a) = 1";
    let model = step_model();
    let (_, ev) = cache.execute(&db, &model, sql).unwrap();
    assert_eq!(ev, CacheEvent::Miss);

    let (rows, feats) = ext_rows(&mut rng, 10, 0, 4);
    db.append_to("ext", rows, Some(feats)).unwrap();
    let (out, ev) = cache.execute(&db, &model, sql).unwrap();
    assert_eq!(ev, CacheEvent::Invalidated);
    let stats = cache.stats();
    assert_eq!((stats.invalidations, stats.extended), (1, 1));
    let full = execute(&db, &model, &plan_of(&db, sql), ExecOptions::debug()).unwrap();
    assert_identical("extended through the cache", &full, &out);

    db.create_index("ext", "x", IndexKind::Hash).unwrap();
    let cq = cache.checkout(&db, &model, sql).unwrap();
    assert_eq!(cq.event, CacheEvent::Invalidated, "a new index is news");
    assert!(
        matches!(cq.prepared.plan().access[0], AccessPath::IndexScan { .. }),
        "the re-plan must pick up the index"
    );
    let replanned = cq.prepared.refresh(&db, &model, 0).unwrap();
    cache.checkin(cq);
    assert_identical("re-planned onto the index", &full, &replanned);
    let stats = cache.stats();
    assert_eq!((stats.invalidations, stats.extended), (2, 1));
    assert_eq!(cache.execute(&db, &model, sql).unwrap().1, CacheEvent::Hit);
}

/// Ratio guard for O(delta) append → query, in the style of
/// `ingest_linearity`: on a 16 000-row table the first query after a
/// 250-row append must cost < 4× a cache hit at that size. Re-preparing
/// the skeleton reads ≈ 20×. Min of 3 on both sides.
#[test]
fn first_query_after_a_small_append_costs_like_a_hit() {
    let mut rng = RainRng::seed_from_u64(0x16_000);
    let mut db = Database::new();
    db.register("ext", ext_table(ext_rows(&mut rng, 16_000, 0, 6)));
    let model = step_model();
    let mut cache = QueryCache::new(Engine::Vectorized);
    let sql = "SELECT COUNT(*) FROM ext a WHERE predict(a) = 1";
    cache.execute(&db, &model, sql).unwrap();
    let (mut invalidated, mut hit) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let (rows, feats) = ext_rows(&mut rng, 250, 0, 6);
        db.append_to("ext", rows, Some(feats)).unwrap();
        let t = Instant::now();
        let (_, ev) = cache.execute(&db, &model, sql).unwrap();
        invalidated = invalidated.min(t.elapsed().as_secs_f64());
        assert_eq!(ev, CacheEvent::Invalidated);
        let t = Instant::now();
        let (_, ev) = cache.execute(&db, &model, sql).unwrap();
        hit = hit.min(t.elapsed().as_secs_f64());
        assert_eq!(ev, CacheEvent::Hit);
    }
    assert_eq!(cache.stats().extended, 3);
    assert!(
        invalidated < 4.0 * hit,
        "first query after a 250-row append took {:.3} ms, a hit {:.3} ms",
        invalidated * 1e3,
        hit * 1e3
    );
}

/// The join sibling of the guard above: a prediction join of a 2 000-row
/// outer table with an 8-row inner one (16 000 candidates), 25-row appends
/// to the outer table. The first query after each must cost < 4× a cache
/// hit; a re-plan + re-prepare of the whole join reads ≈ 50×. Min of 3 on
/// both sides.
#[test]
fn first_query_after_a_small_append_to_a_join_costs_like_a_hit() {
    let mut rng = RainRng::seed_from_u64(0x2_000);
    let mut db = Database::new();
    db.register("ext", ext_table(ext_rows(&mut rng, 2_000, 0, 6)));
    db.register("side", ext_table(ext_rows(&mut rng, 8, 0, 3)));
    let model = step_model();
    let mut cache = QueryCache::new(Engine::Vectorized);
    let sql = "SELECT COUNT(*) FROM ext a, side b WHERE predict(a) = predict(b)";
    cache.execute(&db, &model, sql).unwrap();
    let (mut invalidated, mut hit) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let (rows, feats) = ext_rows(&mut rng, 25, 0, 6);
        db.append_to("ext", rows, Some(feats)).unwrap();
        let t = Instant::now();
        let (_, ev) = cache.execute(&db, &model, sql).unwrap();
        invalidated = invalidated.min(t.elapsed().as_secs_f64());
        assert_eq!(ev, CacheEvent::Invalidated);
        let t = Instant::now();
        let (_, ev) = cache.execute(&db, &model, sql).unwrap();
        hit = hit.min(t.elapsed().as_secs_f64());
        assert_eq!(ev, CacheEvent::Hit);
    }
    assert_eq!(cache.stats().extended, 3);
    assert!(
        invalidated < 4.0 * hit,
        "first query after a 25-row append to a join took {:.3} ms, a hit {:.3} ms",
        invalidated * 1e3,
        hit * 1e3
    );
}
