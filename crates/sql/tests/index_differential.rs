//! Differential tests for the physical-plan layer: secondary indexes and
//! the access paths built over them must be *pure optimizations*.
//!
//! For every randomized case, the same query is planned twice — against a
//! catalog with indexes (so the optimizer can pick `index-scan` and
//! `index-nested-loop` paths) and against an index-free catalog (pure
//! sequential scans and hash joins) — and both plans run on both engines
//! at several thread counts. All executions must be **bit-identical**:
//! same rows in the same order, same provenance polynomials, same
//! prediction-variable registry. Indexes may change *how* tuples are
//! found, never *which* tuples in *which* order. The catalog, the query
//! generator, the oracle sweep and the assertion are the shared harness's
//! (`common`); this suite adds the plain-vs-indexed axis, and asserts its
//! indexed plans reached every access path and join algorithm.
//!
//! Also covers stats staleness: appends bump the table's `(gen, delta)`
//! version, statistics recompute, indexes rebuild, estimates move, and
//! the skeleton cache re-prepares (re-costing the plan) on next checkout.

mod common;

use common::{
    assert_identical, assert_matches_oracle, index_all, plan_of, punch_nulls, random_db,
    random_query, sign_features, step_model, Tally,
};
use rain_linalg::RainRng;
use rain_sql::table::{ColType, Column, Schema, Table};
use rain_sql::{Database, Engine, IndexKind, QueryCache, QueryOutput, Value};

const CASES: u64 = 96;

/// The headline property: index-backed plans are bit-identical to
/// index-free plans, on both engines, at every thread budget. The
/// catalogs hold the same rows; only the indexed one has indexes.
fn run_case(seed: u64, nullable: bool, plans: &mut Tally) {
    let mut rng = RainRng::seed_from_u64(0x1DEC ^ seed);
    let mut plain_db = random_db(&mut rng);
    if nullable {
        punch_nulls(&mut rng, &mut plain_db, "t1");
        punch_nulls(&mut rng, &mut plain_db, "t2");
    }
    let mut indexed_db = plain_db.clone();
    index_all(&mut indexed_db);

    let sql = random_query(&mut rng, &mut Tally::default());
    let plain_plan = plan_of(&plain_db, &sql);
    let indexed_plan = plan_of(&indexed_db, &sql);
    plans.note_plan(&indexed_plan);

    let model = step_model();
    let label = format!("seed {seed} `{sql}`");
    let plain = assert_matches_oracle(&format!("{label} [plain]"), &plain_db, &plain_plan, &model);
    let indexed = assert_matches_oracle(
        &format!("{label} [indexed]"),
        &indexed_db,
        &indexed_plan,
        &model,
    );
    // The tuple oracle ignores physical annotations entirely, so the two
    // sweeps' oracles must agree too.
    assert_identical(
        &format!("{label} [normal, ix-vs-plain]"),
        &plain.normal,
        &indexed.normal,
    );
    assert_identical(
        &format!("{label} [debug, ix-vs-plain]"),
        &plain.debug,
        &indexed.debug,
    );
}

#[test]
fn indexed_plans_match_unindexed_plans_bit_for_bit() {
    let mut plans = Tally::default();
    for seed in 0..CASES {
        run_case(seed, false, &mut plans);
    }
    plans.assert_complete("index sweep");
}

/// NULL keys never appear in an index, exactly as they never enter a
/// hash-join build — NULLs punched into both tables must not change any
/// output.
#[test]
fn indexed_plans_match_on_nullable_tables() {
    let mut plans = Tally::default();
    for seed in 0..CASES / 2 {
        run_case(seed, true, &mut plans);
    }
    plans.assert_complete("nullable index sweep");
}

/// Appends keep the whole physical layer honest: statistics recompute
/// under the bumped `(gen, delta)` version, indexes rebuild over the new
/// rows, and the optimizer's estimates move with the data.
#[test]
fn appends_refresh_stats_indexes_and_estimates() {
    let mut db = Database::new();
    let t = Table::from_columns(
        Schema::new(&[("x", ColType::Int), ("f", ColType::Float)]),
        vec![
            Column::Int((0..50).map(|i| i % 5).collect()),
            Column::Float((0..50).map(|i| i as f64).collect()),
        ],
    );
    db.register("t", t);
    db.create_index("t", "x", IndexKind::Hash).unwrap();
    let id = db.resolve("t").unwrap();

    let before = db.stats_of(id).clone();
    assert_eq!(before.row_count, 50);
    assert_eq!(before.distinct(0), 5);
    assert_eq!(before.columns[1].max, Some(49.0));

    let plan_est = |db: &Database| {
        plan_of(db, "SELECT COUNT(*) FROM t WHERE x = 0")
            .est
            .clone()
            .expect("cost phase must annotate estimates")
    };
    let est_before = plan_est(&db);

    // Append 150 rows with 10 fresh key values and a larger f range.
    let rows: Vec<Vec<Value>> = (0..150)
        .map(|i| vec![Value::Int(5 + i % 10), Value::Float(100.0 + i as f64)])
        .collect();
    let (_, version) = db.append_to("t", rows, None).unwrap();
    assert_eq!(version.delta, 1, "append must bump the delta version");

    let after = db.stats_of(id);
    assert_eq!(after.row_count, 200);
    assert_eq!(after.distinct(0), 15);
    assert_eq!(after.columns[1].max, Some(249.0));
    assert_eq!(after.version, version, "stats must carry the new version");
    let ix = db.index_on(id, 0, IndexKind::Hash).unwrap();
    assert_eq!(ix.len(), 200, "append must rebuild the index");

    let est_after = plan_est(&db);
    assert!(
        est_after.scan_rows[0] > est_before.scan_rows[0],
        "estimates must re-cost from fresh stats: {est_before:?} vs {est_after:?}"
    );
}

/// The skeleton cache re-prepares (and therefore re-optimizes with fresh
/// statistics) when a cached query's table moves: an append invalidates,
/// the re-prepared skeleton serves the new rows, and a further checkout
/// hits.
#[test]
fn query_cache_reprepares_and_recosts_after_append() {
    let model = step_model();
    let mut db = Database::new();
    let t = Table::from_columns(
        Schema::new(&[("x", ColType::Int)]),
        vec![Column::Int((0..20).map(|i| i % 4).collect())],
    )
    .with_features(sign_features(&mut RainRng::seed_from_u64(7), 20));
    db.register("t", t);
    db.create_index("t", "x", IndexKind::Hash).unwrap();

    let mut cache = QueryCache::new(Engine::Vectorized);
    let sql = "SELECT COUNT(*) FROM t WHERE x = 1";
    let count = |out: &QueryOutput| out.table.to_tsv().lines().nth(1).unwrap().to_string();

    let (out, event) = cache.execute(&db, &model, sql).unwrap();
    assert_eq!(event.as_str(), "miss");
    assert_eq!(count(&out), "5");

    db.append_to(
        "t",
        (0..8).map(|_| vec![Value::Int(1)]).collect(),
        Some((0..8).map(|_| vec![1.0]).collect()),
    )
    .unwrap();
    let (out, event) = cache.execute(&db, &model, sql).unwrap();
    assert_eq!(
        event.as_str(),
        "invalidated",
        "stale stats must force a re-prepare"
    );
    assert_eq!(count(&out), "13", "re-prepared plan must see appended rows");

    let (_, event) = cache.execute(&db, &model, sql).unwrap();
    assert_eq!(event.as_str(), "hit");
}
