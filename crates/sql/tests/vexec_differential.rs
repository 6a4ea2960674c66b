//! Differential tests: the vectorized engine against the tuple oracle.
//!
//! Both engines share one evaluation core and must enumerate tuples in
//! the same order, so their outputs are required to be **bit-identical**
//! (`common::assert_identical`) at every thread budget
//! (`common::assert_matches_oracle`). Random cases run over both the
//! naive and the optimized plan, on plain and on indexed catalogs; the
//! large cases assert through their traces that the parallel paths they
//! exist for actually engaged.

mod common;

use common::{
    assert_matches_oracle, children_named, counter, find_all, index_all, plan_of, punch_nulls,
    random_db, random_query, sign_features, step_model, Sweep, Tally,
};
use rain_linalg::RainRng;
use rain_sql::table::{ColType, Column, Schema, Table};
use rain_sql::{bind, optimize, parse_select, Database, QueryPlan, Value};

const CASES: u64 = 128;

/// The headline differential property over randomized SPJA workloads —
/// grouped shapes included — on every seed's naive and optimized plan;
/// odd seeds index the catalog so optimized plans take every index path.
#[test]
fn vexec_matches_tuple_engine_bit_for_bit() {
    let model = step_model();
    let mut tally = Tally::default();
    for seed in 0..CASES {
        let mut rng = RainRng::seed_from_u64(0xD1FF ^ seed);
        let mut db = random_db(&mut rng);
        if seed % 2 == 1 {
            index_all(&mut db);
        }
        let sql = random_query(&mut rng, &mut tally);
        let stmt = parse_select(&sql).unwrap_or_else(|e| panic!("seed {seed} `{sql}`: {e}"));
        let bound = bind(&stmt, &db).unwrap_or_else(|e| panic!("seed {seed} `{sql}`: {e}"));
        let plans = [
            ("naive", QueryPlan::naive(bound.clone(), &db)),
            ("optimized", optimize(bound, &db)),
        ];
        tally.note_plan(&plans[1].1);
        for (name, plan) in &plans {
            assert_matches_oracle(&format!("seed {seed} `{sql}` [{name}]"), &db, plan, &model);
        }
    }
    tally.assert_complete("vexec sweep");
}

/// Assert that every run with a parallel budget recorded each span in
/// `spans`, and every such span working in parallel: a `build` or
/// `aggregate` split into ≥ 2 hash partitions, a `scan`, `probe` or
/// `cross` into ≥ 2 morsels. Grouped aggregation partitions on the
/// columnar fast path, which is normal mode's; debug mode finalizes
/// through the shared evaluator, so `aggregate` is checked in normal mode.
fn assert_engaged(sql: &str, sweep: &Sweep, spans: &[&str]) {
    for (debug, tree) in sweep.parallel_traces() {
        for &name in spans {
            if debug && name == "aggregate" {
                continue;
            }
            let nodes = find_all(tree, name);
            assert!(!nodes.is_empty(), "`{sql}` [debug={debug}]: no `{name}`");
            for node in nodes {
                let parallel = match name {
                    "build" | "aggregate" => counter(node, "partitions").unwrap_or(1),
                    _ => children_named(node, "morsel") as u64,
                };
                assert!(
                    parallel >= 2,
                    "`{sql}` [debug={debug}]: a `{name}` ran sequentially"
                );
            }
        }
    }
}

/// Large-input differential: tables big enough that the morsel-parallel
/// scan, partitioned build and hash-join-probe paths engage (the small
/// randomized cases above stay under the parallel thresholds and exercise
/// the sequential guard). Rows, provenance, and prediction variables must
/// be bit-identical to the tuple oracle for every thread budget — and
/// therefore across thread counts.
#[test]
fn morsel_parallel_paths_match_the_oracle_on_large_inputs() {
    let model = step_model();
    let mut rng = RainRng::seed_from_u64(0x60AF);
    let n1 = 20_000usize;
    let n2 = 12_000usize;
    let mut db = Database::new();
    let t1 = Table::from_columns(
        Schema::new(&[
            ("x", ColType::Int),
            ("f", ColType::Float),
            ("flag", ColType::Bool),
        ]),
        vec![
            Column::Int((0..n1).map(|i| (i % 4999) as i64).collect()),
            Column::Float((0..n1).map(|_| rng.uniform_range(-2.0, 4.0)).collect()),
            Column::Bool((0..n1).map(|_| rng.bernoulli(0.5)).collect()),
        ],
    )
    .with_features(sign_features(&mut rng, n1));
    db.register("t1", t1);
    // t2.y carries NULL holes so its pushed-down filter takes the
    // kernel-fallback (row-at-a-time) path inside parallel scan workers.
    let mut t2 = Table::empty(Schema::new(&[("y", ColType::Int), ("k", ColType::Int)]));
    for i in 0..n2 {
        let y = if rng.bernoulli(0.1) {
            Value::Null
        } else {
            Value::Int(rng.int_range(0, 10))
        };
        t2.push_row(vec![y, Value::Int((i % 4999) as i64)], None);
    }
    db.register("t2", t2.with_features(sign_features(&mut rng, n2)));

    let cases: [(&str, &[&str]); 3] = [
        // Typed-key hash join with parallel scans on both sides (t2's
        // filter falls back row-at-a-time over the null bitmap).
        (
            "SELECT COUNT(*) FROM t1 a, t2 b WHERE a.x = b.k AND a.f < 2.0 AND b.y >= 3",
            &["scan", "probe"],
        ),
        // Expression key: the general-strategy probe, morsel-parallel,
        // with a model predicate evaluated sequentially on top.
        (
            "SELECT COUNT(*) FROM t1 a, t2 b WHERE a.x + 0 = b.k AND predict(a) = 1",
            &["build", "probe"],
        ),
        // Grouped aggregate over the parallel join output.
        (
            "SELECT flag, COUNT(*) FROM t1 a, t2 b WHERE a.x = b.k AND a.f < 1.0 GROUP BY flag",
            &["build", "probe"],
        ),
    ];
    for (sql, spans) in cases {
        let sweep = assert_matches_oracle(&format!("`{sql}`"), &db, &plan_of(&db, sql), &model);
        assert_engaged(sql, &sweep, spans);
    }
}

/// The partitioned hash build must preserve the sequential engines'
/// NULL/NaN key skips *per partition*: a NULL int key routes through the
/// general strategy (nullable column) and a NaN float key through the
/// typed-numeric strategy, and in both the skipped row must vanish from
/// whichever partition its hash would have landed in. Keys are heavily
/// skewed so one partition carries far more rows than the rest, and the
/// build sides exceed the parallel threshold so the partitioned path
/// engages. Also covers morsel-parallel cross joins and grouped
/// aggregation over skewed group keys at scale.
#[test]
fn partitioned_build_and_grouped_agg_match_under_skew_nulls_and_nans() {
    let model = step_model();
    let mut rng = RainRng::seed_from_u64(0x5AFE);
    let n1 = 9_000usize;
    let n2 = 12_000usize;
    let mut db = Database::new();
    // t1: non-null skewed int key (half the rows share x = 7), a
    // non-null float join column where every fifth value is NaN and many
    // of the rest collide on 1.5, and a NaN-free float column to
    // aggregate (summing NaN would poison the provenance comparison:
    // `NaN != NaN` under `PartialEq`).
    let t1 = Table::from_columns(
        Schema::new(&[
            ("x", ColType::Int),
            ("f", ColType::Float),
            ("g", ColType::Float),
        ]),
        vec![
            Column::Int(
                (0..n1)
                    .map(|i| if i % 2 == 0 { 7 } else { (i % 97) as i64 })
                    .collect(),
            ),
            Column::Float(
                (0..n1)
                    .map(|i| match i % 5 {
                        0 => f64::NAN,
                        1 | 2 => 1.5,
                        _ => (i % 13) as f64,
                    })
                    .collect(),
            ),
            Column::Float((0..n1).map(|i| (i % 13) as f64 * 0.5).collect()),
        ],
    )
    .with_features(sign_features(&mut rng, n1));
    db.register("t1", t1);
    // t2: nullable skewed int key (every tenth NULL, one row in thirty
    // on 7 — the hot t1 key) and a mask-free float column with NaN holes
    // and one row in twenty on t1's hot 1.5, so `a.x = b.k` takes the
    // general strategy and `a.f = b.f2` stays on the typed-numeric one.
    // The hot shares are thin on this side only: hot × hot is what the
    // tuple oracle pays for (4 500 × 400 tuples, not 4 500 × 3 600), and
    // the skew under test is t1's.
    let mut t2 = Table::empty(Schema::new(&[("k", ColType::Int), ("f2", ColType::Float)]));
    for i in 0..n2 {
        let k = if i % 10 == 0 {
            Value::Null
        } else if i % 30 == 3 {
            Value::Int(7)
        } else {
            Value::Int((i % 97) as i64)
        };
        let f2 = if i % 7 == 0 {
            f64::NAN
        } else if i % 20 == 2 {
            1.5
        } else {
            (i % 13) as f64
        };
        t2.push_row(vec![k, Value::Float(f2)], None);
    }
    db.register("t2", t2.with_features(sign_features(&mut rng, n2)));
    // t3: three rows, the small side of a scaled cross join.
    let t3 = Table::from_columns(
        Schema::new(&[("z", ColType::Int)]),
        vec![Column::Int(vec![0, 1, 2])],
    )
    .with_features(sign_features(&mut rng, 3));
    db.register("t3", t3);

    // `(sql, naive, spans)`: `naive` runs the FROM-order plan instead of
    // the optimized one, `spans` must engage (`assert_engaged`).
    let cases: [(&str, bool, &[&str]); 6] = [
        // NULL-key regression: nullable build column → general strategy,
        // 12k build rows → partitioned build; NULL keys must be dropped
        // from their partitions exactly as the sequential build drops
        // them from its single map. The cost-based planner would probe
        // with the larger t2 and build over t1, which has no NULL key;
        // the FROM order builds over t2 (asserted below).
        (
            "SELECT COUNT(*) FROM t1 a, t2 b WHERE a.x = b.k",
            true,
            &["build", "probe"],
        ),
        // Same join under debug provenance, grouped on the skewed key,
        // optimized: t2's NULL keys on the probe side.
        (
            "SELECT x, COUNT(*) FROM t1 a, t2 b WHERE a.x = b.k GROUP BY x",
            false,
            &["build", "probe", "aggregate"],
        ),
        // NaN-key regression: mask-free float columns → typed-numeric
        // strategy; NaN build and probe keys skip per partition.
        (
            "SELECT COUNT(*) FROM t1 a, t2 b WHERE a.f = b.f2",
            false,
            &["build", "probe"],
        ),
        // Morsel-parallel grouped aggregation over a skewed group key:
        // 9k tuples, ~97 groups, one group holding half the input.
        (
            "SELECT x, COUNT(*), SUM(g) FROM t1 a GROUP BY x",
            false,
            &["aggregate"],
        ),
        // Cross join at scale (9k × 3 = 27k tuples) plus a grouped
        // aggregate over its output.
        ("SELECT COUNT(*) FROM t1 a, t3 c", false, &["cross"]),
        (
            "SELECT z, COUNT(*) FROM t1 a, t3 c GROUP BY z",
            false,
            &["cross", "aggregate"],
        ),
    ];
    for (sql, naive, spans) in cases {
        let label = format!("`{sql}` [skew, naive={naive}]");
        let bound = bind(&parse_select(sql).unwrap(), &db).unwrap();
        let plan = match naive {
            true => QueryPlan::naive(bound, &db),
            false => optimize(bound, &db),
        };
        let sweep = assert_matches_oracle(&label, &db, &plan, &model);
        assert_engaged(sql, &sweep, spans);
        if naive {
            for (_, tree) in sweep.parallel_traces() {
                let build = tree.find("build").unwrap();
                assert_eq!(
                    counter(build, "rows_in"),
                    Some(n2 as u64),
                    "{label}: build side"
                );
            }
        }
    }
}

/// Nullable base tables force the kernels' fallback paths: scans, joins,
/// group keys and aggregate terms over columns with null bitmaps must
/// still agree.
#[test]
fn vexec_matches_tuple_engine_on_nullable_tables() {
    let model = step_model();
    for seed in 0..CASES / 4 {
        let mut rng = RainRng::seed_from_u64(0xAB1E ^ seed);
        let mut db = random_db(&mut rng);
        punch_nulls(&mut rng, &mut db, "t1");
        punch_nulls(&mut rng, &mut db, "t2");
        let sql = random_query(&mut rng, &mut Tally::default());
        let label = format!("seed {seed} `{sql}` [nullable]");
        assert_matches_oracle(&label, &db, &plan_of(&db, &sql), &model);
    }
}
