//! Differential tests: the vectorized engine against the tuple oracle.
//!
//! Both engines share one evaluation core and must enumerate tuples in
//! the same order, so their outputs are required to be **bit-identical**
//! — not merely semantically equivalent: same result rows, same schema,
//! same prediction-variable registry (ids, sources, hard predictions),
//! and structurally equal provenance polynomials (`PartialEq` on
//! `BoolProv`/`CellProv`, no canonicalization). Every seeded case runs
//! in both modes over both the naive and the optimized plan.

use rain_linalg::{Matrix, RainRng};
use rain_model::{Classifier, LogisticRegression};
use rain_sql::table::{ColType, Column, Schema, Table};
use rain_sql::{
    bind, execute, optimize, parse_select, Database, Engine, ExecOptions, QueryOutput, QueryPlan,
};

const CASES: u64 = 128;

/// A deterministic step model: class 1 iff feature > 0.
fn step_model() -> LogisticRegression {
    let mut m = LogisticRegression::new(1, 0.0);
    m.set_params(&[50.0, 0.0]);
    m
}

/// t1(x int, f float, s str, flag bool) and t2(y int, k int, s2 str),
/// both featured so `predict()` binds. Sizes straddle several batch
/// shapes (empty joins, duplicate keys, selective filters).
fn random_db(rng: &mut RainRng) -> Database {
    let n1 = 4 + rng.below(30);
    let n2 = 3 + rng.below(20);
    let words = ["http", "deal", "spam", "note", "xyz", ""];
    let feats = |rng: &mut RainRng, n: usize| {
        Matrix::from_rows(
            &(0..n)
                .map(|_| [if rng.bernoulli(0.5) { 1.0 } else { -1.0 }])
                .collect::<Vec<_>>()
                .iter()
                .map(|r| &r[..])
                .collect::<Vec<_>>(),
        )
    };
    let mut db = Database::new();
    let t1 = Table::from_columns(
        Schema::new(&[
            ("x", ColType::Int),
            ("f", ColType::Float),
            ("s", ColType::Str),
            ("flag", ColType::Bool),
        ]),
        vec![
            Column::Int((0..n1).map(|_| rng.int_range(0, 6)).collect()),
            Column::Float((0..n1).map(|_| rng.uniform_range(-2.0, 4.0)).collect()),
            Column::Str(
                (0..n1)
                    .map(|_| words[rng.below(words.len())].to_string())
                    .collect(),
            ),
            Column::Bool((0..n1).map(|_| rng.bernoulli(0.5)).collect()),
        ],
    )
    .with_features(feats(rng, n1));
    db.register("t1", t1);
    let t2 = Table::from_columns(
        Schema::new(&[
            ("y", ColType::Int),
            ("k", ColType::Int),
            ("s2", ColType::Str),
        ]),
        vec![
            Column::Int((0..n2).map(|_| rng.int_range(0, 6)).collect()),
            Column::Int((0..n2).map(|_| rng.int_range(0, 4)).collect()),
            Column::Str(
                (0..n2)
                    .map(|_| words[rng.below(words.len())].to_string())
                    .collect(),
            ),
        ],
    )
    .with_features(feats(rng, n2));
    db.register("t2", t2);
    db
}

/// A random single-relation predicate over alias `a` (t1) or `b` (t2).
fn atom(rng: &mut RainRng, alias: &str, is_t1: bool) -> String {
    if is_t1 {
        match rng.below(9) {
            0 => format!("{alias}.x > {}", rng.int_range(0, 5)),
            1 => format!("{alias}.x + 1 <= {}", rng.int_range(1, 7)),
            2 => format!("{alias}.f < {}", rng.int_range(-1, 4)),
            3 => format!("{alias}.s LIKE '%{}%'", ["ht", "ea", "o"][rng.below(3)]),
            4 => format!("{alias}.s NOT LIKE '%{}%'", ["sp", "x"][rng.below(2)]),
            5 => format!("{alias}.flag"),
            6 => format!("NOT {alias}.flag = false"),
            7 => format!("predict({alias}) = {}", rng.below(2)),
            _ => format!("predict({alias}) != {}", rng.below(2)),
        }
    } else {
        match rng.below(6) {
            0 => format!("{alias}.y >= {}", rng.int_range(0, 5)),
            1 => format!("{alias}.k < {}", rng.int_range(1, 4)),
            2 => format!("{alias}.s2 = '{}'", ["http", "deal"][rng.below(2)]),
            3 => format!("predict({alias}) = {}", rng.below(2)),
            4 => format!("{alias}.y * 2 > {}", rng.int_range(0, 9)),
            _ => format!("{alias}.y != {alias}.k"),
        }
    }
}

/// Build a random SPJA query over the generated schema.
fn random_query(rng: &mut RainRng) -> String {
    let two_rels = rng.bernoulli(0.6);
    let from = if two_rels { "t1 a, t2 b" } else { "t1 a" };

    let mut terms = Vec::new();
    if two_rels {
        // Usually an equi-join (typed int key); sometimes string keys,
        // mixed-type keys, or a pure cross join.
        match rng.below(8) {
            0..=3 => terms.push("a.x = b.k".to_string()),
            4 => terms.push("a.s = b.s2".to_string()),
            5 => terms.push("a.f = b.k".to_string()), // mixed-type key
            6 => terms.push("a.x + 0 = b.k".to_string()), // expression key
            _ => {}                                   // cross join
        }
    }
    for _ in 0..1 + rng.below(3) {
        let t = match rng.below(6) {
            0 => {
                let l = atom(rng, "a", true);
                let r = if two_rels {
                    atom(rng, "b", false)
                } else {
                    atom(rng, "a", true)
                };
                format!("({l} OR {r})")
            }
            1 => ["1 = 1", "1 + 1 = 2", "2 > 3"][rng.below(3)].to_string(),
            2 if two_rels => atom(rng, "b", false),
            3 if two_rels => "predict(a) = predict(b)".to_string(),
            4 if two_rels => format!("a.x > b.k - {}", rng.int_range(0, 3)),
            _ => atom(rng, "a", true),
        };
        terms.push(t);
    }
    let where_sql = if terms.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", terms.join(" AND "))
    };

    match rng.below(9) {
        0 => format!("SELECT COUNT(*) FROM {from}{where_sql}"),
        1 => format!("SELECT SUM(x) FROM {from}{where_sql}"),
        2 => format!("SELECT AVG(x), COUNT(*) FROM {from}{where_sql}"),
        3 => format!("SELECT SUM(predict(a)) FROM {from}{where_sql}"),
        4 => format!("SELECT COUNT(*) FROM {from}{where_sql} GROUP BY predict(a)"),
        5 => format!("SELECT flag, SUM(f) FROM {from}{where_sql} GROUP BY flag"),
        6 => format!("SELECT x, s FROM {from}{where_sql}"),
        7 => format!("SELECT x * 2 AS d, flag FROM {from}{where_sql}"),
        _ => format!("SELECT * FROM {from}{where_sql}"),
    }
}

/// Assert two outputs are bit-identical: rows, schema, provenance, and
/// the prediction-variable registry.
fn assert_identical(label: &str, tuple: &QueryOutput, vexec: &QueryOutput) {
    assert_eq!(
        tuple.table.to_tsv(),
        vexec.table.to_tsv(),
        "{label}: result rows differ"
    );
    let (ts, vs) = (tuple.table.schema(), vexec.table.schema());
    assert_eq!(ts.len(), vs.len(), "{label}: schema arity differs");
    for (a, b) in ts.iter().zip(vs.iter()) {
        assert_eq!(a, b, "{label}: schema column differs");
    }
    assert_eq!(tuple.n_key_cols, vexec.n_key_cols, "{label}: n_key_cols");
    assert_eq!(tuple.row_prov, vexec.row_prov, "{label}: row provenance");
    assert_eq!(
        tuple.agg_cells, vexec.agg_cells,
        "{label}: aggregate provenance"
    );
    assert_eq!(
        tuple.predvars.infos(),
        vexec.predvars.infos(),
        "{label}: prediction-variable sources"
    );
    assert_eq!(
        tuple.predvars.preds(),
        vexec.predvars.preds(),
        "{label}: hard predictions"
    );
}

fn run_differential(seed: u64, model: &dyn Classifier) {
    let mut rng = RainRng::seed_from_u64(0xD1FF ^ seed);
    let db = random_db(&mut rng);
    let sql = random_query(&mut rng);
    let stmt = parse_select(&sql).unwrap_or_else(|e| panic!("seed {seed} `{sql}`: {e}"));
    let bound = bind(&stmt, &db).unwrap_or_else(|e| panic!("seed {seed} `{sql}`: {e}"));
    let plans = [
        ("naive", QueryPlan::naive(bound.clone(), &db)),
        ("optimized", optimize(bound, &db)),
    ];
    for (plan_name, plan) in &plans {
        for debug in [false, true] {
            let opts = ExecOptions::with_debug(debug);
            let tuple = execute(&db, model, plan, opts.on(Engine::Tuple)).unwrap_or_else(|e| {
                panic!("seed {seed} `{sql}` [{plan_name}, debug={debug}] tuple: {e}")
            });
            for threads in [1, 2, 8] {
                let label =
                    format!("seed {seed} `{sql}` [{plan_name}, debug={debug}, threads={threads}]");
                let vexec = execute(
                    &db,
                    model,
                    plan,
                    opts.on(Engine::Vectorized).with_threads(threads),
                )
                .unwrap_or_else(|e| panic!("{label} vexec: {e}"));
                assert_identical(&label, &tuple, &vexec);
            }
        }
    }
}

/// The headline differential property over randomized SPJA workloads.
#[test]
fn vexec_matches_tuple_engine_bit_for_bit() {
    let model = step_model();
    for seed in 0..CASES {
        run_differential(seed, &model);
    }
}

/// Large-input differential: tables big enough that the morsel-parallel
/// scan and hash-join-probe paths actually engage (the small randomized
/// cases above stay under the parallel thresholds and exercise the
/// sequential guard). Rows, provenance, and prediction variables must be
/// bit-identical to the tuple oracle for `threads ∈ {1, 2, 8}` — and
/// therefore across thread counts.
#[test]
fn morsel_parallel_paths_match_the_oracle_on_large_inputs() {
    let model = step_model();
    let mut rng = RainRng::seed_from_u64(0x60AF);
    let n1 = 20_000usize;
    let n2 = 12_000usize;
    let feats = |rng: &mut RainRng, n: usize| {
        Matrix::from_rows(
            &(0..n)
                .map(|_| [if rng.bernoulli(0.5) { 1.0 } else { -1.0 }])
                .collect::<Vec<_>>()
                .iter()
                .map(|r| &r[..])
                .collect::<Vec<_>>(),
        )
    };
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
    .with_features(feats(&mut rng, n1));
    db.register("t1", t1);
    // t2.y carries NULL holes so its pushed-down filter takes the
    // kernel-fallback (row-at-a-time) path inside parallel scan workers.
    let mut t2 = Table::empty(Schema::new(&[("y", ColType::Int), ("k", ColType::Int)]));
    for i in 0..n2 {
        let y = if rng.bernoulli(0.1) {
            rain_sql::Value::Null
        } else {
            rain_sql::Value::Int(rng.int_range(0, 10))
        };
        t2.push_row(vec![y, rain_sql::Value::Int((i % 4999) as i64)], None);
    }
    db.register("t2", t2.with_features(feats(&mut rng, n2)));

    let cases = [
        // Typed-key hash join with parallel scans on both sides (t2's
        // filter falls back row-at-a-time over the null bitmap).
        "SELECT COUNT(*) FROM t1 a, t2 b WHERE a.x = b.k AND a.f < 2.0 AND b.y >= 3",
        // Expression key: the general-strategy probe, morsel-parallel,
        // with a model predicate evaluated sequentially on top.
        "SELECT COUNT(*) FROM t1 a, t2 b WHERE a.x + 0 = b.k AND predict(a) = 1",
        // Grouped aggregate over the parallel join output.
        "SELECT flag, COUNT(*) FROM t1 a, t2 b WHERE a.x = b.k AND a.f < 1.0 GROUP BY flag",
    ];
    for sql in cases {
        let stmt = parse_select(sql).unwrap();
        let plan = optimize(bind(&stmt, &db).unwrap(), &db);
        for debug in [false, true] {
            let opts = ExecOptions::with_debug(debug);
            let tuple = execute(&db, &model, &plan, opts.on(Engine::Tuple)).unwrap();
            for threads in [1, 2, 8] {
                let label = format!("`{sql}` [debug={debug}, threads={threads}]");
                let vexec = execute(
                    &db,
                    &model,
                    &plan,
                    opts.on(Engine::Vectorized).with_threads(threads),
                )
                .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_identical(&label, &tuple, &vexec);
            }
        }
    }
}

/// The partitioned hash build must preserve the sequential engines'
/// NULL/NaN key skips *per partition*: a NULL int key routes through the
/// general strategy (nullable column) and a NaN float key through the
/// typed-numeric strategy, and in both the skipped row must vanish from
/// whichever partition its hash would have landed in. Keys are heavily
/// skewed so one partition carries far more rows than the rest, and the
/// build sides exceed the parallel threshold so the partitioned path
/// actually engages. Also covers morsel-parallel cross joins and
/// grouped aggregation over skewed group keys at scale.
#[test]
fn partitioned_build_and_grouped_agg_match_under_skew_nulls_and_nans() {
    let model = step_model();
    let mut rng = RainRng::seed_from_u64(0x5AFE);
    let n1 = 9_000usize;
    let n2 = 12_000usize;
    let feats = |rng: &mut RainRng, n: usize| {
        Matrix::from_rows(
            &(0..n)
                .map(|_| [if rng.bernoulli(0.5) { 1.0 } else { -1.0 }])
                .collect::<Vec<_>>()
                .iter()
                .map(|r| &r[..])
                .collect::<Vec<_>>(),
        )
    };
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
    .with_features(feats(&mut rng, n1));
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
            rain_sql::Value::Null
        } else if i % 30 == 3 {
            rain_sql::Value::Int(7)
        } else {
            rain_sql::Value::Int((i % 97) as i64)
        };
        let f2 = if i % 7 == 0 {
            f64::NAN
        } else if i % 20 == 2 {
            1.5
        } else {
            (i % 13) as f64
        };
        t2.push_row(vec![k, rain_sql::Value::Float(f2)], None);
    }
    db.register("t2", t2.with_features(feats(&mut rng, n2)));
    // t3: three rows, the small side of a scaled cross join.
    let t3 = Table::from_columns(
        Schema::new(&[("z", ColType::Int)]),
        vec![Column::Int(vec![0, 1, 2])],
    )
    .with_features(feats(&mut rng, 3));
    db.register("t3", t3);

    let cases = [
        // NULL-key regression: nullable build column → general strategy,
        // 12k build rows → partitioned build; NULL keys must be dropped
        // from their partitions exactly as the sequential build drops
        // them from its single map.
        "SELECT COUNT(*) FROM t1 a, t2 b WHERE a.x = b.k",
        // Same join under debug provenance, grouped on the skewed key.
        "SELECT x, COUNT(*) FROM t1 a, t2 b WHERE a.x = b.k GROUP BY x",
        // NaN-key regression: mask-free float columns → typed-numeric
        // strategy; NaN build and probe keys skip per partition.
        "SELECT COUNT(*) FROM t1 a, t2 b WHERE a.f = b.f2",
        // Morsel-parallel grouped aggregation over a skewed group key:
        // 9k tuples, ~97 groups, one group holding half the input.
        "SELECT x, COUNT(*), SUM(g) FROM t1 a GROUP BY x",
        // Cross join at scale (9k × 3 = 27k tuples) plus a grouped
        // aggregate over its output.
        "SELECT COUNT(*) FROM t1 a, t3 c",
        "SELECT z, COUNT(*) FROM t1 a, t3 c GROUP BY z",
    ];
    for sql in cases {
        let stmt = parse_select(sql).unwrap();
        let plan = optimize(bind(&stmt, &db).unwrap(), &db);
        for debug in [false, true] {
            let opts = ExecOptions::with_debug(debug);
            let tuple = execute(&db, &model, &plan, opts.on(Engine::Tuple)).unwrap();
            for threads in [1, 2, 8] {
                let label = format!("`{sql}` [skew, debug={debug}, threads={threads}]");
                let vexec = execute(
                    &db,
                    &model,
                    &plan,
                    opts.on(Engine::Vectorized).with_threads(threads),
                )
                .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_identical(&label, &tuple, &vexec);
            }
        }
    }
}

/// Nullable base tables force the kernels' fallback paths: joins, scans,
/// and group keys over columns with null bitmaps must still agree.
#[test]
fn vexec_matches_tuple_engine_on_nullable_tables() {
    let model = step_model();
    for seed in 0..CASES / 4 {
        let mut rng = RainRng::seed_from_u64(0xAB1E ^ seed);
        let mut db = random_db(&mut rng);
        // Rebuild t2 with NULL holes punched into both columns.
        let t2 = db.table("t2").unwrap().clone();
        let mut nullable = Table::empty(t2.schema().clone());
        for r in 0..t2.n_rows() {
            let row: Vec<_> = (0..t2.schema().len())
                .map(|c| {
                    if rng.bernoulli(0.2) {
                        rain_sql::Value::Null
                    } else {
                        t2.value(r, c)
                    }
                })
                .collect();
            nullable.push_row(row, None);
        }
        let nullable = nullable.with_features(t2.features().unwrap().clone());
        db.register("t2", nullable);

        let sql = [
            "SELECT COUNT(*) FROM t1 a, t2 b WHERE a.x = b.k",
            "SELECT COUNT(*) FROM t1 a, t2 b WHERE a.x = b.k AND b.y > 1",
            "SELECT y, COUNT(*) FROM t1 a, t2 b WHERE a.x = b.k GROUP BY y",
            "SELECT SUM(y) FROM t2 b WHERE b.k < 3",
        ][rng.below(4)];
        let stmt = parse_select(sql).unwrap();
        let bound = bind(&stmt, &db).unwrap();
        let plan = optimize(bound, &db);
        for debug in [false, true] {
            let label = format!("seed {seed} `{sql}` [nullable, debug={debug}]");
            let opts = ExecOptions::with_debug(debug);
            let tuple = execute(&db, &model, &plan, opts.on(Engine::Tuple))
                .unwrap_or_else(|e| panic!("{label} tuple: {e}"));
            let vexec = execute(&db, &model, &plan, opts.on(Engine::Vectorized))
                .unwrap_or_else(|e| panic!("{label} vexec: {e}"));
            assert_identical(&label, &tuple, &vexec);
        }
    }
}
