//! End-to-end executor tests over all the paper's query shapes, plus the
//! core invariants: (1) debug-mode and normal-mode results agree, and
//! (2) discrete evaluation of captured provenance reproduces the concrete
//! result exactly.

mod common;

use common::step_model;
use rain_linalg::Matrix;
use rain_model::{Classifier, SoftmaxRegression};
use rain_sql::table::{ColType, Column, Schema, Table};
use rain_sql::{run_query, Database, ExecOptions, Probs, Value};

/// 10-class model over 10-D one-hot-ish features: predicts argmax feature.
fn digit_model() -> SoftmaxRegression {
    let mut m = SoftmaxRegression::new(10, 10, 0.0);
    let mut params = vec![0.0; 11 * 10];
    for j in 0..10 {
        params[j * 10 + j] = 50.0;
    }
    m.set_params(&params);
    m
}

fn onehot(c: usize) -> Vec<f64> {
    let mut v = vec![0.0; 10];
    v[c] = 1.0;
    v
}

/// `emails(id, text, spamminess)` with 1-D features.
fn enron_db() -> Database {
    let texts = [
        "buy now http://spam.example",
        "meeting notes attached",
        "great deal on http stocks",
        "the deal is closed",
        "lunch tomorrow",
    ];
    // features decide the class: rows 0, 2 are predicted spam (=1).
    let feats = [1.0, -1.0, 1.0, -1.0, -1.0];
    let schema = Schema::new(&[("id", ColType::Int), ("text", ColType::Str)]);
    let table = Table::from_columns(
        schema,
        vec![
            Column::Int((0..5).map(|i| i as i64).collect()),
            Column::Str(texts.iter().map(|s| s.to_string()).collect()),
        ],
    )
    .with_features(Matrix::from_rows(
        &feats.iter().map(std::slice::from_ref).collect::<Vec<_>>(),
    ));
    let mut db = Database::new();
    db.register("emails", table);
    db
}

/// Two digit tables: `left` holds digits [1,1,2], `right` holds [7,1,9].
fn digits_db() -> Database {
    let mk = |classes: &[usize]| {
        let rows: Vec<Vec<f64>> = classes.iter().map(|&c| onehot(c)).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Table::from_columns(
            Schema::new(&[("id", ColType::Int)]),
            vec![Column::Int((0..classes.len() as i64).collect())],
        )
        .with_features(Matrix::from_rows(&refs))
    };
    let mut db = Database::new();
    db.register("left", mk(&[1, 1, 2]));
    db.register("right", mk(&[7, 1, 9]));
    db
}

#[test]
fn q1_count_with_model_filter() {
    let db = enron_db();
    let model = step_model();
    let out = run_query(
        &db,
        &model,
        "SELECT COUNT(*) FROM emails WHERE predict(*) = 1",
        ExecOptions::default(),
    )
    .unwrap();
    assert_eq!(out.scalar().value(), Some(Value::Int(2)));
}

#[test]
fn q2_like_plus_model_filter() {
    let db = enron_db();
    let model = step_model();
    let out = run_query(
        &db,
        &model,
        "SELECT COUNT(*) FROM emails WHERE predict(*) = 1 AND text LIKE '%http%'",
        ExecOptions::debug(),
    )
    .unwrap();
    assert_eq!(out.scalar().value(), Some(Value::Int(2)));
    // Rows 1,3,4 fail predict; rows 1, 3 also mention no http. Candidate
    // terms: only rows passing the concrete LIKE filter (0 and 2).
    let cell = &out.agg_cells[0][0];
    match cell {
        rain_sql::CellProv::Sum(s) => assert_eq!(s.terms.len(), 2),
        other => panic!("unexpected provenance {other:?}"),
    }
}

#[test]
fn debug_and_normal_results_agree() {
    let db = enron_db();
    let model = step_model();
    for sql in [
        "SELECT COUNT(*) FROM emails WHERE predict(*) = 1",
        "SELECT COUNT(*) FROM emails WHERE predict(*) = 0 AND text LIKE '%deal%'",
        "SELECT id FROM emails WHERE predict(*) = 1",
    ] {
        let normal = run_query(&db, &model, sql, ExecOptions::with_debug(false)).unwrap();
        let debug = run_query(&db, &model, sql, ExecOptions::debug()).unwrap();
        assert_eq!(normal.table.to_tsv(), debug.table.to_tsv(), "query {sql}");
    }
}

#[test]
fn provenance_discrete_eval_reproduces_result() {
    let db = enron_db();
    let model = step_model();
    let out = run_query(
        &db,
        &model,
        "SELECT COUNT(*) FROM emails WHERE predict(*) = 1",
        ExecOptions::debug(),
    )
    .unwrap();
    let cell = &out.agg_cells[0][0];
    let count = cell.eval_discrete(out.predvars.preds());
    assert_eq!(count, 2.0);
    // Flipping one prediction changes the discrete count accordingly.
    let mut preds = out.predvars.preds().to_vec();
    let flip = (0..preds.len()).find(|&v| preds[v] == 0).unwrap();
    preds[flip] = 1;
    assert_eq!(cell.eval_discrete(&preds), 3.0);
}

#[test]
fn q3_join_on_predictions() {
    let db = digits_db();
    let model = digit_model();
    let out = run_query(
        &db,
        &model,
        "SELECT * FROM left l, right r WHERE predict(l) = predict(r)",
        ExecOptions::debug(),
    )
    .unwrap();
    // left digits [1,1,2] × right digits [7,1,9]: matches are the two 1s
    // on the left with the single 1 on the right.
    assert_eq!(out.table.n_rows(), 2);
    assert_eq!(out.row_prov.len(), 2);
    // The provenance of each join row must mention exactly two variables.
    let vars = out.row_prov[0].clone();
    let mut set = std::collections::BTreeSet::new();
    vars.collect_vars(&mut set);
    assert_eq!(set.len(), 2);
}

#[test]
fn q4_count_over_prediction_join() {
    let db = digits_db();
    let model = digit_model();
    let out = run_query(
        &db,
        &model,
        "SELECT COUNT(*) FROM left l, right r WHERE predict(l) = predict(r)",
        ExecOptions::debug(),
    )
    .unwrap();
    assert_eq!(out.scalar().value(), Some(Value::Int(2)));
    // Debug mode keeps ALL 9 candidate pairs symbolically: fixing the
    // complaint may require flipping pairs into the join.
    match &out.agg_cells[0][0] {
        rain_sql::CellProv::Sum(s) => assert_eq!(s.terms.len(), 9),
        other => panic!("unexpected {other:?}"),
    }
    // Relaxed evaluation at the model's own probabilities should be close
    // to the discrete count (the model is near-deterministic).
    let probs = probs_of(&out.predvars, &db, &model);
    let relaxed = out.agg_cells[0][0].eval_relaxed(&probs);
    assert!((relaxed - 2.0).abs() < 0.1, "relaxed {relaxed}");
}

#[test]
fn q5_group_by_predict() {
    let db = digits_db();
    let model = digit_model();
    let out = run_query(
        &db,
        &model,
        "SELECT COUNT(*) FROM left GROUP BY predict(*)",
        ExecOptions::debug(),
    )
    .unwrap();
    // left digits [1,1,2] → group 1 has 2 members, group 2 has 1.
    assert_eq!(out.table.n_rows(), 2);
    assert_eq!(out.table.value(0, 0), Value::Int(1));
    assert_eq!(out.table.value(0, 1), Value::Int(2));
    assert_eq!(out.table.value(1, 0), Value::Int(2));
    assert_eq!(out.table.value(1, 1), Value::Int(1));
    // Each group's provenance covers all 3 candidate rows.
    match &out.agg_cells[0][0] {
        rain_sql::CellProv::Sum(s) => assert_eq!(s.terms.len(), 3),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn q6_avg_predict_group_by_column() {
    // adult(gender, age) with features so predict = 1 iff feature > 0.
    let schema = Schema::new(&[("gender", ColType::Str), ("age", ColType::Int)]);
    let table = Table::from_columns(
        schema,
        vec![
            Column::Str(vec!["m".into(), "m".into(), "f".into(), "f".into()]),
            Column::Int(vec![40, 50, 40, 30]),
        ],
    )
    .with_features(Matrix::from_rows(&[&[1.0], &[-1.0], &[1.0], &[1.0]]));
    let mut db = Database::new();
    db.register("adult", table);
    let model = step_model();
    let out = run_query(
        &db,
        &model,
        "SELECT AVG(predict(*)) AS income FROM adult GROUP BY gender",
        ExecOptions::debug(),
    )
    .unwrap();
    // groups sorted: f → (1+1)/2 = 1.0 ; m → (1+0)/2 = 0.5.
    assert_eq!(out.table.value(0, 0), Value::Str("f".into()));
    assert_eq!(out.table.value(0, 1), Value::Float(1.0));
    assert_eq!(out.table.value(1, 1), Value::Float(0.5));
    // AVG cells are ratios; discrete eval matches the table.
    assert_eq!(out.agg_cells[1][0].eval_discrete(out.predvars.preds()), 0.5);
}

#[test]
fn concrete_hash_join_with_model_filter() {
    // Figure 1 shape: join users/logins on id, filter actives + churn.
    let users = Table::from_columns(
        Schema::new(&[("id", ColType::Int)]),
        vec![Column::Int(vec![1, 2, 3])],
    )
    .with_features(Matrix::from_rows(&[&[1.0], &[1.0], &[-1.0]]));
    let logins = Table::from_columns(
        Schema::new(&[("id", ColType::Int), ("active_last_month", ColType::Bool)]),
        vec![
            Column::Int(vec![1, 2, 3]),
            Column::Bool(vec![true, false, true]),
        ],
    );
    let mut db = Database::new();
    db.register("users", users);
    db.register("logins", logins);
    let model = step_model();
    let out = run_query(
        &db,
        &model,
        "SELECT COUNT(*) FROM users u JOIN logins l ON u.id = l.id \
         WHERE l.active_last_month AND predict(u) = 1",
        ExecOptions::debug(),
    )
    .unwrap();
    // user 1: active + churn ✓; user 2: inactive ✗ (pruned concretely);
    // user 3: active but not churn (kept symbolically).
    assert_eq!(out.scalar().value(), Some(Value::Int(1)));
    match &out.agg_cells[0][0] {
        rain_sql::CellProv::Sum(s) => assert_eq!(s.terms.len(), 2),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn predict_inequality_expands_to_class_set() {
    let db = digits_db();
    let model = digit_model();
    let out = run_query(
        &db,
        &model,
        "SELECT COUNT(*) FROM right WHERE predict(*) >= 7",
        ExecOptions::default(),
    )
    .unwrap();
    // right digits [7,1,9] → two rows with class ≥ 7.
    assert_eq!(out.scalar().value(), Some(Value::Int(2)));
}

#[test]
fn projection_of_predict_and_expressions() {
    let db = enron_db();
    let model = step_model();
    let out = run_query(
        &db,
        &model,
        "SELECT id, predict(*) AS cls, id * 2 AS двa FROM emails WHERE id < 2",
        ExecOptions::default(),
    );
    // Non-ASCII alias is a lexer error — use a sane one instead.
    assert!(out.is_err());
    let out = run_query(
        &db,
        &model,
        "SELECT id, predict(*) AS cls, id * 2 AS dbl FROM emails WHERE id < 2",
        ExecOptions::default(),
    )
    .unwrap();
    assert_eq!(out.table.n_rows(), 2);
    assert_eq!(out.table.value(0, 1), Value::Int(1)); // row 0 predicted spam
    assert_eq!(out.table.value(1, 2), Value::Int(2));
}

#[test]
fn empty_global_aggregate_has_one_row() {
    let db = enron_db();
    let model = step_model();
    let out = run_query(
        &db,
        &model,
        "SELECT COUNT(*) FROM emails WHERE id > 100",
        ExecOptions::debug(),
    )
    .unwrap();
    assert_eq!(out.scalar().value(), Some(Value::Int(0)));
}

#[test]
fn relaxed_count_gradient_points_toward_complaint() {
    // For COUNT(predict=1)=X with X above the current count, increasing
    // any variable's class-1 probability increases the relaxed count.
    let db = enron_db();
    let model = step_model();
    let out = run_query(
        &db,
        &model,
        "SELECT COUNT(*) FROM emails WHERE predict(*) = 1",
        ExecOptions::debug(),
    )
    .unwrap();
    let probs = probs_of(&out.predvars, &db, &model);
    let g = out.agg_cells[0][0].grad(&probs);
    assert_eq!(g.n_vars(), 5);
    for var in 0..g.n_vars() as rain_sql::VarId {
        let gs = g.row(var);
        assert!(gs[1] > 0.0, "class-1 gradient must be positive");
        assert_eq!(gs[0], 0.0, "class-0 prob does not appear in the formula");
    }
}

/// Model probabilities for every prediction variable of an output.
fn probs_of(reg: &rain_sql::PredVarRegistry, db: &Database, model: &dyn Classifier) -> Probs {
    let mut x = rain_sql::FeatureRows::new(db, reg);
    let p = (0..reg.len() as rain_sql::VarId)
        .flat_map(|var| model.predict_proba(x.row(var)))
        .collect();
    Probs::new(model.n_classes(), p)
}

#[test]
fn duplicate_output_names_are_uniquified() {
    // `SELECT x, x` (or `SELECT *, *`) must not panic the output schema
    // builder; duplicate names get `_2`-style suffixes.
    let db = enron_db();
    let model = step_model();
    let out = run_query(
        &db,
        &model,
        "SELECT id, id, *, * FROM emails",
        ExecOptions::default(),
    )
    .unwrap();
    assert_eq!(out.table.n_rows(), 5);
    let names: Vec<&str> = out.table.schema().iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, vec!["id", "id_2", "id_3", "text", "id_4", "text_2"]);
    let agg = run_query(
        &db,
        &model,
        "SELECT COUNT(*) AS n, SUM(id) AS n FROM emails",
        ExecOptions::default(),
    )
    .unwrap();
    assert_eq!(agg.table.schema().index_of("n_2"), Some(1));
}

#[test]
fn null_select_output_uses_the_null_bitmap() {
    // Projected NULLs (division by zero, NULL literals) are carried by
    // the output table's per-column null bitmap instead of erroring.
    let db = enron_db();
    let model = step_model();
    for sql in ["SELECT id / 0 FROM emails", "SELECT null FROM emails"] {
        let out = run_query(&db, &model, sql, ExecOptions::default())
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(out.table.n_rows(), 5, "{sql}");
        assert!(out.table.is_null(0, 0), "{sql}");
        assert_eq!(out.table.value(0, 0), Value::Null, "{sql}");
    }
}

#[test]
fn scalar_distinguishes_null_norows_and_nonscalar() {
    use rain_sql::ScalarResult;
    let db = enron_db();
    let model = step_model();
    // A single non-NULL value.
    let out = run_query(
        &db,
        &model,
        "SELECT COUNT(*) FROM emails",
        ExecOptions::default(),
    )
    .unwrap();
    assert_eq!(out.scalar(), ScalarResult::Value(Value::Int(5)));
    assert_eq!(out.scalar().unwrap(), Value::Int(5));
    // One row whose only cell is NULL.
    let out = run_query(
        &db,
        &model,
        "SELECT id / 0 FROM emails WHERE id = 3",
        ExecOptions::default(),
    )
    .unwrap();
    assert_eq!(out.scalar(), ScalarResult::Null);
    assert_eq!(out.scalar().value(), None);
    // The right one-column shape but zero rows (a filter matching no row).
    let out = run_query(
        &db,
        &model,
        "SELECT id FROM emails WHERE id > 100",
        ExecOptions::default(),
    )
    .unwrap();
    assert_eq!(out.scalar(), ScalarResult::NoRows);
    // A grouped aggregate whose groups all vanish also has no rows.
    let out = run_query(
        &db,
        &model,
        "SELECT COUNT(*) FROM emails WHERE id > 100 GROUP BY text",
        ExecOptions::default(),
    )
    .unwrap();
    assert_eq!(out.scalar(), ScalarResult::NoRows);
    // Multiple rows or multiple value columns are not scalar.
    let out = run_query(&db, &model, "SELECT id FROM emails", ExecOptions::default()).unwrap();
    assert_eq!(out.scalar(), ScalarResult::NonScalar);
    let out = run_query(
        &db,
        &model,
        "SELECT COUNT(*), SUM(id) FROM emails",
        ExecOptions::default(),
    )
    .unwrap();
    assert_eq!(out.scalar(), ScalarResult::NonScalar);
}

#[test]
fn hash_join_keys_match_equality_semantics() {
    // Hash-join key equality must agree with the `=` predicate on both
    // engines: NULL and NaN keys join nothing, `-0.0` joins `0`, and
    // numeric keys of different column types (Float vs Int) join exactly
    // when `Value::compare` calls them equal.
    use rain_sql::{bind, execute, optimize, parse_select, Engine, QueryPlan};
    let mut left = Table::empty(Schema::new(&[("x", ColType::Float)]));
    for v in [
        Value::Float(3.0),
        Value::Null,
        Value::Float(f64::NAN),
        Value::Float(-0.0),
    ] {
        left.push_row(vec![v], None);
    }
    let mut right = Table::empty(Schema::new(&[("k", ColType::Int)]));
    for v in [Value::Int(3), Value::Null, Value::Int(0)] {
        right.push_row(vec![v], None);
    }
    let mut db = Database::new();
    db.register("l", left);
    db.register("r", right);
    let model = step_model();

    // The equi form takes the hash join; the OR-wrapped form in a naive
    // plan is not recognized as an equi key, so it runs as a cross join
    // with a per-tuple `=` — the oracle for the join's semantics.
    let equi = parse_select("SELECT COUNT(*) FROM l a, r b WHERE a.x = b.k").unwrap();
    let cross = parse_select("SELECT COUNT(*) FROM l a, r b WHERE (a.x = b.k OR 2 > 3)").unwrap();
    let oracle = execute(
        &db,
        &model,
        &QueryPlan::naive(bind(&cross, &db).unwrap(), &db),
        ExecOptions::default().on(Engine::Tuple),
    )
    .unwrap();
    assert_eq!(oracle.scalar().value(), Some(Value::Int(2))); // 3.0=3 and -0.0=0
    for engine in [Engine::Tuple, Engine::Vectorized] {
        let plan = optimize(bind(&equi, &db).unwrap(), &db);
        let out = execute(&db, &model, &plan, ExecOptions::default().on(engine)).unwrap();
        assert_eq!(out.scalar(), oracle.scalar(), "{engine:?}");
    }

    // Non-nullable Float-vs-Int key columns take vexec's typed numeric
    // path and must still match `=` semantics.
    let mut db2 = Database::new();
    db2.register(
        "l",
        Table::from_columns(
            Schema::new(&[("x", ColType::Float)]),
            vec![Column::Float(vec![3.0, 2.5])],
        ),
    );
    db2.register(
        "r",
        Table::from_columns(
            Schema::new(&[("k", ColType::Int)]),
            vec![Column::Int(vec![3, 2])],
        ),
    );
    for engine in [Engine::Tuple, Engine::Vectorized] {
        let plan = optimize(bind(&equi, &db2).unwrap(), &db2);
        let out = execute(&db2, &model, &plan, ExecOptions::default().on(engine)).unwrap();
        assert_eq!(out.scalar().value(), Some(Value::Int(1)), "{engine:?}");
    }
}

#[test]
fn output_types_agree_between_naive_and_optimized_plans() {
    // Constant folding turns `true + 2` into `3`; both plans must still
    // type the output column identically (shared binder inference).
    use rain_sql::{bind, execute, optimize, parse_select, QueryPlan};
    let db = enron_db();
    let model = step_model();
    let stmt = parse_select("SELECT true + 2 AS x, id / 2 AS h FROM emails").unwrap();
    let bound = bind(&stmt, &db).unwrap();
    let naive = execute(
        &db,
        &model,
        &QueryPlan::naive(bound.clone(), &db),
        ExecOptions::default(),
    )
    .unwrap();
    let opt = execute(&db, &model, &optimize(bound, &db), ExecOptions::default()).unwrap();
    for c in 0..2 {
        assert_eq!(
            naive.table.schema().col(c).ty,
            opt.table.schema().col(c).ty,
            "column {c} types diverge"
        );
        assert_eq!(naive.table.value(0, c), opt.table.value(0, c));
    }
}

// ---------------------------------------------------------------------
// Predict-keyed grouping: the `GroupKey::Predict` schema path (the
// `push_unique(..., "predict", ColType::Int)` branch) with duplicate
// class labels among the grouped rows.
// ---------------------------------------------------------------------

/// 3-class digits db with duplicate class labels: classes 1, 1, 2, 1, 0, 2.
fn dup_class_db() -> (Database, SoftmaxRegression) {
    let classes = [1usize, 1, 2, 1, 0, 2];
    let mut m = SoftmaxRegression::new(3, 3, 0.0);
    let mut p = vec![0.0; 4 * 3];
    for j in 0..3 {
        p[j * 3 + j] = 40.0;
    }
    m.set_params(&p);
    let rows: Vec<Vec<f64>> = classes
        .iter()
        .map(|&c| {
            let mut v = vec![0.0; 3];
            v[c] = 1.0;
            v
        })
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    let t = Table::from_columns(
        Schema::new(&[("id", ColType::Int)]),
        vec![Column::Int((0..classes.len() as i64).collect())],
    )
    .with_features(Matrix::from_rows(&refs));
    let mut db = Database::new();
    db.register("t", t);
    (db, m)
}

#[test]
fn predict_keyed_grouping_merges_duplicate_class_labels() {
    use rain_sql::Engine;
    let (db, m) = dup_class_db();
    for engine in [Engine::Tuple, Engine::Vectorized] {
        for debug in [false, true] {
            let opts = ExecOptions::with_debug(debug).on(engine);
            let out =
                run_query(&db, &m, "SELECT COUNT(*) FROM t GROUP BY predict(*)", opts).unwrap();
            // Key column comes from the GroupKey::Predict schema branch.
            assert_eq!(out.n_key_cols, 1);
            assert_eq!(out.table.schema().col(0).name, "predict");
            assert_eq!(out.table.schema().col(0).ty, ColType::Int);
            // Duplicate labels merge into one group per class, in class
            // order: class 0 × 1 row, class 1 × 3 rows, class 2 × 2 rows.
            assert_eq!(
                out.table.to_tsv(),
                "predict\tcount\n0\t1\n1\t3\n2\t2\n",
                "[{engine:?} debug={debug}]"
            );

            // SUM(predict(*)) keyed by predict(*): per-class sums are
            // class × multiplicity.
            let out = run_query(
                &db,
                &m,
                "SELECT SUM(predict(t)) FROM t t GROUP BY predict(t)",
                opts,
            )
            .unwrap();
            assert_eq!(
                out.table.to_tsv(),
                "predict\tsum\n0\t0\n1\t3\n2\t4\n",
                "[{engine:?} debug={debug}]"
            );
        }
    }
}

#[test]
fn predict_key_schema_uniquifies_colliding_names() {
    use rain_sql::Engine;
    let (db, m) = dup_class_db();
    for engine in [Engine::Tuple, Engine::Vectorized] {
        // An aggregate aliased to the key's reserved name must be
        // uniquified, not panic or shadow the key column.
        let out = run_query(
            &db,
            &m,
            "SELECT COUNT(*) AS predict FROM t GROUP BY predict(*)",
            ExecOptions::debug().on(engine),
        )
        .unwrap();
        let names: Vec<&str> = out.table.schema().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["predict", "predict_2"], "{engine:?}");
    }
}

#[test]
fn two_predict_keys_group_and_uniquify() {
    use rain_sql::Engine;
    let (mut db, m) = dup_class_db();
    let t = db.table("t").unwrap().clone();
    db.register("u", t);
    let sql = "SELECT predict(a), predict(b), COUNT(*) FROM t a, u b \
               WHERE a.id = b.id GROUP BY predict(a), predict(b)";
    for engine in [Engine::Tuple, Engine::Vectorized] {
        for debug in [false, true] {
            let out = run_query(&db, &m, sql, ExecOptions::with_debug(debug).on(engine)).unwrap();
            let names: Vec<&str> = out.table.schema().iter().map(|c| c.name.as_str()).collect();
            assert_eq!(names, ["predict", "predict_2", "count"]);
            // The self-join pairs each row with itself, so only diagonal
            // class groups exist, with duplicate labels merged.
            assert_eq!(
                out.table.to_tsv(),
                "predict\tpredict_2\tcount\n0\t0\t1\n1\t1\t3\n2\t2\t2\n",
                "[{engine:?} debug={debug}]"
            );
            if debug {
                // Discrete evaluation of the captured per-cell provenance
                // must reproduce the concrete counts.
                let preds = out.predvars.preds().to_vec();
                for (ri, cells) in out.agg_cells.iter().enumerate() {
                    let concrete = match out.table.value(ri, 2) {
                        Value::Int(v) => v as f64,
                        other => panic!("unexpected {other:?}"),
                    };
                    assert_eq!(cells[0].eval_discrete(&preds), concrete);
                }
            }
        }
    }
}

#[test]
fn non_ascii_string_literals_match_their_rows() {
    // The lexer used to push a literal's UTF-8 bytes as chars, so `'λ'`
    // compared as mojibake and matched nothing.
    use rain_sql::Engine;
    let mut db = Database::new();
    db.register(
        "notes",
        Table::from_columns(
            Schema::new(&[("id", ColType::Int), ("note", ColType::Str)]),
            vec![
                Column::Int(vec![0, 1, 2]),
                Column::Str(vec!["l".into(), "λ".into(), "Î»".into()]),
            ],
        ),
    );
    let model = step_model();
    for engine in [Engine::Tuple, Engine::Vectorized] {
        let out = run_query(
            &db,
            &model,
            "SELECT id FROM notes WHERE note = 'λ'",
            ExecOptions::default().on(engine),
        )
        .unwrap();
        assert_eq!(out.table.n_rows(), 1, "{engine:?}");
        assert_eq!(out.table.value(0, 0), Value::Int(1), "{engine:?}");
    }
}
