//! End-to-end tests of the Rain system: complaints → ranking → removal,
//! across methods and query shapes, on small workloads (fast in debug
//! builds).

use rain_core::driver::DENSE_MAX_PARAMS;
use rain_core::prelude::*;
use rain_core::{sql_step, SqlStep, SqlStepConfig, ValueOp};
use rain_data::adult::AdultConfig;
use rain_data::dblp::DblpConfig;
use rain_data::digits::{DigitsConfig, N_CLASSES, N_PIXELS};
use rain_data::flip_labels_where;
use rain_influence::{inverse_hvp, inverse_hvp_with, CgConfig, InfluenceConfig};
use rain_model::{train_lbfgs, Classifier, LogisticRegression, Mlp, SoftmaxRegression};
use rain_sql::{run_query, Database, Engine, ExecOptions, QueryCache};

/// DBLP-style session with 50% of match labels flipped to non-match.
fn dblp_session(seed: u64) -> (DebugSession, Vec<usize>, usize) {
    let w = DblpConfig::small().generate(seed);
    let mut train = w.train.clone();
    let truth = flip_labels_where(&mut train, |_, _, y| y == 1, 0.5, |_| 0, seed);
    let mut db = Database::new();
    db.register("pairs", w.query_table());
    let true_count = w.true_match_count();
    let session = DebugSession::new(db, train, Box::new(LogisticRegression::new(17, 0.01)))
        .with_query(
            QuerySpec::new("SELECT COUNT(*) FROM pairs WHERE predict(*) = 1")
                .with_complaint(Complaint::scalar_eq(true_count as f64)),
        );
    (session, truth, true_count)
}

/// Digits with 60% of the 1s relabelled 7, COUNT-of-1s complaint (a
/// small version of Q5).
fn digits_session(n_train: usize, seed: u64) -> (DebugSession, Vec<usize>) {
    let w = DigitsConfig {
        n_train,
        n_query: 120,
    }
    .generate(seed);
    let mut train = w.train.clone();
    let truth = flip_labels_where(&mut train, |_, _, y| y == 1, 0.6, |_| 7, seed);
    let mut db = Database::new();
    db.register(
        "mnist",
        w.query_table_for(&(0..10).collect::<Vec<_>>(), 120),
    );
    let true_ones = w.query_rows_with_digits(&[1]).len().min(120);
    let session = DebugSession::new(
        db,
        train,
        Box::new(SoftmaxRegression::new(N_PIXELS, N_CLASSES, 0.01)),
    )
    .with_query(
        QuerySpec::new("SELECT COUNT(*) FROM mnist WHERE predict(*) = 1")
            .with_complaint(Complaint::scalar_eq(true_ones as f64)),
    );
    (session, truth)
}

/// Adult with half of (low income ∧ male ∧ 40s) flipped to high, AVG
/// complaint on the forties' group (§6.5).
fn adult_session(seed: u64) -> (DebugSession, Vec<usize>) {
    let w = AdultConfig {
        n_train: 300,
        n_query: 200,
    }
    .generate(seed);
    let mut train = w.train.clone();
    let truth = flip_labels_where(&mut train, w.corruption_predicate(), 0.5, |_| 1, seed);
    let mut decades: Vec<i64> = w.query_records.iter().map(|r| r.age_decade()).collect();
    decades.sort_unstable();
    decades.dedup();
    let row = decades.iter().position(|&d| d == 40).expect("a 40s group");
    let target = w.true_avg_where(|r| r.age_decade() == 40);
    let mut db = Database::new();
    db.register("adult", w.query_table());
    let session = DebugSession::new(
        db,
        train,
        Box::new(LogisticRegression::new(rain_data::adult::N_FEATURES, 0.01)),
    )
    .with_query(
        QuerySpec::new("SELECT AVG(predict(*)) FROM adult GROUP BY agedecade")
            .with_complaint(Complaint::value_eq(row, 0, target)),
    );
    (session, truth)
}

#[test]
fn holistic_beats_loss_under_systematic_corruption() {
    let (session, truth, _) = dblp_session(1);
    let budget = 40.min(truth.len());
    let hol = session
        .run(Method::Holistic, &RunConfig::paper(budget))
        .unwrap();
    let loss = session
        .run(Method::Loss, &RunConfig::paper(budget))
        .unwrap();
    let a_hol = hol.auccr(&truth);
    let a_loss = loss.auccr(&truth);
    assert!(
        a_hol > a_loss + 0.1,
        "Holistic {a_hol} should dominate Loss {a_loss} at 50% corruption"
    );
    assert!(a_hol > 0.5, "Holistic AUCCR {a_hol}");
}

#[test]
fn twostep_count_complaint_recovers_corruptions() {
    let (session, truth, _) = dblp_session(2);
    let budget = 30.min(truth.len());
    let ts = session
        .run(Method::TwoStep, &RunConfig::paper(budget))
        .unwrap();
    assert!(ts.failure.is_none(), "TwoStep failed: {:?}", ts.failure);
    let recall = ts.recall_curve(&truth);
    assert!(
        *recall.last().unwrap() > 0.0,
        "TwoStep found nothing: {recall:?}"
    );
}

#[test]
fn removing_corruptions_repairs_the_query() {
    // After Holistic removes the corrupted records, retraining should move
    // the query result substantially back toward the complaint target
    // (the corrupted model collapses to predicting ~no matches at all).
    let (session, truth, true_count) = dblp_session(3);
    let count_with = |train: &rain_model::Dataset| -> f64 {
        let mut model = session.model.clone();
        rain_model::train_lbfgs(model.as_mut(), train, &rain_model::LbfgsConfig::default());
        let out = run_query(
            &session.db,
            model.as_ref(),
            &session.queries[0].sql,
            ExecOptions::default(),
        )
        .unwrap();
        match out.scalar().unwrap() {
            rain_sql::Value::Int(v) => v as f64,
            other => panic!("unexpected {other:?}"),
        }
    };
    let corrupted_count = count_with(&session.train);
    let report = session
        .run(Method::Holistic, &RunConfig::paper(truth.len()))
        .unwrap();
    let cleaned_count = count_with(&session.train.remove_ids(&report.removed));
    // The corrupted model must be visibly broken, and debugging must
    // recover at least half of the gap to the true count.
    assert!(
        corrupted_count < true_count as f64 * 0.5,
        "corruption did not break the query (count {corrupted_count})"
    );
    let recovered = (cleaned_count - corrupted_count) / (true_count as f64 - corrupted_count);
    assert!(
        recovered > 0.5,
        "debugging recovered only {recovered:.2} of the gap \
         (corrupted {corrupted_count}, cleaned {cleaned_count}, true {true_count})"
    );
}

#[test]
fn driver_respects_budget_and_batch_size() {
    let (session, truth, _) = dblp_session(4);
    let budget = 23.min(truth.len());
    let report = session
        .run(Method::Holistic, &RunConfig::paper(budget))
        .unwrap();
    assert_eq!(report.removed.len(), budget);
    // Batches: 10, 10, 3.
    let sizes: Vec<usize> = report.iterations.iter().map(|i| i.removed.len()).collect();
    assert_eq!(sizes, vec![10, 10, 3]);
    // No record removed twice.
    let mut ids = report.removed.clone();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), budget);
}

#[test]
fn stop_when_satisfied_halts_early() {
    // Complain that the count should be exactly what it already is.
    let w = DblpConfig::small().generate(5);
    let mut db = Database::new();
    db.register("pairs", w.query_table());
    let mut model = LogisticRegression::new(17, 0.01);
    rain_model::train_lbfgs(&mut model, &w.train, &rain_model::LbfgsConfig::default());
    let out = run_query(
        &db,
        &model,
        "SELECT COUNT(*) FROM pairs WHERE predict(*) = 1",
        ExecOptions::default(),
    )
    .unwrap();
    let current = match out.scalar().unwrap() {
        rain_sql::Value::Int(v) => v as f64,
        other => panic!("unexpected {other:?}"),
    };
    let session = DebugSession::new(db, w.train.clone(), Box::new(model)).with_query(
        QuerySpec::new("SELECT COUNT(*) FROM pairs WHERE predict(*) = 1")
            .with_complaint(Complaint::scalar_eq(current)),
    );
    let report = session
        .run(
            Method::Holistic,
            &RunConfig {
                stop_when_satisfied: true,
                ..RunConfig::paper(50)
            },
        )
        .unwrap();
    assert!(report.removed.is_empty(), "removed {:?}", report.removed);
    assert!(report.iterations[0].complaints_satisfied);
}

#[test]
fn auto_heuristic_selects_methods_per_section_5_1() {
    let agg = vec![QuerySpec::new("q").with_complaint(Complaint::scalar_eq(1.0))];
    assert_eq!(Method::Auto.resolve(&agg), Method::Holistic);
    let point = vec![QuerySpec::new("q").with_complaint(Complaint::prediction_is("t", 0, 1))];
    assert_eq!(Method::Auto.resolve(&point), Method::TwoStep);
    let mixed = vec![
        QuerySpec::new("q").with_complaint(Complaint::prediction_is("t", 0, 1)),
        QuerySpec::new("q2").with_complaint(Complaint::tuple_delete(0)),
    ];
    assert_eq!(Method::Auto.resolve(&mixed), Method::Holistic);
}

// ---------- TwoStep SQL-step unit behaviour ----------

/// A fixed 3-class model over 3-D one-hot features.
fn tri_model() -> SoftmaxRegression {
    let mut m = SoftmaxRegression::new(3, 3, 0.0);
    let mut p = vec![0.0; 4 * 3];
    for j in 0..3 {
        p[j * 3 + j] = 40.0;
    }
    m.set_params(&p);
    m
}

fn tri_db(left_classes: &[usize], right_classes: &[usize]) -> Database {
    use rain_linalg::Matrix;
    use rain_sql::table::{ColType, Column, Schema, Table};
    let mk = |classes: &[usize]| {
        let rows: Vec<Vec<f64>> = classes
            .iter()
            .map(|&c| {
                let mut v = vec![0.0; 3];
                v[c] = 1.0;
                v
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Table::from_columns(
            Schema::new(&[("id", ColType::Int)]),
            vec![Column::Int((0..classes.len() as i64).collect())],
        )
        .with_features(Matrix::from_rows(&refs))
    };
    let mut db = Database::new();
    db.register("l", mk(left_classes));
    db.register("r", mk(right_classes));
    db
}

#[test]
fn sql_step_cardinality_presolve() {
    let db = tri_db(&[0, 0, 1, 1, 2], &[0]);
    let model = tri_model();
    let out = run_query(
        &db,
        &model,
        "SELECT COUNT(*) FROM l WHERE predict(*) = 0",
        ExecOptions::debug(),
    )
    .unwrap();
    // Current count of class 0 is 2; complain it should be 4.
    let repairs = match sql_step(
        &out,
        &[Complaint::scalar_eq(4.0)],
        3,
        &SqlStepConfig::default(),
    ) {
        SqlStep::Repairs(r) => r,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(repairs.len(), 2, "minimal repair flips exactly 2");
    assert!(
        repairs.iter().all(|&(_, c)| c == 0),
        "flips must assign class 0"
    );
    // Complain it should be 1 → one record flipped OUT of class 0.
    let repairs = match sql_step(
        &out,
        &[Complaint::scalar_eq(1.0)],
        3,
        &SqlStepConfig::default(),
    ) {
        SqlStep::Repairs(r) => r,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(repairs.len(), 1);
    assert_ne!(repairs[0].1, 0, "out-flip must leave class 0");
}

#[test]
fn sql_step_prediction_complaints_are_fixed_points() {
    let db = tri_db(&[0, 1, 2], &[0]);
    let model = tri_model();
    let out = run_query(
        &db,
        &model,
        "SELECT COUNT(*) FROM l WHERE predict(*) = 0",
        ExecOptions::debug(),
    )
    .unwrap();
    let repairs = match sql_step(
        &out,
        &[
            Complaint::prediction_is("l", 0, 2), // change row 0 to class 2
            Complaint::prediction_is("l", 1, 1), // row 1 already class 1
        ],
        3,
        &SqlStepConfig::default(),
    ) {
        SqlStep::Repairs(r) => r,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(repairs.len(), 1, "only real changes are repairs");
    assert_eq!(repairs[0].1, 2);
}

#[test]
fn sql_step_join_pairs_use_vertex_cover() {
    // left digits all predicted 1; right all predicted 1 → all pairs join.
    let db = tri_db(&[1, 1, 1], &[1]);
    let model = tri_model();
    let out = run_query(
        &db,
        &model,
        "SELECT * FROM l, r WHERE predict(l) = predict(r)",
        ExecOptions::debug(),
    )
    .unwrap();
    assert_eq!(out.table.n_rows(), 3);
    // Complain about all three join rows. Minimum cover = flip the single
    // shared right-side record.
    let complaints: Vec<Complaint> = (0..3).map(Complaint::tuple_delete).collect();
    let repairs = match sql_step(&out, &complaints, 3, &SqlStepConfig::default()) {
        SqlStep::Repairs(r) => r,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(
        repairs.len(),
        1,
        "vertex cover should flip one record: {repairs:?}"
    );
    let (var, class) = repairs[0];
    assert_eq!(out.predvars.info(var).table, "r");
    assert_ne!(class, 1);
}

#[test]
fn sql_step_join_count_zero_partitions_classes() {
    let db = tri_db(&[0, 0, 1], &[1, 2]);
    let model = tri_model();
    let out = run_query(
        &db,
        &model,
        "SELECT COUNT(*) FROM l, r WHERE predict(l) = predict(r)",
        ExecOptions::debug(),
    )
    .unwrap();
    // One joining pair (left digit 1 × right digit 1); complain count = 0.
    let repairs = match sql_step(
        &out,
        &[Complaint::scalar_eq(0.0)],
        3,
        &SqlStepConfig::default(),
    ) {
        SqlStep::Repairs(r) => r,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(
        repairs.len(),
        1,
        "one flip separates the sides: {repairs:?}"
    );
    // Verify the repair actually zeroes the discrete count.
    let mut preds = out.predvars.preds().to_vec();
    for &(v, c) in &repairs {
        preds[v as usize] = c;
    }
    let cell = &out.agg_cells[0][0];
    assert_eq!(cell.eval_discrete(&preds), 0.0);
}

#[test]
fn sql_step_generic_path_handles_conjunctions() {
    // A tuple complaint over an AND formula goes through Tseitin + B&B.
    let db = tri_db(&[0, 1], &[0, 1]);
    let model = tri_model();
    let out = run_query(
        &db,
        &model,
        "SELECT * FROM l, r WHERE predict(l) = 0 AND predict(r) = 1",
        ExecOptions::debug(),
    )
    .unwrap();
    assert_eq!(out.table.n_rows(), 1);
    let repairs = match sql_step(
        &out,
        &[Complaint::tuple_delete(0)],
        3,
        &SqlStepConfig::default(),
    ) {
        SqlStep::Repairs(r) => r,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(
        repairs.len(),
        1,
        "one flip breaks the conjunction: {repairs:?}"
    );
    let mut preds = out.predvars.preds().to_vec();
    for &(v, c) in &repairs {
        preds[v as usize] = c;
    }
    assert!(!out.row_prov[0].eval_discrete(&preds));
}

#[test]
fn sql_step_timeout_on_oversized_ilp() {
    // Force the generic path with a tiny size wall.
    let db = tri_db(&[0, 1], &[0, 1]);
    let model = tri_model();
    let out = run_query(
        &db,
        &model,
        "SELECT * FROM l, r WHERE predict(l) = 0 AND predict(r) = 1",
        ExecOptions::debug(),
    )
    .unwrap();
    let cfg = SqlStepConfig {
        max_ilp_vars: 1,
        ..Default::default()
    };
    assert_eq!(
        sql_step(&out, &[Complaint::tuple_delete(0)], 3, &cfg),
        SqlStep::Timeout
    );
}

#[test]
fn sql_step_different_seeds_pick_different_repairs() {
    // Ambiguous complaint: count should drop by 1 among 5 identical rows.
    let db = tri_db(&[0, 0, 0, 0, 0], &[0]);
    let model = tri_model();
    let out = run_query(
        &db,
        &model,
        "SELECT COUNT(*) FROM l WHERE predict(*) = 0",
        ExecOptions::debug(),
    )
    .unwrap();
    let mut picks = std::collections::HashSet::new();
    for seed in 0..12 {
        let cfg = SqlStepConfig {
            seed,
            ..Default::default()
        };
        if let SqlStep::Repairs(r) = sql_step(&out, &[Complaint::scalar_eq(4.0)], 3, &cfg) {
            assert_eq!(r.len(), 1);
            picks.insert(r[0]);
        }
    }
    assert!(picks.len() > 1, "ambiguity must surface different optima");
}

// ---------- Multiclass end-to-end (MNIST-style) ----------

#[test]
fn holistic_on_digits_count_complaint() {
    // Small version of Q5: corrupt 1s to 7s, complain the count of 1s.
    let (session, truth) = digits_session(250, 11);
    assert!(
        truth.len() >= 5,
        "need some corruptions, got {}",
        truth.len()
    );
    let budget = truth.len().min(20);
    let report = session
        .run(Method::Holistic, &RunConfig::paper(budget))
        .unwrap();
    let recall = report.recall_curve(&truth);
    assert!(
        *recall.last().unwrap() >= 0.3,
        "Holistic digits recall {recall:?}"
    );
}

#[test]
fn inequality_complaints_drive_until_satisfied() {
    let (session, truth, true_count) = dblp_session(6);
    // "count should be at least X" — violated initially (undercount).
    let session = DebugSession {
        queries: vec![
            QuerySpec::new("SELECT COUNT(*) FROM pairs WHERE predict(*) = 1").with_complaint(
                Complaint::Value {
                    row: 0,
                    agg: 0,
                    op: ValueOp::Ge,
                    target: true_count as f64 * 0.9,
                },
            ),
        ],
        ..session
    };
    let report = session
        .run(
            Method::Holistic,
            &RunConfig {
                stop_when_satisfied: true,
                ..RunConfig::paper(truth.len())
            },
        )
        .unwrap();
    // Either satisfied early (good) or kept working; report must be sane.
    assert!(report.failure.is_none());
    assert!(!report.iterations.is_empty());
}

#[test]
fn run_cached_reuses_skeletons_and_skips_static_complaint_checks() {
    let (mut session, truth, _) = dblp_session(8);
    // Add a model-free query whose complaint verdict can never change
    // across iterations: refresh-aware checking must skip it after the
    // first check (its prediction dependency set is empty). It reads its
    // own copy of the pairs, so an append to `pairs` stales one skeleton.
    let pairs = session.db.table("pairs").unwrap().clone();
    session.db.register("frozen", pairs);
    session.queries.push(
        QuerySpec::new("SELECT COUNT(*) FROM frozen").with_complaint(Complaint::scalar_eq(150.0)),
    );
    let n_queries = session.queries.len() as u64;
    let budget = 20.min(truth.len());
    let cfg = RunConfig::paper(budget);
    let mut cache = QueryCache::new(Engine::Vectorized);
    let first = session.run_cached(Method::Loss, &cfg, &mut cache).unwrap();
    assert_eq!(first.skeleton_rebuilds, 0, "nothing cached to rebuild");
    assert_eq!(cache.stats().misses, n_queries);
    assert_eq!(cache.len() as u64, n_queries, "skeletons checked back in");
    assert!(first.iterations.len() >= 2);
    assert!(
        first.iterations[0].checks_skipped == 0,
        "first iteration has no prior verdicts"
    );
    assert!(
        first
            .iterations
            .iter()
            .skip(1)
            .all(|it| it.checks_skipped >= 1),
        "the model-free query must not be re-checked: {:?}",
        first
            .iterations
            .iter()
            .map(|it| it.checks_skipped)
            .collect::<Vec<_>>()
    );
    // Equivalent to a self-contained run…
    let fresh = session.run(Method::Loss, &cfg).unwrap();
    assert_eq!(first.removed, fresh.removed);
    // …and a second run on the same cache starts from hits alone.
    let hits = cache.stats().hits;
    let second = session.run_cached(Method::Loss, &cfg, &mut cache).unwrap();
    assert_eq!(cache.stats().hits, hits + n_queries);
    assert_eq!(second.skeleton_rebuilds, 0);
    assert_eq!(second.removed, fresh.removed);

    // Rows appended to a queried table between runs: the next checkout
    // brings that one skeleton current, and the run matches a fresh run
    // on the grown database.
    let extra = DblpConfig::small().generate(99).query_table();
    let rows = (0..20)
        .map(|r| {
            (0..extra.schema().len())
                .map(|c| extra.value(r, c))
                .collect()
        })
        .collect();
    let feats = (0..20)
        .map(|r| extra.feature_row(r).unwrap().to_vec())
        .collect();
    session.db.append_to("pairs", rows, Some(feats)).unwrap();
    let third = session.run_cached(Method::Loss, &cfg, &mut cache).unwrap();
    assert_eq!(third.skeleton_rebuilds, 1);
    assert_eq!(cache.stats().invalidations, 1);
    assert_eq!(
        third.removed,
        session.run(Method::Loss, &cfg).unwrap().removed
    );
}

#[test]
fn incremental_refresh_reproduces_full_reexecution_loop() {
    // The driver with incremental refresh ON must walk exactly the same
    // trajectory as with full per-iteration re-execution: same
    // per-iteration rankings (removed-id batches, in rank order), same
    // complaint status, same final explanation.
    let (session, truth, _) = dblp_session(7);
    let budget = 30.min(truth.len());
    let run_with = |incremental: bool| {
        session
            .run(
                Method::Holistic,
                &RunConfig {
                    incremental,
                    ..RunConfig::paper(budget)
                },
            )
            .unwrap()
    };
    let inc = run_with(true);
    let full = run_with(false);
    assert_eq!(inc.removed, full.removed, "explanations diverge");
    assert_eq!(
        inc.iterations.len(),
        full.iterations.len(),
        "iteration counts diverge"
    );
    for (i, (a, b)) in inc.iterations.iter().zip(&full.iterations).enumerate() {
        assert_eq!(a.removed, b.removed, "iteration {i}: rankings diverge");
        assert_eq!(
            a.complaints_satisfied, b.complaints_satisfied,
            "iteration {i}: complaint status diverges"
        );
        assert_eq!(a.train_loss, b.train_loss, "iteration {i}: loss diverges");
    }
}

#[test]
fn profile_captures_a_per_iteration_span_tree() {
    let (session, truth, _) = dblp_session(6);
    let budget = 20.min(truth.len());
    let cfg = RunConfig {
        profile: true,
        ..RunConfig::paper(budget)
    };
    let report = session.run(Method::Holistic, &cfg).unwrap();
    let tree = report.profile.expect("profile requested but absent");
    assert_eq!(tree.name, "debug-run");
    // The one-time plan/prepare runs under the same root as the loop.
    let prep = tree.find("prepare-queries").expect("prepare-queries span");
    assert!(prep.find("prepare").is_some(), "skeleton capture traced");
    let iters: Vec<_> = tree
        .children
        .iter()
        .filter(|c| c.name == "iteration")
        .collect();
    assert_eq!(iters.len(), report.iterations.len());
    let mut removed_before = 0;
    for it in &iters {
        for stage in ["train", "execute", "check", "rank", "remove"] {
            assert!(it.find(stage).is_some(), "iteration missing {stage} span");
        }
        // The batch leaves the training set under its own span.
        assert_eq!(counter(it.find("remove").unwrap(), "rows"), 10);
        // Incremental re-execution: the sql layer's refresh spans nest
        // under the driver's execute span.
        let exec = it.find("execute").unwrap();
        assert!(exec.find("refresh").is_some(), "refresh under execute");
        // The ML crates report their own work: train and rank are not
        // opaque boxes.
        let train = it.find("train").unwrap();
        assert!(counter(train, "loss_grad_evals") > counter(train, "lbfgs_iters"));
        // A narrow model ranks through its dense Hessian, built under
        // rank, and solves with it directly.
        let rank = it.find("rank").unwrap();
        assert!(rank.find("hessian").is_some(), "hessian under rank");
        let solve = rank.find("inverse_hvp").expect("inverse_hvp under rank");
        assert_eq!(counter(solve, "dense"), 1);
        assert_eq!(counter(solve, "cg_iters"), 0);
        assert!(counter(solve, "rel_residual_e9") <= 1_000);
        // After the cold fit, each retrain starts with Newton steps.
        let newton = counter(train, "newton_steps");
        if removed_before == 0 {
            assert_eq!(newton, 0, "cold fit is L-BFGS alone");
        } else {
            assert!(newton >= 1, "warm retrain takes a Newton step");
        }
        let score = rank
            .find("score_records")
            .expect("score_records under rank");
        assert_eq!(
            counter(score, "rows") as usize,
            session.train.len() - removed_before
        );
        assert_eq!(counter(score, "workers"), 1, "small input scores serially");
        removed_before += 10;
    }
    // Profiling is opt-in: a plain run carries no tree.
    let plain = session
        .run(Method::Loss, &RunConfig::paper(5.min(truth.len())))
        .unwrap();
    assert!(plain.profile.is_none());
}

/// The value of `node`'s counter `key`; panics when the span lacks it.
fn counter(node: &rain_obs::TraceNode, key: &str) -> u64 {
    let found = node.counters.iter().find(|(k, _)| *k == key);
    found
        .unwrap_or_else(|| panic!("{} span lacks {key}", node.name))
        .1
}

#[test]
fn profile_of_a_wide_model_shows_hessian_free_solves() {
    // Softmax over digits is far wider than the dense bound: L-BFGS
    // retrains and conjugate-gradient solves, every iteration.
    let (session, truth) = digits_session(120, 11);
    let cfg = RunConfig {
        profile: true,
        ..RunConfig::paper(20.min(truth.len()))
    };
    let report = session.run(Method::Holistic, &cfg).unwrap();
    let tree = report.profile.expect("profile requested but absent");
    let iters: Vec<_> = tree
        .children
        .iter()
        .filter(|c| c.name == "iteration")
        .collect();
    assert_eq!(iters.len(), report.iterations.len());
    for it in iters {
        assert_eq!(counter(it.find("train").unwrap(), "newton_steps"), 0);
        let rank = it.find("rank").unwrap();
        assert!(rank.find("hessian").is_none(), "no dense Hessian");
        let solve = rank.find("inverse_hvp").expect("inverse_hvp under rank");
        assert!(solve.counters.iter().all(|(k, _)| *k != "dense"));
        assert!(counter(solve, "cg_iters") >= 1);
        assert!(counter(solve, "hvp_calls") >= counter(solve, "cg_iters"));
        assert!(counter(solve, "rel_residual_e9") <= 1_000_000);
    }
}

#[test]
fn dense_influence_solve_equals_a_tight_cg_solve() {
    let (dblp, _, _) = dblp_session(6);
    let (adult, _) = adult_session(3);
    for (name, session) in [("dblp", dblp), ("adult", adult)] {
        let mut model = session.model.clone();
        train_lbfgs(model.as_mut(), &session.train, &session.train_cfg);
        let hessian = model.hessian(&session.train);
        // A complaint-shaped right-hand side: the gradient of one class
        // probability summed over a few records.
        let mut g = vec![0.0; model.n_params()];
        for i in 0..5 {
            let x = session.train.x(i);
            rain_linalg::vecops::axpy(1.0, &model.grad_proba(x, 1), &mut g);
        }
        for damping in [0.0, 0.01] {
            let cfg = InfluenceConfig {
                damping,
                cg: CgConfig {
                    max_iters: 1000,
                    rel_tol: 1e-12,
                },
                threads: 1,
            };
            let cg = inverse_hvp(model.as_ref(), &session.train, &g, &cfg);
            assert!(cg.converged && cg.iters >= 1, "{name}: CG");
            let dense = inverse_hvp_with(model.as_ref(), &session.train, Some(&hessian), &g, &cfg);
            assert_eq!(dense.iters, 0, "{name}: direct solve");
            let scale = rain_linalg::vecops::norm_inf(&cg.x);
            for (d, c) in dense.x.iter().zip(&cg.x) {
                assert!(
                    (d - c).abs() <= 1e-9 * scale,
                    "{name} δ={damping}: {d} vs {c}"
                );
            }
        }
    }
}

#[test]
fn narrow_mlp_with_an_indefinite_hessian_falls_back_to_lbfgs_and_cg() {
    // Narrow enough for the dense path, but barely trained and without
    // L2: its Hessian is indefinite, so no rank solve can factor it and
    // no Newton step is taken — every retrain is L-BFGS and every solve
    // conjugate gradient.
    let (mut session, truth, _) = dblp_session(6);
    let mlp = Mlp::new(17, 1, 2, 0.0, 1);
    assert!(mlp.n_params() <= DENSE_MAX_PARAMS);
    session.model = Box::new(mlp);
    session.train_cfg.max_iters = 2;
    let budget = 30.min(truth.len());
    let cfg = RunConfig {
        profile: true,
        ..RunConfig::paper(budget)
    };
    let report = session.run(Method::Holistic, &cfg).unwrap();
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert_eq!(report.removed.len(), budget, "full budget removed");
    let tree = report.profile.expect("profile requested but absent");
    for it in tree.children.iter().filter(|c| c.name == "iteration") {
        assert_eq!(counter(it.find("train").unwrap(), "newton_steps"), 0);
        assert!(it.find("hessian").is_some(), "the dense path is tried");
        let solve = it.find("inverse_hvp").expect("inverse_hvp");
        assert!(solve.counters.iter().all(|(k, _)| *k != "dense"));
        assert!(counter(solve, "cg_iters") >= 1);
    }
}
