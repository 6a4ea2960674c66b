//! Empirical demonstrations of the appendix theorems.
//!
//! - Theorem A.1 (appendix A): under complaint ambiguity, the probability
//!   that TwoStep assigns the noisy training point a nonzero influence
//!   score vanishes as the clean queried population grows.
//! - Theorem C.1 (appendix C): as the number of (mutually parallel,
//!   orthogonal-to-clean) corrupted training records grows, their training
//!   loss and self-influence go to 0 — so Loss/InfLoss rank them at the
//!   bottom — while a single complaint ranks them all at the top.

use super::setups::{run, Row};
use rain_core::prelude::*;
use rain_core::{sql_step, SqlStep, SqlStepConfig};
use rain_influence::{inverse_hvp, score_records, InfluenceConfig};
use rain_linalg::{Matrix, RainRng};
use rain_model::{train_lbfgs, Classifier, Dataset, LbfgsConfig, LogisticRegression};
use rain_sql::{run_query, Database, ExecOptions};

/// Build the Theorem A.1 setting: clean data lives in dims `0..d-1`; the
/// single noisy training point `t` has feature `e_{d-1}` (orthogonal to
/// everything clean). The queried set has `n` clean records plus `m`
/// records parallel to `t`.
fn thm_a1_setting(n: usize, m: usize, seed: u64) -> (Dataset, usize, Database, LogisticRegression) {
    let d = 6;
    let mut rng = RainRng::seed_from_u64(seed);
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut labels = Vec::new();
    // Clean training data: separable in dims 0..d-1, zero in dim d-1.
    for _ in 0..80 {
        let y = rng.bernoulli(0.5) as usize;
        let mut x = rng.normal_vec(d - 1, 0.5);
        x[0] += if y == 1 { 1.5 } else { -1.5 };
        x.push(0.0);
        rows.push(x);
        labels.push(y);
    }
    // The noisy point t: label 0 ("l'"), feature e_{d-1}.
    let mut t = vec![0.0; d];
    t[d - 1] = 2.0;
    rows.push(t);
    labels.push(0);
    let noisy_idx = rows.len() - 1;
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    let train = Dataset::new(Matrix::from_rows(&refs), labels, 2);

    // Queried set: n clean records, all from the class-0 region (so the
    // current query count of predicted-1 records is 0, as in the
    // theorem's construction), plus m records parallel to t.
    let mut qrows: Vec<Vec<f64>> = Vec::new();
    for _ in 0..n {
        let mut x = rng.normal_vec(d - 1, 0.5);
        x[0] -= 1.5;
        x.push(0.0);
        qrows.push(x);
    }
    for _ in 0..m {
        let mut x = vec![0.0; d];
        x[d - 1] = rng.uniform_range(1.0, 3.0);
        qrows.push(x);
    }
    let qrefs: Vec<&[f64]> = qrows.iter().map(|r| r.as_slice()).collect();
    let qlabels = vec![0usize; qrows.len()];
    let qds = Dataset::new(Matrix::from_rows(&qrefs), qlabels, 2);
    let mut db = Database::new();
    db.register("q", rain_data::dataset_to_table(&qds, Vec::new()));
    let mut model = LogisticRegression::without_bias(d, 0.05);
    train_lbfgs(&mut model, &train, &LbfgsConfig::default());
    (train, noisy_idx, db, model)
}

/// Theorem A.1: `(n, p)` where `p` is the fraction of trials in which
/// TwoStep's chosen ILP solution gives the noisy point a nonzero score, as
/// the clean queried population `n` grows (m = 3 non-orthogonal queried
/// records, complaint count k = 2).
pub fn thm_a1(quick: bool) -> Vec<(usize, f64)> {
    let (m, k) = (3usize, 2.0);
    let ns: &[usize] = if quick {
        &[20, 80]
    } else {
        &[20, 50, 100, 200, 400]
    };
    let trials = if quick { 10 } else { 30 };
    let mut points = Vec::new();
    for &n in ns {
        let mut nonzero = 0usize;
        for trial in 0..trials {
            let (train, noisy_idx, db, model) = thm_a1_setting(n, m, 1000 + trial as u64);
            // Query: count of records predicted 1 (= 1 - l'); complain it
            // should be k (currently 0).
            let out = run_query(
                &db,
                &model,
                "SELECT COUNT(*) FROM q WHERE predict(*) = 1",
                ExecOptions::debug(),
            )
            .expect("query");
            let cfg = SqlStepConfig {
                seed: trial as u64,
                ..Default::default()
            };
            let SqlStep::Repairs(repairs) = sql_step(&out, &[Complaint::scalar_eq(k)], 2, &cfg)
            else {
                continue;
            };
            // TwoStep influence step: q = -Σ p_target over repairs.
            let mut gq = vec![0.0; model.n_params()];
            for (var, class) in repairs {
                let info = out.predvars.info(var);
                let x = db
                    .table(&info.table)
                    .unwrap()
                    .feature_row(info.row)
                    .unwrap();
                rain_linalg::vecops::axpy(-1.0, &model.grad_proba(x, class), &mut gq);
            }
            let icfg = InfluenceConfig::default();
            let s = inverse_hvp(&model, &train, &gq, &icfg).x;
            let scores = score_records(&model, &train, &s, 1);
            // "Nonzero" relative to the scale of real scores (CG noise
            // floor is far below this).
            let scale = scores.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if scores[noisy_idx].abs() > 1e-6 * scale.max(1e-12) {
                nonzero += 1;
            }
        }
        points.push((n, nonzero as f64 / trials as f64));
    }
    points
}

/// Build the Theorem C.1 setting: clean records in dims `0..10`,
/// `k_corrupt` corrupted records all parallel along dim 10 with inverted
/// labels.
fn thm_c1_setting(k_corrupt: usize, seed: u64) -> (Dataset, Vec<usize>, Database) {
    let d = 11;
    let mut rng = RainRng::seed_from_u64(seed);
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..120 {
        let y = rng.bernoulli(0.5) as usize;
        let mut x = rng.normal_vec(d - 1, 0.5);
        x[0] += if y == 1 { 1.5 } else { -1.5 };
        x.push(0.0);
        rows.push(x);
        labels.push(y);
    }
    let mut truth = Vec::new();
    for _ in 0..k_corrupt {
        let mut x = vec![0.0; d];
        x[d - 1] = rng.uniform_range(1.0, 2.0);
        rows.push(x);
        truth.push(rows.len() - 1);
        labels.push(0); // true label along this direction is 1; inverted
    }
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    let train = Dataset::new(Matrix::from_rows(&refs), labels, 2);
    // Queried records parallel to the corrupted direction.
    let mut qrows = Vec::new();
    for _ in 0..40 {
        let mut x = vec![0.0; d];
        x[d - 1] = rng.uniform_range(1.0, 2.0);
        qrows.push(x);
    }
    let qrefs: Vec<&[f64]> = qrows.iter().map(|r| r.as_slice()).collect();
    let qds = Dataset::new(Matrix::from_rows(&qrefs), vec![1; 40], 2);
    let mut db = Database::new();
    db.register("q", rain_data::dataset_to_table(&qds, Vec::new()));
    (train, truth, db)
}

/// One corruption count `k` of Theorem C.1: the corrupted records' mean
/// loss and self-influence, and the Loss and Holistic runs over them.
pub struct C1Point {
    pub k: usize,
    pub mean_loss: f64,
    pub mean_self_influence: f64,
    pub loss: Row,
    pub holistic: Row,
}

/// Theorem C.1: corrupted-record loss and self-influence vanish as the
/// corrupted population grows, while the complaint-driven ranking stays
/// perfect.
pub fn thm_c1(quick: bool) -> Vec<C1Point> {
    let ks: &[usize] = if quick { &[5, 40] } else { &[5, 20, 80, 160] };
    let mut points = Vec::new();
    for &k in ks {
        let (train, truth, db) = thm_c1_setting(k, 7);
        let mut model = LogisticRegression::without_bias(11, 0.05);
        train_lbfgs(&mut model, &train, &LbfgsConfig::default());
        // Mean loss of corrupted records.
        let mean_loss: f64 = truth
            .iter()
            .map(|&i| model.example_loss(train.x(i), train.y(i)))
            .sum::<f64>()
            / k as f64;
        // Mean self-influence of corrupted records.
        let icfg = InfluenceConfig::default();
        let mut mean_self_influence = 0.0;
        for &i in &truth {
            let g = model.example_grad(train.x(i), train.y(i));
            let s = inverse_hvp(&model, &train, &g, &icfg).x;
            mean_self_influence += -rain_linalg::vecops::dot(&g, &s) / k as f64;
        }
        // Loss baseline vs Holistic-with-complaint on the full sessions.
        let sess = DebugSession::new(
            db,
            train,
            Box::new(LogisticRegression::without_bias(11, 0.05)),
        )
        .with_query(
            // All 40 parallel queried records are truly class 1; the
            // corrupted model predicts 0. Complain the count is 40.
            QuerySpec::new("SELECT COUNT(*) FROM q WHERE predict(*) = 1")
                .with_complaint(Complaint::scalar_eq(40.0)),
        );
        points.push(C1Point {
            k,
            mean_loss,
            mean_self_influence,
            loss: run(&sess, k, Method::Loss, &truth, k),
            holistic: run(&sess, k, Method::Holistic, &truth, k),
        });
    }
    points
}
