//! Golden removal lists: the ML kernels under train and rank and the
//! complaint encoding may be reorganised for speed, but a debug run on a
//! seeded fixture must keep removing the same records in the same order,
//! and L-BFGS must take the same number of iterations to get there. On the
//! logistic sessions the driver's warm retrains are Newton steps, which
//! must leave L-BFGS no iteration to take.
//!
//! The DBLP and digits COUNT lists were captured at the commit *before*
//! the batched kernels (per-example `loss`/`grad`/`hvp` loops) and are
//! asserted unchanged after. The Adult AVG, digits-join and
//! labelled-prediction lists pin the other provenance shapes the complaint
//! encoding differentiates (`Ratio` / `PredValue`, `PredEq`, `PredictionIs`);
//! they were captured before that encoding moved to flat buffers.
//!
//! The Loss and InfLoss baselines are pinned on the DBLP COUNT session;
//! their lists were captured while every method still sorted all its scores,
//! before ranking kept only the batch the driver removes.
//!
//! TwoStep is pinned too: its SQL step picks among ILP optima with a seeded
//! RNG and walks variables in id order, so a run is a function of its seed
//! in every process. CI runs this file in several fresh processes to check
//! exactly that.

use rain_core::prelude::*;
use rain_data::adult::AdultConfig;
use rain_data::dblp::DblpConfig;
use rain_data::digits::{DigitsConfig, N_CLASSES, N_PIXELS};
use rain_data::flip_labels_where;
use rain_model::{train_lbfgs, LbfgsConfig, LogisticRegression, SoftmaxRegression};
use rain_sql::Database;

/// DBLP pairs, half the match labels flipped, COUNT complaint (§6.2).
fn dblp_session() -> DebugSession {
    let w = DblpConfig::small().generate(5);
    let mut train = w.train.clone();
    flip_labels_where(&mut train, |_, _, y| y == 1, 0.5, |_| 0, 5);
    let mut db = Database::new();
    db.register("pairs", w.query_table());
    DebugSession::new(db, train, Box::new(LogisticRegression::new(17, 0.01))).with_query(
        QuerySpec::new("SELECT COUNT(*) FROM pairs WHERE predict(*) = 1")
            .with_complaint(Complaint::scalar_eq(w.true_match_count() as f64)),
    )
}

/// Digits with 60% of the 1s relabelled 7, COUNT-of-1s complaint (§6.3).
fn digits_session() -> DebugSession {
    let w = DigitsConfig {
        n_train: 250,
        n_query: 120,
    }
    .generate(11);
    let mut train = w.train.clone();
    flip_labels_where(&mut train, |_, _, y| y == 1, 0.6, |_| 7, 11);
    let mut db = Database::new();
    db.register(
        "mnist",
        w.query_table_for(&(0..10).collect::<Vec<_>>(), 120),
    );
    let true_ones = w.query_rows_with_digits(&[1]).len().min(120);
    DebugSession::new(
        db,
        train,
        Box::new(SoftmaxRegression::new(N_PIXELS, N_CLASSES, 0.01)),
    )
    .with_query(
        QuerySpec::new("SELECT COUNT(*) FROM mnist WHERE predict(*) = 1")
            .with_complaint(Complaint::scalar_eq(true_ones as f64)),
    )
}

/// Adult with half of (low income ∧ male ∧ 40s) flipped to high, AVG
/// complaint on the forties' group — the `Ratio` / `PredValue` provenance
/// of an `AVG(predict(*)) … GROUP BY` (§6.5).
fn adult_session() -> DebugSession {
    let w = AdultConfig {
        n_train: 300,
        n_query: 200,
    }
    .generate(3);
    let mut train = w.train.clone();
    flip_labels_where(&mut train, w.corruption_predicate(), 0.5, |_| 1, 3);
    let mut decades: Vec<i64> = w.query_records.iter().map(|r| r.age_decade()).collect();
    decades.sort_unstable();
    decades.dedup();
    let row = decades.iter().position(|&d| d == 40).expect("a 40s group");
    let target = w.true_avg_where(|r| r.age_decade() == 40);
    let mut db = Database::new();
    db.register("adult", w.query_table());
    DebugSession::new(
        db,
        train,
        Box::new(LogisticRegression::new(rain_data::adult::N_FEATURES, 0.01)),
    )
    .with_query(
        QuerySpec::new("SELECT AVG(predict(*)) FROM adult GROUP BY agedecade")
            .with_complaint(Complaint::value_eq(row, 0, target)),
    )
}

/// Digits split into disjoint low / high sides, half of the training 1s
/// relabelled 7, `COUNT(join) = 0` over `predict(l) = predict(r)` — the
/// `PredEq` provenance of a prediction join (§6.3, Q4).
fn digits_join_session() -> DebugSession {
    let w = DigitsConfig {
        n_train: 200,
        n_query: 160,
    }
    .generate(13);
    let mut train = w.train.clone();
    flip_labels_where(&mut train, |_, _, y| y == 1, 0.5, |_| 7, 13);
    let mut db = Database::new();
    db.register("left", w.query_table_for(&[1, 2, 3, 4, 5], 30));
    db.register("right", w.query_table_for(&[6, 7, 8, 9, 0], 30));
    DebugSession::new(
        db,
        train,
        Box::new(SoftmaxRegression::new(N_PIXELS, N_CLASSES, 0.01)),
    )
    .with_query(
        QuerySpec::new("SELECT COUNT(*) FROM left l, right r WHERE predict(l) = predict(r)")
            .with_complaint(Complaint::scalar_eq(0.0)),
    )
}

/// DBLP pairs as in [`dblp_session`], complained about through labelled
/// predictions instead of a count: the first twelve true matches should
/// be predicted as matches (§6.4).
fn dblp_prediction_session() -> DebugSession {
    let w = DblpConfig::small().generate(5);
    let mut train = w.train.clone();
    flip_labels_where(&mut train, |_, _, y| y == 1, 0.5, |_| 0, 5);
    let mut db = Database::new();
    db.register("pairs", w.query_table());
    let complaints: Vec<Complaint> = (0..w.query.len())
        .filter(|&i| w.query.y(i) == 1)
        .take(12)
        .map(|i| Complaint::prediction_is("pairs", i, 1))
        .collect();
    DebugSession::new(db, train, Box::new(LogisticRegression::new(17, 0.01))).with_query(
        QuerySpec::new("SELECT COUNT(*) FROM pairs WHERE predict(*) = 1")
            .with_complaints(complaints),
    )
}

/// Removed ids of a `method` run removing `budget` records.
fn run_method(session: &DebugSession, method: Method, budget: usize) -> Vec<usize> {
    let report = session
        .run(method, &RunConfig::paper(budget))
        .expect("debug run");
    assert!(report.failure.is_none(), "{:?}", report.failure);
    report.removed
}

/// Removed ids of a Holistic run, plus the L-BFGS iteration counts of the
/// cold fit and of the warm refit after the first batch is gone.
fn run(session: &DebugSession, budget: usize) -> (Vec<usize>, usize, usize) {
    let removed = run_method(session, Method::Holistic, budget);
    let mut model = session.model.clone();
    let cold = train_lbfgs(model.as_mut(), &session.train, &session.train_cfg);
    let reduced = session.train.remove_ids(&removed[..10]);
    let warm = train_lbfgs(model.as_mut(), &reduced, &LbfgsConfig::warm());
    (removed, cold.iters, warm.iters)
}

#[test]
fn warm_retrains_of_the_logistic_sessions_need_no_lbfgs_iterations() {
    // Each retrain after the first starts with Newton steps from the
    // previous iteration's Hessian; they must reach `grad_tol` on their
    // own, leaving L-BFGS nothing but the check (one step alone leaves
    // Adult short of it, and warm L-BFGS then runs up to its cap).
    for (name, session, budget, golden) in [
        ("dblp", dblp_session(), 40, &GOLDEN_DBLP[..]),
        ("adult", adult_session(), 30, &GOLDEN_ADULT[..]),
    ] {
        let cfg = RunConfig {
            profile: true,
            ..RunConfig::paper(budget)
        };
        let report = session.run(Method::Holistic, &cfg).expect("debug run");
        assert_eq!(report.removed, golden, "{name}: profiled removals");
        let tree = report.profile.expect("profile requested");
        let iters: Vec<_> = tree
            .children
            .iter()
            .filter(|c| c.name == "iteration")
            .collect();
        assert_eq!(iters.len(), budget / 10);
        for (i, it) in iters.iter().enumerate().skip(1) {
            let train = it.find("train").expect("train span");
            let count = |key| train.counters.iter().find(|(k, _)| *k == key).map(|c| c.1);
            assert_eq!(count("lbfgs_iters"), Some(0), "{name} iteration {i}");
            assert!(count("newton_steps") >= Some(1), "{name} iteration {i}");
        }
    }
}

#[test]
fn twostep_is_a_function_of_its_seed() {
    // The join-partition repair draws classes from the seeded RNG while
    // walking each side's variables; two runs in one process (different
    // hash keys) must walk them in the same order.
    let session = digits_join_session();
    let first = run_method(&session, Method::TwoStep, 30);
    let second = run_method(&session, Method::TwoStep, 30);
    assert_eq!(first, second);
}

#[test]
fn twostep_dblp_removals_are_pinned() {
    let removed = run_method(&dblp_session(), Method::TwoStep, 40);
    assert_eq!(
        removed, GOLDEN_TWOSTEP_DBLP,
        "removed ids (in removal order)"
    );
}

#[test]
fn twostep_digits_join_removals_are_pinned() {
    let removed = run_method(&digits_join_session(), Method::TwoStep, 30);
    assert_eq!(
        removed, GOLDEN_TWOSTEP_DIGITS_JOIN,
        "removed ids (in removal order)"
    );
}

#[test]
fn holistic_adult_avg_group_by_removals_are_pinned() {
    let report = run_method(&adult_session(), Method::Holistic, 30);
    assert_eq!(report, GOLDEN_ADULT, "removed ids (in removal order)");
}

#[test]
fn holistic_digits_join_removals_are_pinned() {
    let report = run_method(&digits_join_session(), Method::Holistic, 30);
    assert_eq!(report, GOLDEN_DIGITS_JOIN, "removed ids (in removal order)");
}

#[test]
fn holistic_prediction_complaint_removals_are_pinned() {
    let report = run_method(&dblp_prediction_session(), Method::Holistic, 30);
    assert_eq!(
        report, GOLDEN_DBLP_PREDICTION,
        "removed ids (in removal order)"
    );
}

#[test]
fn loss_and_infloss_dblp_removals_are_pinned() {
    for (method, golden) in [
        (Method::Loss, GOLDEN_LOSS_DBLP),
        (Method::InfLoss, GOLDEN_INFLOSS_DBLP),
    ] {
        let removed = run_method(&dblp_session(), method, 40);
        assert_eq!(
            removed,
            golden,
            "{}: removed ids (in removal order)",
            method.name()
        );
    }
}

#[test]
fn holistic_dblp_removals_and_lbfgs_iterations_are_pinned() {
    let (removed, cold, warm) = run(&dblp_session(), 40);
    assert_eq!(removed, GOLDEN_DBLP, "removed ids (in removal order)");
    assert_eq!((cold, warm), GOLDEN_DBLP_ITERS, "L-BFGS (cold, warm) iters");
}

#[test]
fn holistic_digits_removals_and_lbfgs_iterations_are_pinned() {
    let (removed, cold, warm) = run(&digits_session(), 30);
    assert_eq!(removed, GOLDEN_DIGITS, "removed ids (in removal order)");
    assert_eq!(
        (cold, warm),
        GOLDEN_DIGITS_ITERS,
        "L-BFGS (cold, warm) iters"
    );
}

const GOLDEN_DBLP: [usize; 40] = [
    216, 73, 96, 188, 72, 202, 17, 33, 8, 190, 25, 217, 154, 257, 57, 126, 53, 16, 208, 50, 76,
    150, 270, 56, 207, 141, 240, 269, 121, 0, 256, 293, 231, 91, 183, 85, 254, 39, 280, 105,
];
const GOLDEN_DBLP_ITERS: (usize, usize) = (12, 10);
const GOLDEN_DIGITS: [usize; 30] = [
    188, 171, 226, 241, 120, 112, 95, 11, 234, 153, 49, 119, 98, 66, 178, 21, 44, 180, 212, 228,
    236, 137, 150, 15, 203, 211, 233, 12, 82, 29,
];
const GOLDEN_DIGITS_ITERS: (usize, usize) = (57, 44);
const GOLDEN_ADULT: [usize; 30] = [
    193, 244, 6, 55, 39, 57, 154, 18, 140, 156, 207, 240, 262, 265, 289, 82, 93, 259, 272, 38, 16,
    31, 181, 2, 83, 84, 92, 42, 34, 41,
];
const GOLDEN_DIGITS_JOIN: [usize; 30] = [
    143, 187, 160, 37, 181, 172, 96, 74, 79, 129, 109, 31, 84, 127, 148, 22, 41, 6, 195, 28, 123,
    82, 94, 92, 70, 29, 120, 86, 17, 170,
];
const GOLDEN_DBLP_PREDICTION: [usize; 30] = [
    216, 73, 96, 188, 202, 72, 33, 17, 8, 190, 25, 217, 154, 257, 126, 57, 53, 16, 208, 150, 76,
    50, 270, 56, 207, 141, 240, 269, 121, 0,
];
const GOLDEN_TWOSTEP_DBLP: [usize; 40] = [
    216, 73, 96, 72, 188, 202, 17, 33, 8, 190, 25, 217, 154, 257, 57, 126, 53, 16, 208, 270, 76,
    56, 150, 50, 207, 141, 0, 240, 269, 121, 293, 256, 231, 280, 91, 183, 85, 254, 39, 239,
];
const GOLDEN_TWOSTEP_DIGITS_JOIN: [usize; 30] = [
    119, 37, 172, 151, 17, 122, 177, 87, 148, 49, 195, 94, 82, 44, 71, 23, 127, 42, 6, 123, 181,
    84, 194, 129, 31, 101, 117, 34, 128, 143,
];
const GOLDEN_LOSS_DBLP: [usize; 40] = [
    124, 132, 275, 88, 134, 262, 297, 226, 3, 5, 161, 74, 198, 227, 45, 243, 12, 7, 90, 148, 282,
    261, 138, 264, 140, 219, 119, 143, 273, 75, 125, 281, 247, 83, 100, 81, 117, 112, 147, 31,
];
const GOLDEN_INFLOSS_DBLP: [usize; 40] = [
    125, 75, 140, 282, 264, 219, 273, 119, 143, 90, 138, 261, 148, 45, 12, 243, 7, 198, 227, 161,
    74, 3, 5, 297, 262, 226, 134, 275, 88, 132, 124, 281, 247, 83, 100, 117, 112, 81, 31, 21,
];
