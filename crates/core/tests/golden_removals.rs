//! Golden removal lists: the ML kernels under train and rank may be
//! reorganised for speed, but a Holistic run on a seeded fixture must keep
//! removing the same records in the same order, and L-BFGS must take the
//! same number of iterations to get there.
//!
//! The lists were captured at the commit *before* the batched kernels
//! (per-example `loss`/`grad`/`hvp` loops) and are asserted unchanged
//! after. Holistic only: TwoStep picks among ILP optima through `HashMap`
//! iteration order, so its removal order is not reproducible at a seed.

use rain_core::prelude::*;
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

/// Removed ids of a Holistic run, plus the L-BFGS iteration counts of the
/// cold fit and of the warm refit after the first batch is gone.
fn run(session: &DebugSession, budget: usize) -> (Vec<usize>, usize, usize) {
    let report = session
        .run(Method::Holistic, &RunConfig::paper(budget))
        .expect("holistic run");
    assert!(report.failure.is_none());
    let mut model = session.model.clone();
    let cold = train_lbfgs(model.as_mut(), &session.train, &session.train_cfg);
    let reduced = session.train.remove_ids(&report.removed[..10]);
    let warm = train_lbfgs(model.as_mut(), &reduced, &LbfgsConfig::warm());
    (report.removed, cold.iters, warm.iters)
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
