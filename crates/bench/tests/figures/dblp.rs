//! DBLP and Enron experiments: Figures 3, 4, 5 and Table 3 (§6.2).

use super::setups::{self, budget, run, Row, SEED};
use rain_core::prelude::*;
use rain_data::dblp::DblpConfig;
use rain_data::enron;
use rain_data::flip_labels_where;
use rain_model::{f1_score, train_lbfgs, LbfgsConfig, LogisticRegression};

const METHODS: [Method; 4] = [
    Method::Loss,
    Method::InfLoss,
    Method::TwoStep,
    Method::Holistic,
];

/// The methods of Figure 3 and Table 3: InfLoss (an inverse-HVP per
/// training record) runs at full size only.
fn methods(quick: bool) -> impl Iterator<Item = Method> {
    METHODS
        .into_iter()
        .filter(move |&m| !(quick && m == Method::InfLoss))
}

/// Figure 3: recall curves on DBLP for corruption rates 30/50/70% of the
/// match labels.
pub fn fig3(quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for rate in [0.3, 0.5, 0.7] {
        let (sess, truth) = setups::dblp(rate, quick);
        for method in methods(quick) {
            rows.push(run(&sess, rate, method, &truth, budget(&truth, quick, 30)));
        }
    }
    rows
}

/// Figure 4: `(corruption, F1)` of the trained model on the querying set.
pub fn fig4(quick: bool) -> Vec<(f64, f64)> {
    let cfg = if quick {
        DblpConfig::small()
    } else {
        DblpConfig::default()
    };
    let w = cfg.generate(SEED);
    (0..=9)
        .map(|p| {
            let pct = p as f64 / 10.0;
            let mut train = w.train.clone();
            flip_labels_where(&mut train, |_, _, y| y == 1, pct, |_| 0, SEED);
            let mut m = LogisticRegression::new(17, 0.01);
            train_lbfgs(&mut m, &train, &LbfgsConfig::default());
            (pct, f1_score(&m, &w.query))
        })
        .collect()
}

/// Figure 5: per-iteration runtime breakdown (Train / Encode / Rank,
/// [`Row::timings`]) on DBLP at 50% corruption.
pub fn fig5(quick: bool) -> Vec<Row> {
    let (sess, truth) = setups::dblp(0.5, quick);
    METHODS
        .into_iter()
        .map(|method| {
            // A few iterations are enough to measure steady-state timing.
            let iters = if method == Method::InfLoss && quick {
                1
            } else {
                3
            };
            run(&sess, 0.5, method, &truth, 10 * iters)
        })
        .collect()
}

/// Table 3: AUCCR on DBLP (medium corruption) and Enron with the
/// `'%http%'` and `'%deal%'` rule corruptions. InfLoss runs on Enron
/// with at most 60 removals (the paper reports it took 2 days).
pub fn tab3(quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    let (sess, truth) = setups::dblp(0.5, quick);
    let budget_dblp = budget(&truth, quick, 30);
    for method in methods(quick) {
        rows.push(run(&sess, "DBLP", method, &truth, budget_dblp));
    }
    for (label, word) in [
        ("ENRON '%http%'", enron::HTTP),
        ("ENRON '%deal%'", enron::DEAL),
    ] {
        let (sess, truth) = setups::enron(word, quick);
        for method in methods(quick) {
            let cap = if method == Method::InfLoss {
                60
            } else {
                truth.len()
            };
            let budget = budget(&truth, quick, 20).min(cap);
            rows.push(run(&sess, label, method, &truth, budget));
        }
    }
    rows
}
