//! Appendix D: debugging a neural network (Figures 11 and 12).
//!
//! The paper uses a small CNN; a one-hidden-layer ReLU MLP stands in —
//! also non-convex, exercising the identical R-op + damped-CG code path.

use super::setups::{budget, digits_q5, run, Row, SEED};
use rain_core::prelude::*;
use rain_data::digits::{N_CLASSES, N_PIXELS};
use rain_influence::InfluenceConfig;
use rain_model::Mlp;

/// Figures 11 & 12: AUCCR and per-iteration runtimes ([`Row::timings`])
/// for the neural network vs logistic (softmax) regression, on the Q5
/// count complaint. A row's setting is `"{logistic|mlp} {rate}"`.
pub fn figd(quick: bool) -> Vec<Row> {
    let rates: &[f64] = if quick { &[0.5] } else { &[0.3, 0.5, 0.7] };
    let hidden = if quick { 12 } else { 24 };
    let mut rows = Vec::new();
    for &rate in rates {
        // The Q5 session trains the softmax model; the MLP replaces it.
        let (mut sess, truth, _, _) = digits_q5(rate, quick);
        for name in ["logistic", "mlp"] {
            if name == "mlp" {
                sess.model = Box::new(Mlp::new(N_PIXELS, hidden, N_CLASSES, 0.01, SEED));
                // Damping keeps CG well-posed on the indefinite MLP Hessian.
                sess.influence = InfluenceConfig::for_nonconvex();
            }
            for method in [Method::Loss, Method::TwoStep, Method::Holistic] {
                let setting = format!("{name} {rate}");
                rows.push(run(
                    &sess,
                    setting,
                    method,
                    &truth,
                    budget(&truth, quick, 20),
                ));
            }
        }
    }
    rows
}
