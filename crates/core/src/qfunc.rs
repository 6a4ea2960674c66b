//! Encoding complaints as differentiable functions `q(θ)` (paper §5.3.2)
//! and chaining their gradients back to model parameters.
//!
//! For Holistic, each complaint becomes a term over the *relaxed*
//! provenance of its target cell:
//!
//! - value complaint `t[a] = X`  →  `(rq(θ) − X)²`
//! - tuple complaint             →  `rq(θ)²`  (membership should be 0)
//! - inequality complaints       →  treated as the equality while violated,
//!   ignored once satisfied (the train–rank–fix scheme of §5.3.2)
//! - prediction complaint        →  `(p_class(x) − 1)²`
//!
//! Multiple complaints (possibly across queries) sum their terms. The
//! gradient flows  `∂q/∂p[var][class]`  (reverse-mode over the provenance
//! DAG, from `rain-sql`)  →  `∇θ p_class(x_var)`  (from `rain-model`)  →
//! `∇θ q`, which is what the influence engine inverts.
//!
//! The encode path allocates per query, not per variable: the
//! probabilities and their gradient are dense `n_vars × n_classes`
//! buffers ([`Probs`], [`ProbGrad`]), written in place.
//! Feature rows come through one [`FeatureRows`] per pass, which looks
//! each base table up in the catalog once. The result is bit-identical
//! to a sparse per-variable encoding: every gradient slot accumulates its
//! terms in the same order, and variables are chained through the model
//! in ascending id order with all-zero rows skipped.

use crate::complaint::{Complaint, ValueOp};
use rain_model::Classifier;
use rain_sql::{CellProv, Database, FeatureRows, ProbGrad, Probs, QueryOutput, VarId};

/// Class probabilities for every prediction variable of a query output:
/// one forward pass per variable, straight into its row of one buffer.
pub fn probs_for(db: &Database, out: &QueryOutput, model: &dyn Classifier) -> Probs {
    let c = model.n_classes();
    let mut p = vec![0.0; out.predvars.len() * c];
    let mut x = FeatureRows::new(db, &out.predvars);
    for (var, row) in p.chunks_exact_mut(c).enumerate() {
        model.predict_proba_into(x.row(var as VarId), row);
    }
    Probs::new(c, p)
}

/// Map a gradient over variable probabilities into parameter space:
/// `∇θ q = Σ_{var,class} (∂q/∂p[var][class]) · ∇θ p_class(x_var)`.
pub fn prob_grad_to_theta(
    db: &Database,
    out: &QueryOutput,
    model: &dyn Classifier,
    pg: &ProbGrad,
) -> Vec<f64> {
    let mut grad = vec![0.0; model.n_params()];
    let mut x = FeatureRows::new(db, &out.predvars);
    // Ascending variable order fixes the rounding of this sum; rows of
    // variables `q` does not depend on are all zero and skipped.
    for var in 0..pg.n_vars() as VarId {
        let gs = pg.row(var);
        if gs.iter().all(|&g| g == 0.0) {
            continue;
        }
        // One forward + one backward pass per variable, whatever the
        // number of classes carrying weight.
        model.grad_proba_weighted(x.row(var), gs, &mut grad);
    }
    grad
}

/// The value and probability-space gradient of the combined `q` for one
/// query's complaints. Satisfied inequality complaints contribute nothing.
pub fn q_value_and_prob_grad(
    out: &QueryOutput,
    complaints: &[Complaint],
    probs: &Probs,
) -> (f64, ProbGrad) {
    let mut value = 0.0;
    let mut grad = ProbGrad::zeros_like(probs);
    for c in complaints {
        match c {
            Complaint::Value {
                row,
                agg,
                op,
                target,
            } => {
                let Some(cell) = cell_of(out, *row, *agg) else {
                    continue;
                };
                let active = match op {
                    ValueOp::Eq => true,
                    // Treat as equality while violated (§5.3.2); the
                    // *concrete* value decides violation.
                    ValueOp::Le | ValueOp::Ge => !c.satisfied(out),
                };
                if active {
                    // The residual comes from the *concrete* output value
                    // the user complained about, not the relaxed one: an
                    // under-confident model can place the relaxed value on
                    // the other side of the target, and a purely-relaxed
                    // residual would then push the fix in the wrong
                    // direction. The relaxed polynomial still supplies the
                    // gradient direction through the probabilities.
                    let concrete = concrete_cell(out, *row, *agg)
                        .unwrap_or_else(|| cell.eval_discrete(out.predvars.preds()));
                    value += (concrete - target) * (concrete - target);
                    cell.accumulate_grad(probs, 2.0 * (concrete - target), &mut grad);
                }
            }
            Complaint::TupleDelete { row } => {
                let Some(prov) = out.row_prov.get(*row) else {
                    continue;
                };
                let v = prov.eval_relaxed(probs);
                value += v * v;
                prov.accumulate_grad(probs, 2.0 * v, &mut grad);
            }
            Complaint::JoinDelete { left, right } => {
                let (Some(lv), Some(rv)) = (
                    out.predvars.lookup(&left.0, left.1),
                    out.predvars.lookup(&right.0, right.1),
                ) else {
                    continue;
                };
                // Membership formula of the pair: predict(l) = predict(r).
                let prov = rain_sql::BoolProv::PredEq {
                    left: lv,
                    right: rv,
                };
                let v = prov.eval_relaxed(probs);
                value += v * v;
                prov.accumulate_grad(probs, 2.0 * v, &mut grad);
            }
            Complaint::PredictionIs { table, row, class } => {
                let Some(var) = out.predvars.lookup(table, *row) else {
                    continue;
                };
                let p = probs.row(var)[*class];
                value += (p - 1.0) * (p - 1.0);
                grad.row_mut(var)[*class] += 2.0 * (p - 1.0);
            }
        }
    }
    (value, grad)
}

/// The provenance cell targeted by a value complaint.
pub fn cell_of(out: &QueryOutput, row: usize, agg: usize) -> Option<&CellProv> {
    out.agg_cells.get(row).and_then(|cells| cells.get(agg))
}

/// The concrete numeric value of an aggregate output cell.
pub fn concrete_cell(out: &QueryOutput, row: usize, agg: usize) -> Option<f64> {
    let col = out.n_key_cols + agg;
    if row >= out.table.n_rows() || col >= out.table.schema().len() {
        return None;
    }
    match out.table.value(row, col) {
        rain_sql::Value::Int(v) => Some(v as f64),
        rain_sql::Value::Float(v) => Some(v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complaint::Complaint;
    use rain_linalg::{vecops, Matrix};
    use rain_model::{Classifier, LogisticRegression};
    use rain_sql::table::{ColType, Column, Schema, Table};
    use rain_sql::{run_query, ExecOptions};

    fn setup() -> (Database, LogisticRegression) {
        let t = Table::from_columns(
            Schema::new(&[("id", ColType::Int)]),
            vec![Column::Int(vec![0, 1, 2, 3])],
        )
        .with_features(Matrix::from_rows(&[&[2.0], &[0.5], &[-0.5], &[-2.0]]));
        let mut db = Database::new();
        db.register("t", t);
        let mut m = LogisticRegression::new(1, 0.0);
        m.set_params(&[1.0, 0.0]); // soft sigmoid: probabilities in (0,1)
        (db, m)
    }

    #[test]
    fn probs_align_with_registry() {
        let (db, m) = setup();
        let out = run_query(
            &db,
            &m,
            "SELECT COUNT(*) FROM t WHERE predict(*) = 1",
            ExecOptions::debug(),
        )
        .unwrap();
        let probs = probs_for(&db, &out, &m);
        assert_eq!(probs.n_vars(), 4);
        for (v, info) in out.predvars.infos().iter().enumerate() {
            let x = db
                .table(&info.table)
                .unwrap()
                .feature_row(info.row)
                .unwrap()
                .to_vec();
            assert_eq!(probs.row(v as VarId), m.predict_proba(&x));
        }
    }

    #[test]
    fn q_gradient_matches_finite_differences_through_model() {
        // The value-complaint gradient is that of the surrogate
        // q̃(θ) = 2·(concrete − X)·v_relaxed(θ), where the concrete
        // residual is held fixed for the iteration; check ∇θ against
        // central differences of v_relaxed through the model.
        let (db, mut m) = setup();
        let sql = "SELECT COUNT(*) FROM t WHERE predict(*) = 1";
        let out = run_query(&db, &m, sql, ExecOptions::debug()).unwrap();
        let complaints = vec![Complaint::scalar_eq(3.0)];
        let concrete = concrete_cell(&out, 0, 0).unwrap();
        let target = 3.0;

        let v_at = |model: &LogisticRegression| -> f64 {
            let probs = probs_for(&db, &out, model);
            cell_of(&out, 0, 0).unwrap().eval_relaxed(&probs)
        };

        let probs = probs_for(&db, &out, &m);
        let (_, pg) = q_value_and_prob_grad(&out, &complaints, &probs);
        let grad = prob_grad_to_theta(&db, &out, &m, &pg);

        let theta = m.params().to_vec();
        let eps = 1e-6;
        for j in 0..theta.len() {
            let mut tp = theta.clone();
            tp[j] += eps;
            m.set_params(&tp);
            let up = v_at(&m);
            tp[j] -= 2.0 * eps;
            m.set_params(&tp);
            let dn = v_at(&m);
            m.set_params(&theta);
            let fd = 2.0 * (concrete - target) * (up - dn) / (2.0 * eps);
            assert!(
                (fd - grad[j]).abs() < 1e-6,
                "param {j}: fd {fd} vs {}",
                grad[j]
            );
        }
    }

    #[test]
    fn satisfied_inequality_contributes_nothing() {
        let (db, m) = setup();
        let out = run_query(
            &db,
            &m,
            "SELECT COUNT(*) FROM t WHERE predict(*) = 1",
            ExecOptions::debug(),
        )
        .unwrap();
        // Concrete count is 2; "should be ≤ 3" is satisfied → inactive.
        let probs = probs_for(&db, &out, &m);
        let (v, g) = q_value_and_prob_grad(
            &out,
            &[Complaint::Value {
                row: 0,
                agg: 0,
                op: ValueOp::Le,
                target: 3.0,
            }],
            &probs,
        );
        let is_zero = |g: &ProbGrad| (0..g.n_vars() as VarId).all(|v| g.row(v) == [0.0, 0.0]);
        assert_eq!(v, 0.0);
        assert!(is_zero(&g));
        // "should be ≥ 3" is violated → active, positive value.
        let (v, g) = q_value_and_prob_grad(
            &out,
            &[Complaint::Value {
                row: 0,
                agg: 0,
                op: ValueOp::Ge,
                target: 3.0,
            }],
            &probs,
        );
        assert!(v > 0.0);
        assert!(!is_zero(&g));
    }

    #[test]
    fn multiple_complaints_sum() {
        let (db, m) = setup();
        let out = run_query(
            &db,
            &m,
            "SELECT COUNT(*) FROM t WHERE predict(*) = 1",
            ExecOptions::debug(),
        )
        .unwrap();
        let probs = probs_for(&db, &out, &m);
        let (v1, _) = q_value_and_prob_grad(&out, &[Complaint::scalar_eq(3.0)], &probs);
        let (v2, _) = q_value_and_prob_grad(&out, &[Complaint::prediction_is("t", 1, 0)], &probs);
        let (sum, _) = q_value_and_prob_grad(
            &out,
            &[
                Complaint::scalar_eq(3.0),
                Complaint::prediction_is("t", 1, 0),
            ],
            &probs,
        );
        assert!((sum - (v1 + v2)).abs() < 1e-12);
    }

    #[test]
    fn tuple_complaint_gradient_pushes_membership_down() {
        let (db, m) = setup();
        let out = run_query(
            &db,
            &m,
            "SELECT id FROM t WHERE predict(*) = 1",
            ExecOptions::debug(),
        )
        .unwrap();
        assert!(out.table.n_rows() >= 1);
        let probs = probs_for(&db, &out, &m);
        let (v, pg) = q_value_and_prob_grad(&out, &[Complaint::tuple_delete(0)], &probs);
        assert!(v > 0.0);
        let grad = prob_grad_to_theta(&db, &out, &m, &pg);
        assert!(vecops::norm2(&grad) > 0.0);
    }
}
