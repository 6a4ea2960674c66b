//! L-BFGS training (the paper trains all models with L-BFGS, §6.1.6).
//!
//! A standard limited-memory BFGS with two-loop recursion and Armijo
//! backtracking line search. Curvature pairs are only stored when
//! `sᵀy > 0`, which keeps the implicit inverse-Hessian approximation
//! positive definite even on the non-convex MLP objective.
//!
//! Every evaluation is one fused [`Classifier::loss_grad`] pass: each
//! line-search trial gets the loss it needs for the Armijo test and, when
//! accepted (nearly always the first trial), has already paid for the
//! gradient the next iteration starts from.

use crate::dataset::Dataset;
use crate::model::Classifier;
use rain_linalg::{vecops, Matrix};
use std::collections::VecDeque;

/// Configuration for [`train_lbfgs`].
#[derive(Debug, Clone)]
pub struct LbfgsConfig {
    /// Maximum outer iterations.
    pub max_iters: usize,
    /// Stop when the gradient infinity-norm drops below this.
    pub grad_tol: f64,
    /// History size `m` of the limited memory.
    pub memory: usize,
    /// Armijo sufficient-decrease constant.
    pub armijo_c: f64,
    /// Line-search backtracking factor.
    pub backtrack: f64,
    /// Maximum backtracking steps per iteration.
    pub max_line_search: usize,
}

impl Default for LbfgsConfig {
    fn default() -> Self {
        LbfgsConfig {
            max_iters: 200,
            grad_tol: 1e-6,
            memory: 10,
            armijo_c: 1e-4,
            backtrack: 0.5,
            max_line_search: 30,
        }
    }
}

/// Iteration cap of a warm restart: [`LbfgsConfig::warm`], and the cap
/// the debug driver puts on every retrain after its first.
pub const WARM_MAX_ITERS: usize = 60;

/// Most Newton steps [`retrain_newton`] takes before L-BFGS carries on.
/// On the paper's logistic settings (2-core host) one step from the
/// downdated Hessian lands DBLP inside the default `grad_tol`, and Adult
/// needs two (one leaves ‖g‖∞ ≈ 1e-5, and warm L-BFGS then takes 36–60
/// iterations to finish); a third is headroom.
pub const NEWTON_MAX_STEPS: usize = 3;

impl LbfgsConfig {
    /// Fewer iterations; used for warm restarts inside train–rank–fix.
    pub fn warm() -> Self {
        LbfgsConfig {
            max_iters: WARM_MAX_ITERS,
            ..Default::default()
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// L-BFGS iterations actually performed.
    pub iters: usize,
    /// Accepted Newton steps before L-BFGS ([`retrain_newton`]; 0 for
    /// [`train_lbfgs`]).
    pub newton_steps: usize,
    /// [`Classifier::loss_grad`] evaluations: one at the starting point
    /// plus one per Newton trial and per line-search trial.
    pub evals: usize,
    /// Final full-objective value.
    pub final_loss: f64,
    /// Final gradient infinity norm.
    pub grad_norm: f64,
    /// True when `grad_tol` was reached before `max_iters`.
    pub converged: bool,
}

/// Minimize `model.loss(data)` in place with L-BFGS, starting from the
/// model's current parameters (so retraining is warm-started for free).
pub fn train_lbfgs(model: &mut dyn Classifier, data: &Dataset, cfg: &LbfgsConfig) -> TrainReport {
    let mut span = rain_obs::Span::enter("train");
    let start = model.loss_grad(data);
    let report = minimize(model, data, cfg, start, 0, 1);
    record(&mut span, &report);
    report
}

/// Retrain warm after the rows `removed` left the training set `data`,
/// given `hessian`: the dense Hessian ([`Classifier::hessian`]) of the
/// objective on `data` and `removed` together, at the current parameters.
///
/// The removed rows' curvature is subtracted and the mean renormalised to
/// the rows that remain, which is the Hessian on `data` at the current
/// parameters. Newton steps `θ ← θ − H⁻¹∇L` follow, each after the first
/// from a fresh Hessian, until `cfg.grad_tol` or [`NEWTON_MAX_STEPS`]; a
/// step that does not lower the loss is rejected and ends them, as does a
/// Hessian that is not positive definite. L-BFGS then starts where they
/// stopped, exactly as [`train_lbfgs`] would: its first check of
/// `grad_tol` is on the last accepted evaluation, and it carries on when
/// the gradient is above it. Opens the same `train` span, whose
/// `newton_steps` counts the accepted steps.
pub fn retrain_newton(
    model: &mut dyn Classifier,
    data: &Dataset,
    removed: &Dataset,
    hessian: &Matrix,
    cfg: &LbfgsConfig,
) -> TrainReport {
    let mut span = rain_obs::Span::enter("train");
    let mut theta = model.params().to_vec();
    let (mut loss, mut grad) = model.loss_grad(data);
    let mut evals = 1;
    let mut steps = 0;
    let mut h = downdate(model, hessian, data.len(), removed);
    for _ in 0..NEWTON_MAX_STEPS {
        if data.is_empty() || vecops::norm_inf(&grad) < cfg.grad_tol {
            break;
        }
        if steps > 0 {
            h = model.hessian(data);
        }
        let Some(step) = h.solve_spd(&grad) else {
            break;
        };
        let trial = vecops::sub(&theta, &step);
        model.set_params(&trial);
        let (trial_loss, trial_grad) = model.loss_grad(data);
        evals += 1;
        if trial_loss.is_nan() || trial_loss >= loss {
            model.set_params(&theta);
            break;
        }
        (theta, loss, grad) = (trial, trial_loss, trial_grad);
        steps += 1;
    }
    let report = minimize(model, data, cfg, (loss, grad), steps, evals);
    record(&mut span, &report);
    report
}

/// `hessian` (on `kept` rows plus `removed`) minus the removed rows'
/// terms, as the mean over the `kept` rows. With `H = S/n + 2λI` over `n`
/// rows and `H_R = S_R/m + 2λI` over the `m` removed ones, the Hessian on
/// the `n − m` that remain is `(n·H − m·H_R)/(n − m)`: the `2λI` terms
/// cancel.
fn downdate(model: &dyn Classifier, hessian: &Matrix, kept: usize, removed: &Dataset) -> Matrix {
    let m = removed.len();
    if m == 0 || kept == 0 {
        return hessian.clone();
    }
    let n = (kept + m) as f64;
    let h_removed = model.hessian(removed);
    let mut h = hessian.clone();
    for (hi, ri) in h.as_mut_slice().iter_mut().zip(h_removed.as_slice()) {
        *hi = (n * *hi - m as f64 * ri) / kept as f64;
    }
    h
}

/// The `train` span's counters.
fn record(span: &mut rain_obs::Span, report: &TrainReport) {
    span.add("newton_steps", report.newton_steps as u64);
    span.add("lbfgs_iters", report.iters as u64);
    span.add("loss_grad_evals", report.evals as u64);
}

/// L-BFGS from the model's current parameters, whose objective and
/// gradient are `start`; `newton_steps` and `evals` carry what came before.
fn minimize(
    model: &mut dyn Classifier,
    data: &Dataset,
    cfg: &LbfgsConfig,
    start: (f64, Vec<f64>),
    newton_steps: usize,
    mut evals: usize,
) -> TrainReport {
    let n = model.n_params();
    let mut theta = model.params().to_vec();
    let (mut loss, mut grad) = start;
    let mut s_hist: VecDeque<Vec<f64>> = VecDeque::with_capacity(cfg.memory);
    let mut y_hist: VecDeque<Vec<f64>> = VecDeque::with_capacity(cfg.memory);
    let mut rho_hist: VecDeque<f64> = VecDeque::with_capacity(cfg.memory);
    let mut iters = 0;

    for _ in 0..cfg.max_iters {
        let gnorm = vecops::norm_inf(&grad);
        if gnorm < cfg.grad_tol {
            return TrainReport {
                iters,
                newton_steps,
                evals,
                final_loss: loss,
                grad_norm: gnorm,
                converged: true,
            };
        }
        iters += 1;

        // Two-loop recursion for the search direction d = -H_k⁻¹ g.
        let mut q = grad.clone();
        let k = s_hist.len();
        let mut alphas = vec![0.0; k];
        for i in (0..k).rev() {
            let a = rho_hist[i] * vecops::dot(&s_hist[i], &q);
            alphas[i] = a;
            vecops::axpy(-a, &y_hist[i], &mut q);
        }
        // Initial scaling γ = sᵀy / yᵀy of the most recent pair.
        if let (Some(s), Some(y)) = (s_hist.back(), y_hist.back()) {
            let gamma = vecops::dot(s, y) / vecops::dot(y, y).max(1e-30);
            vecops::scale(&mut q, gamma);
        }
        for i in 0..k {
            let beta = rho_hist[i] * vecops::dot(&y_hist[i], &q);
            vecops::axpy(alphas[i] - beta, &s_hist[i], &mut q);
        }
        let mut dir = q;
        vecops::scale(&mut dir, -1.0);

        // Guard against ascent directions (possible on non-convex losses).
        let mut slope = vecops::dot(&grad, &dir);
        if slope >= 0.0 {
            dir = grad.iter().map(|g| -g).collect();
            slope = vecops::dot(&grad, &dir);
            s_hist.clear();
            y_hist.clear();
            rho_hist.clear();
        }

        // Armijo backtracking; the accepted trial's evaluation carries the
        // next iterate's loss and gradient.
        let mut step = 1.0;
        let mut new_theta = vec![0.0; n];
        let mut accepted = None;
        for _ in 0..cfg.max_line_search {
            for ((nt, t), d) in new_theta.iter_mut().zip(&theta).zip(&dir) {
                *nt = t + step * d;
            }
            model.set_params(&new_theta);
            let (trial_loss, trial_grad) = model.loss_grad(data);
            evals += 1;
            if trial_loss <= loss + cfg.armijo_c * step * slope {
                accepted = Some((trial_loss, trial_grad));
                break;
            }
            step *= cfg.backtrack;
        }
        let Some((new_loss, new_grad)) = accepted else {
            // Line search failed; restore and stop.
            model.set_params(&theta);
            return TrainReport {
                iters,
                newton_steps,
                evals,
                final_loss: loss,
                grad_norm: vecops::norm_inf(&grad),
                converged: false,
            };
        };

        let s = vecops::sub(&new_theta, &theta);
        let y = vecops::sub(&new_grad, &grad);
        let sy = vecops::dot(&s, &y);
        if sy > 1e-10 {
            if s_hist.len() == cfg.memory {
                s_hist.pop_front();
                y_hist.pop_front();
                rho_hist.pop_front();
            }
            rho_hist.push_back(1.0 / sy);
            s_hist.push_back(s);
            y_hist.push_back(y);
        }
        theta = new_theta;
        loss = new_loss;
        grad = new_grad;
    }

    let gnorm = vecops::norm_inf(&grad);
    TrainReport {
        iters,
        newton_steps,
        evals,
        final_loss: loss,
        grad_norm: gnorm,
        converged: gnorm < cfg.grad_tol,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logistic::LogisticRegression;
    use crate::mlp::Mlp;
    use crate::softmax::SoftmaxRegression;
    use rain_linalg::{Matrix, RainRng};

    fn blobs(n: usize, classes: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = RainRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let y = rng.below(classes);
            let mut x = rng.normal_vec(dim, 0.6);
            x[y % dim] += 2.5;
            rows.push(x);
            labels.push(y);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Dataset::new(Matrix::from_rows(&refs), labels, classes)
    }

    fn accuracy_of(model: &dyn Classifier, data: &Dataset) -> f64 {
        let correct = (0..data.len())
            .filter(|&i| model.predict(data.x(i)) == data.y(i))
            .count();
        correct as f64 / data.len() as f64
    }

    #[test]
    fn lbfgs_fits_logistic_to_near_optimality() {
        let data = blobs(200, 2, 4, 1);
        let mut m = LogisticRegression::new(4, 0.01);
        let report = train_lbfgs(&mut m, &data, &LbfgsConfig::default());
        assert!(report.converged, "gnorm {}", report.grad_norm);
        assert!(accuracy_of(&m, &data) > 0.95);
        // One fused evaluation at the start and one per line-search trial:
        // at least one per iteration, and on this well-conditioned problem
        // first trials are nearly always accepted.
        assert!(report.evals > report.iters && report.evals <= 2 * report.iters);
    }

    #[test]
    fn lbfgs_fits_softmax() {
        let data = blobs(300, 4, 6, 2);
        let mut m = SoftmaxRegression::new(6, 4, 0.01);
        let report = train_lbfgs(&mut m, &data, &LbfgsConfig::default());
        assert!(report.converged);
        assert!(accuracy_of(&m, &data) > 0.9);
    }

    #[test]
    fn lbfgs_fits_mlp() {
        let data = blobs(300, 3, 5, 3);
        let mut m = Mlp::new(5, 12, 3, 0.005, 3);
        let report = train_lbfgs(
            &mut m,
            &data,
            &LbfgsConfig {
                max_iters: 400,
                ..Default::default()
            },
        );
        assert!(report.final_loss < 0.5, "loss {}", report.final_loss);
        assert!(accuracy_of(&m, &data) > 0.9);
    }

    #[test]
    fn warm_restart_converges_quickly() {
        let data = blobs(200, 2, 4, 4);
        let mut m = LogisticRegression::new(4, 0.01);
        let cold = train_lbfgs(&mut m, &data, &LbfgsConfig::default());
        // Remove a handful of records and retrain warm.
        let smaller = data.remove_ids(&[0, 1, 2, 3, 4]);
        let warm = train_lbfgs(&mut m, &smaller, &LbfgsConfig::warm());
        assert!(
            warm.iters <= cold.iters,
            "warm {} vs cold {}",
            warm.iters,
            cold.iters
        );
        assert!(warm.converged);
    }

    #[test]
    fn newton_retrain_from_the_downdated_hessian_needs_no_lbfgs() {
        let data = blobs(200, 2, 4, 4);
        let mut m = LogisticRegression::new(4, 0.01);
        train_lbfgs(&mut m, &data, &LbfgsConfig::default());
        let h = m.hessian(&data);
        let removed = data.select(&[0, 3, 5, 8, 13]);
        let smaller = data.remove_ids(removed.ids());
        // The downdate is the Hessian on the rows that remain.
        let down = downdate(&m, &h, smaller.len(), &removed);
        let fresh = m.hessian(&smaller);
        assert!(vecops::approx_eq(down.as_slice(), fresh.as_slice(), 1e-12));
        let mut lbfgs = m.clone();
        train_lbfgs(&mut lbfgs, &smaller, &LbfgsConfig::warm());
        let report = retrain_newton(&mut m, &smaller, &removed, &h, &LbfgsConfig::warm());
        assert!(report.converged, "gnorm {}", report.grad_norm);
        assert_eq!(report.iters, 0, "L-BFGS only confirms");
        assert!((1..=NEWTON_MAX_STEPS).contains(&report.newton_steps));
        assert_eq!(report.evals, 1 + report.newton_steps);
        // The same optimum, at least as closely: L-BFGS stops at ‖g‖∞ <
        // 1e-6, which on curvature ≥ 2λ = 0.02 leaves θ within 5e-5.
        assert!(vecops::approx_eq(m.params(), lbfgs.params(), 1e-4));
        assert!(m.loss(&smaller) <= lbfgs.loss(&smaller));
    }

    #[test]
    fn newton_retrain_hands_over_to_lbfgs_when_a_step_cannot_be_taken() {
        let data = blobs(200, 2, 4, 5);
        let removed = data.select(&[1, 2]);
        let smaller = data.remove_ids(removed.ids());
        let p = 5;
        let mut negated = Matrix::identity(p);
        vecops::scale(negated.as_mut_slice(), -1.0);
        let mut tiny = Matrix::identity(p);
        vecops::scale(tiny.as_mut_slice(), 1e-9);
        // Not positive definite: no factorization. Far too flat: a step
        // that overshoots and raises the loss, rejected.
        for h in [negated, tiny] {
            let mut m = LogisticRegression::new(4, 0.01);
            let report = retrain_newton(&mut m, &smaller, &removed, &h, &LbfgsConfig::default());
            assert_eq!(report.newton_steps, 0);
            assert!(report.converged && report.iters > 0);
        }
    }

    #[test]
    fn gradient_norm_shrinks_at_optimum() {
        let data = blobs(100, 2, 3, 5);
        let mut m = LogisticRegression::new(3, 0.05);
        let report = train_lbfgs(&mut m, &data, &LbfgsConfig::default());
        assert!(report.grad_norm < 1e-6);
        // First-order optimality: loss increases in any direction.
        let base = m.loss(&data);
        let mut rng = RainRng::seed_from_u64(6);
        for _ in 0..5 {
            let dir = rng.normal_vec(m.n_params(), 1e-3);
            let mut probe = m.clone();
            let p = vecops::add(m.params(), &dir);
            probe.set_params(&p);
            assert!(probe.loss(&data) >= base - 1e-9);
        }
    }

    #[test]
    fn handles_empty_dataset_gracefully() {
        let data = blobs(10, 2, 3, 7).select(&[]);
        let mut m = LogisticRegression::new(3, 0.1);
        let report = train_lbfgs(&mut m, &data, &LbfgsConfig::default());
        // Loss is pure regularization; optimum is θ = 0.
        assert!(report.converged);
        assert!(vecops::norm_inf(m.params()) < 1e-6);
    }
}
