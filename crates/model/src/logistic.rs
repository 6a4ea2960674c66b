//! Binary logistic regression with closed-form derivatives.
//!
//! Parameters are `[w₀ … w_{d-1}, b]` (weights then intercept). With
//! `x̃ = [x, 1]` and `p = σ(θ·x̃)`:
//!
//! - loss      `ℓ = -(y ln p + (1-y) ln(1-p))`
//! - gradient  `∇ℓ = (p - y)·x̃`
//! - HVP       `H·v = (1/n) Σ pᵢ(1-pᵢ)(x̃ᵢ·v)·x̃ᵢ + 2λv`
//! - Hessian   `H = (1/n) Σ pᵢ(1-pᵢ)·x̃ᵢx̃ᵢᵀ + 2λI`
//! - `∇ p₁ = p(1-p)·x̃`, `∇ p₀ = -∇ p₁`
//!
//! The paper runs all main-body experiments on this model (§6.1.6).
//!
//! Loss+gradient is one pass (one sigmoid per record, gradient accumulated
//! straight into the output); the HVP operator computes the curvature
//! weights `pᵢ(1-pᵢ)` once and each application is a dot and an axpy per
//! record, with no exponentials.

use crate::dataset::Dataset;
use crate::model::{Classifier, HvpOp};
use rain_linalg::stats::sigmoid;
use rain_linalg::{vecops, Matrix};

/// Rows per block of [`LogisticRegression`]'s Hessian kernel: long enough
/// that a dot over a block column runs at vector speed, short enough that
/// a block's column-major copy (18 columns on DBLP: 18 KiB) stays in L1.
const HESSIAN_BLOCK: usize = 128;

/// Binary logistic-regression classifier (classes `0` and `1`).
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    /// `[w, b]`, length `dim + 1`.
    params: Vec<f64>,
    dim: usize,
    l2: f64,
    use_bias: bool,
}

impl LogisticRegression {
    /// Zero-initialized model for `dim` features with L2 strength `l2`.
    pub fn new(dim: usize, l2: f64) -> Self {
        assert!(l2 >= 0.0, "l2 must be non-negative");
        LogisticRegression {
            params: vec![0.0; dim + 1],
            dim,
            l2,
            use_bias: true,
        }
    }

    /// A model without an intercept term (`p = σ(w·x)`); used by settings
    /// that rely on exact feature-subspace orthogonality (appendix A/C
    /// constructions), where a shared bias would couple all records. The
    /// bias parameter slot remains in the layout but is pinned to 0.
    pub fn without_bias(dim: usize, l2: f64) -> Self {
        assert!(l2 >= 0.0, "l2 must be non-negative");
        LogisticRegression {
            params: vec![0.0; dim + 1],
            dim,
            l2,
            use_bias: false,
        }
    }

    /// The margin `θ·x̃ = w·x + b`.
    #[inline]
    pub fn margin(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dim);
        self.dot_ext(&self.params, x)
    }

    /// Probability of class 1.
    #[inline]
    pub fn proba1(&self, x: &[f64]) -> f64 {
        sigmoid(self.margin(x))
    }

    /// Clamp a probability away from 0/1 so log-losses stay finite.
    #[inline]
    fn clamp_p(p: f64) -> f64 {
        p.clamp(1e-12, 1.0 - 1e-12)
    }

    /// `-ln P(y | x)` given `p = P(1 | x)`.
    #[inline]
    fn nll(p: f64, y: usize) -> f64 {
        let p = Self::clamp_p(p);
        if y == 1 {
            -p.ln()
        } else {
            -(1.0 - p).ln()
        }
    }

    /// `v·x̃` for a parameter-shaped `v` (the bias slot counts only when
    /// the model has a bias).
    #[inline]
    fn dot_ext(&self, v: &[f64], x: &[f64]) -> f64 {
        let vb = if self.use_bias { v[self.dim] } else { 0.0 };
        vecops::dot(&v[..self.dim], x) + vb
    }

    /// `out += c·x̃`.
    #[inline]
    fn axpy_ext(&self, c: f64, x: &[f64], out: &mut [f64]) {
        vecops::axpy(c, x, &mut out[..self.dim]);
        if self.use_bias {
            out[self.dim] += c;
        }
    }
}

impl Classifier for LogisticRegression {
    fn n_classes(&self) -> usize {
        2
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn n_params(&self) -> usize {
        self.dim + 1
    }

    fn params(&self) -> &[f64] {
        &self.params
    }

    fn set_params(&mut self, p: &[f64]) {
        assert_eq!(p.len(), self.params.len(), "set_params: length mismatch");
        self.params.copy_from_slice(p);
    }

    fn l2(&self) -> f64 {
        self.l2
    }

    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        let p1 = self.proba1(x);
        out.copy_from_slice(&[1.0 - p1, p1]);
    }

    fn predict_range_into(&self, x: &rain_linalg::Matrix, start: usize, out: &mut [usize]) {
        // Allocation-free: one dot product per row, argmax over a stack
        // pair — bitwise the same classes as per-row `predict` (which
        // argmaxes the heap-allocated proba vector).
        for (k, slot) in out.iter_mut().enumerate() {
            let p1 = self.proba1(x.row(start + k));
            *slot = rain_linalg::vecops::argmax(&[1.0 - p1, p1]).expect("non-empty proba");
        }
    }

    fn example_loss(&self, x: &[f64], y: usize) -> f64 {
        debug_assert!(y < 2);
        Self::nll(self.proba1(x), y)
    }

    fn example_grad_into(&self, x: &[f64], y: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.n_params());
        vecops::zero(out);
        self.axpy_ext(self.proba1(x) - y as f64, x, out);
    }

    fn loss_grad(&self, data: &Dataset) -> (f64, Vec<f64>) {
        let n = data.len().max(1) as f64;
        let mut sum = 0.0;
        let mut g = vec![0.0; self.n_params()];
        for i in 0..data.len() {
            let (x, y) = (data.x(i), data.y(i));
            let p = self.proba1(x);
            sum += Self::nll(p, y);
            self.axpy_ext(p - y as f64, x, &mut g);
        }
        vecops::scale(&mut g, 1.0 / n);
        vecops::axpy(2.0 * self.l2, &self.params, &mut g);
        (sum / n + self.l2 * vecops::norm2_sq(&self.params), g)
    }

    fn hvp(&self, data: &Dataset, v: &[f64]) -> Vec<f64> {
        self.hvp_op(data)(v)
    }

    fn hvp_op<'a>(&'a self, data: &'a Dataset) -> HvpOp<'a> {
        // Curvature weights pᵢ(1-pᵢ)/n depend on θ only: once per operator.
        let n = data.len().max(1) as f64;
        let weights: Vec<f64> = (0..data.len())
            .map(|i| {
                let p = self.proba1(data.x(i));
                p * (1.0 - p) / n
            })
            .collect();
        Box::new(move |v| {
            assert_eq!(v.len(), self.n_params(), "hvp: vector length mismatch");
            let mut out = vec![0.0; self.n_params()];
            for (i, &w) in weights.iter().enumerate() {
                let x = data.x(i);
                self.axpy_ext(w * self.dot_ext(v, x), x, &mut out);
            }
            // Hessian of λ‖θ‖² is 2λI.
            vecops::axpy(2.0 * self.l2, v, &mut out);
            out
        })
    }

    fn hessian(&self, data: &Dataset) -> Matrix {
        // (1/n) Σ uᵢuᵢᵀ + 2λI with uᵢ = √(pᵢ(1-pᵢ))·x̃ᵢ, in one pass. Rows
        // go through in blocks transposed to column-major, so each entry
        // of the lower triangle is one contiguous dot per block instead of
        // a variable-length axpy per record.
        let p = if self.use_bias {
            self.dim + 1
        } else {
            self.dim
        };
        let mut cols = vec![0.0; p * HESSIAN_BLOCK];
        let mut lower = vec![0.0; p * p];
        for start in (0..data.len()).step_by(HESSIAN_BLOCK) {
            let b = HESSIAN_BLOCK.min(data.len() - start);
            for k in 0..b {
                let x = data.x(start + k);
                let pr = self.proba1(x);
                let s = (pr * (1.0 - pr)).sqrt();
                for (j, &xj) in x.iter().enumerate() {
                    cols[j * HESSIAN_BLOCK + k] = s * xj;
                }
                if self.use_bias {
                    cols[self.dim * HESSIAN_BLOCK + k] = s;
                }
            }
            let col = |j: usize| &cols[j * HESSIAN_BLOCK..][..b];
            for j in 0..p {
                for k in 0..=j {
                    lower[j * p + k] += vecops::dot(col(j), col(k));
                }
            }
        }
        let n = data.len().max(1) as f64;
        let mut h = Matrix::zeros(self.n_params(), self.n_params());
        for j in 0..p {
            for k in 0..=j {
                let v = lower[j * p + k] / n;
                h.set(j, k, v);
                h.set(k, j, v);
            }
        }
        // Hessian of λ‖θ‖² is 2λI (the pinned bias slot included).
        for j in 0..self.n_params() {
            h.set(j, j, h.get(j, j) + 2.0 * self.l2);
        }
        h
    }

    fn grad_proba_weighted(&self, x: &[f64], weights: &[f64], out: &mut [f64]) {
        debug_assert_eq!(weights.len(), 2);
        // ∇p₁ = p(1-p)·x̃ and ∇p₀ = -∇p₁.
        let p = self.proba1(x);
        self.axpy_ext((weights[1] - weights[0]) * p * (1.0 - p), x, out);
    }

    fn grad_dots_into(&self, data: &Dataset, start: usize, v: &[f64], out: &mut [f64]) {
        // ∇ℓ·v = (p - y)(x̃·v): two dots per record, no gradient materialized.
        for (k, slot) in out.iter_mut().enumerate() {
            let (x, y) = (data.x(start + k), data.y(start + k));
            *slot = (self.proba1(x) - y as f64) * self.dot_ext(v, x);
        }
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "logistic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::check;
    use rain_linalg::{Matrix, RainRng};

    fn toy_data(n: usize, seed: u64) -> Dataset {
        let mut rng = RainRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let y = rng.bernoulli(0.5) as usize;
            let shift = if y == 1 { 1.0 } else { -1.0 };
            rows.push(vec![
                rng.normal() + shift,
                rng.normal() - shift,
                rng.normal(),
            ]);
            labels.push(y);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Dataset::new(Matrix::from_rows(&refs), labels, 2)
    }

    fn fitted_model(data: &Dataset) -> LogisticRegression {
        let mut m = LogisticRegression::new(data.dim(), 0.01);
        // A few gradient steps are enough for derivative checks.
        for _ in 0..50 {
            let g = m.grad(data);
            let mut p = m.params().to_vec();
            vecops::axpy(-0.5, &g, &mut p);
            m.set_params(&p);
        }
        m
    }

    #[test]
    fn proba_is_sigmoid_of_margin() {
        let mut m = LogisticRegression::new(2, 0.0);
        m.set_params(&[1.0, -1.0, 0.5]);
        let x = [2.0, 1.0];
        assert!((m.proba1(&x) - sigmoid(2.0 - 1.0 + 0.5)).abs() < 1e-12);
        let p = m.predict_proba(&x);
        assert!((p[0] + p[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn grad_matches_finite_differences() {
        let data = toy_data(40, 1);
        let m = fitted_model(&data);
        let g = m.grad(&data);
        let fd = check::fd_grad(&m, &data, 1e-5);
        assert!(vecops::approx_eq(&g, &fd, 1e-5), "g={g:?} fd={fd:?}");
    }

    #[test]
    fn hvp_matches_finite_differences() {
        let data = toy_data(40, 2);
        let m = fitted_model(&data);
        let mut rng = RainRng::seed_from_u64(3);
        let v = rng.normal_vec(m.n_params(), 1.0);
        let hv = m.hvp(&data, &v);
        let fd = check::fd_hvp(&m, &data, &v, 1e-5);
        assert!(vecops::approx_eq(&hv, &fd, 1e-4), "hv={hv:?} fd={fd:?}");
    }

    #[test]
    fn hvp_is_linear_in_v() {
        let data = toy_data(30, 4);
        let m = fitted_model(&data);
        let mut rng = RainRng::seed_from_u64(5);
        let v1 = rng.normal_vec(m.n_params(), 1.0);
        let v2 = rng.normal_vec(m.n_params(), 1.0);
        let lhs = m.hvp(&data, &vecops::add(&v1, &v2));
        let rhs = vecops::add(&m.hvp(&data, &v1), &m.hvp(&data, &v2));
        assert!(vecops::approx_eq(&lhs, &rhs, 1e-9));
    }

    #[test]
    fn grad_proba_matches_finite_differences() {
        let data = toy_data(10, 6);
        let m = fitted_model(&data);
        let x = data.x(0).to_vec();
        for class in 0..2 {
            let g = m.grad_proba(&x, class);
            let fd = check::fd_grad_proba(&m, &x, class, 1e-6);
            assert!(vecops::approx_eq(&g, &fd, 1e-6), "class {class}");
        }
    }

    #[test]
    fn batched_and_range_inference_match_per_row_predict() {
        let data = toy_data(67, 11);
        let m = fitted_model(&data);
        let x = data.features();
        let per_row: Vec<usize> = x.iter_rows().map(|r| m.predict(r)).collect();
        assert_eq!(m.predict_batch(x), per_row);
        // Range chunks (the parallel-refresh sharding unit) must agree
        // too, at any chunking.
        for chunk in [1usize, 7, 64, 100] {
            let mut out = vec![0usize; x.rows()];
            for start in (0..x.rows()).step_by(chunk) {
                let end = (start + chunk).min(x.rows());
                m.predict_range_into(x, start, &mut out[start..end]);
            }
            assert_eq!(out, per_row, "chunk={chunk}");
        }
    }

    #[test]
    fn loss_decreases_under_training() {
        let data = toy_data(100, 9);
        let m0 = LogisticRegression::new(data.dim(), 0.01);
        let before = m0.loss(&data);
        let m = fitted_model(&data);
        assert!(m.loss(&data) < before);
        // And the fitted model should classify the separable toy data well.
        let correct = (0..data.len())
            .filter(|&i| m.predict(data.x(i)) == data.y(i))
            .count();
        assert!(correct as f64 / data.len() as f64 > 0.8);
    }
}
