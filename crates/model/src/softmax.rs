//! Multiclass softmax (multinomial logistic) regression.
//!
//! Parameter layout: a `(dim+1) × C` weight matrix stored row-major as one
//! flat vector; row `dim` is the per-class bias. With `x̃ = [x, 1]`,
//! `logits_c = Σⱼ x̃ⱼ W[j,c]` and `p = softmax(logits)`:
//!
//! - loss      `ℓ = -ln p_y`
//! - gradient  `∂ℓ/∂W[j,c] = x̃ⱼ (p_c - 1[c = y])`
//! - HVP       per-example, with `a = x̃ᵀV` (a C-vector for direction `V`):
//!   `u = p⊙a - p(p·a)`, contribution `∂/∂W[j,c] = x̃ⱼ u_c`
//! - `∂p_c/∂W[j,k] = x̃ⱼ p_c (1[k=c] - p_k)`
//!
//! This is the model used for the MNIST-style 10-class experiments (§6.3).
//!
//! # Kernels
//!
//! The flat layout is what callers, the wire and the commitlog see; it
//! makes a class's weights a stride-`C` walk. The batched kernels
//! (`loss_grad`, `hvp_op`, `grad_dots_into`) work on the **class-major**
//! transpose instead — `C` rows of `[w_c, b_c]`, each contiguous — so a
//! forward pass is `C` dots of length `dim` against the feature row and a
//! backward pass is `C` axpys of length `dim`, with no per-record
//! allocation. They transpose the parameters and direction vectors on
//! entry and the gradient on exit; the model stores the flat layout only.
//!
//! Inference and the per-example methods cannot pay a transpose per row,
//! so they read the flat layout directly
//! ([`Classifier::predict_proba_into`]).
//! The two forward passes sum in different orders and agree to rounding,
//! not bit for bit.

use crate::dataset::Dataset;
use crate::model::{Classifier, HvpOp};
use rain_linalg::stats::softmax_in_place;
use rain_linalg::vecops;

/// Multiclass softmax regression.
#[derive(Debug, Clone)]
pub struct SoftmaxRegression {
    /// Flat `(dim+1) × n_classes` weights, row-major.
    params: Vec<f64>,
    dim: usize,
    n_classes: usize,
    l2: f64,
}

/// `out[c] = row_c[..d]·x + row_c[d]` over the rows of a class-major block.
fn affine(class_major: &[f64], x: &[f64], out: &mut [f64]) {
    let d = x.len();
    for (o, row) in out.iter_mut().zip(class_major.chunks_exact(d + 1)) {
        *o = vecops::dot(&row[..d], x) + row[d];
    }
}

/// Class probabilities of `x` under class-major weights, into `out`
/// (length C): the batched kernels' forward pass.
fn proba_class_major(weights: &[f64], x: &[f64], out: &mut [f64]) {
    affine(weights, x, out);
    softmax_in_place(out);
}

/// Rank-one accumulate `acc_c += u_c · [x, 1]` into a class-major block.
fn add_outer(acc: &mut [f64], u: &[f64], x: &[f64]) {
    let d = x.len();
    for (&uc, row) in u.iter().zip(acc.chunks_exact_mut(d + 1)) {
        vecops::axpy(uc, x, &mut row[..d]);
        row[d] += uc;
    }
}

/// Class-major transpose of a flat `(d+1) × c` parameter-shaped vector.
fn to_class_major(flat: &[f64], c: usize, out: &mut [f64]) {
    let stride = flat.len() / c;
    for (j, row) in flat.chunks_exact(c).enumerate() {
        for (k, &w) in row.iter().enumerate() {
            out[k * stride + j] = w;
        }
    }
}

/// `flat += scale · blockᵀ` for a class-major `block` of `c` rows.
fn add_from_class_major(block: &[f64], scale: f64, c: usize, flat: &mut [f64]) {
    let stride = flat.len() / c;
    for (j, row) in flat.chunks_exact_mut(c).enumerate() {
        for (k, o) in row.iter_mut().enumerate() {
            *o += scale * block[k * stride + j];
        }
    }
}

impl SoftmaxRegression {
    /// Zero-initialized model.
    pub fn new(dim: usize, n_classes: usize, l2: f64) -> Self {
        assert!(n_classes >= 2, "need at least two classes");
        assert!(l2 >= 0.0, "l2 must be non-negative");
        SoftmaxRegression {
            params: vec![0.0; (dim + 1) * n_classes],
            dim,
            n_classes,
            l2,
        }
    }

    /// The parameters transposed class-major, for a batched kernel's entry.
    fn class_major(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.n_params()];
        to_class_major(&self.params, self.n_classes, &mut out);
        out
    }

    /// Rank-one accumulate `out[j,·] += x̃ⱼ · u` in the flat layout (the
    /// per-example gradients write parameter-shaped output directly).
    fn add_outer_flat(&self, x: &[f64], u: &[f64], out: &mut [f64]) {
        let c = self.n_classes;
        for (&xj, row) in x.iter().zip(out.chunks_exact_mut(c)) {
            if xj != 0.0 {
                vecops::axpy(xj, u, row);
            }
        }
        vecops::axpy(1.0, u, &mut out[self.dim * c..]);
    }
}

impl Classifier for SoftmaxRegression {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn n_params(&self) -> usize {
        self.params.len()
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
        // Logits `x̃ᵀW` off the flat layout: the bias row plus
        // `xⱼ · W[j,·]` for every non-zero feature.
        debug_assert_eq!(x.len(), self.dim);
        let c = self.n_classes;
        out.copy_from_slice(&self.params[self.dim * c..]);
        for (&xj, row) in x.iter().zip(self.params.chunks_exact(c)) {
            if xj != 0.0 {
                vecops::axpy(xj, row, out);
            }
        }
        softmax_in_place(out);
    }

    fn example_loss(&self, x: &[f64], y: usize) -> f64 {
        debug_assert!(y < self.n_classes);
        let p = self.predict_proba(x);
        -p[y].max(1e-12).ln()
    }

    fn example_grad_into(&self, x: &[f64], y: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.n_params());
        vecops::zero(out);
        let mut u = self.predict_proba(x);
        u[y] -= 1.0;
        self.add_outer_flat(x, &u, out);
    }

    fn loss_grad(&self, data: &Dataset) -> (f64, Vec<f64>) {
        let n = data.len().max(1) as f64;
        let mut sum = 0.0;
        let weights = self.class_major();
        let mut acc = vec![0.0; self.n_params()];
        let mut u = vec![0.0; self.n_classes];
        for i in 0..data.len() {
            let (x, y) = (data.x(i), data.y(i));
            proba_class_major(&weights, x, &mut u);
            sum -= u[y].max(1e-12).ln();
            u[y] -= 1.0;
            add_outer(&mut acc, &u, x);
        }
        let mut g = vec![0.0; self.n_params()];
        add_from_class_major(&acc, 1.0 / n, self.n_classes, &mut g);
        vecops::axpy(2.0 * self.l2, &self.params, &mut g);
        (sum / n + self.l2 * vecops::norm2_sq(&self.params), g)
    }

    fn hvp(&self, data: &Dataset, v: &[f64]) -> Vec<f64> {
        self.hvp_op(data)(v)
    }

    fn hvp_op<'a>(&'a self, data: &'a Dataset) -> HvpOp<'a> {
        // The per-record probabilities depend on θ only: once per operator.
        let c = self.n_classes;
        let weights = self.class_major();
        let mut probs = vec![0.0; data.len() * c];
        for (i, p) in probs.chunks_exact_mut(c).enumerate() {
            proba_class_major(&weights, data.x(i), p);
        }
        Box::new(move |v| {
            assert_eq!(v.len(), self.n_params(), "hvp: vector length mismatch");
            let n = data.len().max(1) as f64;
            let mut dir = vec![0.0; self.n_params()];
            to_class_major(v, self.n_classes, &mut dir);
            let mut acc = vec![0.0; self.n_params()];
            let mut u = vec![0.0; c];
            for (i, p) in probs.chunks_exact(c).enumerate() {
                let x = data.x(i);
                // a = x̃ᵀV, then u = diag(p)a - p (pᵀa).
                affine(&dir, x, &mut u);
                let pa = vecops::dot(p, &u);
                for (uc, &pc) in u.iter_mut().zip(p) {
                    *uc = pc * (*uc - pa);
                }
                add_outer(&mut acc, &u, x);
            }
            let mut out = vec![0.0; self.n_params()];
            add_from_class_major(&acc, 1.0 / n, c, &mut out);
            vecops::axpy(2.0 * self.l2, v, &mut out);
            out
        })
    }

    fn grad_proba_weighted(&self, x: &[f64], weights: &[f64], out: &mut [f64]) {
        debug_assert_eq!(weights.len(), self.n_classes);
        // Σ_c w_c ∂p_c/∂logit_k = p_k (w_k - w·p); chain through
        // logits = x̃ᵀW.
        let mut u = self.predict_proba(x);
        let wp = vecops::dot(weights, &u);
        for (uk, &wk) in u.iter_mut().zip(weights) {
            *uk *= wk - wp;
        }
        self.add_outer_flat(x, &u, out);
    }

    fn grad_dots_into(&self, data: &Dataset, start: usize, v: &[f64], out: &mut [f64]) {
        // ∇ℓ·v = Σ_c (p_c - 1[c=y]) (x̃ᵀV)_c — two forward-shaped passes
        // per record, no gradient materialized.
        let weights = self.class_major();
        let mut dir = vec![0.0; self.n_params()];
        to_class_major(v, self.n_classes, &mut dir);
        let mut p = vec![0.0; self.n_classes];
        let mut a = vec![0.0; self.n_classes];
        for (k, slot) in out.iter_mut().enumerate() {
            let (x, y) = (data.x(start + k), data.y(start + k));
            proba_class_major(&weights, x, &mut p);
            affine(&dir, x, &mut a);
            *slot = vecops::dot(&p, &a) - a[y];
        }
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "softmax"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::check;
    use rain_linalg::{Matrix, RainRng};

    fn toy_data(n: usize, classes: usize, seed: u64) -> Dataset {
        let mut rng = RainRng::seed_from_u64(seed);
        let dim = 4;
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let y = rng.below(classes);
            let mut x = rng.normal_vec(dim, 1.0);
            x[y % dim] += 2.0; // make classes separable-ish
            rows.push(x);
            labels.push(y);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Dataset::new(Matrix::from_rows(&refs), labels, classes)
    }

    fn fitted(data: &Dataset) -> SoftmaxRegression {
        let mut m = SoftmaxRegression::new(data.dim(), data.n_classes(), 0.01);
        for _ in 0..60 {
            let g = m.grad(data);
            let mut p = m.params().to_vec();
            vecops::axpy(-0.5, &g, &mut p);
            m.set_params(&p);
        }
        m
    }

    #[test]
    fn proba_normalizes() {
        let data = toy_data(20, 3, 1);
        let m = fitted(&data);
        let p = m.predict_proba(data.x(0));
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn binary_softmax_agrees_with_logistic() {
        // With two classes, softmax regression and logistic regression
        // define the same conditional distribution. Train both and compare
        // probabilities coarsely.
        let data = toy_data(200, 2, 2);
        let sm = fitted(&data);
        let mut lr = crate::logistic::LogisticRegression::new(data.dim(), 0.01);
        for _ in 0..200 {
            let g = lr.grad(&data);
            let mut p = lr.params().to_vec();
            vecops::axpy(-0.5, &g, &mut p);
            lr.set_params(&p);
        }
        for i in 0..10 {
            let ps = sm.predict_proba(data.x(i))[1];
            let pl = lr.predict_proba(data.x(i))[1];
            assert!((ps - pl).abs() < 0.15, "example {i}: {ps} vs {pl}");
        }
    }

    #[test]
    fn grad_matches_finite_differences() {
        let data = toy_data(15, 3, 3);
        let m = fitted(&data);
        let g = m.grad(&data);
        let fd = check::fd_grad(&m, &data, 1e-5);
        assert!(vecops::approx_eq(&g, &fd, 1e-5));
    }

    #[test]
    fn hvp_matches_finite_differences() {
        let data = toy_data(15, 3, 4);
        let m = fitted(&data);
        let mut rng = RainRng::seed_from_u64(5);
        let v = rng.normal_vec(m.n_params(), 1.0);
        let hv = m.hvp(&data, &v);
        let fd = check::fd_hvp(&m, &data, &v, 1e-5);
        assert!(vecops::approx_eq(&hv, &fd, 1e-4));
    }

    #[test]
    fn hvp_is_symmetric() {
        // vᵀHw == wᵀHv for any v, w.
        let data = toy_data(12, 4, 6);
        let m = fitted(&data);
        let mut rng = RainRng::seed_from_u64(7);
        let v = rng.normal_vec(m.n_params(), 1.0);
        let w = rng.normal_vec(m.n_params(), 1.0);
        let vhw = vecops::dot(&v, &m.hvp(&data, &w));
        let whv = vecops::dot(&w, &m.hvp(&data, &v));
        assert!((vhw - whv).abs() < 1e-8 * (1.0 + vhw.abs()));
    }

    #[test]
    fn grad_proba_matches_finite_differences() {
        let data = toy_data(8, 3, 8);
        let m = fitted(&data);
        let x = data.x(0).to_vec();
        for class in 0..3 {
            let g = m.grad_proba(&x, class);
            let fd = check::fd_grad_proba(&m, &x, class, 1e-6);
            assert!(vecops::approx_eq(&g, &fd, 1e-6), "class {class}");
        }
    }

    #[test]
    fn grad_proba_sums_to_zero_across_classes() {
        // Σ_c p_c = 1 ⟹ Σ_c ∇p_c = 0.
        let data = toy_data(5, 4, 9);
        let m = fitted(&data);
        let x = data.x(2);
        let mut total = vec![0.0; m.n_params()];
        for c in 0..4 {
            vecops::axpy(1.0, &m.grad_proba(x, c), &mut total);
        }
        assert!(vecops::norm_inf(&total) < 1e-10);
    }
}
