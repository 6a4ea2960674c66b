//! One-hidden-layer multilayer perceptron (the appendix-D "neural network").
//!
//! Architecture: `x̃ = [x, 1]` → `z₁ = W₁ x̃` → `a = relu(z₁)` → `ã = [a, 1]`
//! → `z₂ = W₂ ã` → `p = softmax(z₂)`, cross-entropy loss.
//!
//! Parameter layout (flat): `W₁` (h rows × (d+1) cols, row-major) followed
//! by `W₂` (C rows × (h+1) cols, row-major).
//!
//! The Hessian-vector product uses the **Pearlmutter R-operator**: run a
//! tangent (directional-derivative) pass alongside the forward and backward
//! passes. With ReLU the second derivative of the activation vanishes
//! almost everywhere, so the R-pass only needs the first-derivative mask:
//!
//! ```text
//! forward:  Rz₁ = V₁x̃          Ra  = 1[z₁>0] ⊙ Rz₁
//!           Rz₂ = V₂ã + W₂Rã   Rp  = (diag(p) − ppᵀ)Rz₂
//! backward: δ₂  = p − e_y      Rδ₂ = Rp
//!           ∂W₂ = δ₂ãᵀ         R∂W₂ = Rδ₂ãᵀ + δ₂Rãᵀ
//!           δ₁  = (W₂ᵀδ₂) ⊙ m  Rδ₁ = (V₂ᵀδ₂ + W₂ᵀRδ₂) ⊙ m,  m = 1[z₁>0]
//!           ∂W₁ = δ₁x̃ᵀ         R∂W₁ = Rδ₁x̃ᵀ
//! ```
//!
//! This is the *exact* Hessian of the network (a.e.), not a Gauss–Newton
//! approximation; it can be indefinite, which is why `rain-influence`
//! applies damping during conjugate gradient (as Koh & Liang do).

use crate::dataset::Dataset;
use crate::model::Classifier;
use rain_linalg::stats::softmax;
use rain_linalg::{vecops, RainRng};

/// One-hidden-layer ReLU MLP with a softmax head.
#[derive(Debug, Clone)]
pub struct Mlp {
    params: Vec<f64>,
    dim: usize,
    hidden: usize,
    n_classes: usize,
    l2: f64,
}

/// Intermediate activations of one forward pass, reused by the backward and
/// R-op passes.
struct Forward {
    z1: Vec<f64>,
    a: Vec<f64>,
    p: Vec<f64>,
}

impl Mlp {
    /// Create an MLP with small random (seeded) initial weights.
    pub fn new(dim: usize, hidden: usize, n_classes: usize, l2: f64, seed: u64) -> Self {
        assert!(hidden >= 1, "need at least one hidden unit");
        assert!(n_classes >= 2, "need at least two classes");
        assert!(l2 >= 0.0, "l2 must be non-negative");
        let n_params = hidden * (dim + 1) + n_classes * (hidden + 1);
        let mut rng = RainRng::seed_from_u64(seed);
        // He-style initialization scaled by fan-in.
        let s1 = (2.0 / (dim + 1) as f64).sqrt();
        let s2 = (2.0 / (hidden + 1) as f64).sqrt();
        let mut params = Vec::with_capacity(n_params);
        for _ in 0..hidden * (dim + 1) {
            params.push(rng.normal() * s1);
        }
        for _ in 0..n_classes * (hidden + 1) {
            params.push(rng.normal() * s2);
        }
        Mlp {
            params,
            dim,
            hidden,
            n_classes,
            l2,
        }
    }

    /// Hidden-layer width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    #[inline]
    fn w1(&self) -> &[f64] {
        &self.params[..self.hidden * (self.dim + 1)]
    }

    #[inline]
    fn w2(&self) -> &[f64] {
        &self.params[self.hidden * (self.dim + 1)..]
    }

    /// Split an arbitrary parameter-shaped vector into (V₁, V₂) views.
    #[inline]
    fn split<'a>(&self, v: &'a [f64]) -> (&'a [f64], &'a [f64]) {
        v.split_at(self.hidden * (self.dim + 1))
    }

    /// `W·x̃` for a weight block with `rows` rows over input `x` (+bias).
    fn affine(w: &[f64], x: &[f64], rows: usize) -> Vec<f64> {
        let cols = x.len() + 1;
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &w[r * cols..(r + 1) * cols];
            out.push(vecops::dot(&row[..x.len()], x) + row[x.len()]);
        }
        out
    }

    /// `Wᵀ·d` restricted to the non-bias columns.
    fn affine_t(w: &[f64], d: &[f64], rows: usize, in_dim: usize) -> Vec<f64> {
        let cols = in_dim + 1;
        let mut out = vec![0.0; in_dim];
        for (r, &dr) in d.iter().enumerate().take(rows) {
            if dr != 0.0 {
                let row = &w[r * cols..(r + 1) * cols];
                vecops::axpy(dr, &row[..in_dim], &mut out);
            }
        }
        out
    }

    /// Accumulate `out += coeff · d x̃ᵀ` into a weight-block gradient.
    fn acc_outer(out: &mut [f64], d: &[f64], x: &[f64], coeff: f64) {
        let cols = x.len() + 1;
        for (r, &dr) in d.iter().enumerate() {
            if dr != 0.0 {
                let row = &mut out[r * cols..(r + 1) * cols];
                vecops::axpy(coeff * dr, x, &mut row[..x.len()]);
                row[x.len()] += coeff * dr;
            }
        }
    }

    fn forward(&self, x: &[f64]) -> Forward {
        debug_assert_eq!(x.len(), self.dim);
        let z1 = Self::affine(self.w1(), x, self.hidden);
        let a: Vec<f64> = z1.iter().map(|&z| z.max(0.0)).collect();
        let z2 = Self::affine(self.w2(), &a, self.n_classes);
        let p = softmax(&z2);
        Forward { z1, a, p }
    }

    /// Backward pass from an output-layer error signal `δ₂`, accumulating
    /// `coeff ·` the gradient into `out`.
    fn backward_into(&self, x: &[f64], fwd: &Forward, d2: &[f64], coeff: f64, out: &mut [f64]) {
        let (out1, out2) = out.split_at_mut(self.hidden * (self.dim + 1));
        Self::acc_outer(out2, d2, &fwd.a, coeff);
        let mut d1 = Self::affine_t(self.w2(), d2, self.n_classes, self.hidden);
        for (d, &z) in d1.iter_mut().zip(&fwd.z1) {
            if z <= 0.0 {
                *d = 0.0;
            }
        }
        Self::acc_outer(out1, &d1, x, coeff);
    }
}

impl Classifier for Mlp {
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
        out.copy_from_slice(&self.forward(x).p);
    }

    fn example_loss(&self, x: &[f64], y: usize) -> f64 {
        debug_assert!(y < self.n_classes);
        let fwd = self.forward(x);
        -fwd.p[y].max(1e-12).ln()
    }

    fn example_grad_into(&self, x: &[f64], y: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.n_params());
        vecops::zero(out);
        let fwd = self.forward(x);
        let mut d2 = fwd.p.clone();
        d2[y] -= 1.0;
        self.backward_into(x, &fwd, &d2, 1.0, out);
    }

    fn hvp(&self, data: &Dataset, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.n_params(), "hvp: vector length mismatch");
        let n = data.len().max(1) as f64;
        let (v1, v2) = self.split(v);
        let mut out = vec![0.0; self.n_params()];
        for i in 0..data.len() {
            let x = data.x(i);
            let y = data.y(i);
            let fwd = self.forward(x);
            // R-forward.
            let rz1 = Self::affine(v1, x, self.hidden);
            let ra: Vec<f64> = rz1
                .iter()
                .zip(&fwd.z1)
                .map(|(&r, &z)| if z > 0.0 { r } else { 0.0 })
                .collect();
            let mut rz2 = Self::affine(v2, &fwd.a, self.n_classes);
            // + W₂ Rã  (bias column of ã has zero tangent).
            let cols2 = self.hidden + 1;
            for (r, rz) in rz2.iter_mut().enumerate() {
                let row = &self.w2()[r * cols2..(r + 1) * cols2];
                *rz += vecops::dot(&row[..self.hidden], &ra);
            }
            // Rp = (diag(p) − ppᵀ) Rz₂.
            let prz = vecops::dot(&fwd.p, &rz2);
            let rp: Vec<f64> = fwd
                .p
                .iter()
                .zip(&rz2)
                .map(|(&pc, &rc)| pc * (rc - prz))
                .collect();
            // R-backward.
            let mut d2 = fwd.p.clone();
            d2[y] -= 1.0;
            let rd2 = rp;
            let (out1, out2) = out.split_at_mut(self.hidden * (self.dim + 1));
            // R∂W₂ = Rδ₂ ãᵀ + δ₂ Rãᵀ  (Rã bias entry is 0).
            Self::acc_outer(out2, &rd2, &fwd.a, 1.0 / n);
            for (r, &dr) in d2.iter().enumerate() {
                if dr != 0.0 {
                    let row = &mut out2[r * cols2..(r + 1) * cols2];
                    vecops::axpy(dr / n, &ra, &mut row[..self.hidden]);
                }
            }
            // Rδ₁ = (V₂ᵀ δ₂ + W₂ᵀ Rδ₂) ⊙ m.
            let mut rd1 = Self::affine_t(v2, &d2, self.n_classes, self.hidden);
            let w2t_rd2 = Self::affine_t(self.w2(), &rd2, self.n_classes, self.hidden);
            vecops::axpy(1.0, &w2t_rd2, &mut rd1);
            for (d, &z) in rd1.iter_mut().zip(&fwd.z1) {
                if z <= 0.0 {
                    *d = 0.0;
                }
            }
            Self::acc_outer(out1, &rd1, x, 1.0 / n);
        }
        vecops::axpy(2.0 * self.l2, v, &mut out);
        out
    }

    fn grad_proba_weighted(&self, x: &[f64], weights: &[f64], out: &mut [f64]) {
        debug_assert_eq!(weights.len(), self.n_classes);
        let fwd = self.forward(x);
        // Σ_c w_c ∂p_c/∂z₂ₖ = p_k (w_k − w·p).
        let wp = vecops::dot(weights, &fwd.p);
        let d2: Vec<f64> = fwd
            .p
            .iter()
            .zip(weights)
            .map(|(&pk, &wk)| pk * (wk - wp))
            .collect();
        self.backward_into(x, &fwd, &d2, 1.0, out);
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "mlp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::check;
    use rain_linalg::{Matrix, RainRng};

    fn toy_data(n: usize, classes: usize, seed: u64) -> Dataset {
        let mut rng = RainRng::seed_from_u64(seed);
        let dim = 5;
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let y = rng.below(classes);
            let mut x = rng.normal_vec(dim, 0.7);
            x[y % dim] += 2.0;
            rows.push(x);
            labels.push(y);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Dataset::new(Matrix::from_rows(&refs), labels, classes)
    }

    fn fitted(data: &Dataset, seed: u64) -> Mlp {
        let mut m = Mlp::new(data.dim(), 8, data.n_classes(), 0.01, seed);
        for _ in 0..120 {
            let g = m.grad(data);
            let mut p = m.params().to_vec();
            vecops::axpy(-0.3, &g, &mut p);
            m.set_params(&p);
        }
        m
    }

    #[test]
    fn proba_normalizes() {
        let data = toy_data(10, 3, 1);
        let m = Mlp::new(data.dim(), 4, 3, 0.0, 9);
        let p = m.predict_proba(data.x(0));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn training_reduces_loss_and_fits() {
        let data = toy_data(150, 3, 2);
        let m0 = Mlp::new(data.dim(), 8, 3, 0.01, 3);
        let before = m0.loss(&data);
        let m = fitted(&data, 3);
        assert!(m.loss(&data) < before);
        let correct = (0..data.len())
            .filter(|&i| m.predict(data.x(i)) == data.y(i))
            .count();
        assert!(correct as f64 / data.len() as f64 > 0.8, "acc too low");
    }

    #[test]
    fn grad_matches_finite_differences() {
        let data = toy_data(12, 3, 4);
        let m = fitted(&data, 4);
        let g = m.grad(&data);
        let fd = check::fd_grad(&m, &data, 1e-5);
        assert!(
            vecops::approx_eq(&g, &fd, 1e-4),
            "max diff {}",
            g.iter()
                .zip(&fd)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max)
        );
    }

    #[test]
    fn rop_hvp_matches_finite_differences() {
        let data = toy_data(12, 3, 5);
        let m = fitted(&data, 5);
        let mut rng = RainRng::seed_from_u64(6);
        // Small direction to stay clear of ReLU kinks.
        let v = rng.normal_vec(m.n_params(), 0.1);
        let hv = m.hvp(&data, &v);
        let fd = check::fd_hvp(&m, &data, &v, 1e-6);
        let denom = 1.0 + vecops::norm_inf(&fd);
        let err = hv
            .iter()
            .zip(&fd)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err / denom < 1e-3, "rel err {}", err / denom);
    }

    #[test]
    fn rop_hvp_is_symmetric_and_linear() {
        let data = toy_data(10, 3, 7);
        let m = fitted(&data, 7);
        let mut rng = RainRng::seed_from_u64(8);
        let v = rng.normal_vec(m.n_params(), 1.0);
        let w = rng.normal_vec(m.n_params(), 1.0);
        let vhw = vecops::dot(&v, &m.hvp(&data, &w));
        let whv = vecops::dot(&w, &m.hvp(&data, &v));
        assert!(
            (vhw - whv).abs() < 1e-7 * (1.0 + vhw.abs()),
            "{vhw} vs {whv}"
        );
        let lhs = m.hvp(&data, &vecops::add(&v, &w));
        let rhs = vecops::add(&m.hvp(&data, &v), &m.hvp(&data, &w));
        assert!(vecops::approx_eq(&lhs, &rhs, 1e-8));
    }

    #[test]
    fn grad_proba_matches_finite_differences() {
        let data = toy_data(6, 3, 9);
        let m = fitted(&data, 9);
        let x = data.x(1).to_vec();
        for class in 0..3 {
            let g = m.grad_proba(&x, class);
            let fd = check::fd_grad_proba(&m, &x, class, 1e-6);
            assert!(vecops::approx_eq(&g, &fd, 1e-5), "class {class}");
        }
    }

    #[test]
    fn distinct_seeds_give_distinct_inits() {
        let a = Mlp::new(4, 3, 2, 0.0, 1);
        let b = Mlp::new(4, 3, 2, 0.0, 2);
        assert_ne!(a.params(), b.params());
    }
}
