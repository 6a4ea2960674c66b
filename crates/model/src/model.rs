//! The [`Classifier`] trait: the contract between models and the influence
//! machinery.
//!
//! Sign/shape conventions (everything a downstream crate needs to know):
//!
//! - Parameters are one flat `Vec<f64>`; layout is model-private.
//! - `ℓ(z, θ)` is the *unregularized* per-example loss (negative
//!   log-likelihood). The training objective adds an L2 term:
//!   `L(θ) = (1/n) Σ ℓ(zᵢ, θ) + λ‖θ‖²`.
//! - [`Classifier::hvp`] multiplies by the Hessian of the **full** objective
//!   `L` (including the `2λI` from regularization), which is what the
//!   conjugate-gradient solver must invert.
//! - The two passes every influence method is bounded by are batched, one
//!   call per evaluation over the whole training set:
//!   [`Classifier::loss_grad`] (forward pass shared between loss and
//!   gradient — what L-BFGS evaluates per line-search trial) and
//!   [`Classifier::hvp_op`] (the Hessian at the *current* parameters as a
//!   reusable operator — what a conjugate-gradient solve applies once per
//!   iteration, with everything that depends only on `θ` computed once).
//! - [`Classifier::hessian`] is the same Hessian as a dense matrix, for
//!   narrow models: assembled once per training-set state, it is factored
//!   instead of iterated on.
//! - [`Classifier::grad_proba`] returns `∇θ p_c(x, θ)`: how a predicted
//!   class probability moves with the parameters. Holistic chains these
//!   through relaxed provenance polynomials; TwoStep sums them over marked
//!   mispredictions.

use crate::dataset::Dataset;

/// A differentiable classification model.
///
/// Implementations must be `Send + Sync` so influence scoring can fan out
/// across threads, and cloneable via [`Classifier::clone_box`] for
/// warm-started retraining.
pub trait Classifier: Send + Sync {
    /// Number of classes this model discriminates between.
    fn n_classes(&self) -> usize;

    /// Feature dimensionality expected by the model.
    fn dim(&self) -> usize;

    /// Total number of parameters.
    fn n_params(&self) -> usize;

    /// Borrow the flat parameter vector.
    fn params(&self) -> &[f64];

    /// Overwrite the flat parameter vector.
    ///
    /// # Panics
    /// Panics if `p.len() != self.n_params()`.
    fn set_params(&mut self, p: &[f64]);

    /// L2 regularization strength λ.
    fn l2(&self) -> f64;

    /// Class probabilities for one example, written into `out` (length
    /// `n_classes`; overwritten, summing to 1) — the model's per-example
    /// forward pass, allocation-free; [`Classifier::predict_proba`] is it
    /// into a fresh vector.
    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]);

    /// Class probabilities for one example (length `n_classes`, sums to 1):
    /// [`Classifier::predict_proba_into`] into a fresh vector.
    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut p = vec![0.0; self.n_classes()];
        self.predict_proba_into(x, &mut p);
        p
    }

    /// Hard prediction: argmax of [`Classifier::predict_proba`].
    fn predict(&self, x: &[f64]) -> usize {
        rain_linalg::vecops::argmax(&self.predict_proba(x)).expect("non-empty proba")
    }

    /// Hard predictions for a batch of feature rows (one example per
    /// matrix row): [`Classifier::predict_range_into`] over every row.
    fn predict_batch(&self, x: &rain_linalg::Matrix) -> Vec<usize> {
        let mut out = vec![0usize; x.rows()];
        self.predict_range_into(x, 0, &mut out);
        out
    }

    /// Hard predictions for the row range `start .. start + out.len()`
    /// of `x`, written into `out` — the unit a refresh shards over (each
    /// share owns a disjoint output slice).
    ///
    /// The default walks the rows through [`Classifier::predict`];
    /// implementations may override it with an allocation-free kernel, but
    /// must return exactly the per-row `predict` results — the incremental
    /// query-refresh machinery relies on batched and per-row inference
    /// agreeing bit for bit.
    fn predict_range_into(&self, x: &rain_linalg::Matrix, start: usize, out: &mut [usize]) {
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = self.predict(x.row(start + k));
        }
    }

    /// Unregularized per-example loss `ℓ(z, θ)`.
    fn example_loss(&self, x: &[f64], y: usize) -> f64;

    /// Per-example loss gradient `∇θ ℓ(z, θ)` written into `out`.
    fn example_grad_into(&self, x: &[f64], y: usize, out: &mut [f64]);

    /// Per-example loss gradient, allocating.
    fn example_grad(&self, x: &[f64], y: usize) -> Vec<f64> {
        let mut g = vec![0.0; self.n_params()];
        self.example_grad_into(x, y, &mut g);
        g
    }

    /// The full training objective `L(θ) = (1/n) Σ ℓ + λ‖θ‖²` and its
    /// gradient, from one pass over `data`.
    ///
    /// The default is the per-example definition
    /// ([`check::per_example_loss_grad`]); models whose forward pass is
    /// worth sharing override it with a batched kernel.
    fn loss_grad(&self, data: &Dataset) -> (f64, Vec<f64>) {
        check::per_example_loss_grad(self, data)
    }

    /// Full training objective (the loss half of [`Classifier::loss_grad`];
    /// a caller that wants the gradient too should call that once).
    fn loss(&self, data: &Dataset) -> f64 {
        self.loss_grad(data).0
    }

    /// Gradient of the full training objective (the gradient half of
    /// [`Classifier::loss_grad`]; a caller that wants the loss too should
    /// call that once).
    fn grad(&self, data: &Dataset) -> Vec<f64> {
        self.loss_grad(data).1
    }

    /// Hessian-vector product `∇²L(θ)·v` of the full objective (with the
    /// `2λ v` regularization term included). One application of
    /// [`Classifier::hvp_op`] for the models that override it, paying the
    /// operator's setup each call: for more than one product at the same
    /// parameters, build the operator once.
    fn hvp(&self, data: &Dataset, v: &[f64]) -> Vec<f64>;

    /// The Hessian of the full objective at the current parameters, as an
    /// operator `v ↦ ∇²L(θ)·v` to apply many times (one conjugate-gradient
    /// solve, or all of InfLoss's solves).
    ///
    /// The default applies [`Classifier::hvp`]; models override it to
    /// compute what depends on `θ` and `data` alone (per-record
    /// probabilities, curvature weights) once, here, instead of once per
    /// application — and then define `hvp` as one application of it.
    fn hvp_op<'a>(&'a self, data: &'a Dataset) -> HvpOp<'a> {
        Box::new(move |v| self.hvp(data, v))
    }

    /// The Hessian of the full objective at the current parameters as a
    /// dense `n_params × n_params` matrix — what a narrow model's direct
    /// solves and Newton steps factor.
    ///
    /// The default assembles it one column per parameter from
    /// [`Classifier::hvp_op`] ([`check::hessian_from_hvp`]); models with a
    /// closed form override it with one pass over `data`.
    fn hessian(&self, data: &Dataset) -> rain_linalg::Matrix {
        check::hessian_from_hvp(self, data)
    }

    /// Accumulate a weighted sum of class-probability gradients:
    /// `out += Σ_c weights[c] · ∇θ p_c(x, θ)` — one forward and one
    /// backward pass however many classes carry weight.
    fn grad_proba_weighted(&self, x: &[f64], weights: &[f64], out: &mut [f64]);

    /// Gradient of the predicted probability of `class`: `∇θ p_class(x, θ)`.
    fn grad_proba(&self, x: &[f64], class: usize) -> Vec<f64> {
        debug_assert!(class < self.n_classes());
        let mut weights = vec![0.0; self.n_classes()];
        weights[class] = 1.0;
        let mut g = vec![0.0; self.n_params()];
        self.grad_proba_weighted(x, &weights, &mut g);
        g
    }

    /// `out[k] = ∇θ ℓ(z_{start+k}, θ) · v` for the rows
    /// `start .. start + out.len()` of `data` — the unit influence scoring
    /// shards over. The default materializes each gradient
    /// ([`Classifier::example_grad_into`], one buffer for the range);
    /// models with a closed form override it and never do.
    fn grad_dots_into(&self, data: &Dataset, start: usize, v: &[f64], out: &mut [f64]) {
        let mut g = vec![0.0; self.n_params()];
        for (k, slot) in out.iter_mut().enumerate() {
            self.example_grad_into(data.x(start + k), data.y(start + k), &mut g);
            *slot = rain_linalg::vecops::dot(&g, v);
        }
    }

    /// Clone into a boxed trait object (for warm-started retraining).
    fn clone_box(&self) -> Box<dyn Classifier>;

    /// A short human-readable name ("logistic", "softmax", "mlp").
    fn name(&self) -> &'static str;
}

/// A Hessian-vector operator at fixed parameters; see
/// [`Classifier::hvp_op`]. Shareable across scoring workers.
pub type HvpOp<'a> = Box<dyn Fn(&[f64]) -> Vec<f64> + Send + Sync + 'a>;

impl Clone for Box<dyn Classifier> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Finite-difference helpers shared by the derivative tests of every model.
///
/// Exposed as a public module (not `#[cfg(test)]`) so downstream crates'
/// tests can reuse it against their own `q(θ)` encodings.
pub mod check {
    use super::Classifier;
    use crate::dataset::Dataset;
    use rain_linalg::Matrix;

    /// The full objective and its gradient by definition: one
    /// [`Classifier::example_loss`] and one
    /// [`Classifier::example_grad_into`] per record. The reference every
    /// batched [`Classifier::loss_grad`] kernel is tested against (and the
    /// trait's default).
    pub fn per_example_loss_grad<M: Classifier + ?Sized>(
        model: &M,
        data: &Dataset,
    ) -> (f64, Vec<f64>) {
        let n = data.len().max(1) as f64;
        let mut sum = 0.0;
        let mut g = vec![0.0; model.n_params()];
        let mut buf = vec![0.0; model.n_params()];
        for i in 0..data.len() {
            sum += model.example_loss(data.x(i), data.y(i));
            model.example_grad_into(data.x(i), data.y(i), &mut buf);
            rain_linalg::vecops::axpy(1.0 / n, &buf, &mut g);
        }
        rain_linalg::vecops::axpy(2.0 * model.l2(), model.params(), &mut g);
        let loss = sum / n + model.l2() * rain_linalg::vecops::norm2_sq(model.params());
        (loss, g)
    }

    /// The dense Hessian of the full objective by definition: column `j`
    /// is one application of [`Classifier::hvp_op`] to the unit vector
    /// `eⱼ`. The trait's default [`Classifier::hessian`], and the
    /// reference the closed forms are tested against.
    pub fn hessian_from_hvp<M: Classifier + ?Sized>(model: &M, data: &Dataset) -> Matrix {
        let p = model.n_params();
        let op = model.hvp_op(data);
        let mut h = Matrix::zeros(p, p);
        let mut e = vec![0.0; p];
        for j in 0..p {
            e[j] = 1.0;
            for (i, v) in op(&e).into_iter().enumerate() {
                h.set(i, j, v);
            }
            e[j] = 0.0;
        }
        h
    }

    /// Central-difference gradient of the full objective at the current
    /// parameters. O(n_params × dataset); for tests only.
    pub fn fd_grad(model: &dyn Classifier, data: &Dataset, eps: f64) -> Vec<f64> {
        let theta = model.params().to_vec();
        let mut g = vec![0.0; theta.len()];
        let mut probe = model.clone_box();
        for j in 0..theta.len() {
            let mut tp = theta.clone();
            tp[j] += eps;
            probe.set_params(&tp);
            let up = probe.loss(data);
            tp[j] -= 2.0 * eps;
            probe.set_params(&tp);
            let dn = probe.loss(data);
            g[j] = (up - dn) / (2.0 * eps);
        }
        g
    }

    /// Central-difference Hessian-vector product `(∇L(θ+εv) − ∇L(θ−εv))/2ε`.
    pub fn fd_hvp(model: &dyn Classifier, data: &Dataset, v: &[f64], eps: f64) -> Vec<f64> {
        let theta = model.params().to_vec();
        let mut probe = model.clone_box();
        let tp: Vec<f64> = theta.iter().zip(v).map(|(t, vi)| t + eps * vi).collect();
        probe.set_params(&tp);
        let gp = probe.grad(data);
        let tm: Vec<f64> = theta.iter().zip(v).map(|(t, vi)| t - eps * vi).collect();
        probe.set_params(&tm);
        let gm = probe.grad(data);
        gp.iter()
            .zip(&gm)
            .map(|(a, b)| (a - b) / (2.0 * eps))
            .collect()
    }

    /// Central-difference gradient of `p_class(x, θ)`.
    pub fn fd_grad_proba(model: &dyn Classifier, x: &[f64], class: usize, eps: f64) -> Vec<f64> {
        let theta = model.params().to_vec();
        let mut g = vec![0.0; theta.len()];
        let mut probe = model.clone_box();
        for j in 0..theta.len() {
            let mut tp = theta.clone();
            tp[j] += eps;
            probe.set_params(&tp);
            let up = probe.predict_proba(x)[class];
            tp[j] -= 2.0 * eps;
            probe.set_params(&tp);
            let dn = probe.predict_proba(x)[class];
            g[j] = (up - dn) / (2.0 * eps);
        }
        g
    }
}
