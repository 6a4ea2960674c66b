//! Differentiable classifiers for Rain.
//!
//! The Rain paper (§4.1) needs four things from a model beyond ordinary
//! training and inference:
//!
//! 1. per-example loss gradients `∇θ ℓ(z, θ*)`,
//! 2. Hessian-vector products `H·v` of the **full** (regularized) training
//!    loss, consumed by the conjugate-gradient solver in `rain-influence`,
//! 3. gradients of predicted class probabilities `∇θ p_c(x, θ*)`, which are
//!    how user complaints (encoded as differentiable functions `q(θ)` over
//!    probabilities) chain back into parameter space,
//! 4. warm-started retraining inside the train–rank–fix loop.
//!
//! Rust autodiff crates are immature, so every derivative here is hand
//! derived and exact: closed forms for [`logistic::LogisticRegression`] and
//! [`softmax::SoftmaxRegression`], and the Pearlmutter R-operator for the
//! non-convex [`mlp::Mlp`] (the appendix-D neural-network experiments).
//! All derivatives are verified against central finite differences in tests.
//!
//! Loss convention (matching the paper): the trained objective is
//! `L(θ) = (1/n) Σᵢ ℓ(zᵢ, θ) + λ‖θ‖²`, so the Hessian lower bound is `2λI`
//! and influence computations stay well-posed.

pub mod dataset;
pub mod logistic;
pub mod metrics;
pub mod mlp;
pub mod model;
pub mod par;
pub mod softmax;
pub mod train;

pub use dataset::Dataset;
pub use logistic::LogisticRegression;
pub use metrics::{accuracy, confusion_binary, f1_score, BinaryConfusion};
pub use mlp::Mlp;
pub use model::{Classifier, HvpOp};
pub use softmax::SoftmaxRegression;
pub use train::{retrain_newton, train_lbfgs, LbfgsConfig, TrainReport};
