//! Influence-function engine (paper §4.1, following Koh & Liang).
//!
//! Both TwoStep and Holistic reduce the debugging problem to the same
//! computation: given a differentiable complaint encoding `q(θ)`, estimate
//! for every training record `z` how much removing `z` changes `q`:
//!
//! ```text
//! score(z) = -∇q(θ*)ᵀ · H⁻¹ · ∇ℓ(z, θ*)        (Eq. 4 of the paper)
//! ```
//!
//! Records with large positive scores are those whose removal *decreases*
//! `q` the most — i.e. best addresses the complaint — and are ranked first.
//!
//! Inverting the Hessian is infeasible (`O(d³)`) for wide models, so
//! [`inverse_hvp`] solves `H s = ∇q` with conjugate gradient, using only
//! Hessian-vector products supplied by the model (closed-form or
//! Pearlmutter R-op). A narrow model's dense Hessian is cheap to assemble
//! and factor, and [`inverse_hvp_with`] solves with it directly. A damping
//! term `δ·I` keeps CG convergent when the Hessian is indefinite
//! (non-convex MLPs) or barely positive definite.
//!
//! [`score_records`] then evaluates `-∇ℓ(zᵢ)·s` for every training record,
//! fanned out across scoped `std::thread` workers, and [`rank_top`] selects
//! the `k` records the caller will remove without sorting the rest.
//!
//! The `InfLoss` baseline ("self-influence", §6.1.1) is also provided:
//! `-∇ℓ(z)ᵀ H⁻¹ ∇ℓ(z)` per record, which needs one CG solve *per training
//! record* — the paper measures it to be orders of magnitude slower, and
//! this implementation faithfully reproduces that cost profile (while
//! capping CG iterations so experiments still finish).

pub mod cg;
pub mod scoring;

pub use cg::{cg_solve, CgConfig, CgOutcome};
pub use scoring::{
    inverse_hvp, inverse_hvp_with, rank_descending, rank_top, score_records, self_influence_scores,
    InfluenceConfig, RankedRecord,
};
