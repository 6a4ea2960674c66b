//! The four ranking methods of §6.1.1: `Loss`, `InfLoss`, `TwoStep`, and
//! `Holistic`, behind one interface.
//!
//! Every method sees the same context — the trained model, the current
//! training set, and the debug-mode query outputs — and produces a ranked
//! list of the `k` most suspect training records (most-suspect first): the
//! records the driver removes this iteration, selected without sorting the
//! rest ([`rank_top`]). The timing split matches
//! Figure 5's cost model: **encode** covers building the complaint
//! encoding `∇q` (for TwoStep this includes the ILP), **rank** covers the
//! inverse-Hessian solve and per-record scoring (and, for a narrow model,
//! the driver's dense Hessian build that the solve factors).

use crate::complaint::QuerySpec;
use crate::qfunc::{prob_grad_to_theta, probs_for, q_value_and_prob_grad};
use crate::twostep::{sql_step, SqlStep, SqlStepConfig};
use rain_influence::{
    inverse_hvp_with, rank_top, score_records, self_influence_scores, InfluenceConfig, RankedRecord,
};
use rain_linalg::Matrix;
use rain_model::{Classifier, Dataset};
use rain_sql::{Database, FeatureRows, QueryOutput};
use std::time::Instant;

/// Which debugging method to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Baseline: rank by training loss, highest first (§6.1.1).
    Loss,
    /// Baseline: rank by self-influence, most loss-increasing first
    /// (Koh & Liang's loss-based debugging; very slow by design).
    InfLoss,
    /// The two-step approach of §5.2 (ILP SQL step + influence).
    TwoStep,
    /// The holistic relaxation approach of §5.3.
    Holistic,
    /// The §5.1 optimizer heuristic: TwoStep when the complaints pin the
    /// prediction fixes uniquely, Holistic otherwise.
    Auto,
}

impl Method {
    /// Resolve `Auto` against the queries' complaints (§5.1): TwoStep is
    /// preferred only when every complaint is an unambiguous labeled
    /// prediction; anything aggregate- or tuple-shaped goes Holistic.
    pub fn resolve(self, queries: &[QuerySpec]) -> Method {
        match self {
            Method::Auto => {
                let unambiguous = queries.iter().all(|q| {
                    q.complaints
                        .iter()
                        .all(|c| matches!(c, crate::complaint::Complaint::PredictionIs { .. }))
                });
                if unambiguous {
                    Method::TwoStep
                } else {
                    Method::Holistic
                }
            }
            other => other,
        }
    }

    /// Display name used by the experiment harness.
    pub fn name(self) -> &'static str {
        match self {
            Method::Loss => "Loss",
            Method::InfLoss => "InfLoss",
            Method::TwoStep => "TwoStep",
            Method::Holistic => "Holistic",
            Method::Auto => "Auto",
        }
    }
}

/// Everything a ranker needs for one iteration.
pub struct RankContext<'a> {
    /// The queried database.
    pub db: &'a Database,
    /// The currently trained model.
    pub model: &'a dyn Classifier,
    /// The current training set.
    pub train: &'a Dataset,
    /// Debug-mode outputs, one per query.
    pub outputs: &'a [QueryOutput],
    /// The queries with their complaints.
    pub queries: &'a [QuerySpec],
    /// How many records the ranking returns: the driver's batch for this
    /// iteration (`k_per_iter`, or what is left of the budget).
    pub k: usize,
    /// The model's dense Hessian on `train` ([`Classifier::hessian`]),
    /// which the driver builds for narrow models: Holistic's and TwoStep's
    /// influence solves then factor it instead of running conjugate
    /// gradient. `None` = the Hessian-free solve.
    pub hessian: Option<&'a Matrix>,
    /// Influence-engine settings; `threads` is the run's resolved worker
    /// budget (the driver overrides the session's default with it).
    pub influence: &'a InfluenceConfig,
    /// TwoStep SQL-step settings.
    pub sqlstep: &'a SqlStepConfig,
}

/// A ranking plus the encode/rank timing split of Figure 5.
#[derive(Debug, Clone)]
pub struct Ranking {
    /// The [`RankContext::k`] most suspect records (all of them when the
    /// training set is smaller), most-suspect first.
    pub records: Vec<RankedRecord>,
    /// Seconds spent building the complaint encoding (ILP, relaxation,
    /// ∇q assembly).
    pub encode_s: f64,
    /// Seconds spent in the influence solve + scoring (or loss scan).
    pub rank_s: f64,
}

/// Why a method could not produce a ranking.
#[derive(Debug, Clone, PartialEq)]
pub enum RankError {
    /// TwoStep's ILP hit its budget (paper: "TwoStep does not solve the
    /// ILP within 30 minutes").
    IlpTimeout,
    /// The complaints are unsatisfiable by any prediction assignment.
    Infeasible,
}

impl std::fmt::Display for RankError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankError::IlpTimeout => write!(f, "ILP solver exceeded its budget"),
            RankError::Infeasible => write!(f, "complaints are unsatisfiable"),
        }
    }
}

/// Produce a ranking of the current training records with `method`.
pub fn rank(method: Method, ctx: &RankContext<'_>) -> Result<Ranking, RankError> {
    match method.resolve(ctx.queries) {
        Method::Loss => Ok(rank_loss(ctx)),
        Method::InfLoss => Ok(rank_infloss(ctx)),
        Method::Holistic => Ok(rank_holistic(ctx)),
        Method::TwoStep => rank_twostep(ctx),
        Method::Auto => unreachable!("resolved above"),
    }
}

fn rank_loss(ctx: &RankContext<'_>) -> Ranking {
    let t0 = Instant::now();
    let scores: Vec<f64> = (0..ctx.train.len())
        .map(|i| ctx.model.example_loss(ctx.train.x(i), ctx.train.y(i)))
        .collect();
    Ranking {
        records: rank_top(ctx.train, &scores, ctx.k),
        encode_s: 0.0,
        rank_s: t0.elapsed().as_secs_f64(),
    }
}

fn rank_infloss(ctx: &RankContext<'_>) -> Ranking {
    let t0 = Instant::now();
    // InfLoss ranks most-negative self-influence first, i.e. descending
    // by the negated score.
    let scores: Vec<f64> = self_influence_scores(ctx.model, ctx.train, ctx.influence)
        .into_iter()
        .map(|s| -s)
        .collect();
    Ranking {
        records: rank_top(ctx.train, &scores, ctx.k),
        encode_s: 0.0,
        rank_s: t0.elapsed().as_secs_f64(),
    }
}

fn rank_holistic(ctx: &RankContext<'_>) -> Ranking {
    let t0 = Instant::now();
    // Build ∇θ q summed over queries (multi-complaint support, §3.2).
    let mut grad_q = vec![0.0; ctx.model.n_params()];
    for (out, query) in ctx.outputs.iter().zip(ctx.queries) {
        let probs = probs_for(ctx.db, out, ctx.model);
        let (_, pg) = q_value_and_prob_grad(out, &query.complaints, &probs);
        let g = prob_grad_to_theta(ctx.db, out, ctx.model, &pg);
        rain_linalg::vecops::axpy(1.0, &g, &mut grad_q);
    }
    let encode_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let records = influence_rank(ctx, &grad_q);
    Ranking {
        records,
        encode_s,
        rank_s: t1.elapsed().as_secs_f64(),
    }
}

fn rank_twostep(ctx: &RankContext<'_>) -> Result<Ranking, RankError> {
    let t0 = Instant::now();
    // SQL step per query, then q = -Σ p_target(x) over the repairs: each
    // adds -∇θ p_class(x), a weighted probability gradient with weight -1
    // on its class, straight into ∇θ q.
    let mut grad_q = vec![0.0; ctx.model.n_params()];
    let mut weights = vec![0.0; ctx.model.n_classes()];
    for (out, query) in ctx.outputs.iter().zip(ctx.queries) {
        let repairs = match sql_step(out, &query.complaints, ctx.model.n_classes(), ctx.sqlstep) {
            SqlStep::Repairs(r) => r,
            SqlStep::Timeout => return Err(RankError::IlpTimeout),
            SqlStep::Infeasible => return Err(RankError::Infeasible),
        };
        let mut x = FeatureRows::new(ctx.db, &out.predvars);
        for (var, class) in repairs {
            weights[class] = -1.0;
            ctx.model
                .grad_proba_weighted(x.row(var), &weights, &mut grad_q);
            weights[class] = 0.0;
        }
    }
    let encode_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let records = influence_rank(ctx, &grad_q);
    Ok(Ranking {
        records,
        encode_s,
        rank_s: t1.elapsed().as_secs_f64(),
    })
}

/// Shared influence pipeline: solve `(H+δI)s = ∇q` (directly when the
/// context holds the dense Hessian), score every training record, keep the
/// top `k`.
fn influence_rank(ctx: &RankContext<'_>, grad_q: &[f64]) -> Vec<RankedRecord> {
    let solved = inverse_hvp_with(ctx.model, ctx.train, ctx.hessian, grad_q, ctx.influence);
    let scores = score_records(ctx.model, ctx.train, &solved.x, ctx.influence.threads);
    rank_top(ctx.train, &scores, ctx.k)
}
