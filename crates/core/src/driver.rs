//! The train–rank–fix driver (paper §5.1).
//!
//! Each iteration (1) retrains the model — warm-started from the previous
//! iteration's parameters, as in appendix D; for a narrow model
//! ([`DENSE_MAX_PARAMS`]) by Newton steps from the previous iteration's
//! dense Hessian before L-BFGS — (2) re-executes every query
//! in debug mode, (3) checks the complaints, (4) ranks the current
//! training records with the chosen method, and (5) deletes the top-k.
//! The concatenation of the deleted batches is the explanation `D`; with
//! batch size k the driver runs `|D|/k` iterations (§5.1).
//!
//! Step (2) runs through the incremental subsystem: each query's
//! model-independent skeleton is checked out of a [`QueryCache`] once per
//! run — current on checkout, and the run holds `&self`, so it stays
//! current — then every iteration refreshes it: bit-identical output to a
//! full debug execution, at a fraction of the per-iteration cost (see
//! `rain_sql::incremental`). [`RunConfig::incremental`]` = false` is the
//! test oracle for that claim, not a deployment choice.

use crate::complaint::QuerySpec;
use crate::metrics;
use crate::rank::{rank, Method, RankContext, RankError};
use crate::twostep::SqlStepConfig;
use rain_influence::InfluenceConfig;
use rain_linalg::Matrix;
use rain_model::train::WARM_MAX_ITERS;
use rain_model::{retrain_newton, train_lbfgs, Classifier, Dataset, LbfgsConfig};
use rain_obs::{Span, Trace};
use rain_sql::{
    execute, CacheEvent, CachedQuery, Database, Engine, ExecOptions, QueryCache, QueryError,
    QueryOutput,
};
use std::time::Instant;

/// Widest model (in parameters) the driver trains and ranks through its
/// dense Hessian ([`Classifier::hessian`]): Newton retrains from the
/// previous iteration's Hessian and a direct rank solve, instead of warm
/// L-BFGS and conjugate gradient. Wider models keep those.
///
/// Measured per iteration (retrain + Hessian + rank solve, 8 000 rows,
/// 2-core host), dense over Hessian-free: the closed-form logistic
/// Hessian reads 0.43 at 18 parameters, 0.49 at 24, 0.55 at 32, 0.79 at
/// 48 and 1.25 at 64; a softmax, whose Hessian is the default built from
/// one `hvp_op` application per parameter, reads 0.97 at 18, 1.00 at 24
/// and 1.41 at 33. The bound is where the slower build breaks even.
pub const DENSE_MAX_PARAMS: usize = 24;

// The serving layer moves sessions and their reports across threads
// (job-runner workers execute runs off the accept path); keep that
// guaranteed at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<DebugSession>();
    assert_send::<DebugReport>();
};

/// A debugging session: the queried database, the (possibly corrupted)
/// training set, the model, and the complained-about queries.
pub struct DebugSession {
    /// The queried database `D`.
    pub db: Database,
    /// The training set `T`.
    pub train: Dataset,
    /// The model prototype (defines architecture and initial parameters).
    pub model: Box<dyn Classifier>,
    /// Queries with complaints.
    pub queries: Vec<QuerySpec>,
    /// Training configuration.
    pub train_cfg: LbfgsConfig,
    /// Influence-engine configuration (damping, CG). Its `threads` field
    /// is not read by a run: a run ranks under its cache's worker budget
    /// ([`QueryCache::threads`]) like everything else it does.
    pub influence: InfluenceConfig,
    /// TwoStep SQL-step configuration.
    pub sqlstep: SqlStepConfig,
}

impl DebugSession {
    /// Create a session with default training/influence settings.
    pub fn new(db: Database, train: Dataset, model: Box<dyn Classifier>) -> Self {
        DebugSession {
            db,
            train,
            model,
            queries: Vec::new(),
            train_cfg: LbfgsConfig::default(),
            influence: InfluenceConfig::default(),
            sqlstep: SqlStepConfig::default(),
        }
    }

    /// An empty session around `model`: no tables, no training rows (of
    /// the model's width), no queries — what a server creates before the
    /// client uploads anything.
    pub fn for_model(model: Box<dyn Classifier>) -> Self {
        let train = Dataset::new(
            Matrix::zeros(0, model.dim()),
            Vec::new(),
            model.n_classes().max(2),
        );
        DebugSession::new(Database::new(), train, model)
    }

    /// Attach a complained-about query (builder style).
    pub fn with_query(mut self, q: QuerySpec) -> Self {
        self.queries.push(q);
        self
    }

    /// Run the train–rank–fix loop with one method, on skeletons captured
    /// for this run alone: [`DebugSession::run_cached`] over a fresh
    /// cache with an automatic worker budget.
    pub fn run(&self, method: Method, cfg: &RunConfig) -> Result<DebugReport, QueryError> {
        self.run_cached(method, cfg, &mut QueryCache::new(Engine::Vectorized))
    }

    /// Run the train–rank–fix loop with one method, taking each query's
    /// skeleton from `cache`: all are checked out before the first
    /// iteration (planned and captured on a miss, brought current on an
    /// invalidation) and checked back in when the run ends, whether it
    /// succeeded or not — so a follow-up run over the same complaints
    /// starts from cache hits. If one checkout fails, the skeletons
    /// already checked out go back first.
    ///
    /// The whole run works under `cache.threads()` workers (`0` = the
    /// machine's parallelism): refreshes, the full re-executions of the
    /// `incremental: false` oracle, and ranking. Checkout time is charged
    /// to the first iteration's encode phase. With [`RunConfig::profile`]
    /// on, the run — checkouts included, under `prepare-queries` — is one
    /// `debug-run` trace, and its tree lands in [`DebugReport::profile`].
    pub fn run_cached(
        &self,
        method: Method,
        cfg: &RunConfig,
        cache: &mut QueryCache,
    ) -> Result<DebugReport, QueryError> {
        let trace = cfg.profile.then(|| Trace::start("debug-run"));
        let t_prepare = Instant::now();
        let mut checked = Vec::with_capacity(self.queries.len());
        {
            let _s = Span::enter("prepare-queries");
            for q in &self.queries {
                match cache.checkout(&self.db, self.model.as_ref(), &q.sql) {
                    Ok(cq) => checked.push(cq),
                    Err(e) => {
                        checked.into_iter().for_each(|cq| cache.checkin(cq));
                        return Err(e);
                    }
                }
            }
        }
        let prepare_s = t_prepare.elapsed().as_secs_f64();
        let run = self.run_loop(method, cfg, &checked, cache.threads(), prepare_s);
        checked.into_iter().for_each(|cq| cache.checkin(cq));
        let mut report = run?;
        report.profile = trace.map(Trace::finish);
        Ok(report)
    }

    /// The iteration loop of [`DebugSession::run_cached`], over its
    /// checked-out skeletons and worker budget; `pending_prepare_s` (the
    /// checkout time) is charged to the first iteration's encode phase so timing
    /// trajectories stay cost-complete against full re-execution.
    fn run_loop(
        &self,
        method: Method,
        cfg: &RunConfig,
        queries: &[CachedQuery],
        threads: usize,
        mut pending_prepare_s: f64,
    ) -> Result<DebugReport, QueryError> {
        // Refresh-aware complaint checking: a query's debug output is a
        // pure function of the hard predictions over its variables (the
        // skeleton is fixed for the run), so if no prediction the query
        // depends on flipped this iteration, last iteration's
        // satisfied/violated verdict still stands. Model-free plans
        // (`QueryPlan::model_deps`) can never flip; model-dependent ones
        // are re-checked only when their prediction vector changed.
        let model_free: Vec<bool> = queries
            .iter()
            .map(|cq| cq.prepared.plan().model_deps().is_model_free())
            .collect();
        let mut last_verdict: Vec<Option<(Vec<usize>, bool)>> = vec![None; self.queries.len()];
        let mut model = self.model.clone();
        let mut train = self.train.clone();
        // A narrow model's dense Hessian is built once per iteration, at
        // the trained parameters, as the rank step opens: the rank solve
        // factors it, and — carried with the rows the iteration removed —
        // it gives the next retrain its first Newton step.
        let dense = model.n_params() <= DENSE_MAX_PARAMS;
        let mut carried: Option<(Matrix, Dataset)> = None;
        let mut removed: Vec<usize> = Vec::new();
        let mut iterations = Vec::new();
        let mut failure = None;
        let mut iteration_profiles = Vec::new();
        // Ranking works under the run's worker budget like everything
        // else, not under the session's stand-alone influence default.
        let influence = InfluenceConfig {
            threads: rain_sql::resolve_threads(threads),
            ..self.influence.clone()
        };

        while removed.len() < cfg.budget {
            // Always-on sampled profiling: 1-in-N iterations are a trace
            // of their own. In a run that is itself traced, every
            // iteration is a span of that trace instead.
            let iteration = iterations.len();
            let mut sampled =
                (cfg.sample_every > 0 && !rain_obs::enabled() && iteration % cfg.sample_every == 0)
                    .then(|| Trace::start("iteration"));
            let mut unsampled = None;
            let iter_span: &mut Span = match sampled.as_mut() {
                Some(trace) => trace,
                None => unsampled.insert(Span::enter("iteration")),
            };
            let stop = 'iter: {
                // (0) Train, warm-started.
                let t_train = Instant::now();
                let warm = if iterations.is_empty() {
                    self.train_cfg.clone()
                } else {
                    LbfgsConfig {
                        max_iters: self.train_cfg.max_iters.min(WARM_MAX_ITERS),
                        ..self.train_cfg.clone()
                    }
                };
                // (Both open the iteration's `train` span themselves.)
                let report = match carried.take() {
                    Some((hessian, gone)) => {
                        retrain_newton(model.as_mut(), &train, &gone, &hessian, &warm)
                    }
                    None => train_lbfgs(model.as_mut(), &train, &warm),
                };
                let train_s = t_train.elapsed().as_secs_f64();

                // (1-2) Execute the queries in debug mode under the run's
                // worker budget: refresh the prepared skeleton, or — the
                // `incremental: false` oracle — re-execute the plan in full.
                let t_exec = Instant::now();
                let mut outputs: Vec<QueryOutput> = Vec::with_capacity(queries.len());
                {
                    // The sql layer's own spans (refresh/inference/re-eval,
                    // or scan/join/… on the full path) nest under this one.
                    let _s = Span::enter("execute");
                    for cq in queries {
                        let out = if cfg.incremental {
                            cq.prepared.refresh(&self.db, model.as_ref(), threads)
                        } else {
                            execute(
                                &self.db,
                                model.as_ref(),
                                cq.prepared.plan(),
                                ExecOptions::debug().with_threads(threads),
                            )
                        };
                        outputs.push(out?);
                    }
                }
                let exec_s = t_exec.elapsed().as_secs_f64();

                // (3) Complaint check, skipping queries whose depended-on
                // predictions did not flip this iteration.
                let mut checks_skipped = 0usize;
                let mut satisfied = true;
                let check_span = Span::enter("check");
                for (qi, (q, out)) in self.queries.iter().zip(&outputs).enumerate() {
                    let preds = out.predvars.preds();
                    let q_sat = match &last_verdict[qi] {
                        Some((prev, sat)) if model_free[qi] || prev == preds => {
                            checks_skipped += q.complaints.len();
                            *sat
                        }
                        _ => {
                            let sat = q.complaints.iter().all(|c| c.satisfied(out));
                            last_verdict[qi] = Some((preds.to_vec(), sat));
                            sat
                        }
                    };
                    satisfied &= q_sat;
                }
                drop(check_span);
                iter_span.add("checks_skipped", checks_skipped as u64);
                if satisfied && cfg.stop_when_satisfied {
                    iterations.push(IterStats {
                        train_s,
                        encode_s: exec_s + std::mem::take(&mut pending_prepare_s),
                        rank_s: 0.0,
                        removed: Vec::new(),
                        complaints_satisfied: true,
                        checks_skipped,
                        train_loss: report.final_loss,
                    });
                    break 'iter true;
                }

                // (4) Rank: only the records step (5) removes.
                let k = cfg.k_per_iter.min(cfg.budget - removed.len());
                let sqlstep = SqlStepConfig {
                    seed: self.sqlstep.seed ^ (iterations.len() as u64).wrapping_mul(0x9E37),
                    ..self.sqlstep.clone()
                };
                let rank_span = Span::enter("rank");
                let t_hessian = Instant::now();
                let hessian = dense.then(|| {
                    let _s = Span::enter("hessian");
                    model.hessian(&train)
                });
                let hessian_s = t_hessian.elapsed().as_secs_f64();
                let ctx = RankContext {
                    db: &self.db,
                    model: model.as_ref(),
                    train: &train,
                    outputs: &outputs,
                    queries: &self.queries,
                    k,
                    hessian: hessian.as_ref(),
                    influence: &influence,
                    sqlstep: &sqlstep,
                };
                let ranking = match rank(method, &ctx) {
                    Ok(r) => r,
                    Err(e @ (RankError::IlpTimeout | RankError::Infeasible)) => {
                        failure = Some(e.to_string());
                        break 'iter true;
                    }
                };
                drop(rank_span);

                // (5) Remove the top-k, in place; the removed rows (in row
                // order) go with the Hessian to the next retrain.
                let batch: Vec<usize> = ranking.records.iter().map(|r| r.id).collect();
                if batch.is_empty() {
                    break 'iter true;
                }
                let gone = {
                    let mut span = Span::enter("remove");
                    let gone = train.split_off_ids(&batch);
                    span.add("rows", gone.len() as u64);
                    gone
                };
                carried = hessian.map(|h| (h, gone));
                removed.extend(batch.iter().copied());
                iter_span.add("removed", batch.len() as u64);
                iterations.push(IterStats {
                    train_s,
                    encode_s: exec_s + ranking.encode_s + std::mem::take(&mut pending_prepare_s),
                    rank_s: hessian_s + ranking.rank_s,
                    removed: batch,
                    complaints_satisfied: satisfied,
                    checks_skipped,
                    train_loss: report.final_loss,
                });
                train.is_empty()
            };
            // The most recent [`MAX_ITERATION_PROFILES`] samples are kept.
            if let Some(trace) = sampled {
                let profile = trace.finish();
                iteration_profiles.push(IterationProfile { iteration, profile });
                if iteration_profiles.len() > MAX_ITERATION_PROFILES {
                    iteration_profiles.remove(0);
                }
            }
            if stop {
                break;
            }
        }
        Ok(DebugReport {
            removed,
            iterations,
            skeleton_rebuilds: queries
                .iter()
                .filter(|cq| cq.event == CacheEvent::Invalidated)
                .count(),
            failure,
            profile: None,
            iteration_profiles,
        })
    }
}

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Records removed per iteration (the paper uses 10, §6.1.1).
    pub k_per_iter: usize,
    /// Total removal budget `|D|` (typically the corruption count K).
    pub budget: usize,
    /// Stop as soon as every complaint is concretely satisfied.
    pub stop_when_satisfied: bool,
    /// Re-execute via the incremental prepare/refresh path (the default):
    /// the model-independent query skeleton is checked out once per run
    /// and each iteration only refreshes predictions. Off = full debug-mode
    /// re-execution per iteration (the oracle path; output is identical).
    pub incremental: bool,
    /// Collect a per-iteration trace of the run ([`rain_obs`] spans) and
    /// attach it as [`DebugReport::profile`]. Off by default: instrumented
    /// code paths are inert when no trace is active, and the loop's
    /// outputs are bit-identical either way.
    pub profile: bool,
    /// Always-on sampled profiling: every `sample_every`-th iteration
    /// (starting with the first) runs under a scoped trace and its span
    /// tree lands in [`DebugReport::iteration_profiles`] — so the
    /// profile of the iteration that went wrong already exists when the
    /// operator asks for it. `0` disables sampling. A run that is traced
    /// as a whole ([`RunConfig::profile`], or a caller's own
    /// [`rain_obs::Trace`] on the calling thread) has every iteration in
    /// that trace instead. Outputs are bit-identical at every setting.
    /// Default 16 (1-in-16); the serving layer overrides it per session.
    pub sample_every: usize,
}

impl RunConfig {
    /// The paper's settings: batches of 10, removing `budget` records.
    pub fn paper(budget: usize) -> Self {
        RunConfig {
            k_per_iter: 10,
            budget,
            stop_when_satisfied: false,
            incremental: true,
            profile: false,
            sample_every: 16,
        }
    }
}

/// Timing and bookkeeping for one train–rank–fix iteration.
#[derive(Debug, Clone)]
pub struct IterStats {
    /// Seconds retraining the model.
    pub train_s: f64,
    /// Seconds executing queries + building the complaint encoding
    /// (Figure 5's "Encode").
    pub encode_s: f64,
    /// Seconds in the influence solve + scoring (Figure 5's "Rank").
    pub rank_s: f64,
    /// Ids removed this iteration, in rank order.
    pub removed: Vec<usize>,
    /// Whether all complaints were satisfied *before* this removal.
    pub complaints_satisfied: bool,
    /// Complaint checks skipped because no prediction the query depends
    /// on flipped since the last check (refresh-aware checking).
    pub checks_skipped: usize,
    /// Training objective after retraining.
    pub train_loss: f64,
}

/// The outcome of a debugging run.
#[derive(Debug, Clone)]
pub struct DebugReport {
    /// All removed training ids, in removal order (the explanation `D`).
    pub removed: Vec<usize>,
    /// Per-iteration statistics.
    pub iterations: Vec<IterStats>,
    /// Checkouts of this run that found their skeleton stale and brought
    /// it current ([`CacheEvent::Invalidated`]) — non-zero only when
    /// queried tables changed under the session since the cache last saw
    /// them.
    pub skeleton_rebuilds: usize,
    /// Set when the method failed (e.g. TwoStep ILP timeout).
    pub failure: Option<String>,
    /// Span tree of the run — a `prepare-queries` child holding one
    /// `cache-checkout` per query, then one `iteration` child per loop
    /// pass, each covering `train`/`execute`/`check`/`rank`/`remove`
    /// (with the sql layer's operator and refresh spans nested below).
    /// `Some` only when [`RunConfig::profile`] was on.
    pub profile: Option<rain_obs::TraceNode>,
    /// Sampled per-iteration span trees ([`RunConfig::sample_every`]),
    /// oldest evicted past [`MAX_ITERATION_PROFILES`]. Empty when
    /// sampling was off or a full profile was being collected instead.
    pub iteration_profiles: Vec<IterationProfile>,
}

/// One sampled iteration's span tree (see [`RunConfig::sample_every`]).
#[derive(Debug, Clone)]
pub struct IterationProfile {
    /// Zero-based index of the loop pass this trace covers.
    pub iteration: usize,
    /// The harvested `iteration` span tree
    /// (`train`/`execute`/`check`/`rank`/`remove` children).
    pub profile: rain_obs::TraceNode,
}

/// Most sampled iteration profiles retained per run (most recent win).
pub const MAX_ITERATION_PROFILES: usize = 8;

impl DebugReport {
    /// Recall@k curve of the removals against ground-truth corruptions.
    pub fn recall_curve(&self, truth: &[usize]) -> Vec<f64> {
        metrics::recall_curve(&self.removed, truth)
    }

    /// AUCCR against ground-truth corruptions.
    pub fn auccr(&self, truth: &[usize]) -> f64 {
        metrics::auccr(&self.removed, truth)
    }

    /// Mean per-iteration timing `(train, encode, rank)` in seconds.
    pub fn mean_timings(&self) -> (f64, f64, f64) {
        let n = self.iterations.len().max(1) as f64;
        let (mut t, mut e, mut r) = (0.0, 0.0, 0.0);
        for it in &self.iterations {
            t += it.train_s;
            e += it.encode_s;
            r += it.rank_s;
        }
        (t / n, e / n, r / n)
    }
}
