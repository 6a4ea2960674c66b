//! The train–rank–fix driver (paper §5.1).
//!
//! Each iteration (1) retrains the model — warm-started from the previous
//! iteration's parameters, as in appendix D — (2) re-executes every query
//! in debug mode, (3) checks the complaints, (4) ranks the current
//! training records with the chosen method, and (5) deletes the top-k.
//! The concatenation of the deleted batches is the explanation `D`; with
//! batch size k the driver runs `|D|/k` iterations (§5.1).
//!
//! Step (2) runs through the incremental subsystem: each query's
//! model-independent skeleton is prepared once per run, then per iteration
//! brought current (`catch_up`, a no-op unless a queried table moved) and
//! refreshed — bit-identical output to a full debug execution, at a
//! fraction of the per-iteration cost (see `rain_sql::incremental`).
//! [`RunConfig::incremental`]` = false` is the test oracle for that claim,
//! not a deployment choice.

use crate::complaint::QuerySpec;
use crate::metrics;
use crate::rank::{rank, Method, RankContext, RankError};
use crate::twostep::SqlStepConfig;
use rain_influence::InfluenceConfig;
use rain_model::{train_lbfgs, Classifier, Dataset, LbfgsConfig};
use rain_obs::{Span, Trace};
use rain_sql::{
    execute, prepare_with, Database, Engine, ExecOptions, PreparedQuery, QueryError, QueryOutput,
    QueryPlan,
};
use std::time::Instant;

// The serving layer moves sessions and their prepared state across
// threads (job-runner workers execute runs off the accept path); keep
// that guaranteed at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<DebugSession>();
    assert_send::<PreparedQueries>();
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
    /// is not read by [`DebugSession::run`]: a run ranks under
    /// [`RunConfig::threads`] like everything else it does.
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

    /// Attach a complained-about query (builder style).
    pub fn with_query(mut self, q: QuerySpec) -> Self {
        self.queries.push(q);
        self
    }

    /// Parse, bind, and optimize every attached query
    /// (`parser → binder → optimizer`); the returned plans are executed
    /// directly on each iteration of the loop.
    pub fn plan_queries(&self) -> Result<Vec<QueryPlan>, QueryError> {
        self.queries
            .iter()
            .map(|q| {
                let stmt = rain_sql::parse_select(&q.sql).map_err(QueryError::Parse)?;
                let bound = rain_sql::bind(&stmt, &self.db)?;
                Ok(rain_sql::optimize(bound, &self.db))
            })
            .collect()
    }

    /// Plan — and, when `incremental` is on, *prepare* — every attached
    /// query: the model-independent skeleton (joined candidate tuples,
    /// group partitions, provenance sums, feature bindings) is captured
    /// once under `threads` workers (`0` = auto, `1` = sequential), and
    /// each loop iteration re-runs only the model — a batched inference
    /// plus a discrete re-evaluation.
    ///
    /// The result is deliberately separable from the session: a serving
    /// layer keeps it (or the skeletons inside it, via its query cache)
    /// alive across runs, so a follow-up debug run skips planning and
    /// skeleton capture entirely.
    pub fn prepare_queries(
        &self,
        incremental: bool,
        threads: usize,
    ) -> Result<PreparedQueries, QueryError> {
        let t_prepare = Instant::now();
        let plans = self.plan_queries()?;
        let prepared: Vec<PreparedQuery> = if incremental {
            plans
                .iter()
                .map(|p| {
                    prepare_with(
                        &self.db,
                        self.model.as_ref(),
                        p,
                        Engine::Vectorized,
                        threads,
                    )
                })
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        Ok(PreparedQueries {
            plans,
            prepared,
            prepare_s: t_prepare.elapsed().as_secs_f64(),
        })
    }

    /// Run the train–rank–fix loop with one method.
    ///
    /// With [`RunConfig::profile`] on, the whole run — including the
    /// one-time plan/prepare — is one `debug-run` trace, and its tree
    /// lands in [`DebugReport::profile`].
    pub fn run(&self, method: Method, cfg: &RunConfig) -> Result<DebugReport, QueryError> {
        let trace = cfg.profile.then(|| Trace::start("debug-run"));
        let mut pq = {
            let _s = Span::enter("prepare-queries");
            self.prepare_queries(cfg.incremental, cfg.threads)?
        };
        self.run_loop(method, cfg, &mut pq, trace)
    }

    /// [`DebugSession::run`] against externally held planned/prepared
    /// state. `pq` is borrowed mutably because each iteration brings
    /// stale skeletons current first ([`PreparedQuery::catch_up`]) — a
    /// long-lived server's fix path may re-register queried tables
    /// between runs; inside the library loop fixes mutate only the
    /// training set, so rebuilds never trigger there.
    pub fn run_prepared(
        &self,
        method: Method,
        cfg: &RunConfig,
        pq: &mut PreparedQueries,
    ) -> Result<DebugReport, QueryError> {
        let trace = cfg.profile.then(|| Trace::start("debug-run"));
        self.run_loop(method, cfg, pq, trace)
    }

    /// The iteration loop shared by [`DebugSession::run`] and
    /// [`DebugSession::run_prepared`]; `trace` is the run's `debug-run`
    /// trace when it is profiled, finished into [`DebugReport::profile`].
    fn run_loop(
        &self,
        method: Method,
        cfg: &RunConfig,
        pq: &mut PreparedQueries,
        trace: Option<Trace>,
    ) -> Result<DebugReport, QueryError> {
        // The one-time plan/prepare cost is charged to the first
        // iteration's encode phase so incremental timing trajectories
        // stay cost-complete against full re-execution. (Taken, so state
        // reused across runs is not double-charged.)
        let mut pending_prepare_s = std::mem::take(&mut pq.prepare_s);
        let mut skeleton_rebuilds = 0usize;
        // Refresh-aware complaint checking: a query's debug output is a
        // pure function of the hard predictions over its variables (the
        // skeleton is fixed for the run), so if no prediction the query
        // depends on flipped this iteration, last iteration's
        // satisfied/violated verdict still stands. Model-free plans
        // (`QueryPlan::model_deps`) can never flip; model-dependent ones
        // are re-checked only when their prediction vector changed.
        let model_free: Vec<bool> = pq
            .plans
            .iter()
            .map(|p| p.model_deps().is_model_free())
            .collect();
        let mut last_verdict: Vec<Option<(Vec<usize>, bool)>> = vec![None; self.queries.len()];
        let mut model = self.model.clone();
        let mut train = self.train.clone();
        let mut removed: Vec<usize> = Vec::new();
        let mut iterations = Vec::new();
        let mut failure = None;
        let mut iteration_profiles = Vec::new();
        // Ranking works under the run's worker budget like everything
        // else, not under the session's stand-alone influence default.
        let influence = InfluenceConfig {
            threads: rain_sql::resolve_threads(cfg.threads),
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
                        max_iters: self.train_cfg.max_iters.min(60),
                        ..self.train_cfg.clone()
                    }
                };
                // (`train_lbfgs` opens the iteration's `train` span itself.)
                let report = train_lbfgs(model.as_mut(), &train, &warm);
                let train_s = t_train.elapsed().as_secs_f64();

                // (1-2) Execute the queries in debug mode under the run's
                // worker budget: refresh the prepared skeleton, or — the
                // `incremental: false` oracle — re-execute the plan in full.
                let t_exec = Instant::now();
                let mut outputs: Vec<QueryOutput> = Vec::with_capacity(pq.plans.len());
                {
                    // The sql layer's own spans (refresh/inference/re-eval,
                    // or scan/join/… on the full path) nest under this one.
                    let _s = Span::enter("execute");
                    for qi in 0..pq.plans.len() {
                        let out = match pq.prepared.get_mut(qi) {
                            None => execute(
                                &self.db,
                                model.as_ref(),
                                &pq.plans[qi],
                                ExecOptions::debug().with_threads(cfg.threads),
                            ),
                            Some(p) => p.catch_up(&self.db, model.as_ref(), cfg.threads).and_then(
                                |rebuilt| {
                                    skeleton_rebuilds += rebuilt as usize;
                                    p.refresh(&self.db, model.as_ref(), cfg.threads)
                                },
                            ),
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

                // (4) Rank.
                let sqlstep = SqlStepConfig {
                    seed: self.sqlstep.seed ^ (iterations.len() as u64).wrapping_mul(0x9E37),
                    ..self.sqlstep.clone()
                };
                let ctx = RankContext {
                    db: &self.db,
                    model: model.as_ref(),
                    train: &train,
                    outputs: &outputs,
                    queries: &self.queries,
                    influence: &influence,
                    sqlstep: &sqlstep,
                };
                let rank_span = Span::enter("rank");
                let ranking = match rank(method, &ctx) {
                    Ok(r) => r,
                    Err(e @ (RankError::IlpTimeout | RankError::Infeasible)) => {
                        failure = Some(e.to_string());
                        break 'iter true;
                    }
                };
                drop(rank_span);

                // (5) Remove the top-k.
                let k = cfg.k_per_iter.min(cfg.budget - removed.len());
                let batch: Vec<usize> = ranking.records.iter().take(k).map(|r| r.id).collect();
                if batch.is_empty() {
                    break 'iter true;
                }
                train = train.remove_ids(&batch);
                removed.extend(batch.iter().copied());
                iter_span.add("removed", batch.len() as u64);
                iterations.push(IterStats {
                    train_s,
                    encode_s: exec_s + ranking.encode_s + std::mem::take(&mut pending_prepare_s),
                    rank_s: ranking.rank_s,
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
            skeleton_rebuilds,
            failure,
            profile: trace.map(Trace::finish),
            iteration_profiles,
        })
    }
}

/// The planned (and optionally skeleton-prepared) form of a session's
/// queries: what [`DebugSession::run_prepared`] actually executes,
/// separable from the session so callers can keep it warm across runs.
#[derive(Debug, Clone)]
pub struct PreparedQueries {
    /// Optimized physical plan per attached query, in query order.
    pub plans: Vec<QueryPlan>,
    /// Prepared skeleton per query; empty = full re-execution per
    /// iteration (the `incremental: false` oracle path).
    pub prepared: Vec<PreparedQuery>,
    /// Seconds spent planning + preparing, charged to the first
    /// iteration's encode phase of the next run (then zeroed).
    prepare_s: f64,
}

impl PreparedQueries {
    /// Assemble from externally cached parts (e.g. skeletons checked out
    /// of a [`QueryCache`](rain_sql::QueryCache)); `prepared` must be
    /// empty or match `plans` element-wise.
    ///
    /// # Panics
    /// Panics on a length mismatch between non-empty `prepared` and
    /// `plans`.
    pub fn from_parts(plans: Vec<QueryPlan>, prepared: Vec<PreparedQuery>) -> Self {
        assert!(
            prepared.is_empty() || prepared.len() == plans.len(),
            "one prepared skeleton per plan"
        );
        PreparedQueries {
            plans,
            prepared,
            prepare_s: 0.0,
        }
    }

    /// Tear down into `(plans, prepared)` — the inverse of
    /// [`PreparedQueries::from_parts`], used to return skeletons to a
    /// cache after a run.
    pub fn into_parts(self) -> (Vec<QueryPlan>, Vec<PreparedQuery>) {
        (self.plans, self.prepared)
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
    /// the model-independent query skeleton is captured once per run and
    /// each iteration only refreshes predictions. Off = full debug-mode
    /// re-execution per iteration (the oracle path; output is identical).
    pub incremental: bool,
    /// Worker budget for morsel-parallel execution and batched refresh
    /// inference: `0` (the default) = the machine's available
    /// parallelism, `1` = fully sequential. Output is bit-identical at
    /// every setting; a server uses this as a per-session cap.
    pub threads: usize,
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
    /// that trace instead. Outputs are bit-identical at every setting. Default 16 (1-in-16); the serving
    /// layer overrides it per session.
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
            threads: 0,
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
    /// Stale query skeletons brought current during the run
    /// (non-zero only when queried tables changed under the session).
    pub skeleton_rebuilds: usize,
    /// Set when the method failed (e.g. TwoStep ILP timeout).
    pub failure: Option<String>,
    /// Span tree of the run — one `iteration` child per loop pass, each
    /// covering `train`/`execute`/`check`/`rank` (with the sql layer's
    /// operator and refresh spans nested below). `Some` only when
    /// [`RunConfig::profile`] was on.
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
    /// (`train`/`execute`/`check`/`rank` children).
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
