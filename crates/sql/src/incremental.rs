//! Incremental per-iteration re-execution: **prepare** once, **refresh**
//! per model update.
//!
//! The train–rank–fix loop (paper §5.1) re-executes every complained-about
//! query in debug mode on each iteration, yet between iterations only the
//! model parameters change — the scan/join/group skeleton of each query is
//! bit-identical. In debug mode that skeleton is *fully* model-independent:
//!
//! - scan filters and residual model-free conjuncts prune concretely and
//!   never mention `predict()` (the optimizer never pushes a model atom);
//! - model atoms never prune — they only AND symbolic
//!   [`BoolProv`] atoms into tuple membership;
//! - prediction-variable ids are assigned in tuple-enumeration order,
//!   which depends only on the plan and the data, never on the params.
//!
//! So one debug execution splits into a *prepare* phase that materializes
//! a [`PreparedQuery`] — the joined candidate tuples with their membership
//! formulas, the group partitions with their provenance sums, and the
//! per-variable feature bindings that feed `predict()` — and a cheap
//! *refresh* phase that, given new model parameters, runs one **batched
//! inference** over the cached feature matrix
//! ([`Classifier::predict_range_into`]) and then discretely re-evaluates the
//! cached formulas to re-assemble the concrete rows, `ScalarResult`s, and
//! provenance polynomials of a full execution.
//!
//! Full debug-mode execution itself is routed through capture + refresh
//! (see `project` / `aggregate` in the evaluation core), so
//! there is exactly **one** output-assembly code path:
//! `refresh(θ) ≡ execute(θ)` holds by construction, and the randomized
//! differential suite (`tests/incremental_differential.rs`) pins it across
//! both engines, including prediction-variable ids and provenance.
//!
//! **Invalidation.** The skeleton is a cache over the *queried* tables.
//! Fixes in the loop mutate the training set, never the queried database,
//! so the driver can refresh for the whole run; [`PreparedQuery::refresh`]
//! still revalidates table versions and row counts and fails loudly if a
//! queried table moved since prepare. A caller whose tables *do* move — a
//! long-lived server, the driver between runs — calls
//! [`PreparedQuery::catch_up`] first: a no-op on a current skeleton, and
//! otherwise the one place a stale one is brought current.
//!
//! **Appends.** A skeleton whose plan's first (outermost) relation only
//! grew, every other relation unchanged, is *extended* over the appended
//! rows — single tables and joins alike — bit-identically to preparing
//! its plan from scratch; inner-relation appends, self-joins, replaced
//! tables and architecture changes re-prepare (see
//! [`PreparedQuery::catch_up`]).
//!
//! **Fan-out.** Inference starts a worker per full share of work
//! ([`rain_model::par`]); at served sizes that is the caller's thread
//! alone. The traced `inference` span's `workers` counter says which.

use crate::ast::AggFunc;
use crate::binder::{BExpr, BoundAgg, BoundAggArg, GroupKey, QueryKind};
use crate::catalog::{Database, TableId, TableVersion};
use crate::eval::{self, conjunct_footprints, keyval, keyval_to_value, EvalCtx, KeyVal, Tuples};
use crate::exec::{Engine, QueryOutput};
use crate::plan::QueryPlan;
use crate::predvar::{FeatureRows, PredVarRegistry};
use crate::prov::{AggSum, AggTerm, BoolProv, CellProv, VarId};
use crate::table::{Schema, Table};
use crate::value::Value;
use crate::QueryError;
use rain_linalg::Matrix;
use rain_model::Classifier;
use std::collections::HashMap;
use std::sync::Arc;

/// What the join pipeline saw while building the candidate set; captured
/// during prepare by both engines and surfaced in [`SkeletonStats`].
#[derive(Debug, Default)]
pub(crate) struct PipelineTrace {
    /// Scan survivors per relation, in scan order.
    pub(crate) scan_rows: Vec<usize>,
    /// `(strategy label, output tuples)` per join step.
    pub(crate) join_steps: Vec<(&'static str, usize)>,
}

/// One projected cell of one candidate tuple: either a model-independent
/// constant or a prediction variable whose class is the cell value.
#[derive(Debug, Clone)]
pub(crate) enum CellSkel {
    /// Model-free expression, evaluated once at capture time.
    Lit(Value),
    /// Bare `predict(alias)` select item.
    Pred(VarId),
}

/// One candidate tuple of a projection query.
#[derive(Debug, Clone)]
pub(crate) struct TupleSkel {
    /// Membership formula (constant true for model-free tuples).
    prov: BoolProv,
    /// Projected cells in select-list order.
    cells: Vec<CellSkel>,
}

/// Skeleton of a projection query: every candidate tuple, whether or not
/// it is concretely emitted under the current parameters.
#[derive(Debug, Clone)]
pub(crate) struct SelectSkeleton {
    schema: Schema,
    tuples: Vec<TupleSkel>,
}

/// One group partition of an aggregate query, with its full provenance.
#[derive(Debug, Clone)]
pub(crate) struct GroupSkel {
    /// Key values, already converted for output.
    key: Vec<Value>,
    /// Membership formula per candidate (tuple × class-combination); a
    /// group concretely exists iff any of these evaluates true.
    members: Vec<BoolProv>,
    /// Numerator provenance per aggregate (the `CellProv` sums). Behind
    /// `Arc` so every refresh emits the skeleton's sums by reference
    /// instead of cloning each cell's full term list.
    num: Vec<Arc<AggSum>>,
    /// Denominator provenance per AVG aggregate.
    den: Vec<Arc<AggSum>>,
}

/// Skeleton of an aggregate query: the group partitions in output order.
#[derive(Debug, Clone)]
pub(crate) struct AggSkeleton {
    schema: Schema,
    /// Aggregate functions in select-list order.
    funcs: Vec<AggFunc>,
    /// Number of leading group-key columns.
    n_keys: usize,
    /// True for ungrouped aggregates: the single global group is emitted
    /// even when no tuple concretely belongs to it.
    global: bool,
    /// Groups in sorted key order (the engines' output order).
    groups: Vec<GroupSkel>,
}

/// The model-independent finalization skeleton of one query.
#[derive(Debug, Clone)]
pub(crate) enum KindSkeleton {
    Select(SelectSkeleton),
    Aggregate(AggSkeleton),
}

/// Prepare-time facts about a skeleton, for introspection and benches.
#[derive(Debug, Clone, PartialEq)]
pub struct SkeletonStats {
    /// Engine that built the candidate set.
    pub engine: Engine,
    /// Scan survivors per relation.
    pub scan_rows: Vec<usize>,
    /// `(join strategy, output tuples)` per join step.
    pub join_steps: Vec<(&'static str, usize)>,
    /// Candidate tuples feeding the finalizer.
    pub candidate_tuples: usize,
    /// Prediction variables bound to the skeleton.
    pub n_vars: usize,
    /// True when no operator of the plan reads the model; refreshes of
    /// such a skeleton are pure re-emissions.
    pub model_free: bool,
}

/// How a prepared skeleton went stale relative to the live catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaleKind {
    /// A queried table was re-registered (or shrank): cached row
    /// identities no longer describe the data. Full re-prepare required.
    Replaced,
    /// Queried tables only grew by appends within the same generation:
    /// cached tuples are still valid, new rows are simply missing.
    /// [`PreparedQuery::catch_up`] extends the skeleton over just those
    /// rows when they were appended to the plan's first relation alone;
    /// otherwise it re-prepares.
    Appended,
}

/// A query prepared for incremental re-execution: the model-independent
/// skeleton plus the feature bindings needed to refresh predictions.
///
/// Build one with [`prepare`]; call [`PreparedQuery::refresh`] after every
/// parameter update. The refresh output is bit-identical to a fresh
/// debug-mode [`execute`](crate::exec::execute) under the same parameters.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    kind: KindSkeleton,
    /// The physical plan the skeleton was captured from, kept so a stale
    /// skeleton can be re-prepared ([`PreparedQuery::catch_up`]).
    plan: QueryPlan,
    /// The prepare-time registry, kept as a structurally shared template:
    /// each refresh derives its registry via
    /// [`PredVarRegistry::with_preds`] — same variables, same ids, fresh
    /// predictions, no per-variable allocation.
    reg: PredVarRegistry,
    /// One feature row per prediction variable, packed at prepare time so
    /// refresh inference is a single batched call.
    features: Matrix,
    /// Class count the skeleton's formulas were built for.
    n_classes: usize,
    /// What each plan relation's catalog entry looked like at capture,
    /// used to detect stale skeletons.
    rels: Vec<RelStamp>,
    /// The latest pipeline pass that created a prediction variable in any
    /// capture so far ([`EvalCtx::var_pass`]); decides whether an
    /// extension numbers its new variables as a fresh prepare would.
    var_pass: usize,
    stats: SkeletonStats,
}

/// One plan relation's catalog state as a skeleton last saw it.
#[derive(Debug, Clone)]
struct RelStamp {
    id: TableId,
    version: TableVersion,
    n_rows: usize,
    /// Secondary indexes on the table: the plan was costed against
    /// exactly these access paths.
    n_indexes: usize,
}

impl RelStamp {
    /// How the relation's table moved since the stamp, if it did.
    fn moved(&self, db: &Database) -> Option<StaleKind> {
        let now = db.table_version(self.id);
        let n_rows = db.table_by_id(self.id).n_rows();
        if now.gen != self.version.gen
            || n_rows < self.n_rows
            || db.index_count(self.id) != self.n_indexes
        {
            Some(StaleKind::Replaced)
        } else if now.delta != self.version.delta || n_rows != self.n_rows {
            Some(StaleKind::Appended)
        } else {
            None
        }
    }
}

fn rel_stamps(db: &Database, plan: &QueryPlan) -> Vec<RelStamp> {
    plan.rels
        .iter()
        .map(|r| RelStamp {
            id: r.id,
            version: db.table_version(r.id),
            n_rows: db.table_by_id(r.id).n_rows(),
            n_indexes: db.index_count(r.id),
        })
        .collect()
}

/// Execute the model-independent part of `plan` once (in debug mode, on
/// `engine`) and capture the reusable skeleton.
///
/// The model is needed for its architecture (class count, feature
/// dimension) and to seed the first predictions; its *parameters* do not
/// affect the captured structure. Capture runs with the machine's
/// available parallelism; use [`prepare_with`] to cap it.
pub fn prepare(
    db: &Database,
    model: &dyn Classifier,
    plan: &QueryPlan,
    engine: Engine,
) -> Result<PreparedQuery, QueryError> {
    prepare_with(db, model, plan, engine, 0)
}

/// [`prepare`] with an explicit worker budget for the capture pipeline
/// (`0` = auto, `1` = sequential). Thread count never changes the
/// captured skeleton — morsel outputs merge in deterministic order — it
/// only bounds how many cores the capture may occupy.
pub fn prepare_with(
    db: &Database,
    model: &dyn Classifier,
    plan: &QueryPlan,
    engine: Engine,
    threads: usize,
) -> Result<PreparedQuery, QueryError> {
    let mut prep_span = rain_obs::Span::enter("prepare");
    let mut ctx = EvalCtx::new(db, model, plan, true).with_threads(threads);
    let mut trace = PipelineTrace::default();
    let (kind, candidate_tuples) = capture_pipeline(&mut ctx, engine, &mut trace)?;

    let reg = std::mem::take(&mut ctx.reg);
    prep_span.add("candidate_tuples", candidate_tuples as u64);
    prep_span.add("n_vars", reg.len() as u64);
    let mut features = Matrix::zeros(0, model.dim());
    pack_features(&reg, db, &mut features)?;

    let stats = SkeletonStats {
        engine,
        scan_rows: trace.scan_rows,
        join_steps: trace.join_steps,
        candidate_tuples,
        n_vars: reg.len(),
        model_free: plan.model_deps().is_model_free(),
    };
    Ok(PreparedQuery {
        kind,
        plan: plan.clone(),
        reg,
        features,
        n_classes: model.n_classes(),
        rels: rel_stamps(db, plan),
        var_pass: ctx.var_pass,
        stats,
    })
}

/// The earliest pipeline pass of `plan` that can create a prediction
/// variable ([`EvalCtx::pass`]): that of its first model conjunct, or the
/// capture when only the output reads the model; `usize::MAX` for a
/// model-free plan. A conjunct applies as soon as every relation it reads
/// is joined: in pass `k + 1` when the last of them is the `k`-th (0-based).
fn first_var_pass(plan: &QueryPlan) -> usize {
    let deps = plan.model_deps();
    let footprints = conjunct_footprints(plan);
    deps.model_conjuncts
        .iter()
        .map(|&ci| footprints[ci].last().map_or(1, |&rel| rel + 1))
        .chain(deps.model_output.then_some(plan.rels.len() + 1))
        .min()
        .unwrap_or(usize::MAX)
}

/// Run `ctx`'s plan on `engine` from each relation's scan floor and
/// capture the finalization skeleton of what it yields.
fn capture_pipeline(
    ctx: &mut EvalCtx,
    engine: Engine,
    trace: &mut PipelineTrace,
) -> Result<(KindSkeleton, usize), QueryError> {
    let _cap = rain_obs::Span::enter("capture");
    let kind = &ctx.query.kind;
    let capture_pass = ctx.query.rels.len() + 1;
    match engine {
        Engine::Vectorized => {
            let rows = crate::vexec::join_pipeline(ctx, Some(trace))?;
            ctx.pass = capture_pass;
            capture(ctx, rows, kind)
        }
        Engine::Tuple => {
            let tuples = crate::exec::tuple_pipeline(ctx, Some(trace))?;
            ctx.pass = capture_pass;
            capture(ctx, tuples, kind)
        }
    }
}

/// Pack the feature row of every variable of `reg`
/// that `features` does not hold yet — all of them for a fresh prepare,
/// the new ones for an extension.
fn pack_features(
    reg: &PredVarRegistry,
    db: &Database,
    features: &mut Matrix,
) -> Result<(), QueryError> {
    let _feat_span = rain_obs::Span::enter("pack-features");
    let first = features.rows();
    features.reserve_rows(reg.len() - first);
    let mut rows = FeatureRows::new(db, reg);
    for var in first..reg.len() {
        let feat = rows.row(var as VarId);
        if feat.len() != features.cols() {
            return Err(QueryError::Exec(format!(
                "feature width {} of table {} does not match model dim {}",
                feat.len(),
                reg.info(var as VarId).table,
                features.cols()
            )));
        }
        features.push_row(feat);
    }
    Ok(())
}

impl PreparedQuery {
    /// Re-assemble the debug-mode [`QueryOutput`] under (possibly new)
    /// model parameters: one batched inference over the cached feature
    /// matrix, then a discrete re-evaluation of the cached formulas.
    /// Inference runs under a `threads` budget (`0` = auto, `1` =
    /// sequential), fanned out only over full shares of work
    /// ([`rain_model::par`]); output is bit-identical at every budget —
    /// shares write disjoint variable ranges and each prediction is a
    /// pure per-row function of the model.
    ///
    /// Strict: fails if the model architecture changed (class count,
    /// feature dimension) or a queried table moved since the skeleton was
    /// last brought current (it caches row identities). Call
    /// [`PreparedQuery::catch_up`] first wherever that can happen.
    pub fn refresh(
        &self,
        db: &Database,
        model: &dyn Classifier,
        threads: usize,
    ) -> Result<QueryOutput, QueryError> {
        if let Some(why) = self.staleness(db, model) {
            return Err(QueryError::Exec(why));
        }

        let mut refresh_span = rain_obs::Span::enter("refresh");
        refresh_span.add("n_vars", self.reg.len() as u64);
        let preds = predict_batch_sharded(model, &self.features, threads);
        let reg = self.reg.with_preds(preds);
        let _reeval = rain_obs::Span::enter("re-eval");
        Ok(match &self.kind {
            KindSkeleton::Select(s) => {
                let (table, row_prov) = refresh_select(s, reg.preds());
                QueryOutput {
                    table,
                    row_prov,
                    agg_cells: Vec::new(),
                    n_key_cols: 0,
                    predvars: reg,
                }
            }
            KindSkeleton::Aggregate(a) => {
                let (table, agg_cells) = refresh_groups(a, reg.preds());
                QueryOutput {
                    table,
                    row_prov: Vec::new(),
                    agg_cells,
                    n_key_cols: a.n_keys,
                    predvars: reg,
                }
            }
        })
    }

    /// Bring the skeleton current against `(db, model)`: `Ok(false)` and
    /// nothing done when it already is, `Ok(true)` when it was stale — a
    /// queried table appended to, re-registered or newly indexed, or a
    /// model of another architecture — and has been extended or rebuilt.
    ///
    /// When [`PreparedQuery::can_extend`] holds, the cached plan runs with
    /// its first relation's scan starting at the appended rows (every
    /// other relation scanned whole) and the captured delta is merged in,
    /// at a cost proportional to the append times what each new row joins
    /// with. The result is bit-identical to a fresh [`prepare`] of the
    /// kept plan: every join step emits in probe order, so candidates are
    /// ordered by the first relation's row and those of new rows follow
    /// all old ones; inner variables are found in the moved-in registry
    /// and new ones continue its id sequence. That is the fresh numbering
    /// provided the delta creates variables in no pass earlier than the
    /// latest one in which the skeleton's captures did
    /// ([`PreparedQuery::can_extend`]). The plan, and the join order and
    /// estimates in it, stay as of the last plan.
    ///
    /// Otherwise — an append to an inner relation (a self-join included),
    /// a re-registered table, a new index, a changed class count or
    /// feature width — the cached plan is re-prepared from row 0. That
    /// assumes replacement tables are schema-compatible with the bound
    /// plan (a column it reads must still exist with its type);
    /// incompatible ones surface as execution errors.
    pub fn catch_up(
        &mut self,
        db: &Database,
        model: &dyn Classifier,
        threads: usize,
    ) -> Result<bool, QueryError> {
        if self.staleness(db, model).is_none() {
            return Ok(false);
        }
        if !self.can_extend(db, model) {
            *self = prepare_with(db, model, &self.plan, self.stats.engine, threads)?;
            return Ok(true);
        }
        let mut span = rain_obs::Span::enter("extend");
        let old_rows = self.rels[0].n_rows;
        let mut ctx = EvalCtx::new(db, model, &self.plan, true).with_threads(threads);
        ctx.first_row = vec![old_rows];
        // Moved in, not cloned: new prediction variables continue the id
        // sequence, and the registry's shared parts are not copied.
        ctx.reg = std::mem::take(&mut self.reg);
        let old_vars = ctx.reg.len();
        let mut trace = PipelineTrace::default();
        let captured = capture_pipeline(&mut ctx, self.stats.engine, &mut trace);
        self.reg = std::mem::take(&mut ctx.reg);
        let (delta, new_tuples) = captured?;
        pack_features(&self.reg, db, &mut self.features)?;
        match (&mut self.kind, delta) {
            (KindSkeleton::Select(s), KindSkeleton::Select(d)) => s.tuples.extend(d.tuples),
            (KindSkeleton::Aggregate(a), KindSkeleton::Aggregate(d)) => {
                merge_groups(&mut a.groups, d.groups)
            }
            _ => unreachable!("one plan captures one kind of skeleton"),
        }
        // Inner relations were scanned whole again: their counts stand.
        // A join step's strategy follows the live tables, as a fresh
        // prepare's would.
        self.stats.scan_rows[0] += trace.scan_rows[0];
        for (step, (strategy, rows)) in self.stats.join_steps.iter_mut().zip(trace.join_steps) {
            *step = (strategy, step.1 + rows);
        }
        self.stats.candidate_tuples += new_tuples;
        self.stats.n_vars = self.reg.len();
        self.var_pass = self.var_pass.max(ctx.var_pass);
        self.rels = rel_stamps(db, &self.plan);
        span.add("delta_rows", (self.rels[0].n_rows - old_rows) as u64);
        span.add("new_tuples", new_tuples as u64);
        span.add("new_vars", (self.reg.len() - old_vars) as u64);
        Ok(true)
    }

    /// True when [`PreparedQuery::catch_up`] would extend this skeleton
    /// over appended rows instead of re-preparing it: the plan's first
    /// relation was only appended to ([`StaleKind::Appended`]), every
    /// other relation is unchanged — so a self-join never extends — and
    /// the model's architecture is the one captured.
    ///
    /// One more condition keeps variable ids those of a fresh prepare. Ids
    /// are handed out pass by pass over the candidate stream (the conjuncts
    /// applying after each join step, then the capture), so the delta may
    /// create variables only from the latest pass in which the skeleton's
    /// captures created one: a query whose variables all come from one
    /// pass always qualifies; `SELECT predict(a) .. WHERE (a.x > 1 OR
    /// predict(a) = 1)`, whose filter and capture both create some, does
    /// not.
    pub fn can_extend(&self, db: &Database, model: &dyn Classifier) -> bool {
        let Some((outer, inner)) = self.rels.split_first() else {
            return false;
        };
        outer.moved(db) == Some(StaleKind::Appended)
            && inner.iter().all(|rel| rel.moved(db).is_none())
            && model.n_classes() == self.n_classes
            && model.dim() == self.features.cols()
            && first_var_pass(&self.plan) >= self.var_pass
    }

    /// True when a queried table moved since the skeleton was last brought
    /// current (see [`PreparedQuery::stale_kind`]). Model-architecture
    /// staleness is checked separately at refresh time.
    pub fn is_stale(&self, db: &Database) -> bool {
        self.stale_rel(db).is_some()
    }

    /// How the catalog moved since the skeleton was last brought current,
    /// if it did.
    ///
    /// Distinguishes pure appends within the same generation
    /// ([`StaleKind::Appended`] — every cached tuple is still valid, only
    /// new rows arrived, which [`PreparedQuery::catch_up`] can scan alone)
    /// from everything that needs the query planned or captured afresh
    /// ([`StaleKind::Replaced`]): a re-registered table, whose cached row
    /// identities are meaningless, or a table whose set of indexes changed,
    /// whose plan was costed without an access path it could now use.
    pub fn stale_kind(&self, db: &Database) -> Option<StaleKind> {
        self.stale_rel(db).map(|(_, kind)| kind)
    }

    /// The first relation that makes this skeleton [`StaleKind::Replaced`],
    /// else the first one that was appended to.
    fn stale_rel(&self, db: &Database) -> Option<(TableId, StaleKind)> {
        let mut appended = None;
        for rel in &self.rels {
            match rel.moved(db) {
                Some(StaleKind::Replaced) => return Some((rel.id, StaleKind::Replaced)),
                Some(StaleKind::Appended) => {
                    appended.get_or_insert((rel.id, StaleKind::Appended));
                }
                None => {}
            }
        }
        appended
    }

    /// Why this skeleton cannot refresh against `(db, model)`, if anything.
    fn staleness(&self, db: &Database, model: &dyn Classifier) -> Option<String> {
        if model.n_classes() != self.n_classes {
            return Some(format!(
                "stale query skeleton: prepared for {} classes, model has {}",
                self.n_classes,
                model.n_classes()
            ));
        }
        if !self.reg.is_empty() && model.dim() != self.features.cols() {
            return Some(format!(
                "stale query skeleton: prepared for feature dim {}, model wants {}",
                self.features.cols(),
                model.dim()
            ));
        }
        self.stale_rel(db).map(|(id, _)| {
            format!(
                "stale query skeleton: table {} changed since prepare; \
                 re-prepare the query",
                db.name_of(id)
            )
        })
    }

    /// The packed feature matrix: one row per prediction variable, in
    /// variable-id order.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// The physical plan the skeleton was captured from.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// Prepare-time statistics (scan/join trace, candidate count, model
    /// dependence).
    pub fn stats(&self) -> &SkeletonStats {
        &self.stats
    }
}

/// Capture the finalization skeleton for a candidate tuple stream.
pub(crate) fn capture(
    ctx: &mut EvalCtx,
    tuples: impl Tuples,
    kind: &QueryKind,
) -> Result<(KindSkeleton, usize), QueryError> {
    Ok(match kind {
        QueryKind::Select { items } => {
            let s = capture_select(ctx, tuples, items)?;
            let n = s.tuples.len();
            (KindSkeleton::Select(s), n)
        }
        QueryKind::Aggregate { keys, aggs } => {
            let (a, n) = capture_groups(ctx, tuples, keys, aggs)?;
            (KindSkeleton::Aggregate(a), n)
        }
    })
}

/// Capture a projection skeleton: every candidate tuple's membership
/// formula plus its cells — model-free cells evaluated once, bare
/// `predict()` cells bound to their (stable) prediction variables.
///
/// Variable creation runs in candidate-tuple order for *all* candidates
/// (a tuple concretely excluded today may be emitted after retraining),
/// which is also what keeps ids refresh-stable.
pub(crate) fn capture_select(
    ctx: &mut EvalCtx,
    tuples: impl Tuples,
    items: &[(BExpr, String)],
) -> Result<SelectSkeleton, QueryError> {
    let mut schema = Schema::default();
    for (e, name) in items {
        eval::push_unique(&mut schema, name, ctx.infer_type(e));
    }
    let mut skel = Vec::new();
    tuples.emit(&mut |rows, prov| {
        let mut cells = Vec::with_capacity(items.len());
        for (e, _) in items {
            cells.push(match e {
                BExpr::Predict { rel } => CellSkel::Pred(ctx.var_of(*rel, rows[*rel])),
                // Model-free by binder construction (`predict()` must
                // appear bare in select lists), so this value can never
                // change across refreshes.
                other => CellSkel::Lit(ctx.eval_value(other, rows)?),
            });
        }
        skel.push(TupleSkel { prov, cells });
        Ok(())
    })?;
    Ok(SelectSkeleton {
        schema,
        tuples: skel,
    })
}

/// Emit the concrete projection rows of a skeleton under `preds`.
pub(crate) fn refresh_select(skel: &SelectSkeleton, preds: &[usize]) -> (Table, Vec<BoolProv>) {
    let mut table = Table::empty(skel.schema.clone());
    let mut row_prov = Vec::with_capacity(skel.tuples.len());
    for t in &skel.tuples {
        if !t.prov.eval_discrete(preds) {
            continue;
        }
        let row = t
            .cells
            .iter()
            .map(|c| match c {
                CellSkel::Lit(v) => v.clone(),
                CellSkel::Pred(var) => Value::Int(preds[*var as usize] as i64),
            })
            .collect();
        table.push_row(row, None);
        row_prov.push(t.prov.clone());
    }
    (table, row_prov)
}

/// Per-group accumulator while capturing.
#[derive(Debug, Default)]
struct GroupBuild {
    members: Vec<BoolProv>,
    num: Vec<AggSum>,
    den: Vec<AggSum>,
}

/// Capture an aggregation skeleton: the group partitions (predict keys
/// fanned out over every class, as debug mode requires) with the full
/// numerator/denominator provenance sums. Term order within each group is
/// candidate-tuple order, so refresh accumulates floats in exactly the
/// sequence a full execution would.
pub(crate) fn capture_groups(
    ctx: &mut EvalCtx,
    tuples: impl Tuples,
    keys: &[GroupKey],
    aggs: &[BoundAgg],
) -> Result<(AggSkeleton, usize), QueryError> {
    let mut groups: HashMap<Vec<KeyVal>, GroupBuild> = HashMap::new();
    let n_aggs = aggs.len();
    let new_acc = || GroupBuild {
        members: Vec::new(),
        num: vec![AggSum::default(); n_aggs],
        den: vec![AggSum::default(); n_aggs],
    };
    // A global aggregate always has its single group, even when empty.
    if keys.is_empty() {
        groups.insert(Vec::new(), new_acc());
    }
    let n_classes = ctx.model.n_classes();
    let mut candidates = 0usize;

    tuples.emit(&mut |rows, prov| {
        candidates += 1;
        // Resolve key parts; predict keys fan the tuple out per class.
        let mut col_parts: Vec<Option<KeyVal>> = Vec::with_capacity(keys.len());
        let mut pred_keys: Vec<(usize, VarId)> = Vec::new(); // (key position, var)
        for (pos, k) in keys.iter().enumerate() {
            match k {
                GroupKey::Col { rel, col, .. } => {
                    let v = ctx.table_of(*rel).value(rows[*rel] as usize, *col);
                    col_parts.push(Some(keyval(&v)));
                }
                GroupKey::Predict { rel } => {
                    let var = ctx.var_of(*rel, rows[*rel]);
                    pred_keys.push((pos, var));
                    col_parts.push(None);
                }
            }
        }

        for combo in eval::cartesian(n_classes, pred_keys.len()) {
            let mut key = Vec::with_capacity(keys.len());
            let mut membership = prov.clone();
            for (pos, part) in col_parts.iter().enumerate() {
                match part {
                    Some(kv) => key.push(kv.clone()),
                    None => {
                        let (idx, var) = pred_keys
                            .iter()
                            .enumerate()
                            .find_map(|(i, (p, v))| (*p == pos).then_some((i, *v)))
                            .expect("predict key present");
                        let class = combo[idx];
                        key.push(KeyVal::Int(class as i64));
                        membership =
                            BoolProv::and(vec![membership, BoolProv::PredIs { var, class }]);
                    }
                }
            }

            let acc = groups.entry(key).or_insert_with(new_acc);
            acc.members.push(membership.clone());
            for (ai, agg) in aggs.iter().enumerate() {
                // Term contributed by this tuple to aggregate `ai`; the
                // term itself is model-independent (weights and scalar
                // arguments never contain `predict()`).
                let term: Option<AggTerm> = match &agg.arg {
                    BoundAggArg::CountStar => Some(AggTerm::One),
                    BoundAggArg::Predict { rel } => {
                        Some(AggTerm::PredValue(ctx.var_of(*rel, rows[*rel])))
                    }
                    BoundAggArg::ScaledPredict { rel, factor } => {
                        let var = ctx.var_of(*rel, rows[*rel]);
                        let w = ctx.eval_value(factor, rows)?.as_f64().ok_or_else(|| {
                            QueryError::Exec("non-numeric factor in scaled predict".into())
                        })?;
                        Some(AggTerm::ScaledPred { var, weight: w })
                    }
                    BoundAggArg::Scalar(e) => ctx.eval_value(e, rows)?.as_f64().map(AggTerm::Const),
                };
                let Some(term) = term else {
                    continue; // NULL: skipped by SUM/AVG, as in SQL.
                };
                acc.num[ai].terms.push((membership.clone(), term));
                if agg.func == AggFunc::Avg {
                    acc.den[ai].terms.push((membership.clone(), AggTerm::One));
                }
            }
        }
        Ok(())
    })?;

    // Deterministic output order.
    let mut keys_sorted: Vec<Vec<KeyVal>> = groups.keys().cloned().collect();
    keys_sorted.sort();
    let sorted = keys_sorted
        .into_iter()
        .map(|k| {
            let b = groups.remove(&k).expect("group exists");
            GroupSkel {
                key: k.iter().map(keyval_to_value).collect(),
                members: b.members,
                num: b.num.into_iter().map(Arc::new).collect(),
                den: b.den.into_iter().map(Arc::new).collect(),
            }
        })
        .collect();

    Ok((
        AggSkeleton {
            schema: eval::agg_schema(ctx, keys, aggs),
            funcs: aggs.iter().map(|a| a.func).collect(),
            n_keys: keys.len(),
            global: keys.is_empty(),
            groups: sorted,
        },
        candidates,
    ))
}

/// Merge the groups captured over appended rows into a skeleton's: a key
/// already present gets the new members and terms appended (candidate
/// order, as a capture over the whole table would have pushed them), a new
/// key is inserted at its sorted position. Sums are grown through
/// [`Arc::make_mut`], so a [`QueryOutput`] still holding the old sums
/// never sees the new terms.
fn merge_groups(groups: &mut Vec<GroupSkel>, delta: Vec<GroupSkel>) {
    fn append(into: &mut [Arc<AggSum>], from: Vec<Arc<AggSum>>) {
        for (sum, new) in into.iter_mut().zip(from) {
            if !new.terms.is_empty() {
                Arc::make_mut(sum)
                    .terms
                    .extend(Arc::unwrap_or_clone(new).terms);
            }
        }
    }
    for d in delta {
        // `GroupSkel::key` holds output values; order them as capture did.
        let by_key = |g: &GroupSkel| g.key.iter().map(keyval).cmp(d.key.iter().map(keyval));
        match groups.binary_search_by(by_key) {
            Ok(i) => {
                let g = &mut groups[i];
                g.members.extend(d.members);
                append(&mut g.num, d.num);
                append(&mut g.den, d.den);
            }
            Err(i) => groups.insert(i, d),
        }
    }
}

/// Hard predictions for every feature row under a `threads` budget (`0` =
/// auto): the model's range kernel ([`Classifier::predict_range_into`])
/// per [`rain_model::par::shard_rows`] share of `rows × n_params` work.
fn predict_batch_sharded(model: &dyn Classifier, features: &Matrix, threads: usize) -> Vec<usize> {
    let mut span = rain_obs::Span::enter("inference");
    span.add("rows_in", features.rows() as u64);
    let mut preds = vec![0usize; features.rows()];
    let pass = |start, out: &mut [usize]| model.predict_range_into(features, start, out);
    rain_model::par::shard_rows(&mut span, &mut preds, model.n_params(), threads, pass);
    preds
}

/// The concrete value a term contributes under hard predictions.
fn term_value(term: &AggTerm, preds: &[usize]) -> f64 {
    match term {
        AggTerm::One => 1.0,
        AggTerm::Const(f) => *f,
        AggTerm::PredValue(var) => preds[*var as usize] as f64,
        AggTerm::ScaledPred { var, weight } => weight * preds[*var as usize] as f64,
    }
}

/// Emit the concrete aggregate rows (and per-cell provenance) of a
/// skeleton under `preds`.
pub(crate) fn refresh_groups(skel: &AggSkeleton, preds: &[usize]) -> (Table, Vec<Vec<CellProv>>) {
    let mut table = Table::empty(skel.schema.clone());
    let mut agg_cells = Vec::new();
    for g in &skel.groups {
        // Groups with no concrete member are not part of the concrete
        // result, except the global group of an ungrouped aggregate.
        let alive = g.members.iter().any(|m| m.eval_discrete(preds));
        if !alive && !skel.global {
            continue;
        }
        let mut row = g.key.clone();
        let mut cells = Vec::with_capacity(skel.funcs.len());
        for (ai, func) in skel.funcs.iter().enumerate() {
            let (mut sum, mut cnt) = (0.0f64, 0usize);
            for (membership, term) in &g.num[ai].terms {
                if membership.eval_discrete(preds) {
                    sum += term_value(term, preds);
                    cnt += 1;
                }
            }
            row.push(eval::agg_value(*func, sum, cnt));
            cells.push(match func {
                AggFunc::Avg => CellProv::Ratio(g.num[ai].clone(), g.den[ai].clone()),
                _ => CellProv::Sum(g.num[ai].clone()),
            });
        }
        table.push_row(row, None);
        agg_cells.push(cells);
    }
    (table, agg_cells)
}
