//! SPJA execution with optional provenance capture ("debug mode", §5.1).
//!
//! Two engines sit behind [`execute`], selected by [`ExecOptions::engine`]:
//!
//! - [`Engine::Vectorized`] (the default) — the columnar batch engine in
//!   [`vexec`](crate::vexec): selection-vector scans with predicate
//!   kernels, hash joins over typed key columns, struct-of-arrays joined
//!   tuples.
//! - [`Engine::Tuple`] — the original tuple-at-a-time engine below, kept
//!   as the semantic oracle for differential testing.
//!
//! Both engines share one evaluation core (the crate-private `eval`
//! module), so results *and* provenance polynomials are bit-identical: same rows,
//! same prediction-variable ids, same formulas. The randomized
//! differential suite (`tests/vexec_differential.rs`) enforces this.
//!
//! The two execution modes share one code path:
//!
//! - **Normal mode** evaluates model predicates with the classifier's hard
//!   (argmax) predictions and keeps no lineage.
//! - **Debug mode** keeps, for every tuple, a [`BoolProv`] membership
//!   formula over prediction variables. Concretely-false *model-independent*
//!   predicates still prune (their truth can never change by retraining),
//!   but tuples failing only *model* predicates survive symbolically — they
//!   are exactly the tuples a complaint fix may need to flip into (or out
//!   of) the result.
//!
//! Aggregate cells are emitted as [`CellProv`] sums/ratios over the
//! candidate tuples, which downstream crates relax (Holistic) or linearize
//! into an ILP (TwoStep).

use crate::ast::SelectStmt;
use crate::binder::bind;
use crate::catalog::Database;
use crate::eval::{self, EvalCtx, Sym, Tup};
use crate::optimize::optimize;
use crate::plan::QueryPlan;
use crate::predvar::PredVarRegistry;
use crate::prov::{BoolProv, CellProv};
use crate::table::Table;
use crate::value::Value;
use crate::QueryError;
use rain_model::Classifier;
use std::collections::HashMap;

/// Which execution engine runs the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Columnar batch execution ([`vexec`](crate::vexec)): the default.
    #[default]
    Vectorized,
    /// Tuple-at-a-time execution: the differential-testing oracle.
    Tuple,
}

/// Execution options.
///
/// Built fluently: start from [`ExecOptions::default`] (or the
/// [`ExecOptions::debug`] / [`ExecOptions::with_debug`] constructors) and
/// chain [`on`](ExecOptions::on) / [`with_threads`](ExecOptions::with_threads).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    /// Capture provenance (the paper's "debug mode" re-execution).
    pub debug: bool,
    /// Engine selection (vectorized unless overridden).
    pub engine: Engine,
    /// Worker threads for morsel-parallel execution on the vectorized
    /// engine: `0` (the default) resolves to the machine's available
    /// parallelism, `1` runs fully sequentially (the pre-parallel
    /// behavior). The tuple oracle always runs single-threaded.
    pub threads: usize,
}

impl ExecOptions {
    /// Debug (provenance-capturing) execution on the default engine.
    pub fn debug() -> Self {
        ExecOptions {
            debug: true,
            ..ExecOptions::default()
        }
    }

    /// Options with an explicit debug flag on the default engine.
    pub fn with_debug(debug: bool) -> Self {
        ExecOptions {
            debug,
            ..ExecOptions::default()
        }
    }

    /// The same options with a worker-thread budget (`0` = auto, `1` =
    /// sequential).
    pub fn with_threads(self, threads: usize) -> Self {
        ExecOptions { threads, ..self }
    }

    /// The same options pinned to a specific engine.
    pub fn on(self, engine: Engine) -> Self {
        ExecOptions { engine, ..self }
    }
}

/// `0` = the machine's parallelism (read once per process), else at most
/// [`MAX_EXEC_THREADS`]; see [`rain_model::par`].
pub use rain_model::par::{resolve_threads, MAX_THREADS as MAX_EXEC_THREADS};

/// The scalar of a one-row, one-aggregate output — typed so callers can
/// tell "no rows" from "a NULL cell" (both used to collapse to `None`).
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarResult {
    /// Exactly one row with a non-NULL cell.
    Value(Value),
    /// Exactly one row whose cell is SQL NULL.
    Null,
    /// The right shape (one value column), but zero rows.
    NoRows,
    /// Not a one-row-one-value output shape (multiple rows or columns).
    NonScalar,
}

impl ScalarResult {
    /// The scalar, if the query produced exactly one non-NULL value.
    pub fn value(self) -> Option<Value> {
        match self {
            ScalarResult::Value(v) => Some(v),
            _ => None,
        }
    }

    /// Unwrap the scalar value.
    ///
    /// # Panics
    /// Panics (with the actual shape) when the output was not a single
    /// non-NULL value.
    pub fn unwrap(self) -> Value {
        match self {
            ScalarResult::Value(v) => v,
            other => panic!("expected a scalar value, got {other:?}"),
        }
    }
}

/// The result of executing a query.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Concrete result table (identical across modes and engines).
    pub table: Table,
    /// Membership formula per output row (debug mode, non-aggregate
    /// queries; empty otherwise).
    pub row_prov: Vec<BoolProv>,
    /// Provenance per output row and aggregate column (debug mode,
    /// aggregate queries; empty otherwise). Indexed `[row][agg]`.
    pub agg_cells: Vec<Vec<CellProv>>,
    /// For aggregate outputs: number of leading group-key columns before
    /// the aggregate columns.
    pub n_key_cols: usize,
    /// Prediction variables created during execution.
    pub predvars: PredVarRegistry,
}

impl QueryOutput {
    /// The single scalar of a one-row one-aggregate query, distinguishing
    /// a NULL cell from an empty result.
    pub fn scalar(&self) -> ScalarResult {
        if self.table.schema().len() != self.n_key_cols + 1 {
            return ScalarResult::NonScalar;
        }
        match self.table.n_rows() {
            0 => ScalarResult::NoRows,
            1 => match self.table.value(0, self.n_key_cols) {
                Value::Null => ScalarResult::Null,
                v => ScalarResult::Value(v),
            },
            _ => ScalarResult::NonScalar,
        }
    }
}

/// Parse, bind, and execute a SQL string.
pub fn run_query(
    db: &Database,
    model: &dyn Classifier,
    sql: &str,
    opts: ExecOptions,
) -> Result<QueryOutput, QueryError> {
    let stmt = {
        let _s = rain_obs::Span::enter("parse");
        crate::parser::parse_select(sql).map_err(QueryError::Parse)?
    };
    run_stmt(db, model, &stmt, opts)
}

/// Bind, optimize, and execute a parsed statement
/// (`binder → optimizer → executor`).
pub fn run_stmt(
    db: &Database,
    model: &dyn Classifier,
    stmt: &SelectStmt,
    opts: ExecOptions,
) -> Result<QueryOutput, QueryError> {
    let bound = {
        let _s = rain_obs::Span::enter("bind");
        bind(stmt, db).map_err(QueryError::Bind)?
    };
    let plan = {
        let _s = rain_obs::Span::enter("optimize");
        optimize(bound, db)
    };
    execute(db, model, &plan, opts)
}

/// Execute a physical plan on the engine selected by `opts`. The plan
/// must have been bound against `db` (table ids are resolved through it).
pub fn execute(
    db: &Database,
    model: &dyn Classifier,
    query: &QueryPlan,
    opts: ExecOptions,
) -> Result<QueryOutput, QueryError> {
    debug_assert!(
        query
            .rels
            .iter()
            .all(|r| db.resolve(&r.table) == Some(r.id)),
        "plan was bound against a different database"
    );
    match opts.engine {
        Engine::Vectorized => crate::vexec::run(db, model, query, &opts),
        Engine::Tuple => {
            // The oracle stays single-threaded regardless of `threads`.
            let mut ctx = EvalCtx::new(db, model, query, opts.debug);
            let tuples = tuple_pipeline(&mut ctx, None)?;
            let _s = rain_obs::Span::enter("finalize");
            eval::finalize(&mut ctx, tuples, &query.kind)
        }
    }
}

/// Build the tuple engine's joined candidate set (scan → hash-join →
/// residual filters), optionally tracing scan selections and join steps
/// for skeleton capture ([`crate::incremental::prepare`] on
/// [`Engine::Tuple`]).
pub(crate) fn tuple_pipeline(
    ctx: &mut EvalCtx,
    trace: Option<&mut crate::incremental::PipelineTrace>,
) -> Result<Vec<Tup>, QueryError> {
    TupleExec { ctx, trace }.join_pipeline()
}

/// The tuple-at-a-time engine: materialized `Vec<Tup>` row sets driven
/// through scan → hash-join → residual-filter stages.
struct TupleExec<'a, 'b> {
    ctx: &'b mut EvalCtx<'a>,
    trace: Option<&'b mut crate::incremental::PipelineTrace>,
}

impl<'a, 'b> TupleExec<'a, 'b> {
    /// Base-row ids of `rel` surviving its pushed-down scan filters.
    /// Scan filters are model-free by construction (the optimizer never
    /// pushes a `predict()` atom), so they evaluate concretely and prune
    /// identically in normal and debug mode — provenance is unaffected.
    fn scan(&mut self, rel: usize) -> Result<Vec<u32>, QueryError> {
        let mut span = rain_obs::Span::enter("scan");
        let n = self.ctx.table_of(rel).n_rows();
        span.add(
            "rows_in",
            n.saturating_sub(self.ctx.first_row_of(rel)) as u64,
        );
        let out = self.scan_inner(rel)?;
        span.add("rows_out", out.len() as u64);
        if let Some(t) = self.trace.as_deref_mut() {
            t.scan_rows.push(out.len());
        }
        Ok(out)
    }

    fn scan_inner(&mut self, rel: usize) -> Result<Vec<u32>, QueryError> {
        let n = self.ctx.table_of(rel).n_rows();
        let first = self.ctx.first_row_of(rel).min(n);
        if self.ctx.query.scan_filters[rel].is_empty() {
            return Ok((first as u32..n as u32).collect());
        }
        // `ctx.query` is a shared reference with its own lifetime, so
        // reading expressions through a hoisted copy of it does not hold
        // a borrow of `self` — no per-row clones needed.
        let query = self.ctx.query;
        let mut rows_buf = vec![0u32; rel + 1];
        let mut out = Vec::with_capacity(n - first);
        'row: for r in first..n {
            rows_buf[rel] = r as u32;
            for f in &query.scan_filters[rel] {
                match self.ctx.eval_pred(f, &rows_buf)? {
                    Sym::Const(false) => continue 'row,
                    Sym::Const(true) => {}
                    // Unreachable for optimizer-built plans; evaluate
                    // discretely as a defensive fallback (identical in
                    // both modes for a concrete model).
                    Sym::Prov(p) => {
                        if !p.eval_discrete(self.ctx.reg.preds()) {
                            continue 'row;
                        }
                    }
                }
            }
            out.push(r as u32);
        }
        Ok(out)
    }

    /// Build the joined candidate-tuple set with pushdown.
    fn join_pipeline(&mut self) -> Result<Vec<Tup>, QueryError> {
        let n_rels = self.ctx.query.rels.len();
        let n_conj = self.ctx.query.conjuncts.len();
        let mut applied = vec![false; n_conj];
        let footprints = eval::conjunct_footprints(self.ctx.query);

        // Seed with relation 0's scan (pushed-down filters applied).
        let mut tuples: Vec<Tup> = self
            .scan(0)?
            .into_iter()
            .map(|r| Tup {
                rows: vec![r],
                prov: BoolProv::Const(true),
            })
            .collect();
        tuples = self.apply_conjuncts(tuples, &mut applied, &footprints, 1)?;

        for rel in 1..n_rels {
            // Equi-join keys available for hash joining into `rel`.
            let equi = eval::equi_keys(self.ctx.query, &applied, &footprints, rel);

            // Scan the new relation once: pushed-down filters prune its
            // base rows before any join work (hash build or cross loop).
            let right_rows = self.scan(rel)?;
            let mut join_span = rain_obs::Span::enter("join");
            join_span.add("rows_in", tuples.len() as u64);
            let mut joined = Vec::new();
            if equi.is_empty() {
                // Nested-loop cross join; remaining conjuncts filter below.
                joined.reserve(tuples.len().saturating_mul(right_rows.len().max(1)));
                for t in &tuples {
                    for &r in &right_rows {
                        let mut rows = t.rows.clone();
                        rows.push(r);
                        joined.push(Tup {
                            rows,
                            prov: t.prov.clone(),
                        });
                    }
                }
            } else {
                for (_, _, ci) in &equi {
                    applied[*ci] = true;
                }
                // Hash the new relation on its key expressions. Keys are
                // canonicalized so hash equality matches `=` semantics
                // (NULL/NaN keys match nothing and are skipped).
                let mut index: HashMap<Vec<eval::JoinKey>, Vec<u32>> = HashMap::new();
                let mut probe_rows = vec![0u32; rel + 1];
                for &r in &right_rows {
                    // Position `rel` must be addressable; pad with a
                    // sentinel row vector of the right length.
                    probe_rows[rel] = r;
                    let mut key = Vec::with_capacity(equi.len());
                    for (_, re, _) in &equi {
                        match eval::join_key(&self.ctx.eval_value(re, &probe_rows)?) {
                            Some(k) => key.push(k),
                            None => break,
                        }
                    }
                    if key.len() == equi.len() {
                        index.entry(key).or_default().push(r);
                    }
                }
                'probe: for t in &tuples {
                    let mut key = Vec::with_capacity(equi.len());
                    for (le, _, _) in &equi {
                        match eval::join_key(&self.ctx.eval_value(le, &t.rows)?) {
                            Some(k) => key.push(k),
                            None => continue 'probe,
                        }
                    }
                    if let Some(rows) = index.get(&key) {
                        for &r in rows {
                            let mut new_rows = t.rows.clone();
                            new_rows.push(r);
                            joined.push(Tup {
                                rows: new_rows,
                                prov: t.prov.clone(),
                            });
                        }
                    }
                }
            }
            join_span.add("rows_out", joined.len() as u64);
            drop(join_span);
            if let Some(t) = self.trace.as_deref_mut() {
                t.join_steps.push((
                    if equi.is_empty() {
                        "nested-loop"
                    } else {
                        "hash"
                    },
                    joined.len(),
                ));
            }
            tuples = self.apply_conjuncts(joined, &mut applied, &footprints, rel + 1)?;
        }
        Ok(tuples)
    }

    /// Apply every not-yet-applied conjunct whose footprint fits in the
    /// first `in_scope` relations.
    fn apply_conjuncts(
        &mut self,
        tuples: Vec<Tup>,
        applied: &mut [bool],
        footprints: &[std::collections::BTreeSet<usize>],
        in_scope: usize,
    ) -> Result<Vec<Tup>, QueryError> {
        let todo: Vec<usize> = (0..applied.len())
            .filter(|&ci| !applied[ci] && footprints[ci].iter().all(|&r| r < in_scope))
            .collect();
        if todo.is_empty() {
            return Ok(tuples);
        }
        for &ci in &todo {
            applied[ci] = true;
        }
        self.ctx.pass = in_scope;
        let mut span = rain_obs::Span::enter("filter");
        span.add("rows_in", tuples.len() as u64);
        let query = self.ctx.query;
        let mut out = Vec::with_capacity(tuples.len());
        'tuple: for mut t in tuples {
            for &ci in &todo {
                match self.ctx.eval_pred(&query.conjuncts[ci], &t.rows)? {
                    Sym::Const(false) => continue 'tuple,
                    Sym::Const(true) => {}
                    Sym::Prov(f) => {
                        if self.ctx.debug {
                            t.prov = BoolProv::and(vec![t.prov, f]);
                        } else if !f.eval_discrete(self.ctx.reg.preds()) {
                            continue 'tuple;
                        }
                    }
                }
            }
            out.push(t);
        }
        span.add("rows_out", out.len() as u64);
        Ok(out)
    }
}
