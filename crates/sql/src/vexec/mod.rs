//! `vexec` — the vectorized columnar execution engine.
//!
//! The default engine behind [`execute`](crate::exec::execute)
//! ([`Engine::Vectorized`](crate::exec::Engine)). Instead of driving one
//! tuple at a time through scan → join → filter, it works on columnar
//! batches end to end:
//!
//! - The **scan** walks each base table in [`batch::BATCH_SIZE`] windows,
//!   evaluating pushed-down filters with compiled predicate
//!   [`kernels`] over zero-copy typed column slices and compacting a
//!   selection vector ([`batch::SelVec`]).
//! - The **join** hash-joins on typed key columns (canonical-`f64`-bit
//!   and `&str` maps for single `Col = Col` keys; canonical key vectors
//!   otherwise — key equality always matches `=` semantics), emitting
//!   struct-of-arrays row sets ([`batch::RowSet`]) — no per-tuple
//!   row-vector allocations.
//! - **Residual conjuncts** vectorize while they stay model-free; from
//!   the first `predict()` conjunct on, tuples flow through the shared
//!   evaluator so prediction variables and provenance formulas are
//!   created in exactly the tuple engine's order.
//! - The **aggregator** accumulates ungrouped model-free aggregates
//!   straight off the column slices and bridges everything else into the
//!   shared finalizer.
//!
//! **Morsel parallelism.** With a thread budget
//! ([`ExecOptions::threads`](crate::exec::ExecOptions)) and large enough
//! inputs, scans and hash-join probes shard into contiguous *morsels*
//! executed by `std::thread::scope` workers and merged in morsel order —
//! the output stream is the sequential stream, bit for bit, at every
//! thread count. The model-dependent tail (prediction variables,
//! provenance, finalization) always runs sequentially on the caller's
//! thread, which is what keeps variable-creation order a pure function
//! of the plan and the data.
//!
//! **Provenance invariant.** Both engines share one evaluation core
//! (`eval`) and enumerate tuples in the same order, so debug-mode output
//! is *bit-identical*: same rows, same variable ids, same
//! [`BoolProv`] polynomials. The randomized differential suite
//! (`tests/vexec_differential.rs`) holds both engines to that — across
//! `threads ∈ {1, 2, 8}`.

pub mod batch;
pub mod kernels;

mod agg;
pub(crate) mod join;
pub(crate) mod morsel;
mod scan;

use crate::binder::{BExpr, QueryKind};
use crate::catalog::Database;
use crate::eval::{self, EvalCtx, Sym};
use crate::exec::{ExecOptions, QueryOutput};
use crate::incremental::PipelineTrace;
use crate::plan::QueryPlan;
use crate::prov::BoolProv;
use crate::table::{Column, Table};
use crate::QueryError;
use batch::RowSet;
use rain_model::Classifier;

/// Execute a plan on the vectorized engine (`opts.engine` is ignored —
/// the caller already dispatched; `debug` and `threads` apply).
pub(crate) fn run(
    db: &Database,
    model: &dyn Classifier,
    query: &QueryPlan,
    opts: &ExecOptions,
) -> Result<QueryOutput, QueryError> {
    let mut ctx = EvalCtx::new(db, model, query, opts.debug).with_threads(opts.threads);
    let rows = join_pipeline(&mut ctx, None)?;
    match &query.kind {
        QueryKind::Select { items } => project_rowset(&mut ctx, rows, items),
        QueryKind::Aggregate { keys, aggs } => agg::aggregate_rowset(&mut ctx, rows, keys, aggs),
    }
}

/// Build the joined candidate set with pushdown, mirroring the tuple
/// engine's schedule (scan order, equi-key selection, conjunct order).
/// With `trace`, records the per-relation scan selections and per-step
/// join strategies for skeleton capture ([`crate::incremental::prepare`]).
pub(crate) fn join_pipeline(
    ctx: &mut EvalCtx,
    mut trace: Option<&mut PipelineTrace>,
) -> Result<RowSet, QueryError> {
    let query = ctx.query;
    let debug = ctx.debug;
    let n_rels = query.rels.len();
    let mut applied = vec![false; query.conjuncts.len()];
    let footprints = eval::conjunct_footprints(query);

    let mut rows = RowSet::seed(scan::scan(ctx, 0, trace.as_deref_mut())?, debug);
    apply_conjuncts(ctx, &mut rows, &mut applied, &footprints, 1)?;

    for rel in 1..n_rels {
        let equi = eval::equi_keys(query, &applied, &footprints, rel);
        let right_rows = scan::scan(ctx, rel, trace.as_deref_mut())?;
        let mut join_span = rain_obs::Span::enter("join");
        join_span.add("rows_in", rows.len() as u64);
        join_span.add("right_rows", right_rows.len() as u64);
        let step;
        rows = if equi.is_empty() {
            step = "nested-loop";
            join::cross_join(rows, &right_rows, debug, ctx.threads)
        } else {
            for (_, _, ci) in &equi {
                applied[*ci] = true;
            }
            let keys: Vec<(BExpr, BExpr)> = equi.into_iter().map(|(le, re, _)| (le, re)).collect();
            // Index-nested-loop path: the plan picked it and the catalog
            // still has the hash index — otherwise fall back to the hash
            // join, which builds the identical per-key row lists itself.
            if let Some(ix) = inl_index(ctx.db, query, &keys, rel) {
                step = "index-nested-loop";
                join::inl_join(ctx, rows, &keys[0].0, ix)?
            } else {
                let (joined, strat) = join::hash_join(ctx, rows, &right_rows, &keys, rel)?;
                step = strat.describe();
                joined
            }
        };
        join_span.add("rows_out", rows.len() as u64);
        drop(join_span);
        if let Some(t) = trace.as_deref_mut() {
            t.join_steps.push((step, rows.len()));
        }
        apply_conjuncts(ctx, &mut rows, &mut applied, &footprints, rel + 1)?;
    }
    Ok(rows)
}

/// Resolve the index an [`JoinAlgo::IndexNestedLoop`] step should probe,
/// if the plan chose one for joining relation `rel` *and* the live
/// catalog can still serve it with the single-key shape the planner saw.
/// `None` means the hash join runs instead — same output either way.
fn inl_index<'a>(
    db: &'a Database,
    query: &QueryPlan,
    keys: &[(BExpr, BExpr)],
    rel: usize,
) -> Option<&'a crate::index::TableIndex> {
    use crate::plan::JoinAlgo;
    let JoinAlgo::IndexNestedLoop { col } = *query.join_algos.get(rel - 1)? else {
        return None;
    };
    let [(
        _,
        BExpr::Col {
            rel: brel,
            col: bcol,
        },
    )] = keys
    else {
        return None;
    };
    if *brel != rel || *bcol != col {
        return None;
    }
    db.index_on(query.rels[rel].id, col, crate::index::IndexKind::Hash)
}

/// Apply every not-yet-applied conjunct whose footprint fits in the first
/// `in_scope` relations. Model-free conjuncts preceding the first model
/// conjunct filter vectorized (kernel masks over the row set); the rest
/// run per tuple through the shared evaluator, preserving the tuple
/// engine's variable-creation and provenance order exactly.
fn apply_conjuncts(
    ctx: &mut EvalCtx,
    rows: &mut RowSet,
    applied: &mut [bool],
    footprints: &[std::collections::BTreeSet<usize>],
    in_scope: usize,
) -> Result<(), QueryError> {
    let query = ctx.query;
    let todo: Vec<usize> = (0..applied.len())
        .filter(|&ci| !applied[ci] && footprints[ci].iter().all(|&r| r < in_scope))
        .collect();
    if todo.is_empty() {
        return Ok(());
    }
    for &ci in &todo {
        applied[ci] = true;
    }
    ctx.pass = in_scope;
    let mut span = rain_obs::Span::enter("filter");
    span.add("rows_in", rows.len() as u64);

    // The vectorizable prefix: model-free conjuncts up to the first one
    // that can create prediction variables. (A model conjunct must see
    // every tuple that survived the conjuncts *before* it — and none
    // that a *later* conjunct would have pruned first.)
    let split = todo
        .iter()
        .position(|&ci| query.conjuncts[ci].contains_predict())
        .unwrap_or(todo.len());
    let (prefix, suffix) = todo.split_at(split);

    let tables: Vec<&Table> = query
        .rels
        .iter()
        .map(|r| ctx.db.table_by_id(r.id))
        .collect();
    let mut mask: Vec<bool> = Vec::new();
    for &ci in prefix {
        if rows.is_empty() {
            break;
        }
        let c = &query.conjuncts[ci];
        match kernels::compile(c, &tables) {
            Some(kernel) => {
                kernel.eval(&tables, &*rows, &mut mask);
                rows.retain_mask(&mask);
            }
            None => filter_scalar(ctx, rows, c)?,
        }
    }

    if suffix.is_empty() || rows.is_empty() {
        span.add("rows_out", rows.len() as u64);
        return Ok(());
    }
    // Per-tuple tail: identical control flow to the tuple engine.
    let n_rels = rows.n_rels();
    let mut buf = vec![0u32; n_rels];
    let mut write = 0;
    let n = rows.len();
    for i in 0..n {
        rows.gather(i, &mut buf);
        let mut prov = rows.take_prov(i);
        let mut keep = true;
        for &ci in suffix {
            match ctx.eval_pred(&query.conjuncts[ci], &buf)? {
                Sym::Const(false) => {
                    keep = false;
                    break;
                }
                Sym::Const(true) => {}
                Sym::Prov(f) => {
                    if ctx.debug {
                        prov = BoolProv::and(vec![prov, f]);
                    } else if !f.eval_discrete(ctx.reg.preds()) {
                        keep = false;
                        break;
                    }
                }
            }
        }
        if keep {
            rows.move_tuple(write, i);
            rows.set_prov(write, prov);
            write += 1;
        }
    }
    rows.truncate(write);
    span.add("rows_out", rows.len() as u64);
    Ok(())
}

/// Scalar fallback for a model-free conjunct with no kernel: evaluate per
/// tuple through the shared evaluator and compact in place. With a thread
/// budget and enough tuples, the keep-mask evaluates morsel-parallel in
/// scratch contexts (the conjunct is model-free, so workers create no
/// prediction variables) and the compaction applies it in tuple order —
/// the surviving sequence is the sequential one, bit for bit.
fn filter_scalar(ctx: &mut EvalCtx, rows: &mut RowSet, c: &BExpr) -> Result<(), QueryError> {
    let n_rels = rows.n_rels();
    let n = rows.len();
    if morsel::worth_parallel(ctx.threads, n) && !c.contains_predict() {
        let (db, model, query, debug) = (ctx.db, ctx.model, ctx.query, ctx.debug);
        let rows_ref = &*rows;
        let parts = morsel::run_morsels(ctx.threads, n, |start, end| {
            let mut wctx = EvalCtx::new(db, model, query, debug);
            let mut buf = vec![0u32; n_rels];
            let mut keep = Vec::with_capacity(end - start);
            for i in start..end {
                rows_ref.gather(i, &mut buf);
                keep.push(match wctx.eval_pred(c, &buf)? {
                    Sym::Const(b) => b,
                    // Defensive: model-free conjuncts fold to constants.
                    Sym::Prov(f) => f.eval_discrete(wctx.reg.preds()),
                });
            }
            Ok::<_, QueryError>(keep)
        });
        let mask = morsel::concat_results(parts)?;
        rows.retain_mask(&mask);
        return Ok(());
    }
    let mut buf = vec![0u32; n_rels];
    let mut write = 0;
    for i in 0..n {
        rows.gather(i, &mut buf);
        let keep = match ctx.eval_pred(c, &buf)? {
            Sym::Const(b) => b,
            // Defensive: model-free conjuncts always fold to constants.
            Sym::Prov(f) => f.eval_discrete(ctx.reg.preds()),
        };
        if keep {
            rows.move_tuple(write, i);
            write += 1;
        }
    }
    rows.truncate(write);
    Ok(())
}

/// Project a row set. Plain-column select lists in normal mode gather
/// output columns directly from the typed slices; everything else (debug
/// mode, expressions, `predict()` outputs) goes through the shared
/// finalizer.
fn project_rowset(
    ctx: &mut EvalCtx,
    rows: RowSet,
    items: &[(BExpr, String)],
) -> Result<QueryOutput, QueryError> {
    let mut span = rain_obs::Span::enter("project");
    span.add("rows_in", rows.len() as u64);
    let fast = !ctx.debug
        && items.iter().all(|(e, _)| {
            let BExpr::Col { rel, col } = e else {
                return false;
            };
            ctx.table_of(*rel).null_mask(*col).is_none()
        });
    if !fast {
        return eval::project(ctx, rows, items);
    }

    let mut schema = crate::table::Schema::default();
    for (e, name) in items {
        eval::push_unique(&mut schema, name, ctx.infer_type(e));
    }
    let columns: Vec<Column> = items
        .iter()
        .map(|(e, _)| {
            let BExpr::Col { rel, col } = e else {
                unreachable!("fast path is column-only")
            };
            gather_column(ctx.table_of(*rel).column(*col), rows.rel(*rel))
        })
        .collect();
    Ok(QueryOutput {
        table: Table::from_columns(schema, columns),
        row_prov: Vec::new(),
        agg_cells: Vec::new(),
        n_key_cols: 0,
        predvars: std::mem::take(&mut ctx.reg),
    })
}

/// Gather `src[rows[i]]` into a fresh output column.
fn gather_column(src: &Column, rows: &[u32]) -> Column {
    match src {
        Column::Bool(v) => Column::Bool(rows.iter().map(|&r| v[r as usize]).collect()),
        Column::Int(v) => Column::Int(rows.iter().map(|&r| v[r as usize]).collect()),
        Column::Float(v) => Column::Float(rows.iter().map(|&r| v[r as usize]).collect()),
        Column::Str(v) => Column::Str(rows.iter().map(|&r| v[r as usize].clone()).collect()),
    }
}
