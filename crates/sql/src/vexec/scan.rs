//! Vectorized table scans: pushed-down filters evaluated batch by batch,
//! sharded across morsels when a thread budget allows.
//!
//! The scan walks the base table in [`BATCH_SIZE`] windows. Each pushed
//! filter is compiled once into a [`Kernel`]; per batch, each kernel
//! writes a mask over the live selection and `SelVec::retain_mask`
//! compacts it. Filters that do not compile (arithmetic shapes, nullable
//! columns) drop to the shared row-at-a-time evaluator for the surviving
//! rows — semantics are always those of `EvalCtx::eval_pred`.
//!
//! Scan filters are model-free by construction (the optimizer never
//! pushes a `predict()` atom), so they prune identically in normal and
//! debug mode and provenance is unaffected. Model-freeness is also what
//! makes the scan embarrassingly parallel: with `threads > 1` and a large
//! enough table, the row range is split into [`morsel`]s filtered by
//! scoped workers (each with its own scratch context — no prediction
//! variable can be created here) and the per-morsel selections are merged
//! in morsel order, yielding the exact sequential output.

use super::batch::{Batch, BATCH_SIZE};
use super::kernels::{Kernel, SelLookup};
use super::morsel;
use crate::binder::BExpr;
use crate::eval::{EvalCtx, Sym};
use crate::incremental::PipelineTrace;
use crate::table::Table;
use crate::QueryError;

/// Base-row ids of `rel` — from the context's scan floor
/// ([`EvalCtx::first_row_of`]) on — surviving its pushed-down scan
/// filters, in ascending order (the same survivors, in the same order, as
/// the tuple engine's scan — at every thread count, under either access
/// path). When a skeleton capture is in
/// flight, the post-filter selection vector's cardinality is recorded in
/// `trace` — the scan output *is* the model-independent selection the
/// prepared skeleton reuses across refreshes.
pub(crate) fn scan(
    ctx: &mut EvalCtx,
    rel: usize,
    trace: Option<&mut PipelineTrace>,
) -> Result<Vec<u32>, QueryError> {
    let out = scan_inner(ctx, rel)?;
    if let Some(t) = trace {
        t.scan_rows.push(out.len());
    }
    Ok(out)
}

fn scan_inner(ctx: &mut EvalCtx, rel: usize) -> Result<Vec<u32>, QueryError> {
    let table = ctx.table_of(rel);
    let n = table.n_rows();
    let first = ctx.first_row_of(rel).min(n);
    let query = ctx.query;
    let filters = &query.scan_filters[rel];
    let mut span = rain_obs::Span::enter("scan");
    span.add("rows_in", (n - first) as u64);
    if filters.is_empty() {
        span.add("rows_out", (n - first) as u64);
        return Ok((first as u32..n as u32).collect());
    }

    let tables: Vec<&Table> = query
        .rels
        .iter()
        .map(|r| ctx.db.table_by_id(r.id))
        .collect();

    // Index access path: resolve the plan's chosen index against the
    // live catalog and seed the selection from its postings instead of
    // walking the table. Any mismatch (index dropped, shape changed)
    // falls through to the sequential path below — same rows either way.
    if let Some(out) = index_scan(ctx, rel, first as u32, &tables, filters)? {
        span.add("rows_out", out.len() as u64);
        return Ok(out);
    }

    let compiled: Vec<Option<Kernel>> = filters
        .iter()
        .map(|f| super::kernels::compile(f, &tables))
        .collect();

    // Parallel path: shard the row range into morsels. Guarded on the
    // filters being model-free (always true for optimizer-built plans) so
    // a worker's scratch context can never observe or create prediction
    // variables — the workers only ever prune concretely.
    if morsel::worth_parallel(ctx.threads, n - first)
        && filters.iter().all(|f| !f.contains_predict())
    {
        let (db, model, debug) = (ctx.db, ctx.model, ctx.debug);
        let parts = morsel::run_morsels(ctx.threads, n - first, |start, end| {
            // Workers don't share the spawner's span stack; attach their
            // per-morsel timings to the scan span explicitly. The morsel
            // index is derived from the (deterministic) row range, not
            // from claim order, so traces of the same query agree on
            // which morsel is which across runs and thread interleavings.
            let mut mspan = rain_obs::Span::enter_under(&span, "morsel");
            mspan.add("index", (start / morsel::MORSEL_SIZE) as u64);
            mspan.add("items", (end - start) as u64);
            let mut wctx = EvalCtx::new(db, model, query, debug);
            scan_range(
                &mut wctx,
                rel,
                table,
                &tables,
                filters,
                &compiled,
                first + start,
                first + end,
            )
        });
        let out = morsel::concat_results(parts)?;
        span.add("rows_out", out.len() as u64);
        return Ok(out);
    }

    let out = scan_range(ctx, rel, table, &tables, filters, &compiled, first, n)?;
    span.add("rows_out", out.len() as u64);
    Ok(out)
}

/// Try to answer `rel`'s scan through the index access path the plan
/// chose. Returns `Ok(None)` when the plan has no index path for this
/// relation or the index cannot serve it (dropped from the catalog,
/// filter shape drifted) — the caller then runs the sequential scan,
/// which produces the identical row set.
///
/// The probe seeds the selection with the index's posting rows at or after
/// `first_row` (always ascending, i.e. scan order); the relation's *other* filters are then
/// applied to just those candidates, compiled kernels first and the
/// shared row-at-a-time evaluator as fallback — exactly the sequential
/// scan's semantics on a narrower row set.
fn index_scan(
    ctx: &mut EvalCtx,
    rel: usize,
    first_row: u32,
    tables: &[&Table],
    filters: &[BExpr],
) -> Result<Option<Vec<u32>>, QueryError> {
    use crate::ast::CmpOp;
    use crate::index::IndexKind;
    use crate::plan::AccessPath;

    let Some(&AccessPath::IndexScan { filter, col, kind }) = ctx.query.access.get(rel) else {
        return Ok(None);
    };
    let Some(f) = filters.get(filter) else {
        return Ok(None);
    };
    let Some((probe_col, op, lit)) = crate::cost::probe_shape(f) else {
        return Ok(None);
    };
    if probe_col != col {
        return Ok(None);
    }
    let db = ctx.db;
    let Some(ix) = db.index_on(ctx.query.rels[rel].id, col, kind) else {
        return Ok(None); // index dropped since planning: seq-scan fallback
    };
    let mut sel: Vec<u32> = match kind {
        IndexKind::Hash => {
            if op != CmpOp::Eq {
                return Ok(None);
            }
            match crate::eval::join_key(lit) {
                Some(key) => {
                    let rows = ix.lookup_eq(&key);
                    rows[rows.partition_point(|&r| r < first_row)..].to_vec()
                }
                // NULL/NaN literals compare equal to nothing.
                None => Vec::new(),
            }
        }
        IndexKind::Sorted => {
            let Some(v) = lit.as_f64() else {
                return Ok(None);
            };
            match op {
                CmpOp::Lt => ix.lookup_range(None, Some((v, false)), first_row),
                CmpOp::Le => ix.lookup_range(None, Some((v, true)), first_row),
                CmpOp::Gt => ix.lookup_range(Some((v, false)), None, first_row),
                CmpOp::Ge => ix.lookup_range(Some((v, true)), None, first_row),
                _ => return Ok(None),
            }
        }
    };
    let mut ispan = rain_obs::Span::enter("index-lookup");
    ispan.add("kind", kind.code() as u64);
    ispan.add("rows", sel.len() as u64);
    drop(ispan);

    // Apply the remaining filters to the candidates only.
    let mut mask: Vec<bool> = Vec::new();
    let mut rows_buf = vec![0u32; rel + 1];
    for (fi, f) in filters.iter().enumerate() {
        if fi == filter || sel.is_empty() {
            continue;
        }
        match super::kernels::compile(f, tables) {
            Some(kernel) => {
                kernel.eval(tables, &SelLookup(&sel), &mut mask);
                let mut keep = 0usize;
                for i in 0..sel.len() {
                    if mask[i] {
                        sel[keep] = sel[i];
                        keep += 1;
                    }
                }
                sel.truncate(keep);
            }
            None => {
                let mut err = None;
                sel.retain(|&r| {
                    if err.is_some() {
                        return false;
                    }
                    rows_buf[rel] = r;
                    match ctx.eval_pred(f, &rows_buf) {
                        Ok(Sym::Const(b)) => b,
                        Ok(Sym::Prov(p)) => p.eval_discrete(ctx.reg.preds()),
                        Err(e) => {
                            err = Some(e);
                            false
                        }
                    }
                });
                if let Some(e) = err {
                    return Err(e);
                }
            }
        }
    }
    Ok(Some(sel))
}

/// Filter the window `start..end` of `rel`'s base table, batch by batch,
/// returning the surviving row ids in ascending order. The unit of work
/// shared by the sequential scan (one call over the whole table) and the
/// parallel scan (one call per morsel, each with its own scratch `ctx`).
#[allow(clippy::too_many_arguments)]
fn scan_range(
    ctx: &mut EvalCtx,
    rel: usize,
    table: &Table,
    tables: &[&Table],
    filters: &[BExpr],
    compiled: &[Option<Kernel>],
    start: usize,
    end: usize,
) -> Result<Vec<u32>, QueryError> {
    let mut out = Vec::with_capacity(end - start);
    let mut mask: Vec<bool> = Vec::with_capacity(BATCH_SIZE);
    let mut rows_buf = vec![0u32; rel + 1];
    for batch_start in (start..end).step_by(BATCH_SIZE) {
        let batch_end = (batch_start + BATCH_SIZE).min(end);
        let mut batch = Batch::window(table, batch_start as u32, batch_end as u32);
        for (f, k) in filters.iter().zip(compiled) {
            if batch.sel.is_empty() {
                break;
            }
            match k {
                Some(kernel) => {
                    kernel.eval(tables, &SelLookup(batch.sel.ids()), &mut mask);
                    batch.sel.retain_mask(&mask);
                }
                None => {
                    // Row-at-a-time fallback with the shared evaluator
                    // (including its defensive symbolic branch).
                    let mut err = None;
                    batch.sel.retain_rows(|r| {
                        if err.is_some() {
                            return false;
                        }
                        rows_buf[rel] = r;
                        match ctx.eval_pred(f, &rows_buf) {
                            Ok(Sym::Const(b)) => b,
                            Ok(Sym::Prov(p)) => p.eval_discrete(ctx.reg.preds()),
                            Err(e) => {
                                err = Some(e);
                                false
                            }
                        }
                    });
                    if let Some(e) = err {
                        return Err(e);
                    }
                }
            }
        }
        out.extend_from_slice(batch.sel.ids());
    }
    Ok(out)
}
