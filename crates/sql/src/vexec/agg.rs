//! Batch-wise aggregation over struct-of-arrays row sets.
//!
//! Two tiers, both yielding byte-identical [`QueryOutput`]s:
//!
//! - A **columnar fast path** for ungrouped, model-free aggregates in
//!   normal mode (`COUNT(*)`, `SUM/AVG(col)`): accumulates straight off
//!   the gathered column slices, skipping the per-tuple group machinery
//!   entirely. Accumulation order is tuple order, so float sums match
//!   the shared path bit for bit.
//! - The **shared finalizer** ([`eval::aggregate`]) for everything else
//!   (grouping, debug-mode provenance, `predict()` aggregates), fed
//!   through the [`Tuples`] sink without materializing per-tuple row
//!   vectors.

use super::batch::RowSet;
use super::morsel;
use crate::binder::{BoundAgg, BoundAggArg, GroupKey};
use crate::eval::{self, EvalCtx, Tuples};
use crate::exec::QueryOutput;
use crate::table::Table;
use crate::value::Value;
use crate::QueryError;

impl Tuples for RowSet {
    fn emit(mut self, sink: &mut crate::eval::TupleSink) -> Result<(), QueryError> {
        let n_rels = self.n_rels();
        let mut buf = vec![0u32; n_rels];
        for i in 0..self.len() {
            self.gather(i, &mut buf);
            let prov = self.take_prov(i);
            sink(&buf, prov)?;
        }
        Ok(())
    }
}

/// Aggregate a row set, taking a columnar fast path when it provably
/// matches the shared finalizer.
pub(crate) fn aggregate_rowset(
    ctx: &mut EvalCtx,
    rows: RowSet,
    keys: &[GroupKey],
    aggs: &[BoundAgg],
) -> Result<QueryOutput, QueryError> {
    let mut span = rain_obs::Span::enter("aggregate");
    span.add("rows_in", rows.len() as u64);
    if let Some(out) = grouped_fast_path(ctx, &rows, keys, aggs, &mut span)? {
        return Ok(out);
    }
    // Fast path: normal mode, one global group, model-free arguments.
    // (Scalar aggregate arguments are model-free by binder construction.)
    let fast = !ctx.debug
        && keys.is_empty()
        && aggs
            .iter()
            .all(|a| matches!(a.arg, BoundAggArg::CountStar | BoundAggArg::Scalar(_)));
    if !fast {
        return eval::aggregate(ctx, rows, keys, aggs);
    }

    let n = rows.len();
    let mut sums = vec![(0.0f64, 0usize); aggs.len()];
    let mut rows_buf = vec![0u32; rows.n_rels()];
    for (ai, agg) in aggs.iter().enumerate() {
        match &agg.arg {
            BoundAggArg::CountStar => {
                sums[ai] = (n as f64, n);
            }
            BoundAggArg::Scalar(e) => {
                // Plain column arguments accumulate off the typed slice;
                // anything else evaluates per tuple through the shared
                // evaluator (same order, same float-summation sequence).
                let (sum, cnt) = &mut sums[ai];
                match column_slice(ctx, &rows, e) {
                    Some(ColSlice::I64(rel, vals)) => {
                        for &r in rows.rel(rel) {
                            *sum += vals[r as usize] as f64;
                        }
                        *cnt = n;
                    }
                    Some(ColSlice::F64(rel, vals)) => {
                        for &r in rows.rel(rel) {
                            *sum += vals[r as usize];
                        }
                        *cnt = n;
                    }
                    None => {
                        for i in 0..n {
                            rows.gather(i, &mut rows_buf);
                            let v = ctx.eval_value(e, &rows_buf)?;
                            if let Some(f) = v.as_f64() {
                                *sum += f;
                                *cnt += 1;
                            }
                        }
                    }
                }
            }
            BoundAggArg::Predict { .. } | BoundAggArg::ScaledPredict { .. } => {
                unreachable!("fast path excludes model aggregates")
            }
        }
    }

    let mut table = Table::empty(eval::agg_schema(ctx, keys, aggs));
    let row: Vec<Value> = aggs
        .iter()
        .zip(&sums)
        .map(|(agg, &(sum, cnt))| eval::agg_value(agg.func, sum, cnt))
        .collect();
    table.push_row(row, None);
    Ok(QueryOutput {
        table,
        row_prov: Vec::new(),
        agg_cells: Vec::new(),
        n_key_cols: 0,
        predvars: std::mem::take(&mut ctx.reg),
    })
}

/// Vectorized grouped aggregation: normal mode, a single non-nullable
/// `Int` group key, and aggregate arguments readable straight off typed
/// column slices. Group ids come from one hash per tuple on the raw `i64`
/// key (no `Value`/`KeyVal` boxing per tuple), accumulation runs in tuple
/// order within each group, and groups are emitted in ascending key order
/// — exactly the shared finalizer's float-summation sequence and output
/// order, so results stay bit-identical (the grouped property suite in
/// `tests/properties.rs` pins this against the tuple oracle).
///
/// With a thread budget and enough tuples, grouping shards by **key
/// hash**: one morsel-parallel pass routes every tuple's key to one of
/// [`morsel::partition_count`] partitions (a function of the input size
/// only, so the traced plan shape is thread-independent), then one
/// worker per partition walks **all** tuples in order, accumulating only
/// the groups routed to it. Each group lives in exactly one partition
/// and sees its tuples in full tuple order, so every per-group float sum
/// is the sequential sum bit for bit; the merged groups sort ascending
/// by key like the sequential path. Per-partition spans land under the
/// `aggregate` span with deterministic indices.
///
/// Returns `None` when the shape doesn't fit, handing over to the shared
/// path.
fn grouped_fast_path(
    ctx: &mut EvalCtx,
    rows: &RowSet,
    keys: &[GroupKey],
    aggs: &[BoundAgg],
    agg_span: &mut rain_obs::Span,
) -> Result<Option<QueryOutput>, QueryError> {
    let [GroupKey::Col { rel, col, .. }] = keys else {
        return Ok(None);
    };
    if ctx.debug {
        return Ok(None);
    }
    let key_table = ctx.table_of(*rel);
    if key_table.null_mask(*col).is_some() {
        return Ok(None);
    }
    let Some(key_slice) = key_table.column(*col).as_i64s() else {
        return Ok(None);
    };
    // Every aggregate argument must gather from a typed slice; anything
    // else (expressions, model arguments, nullable columns) bails.
    let arg_slices: Option<Vec<Option<ColSlice>>> = aggs
        .iter()
        .map(|a| match &a.arg {
            BoundAggArg::CountStar => Some(None),
            BoundAggArg::Scalar(e) => column_slice(ctx, rows, e).map(Some),
            _ => None,
        })
        .collect();
    let Some(arg_slices) = arg_slices else {
        return Ok(None);
    };

    // Accumulate tuple `i` into one group's accumulator row. Shared by
    // the sequential pass and the per-partition workers — within a
    // group, both apply the same tuples in the same (full tuple) order,
    // so the float-summation sequence is identical.
    let accumulate = |acc: &mut [(f64, usize)], i: usize| {
        for (ai, slice) in arg_slices.iter().enumerate() {
            let (sum, cnt) = &mut acc[ai];
            match slice {
                None => {
                    *sum += 1.0;
                    *cnt += 1;
                }
                Some(ColSlice::I64(arel, vals)) => {
                    *sum += vals[rows.row(*arel, i) as usize] as f64;
                    *cnt += 1;
                }
                Some(ColSlice::F64(arel, vals)) => {
                    *sum += vals[rows.row(*arel, i) as usize];
                    *cnt += 1;
                }
            }
        }
    };

    // One accumulator row per group; `group_keys[g]` and `accs[g]` stay
    // index-aligned (discovery order is irrelevant — output sorts by key).
    let mut group_keys: Vec<i64> = Vec::new();
    let mut accs: Vec<Vec<(f64, usize)>> = Vec::new();
    let key_rows = rows.rel(*rel);
    let n = key_rows.len();
    if morsel::worth_parallel(ctx.threads, n) {
        let n_parts = morsel::partition_count(n);
        agg_span.add("partitions", n_parts as u64);
        // Phase 1: route each tuple's key to its partition,
        // morsel-parallel, emitting per-morsel index lists per partition
        // so phase 2 touches every tuple exactly once (a per-partition
        // scan over all tuples would cost O(partitions × n) in skips).
        let routed: Vec<Vec<Vec<u32>>> = morsel::run_morsels(ctx.threads, n, |start, end| {
            let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n_parts];
            for (i, &kr) in key_rows[start..end].iter().enumerate() {
                let p = morsel::part_of(&key_slice[kr as usize], n_parts);
                lists[p].push((start + i) as u32);
            }
            lists
        });
        // Phase 2: one worker per partition accumulates its own groups.
        // A partition's indices concatenate in morsel order — globally
        // ascending — so per-group accumulation order matches the
        // sequential pass and float sums stay bit-identical.
        let parts = morsel::run_tasks(ctx.threads, n_parts, |p| {
            let mut pspan = rain_obs::Span::enter_under(agg_span, "partition");
            pspan.add("index", p as u64);
            let mut group_of: std::collections::HashMap<i64, usize> =
                std::collections::HashMap::new();
            let mut pkeys: Vec<i64> = Vec::new();
            let mut paccs: Vec<Vec<(f64, usize)>> = Vec::new();
            let mut items = 0u64;
            for lists in &routed {
                for &i in &lists[p] {
                    let i = i as usize;
                    items += 1;
                    let k = key_slice[key_rows[i] as usize];
                    let gid = *group_of.entry(k).or_insert_with(|| {
                        pkeys.push(k);
                        paccs.push(vec![(0.0, 0); aggs.len()]);
                        paccs.len() - 1
                    });
                    accumulate(&mut paccs[gid], i);
                }
            }
            pspan.add("items", items);
            pspan.add("groups", pkeys.len() as u64);
            (pkeys, paccs)
        });
        for (pkeys, paccs) in parts {
            group_keys.extend(pkeys);
            accs.extend(paccs);
        }
    } else {
        let mut group_of: std::collections::HashMap<i64, usize> = std::collections::HashMap::new();
        for (i, &kr) in key_rows.iter().enumerate() {
            let k = key_slice[kr as usize];
            let gid = *group_of.entry(k).or_insert_with(|| {
                group_keys.push(k);
                accs.push(vec![(0.0, 0); aggs.len()]);
                accs.len() - 1
            });
            accumulate(&mut accs[gid], i);
        }
    }

    // Ascending key order = the shared path's sorted `KeyVal` order.
    let mut order: Vec<usize> = (0..group_keys.len()).collect();
    order.sort_by_key(|&g| group_keys[g]);

    let mut table = Table::empty(eval::agg_schema(ctx, keys, aggs));
    for g in order {
        let mut row = Vec::with_capacity(1 + aggs.len());
        row.push(Value::Int(group_keys[g]));
        for (agg, &(sum, cnt)) in aggs.iter().zip(&accs[g]) {
            row.push(eval::agg_value(agg.func, sum, cnt));
        }
        table.push_row(row, None);
    }
    Ok(Some(QueryOutput {
        table,
        row_prov: Vec::new(),
        agg_cells: Vec::new(),
        n_key_cols: 1,
        predvars: std::mem::take(&mut ctx.reg),
    }))
}

/// A numeric column slice usable for direct accumulation.
enum ColSlice<'a> {
    I64(usize, &'a [i64]),
    F64(usize, &'a [f64]),
}

fn column_slice<'a>(
    ctx: &EvalCtx<'a>,
    rows: &RowSet,
    e: &crate::binder::BExpr,
) -> Option<ColSlice<'a>> {
    let crate::binder::BExpr::Col { rel, col } = e else {
        return None;
    };
    if *rel >= rows.n_rels() {
        return None;
    }
    let table = ctx.table_of(*rel);
    if table.null_mask(*col).is_some() {
        return None;
    }
    let c = table.column(*col);
    c.as_i64s()
        .map(|v| ColSlice::I64(*rel, v))
        .or_else(|| c.as_f64s().map(|v| ColSlice::F64(*rel, v)))
}
