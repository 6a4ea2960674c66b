//! Vectorized joins over struct-of-arrays row sets.
//!
//! The hash join builds over the new relation's (already scan-filtered)
//! base rows and probes with the accumulated tuples, exactly like the
//! tuple engine — build entries in scan order, probes in tuple order —
//! so the joined tuple sequence is identical. What changes is the data
//! plane: single-column `Col = Col` keys hash canonical key values read
//! straight off the typed column slices (numerics as canonical `f64`
//! bits, strings as `&str`) instead of allocating a key vector per row,
//! and output tuples append to per-relation columns instead of cloning
//! row vectors.
//!
//! With a thread budget and enough accumulated tuples, the **probe**
//! phase shards into [`morsel`]s against the shared read-only build
//! table: each worker probes its tuple range into a private row set and
//! the per-morsel outputs merge in morsel order, reproducing the
//! sequential probe sequence exactly (rows and provenance).
//!
//! A large enough **build** side shards too, by key hash: one
//! morsel-parallel pass extracts every build key and routes it to one of
//! [`morsel::partition_count`] partitions (a function of the build size
//! only, so the traced plan shape is thread-independent), then one
//! worker per partition fills its private sub-table by walking the
//! routed keys **in scan order**. Each key lives in exactly one
//! partition, so every per-key row list is the sequential build's list —
//! the merged [`PartitionedIndex`] answers probes identically, and
//! NULL/NaN keys are skipped during routing exactly as the sequential
//! build skips them. Cross joins shard over the accumulated tuples the
//! same way the probe does.
//!
//! Key equality matches the `=` predicate exactly (the shared
//! [`join_key`] canonicalization): every numeric type compares as `f64`
//! — so `3 = 3.0` hash-matches — while NULL and NaN keys match nothing
//! and are skipped during build and probe. A string-vs-numeric key pair
//! can never compare equal, so those joins short-circuit to an empty
//! result. [`strategy`] classifies a key set once; the dispatch below
//! and `EXPLAIN`'s annotation both consume the same classification.

use super::batch::RowSet;
use super::kernels::NumCol;
use super::morsel;
use super::morsel::part_of;
use crate::binder::BExpr;
use crate::eval::{f64_key_bits, join_key, EvalCtx, JoinKey};
use crate::index::TableIndex;
use crate::table::{ColType, Table};
use crate::QueryError;
use std::collections::HashMap;
use std::hash::Hash;

/// How a hash join will key one join step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Strategy {
    /// Single `Col = Col` key, both numeric: canonical-f64-bit map over
    /// the typed slices.
    TypedNum,
    /// Single `Col = Col` key, both strings: `&str` map over the slices.
    TypedStr,
    /// Single `Col = Col` key of incomparable types (string vs numeric):
    /// no pair can satisfy `=`, the join is empty.
    Disjoint,
    /// Anything else (multi-key, expression keys, nullable columns):
    /// canonical [`JoinKey`] vectors through the shared evaluator.
    General,
}

impl Strategy {
    /// Label used by `EXPLAIN`.
    pub(crate) fn describe(self) -> &'static str {
        match self {
            Strategy::TypedNum => "hash(num)",
            Strategy::TypedStr => "hash(str)",
            Strategy::Disjoint => "hash(disjoint: empty)",
            Strategy::General => "hash(general)",
        }
    }
}

/// Classify how `keys` will be executed against the plan's tables.
pub(crate) fn strategy(tables: &[&Table], keys: &[(BExpr, BExpr)]) -> Strategy {
    let [(BExpr::Col { rel: lr, col: lc }, BExpr::Col { rel: rr, col: rc })] = keys else {
        return Strategy::General;
    };
    let (lt, rt) = (tables[*lr], tables[*rr]);
    if lt.null_mask(*lc).is_some() || rt.null_mask(*rc).is_some() {
        return Strategy::General;
    }
    let numeric = |t: ColType| matches!(t, ColType::Int | ColType::Float | ColType::Bool);
    let (lty, rty) = (lt.schema().col(*lc).ty, rt.schema().col(*rc).ty);
    match (numeric(lty), numeric(rty)) {
        (true, true) => Strategy::TypedNum,
        (false, false) => Strategy::TypedStr, // both Str: the only non-numeric type
        _ => Strategy::Disjoint,
    }
}

/// Nested-loop cross join (no usable equi keys): every accumulated tuple
/// against every scanned base row, in order. With a thread budget and
/// enough accumulated tuples the expansion shards into [`morsel`]s over
/// the left side (per-morsel outputs merge in morsel order), so the
/// joined sequence is identical at every thread count.
pub(crate) fn cross_join(left: RowSet, right_rows: &[u32], debug: bool, threads: usize) -> RowSet {
    let n = left.len();
    let mut span = rain_obs::Span::enter("cross");
    span.add("rows_in", n as u64);
    let expand = |start: usize, end: usize| {
        let mut out = RowSet::with_rels(left.n_rels() + 1, debug);
        for i in start..end {
            for &r in right_rows {
                out.push_joined(&left, i, r);
            }
        }
        out
    };
    let out = if morsel::worth_parallel(threads, n) {
        let parts = morsel::run_morsels(threads, n, |start, end| {
            let mut mspan = rain_obs::Span::enter_under(&span, "morsel");
            mspan.add("index", (start / morsel::MORSEL_SIZE) as u64);
            mspan.add("items", (end - start) as u64);
            expand(start, end)
        });
        let mut out = RowSet::with_rels(left.n_rels() + 1, debug);
        for p in parts {
            out.append(p);
        }
        out
    } else {
        expand(0, n)
    };
    span.add("rows_out", out.len() as u64);
    out
}

/// A hash-join build table, sharded by key hash. One partition means the
/// build ran sequentially; probes route a key to its partition and look
/// it up there. Because every key lives in exactly one partition and each
/// partition is filled in scan order, the per-key row lists — and thus
/// every probe result — are identical to a sequential single-map build.
struct PartitionedIndex<K> {
    parts: Vec<HashMap<K, Vec<u32>>>,
}

impl<K: Hash + Eq> PartitionedIndex<K> {
    fn get(&self, k: &K) -> Option<&Vec<u32>> {
        let p = if self.parts.len() == 1 {
            0
        } else {
            part_of(k, self.parts.len())
        };
        self.parts[p].get(k)
    }
}

/// Phase 2 of a parallel build: given per-morsel `(row, key)` lists per
/// partition (each list in scan order), fill each partition's sub-table
/// with one worker per partition. A partition's entries concatenate in
/// morsel order — scan order — so every per-key row list is identical to
/// a sequential build's, and each worker touches only its own rows (a
/// per-partition scan over all routed keys would cost
/// O(partitions × rows) in skips). Partition spans carry their
/// (deterministic) partition index.
fn fill_partitions<K>(
    threads: usize,
    routed: &[Vec<Vec<(u32, K)>>],
    n_parts: usize,
    build_span: &rain_obs::Span,
) -> Vec<HashMap<K, Vec<u32>>>
where
    K: Hash + Eq + Clone + Send + Sync,
{
    morsel::run_tasks(threads, n_parts, |p| {
        let mut pspan = rain_obs::Span::enter_under(build_span, "partition");
        pspan.add("index", p as u64);
        let mut map: HashMap<K, Vec<u32>> = HashMap::new();
        let mut items = 0u64;
        for lists in routed {
            for (r, k) in &lists[p] {
                map.entry(k.clone()).or_default().push(*r);
                items += 1;
            }
        }
        pspan.add("items", items);
        map
    })
}

/// Build the hash index over `right_rows` with `build_key`, sharding by
/// key hash when the build side and thread budget warrant it. A `None`
/// key (NULL/NaN) matches nothing and is skipped — in the parallel build
/// it is dropped during routing, before any partition sees it, exactly
/// mirroring the sequential skip.
fn build_index<K>(
    right_rows: &[u32],
    threads: usize,
    build_key: impl Fn(usize) -> Option<K> + Sync,
) -> PartitionedIndex<K>
where
    K: Hash + Eq + Clone + Send + Sync,
{
    let mut build_span = rain_obs::Span::enter("build");
    build_span.add("rows_in", right_rows.len() as u64);
    let n = right_rows.len();
    if !morsel::worth_parallel(threads, n) {
        let mut index: HashMap<K, Vec<u32>> = HashMap::with_capacity(n);
        for &r in right_rows {
            if let Some(k) = build_key(r as usize) {
                index.entry(k).or_default().push(r);
            }
        }
        return PartitionedIndex { parts: vec![index] };
    }
    let n_parts = morsel::partition_count(n);
    build_span.add("partitions", n_parts as u64);
    // Phase 1: morsel-parallel key extraction and partition routing. A
    // NULL/NaN key is dropped here, before any partition sees it.
    let routed: Vec<Vec<Vec<(u32, K)>>> = morsel::run_morsels(threads, n, |start, end| {
        let mut lists: Vec<Vec<(u32, K)>> = vec![Vec::new(); n_parts];
        for &r in &right_rows[start..end] {
            if let Some(k) = build_key(r as usize) {
                lists[part_of(&k, n_parts)].push((r, k));
            }
        }
        lists
    });
    let parts = fill_partitions(threads, &routed, n_parts, &build_span);
    PartitionedIndex { parts }
}

/// Hash join of the accumulated tuples with relation `rel` on the given
/// `(probe expr, build expr)` key pairs. Returns the joined row set plus
/// the [`Strategy`] that executed it, so callers capturing a query
/// skeleton can record how each step's match lists were built.
pub(crate) fn hash_join(
    ctx: &mut EvalCtx,
    left: RowSet,
    right_rows: &[u32],
    keys: &[(BExpr, BExpr)],
    rel: usize,
) -> Result<(RowSet, Strategy), QueryError> {
    let debug = ctx.debug;
    let threads = ctx.threads;
    let tables: Vec<&Table> = ctx
        .query
        .rels
        .iter()
        .map(|r| ctx.db.table_by_id(r.id))
        .collect();
    let strat = strategy(&tables, keys);
    let rows = match strat {
        Strategy::Disjoint => RowSet::with_rels(left.n_rels() + 1, debug),
        Strategy::TypedNum => {
            let [(BExpr::Col { rel: lr, col: lc }, BExpr::Col { col: rc, .. })] = keys else {
                unreachable!("classified as typed")
            };
            let build = NumCol::of(tables[rel], *rc).expect("numeric column");
            let probe = NumCol::of(tables[*lr], *lc).expect("numeric column");
            // NaN keys match nothing: skipped on both sides.
            typed_join(
                left,
                right_rows,
                debug,
                threads,
                |r| {
                    let v = build.get(r);
                    (!v.is_nan()).then(|| f64_key_bits(v))
                },
                |i, l| {
                    let v = probe.get(l.row(*lr, i) as usize);
                    (!v.is_nan()).then(|| f64_key_bits(v))
                },
            )
        }
        Strategy::TypedStr => {
            let [(BExpr::Col { rel: lr, col: lc }, BExpr::Col { col: rc, .. })] = keys else {
                unreachable!("classified as typed")
            };
            let build = tables[rel].column(*rc).as_strs().expect("string column");
            let probe = tables[*lr].column(*lc).as_strs().expect("string column");
            typed_join(
                left,
                right_rows,
                debug,
                threads,
                |r| Some(build[r].as_str()),
                |i, l| Some(probe[l.row(*lr, i) as usize].as_str()),
            )
        }
        Strategy::General => {
            // Arbitrary key expressions through the shared scalar
            // evaluator into canonical key vectors (identical to the
            // tuple engine, NULL/NaN skipping included). Equi keys are
            // model-free by construction (`equi_keys` never selects a
            // `predict()` conjunct), so parallel build and probe workers
            // can evaluate them in scratch contexts; guard anyway so a
            // hand-built plan degrades to the sequential path instead of
            // splitting variable creation across workers.
            let model_free = keys
                .iter()
                .all(|(le, re)| !le.contains_predict() && !re.contains_predict());
            let index = general_build(ctx, right_rows, keys, rel, threads, model_free)?;
            let n = left.len();
            let mut probe_span = rain_obs::Span::enter("probe");
            probe_span.add("rows_in", n as u64);
            let out = if morsel::worth_parallel(threads, n) && model_free {
                let (db, model, query) = (ctx.db, ctx.model, ctx.query);
                let index_ref = &index;
                let left_ref = &left;
                let parts = morsel::run_morsels(threads, n, |start, end| {
                    let mut mspan = rain_obs::Span::enter_under(&probe_span, "morsel");
                    mspan.add("index", (start / morsel::MORSEL_SIZE) as u64);
                    mspan.add("items", (end - start) as u64);
                    let mut wctx = EvalCtx::new(db, model, query, debug);
                    general_probe(&mut wctx, left_ref, keys, index_ref, start, end)
                });
                let mut out = RowSet::with_rels(left.n_rels() + 1, debug);
                for p in parts {
                    out.append(p?);
                }
                out
            } else {
                general_probe(ctx, &left, keys, &index, 0, n)?
            };
            probe_span.add("rows_out", out.len() as u64);
            out
        }
    };
    Ok((rows, strat))
}

/// Index-nested-loop join: instead of building a transient hash table
/// over the inner relation, probe the catalog's persistent hash
/// [`TableIndex`] directly. The index maps canonical [`JoinKey`]s to
/// posting lists in ascending row order — exactly the per-key row lists
/// a hash-join build over the unfiltered scan produces — and NULL/NaN
/// keys are absent on both sides, so the joined tuple sequence is
/// bit-identical to [`hash_join`]'s. Probes shard into [`morsel`]s over
/// the accumulated tuples just like the hash-join probe.
pub(crate) fn inl_join(
    ctx: &mut EvalCtx,
    left: RowSet,
    probe: &BExpr,
    index: &TableIndex,
) -> Result<RowSet, QueryError> {
    let debug = ctx.debug;
    let threads = ctx.threads;
    let n = left.len();
    let mut probe_span = rain_obs::Span::enter("probe");
    probe_span.add("rows_in", n as u64);
    // Equi keys are model-free by construction; guard anyway so a
    // hand-built plan degrades to the sequential path.
    let out = if morsel::worth_parallel(threads, n) && !probe.contains_predict() {
        let (db, model, query) = (ctx.db, ctx.model, ctx.query);
        let left_ref = &left;
        let parts = morsel::run_morsels(threads, n, |start, end| {
            let mut mspan = rain_obs::Span::enter_under(&probe_span, "morsel");
            mspan.add("index", (start / morsel::MORSEL_SIZE) as u64);
            mspan.add("items", (end - start) as u64);
            let mut wctx = EvalCtx::new(db, model, query, debug);
            inl_probe(&mut wctx, left_ref, probe, index, start, end)
        });
        let mut out = RowSet::with_rels(left.n_rels() + 1, debug);
        for p in parts {
            out.append(p?);
        }
        out
    } else {
        inl_probe(ctx, &left, probe, index, 0, n)?
    };
    probe_span.add("rows_out", out.len() as u64);
    Ok(out)
}

/// Probe tuples `start..end` of `left` against the persistent hash
/// index, in order — the shared unit of the sequential and the
/// morsel-parallel index-nested-loop probe.
fn inl_probe(
    ctx: &mut EvalCtx,
    left: &RowSet,
    probe: &BExpr,
    index: &TableIndex,
    start: usize,
    end: usize,
) -> Result<RowSet, QueryError> {
    let mut out = RowSet::with_rels(left.n_rels() + 1, ctx.debug);
    let mut rows_buf = vec![0u32; left.n_rels()];
    for i in start..end {
        left.gather(i, &mut rows_buf);
        if let Some(key) = join_key(&ctx.eval_value(probe, &rows_buf)?) {
            for &r in index.lookup_eq(&key) {
                out.push_joined(left, i, r);
            }
        }
    }
    Ok(out)
}

/// Evaluate the build-side key of base row `r` into its canonical key
/// vector — `None` as soon as any part is NULL/NaN (the row matches
/// nothing and is skipped), exactly like the tuple engine.
fn general_build_key(
    ctx: &mut EvalCtx,
    keys: &[(BExpr, BExpr)],
    probe_rows: &mut [u32],
    rel: usize,
    r: u32,
) -> Result<Option<Vec<JoinKey>>, QueryError> {
    probe_rows[rel] = r;
    let mut key = Vec::with_capacity(keys.len());
    for (_, re) in keys {
        match join_key(&ctx.eval_value(re, probe_rows)?) {
            Some(k) => key.push(k),
            None => return Ok(None),
        }
    }
    Ok(Some(key))
}

/// Build the general-strategy hash index: sequential with the caller's
/// context when the build side is small (or a key could touch the
/// model), hash-partitioned across workers otherwise — phase 1 evaluates
/// and routes keys morsel-parallel in scratch contexts, phase 2 fills
/// one sub-table per partition in scan order ([`fill_partitions`]).
fn general_build(
    ctx: &mut EvalCtx,
    right_rows: &[u32],
    keys: &[(BExpr, BExpr)],
    rel: usize,
    threads: usize,
    model_free: bool,
) -> Result<PartitionedIndex<Vec<JoinKey>>, QueryError> {
    let mut build_span = rain_obs::Span::enter("build");
    build_span.add("rows_in", right_rows.len() as u64);
    let n = right_rows.len();
    if !morsel::worth_parallel(threads, n) || !model_free {
        let mut index: HashMap<Vec<JoinKey>, Vec<u32>> = HashMap::new();
        let mut probe_rows = vec![0u32; rel + 1];
        for &r in right_rows {
            if let Some(key) = general_build_key(ctx, keys, &mut probe_rows, rel, r)? {
                index.entry(key).or_default().push(r);
            }
        }
        return Ok(PartitionedIndex { parts: vec![index] });
    }
    let n_parts = morsel::partition_count(n);
    build_span.add("partitions", n_parts as u64);
    let debug = ctx.debug;
    let (db, model, query) = (ctx.db, ctx.model, ctx.query);
    let parts = morsel::run_morsels(threads, n, |start, end| {
        let mut wctx = EvalCtx::new(db, model, query, debug);
        let mut probe_rows = vec![0u32; rel + 1];
        let mut lists: Vec<Vec<(u32, Vec<JoinKey>)>> = vec![Vec::new(); n_parts];
        for &r in &right_rows[start..end] {
            if let Some(k) = general_build_key(&mut wctx, keys, &mut probe_rows, rel, r)? {
                lists[part_of(&k, n_parts)].push((r, k));
            }
        }
        Ok::<_, QueryError>(lists)
    });
    // Surface the first (lowest-morsel) error, like a sequential pass.
    let routed = parts.into_iter().collect::<Result<Vec<_>, _>>()?;
    let parts = fill_partitions(threads, &routed, n_parts, &build_span);
    Ok(PartitionedIndex { parts })
}

/// Probe tuples `start..end` of `left` against a built general-key index,
/// in order — the unit of work shared by the sequential and the
/// morsel-parallel probe.
fn general_probe(
    ctx: &mut EvalCtx,
    left: &RowSet,
    keys: &[(BExpr, BExpr)],
    index: &PartitionedIndex<Vec<JoinKey>>,
    start: usize,
    end: usize,
) -> Result<RowSet, QueryError> {
    let mut out = RowSet::with_rels(left.n_rels() + 1, ctx.debug);
    let mut rows_buf = vec![0u32; left.n_rels()];
    'probe: for i in start..end {
        left.gather(i, &mut rows_buf);
        let mut key = Vec::with_capacity(keys.len());
        for (le, _) in keys {
            match join_key(&ctx.eval_value(le, &rows_buf)?) {
                Some(k) => key.push(k),
                None => continue 'probe,
            }
        }
        if let Some(rows) = index.get(&key) {
            for &r in rows {
                out.push_joined(left, i, r);
            }
        }
    }
    Ok(out)
}

/// Hash join on one typed key: `build_key(base row)` indexes the new
/// relation, `probe_key(tuple, left)` reads the accumulated side. A
/// `None` key (NULL/NaN) matches nothing and is skipped — per partition
/// in a parallel build, exactly as sequentially. Both phases shard
/// across workers when `threads` and their input sizes warrant it
/// (build by key-hash partition, probe by tuple morsel); outputs merge
/// deterministically, so the joined sequence is identical at every
/// thread count.
fn typed_join<K>(
    left: RowSet,
    right_rows: &[u32],
    debug: bool,
    threads: usize,
    build_key: impl Fn(usize) -> Option<K> + Sync,
    probe_key: impl Fn(usize, &RowSet) -> Option<K> + Sync,
) -> RowSet
where
    K: Hash + Eq + Clone + Send + Sync,
{
    let index = build_index(right_rows, threads, build_key);
    let probe_range = |start: usize, end: usize| {
        let mut out = RowSet::with_rels(left.n_rels() + 1, debug);
        for i in start..end {
            if let Some(rows) = probe_key(i, &left).and_then(|k| index.get(&k)) {
                for &r in rows {
                    out.push_joined(&left, i, r);
                }
            }
        }
        out
    };
    let n = left.len();
    let mut probe_span = rain_obs::Span::enter("probe");
    probe_span.add("rows_in", n as u64);
    let out = if morsel::worth_parallel(threads, n) {
        let parts = morsel::run_morsels(threads, n, |start, end| {
            let mut mspan = rain_obs::Span::enter_under(&probe_span, "morsel");
            mspan.add("index", (start / morsel::MORSEL_SIZE) as u64);
            mspan.add("items", (end - start) as u64);
            probe_range(start, end)
        });
        let mut out = RowSet::with_rels(left.n_rels() + 1, debug);
        for p in parts {
            out.append(p);
        }
        out
    } else {
        probe_range(0, n)
    };
    probe_span.add("rows_out", out.len() as u64);
    out
}
