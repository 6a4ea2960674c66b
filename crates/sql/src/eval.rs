//! The expression-evaluation core shared by both execution engines.
//!
//! The tuple-at-a-time engine ([`exec`](crate::exec)) and the vectorized
//! engine ([`vexec`](crate::vexec)) must agree *bit for bit*: same result
//! rows, same prediction-variable ids (assigned in order of first
//! inference), same provenance polynomials. The only way to guarantee
//! that is to share one implementation of everything semantic — predicate
//! and scalar evaluation ([`EvalCtx::eval_pred`] / [`EvalCtx::eval_value`]),
//! prediction-variable creation ([`EvalCtx::var_of`]), equi-join key
//! extraction ([`equi_keys`]), and the projection/aggregation finalizers
//! ([`project`] / [`aggregate`]) — and let the engines differ only in
//! *how they enumerate tuples* (AoS `Vec<Tup>` vs columnar row sets).
//!
//! The finalizers consume tuples through the [`Tuples`] sink trait, so the
//! vectorized engine feeds its struct-of-arrays batches without
//! materializing a `Vec<Tup>`.

use crate::ast::{AggFunc, ArithOp, CmpOp};
use crate::binder::{BExpr, BoundAgg, BoundAggArg, GroupKey, QueryKind};
use crate::catalog::Database;
use crate::exec::QueryOutput;
use crate::plan::QueryPlan;
use crate::predvar::PredVarRegistry;
use crate::prov::{BoolProv, VarId};
use crate::table::{ColType, Schema, Table};
use crate::value::{like_match, Value};
use crate::QueryError;
use rain_model::Classifier;
use std::collections::{BTreeSet, HashMap};

/// A (possibly partial) joined tuple: one row index per bound relation.
#[derive(Debug, Clone)]
pub(crate) struct Tup {
    pub(crate) rows: Vec<u32>,
    pub(crate) prov: BoolProv,
}

/// The sink the finalizers feed tuples into: `(base rows per relation,
/// membership formula)`.
pub(crate) type TupleSink<'a> = dyn FnMut(&[u32], BoolProv) -> Result<(), QueryError> + 'a;

/// A stream of joined candidate tuples, consumed by the shared
/// projection/aggregation finalizers. Implementations must yield tuples
/// in their join-pipeline order — variable ids and provenance term order
/// depend on it.
pub(crate) trait Tuples {
    /// Feed every tuple to `sink`.
    fn emit(self, sink: &mut TupleSink) -> Result<(), QueryError>;
}

impl Tuples for Vec<Tup> {
    fn emit(self, sink: &mut TupleSink) -> Result<(), QueryError> {
        for t in self {
            sink(&t.rows, t.prov)?;
        }
        Ok(())
    }
}

/// Hashable group-key value (floats keyed by total-order bits).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum KeyVal {
    Null,
    Bool(bool),
    Int(i64),
    F64(u64),
    Str(String),
}

pub(crate) fn keyval(v: &Value) -> KeyVal {
    match v {
        Value::Null => KeyVal::Null,
        Value::Bool(b) => KeyVal::Bool(*b),
        Value::Int(i) => KeyVal::Int(*i),
        Value::Float(f) => {
            // Total-order bit trick so Ord matches numeric order.
            let bits = f.to_bits() as i64;
            KeyVal::F64((bits ^ (((bits >> 63) as u64) >> 1) as i64) as u64 ^ (1u64 << 63))
        }
        Value::Str(s) => KeyVal::Str(s.clone()),
    }
}

pub(crate) fn keyval_to_value(k: &KeyVal) -> Value {
    match k {
        KeyVal::Null => Value::Null,
        KeyVal::Bool(b) => Value::Bool(*b),
        KeyVal::Int(i) => Value::Int(*i),
        KeyVal::F64(bits) => {
            let b = bits ^ (1u64 << 63);
            let b = b as i64;
            Value::Float(f64::from_bits(
                (b ^ ((((b >> 63) as u64) >> 1) as i64)) as u64,
            ))
        }
        KeyVal::Str(s) => Value::Str(s.clone()),
    }
}

/// Hash key for equi-joins, canonicalized so that key equality matches
/// the `=` predicate ([`Value::compare`]) exactly: every numeric value
/// (Int/Float/Bool) keys by its `f64` bits — `Value::compare` itself
/// compares numerics through `f64`, so `3 = 3.0` must hash-match —
/// with `-0.0` normalized onto `0.0`. NULL and NaN compare equal to
/// nothing, so [`join_key`] returns `None` for them and join build/probe
/// skip the row entirely.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum JoinKey {
    /// Any numeric value, keyed by canonical f64 bits.
    Num(u64),
    /// A string value.
    Str(String),
}

/// Canonical f64 bit pattern: `-0.0` folds onto `0.0` so the two equal
/// values share a key. Callers must exclude NaN first.
pub(crate) fn f64_key_bits(f: f64) -> u64 {
    (if f == 0.0 { 0.0 } else { f }).to_bits()
}

/// The equi-join key of a value, or `None` when the value can never
/// compare equal to anything (NULL, NaN).
pub(crate) fn join_key(v: &Value) -> Option<JoinKey> {
    match v {
        Value::Null => None,
        Value::Bool(b) => Some(JoinKey::Num(f64_key_bits(*b as u8 as f64))),
        Value::Int(i) => Some(JoinKey::Num(f64_key_bits(*i as f64))),
        Value::Float(f) => {
            if f.is_nan() {
                None
            } else {
                Some(JoinKey::Num(f64_key_bits(*f)))
            }
        }
        Value::Str(s) => Some(JoinKey::Str(s.clone())),
    }
}

/// Symbolic-or-constant predicate value.
pub(crate) enum Sym {
    Const(bool),
    Prov(BoolProv),
}

impl From<BoolProv> for Sym {
    fn from(f: BoolProv) -> Self {
        match f {
            BoolProv::Const(b) => Sym::Const(b),
            other => Sym::Prov(other),
        }
    }
}

/// Relation footprint of every residual conjunct of a plan.
pub(crate) fn conjunct_footprints(query: &QueryPlan) -> Vec<BTreeSet<usize>> {
    query
        .conjuncts
        .iter()
        .map(|c| {
            let mut s = BTreeSet::new();
            c.rels_used(&mut s);
            s
        })
        .collect()
}

/// Concrete equi-join conjuncts usable for hash-joining relation `rel`
/// into the tuples over relations `0..rel`: not yet applied, model-free,
/// with one side reading exactly `{rel}` and the other only earlier
/// relations. Returned as `(left/probe expr, right/build expr, conjunct
/// index)` in conjunct order — both engines must use this exact selection
/// so their join schedules (and therefore provenance) agree.
pub(crate) fn equi_keys(
    query: &QueryPlan,
    applied: &[bool],
    footprints: &[BTreeSet<usize>],
    rel: usize,
) -> Vec<(BExpr, BExpr, usize)> {
    (0..query.conjuncts.len())
        .filter(|&ci| !applied[ci] && footprints[ci].iter().all(|&r| r <= rel))
        .filter_map(|ci| match &query.conjuncts[ci] {
            BExpr::Cmp {
                op: CmpOp::Eq,
                left,
                right,
            } => {
                let lset = {
                    let mut s = BTreeSet::new();
                    left.rels_used(&mut s);
                    s
                };
                let rset = {
                    let mut s = BTreeSet::new();
                    right.rels_used(&mut s);
                    s
                };
                if left.contains_predict() || right.contains_predict() {
                    return None;
                }
                // One side must be exactly {rel}, the other ⊆ {0..rel-1}.
                if lset == BTreeSet::from([rel]) && rset.iter().all(|&r| r < rel) {
                    Some(((**right).clone(), (**left).clone(), ci))
                } else if rset == BTreeSet::from([rel]) && lset.iter().all(|&r| r < rel) {
                    Some(((**left).clone(), (**right).clone(), ci))
                } else {
                    None
                }
            }
            _ => None,
        })
        .collect()
}

/// The equi-key selection for every join step of a plan, replicating the
/// engines' schedule exactly (conjuncts consumed in footprint order, equi
/// keys claimed per relation). `result[rel - 1]` holds relation `rel`'s
/// keys; an empty entry means that step runs as a nested-loop cross
/// join. Used by `EXPLAIN` so the printed strategy is derived from the
/// same selection the engines execute.
pub(crate) fn join_schedule(query: &QueryPlan) -> Vec<Vec<(BExpr, BExpr, usize)>> {
    let footprints = conjunct_footprints(query);
    let mut applied = vec![false; query.conjuncts.len()];
    let mark = |applied: &mut Vec<bool>, in_scope: usize| {
        for (ci, a) in applied.iter_mut().enumerate() {
            if !*a && footprints[ci].iter().all(|&r| r < in_scope) {
                *a = true;
            }
        }
    };
    mark(&mut applied, 1);
    let mut out = Vec::new();
    for rel in 1..query.rels.len() {
        let keys = equi_keys(query, &applied, &footprints, rel);
        for (_, _, ci) in &keys {
            applied[*ci] = true;
        }
        mark(&mut applied, rel + 1);
        out.push(keys);
    }
    out
}

/// Accumulator for one output group (normal mode — debug-mode grouping
/// lives in the incremental capture path, which keeps full provenance).
#[derive(Debug, Default)]
struct GroupAcc {
    /// Concrete members (tuples that concretely belong to this group).
    members: usize,
    /// Concrete per-aggregate accumulators: (sum, non-null count).
    concrete: Vec<(f64, usize)>,
}

/// Shared evaluation state: catalog, model, plan, mode, and the
/// prediction-variable registry being populated by this execution.
pub(crate) struct EvalCtx<'a> {
    pub(crate) db: &'a Database,
    pub(crate) model: &'a dyn Classifier,
    pub(crate) query: &'a QueryPlan,
    pub(crate) debug: bool,
    /// Resolved worker budget for morsel-parallel operators (≥ 1). Only
    /// the vectorized engine reads it; 1 means fully sequential.
    pub(crate) threads: usize,
    pub(crate) reg: PredVarRegistry,
    /// First base row each relation's scan may emit; relations past the
    /// end start at 0 (so the default, empty, scans everything). Skeleton
    /// extension sets it to the row count it has already captured.
    pub(crate) first_row: Vec<usize>,
    /// Which pass over the candidate stream is evaluating: `k` while the
    /// conjuncts over the first `k` relations apply, `n_rels + 1` while
    /// a skeleton is captured. Prediction variables are numbered pass by
    /// pass, so skeleton extension needs to know where each was created.
    pub(crate) pass: usize,
    /// The latest pass that created a prediction variable (0 = none).
    pub(crate) var_pass: usize,
}

impl<'a> EvalCtx<'a> {
    pub(crate) fn new(
        db: &'a Database,
        model: &'a dyn Classifier,
        query: &'a QueryPlan,
        debug: bool,
    ) -> Self {
        EvalCtx {
            db,
            model,
            query,
            debug,
            threads: 1,
            reg: PredVarRegistry::new(),
            first_row: Vec::new(),
            pass: 0,
            var_pass: 0,
        }
    }

    /// The same context under a worker budget (`0` = auto), resolved.
    pub(crate) fn with_threads(mut self, threads: usize) -> Self {
        self.threads = crate::exec::resolve_threads(threads);
        self
    }

    /// The scan floor of relation `rel` (see [`EvalCtx::first_row`]).
    pub(crate) fn first_row_of(&self, rel: usize) -> usize {
        self.first_row.get(rel).copied().unwrap_or(0)
    }

    /// Base table of the plan's `rel`-th relation (borrowed from the
    /// database, not from `self`, so callers can hold it across mutation).
    pub(crate) fn table_of(&self, rel: usize) -> &'a Table {
        self.db.table_by_id(self.query.rels[rel].id)
    }

    /// Prediction variable for relation `rel`'s row (created on first
    /// sight, running inference exactly once per underlying record).
    pub(crate) fn var_of(&mut self, rel: usize, row: u32) -> VarId {
        let table_name = &self.query.rels[rel].table;
        let table = self.db.table_by_id(self.query.rels[rel].id);
        let model = self.model;
        let feats = table
            .feature_row(row as usize)
            .expect("features checked at bind time");
        let known = self.reg.len();
        let var = self
            .reg
            .var_for(table_name, row as usize, || model.predict(feats));
        if self.reg.len() > known {
            self.var_pass = self.pass;
        }
        var
    }

    /// Evaluate a predicate over a tuple into either a constant or a
    /// provenance formula (constants fold; model atoms stay symbolic).
    pub(crate) fn eval_pred(&mut self, e: &BExpr, rows: &[u32]) -> Result<Sym, QueryError> {
        Ok(match e {
            BExpr::Not(inner) => match self.eval_pred(inner, rows)? {
                Sym::Const(b) => Sym::Const(!b),
                Sym::Prov(f) => Sym::Prov(f.negate()),
            },
            BExpr::And(terms) => {
                let mut provs = Vec::new();
                for t in terms {
                    match self.eval_pred(t, rows)? {
                        Sym::Const(false) => return Ok(Sym::Const(false)),
                        Sym::Const(true) => {}
                        Sym::Prov(f) => provs.push(f),
                    }
                }
                if provs.is_empty() {
                    Sym::Const(true)
                } else {
                    Sym::Prov(BoolProv::and(provs))
                }
            }
            BExpr::Or(terms) => {
                let mut provs = Vec::new();
                for t in terms {
                    match self.eval_pred(t, rows)? {
                        Sym::Const(true) => return Ok(Sym::Const(true)),
                        Sym::Const(false) => {}
                        Sym::Prov(f) => provs.push(f),
                    }
                }
                if provs.is_empty() {
                    Sym::Const(false)
                } else {
                    Sym::Prov(BoolProv::or(provs))
                }
            }
            BExpr::Cmp { op, left, right } => {
                let lp = matches!(**left, BExpr::Predict { .. });
                let rp = matches!(**right, BExpr::Predict { .. });
                match (lp, rp) {
                    (true, true) => {
                        let (BExpr::Predict { rel: lr }, BExpr::Predict { rel: rr }) =
                            (&**left, &**right)
                        else {
                            unreachable!()
                        };
                        let lv = self.var_of(*lr, rows[*lr]);
                        let rv = self.var_of(*rr, rows[*rr]);
                        let eq = if lv == rv {
                            BoolProv::Const(true)
                        } else {
                            BoolProv::PredEq {
                                left: lv,
                                right: rv,
                            }
                        };
                        match op {
                            CmpOp::Eq => Sym::from(eq),
                            CmpOp::Ne => Sym::from(eq.negate()),
                            _ => {
                                return Err(QueryError::Exec(
                                    "only =/!= between two predict() calls".into(),
                                ))
                            }
                        }
                    }
                    (true, false) | (false, true) => {
                        let (rel, other, op) = if lp {
                            let BExpr::Predict { rel } = &**left else {
                                unreachable!()
                            };
                            (*rel, right, *op)
                        } else {
                            let BExpr::Predict { rel } = &**right else {
                                unreachable!()
                            };
                            // Flip the operator: `c op predict` ⇔ `predict op' c`.
                            let flipped = match op {
                                CmpOp::Lt => CmpOp::Gt,
                                CmpOp::Le => CmpOp::Ge,
                                CmpOp::Gt => CmpOp::Lt,
                                CmpOp::Ge => CmpOp::Le,
                                other => *other,
                            };
                            (*rel, left, flipped)
                        };
                        let val = self.eval_value(other, rows)?;
                        let class = val.as_i64().ok_or_else(|| {
                            QueryError::Exec(format!("predict() compared to non-integer {val}"))
                        })?;
                        let var = self.var_of(rel, rows[rel]);
                        let n_classes = self.model.n_classes() as i64;
                        // `predict = c` atoms are the hot case — build the
                        // single PredIs without the class-set vectors.
                        // (Ne and inequalities keep the class-set OR so
                        // their relaxations and gradients are unchanged.)
                        if op == CmpOp::Eq {
                            return Ok(Sym::from(if (0..n_classes).contains(&class) {
                                BoolProv::PredIs {
                                    var,
                                    class: class as usize,
                                }
                            } else {
                                BoolProv::Const(false)
                            }));
                        }
                        let classes: Vec<usize> = (0..n_classes)
                            .filter(|&c| op.eval(c.cmp(&class)))
                            .map(|c| c as usize)
                            .collect();
                        Sym::from(BoolProv::or(
                            classes
                                .into_iter()
                                .map(|class| BoolProv::PredIs { var, class })
                                .collect(),
                        ))
                    }
                    (false, false) => {
                        let l = self.eval_value(left, rows)?;
                        let r = self.eval_value(right, rows)?;
                        Sym::Const(l.compare(&r).is_some_and(|ord| op.eval(ord)))
                    }
                }
            }
            BExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = self.eval_value(expr, rows)?;
                let matched = match v {
                    Value::Str(s) => like_match(&s, pattern),
                    Value::Null => false,
                    other => return Err(QueryError::Exec(format!("LIKE on non-string {other}"))),
                };
                Sym::Const(matched != *negated)
            }
            BExpr::Predict { .. } => {
                return Err(QueryError::Exec("bare predict() as a predicate".into()))
            }
            other => Sym::Const(self.eval_value(other, rows)?.is_truthy()),
        })
    }

    /// Concrete scalar evaluation (predictions evaluate to the hard class).
    pub(crate) fn eval_value(&mut self, e: &BExpr, rows: &[u32]) -> Result<Value, QueryError> {
        Ok(match e {
            BExpr::Lit(v) => v.clone(),
            BExpr::Col { rel, col } => self.table_of(*rel).value(rows[*rel] as usize, *col),
            BExpr::Predict { rel } => {
                let var = self.var_of(*rel, rows[*rel]);
                Value::Int(self.reg.preds()[var as usize] as i64)
            }
            BExpr::Arith { op, left, right } => {
                let l = self.eval_value(left, rows)?;
                let r = self.eval_value(right, rows)?;
                match (l.as_f64(), r.as_f64()) {
                    (Some(a), Some(b)) => {
                        let both_int = matches!(
                            (&l, &r),
                            (
                                Value::Int(_) | Value::Bool(_),
                                Value::Int(_) | Value::Bool(_)
                            )
                        );
                        let out = match op {
                            ArithOp::Add => a + b,
                            ArithOp::Sub => a - b,
                            ArithOp::Mul => a * b,
                            ArithOp::Div => {
                                if b == 0.0 {
                                    return Ok(Value::Null);
                                }
                                a / b
                            }
                        };
                        if both_int && *op != ArithOp::Div {
                            Value::Int(out as i64)
                        } else {
                            Value::Float(out)
                        }
                    }
                    _ => Value::Null,
                }
            }
            // Boolean-valued expressions in scalar position.
            other => {
                let sym = self.eval_pred(other, rows)?;
                match sym {
                    Sym::Const(b) => Value::Bool(b),
                    Sym::Prov(f) => Value::Bool(f.eval_discrete(self.reg.preds())),
                }
            }
        })
    }

    /// Output column type of an expression — delegates to the binder's
    /// [`infer_type`](crate::binder::infer_type) so naive and optimized
    /// plans (where constant folding may turn `true + 2` into `3`) always
    /// agree on the schema. Statically unknown (NULL-only) expressions
    /// type as Float, the type NULL-producing arithmetic would have had.
    pub(crate) fn infer_type(&self, e: &BExpr) -> ColType {
        crate::binder::infer_type(e, &|rel, col| self.table_of(rel).schema().col(col).ty)
            .unwrap_or(ColType::Float)
    }
}

/// Project a tuple stream into the output table (plus per-row membership
/// formulas in debug mode). NULL output cells are carried by the table's
/// null bitmap.
///
/// Debug mode routes through the incremental capture + refresh pair so a
/// full execution and a [`PreparedQuery::refresh`]
/// (crate::incremental::PreparedQuery::refresh) share one output-assembly
/// path — refresh output is bit-identical to full re-execution by
/// construction.
pub(crate) fn project(
    ctx: &mut EvalCtx,
    tuples: impl Tuples,
    items: &[(BExpr, String)],
) -> Result<QueryOutput, QueryError> {
    if ctx.debug {
        let skel = crate::incremental::capture_select(ctx, tuples, items)?;
        let (table, row_prov) = crate::incremental::refresh_select(&skel, ctx.reg.preds());
        return Ok(QueryOutput {
            table,
            row_prov,
            agg_cells: Vec::new(),
            n_key_cols: 0,
            predvars: std::mem::take(&mut ctx.reg),
        });
    }
    let mut schema = Schema::default();
    for (e, name) in items {
        push_unique(&mut schema, name, ctx.infer_type(e));
    }
    let mut table = Table::empty(schema);
    tuples.emit(&mut |rows, prov| {
        // Normal mode: emit only concretely-true rows, keep no lineage.
        if !prov.eval_discrete(ctx.reg.preds()) {
            return Ok(());
        }
        let mut row = Vec::with_capacity(items.len());
        for (e, _) in items {
            row.push(ctx.eval_value(e, rows)?);
        }
        table.push_row(row, None);
        Ok(())
    })?;
    Ok(QueryOutput {
        table,
        row_prov: Vec::new(),
        agg_cells: Vec::new(),
        n_key_cols: 0,
        predvars: std::mem::take(&mut ctx.reg),
    })
}

/// Aggregate a tuple stream into grouped output rows and (in debug mode)
/// per-cell provenance sums.
///
/// Like [`project`], debug mode goes through incremental capture +
/// refresh: the group partitions and provenance sums are
/// model-independent, so building them *is* the skeleton capture, and the
/// concrete rows fall out of a discrete refresh against the current hard
/// predictions. The body below is the normal-mode (provenance-free) path.
pub(crate) fn aggregate(
    ctx: &mut EvalCtx,
    tuples: impl Tuples,
    keys: &[GroupKey],
    aggs: &[BoundAgg],
) -> Result<QueryOutput, QueryError> {
    if ctx.debug {
        let (skel, _) = crate::incremental::capture_groups(ctx, tuples, keys, aggs)?;
        let (table, agg_cells) = crate::incremental::refresh_groups(&skel, ctx.reg.preds());
        return Ok(QueryOutput {
            table,
            row_prov: Vec::new(),
            agg_cells,
            n_key_cols: keys.len(),
            predvars: std::mem::take(&mut ctx.reg),
        });
    }
    let mut groups: HashMap<Vec<KeyVal>, GroupAcc> = HashMap::new();
    let n_aggs = aggs.len();
    let new_acc = || GroupAcc {
        members: 0,
        concrete: vec![(0.0, 0); n_aggs],
    };
    // A global aggregate always has its single group, even when empty.
    if keys.is_empty() {
        groups.insert(Vec::new(), new_acc());
    }

    tuples.emit(&mut |rows, prov| {
        // Resolve key parts. Concretely every tuple belongs to exactly
        // one group (predict keys resolve to the hard class).
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
        let concrete_member = prov.eval_discrete(ctx.reg.preds());

        // Resolve the tuple's single concrete group key (predict keys
        // take the hard class the model assigns their record).
        let mut key = Vec::with_capacity(keys.len());
        for (pos, part) in col_parts.iter().enumerate() {
            match part {
                Some(kv) => key.push(kv.clone()),
                None => {
                    let var = pred_keys
                        .iter()
                        .find_map(|(p, v)| (*p == pos).then_some(*v))
                        .expect("predict key present");
                    key.push(KeyVal::Int(ctx.reg.preds()[var as usize] as i64));
                }
            }
        }

        let acc = groups.entry(key).or_insert_with(new_acc);
        if concrete_member {
            acc.members += 1;
        }
        for (ai, agg) in aggs.iter().enumerate() {
            // Concrete value this tuple contributes to aggregate `ai`.
            let val: Option<f64> = match &agg.arg {
                BoundAggArg::CountStar => Some(1.0),
                BoundAggArg::Predict { rel } => {
                    let var = ctx.var_of(*rel, rows[*rel]);
                    Some(ctx.reg.preds()[var as usize] as f64)
                }
                BoundAggArg::ScaledPredict { rel, factor } => {
                    let var = ctx.var_of(*rel, rows[*rel]);
                    let w = ctx.eval_value(factor, rows)?.as_f64().ok_or_else(|| {
                        QueryError::Exec("non-numeric factor in scaled predict".into())
                    })?;
                    Some(w * ctx.reg.preds()[var as usize] as f64)
                }
                BoundAggArg::Scalar(e) => ctx.eval_value(e, rows)?.as_f64(),
            };
            let Some(val) = val else {
                continue; // NULL: skipped by SUM/AVG, as in SQL.
            };
            if concrete_member {
                acc.concrete[ai].0 += val;
                acc.concrete[ai].1 += 1;
            }
        }
        Ok(())
    })?;

    // Deterministic output order.
    let mut keys_sorted: Vec<Vec<KeyVal>> = groups.keys().cloned().collect();
    keys_sorted.sort();

    let mut table = Table::empty(agg_schema(ctx, keys, aggs));

    for key in keys_sorted {
        let acc = groups.remove(&key).expect("group exists");
        // Groups with no concrete member are not part of the concrete
        // result; the exception is the global group of an ungrouped
        // aggregate.
        if acc.members == 0 && !keys.is_empty() {
            continue;
        }
        let mut row: Vec<Value> = key.iter().map(keyval_to_value).collect();
        for (ai, agg) in aggs.iter().enumerate() {
            let (sum, cnt) = acc.concrete[ai];
            row.push(agg_value(agg.func, sum, cnt));
        }
        table.push_row(row, None);
    }

    Ok(QueryOutput {
        table,
        row_prov: Vec::new(),
        agg_cells: Vec::new(),
        n_key_cols: keys.len(),
        predvars: std::mem::take(&mut ctx.reg),
    })
}

/// Output schema of an aggregate query: group keys then aggregates.
pub(crate) fn agg_schema(ctx: &EvalCtx, keys: &[GroupKey], aggs: &[BoundAgg]) -> Schema {
    let mut schema = Schema::default();
    for k in keys {
        match k {
            GroupKey::Col { rel, col, name } => {
                let ty = ctx.table_of(*rel).schema().col(*col).ty;
                push_unique(&mut schema, name, ty);
            }
            GroupKey::Predict { .. } => push_unique(&mut schema, "predict", ColType::Int),
        }
    }
    for agg in aggs {
        let ty = if agg.func == AggFunc::Count {
            ColType::Int
        } else {
            ColType::Float
        };
        push_unique(&mut schema, &agg.name, ty);
    }
    schema
}

/// Concrete output value of one aggregate cell.
pub(crate) fn agg_value(func: AggFunc, sum: f64, cnt: usize) -> Value {
    match func {
        AggFunc::Count => Value::Int(cnt as i64),
        AggFunc::Sum => Value::Float(sum),
        AggFunc::Avg => Value::Float(if cnt == 0 { 0.0 } else { sum / cnt as f64 }),
    }
}

/// Append an output column, uniquifying duplicate names (`x`, `x_2`, …)
/// so user-written select lists like `SELECT x, x` or `SELECT *, *`
/// cannot panic the schema builder.
pub(crate) fn push_unique(schema: &mut Schema, name: &str, ty: ColType) {
    if schema.index_of(name).is_none() {
        schema.push(name, ty);
        return;
    }
    let mut i = 2;
    loop {
        let cand = format!("{name}_{i}");
        if schema.index_of(&cand).is_none() {
            schema.push(&cand, ty);
            return;
        }
        i += 1;
    }
}

/// All `len`-tuples over `0..n` (cartesian power).
pub(crate) fn cartesian(n: usize, len: usize) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = vec![Vec::new()];
    for _ in 0..len {
        let mut next = Vec::with_capacity(out.len() * n);
        for prefix in &out {
            for c in 0..n {
                let mut v = prefix.clone();
                v.push(c);
                next.push(v);
            }
        }
        out = next;
    }
    out
}

/// The projection/aggregation dispatch both engines share.
pub(crate) fn finalize(
    ctx: &mut EvalCtx,
    tuples: impl Tuples,
    kind: &QueryKind,
) -> Result<QueryOutput, QueryError> {
    match kind {
        QueryKind::Select { items } => project(ctx, tuples, items),
        QueryKind::Aggregate { keys, aggs } => aggregate(ctx, tuples, keys, aggs),
    }
}
