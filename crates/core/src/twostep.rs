//! TwoStep's SQL step (paper §5.2): turn complaints into an ILP over the
//! prediction view, solve it, and return the "repairs" — the predictions
//! the solver decided to mark as mispredictions.
//!
//! Structure mirrors a production solver: a **presolve** layer recognizes
//! the common constraint shapes and solves them directly (with seeded
//! arbitrary choice among the many optima — the ambiguity §5.2.2 warns
//! about), and a **generic path** Tseitin-linearizes arbitrary provenance
//! formulas into `rain-ilp`'s branch-and-bound with a node budget that
//! reproduces the paper's 30-minute timeouts:
//!
//! 1. labeled-prediction complaints → fixed assignments;
//! 2. cardinality complaints (COUNT / AVG-of-prediction cells whose rows
//!    are single atoms) → direct random minimal repair;
//! 3. join-disequality tuple complaints → bipartite minimum vertex cover
//!    (König / Hopcroft–Karp, exact);
//! 4. `COUNT(join) = 0` over `PredEq` pairs → optimal class partition by
//!    subset enumeration;
//! 5. everything else → Tseitin → branch & bound (may time out).

use crate::complaint::{Complaint, ValueOp};
use rain_ilp::{
    konig_min_vertex_cover, solve_ilp, BbConfig, BipartiteGraph, Constraint, IlpOutcome,
    IlpProblem, Sense,
};
use rain_linalg::RainRng;
use rain_sql::{AggTerm, BoolProv, CellProv, QueryOutput, VarId};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Outcome of the SQL step for one query.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlStep {
    /// Repairs: `(prediction variable, corrected class)` for every
    /// prediction marked as a misprediction (`t ≠ r`).
    Repairs(Vec<(VarId, usize)>),
    /// The ILP could not be solved within budget (the paper's 30-minute
    /// wall on high-ambiguity instances).
    Timeout,
    /// A complaint is unsatisfiable under any prediction assignment.
    Infeasible,
}

/// Configuration of the SQL step.
#[derive(Debug, Clone)]
pub struct SqlStepConfig {
    /// Seed for arbitrary-optimum selection.
    pub seed: u64,
    /// Branch-and-bound budget for the generic path.
    pub bb: BbConfig,
    /// Generic-path size wall: if the linearized ILP would exceed this
    /// many 0/1 variables, report [`SqlStep::Timeout`] (matching the
    /// paper's experience on the mix-rate workload).
    pub max_ilp_vars: usize,
}

impl Default for SqlStepConfig {
    fn default() -> Self {
        SqlStepConfig {
            seed: 0,
            bb: BbConfig::default(),
            max_ilp_vars: 4000,
        }
    }
}

/// Run the SQL step: decide which predictions to mark as mispredictions
/// so the complaints would be satisfied, changing as few as possible.
pub fn sql_step(
    out: &QueryOutput,
    complaints: &[Complaint],
    n_classes: usize,
    cfg: &SqlStepConfig,
) -> SqlStep {
    let preds = out.predvars.preds();
    let mut span = rain_obs::Span::enter("sql-step");
    span.add("n_vars", preds.len() as u64);
    span.add("n_complaints", complaints.len() as u64);
    let mut rng = RainRng::seed_from_u64(cfg.seed);
    // Final assignment overrides: var → class (repairs and fixed points).
    let mut assign: BTreeMap<VarId, usize> = BTreeMap::new();
    let mut generic: Vec<&Complaint> = Vec::new();
    let mut pair_complaints: Vec<(VarId, VarId)> = Vec::new();

    // Stage 1: labeled mispredictions are fixed assignments.
    for c in complaints {
        if let Complaint::PredictionIs { table, row, class } = c {
            match out.predvars.lookup(table, *row) {
                Some(var) => {
                    assign.insert(var, *class);
                }
                None => return SqlStep::Infeasible,
            }
        }
    }

    // Stage 2/3/4 recognizers; anything unhandled goes generic.
    for c in complaints {
        match c {
            Complaint::PredictionIs { .. } => {}
            Complaint::Value {
                row,
                agg,
                op,
                target,
            } => {
                let Some(cell) = out.agg_cells.get(*row).and_then(|r| r.get(*agg)) else {
                    return SqlStep::Infeasible;
                };
                match try_cardinality(cell, preds, &assign, *op, *target, n_classes, &mut rng) {
                    Recognized::Solved(repairs) => assign.extend(repairs),
                    Recognized::Satisfied => {}
                    Recognized::Infeasible => return SqlStep::Infeasible,
                    Recognized::Unmatched => {
                        match try_join_partition(cell, preds, *op, *target, n_classes, &mut rng) {
                            Recognized::Solved(repairs) => assign.extend(repairs),
                            Recognized::Satisfied => {}
                            Recognized::Infeasible => return SqlStep::Infeasible,
                            Recognized::Unmatched => generic.push(c),
                        }
                    }
                }
            }
            Complaint::TupleDelete { row } => match out.row_prov.get(*row) {
                Some(BoolProv::PredEq { left, right }) => {
                    pair_complaints.push((*left, *right));
                }
                Some(_) => generic.push(c),
                None => {} // already absent → satisfied
            },
            Complaint::JoinDelete { left, right } => {
                // Pairs never predicted cannot join; nothing to repair.
                if let (Some(l), Some(r)) = (
                    out.predvars.lookup(&left.0, left.1),
                    out.predvars.lookup(&right.0, right.1),
                ) {
                    pair_complaints.push((l, r));
                }
            }
        }
    }

    // Stage 3: join-disequality system via minimum vertex cover.
    if !pair_complaints.is_empty() {
        match solve_pairs(&pair_complaints, preds, &mut assign, n_classes, &mut rng) {
            Ok(()) => {}
            Err(()) => return SqlStep::Infeasible,
        }
    }

    // Stage 5: generic Tseitin + branch & bound.
    if !generic.is_empty() {
        let _s = rain_obs::Span::enter("ilp");
        match solve_generic(out, &generic, preds, &assign, n_classes, cfg) {
            GenericOutcome::Solved(sol) => assign.extend(sol),
            GenericOutcome::Timeout => return SqlStep::Timeout,
            GenericOutcome::Infeasible => return SqlStep::Infeasible,
        }
    }

    // Repairs are assignments that actually change the prediction.
    let repairs: Vec<(VarId, usize)> = assign
        .into_iter()
        .filter(|&(v, c)| preds[v as usize] != c)
        .collect();
    SqlStep::Repairs(repairs)
}

enum Recognized {
    Solved(Vec<(VarId, usize)>),
    Satisfied,
    Infeasible,
    Unmatched,
}

/// A class different from `avoid`, chosen at random — the "90 ways to fix
/// it" arbitrariness of §6.3.
fn random_other_class(avoid: usize, n_classes: usize, rng: &mut RainRng) -> usize {
    loop {
        let c = rng.below(n_classes);
        if c != avoid {
            return c;
        }
    }
}

/// Recognizer for cardinality cells: COUNT whose rows are single
/// `PredIs` atoms over distinct variables, or binary AVG-of-prediction
/// with constant membership. Solves `Σ [pred(v)=class_v] op target`.
fn try_cardinality(
    cell: &CellProv,
    preds: &[usize],
    fixed: &BTreeMap<VarId, usize>,
    op: ValueOp,
    target: f64,
    n_classes: usize,
    rng: &mut RainRng,
) -> Recognized {
    // Extract (var, class) atoms: "this row is in iff pred(var)=class".
    let atoms: Option<Vec<(VarId, usize)>> = match cell {
        CellProv::Sum(s) => s
            .terms
            .iter()
            .map(|(f, t)| match (f, t) {
                (BoolProv::PredIs { var, class }, AggTerm::One) => Some((*var, *class)),
                _ => None,
            })
            .collect(),
        CellProv::Ratio(num, den) => {
            // Binary AVG(predict): constant membership, PredValue terms.
            if n_classes != 2 || num.terms.len() != den.terms.len() {
                return Recognized::Unmatched;
            }
            num.terms
                .iter()
                .map(|(f, t)| match (f, t) {
                    (BoolProv::Const(true), AggTerm::PredValue(var)) => Some((*var, 1usize)),
                    _ => None,
                })
                .collect()
        }
        _ => return Recognized::Unmatched,
    };
    let Some(atoms) = atoms else {
        return Recognized::Unmatched;
    };
    // Distinct variables required for the independent-flip argument.
    let distinct: HashSet<VarId> = atoms.iter().map(|&(v, _)| v).collect();
    if distinct.len() != atoms.len() {
        return Recognized::Unmatched;
    }
    // AVG targets are fractions of the denominator.
    let target_count = match cell {
        CellProv::Ratio(_, den) => (target * den.terms.len() as f64).round(),
        _ => target.round(),
    };
    let class_of = |v: VarId| fixed.get(&v).copied().unwrap_or(preds[v as usize]);
    let current: i64 = atoms.iter().filter(|&&(v, c)| class_of(v) == c).count() as i64;
    let want = target_count as i64;
    let need = match op {
        ValueOp::Eq => want - current,
        ValueOp::Le if current > want => want - current,
        ValueOp::Ge if current < want => want - current,
        _ => return Recognized::Satisfied,
    };
    if need == 0 {
        return Recognized::Satisfied;
    }
    let mut repairs = Vec::new();
    if need > 0 {
        // Flip `need` out-rows in (assign the atom class).
        let mut cand: Vec<(VarId, usize)> = atoms
            .iter()
            .copied()
            .filter(|&(v, c)| class_of(v) != c && !fixed.contains_key(&v))
            .collect();
        if (cand.len() as i64) < need {
            return Recognized::Infeasible;
        }
        rng.shuffle(&mut cand);
        for &(v, c) in cand.iter().take(need as usize) {
            repairs.push((v, c));
        }
    } else {
        // Flip `-need` in-rows out (assign any other class).
        let mut cand: Vec<(VarId, usize)> = atoms
            .iter()
            .copied()
            .filter(|&(v, c)| class_of(v) == c && !fixed.contains_key(&v))
            .collect();
        if (cand.len() as i64) < -need {
            return Recognized::Infeasible;
        }
        rng.shuffle(&mut cand);
        for &(v, c) in cand.iter().take((-need) as usize) {
            repairs.push((v, random_other_class(c, n_classes, rng)));
        }
    }
    Recognized::Solved(repairs)
}

/// Recognizer for `COUNT over PredEq join pairs = 0`: partition the
/// classes between the two relations with minimum flips (exact, by
/// enumerating the 2^C class subsets).
fn try_join_partition(
    cell: &CellProv,
    preds: &[usize],
    op: ValueOp,
    target: f64,
    n_classes: usize,
    rng: &mut RainRng,
) -> Recognized {
    if !(matches!(op, ValueOp::Eq | ValueOp::Le) && target.round() == 0.0) || n_classes > 16 {
        return Recognized::Unmatched;
    }
    let CellProv::Sum(s) = cell else {
        return Recognized::Unmatched;
    };
    // Ordered sets: the repair loops below draw classes from `rng` while
    // walking them, so their order must be a function of the seed, not of
    // the process's hash keys.
    let mut lefts: BTreeSet<VarId> = BTreeSet::new();
    let mut rights: BTreeSet<VarId> = BTreeSet::new();
    for (f, t) in &s.terms {
        match (f, t) {
            (BoolProv::PredEq { left, right }, AggTerm::One) => {
                lefts.insert(*left);
                rights.insert(*right);
            }
            _ => return Recognized::Unmatched,
        }
    }
    if !lefts.is_disjoint(&rights) {
        return Recognized::Unmatched; // self-join: not a 2-sided partition
    }
    // Class histograms per side.
    let mut lh = vec![0i64; n_classes];
    for &v in &lefts {
        lh[preds[v as usize]] += 1;
    }
    let mut rh = vec![0i64; n_classes];
    for &v in &rights {
        rh[preds[v as usize]] += 1;
    }
    // Cost of allowing class set S on the left: every left record outside
    // S flips, every right record inside S flips.
    let total_left: i64 = lh.iter().sum();
    let mut best_cost = i64::MAX;
    let mut best: Vec<u32> = Vec::new();
    for mask in 0u32..(1 << n_classes) {
        // Left records must have somewhere to go; same for right.
        if (mask == 0 && total_left > 0)
            || (mask == (1 << n_classes) - 1 && rh.iter().sum::<i64>() > 0)
        {
            continue;
        }
        let mut cost = 0;
        for c in 0..n_classes {
            if mask & (1 << c) != 0 {
                cost += rh[c];
            } else {
                cost += lh[c];
            }
        }
        match cost.cmp(&best_cost) {
            std::cmp::Ordering::Less => {
                best_cost = cost;
                best = vec![mask];
            }
            std::cmp::Ordering::Equal => best.push(mask),
            std::cmp::Ordering::Greater => {}
        }
    }
    if best.is_empty() {
        return Recognized::Infeasible;
    }
    // Arbitrary-optimum selection.
    let mask = best[rng.below(best.len())];
    let allowed_left: Vec<usize> = (0..n_classes).filter(|c| mask & (1 << c) != 0).collect();
    let allowed_right: Vec<usize> = (0..n_classes).filter(|c| mask & (1 << c) == 0).collect();
    let mut repairs = Vec::new();
    for &v in &lefts {
        if mask & (1 << preds[v as usize]) == 0 {
            repairs.push((v, allowed_left[rng.below(allowed_left.len())]));
        }
    }
    for &v in &rights {
        if mask & (1 << preds[v as usize]) != 0 {
            repairs.push((v, allowed_right[rng.below(allowed_right.len())]));
        }
    }
    Recognized::Solved(repairs)
}

/// Solve a system of `pred(l) ≠ pred(r)` requirements with minimum flips:
/// a minimum vertex cover on the bipartite conflict graph (König), then a
/// class assignment for the covered variables.
fn solve_pairs(
    pairs: &[(VarId, VarId)],
    preds: &[usize],
    assign: &mut BTreeMap<VarId, usize>,
    n_classes: usize,
    rng: &mut RainRng,
) -> Result<(), ()> {
    let class_of = |v: VarId, assign: &BTreeMap<VarId, usize>| {
        assign.get(&v).copied().unwrap_or(preds[v as usize])
    };
    // Pairs already satisfied (possibly via fixed assignments) drop out;
    // pairs with one side fixed constrain the free side directly.
    let mut live: Vec<(VarId, VarId)> = Vec::new();
    for &(l, r) in pairs {
        if l == r {
            return Err(()); // pred(v) ≠ pred(v) is unsatisfiable
        }
        let (lf, rf) = (assign.contains_key(&l), assign.contains_key(&r));
        match (lf, rf) {
            (true, true) => {
                if class_of(l, assign) == class_of(r, assign) {
                    return Err(());
                }
            }
            (true, false) => {
                if class_of(r, assign) == class_of(l, assign) {
                    let c = random_other_class(class_of(l, assign), n_classes, rng);
                    assign.insert(r, c);
                }
            }
            (false, true) => {
                if class_of(l, assign) == class_of(r, assign) {
                    let c = random_other_class(class_of(r, assign), n_classes, rng);
                    assign.insert(l, c);
                }
            }
            (false, false) => {
                if class_of(l, assign) == class_of(r, assign) {
                    live.push((l, r));
                }
            }
        }
    }
    if live.is_empty() {
        return Ok(());
    }
    // Index the live endpoints.
    let mut lidx: HashMap<VarId, usize> = HashMap::new();
    let mut ridx: HashMap<VarId, usize> = HashMap::new();
    let mut lvars = Vec::new();
    let mut rvars = Vec::new();
    for &(l, r) in &live {
        lidx.entry(l).or_insert_with(|| {
            lvars.push(l);
            lvars.len() - 1
        });
        ridx.entry(r).or_insert_with(|| {
            rvars.push(r);
            rvars.len() - 1
        });
    }
    let mut g = BipartiteGraph::new(lvars.len(), rvars.len());
    for &(l, r) in &live {
        g.add_edge(lidx[&l], ridx[&r]);
    }
    let (lc, rc) = konig_min_vertex_cover(&g);
    let covered: Vec<VarId> = lc
        .into_iter()
        .map(|i| lvars[i])
        .chain(rc.into_iter().map(|i| rvars[i]))
        .collect();
    // Adjacency over live pairs for conflict-free class choice.
    let mut adj: HashMap<VarId, Vec<VarId>> = HashMap::new();
    for &(l, r) in &live {
        adj.entry(l).or_default().push(r);
        adj.entry(r).or_default().push(l);
    }
    for v in covered {
        let neighbors = adj.get(&v).cloned().unwrap_or_default();
        let forbidden: HashSet<usize> = neighbors.iter().map(|&u| class_of(u, assign)).collect();
        let choices: Vec<usize> = (0..n_classes)
            .filter(|c| !forbidden.contains(c) && *c != preds[v as usize])
            .collect();
        let class = if choices.is_empty() {
            random_other_class(preds[v as usize], n_classes, rng)
        } else {
            choices[rng.below(choices.len())]
        };
        assign.insert(v, class);
    }
    Ok(())
}

enum GenericOutcome {
    Solved(Vec<(VarId, usize)>),
    Timeout,
    Infeasible,
}

/// Tseitin-linearize the remaining complaints into a 0/1 ILP and run
/// branch & bound.
fn solve_generic(
    out: &QueryOutput,
    complaints: &[&Complaint],
    preds: &[usize],
    fixed: &BTreeMap<VarId, usize>,
    n_classes: usize,
    cfg: &SqlStepConfig,
) -> GenericOutcome {
    let mut encode_span = rain_obs::Span::enter("encode");
    let mut enc = Encoder {
        prob: IlpProblem::new(),
        tvar: HashMap::new(),
        vars_seen: Vec::new(),
        n_classes,
    };
    // Gather constraints per complaint.
    for c in complaints {
        match c {
            Complaint::Value {
                row,
                agg,
                op,
                target,
            } => {
                let Some(cell) = out.agg_cells.get(*row).and_then(|r| r.get(*agg)) else {
                    return GenericOutcome::Infeasible;
                };
                let sense = match op {
                    ValueOp::Eq => Sense::Eq,
                    ValueOp::Le => Sense::Le,
                    ValueOp::Ge => Sense::Ge,
                };
                match cell {
                    CellProv::Sum(s) => {
                        let mut terms = Vec::new();
                        let mut konst = 0.0;
                        for (f, t) in &s.terms {
                            let weight = match t {
                                AggTerm::One => 1.0,
                                AggTerm::Const(v) => *v,
                                // Prediction-valued terms would need a
                                // per-class weighted encoding; unsupported.
                                AggTerm::PredValue(_) | AggTerm::ScaledPred { .. } => {
                                    return GenericOutcome::Timeout;
                                }
                            };
                            let e = enc.encode_bool(f);
                            for (v, a) in e.terms {
                                terms.push((v, a * weight));
                            }
                            konst += e.konst * weight;
                        }
                        enc.prob
                            .add_constraint(Constraint::new(terms, sense, target - konst));
                    }
                    _ => return GenericOutcome::Timeout, // ratio cells: unsupported
                }
            }
            Complaint::TupleDelete { row } => {
                let Some(prov) = out.row_prov.get(*row) else {
                    continue;
                };
                let e = enc.encode_bool(prov);
                enc.prob
                    .add_constraint(Constraint::new(e.terms, Sense::Eq, -e.konst));
            }
            // Join-delete and labeled predictions are handled upstream.
            Complaint::JoinDelete { .. } | Complaint::PredictionIs { .. } => {}
        }
        if enc.prob.n_vars() > cfg.max_ilp_vars {
            return GenericOutcome::Timeout;
        }
    }
    // Fixed assignments.
    for (&v, &c) in fixed {
        if enc.tvar.contains_key(&(v, 0)) || enc.vars_seen.contains(&v) {
            let tv = enc.tvar_of(v, c);
            enc.prob
                .add_constraint(Constraint::new(vec![(tv, 1.0)], Sense::Eq, 1.0));
        }
    }
    // Objective: minimize flips ⇔ maximize Σ t[v][r_v].
    let seen = enc.vars_seen.clone();
    for &v in &seen {
        let tv = enc.tvar_of(v, preds[v as usize]);
        enc.prob.objective[tv] -= 1.0;
    }
    encode_span.add("ilp_vars", enc.prob.n_vars() as u64);
    drop(encode_span);
    let _solve = rain_obs::Span::enter("solve");
    match solve_ilp(
        &enc.prob,
        &BbConfig {
            seed: cfg.seed,
            ..cfg.bb.clone()
        },
    ) {
        IlpOutcome::Optimal(sol) => {
            let mut assign = Vec::new();
            for &v in &seen {
                for c in 0..n_classes {
                    if let Some(&tv) = enc.tvar.get(&(v, c)) {
                        if sol.x[tv] {
                            assign.push((v, c));
                        }
                    }
                }
            }
            GenericOutcome::Solved(assign)
        }
        IlpOutcome::Infeasible => GenericOutcome::Infeasible,
        IlpOutcome::Budget(_) => GenericOutcome::Timeout,
    }
}

/// A linear expression `Σ aᵢxᵢ + konst` over ILP variables.
struct LinExpr {
    terms: Vec<(usize, f64)>,
    konst: f64,
}

struct Encoder {
    prob: IlpProblem,
    tvar: HashMap<(VarId, usize), usize>,
    vars_seen: Vec<VarId>,
    n_classes: usize,
}

impl Encoder {
    /// The ILP variable for `pred(v) = class`, creating the whole
    /// one-hot block (with its assignment constraint) on first sight.
    fn tvar_of(&mut self, v: VarId, class: usize) -> usize {
        if let Some(&t) = self.tvar.get(&(v, class)) {
            return t;
        }
        let mut block = Vec::with_capacity(self.n_classes);
        for c in 0..self.n_classes {
            let t = self.prob.add_var(0.0);
            self.tvar.insert((v, c), t);
            block.push((t, 1.0));
        }
        self.vars_seen.push(v);
        self.prob
            .add_constraint(Constraint::new(block, Sense::Eq, 1.0));
        self.tvar[&(v, class)]
    }

    /// Reduce an expression to a single 0/1 variable, adding an aux
    /// equality when needed.
    fn as_var(&mut self, e: LinExpr) -> usize {
        if e.terms.len() == 1 && e.terms[0].1 == 1.0 && e.konst == 0.0 {
            return e.terms[0].0;
        }
        let u = self.prob.add_var(0.0);
        let mut terms = e.terms;
        terms.push((u, -1.0));
        self.prob
            .add_constraint(Constraint::new(terms, Sense::Eq, -e.konst));
        u
    }

    /// Tseitin encoding: a linear expression whose value equals the
    /// formula's truth value under the added constraints.
    fn encode_bool(&mut self, f: &BoolProv) -> LinExpr {
        match f {
            BoolProv::Const(b) => LinExpr {
                terms: vec![],
                konst: *b as u8 as f64,
            },
            BoolProv::PredIs { var, class } => {
                let t = self.tvar_of(*var, *class);
                LinExpr {
                    terms: vec![(t, 1.0)],
                    konst: 0.0,
                }
            }
            BoolProv::PredEq { left, right } => {
                // Σ_c AND(t_l_c, t_r_c): exactly-one blocks make the sum 0/1.
                let mut terms = Vec::with_capacity(self.n_classes);
                for c in 0..self.n_classes {
                    let tl = self.tvar_of(*left, c);
                    let tr = self.tvar_of(*right, c);
                    let z = self.prob.add_var(0.0);
                    self.prob.add_constraint(Constraint::new(
                        vec![(z, 1.0), (tl, -1.0)],
                        Sense::Le,
                        0.0,
                    ));
                    self.prob.add_constraint(Constraint::new(
                        vec![(z, 1.0), (tr, -1.0)],
                        Sense::Le,
                        0.0,
                    ));
                    self.prob.add_constraint(Constraint::new(
                        vec![(z, 1.0), (tl, -1.0), (tr, -1.0)],
                        Sense::Ge,
                        -1.0,
                    ));
                    terms.push((z, 1.0));
                }
                LinExpr { terms, konst: 0.0 }
            }
            BoolProv::Not(inner) => {
                let e = self.encode_bool(inner);
                LinExpr {
                    terms: e.terms.into_iter().map(|(v, a)| (v, -a)).collect(),
                    konst: 1.0 - e.konst,
                }
            }
            BoolProv::And(children) => {
                let vars: Vec<usize> = children
                    .iter()
                    .map(|ch| {
                        let e = self.encode_bool(ch);
                        self.as_var(e)
                    })
                    .collect();
                let z = self.prob.add_var(0.0);
                let k = vars.len() as f64;
                for &a in &vars {
                    self.prob.add_constraint(Constraint::new(
                        vec![(z, 1.0), (a, -1.0)],
                        Sense::Le,
                        0.0,
                    ));
                }
                let mut ge = vec![(z, 1.0)];
                ge.extend(vars.iter().map(|&a| (a, -1.0)));
                self.prob
                    .add_constraint(Constraint::new(ge, Sense::Ge, 1.0 - k));
                LinExpr {
                    terms: vec![(z, 1.0)],
                    konst: 0.0,
                }
            }
            BoolProv::Or(children) => {
                let vars: Vec<usize> = children
                    .iter()
                    .map(|ch| {
                        let e = self.encode_bool(ch);
                        self.as_var(e)
                    })
                    .collect();
                let z = self.prob.add_var(0.0);
                for &a in &vars {
                    self.prob.add_constraint(Constraint::new(
                        vec![(z, 1.0), (a, -1.0)],
                        Sense::Ge,
                        0.0,
                    ));
                }
                let mut le = vec![(z, 1.0)];
                le.extend(vars.iter().map(|&a| (a, -1.0)));
                self.prob
                    .add_constraint(Constraint::new(le, Sense::Le, 0.0));
                LinExpr {
                    terms: vec![(z, 1.0)],
                    konst: 0.0,
                }
            }
        }
    }
}
