//! Provenance polynomials over model-prediction variables, and their
//! differentiable relaxation (paper §5.3.1).
//!
//! During debug-mode execution every model inference instance over a
//! queried record becomes a **prediction variable** (a [`VarId`]). Tuple
//! membership is a boolean formula ([`BoolProv`]) over atoms of the form
//! *"the model predicts class c on record v"*; aggregate cells are sums (or
//! ratios of sums, for AVG) of `formula × term` pairs ([`CellProv`]).
//!
//! The same representation is evaluated three ways:
//!
//! 1. **Discretely** against hard predictions — must agree exactly with the
//!    ordinary query result (an invariant the tests enforce).
//! 2. **Relaxed** against prediction probabilities, using the paper's
//!    tractable independence-assuming substitution
//!    (`x AND y → x·y`, `x OR y → 1-(1-x)(1-y)`, `NOT x → 1-x`,
//!    aggregates → expectations, AVG → ratio of expectations).
//! 3. **Gradient** of the relaxed value with respect to every variable's
//!    class probabilities, by reverse-mode accumulation over the formula
//!    DAG — this is what turns a user complaint into `∇q` for influence
//!    analysis.
//!
//! Probabilities ([`Probs`]) and their gradient ([`ProbGrad`]) are dense
//! `n_vars × n_classes` buffers, row `var` for variable `var`, read and
//! written only through `row(var)` so a class index past the row panics.
//! Dense rather than sparse: the probabilities of every variable are
//! computed anyway (one forward pass each), so a gradient row per variable
//! adds no asymptotic cost, and accumulating into it is an index instead
//! of a hash-map probe and a per-variable allocation. Variables the value
//! does not depend on keep all-zero rows.

use std::sync::Arc;

/// Identifier of a prediction variable (one model inference instance).
pub type VarId = u32;

/// Boolean provenance formula over prediction atoms.
#[derive(Debug, Clone, PartialEq)]
pub enum BoolProv {
    /// Constant truth value (model-independent sub-predicates fold here).
    Const(bool),
    /// Atom: `predict(var) == class`.
    PredIs {
        /// Prediction variable.
        var: VarId,
        /// Class the prediction is compared to.
        class: usize,
    },
    /// Atom: `predict(left) == predict(right)` (join conditions). Relaxes
    /// to `Σ_c p_l[c]·p_r[c]` in one node instead of a 2·C-term DNF.
    PredEq {
        /// Left prediction variable.
        left: VarId,
        /// Right prediction variable.
        right: VarId,
    },
    /// Negation.
    Not(Box<BoolProv>),
    /// Conjunction.
    And(Vec<BoolProv>),
    /// Disjunction.
    Or(Vec<BoolProv>),
}

/// The numeric quantity a row contributes to an aggregate when its
/// membership formula holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggTerm {
    /// Contributes 1 (COUNT).
    One,
    /// Contributes a model-independent constant (SUM/AVG of a column).
    Const(f64),
    /// Contributes the numeric value of the prediction: discretely the
    /// class index, relaxed to the expectation `Σ_c c·p[c]`
    /// (SUM/AVG of `predict(...)`; for binary models this is `P(class 1)`).
    PredValue(VarId),
    /// Contributes `weight ×` the prediction's numeric value — the
    /// appendix-B generalization (`SUM(10^position · predict(image))` in
    /// the OCR example). Relaxes to `weight · Σ_c c·p[c]`.
    ScaledPred {
        /// Prediction variable.
        var: VarId,
        /// Model-independent multiplier.
        weight: f64,
    },
}

/// A sum `Σ_rows 1[formula] · term` — the provenance of a COUNT/SUM cell.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AggSum {
    /// `(membership formula, contributed term)` per candidate row.
    pub terms: Vec<(BoolProv, AggTerm)>,
}

/// Provenance of one output cell.
///
/// Aggregate sums sit behind [`Arc`]: the incremental refresh path emits
/// one `CellProv` per aggregate cell per iteration, and the underlying
/// [`AggSum`] (one term per candidate tuple — thousands of formulas on the
/// paper's workloads) is owned by the cached query skeleton. Sharing it
/// makes a refresh's provenance emission O(cells) instead of O(terms).
#[derive(Debug, Clone, PartialEq)]
pub enum CellProv {
    /// Membership formula of a non-aggregate output row.
    Bool(BoolProv),
    /// COUNT or SUM cell.
    Sum(Arc<AggSum>),
    /// AVG cell: numerator / denominator (both sums over the same rows).
    Ratio(Arc<AggSum>, Arc<AggSum>),
}

/// Per-variable class probabilities in one flat `n_vars × n_classes`
/// buffer: variable `v`'s row `p[v][·]` is [`Probs::row`]`(v)`.
#[derive(Debug, Clone)]
pub struct Probs {
    n_classes: usize,
    p: Vec<f64>,
}

impl Probs {
    /// Probabilities from consecutive `n_classes`-wide rows, one per
    /// variable in id order, each summing to 1.
    ///
    /// # Panics
    /// Panics if `n_classes` is 0 or does not divide `p.len()`.
    pub fn new(n_classes: usize, p: Vec<f64>) -> Self {
        assert!(
            n_classes > 0 && p.len().is_multiple_of(n_classes),
            "{} probabilities do not split into {n_classes}-class rows",
            p.len()
        );
        Probs { n_classes, p }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.p.len() / self.n_classes
    }

    /// Class probabilities of `var`. Every read goes through here, so a
    /// class index past the row panics instead of reading the next
    /// variable's row.
    pub fn row(&self, var: VarId) -> &[f64] {
        let c = self.n_classes;
        &self.p[var as usize * c..][..c]
    }
}

/// Gradient of a relaxed value w.r.t. every `p[var][class]`, laid out like
/// the [`Probs`] it was taken at; the rows of variables the value does not
/// depend on stay zero.
#[derive(Debug, Clone)]
pub struct ProbGrad {
    n_classes: usize,
    g: Vec<f64>,
}

impl ProbGrad {
    /// An all-zero gradient shaped like `probs`.
    pub fn zeros_like(probs: &Probs) -> Self {
        ProbGrad {
            n_classes: probs.n_classes,
            g: vec![0.0; probs.p.len()],
        }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.g.len() / self.n_classes
    }

    /// `d value / d p[var][·]`.
    pub fn row(&self, var: VarId) -> &[f64] {
        let c = self.n_classes;
        &self.g[var as usize * c..][..c]
    }

    /// Mutable [`ProbGrad::row`]: as there, a class index past the row
    /// panics instead of writing into the next variable's row.
    pub fn row_mut(&mut self, var: VarId) -> &mut [f64] {
        let c = self.n_classes;
        &mut self.g[var as usize * c..][..c]
    }
}

impl BoolProv {
    /// Conjunction with constant folding.
    pub fn and(terms: Vec<BoolProv>) -> BoolProv {
        let mut out = Vec::with_capacity(terms.len());
        for t in terms {
            match t {
                BoolProv::Const(true) => {}
                BoolProv::Const(false) => return BoolProv::Const(false),
                BoolProv::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => BoolProv::Const(true),
            1 => out.pop().unwrap(),
            _ => BoolProv::And(out),
        }
    }

    /// Disjunction with constant folding.
    pub fn or(terms: Vec<BoolProv>) -> BoolProv {
        let mut out = Vec::with_capacity(terms.len());
        for t in terms {
            match t {
                BoolProv::Const(false) => {}
                BoolProv::Const(true) => return BoolProv::Const(true),
                BoolProv::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => BoolProv::Const(false),
            1 => out.pop().unwrap(),
            _ => BoolProv::Or(out),
        }
    }

    /// Negation with folding.
    pub fn negate(self) -> BoolProv {
        match self {
            BoolProv::Const(b) => BoolProv::Const(!b),
            BoolProv::Not(inner) => *inner,
            other => BoolProv::Not(Box::new(other)),
        }
    }

    /// True when the formula contains no prediction atoms.
    pub fn is_const(&self) -> bool {
        matches!(self, BoolProv::Const(_))
    }

    /// Evaluate against hard predictions (`preds[var] = class`).
    pub fn eval_discrete(&self, preds: &[usize]) -> bool {
        match self {
            BoolProv::Const(b) => *b,
            BoolProv::PredIs { var, class } => preds[*var as usize] == *class,
            BoolProv::PredEq { left, right } => preds[*left as usize] == preds[*right as usize],
            BoolProv::Not(inner) => !inner.eval_discrete(preds),
            BoolProv::And(terms) => terms.iter().all(|t| t.eval_discrete(preds)),
            BoolProv::Or(terms) => terms.iter().any(|t| t.eval_discrete(preds)),
        }
    }

    /// Relaxed (probabilistic) evaluation per §5.3.1.
    pub fn eval_relaxed(&self, probs: &Probs) -> f64 {
        match self {
            BoolProv::Const(b) => *b as u8 as f64,
            BoolProv::PredIs { var, class } => probs.row(*var)[*class],
            BoolProv::PredEq { left, right } => {
                rain_linalg::vecops::dot(probs.row(*left), probs.row(*right))
            }
            BoolProv::Not(inner) => 1.0 - inner.eval_relaxed(probs),
            BoolProv::And(terms) => terms.iter().map(|t| t.eval_relaxed(probs)).product(),
            BoolProv::Or(terms) => {
                1.0 - terms
                    .iter()
                    .map(|t| 1.0 - t.eval_relaxed(probs))
                    .product::<f64>()
            }
        }
    }

    /// Reverse-mode accumulation: add `adj · ∂(relaxed)/∂p[·][·]` into
    /// `grad`.
    pub fn accumulate_grad(&self, probs: &Probs, adj: f64, grad: &mut ProbGrad) {
        if adj == 0.0 {
            return;
        }
        match self {
            BoolProv::Const(_) => {}
            BoolProv::PredIs { var, class } => grad.row_mut(*var)[*class] += adj,
            BoolProv::PredEq { left, right } => {
                let (l, r) = (probs.row(*left), probs.row(*right));
                for (s, &rc) in grad.row_mut(*left).iter_mut().zip(r) {
                    *s += adj * rc;
                }
                for (s, &lc) in grad.row_mut(*right).iter_mut().zip(l) {
                    *s += adj * lc;
                }
            }
            BoolProv::Not(inner) => inner.accumulate_grad(probs, -adj, grad),
            BoolProv::And(terms) => {
                // adjoint of child i = adj · Π_{j≠i} x_j (prefix/suffix products).
                let vals: Vec<f64> = terms.iter().map(|t| t.eval_relaxed(probs)).collect();
                let n = vals.len();
                let mut prefix = vec![1.0; n + 1];
                for i in 0..n {
                    prefix[i + 1] = prefix[i] * vals[i];
                }
                let mut suffix = vec![1.0; n + 1];
                for i in (0..n).rev() {
                    suffix[i] = suffix[i + 1] * vals[i];
                }
                for (i, t) in terms.iter().enumerate() {
                    t.accumulate_grad(probs, adj * prefix[i] * suffix[i + 1], grad);
                }
            }
            BoolProv::Or(terms) => {
                // 1 - Π(1-x_j): adjoint of child i = adj · Π_{j≠i}(1-x_j).
                let vals: Vec<f64> = terms.iter().map(|t| 1.0 - t.eval_relaxed(probs)).collect();
                let n = vals.len();
                let mut prefix = vec![1.0; n + 1];
                for i in 0..n {
                    prefix[i + 1] = prefix[i] * vals[i];
                }
                let mut suffix = vec![1.0; n + 1];
                for i in (0..n).rev() {
                    suffix[i] = suffix[i + 1] * vals[i];
                }
                for (i, t) in terms.iter().enumerate() {
                    t.accumulate_grad(probs, adj * prefix[i] * suffix[i + 1], grad);
                }
            }
        }
    }

    /// Collect the distinct variables mentioned by the formula.
    pub fn collect_vars(&self, out: &mut std::collections::BTreeSet<VarId>) {
        match self {
            BoolProv::Const(_) => {}
            BoolProv::PredIs { var, .. } => {
                out.insert(*var);
            }
            BoolProv::PredEq { left, right } => {
                out.insert(*left);
                out.insert(*right);
            }
            BoolProv::Not(inner) => inner.collect_vars(out),
            BoolProv::And(terms) | BoolProv::Or(terms) => {
                for t in terms {
                    t.collect_vars(out);
                }
            }
        }
    }
}

impl AggTerm {
    /// Discrete numeric value of the term.
    pub fn eval_discrete(&self, preds: &[usize]) -> f64 {
        match self {
            AggTerm::One => 1.0,
            AggTerm::Const(v) => *v,
            AggTerm::PredValue(var) => preds[*var as usize] as f64,
            AggTerm::ScaledPred { var, weight } => weight * preds[*var as usize] as f64,
        }
    }

    /// Relaxed numeric value (`PredValue` → `Σ_c c·p[c]`).
    pub fn eval_relaxed(&self, probs: &Probs) -> f64 {
        match self {
            AggTerm::One => 1.0,
            AggTerm::Const(v) => *v,
            AggTerm::PredValue(var) => probs
                .row(*var)
                .iter()
                .enumerate()
                .map(|(c, &p)| c as f64 * p)
                .sum(),
            AggTerm::ScaledPred { var, weight } => {
                weight
                    * probs
                        .row(*var)
                        .iter()
                        .enumerate()
                        .map(|(c, &p)| c as f64 * p)
                        .sum::<f64>()
            }
        }
    }

    fn accumulate_grad(&self, adj: f64, grad: &mut ProbGrad) {
        match self {
            AggTerm::PredValue(var) => {
                for (c, s) in grad.row_mut(*var).iter_mut().enumerate() {
                    *s += adj * c as f64;
                }
            }
            AggTerm::ScaledPred { var, weight } => {
                for (c, s) in grad.row_mut(*var).iter_mut().enumerate() {
                    *s += adj * weight * c as f64;
                }
            }
            AggTerm::One | AggTerm::Const(_) => {}
        }
    }
}

impl AggSum {
    /// Discrete value of the sum.
    pub fn eval_discrete(&self, preds: &[usize]) -> f64 {
        self.terms
            .iter()
            .filter(|(f, _)| f.eval_discrete(preds))
            .map(|(_, t)| t.eval_discrete(preds))
            .sum()
    }

    /// Relaxed value `Σ relaxed(formula)·relaxed(term)`.
    pub fn eval_relaxed(&self, probs: &Probs) -> f64 {
        self.terms
            .iter()
            .map(|(f, t)| f.eval_relaxed(probs) * t.eval_relaxed(probs))
            .sum()
    }

    /// Reverse-mode accumulation into `grad`.
    pub fn accumulate_grad(&self, probs: &Probs, adj: f64, grad: &mut ProbGrad) {
        if adj == 0.0 {
            return;
        }
        for (f, t) in &self.terms {
            let fv = f.eval_relaxed(probs);
            let tv = t.eval_relaxed(probs);
            f.accumulate_grad(probs, adj * tv, grad);
            t.accumulate_grad(adj * fv, grad);
        }
    }
}

impl CellProv {
    /// Discrete value of the cell (bools as 0/1).
    pub fn eval_discrete(&self, preds: &[usize]) -> f64 {
        match self {
            CellProv::Bool(f) => f.eval_discrete(preds) as u8 as f64,
            CellProv::Sum(s) => s.eval_discrete(preds),
            CellProv::Ratio(num, den) => {
                let d = den.eval_discrete(preds);
                if d == 0.0 {
                    0.0
                } else {
                    num.eval_discrete(preds) / d
                }
            }
        }
    }

    /// Relaxed value of the cell. AVG relaxes to the ratio of expectations
    /// (with a small floor on the denominator to stay differentiable).
    pub fn eval_relaxed(&self, probs: &Probs) -> f64 {
        match self {
            CellProv::Bool(f) => f.eval_relaxed(probs),
            CellProv::Sum(s) => s.eval_relaxed(probs),
            CellProv::Ratio(num, den) => {
                let d = den.eval_relaxed(probs).max(1e-9);
                num.eval_relaxed(probs) / d
            }
        }
    }

    /// Gradient of the relaxed value w.r.t. all probabilities.
    pub fn grad(&self, probs: &Probs) -> ProbGrad {
        let mut g = ProbGrad::zeros_like(probs);
        self.accumulate_grad(probs, 1.0, &mut g);
        g
    }

    /// Reverse-mode accumulation with an external adjoint.
    pub fn accumulate_grad(&self, probs: &Probs, adj: f64, grad: &mut ProbGrad) {
        match self {
            CellProv::Bool(f) => f.accumulate_grad(probs, adj, grad),
            CellProv::Sum(s) => s.accumulate_grad(probs, adj, grad),
            CellProv::Ratio(num, den) => {
                // d(n/d) = dn/d - n·dd/d².
                let d = den.eval_relaxed(probs).max(1e-9);
                let nv = num.eval_relaxed(probs);
                num.accumulate_grad(probs, adj / d, grad);
                den.accumulate_grad(probs, -adj * nv / (d * d), grad);
            }
        }
    }

    /// Distinct variables mentioned by the cell.
    pub fn vars(&self) -> std::collections::BTreeSet<VarId> {
        let mut out = std::collections::BTreeSet::new();
        match self {
            CellProv::Bool(f) => f.collect_vars(&mut out),
            CellProv::Sum(s) => {
                for (f, t) in &s.terms {
                    f.collect_vars(&mut out);
                    if let AggTerm::PredValue(v) | AggTerm::ScaledPred { var: v, .. } = t {
                        out.insert(*v);
                    }
                }
            }
            CellProv::Ratio(num, den) => {
                for s in [num, den] {
                    for (f, t) in &s.terms {
                        f.collect_vars(&mut out);
                        if let AggTerm::PredValue(v) | AggTerm::ScaledPred { var: v, .. } = t {
                            out.insert(*v);
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binary_probs(ps: &[f64]) -> Probs {
        Probs::new(2, ps.iter().flat_map(|&p| [1.0 - p, p]).collect())
    }

    fn atom(var: VarId) -> BoolProv {
        BoolProv::PredIs { var, class: 1 }
    }

    #[test]
    fn constant_folding() {
        assert_eq!(BoolProv::and(vec![BoolProv::Const(true), atom(0)]), atom(0));
        assert_eq!(
            BoolProv::and(vec![BoolProv::Const(false), atom(0)]),
            BoolProv::Const(false)
        );
        assert_eq!(BoolProv::or(vec![]), BoolProv::Const(false));
        assert_eq!(BoolProv::and(vec![]), BoolProv::Const(true));
        assert_eq!(atom(0).negate().negate(), atom(0));
        // Nested And flattens.
        assert_eq!(
            BoolProv::and(vec![BoolProv::and(vec![atom(0), atom(1)]), atom(2)]),
            BoolProv::And(vec![atom(0), atom(1), atom(2)])
        );
    }

    #[test]
    fn discrete_evaluation() {
        let f = BoolProv::and(vec![atom(0), atom(1).negate()]);
        assert!(f.eval_discrete(&[1, 0]));
        assert!(!f.eval_discrete(&[1, 1]));
        let eq = BoolProv::PredEq { left: 0, right: 1 };
        assert!(eq.eval_discrete(&[3, 3]));
        assert!(!eq.eval_discrete(&[3, 4]));
    }

    #[test]
    fn relaxation_rules_match_paper() {
        let p = binary_probs(&[0.3, 0.6]);
        // AND → product.
        let f = BoolProv::and(vec![atom(0), atom(1)]);
        assert!((f.eval_relaxed(&p) - 0.3 * 0.6).abs() < 1e-12);
        // OR → 1-(1-x)(1-y).
        let f = BoolProv::or(vec![atom(0), atom(1)]);
        assert!((f.eval_relaxed(&p) - (1.0 - 0.7 * 0.4)).abs() < 1e-12);
        // NOT → 1-x.
        assert!((atom(0).negate().eval_relaxed(&p) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn relaxation_agrees_with_discrete_at_unit_probabilities() {
        // Degenerate probabilities (0/1) must reproduce discrete semantics.
        let f = BoolProv::or(vec![
            BoolProv::and(vec![atom(0), atom(1)]),
            atom(2).negate(),
        ]);
        for bits in 0..8u32 {
            let preds: Vec<usize> = (0..3).map(|i| ((bits >> i) & 1) as usize).collect();
            let probs = binary_probs(&preds.iter().map(|&c| c as f64).collect::<Vec<_>>());
            assert_eq!(
                f.eval_discrete(&preds) as u8 as f64,
                f.eval_relaxed(&probs),
                "bits {bits}"
            );
        }
    }

    #[test]
    fn read_once_relaxation_equals_exact_expectation() {
        // When every variable appears once, the relaxation IS the
        // expectation (paper cites [29]). Check against brute-force
        // enumeration for (x0 AND x1) OR x2.
        let f = BoolProv::or(vec![BoolProv::and(vec![atom(0), atom(1)]), atom(2)]);
        let ps = [0.2, 0.7, 0.4];
        let probs = binary_probs(&ps);
        let mut expect = 0.0;
        for bits in 0..8u32 {
            let preds: Vec<usize> = (0..3).map(|i| ((bits >> i) & 1) as usize).collect();
            let weight: f64 = (0..3)
                .map(|i| if preds[i] == 1 { ps[i] } else { 1.0 - ps[i] })
                .product();
            if f.eval_discrete(&preds) {
                expect += weight;
            }
        }
        assert!((f.eval_relaxed(&probs) - expect).abs() < 1e-12);
    }

    #[test]
    fn pred_eq_relaxes_to_dot_product() {
        let probs = Probs::new(3, vec![0.2, 0.5, 0.3, 0.1, 0.8, 0.1]);
        let f = BoolProv::PredEq { left: 0, right: 1 };
        let expect = 0.2 * 0.1 + 0.5 * 0.8 + 0.3 * 0.1;
        assert!((f.eval_relaxed(&probs) - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn out_of_range_class_panics_instead_of_reaching_the_next_row() {
        // Flat, row 0 class 2 would be row 1 class 0.
        let probs = binary_probs(&[0.3, 0.6]);
        let f = CellProv::Bool(BoolProv::PredIs { var: 0, class: 2 });
        f.grad(&probs);
    }

    /// Finite-difference check of a cell gradient.
    fn check_grad(cell: &CellProv, probs: &Probs) {
        let g = cell.grad(probs);
        let eps = 1e-6;
        let n = probs.n_classes;
        for var in 0..probs.n_vars() {
            for c in 0..n {
                let mut up = probs.clone();
                up.p[var * n + c] += eps;
                let mut dn = probs.clone();
                dn.p[var * n + c] -= eps;
                let fd = (cell.eval_relaxed(&up) - cell.eval_relaxed(&dn)) / (2.0 * eps);
                let got = g.row(var as VarId)[c];
                assert!(
                    (fd - got).abs() < 1e-6,
                    "var {var} class {c}: fd {fd} vs {got}"
                );
            }
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let probs = binary_probs(&[0.3, 0.6, 0.1]);
        // Shared-variable formula exercises the product rules.
        let f = BoolProv::or(vec![
            BoolProv::and(vec![atom(0), atom(1)]),
            BoolProv::and(vec![atom(0).negate(), atom(2)]),
        ]);
        check_grad(&CellProv::Bool(f), &probs);
        // A COUNT over three rows.
        let sum = AggSum {
            terms: vec![
                (atom(0), AggTerm::One),
                (atom(1), AggTerm::One),
                (BoolProv::and(vec![atom(0), atom(2)]), AggTerm::One),
            ],
        };
        check_grad(&CellProv::Sum(Arc::new(sum.clone())), &probs);
        // An AVG (ratio) with a PredValue numerator.
        let num = AggSum {
            terms: vec![
                (BoolProv::Const(true), AggTerm::PredValue(0)),
                (BoolProv::Const(true), AggTerm::PredValue(1)),
            ],
        };
        let den = AggSum {
            terms: vec![
                (BoolProv::Const(true), AggTerm::One),
                (BoolProv::Const(true), AggTerm::One),
            ],
        };
        check_grad(&CellProv::Ratio(Arc::new(num), Arc::new(den)), &probs);
        // PredEq gradient.
        let probs3 = Probs::new(3, vec![0.2, 0.5, 0.3, 0.1, 0.8, 0.1]);
        check_grad(
            &CellProv::Bool(BoolProv::PredEq { left: 0, right: 1 }),
            &probs3,
        );
    }

    #[test]
    fn count_cell_discrete_and_relaxed() {
        let sum = AggSum {
            terms: vec![(atom(0), AggTerm::One), (atom(1), AggTerm::One)],
        };
        let cell = CellProv::Sum(Arc::new(sum));
        assert_eq!(cell.eval_discrete(&[1, 0]), 1.0);
        let probs = binary_probs(&[0.9, 0.2]);
        assert!((cell.eval_relaxed(&probs) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn avg_ratio_semantics() {
        // AVG(predict) over two always-present rows.
        let num = AggSum {
            terms: vec![
                (BoolProv::Const(true), AggTerm::PredValue(0)),
                (BoolProv::Const(true), AggTerm::PredValue(1)),
            ],
        };
        let den = AggSum {
            terms: vec![
                (BoolProv::Const(true), AggTerm::One),
                (BoolProv::Const(true), AggTerm::One),
            ],
        };
        let cell = CellProv::Ratio(Arc::new(num), Arc::new(den));
        assert_eq!(cell.eval_discrete(&[1, 0]), 0.5);
        let probs = binary_probs(&[0.8, 0.4]);
        assert!((cell.eval_relaxed(&probs) - 0.6).abs() < 1e-12);
        // Empty denominator → 0, not NaN.
        let empty = CellProv::Ratio(Arc::default(), Arc::default());
        assert_eq!(empty.eval_discrete(&[]), 0.0);
    }

    #[test]
    fn vars_collection() {
        let f = BoolProv::or(vec![
            BoolProv::and(vec![atom(3), atom(1)]),
            BoolProv::PredEq { left: 5, right: 1 },
        ]);
        let cell = CellProv::Bool(f);
        let vars: Vec<VarId> = cell.vars().into_iter().collect();
        assert_eq!(vars, vec![1, 3, 5]);
    }
}
