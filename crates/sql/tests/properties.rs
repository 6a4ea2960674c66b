//! Property tests for the provenance relaxation, the SQL printer, and the
//! plan optimizer.
//!
//! The workspace carries no external dependencies, so instead of a
//! proptest-style framework these properties are checked over many
//! seeded-random cases drawn from [`RainRng`]; the failing seed is named in
//! the assertion message, making every failure reproducible.

mod common;

use common::{index_all, random_db, random_query, step_model, Tally};
use rain_linalg::RainRng;
use rain_sql::table::ColType;
use rain_sql::{
    bind, execute, optimize, parse_select, printer, AggSum, AggTerm, BoolProv, CellProv, Database,
    ExecOptions, OptimizerConfig, PredVarRegistry, Probs, QueryOutput, QueryPlan,
};
use std::cmp::Ordering;
use std::collections::HashMap;

const CASES: u64 = 96;

/// Random boolean formula over `n_vars` binary prediction variables.
fn formula(rng: &mut RainRng, n_vars: u32, depth: u32) -> BoolProv {
    if depth == 0 || rng.bernoulli(0.3) {
        return match rng.below(3) {
            0 => BoolProv::Const(rng.bernoulli(0.5)),
            1 => BoolProv::PredIs {
                var: rng.below(n_vars as usize) as u32,
                class: rng.below(2),
            },
            _ => BoolProv::PredIs {
                var: rng.below(n_vars as usize) as u32,
                class: rng.below(2),
            },
        };
    }
    match rng.below(3) {
        0 => formula(rng, n_vars, depth - 1).negate(),
        1 => {
            let n = 1 + rng.below(2);
            BoolProv::and((0..n).map(|_| formula(rng, n_vars, depth - 1)).collect())
        }
        _ => {
            let n = 1 + rng.below(2);
            BoolProv::or((0..n).map(|_| formula(rng, n_vars, depth - 1)).collect())
        }
    }
}

/// Random well-formed binary class probabilities for `n_vars` variables.
fn probs(rng: &mut RainRng, n_vars: usize) -> Probs {
    binary_probs((0..n_vars).map(|_| rng.uniform_range(0.01, 0.99)))
}

/// Binary class probabilities `[1 − p, p]` per variable, in order.
fn binary_probs(ps: impl IntoIterator<Item = f64>) -> Probs {
    Probs::new(2, ps.into_iter().flat_map(|p| [1.0 - p, p]).collect())
}

/// At degenerate (0/1) probabilities the relaxation must agree with the
/// discrete semantics for ANY formula — relaxation is exact on the boolean
/// lattice corners.
#[test]
fn relaxation_exact_at_corners() {
    for seed in 0..CASES {
        let mut rng = RainRng::seed_from_u64(seed);
        let f = formula(&mut rng, 4, 4);
        let bits = rng.below(16) as u32;
        let preds: Vec<usize> = (0..4).map(|i| ((bits >> i) & 1) as usize).collect();
        let p = binary_probs(preds.iter().map(|&c| c as f64));
        assert_eq!(
            f.eval_discrete(&preds) as u8 as f64,
            f.eval_relaxed(&p),
            "seed {seed}"
        );
    }
}

/// The relaxed value of any formula is a probability-like quantity.
#[test]
fn relaxation_stays_in_unit_interval() {
    for seed in 0..CASES {
        let mut rng = RainRng::seed_from_u64(seed);
        let f = formula(&mut rng, 4, 4);
        let p = probs(&mut rng, 4);
        let v = f.eval_relaxed(&p);
        assert!((-1e-9..=1.0 + 1e-9).contains(&v), "seed {seed}: v = {v}");
    }
}

/// Reverse-mode gradients of arbitrary formulas match central finite
/// differences.
#[test]
fn formula_gradients_match_fd() {
    for seed in 0..CASES {
        let mut rng = RainRng::seed_from_u64(seed);
        let cell = CellProv::Bool(formula(&mut rng, 3, 3));
        let p = probs(&mut rng, 3);
        let g = cell.grad(&p);
        let eps = 1e-6;
        // `p` with `delta` added to one probability.
        let moved = |var: u32, class: usize, delta: f64| {
            let mut flat: Vec<f64> = (0..3).flat_map(|v| p.row(v).to_vec()).collect();
            flat[var as usize * 2 + class] += delta;
            Probs::new(2, flat)
        };
        for var in 0..3u32 {
            for class in 0..2usize {
                let up = moved(var, class, eps);
                let dn = moved(var, class, -eps);
                let fd = (cell.eval_relaxed(&up) - cell.eval_relaxed(&dn)) / (2.0 * eps);
                let got = g.row(var)[class];
                assert!(
                    (fd - got).abs() < 1e-5,
                    "seed {seed} var {var} class {class}: fd {fd} vs {got}"
                );
            }
        }
    }
}

/// For COUNT cells whose rows are single independent atoms, the relaxation
/// IS the exact expectation (read-once case of [29]): Σ E[1(pred_i = c_i)]
/// by linearity.
#[test]
fn count_relaxation_is_exact_expectation() {
    for seed in 0..CASES {
        let mut rng = RainRng::seed_from_u64(seed);
        let n = 1 + rng.below(5);
        let classes: Vec<usize> = (0..n).map(|_| rng.below(2)).collect();
        let p = probs(&mut rng, 6);
        let terms: Vec<(BoolProv, AggTerm)> = classes
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                (
                    BoolProv::PredIs {
                        var: i as u32,
                        class: c,
                    },
                    AggTerm::One,
                )
            })
            .collect();
        let cell = CellProv::Sum(std::sync::Arc::new(AggSum { terms }));
        let expect: f64 = classes
            .iter()
            .enumerate()
            .map(|(i, &c)| p.row(i as u32)[c])
            .sum();
        assert!(
            (cell.eval_relaxed(&p) - expect).abs() < 1e-12,
            "seed {seed}"
        );
    }
}

/// De Morgan holds exactly under the relaxation for disjoint-variable
/// operands: NOT(a AND b) == NOT a OR NOT b, because both sides reduce to
/// `1 - x·y` when a, b are independent.
#[test]
fn de_morgan_on_distinct_vars() {
    for seed in 0..CASES {
        let mut rng = RainRng::seed_from_u64(seed);
        let p = probs(&mut rng, 2);
        let a = BoolProv::PredIs { var: 0, class: 1 };
        let b = BoolProv::PredIs { var: 1, class: 1 };
        let lhs = BoolProv::and(vec![a.clone(), b.clone()]).negate();
        let rhs = BoolProv::or(vec![a.negate(), b.negate()]);
        assert!(
            (lhs.eval_relaxed(&p) - rhs.eval_relaxed(&p)).abs() < 1e-12,
            "seed {seed}"
        );
    }
}

/// Printing then reparsing a parsed statement is a fixpoint over the
/// shared generator's queries.
#[test]
fn printer_roundtrip_generated_filters() {
    for seed in 0..CASES {
        let mut rng = RainRng::seed_from_u64(seed);
        let sql = random_query(&mut rng, &mut Tally::default());
        let printed = printer::stmt_to_sql(&parse_select(&sql).unwrap());
        let reparsed = parse_select(&printed).unwrap();
        assert_eq!(printed, printer::stmt_to_sql(&reparsed), "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Optimizer equivalence: on randomized SPJA queries, the optimized plan
// must return exactly the rows of the naive plan, and debug-mode
// provenance must be *semantically* identical — every captured formula
// evaluates the same under every assignment of the prediction variables
// (variable ids are canonicalized through each registry's (table, row)
// info, since pushdown legitimately skips variables for tuples that were
// concretely pruned earlier).
// ---------------------------------------------------------------------

/// The shared harness's t1/t2 catalog with secondary indexes (hash and
/// sorted), so optimized plans exercise index scans and index-nested-loop
/// joins against the index-free naive plan.
fn indexed_db(rng: &mut RainRng) -> Database {
    let mut db = random_db(rng);
    index_all(&mut db);
    db
}

/// Canonical assignment of classes per underlying `(table, row)`; each
/// registry's preds vector is derived from it so formulas from different
/// plans evaluate under the same world.
fn preds_for(reg: &PredVarRegistry, assign: &HashMap<(String, usize), usize>) -> Vec<usize> {
    reg.infos()
        .iter()
        .map(|i| assign[&(i.table.clone(), i.row)])
        .collect()
}

fn probs_for(reg: &PredVarRegistry, assign: &HashMap<(String, usize), f64>) -> Probs {
    binary_probs(
        reg.infos()
            .iter()
            .map(|i| assign[&(i.table.clone(), i.row)]),
    )
}

/// All `(table, row)` keys either registry knows.
fn var_keys(a: &PredVarRegistry, b: &PredVarRegistry) -> Vec<(String, usize)> {
    let mut keys: Vec<(String, usize)> = a
        .infos()
        .iter()
        .chain(b.infos())
        .map(|i| (i.table.clone(), i.row))
        .collect();
    keys.sort();
    keys.dedup();
    keys
}

/// A sampled world: one discrete class assignment and one relaxed
/// probability assignment per underlying `(table, row)`.
type World = (
    HashMap<(String, usize), usize>,
    HashMap<(String, usize), f64>,
);

/// One output row in canonical form: its printed values plus its
/// provenance behavior under each sampled world — discrete bits (row
/// formulas) or `1e-6`-rounded values (aggregate cells) as the exact
/// part, raw relaxed values compared with a tolerance after alignment.
/// Values of FLOAT columns are held apart from the line and compared
/// with the same tolerance: a float SUM or AVG over a join adds its terms
/// in the join's order, which the optimizer may legitimately change.
struct RowRecord {
    line: String,
    floats: Vec<f64>,
    discrete: Vec<i64>,
    relaxed: Vec<f64>,
}

/// Canonicalize an output into sorted [`RowRecord`]s. Sorting by
/// `(line, floats, discrete)` aligns rows across plans whose join orders — and
/// thus emission orders — legitimately differ.
fn row_records(out: &QueryOutput, worlds: &[World]) -> Vec<RowRecord> {
    let float_cols: Vec<bool> = out
        .table
        .schema()
        .iter()
        .map(|c| c.ty == ColType::Float)
        .collect();
    let views: Vec<(Vec<usize>, Probs)> = worlds
        .iter()
        .map(|(classes, ps)| {
            (
                preds_for(&out.predvars, classes),
                probs_for(&out.predvars, ps),
            )
        })
        .collect();
    let tsv = out.table.to_tsv();
    let mut recs: Vec<RowRecord> = tsv
        .lines()
        .skip(1) // header
        .enumerate()
        .map(|(i, line)| {
            let mut discrete = Vec::new();
            let mut relaxed = Vec::new();
            for (preds, probs) in &views {
                if let Some(f) = out.row_prov.get(i) {
                    discrete.push(f.eval_discrete(preds) as i64);
                    relaxed.push(f.eval_relaxed(probs));
                }
                for c in out.agg_cells.get(i).into_iter().flatten() {
                    discrete.push((c.eval_discrete(preds) * 1e6).round() as i64);
                    relaxed.push(c.eval_relaxed(probs));
                }
            }
            let (mut fields, mut floats) = (Vec::new(), Vec::new());
            for (field, &is_float) in line.split('\t').zip(&float_cols) {
                match field.parse::<f64>() {
                    Ok(v) if is_float => floats.push(v),
                    _ => fields.push(field),
                }
            }
            RowRecord {
                line: fields.join("\t"),
                floats,
                discrete,
                relaxed,
            }
        })
        .collect();
    recs.sort_by(|a, b| {
        let floats = a.floats.iter().zip(&b.floats).map(|(x, y)| x.total_cmp(y));
        a.line
            .cmp(&b.line)
            .then(floats.fold(Ordering::Equal, Ordering::then))
            .then(a.discrete.cmp(&b.discrete))
    });
    recs
}

/// Assert the two outputs hold the same multiset of rows and that
/// provenance is equivalent under random discrete + relaxed worlds.
/// Order-insensitive on purpose: the cost-based optimizer may pick a
/// different join order than the naive plan, which permutes the (SQL-wise
/// unordered) output rows; engine-vs-engine tests on the *same* plan
/// (`common::assert_identical`) stay exact-order.
fn assert_equivalent(seed: u64, naive: &QueryOutput, opt: &QueryOutput, rng: &mut RainRng) {
    assert_eq!(naive.n_key_cols, opt.n_key_cols, "seed {seed}");
    assert_eq!(naive.row_prov.len(), opt.row_prov.len(), "seed {seed}");
    assert_eq!(naive.agg_cells.len(), opt.agg_cells.len(), "seed {seed}");
    assert_eq!(
        naive.table.to_tsv().lines().next(),
        opt.table.to_tsv().lines().next(),
        "seed {seed}: headers differ"
    );

    let keys = var_keys(&naive.predvars, &opt.predvars);
    let worlds: Vec<World> = (0..8)
        .map(|_| {
            (
                keys.iter().map(|k| (k.clone(), rng.below(2))).collect(),
                keys.iter()
                    .map(|k| (k.clone(), rng.uniform_range(0.01, 0.99)))
                    .collect(),
            )
        })
        .collect();

    let rec_n = row_records(naive, &worlds);
    let rec_o = row_records(opt, &worlds);
    assert_eq!(rec_n.len(), rec_o.len(), "seed {seed}: row counts differ");
    for (i, (n, o)) in rec_n.iter().zip(&rec_o).enumerate() {
        assert_eq!(n.line, o.line, "seed {seed} sorted row {i}: rows differ");
        assert_eq!(n.floats.len(), o.floats.len(), "seed {seed} sorted row {i}");
        for (a, b) in n.floats.iter().zip(&o.floats) {
            assert!(
                (a - b).abs() < 1e-9,
                "seed {seed} sorted row {i}: float values differ ({a} vs {b})"
            );
        }
        assert_eq!(
            n.discrete, o.discrete,
            "seed {seed} sorted row {i}: discrete provenance differs"
        );
        for (a, b) in n.relaxed.iter().zip(&o.relaxed) {
            assert!(
                (a - b).abs() < 1e-9,
                "seed {seed} sorted row {i}: relaxed provenance differs ({a} vs {b})"
            );
        }
    }
}

/// The headline property: optimized and naive plans agree on rows and
/// provenance for randomized SPJA queries, in both execution modes, and
/// the optimizer never widens a column footprint.
#[test]
fn optimizer_preserves_results_and_provenance() {
    let model = step_model();
    for seed in 0..CASES {
        let mut rng = RainRng::seed_from_u64(0xA11CE ^ seed);
        let db = indexed_db(&mut rng);
        let sql = random_query(&mut rng, &mut Tally::default());
        let stmt = parse_select(&sql).unwrap_or_else(|e| panic!("seed {seed} `{sql}`: {e}"));
        let bound = bind(&stmt, &db).unwrap_or_else(|e| panic!("seed {seed} `{sql}`: {e}"));
        let naive_plan = QueryPlan::naive(bound.clone(), &db);
        let opt_plan = optimize(bound, &db);

        // Projection pruning may only narrow the footprint. Join
        // reordering may have permuted the relations, so match them up
        // by alias rather than by position.
        for (ri, cols) in opt_plan.used_cols.iter().enumerate() {
            let alias = &opt_plan.rels[ri].alias;
            let ni = naive_plan
                .rels
                .iter()
                .position(|r| &r.alias == alias)
                .unwrap();
            assert!(
                cols.is_subset(&naive_plan.used_cols[ni]),
                "seed {seed} `{sql}`: footprint widened on rel {alias}"
            );
        }

        for debug in [false, true] {
            let opts = ExecOptions::with_debug(debug);
            let out_n = execute(&db, &model, &naive_plan, opts)
                .unwrap_or_else(|e| panic!("seed {seed} `{sql}` naive: {e}"));
            let out_o = execute(&db, &model, &opt_plan, opts)
                .unwrap_or_else(|e| panic!("seed {seed} `{sql}` optimized: {e}"));
            assert_equivalent(seed, &out_n, &out_o, &mut rng);
        }
    }
}

/// Each rule on its own must also preserve results (catches a rule that
/// is only correct in combination with another). Index paths run with the
/// one rule they depend on, pushdown, and must reach every access path and
/// join algorithm.
#[test]
fn individual_rules_preserve_results() {
    let model = step_model();
    let configs = [
        OptimizerConfig {
            constant_folding: true,
            predicate_pushdown: false,
            projection_pruning: false,
            join_reorder: false,
            index_paths: false,
        },
        OptimizerConfig {
            constant_folding: false,
            predicate_pushdown: true,
            projection_pruning: false,
            join_reorder: false,
            index_paths: false,
        },
        OptimizerConfig {
            constant_folding: false,
            predicate_pushdown: false,
            projection_pruning: true,
            join_reorder: false,
            index_paths: false,
        },
        OptimizerConfig {
            constant_folding: false,
            predicate_pushdown: false,
            projection_pruning: false,
            join_reorder: true,
            index_paths: false,
        },
        // Index paths answer scan filters, so the rule needs pushdown
        // to have anything to choose from.
        OptimizerConfig {
            constant_folding: false,
            predicate_pushdown: true,
            projection_pruning: false,
            join_reorder: false,
            index_paths: true,
        },
    ];
    let mut index_plans = Tally::default();
    for seed in 0..CASES / 2 {
        let mut rng = RainRng::seed_from_u64(0xB0B ^ seed);
        let db = indexed_db(&mut rng);
        let sql = random_query(&mut rng, &mut Tally::default());
        let stmt = parse_select(&sql).unwrap();
        let bound = bind(&stmt, &db).unwrap();
        let naive_plan = QueryPlan::naive(bound.clone(), &db);
        let base = execute(&db, &model, &naive_plan, ExecOptions::debug())
            .unwrap_or_else(|e| panic!("seed {seed} `{sql}`: {e}"));
        for cfg in &configs {
            let plan = rain_sql::optimize_with(bound.clone(), &db, cfg);
            if cfg.index_paths {
                index_plans.note_plan(&plan);
            }
            let out = execute(&db, &model, &plan, ExecOptions::debug())
                .unwrap_or_else(|e| panic!("seed {seed} `{sql}`: {e}"));
            assert_equivalent(seed, &base, &out, &mut rng);
        }
    }
    index_plans.assert_complete("index-paths rule");
}
