//! Property tests for the provenance relaxation, the SQL printer, and the
//! plan optimizer.
//!
//! The workspace carries no external dependencies, so instead of a
//! proptest-style framework these properties are checked over many
//! seeded-random cases drawn from [`RainRng`]; the failing seed is named in
//! the assertion message, making every failure reproducible.

use rain_linalg::{Matrix, RainRng};
use rain_model::{Classifier, LogisticRegression};
use rain_sql::table::{ColType, Column, Schema, Table};
use rain_sql::{
    bind, execute, optimize, parse_select, printer, AggSum, AggTerm, BoolProv, CellProv, Database,
    ExecOptions, IndexKind, OptimizerConfig, PredVarRegistry, Probs, QueryOutput, QueryPlan,
};
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

/// Printing then reparsing a parsed statement is a fixpoint for a family of
/// generated filter queries.
#[test]
fn printer_roundtrip_generated_filters() {
    for seed in 0..CASES {
        let mut rng = RainRng::seed_from_u64(seed);
        let col = char::from(b'a' + rng.below(3) as u8);
        let v = rng.int_range(-100, 100);
        let like_len = rng.below(5);
        let like: String = (0..like_len)
            .map(|_| char::from(b'a' + rng.below(26) as u8))
            .collect();
        let conj = rng.bernoulli(0.5);
        let op = if v % 2 == 0 { "=" } else { "<=" };
        let sql = if conj {
            format!("SELECT COUNT(*) FROM t WHERE {col} {op} {v} AND name LIKE '%{like}%'")
        } else {
            format!("SELECT COUNT(*) FROM t WHERE {col} {op} {v} OR predict(*) = 1")
        };
        let ast1 = parse_select(&sql).unwrap();
        let printed = printer::stmt_to_sql(&ast1);
        let ast2 = parse_select(&printed).unwrap();
        assert_eq!(printed, printer::stmt_to_sql(&ast2), "seed {seed}");
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

/// t1(x int, s str, flag bool) and t2(y int, k int), both with 1-D
/// features so `predict()` works against a binary step model. Both
/// tables carry secondary indexes (hash and sorted) so optimized plans
/// exercise index scans and index-nested-loop joins against the
/// index-free naive plan.
fn spja_db(rng: &mut RainRng) -> Database {
    let n1 = 5 + rng.below(3);
    let n2 = 4 + rng.below(3);
    let words = ["http", "deal", "spam", "note", "xyz"];
    let mut db = Database::new();
    let t1 = Table::from_columns(
        Schema::new(&[
            ("x", ColType::Int),
            ("s", ColType::Str),
            ("flag", ColType::Bool),
        ]),
        vec![
            Column::Int((0..n1).map(|_| rng.int_range(0, 6)).collect()),
            Column::Str(
                (0..n1)
                    .map(|_| words[rng.below(words.len())].to_string())
                    .collect(),
            ),
            Column::Bool((0..n1).map(|_| rng.bernoulli(0.5)).collect()),
        ],
    )
    .with_features(Matrix::from_rows(
        &(0..n1)
            .map(|_| [if rng.bernoulli(0.5) { 1.0 } else { -1.0 }])
            .collect::<Vec<_>>()
            .iter()
            .map(|r| &r[..])
            .collect::<Vec<_>>(),
    ));
    db.register("t1", t1);
    let t2 = Table::from_columns(
        Schema::new(&[("y", ColType::Int), ("k", ColType::Int)]),
        vec![
            Column::Int((0..n2).map(|_| rng.int_range(0, 6)).collect()),
            Column::Int((0..n2).map(|_| rng.int_range(0, 4)).collect()),
        ],
    )
    .with_features(Matrix::from_rows(
        &(0..n2)
            .map(|_| [if rng.bernoulli(0.5) { 1.0 } else { -1.0 }])
            .collect::<Vec<_>>()
            .iter()
            .map(|r| &r[..])
            .collect::<Vec<_>>(),
    ));
    db.register("t2", t2);
    for (table, column, kind) in [
        ("t1", "x", IndexKind::Hash),
        ("t1", "x", IndexKind::Sorted),
        ("t1", "s", IndexKind::Hash),
        ("t1", "flag", IndexKind::Hash),
        ("t2", "k", IndexKind::Hash),
        ("t2", "y", IndexKind::Sorted),
    ] {
        db.create_index(table, column, kind).unwrap();
    }
    db
}

/// A random single-relation predicate over alias `a` of t1 / t2.
fn atom(rng: &mut RainRng, alias: &str, is_t1: bool) -> String {
    if is_t1 {
        match rng.below(6) {
            0 => format!("{alias}.x > {}", rng.int_range(0, 5)),
            1 => format!("{alias}.x + 1 <= {}", rng.int_range(1, 7)),
            2 => format!("{alias}.s LIKE '%{}%'", ["ht", "ea", "o"][rng.below(3)]),
            3 => format!("{alias}.flag = true"),
            4 => format!("predict({alias}) = {}", rng.below(2)),
            _ => format!("predict({alias}) != {}", rng.below(2)),
        }
    } else {
        match rng.below(4) {
            0 => format!("{alias}.y >= {}", rng.int_range(0, 5)),
            1 => format!("{alias}.k < {}", rng.int_range(1, 4)),
            2 => format!("predict({alias}) = {}", rng.below(2)),
            _ => format!("{alias}.y * 2 > {}", rng.int_range(0, 9)),
        }
    }
}

/// Build a random SPJA query over the generated schema.
fn random_query(rng: &mut RainRng) -> String {
    let two_rels = rng.bernoulli(0.5);
    let from = if two_rels { "t1 a, t2 b" } else { "t1 a" };

    // WHERE: 1..=3 terms, each an atom, a disjunction, or a constant.
    let mut terms = Vec::new();
    if two_rels && rng.bernoulli(0.7) {
        terms.push("a.x = b.k".to_string()); // equi-join most of the time
    }
    for _ in 0..1 + rng.below(2) {
        let t = match rng.below(5) {
            0 => {
                let l = atom(rng, "a", true);
                let r = if two_rels {
                    atom(rng, "b", false)
                } else {
                    atom(rng, "a", true)
                };
                format!("({l} OR {r})")
            }
            1 => ["1 = 1", "1 + 1 = 2", "2 > 3"][rng.below(3)].to_string(),
            2 if two_rels => atom(rng, "b", false),
            3 if two_rels => "predict(a) = predict(b)".to_string(),
            _ => atom(rng, "a", true),
        };
        terms.push(t);
    }
    let where_sql = format!(" WHERE {}", terms.join(" AND "));

    let select = match rng.below(6) {
        0 => "COUNT(*)".to_string(),
        1 => "SUM(x)".to_string(),
        2 => "AVG(x)".to_string(),
        3 => "SUM(predict(a))".to_string(),
        4 => return format!("SELECT COUNT(*) FROM {from}{where_sql} GROUP BY predict(a)"),
        _ => return format!("SELECT x, s FROM {from}{where_sql}"),
    };
    format!("SELECT {select} FROM {from}{where_sql}")
}

/// A deterministic step model: class 1 iff feature > 0.
fn step_model() -> LogisticRegression {
    let mut m = LogisticRegression::new(1, 0.0);
    m.set_params(&[50.0, 0.0]);
    m
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
struct RowRecord {
    line: String,
    discrete: Vec<i64>,
    relaxed: Vec<f64>,
}

/// Canonicalize an output into sorted [`RowRecord`]s. Sorting by
/// `(line, discrete)` aligns rows across plans whose join orders — and
/// thus emission orders — legitimately differ.
fn row_records(out: &QueryOutput, worlds: &[World]) -> Vec<RowRecord> {
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
            RowRecord {
                line: line.to_string(),
                discrete,
                relaxed,
            }
        })
        .collect();
    recs.sort_by(|a, b| (&a.line, &a.discrete).cmp(&(&b.line, &b.discrete)));
    recs
}

/// Assert the two outputs hold the same multiset of rows and that
/// provenance is equivalent under random discrete + relaxed worlds.
/// Order-insensitive on purpose: the cost-based optimizer may pick a
/// different join order than the naive plan, which permutes the (SQL-wise
/// unordered) output rows; engine-vs-engine tests on the *same* plan
/// ([`assert_bit_identical`]) stay exact-order.
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
        let db = spja_db(&mut rng);
        let sql = random_query(&mut rng);
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

// ---------------------------------------------------------------------
// Vectorized grouped aggregation: the vexec grouped-key paths (typed
// single-key fast path and shared-finalizer bridge) against the
// tuple-engine oracle, bit for bit — rows, schema, provenance, and the
// prediction-variable registry.
// ---------------------------------------------------------------------

/// A random grouped aggregate over the generated schema: single- and
/// multi-column keys, predict keys, and mixed aggregate lists.
fn random_grouped_query(rng: &mut RainRng) -> String {
    let two_rels = rng.bernoulli(0.5);
    let from = if two_rels { "t1 a, t2 b" } else { "t1 a" };
    let mut terms = Vec::new();
    if two_rels && rng.bernoulli(0.7) {
        terms.push("a.x = b.k".to_string());
    }
    if rng.bernoulli(0.7) {
        terms.push(atom(rng, "a", true));
    }
    let where_sql = if terms.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", terms.join(" AND "))
    };
    let aggs = [
        "COUNT(*)",
        "SUM(x)",
        "AVG(x), COUNT(*)",
        "SUM(predict(a)), COUNT(*)",
    ][rng.below(4)];
    let group = match rng.below(5) {
        0 => "x",
        1 => "flag",
        2 => "x, flag",
        3 if two_rels => "k",
        _ => return format!("SELECT {aggs} FROM {from}{where_sql} GROUP BY predict(a)"),
    };
    format!("SELECT {aggs} FROM {from}{where_sql} GROUP BY {group}")
}

/// Assert both engines agree bit for bit on one output pair.
fn assert_bit_identical(label: &str, tuple: &QueryOutput, vexec: &QueryOutput) {
    assert_eq!(
        tuple.table.to_tsv(),
        vexec.table.to_tsv(),
        "{label}: result rows differ"
    );
    let (ts, vs) = (tuple.table.schema(), vexec.table.schema());
    assert_eq!(ts.len(), vs.len(), "{label}: schema arity differs");
    for (a, b) in ts.iter().zip(vs.iter()) {
        assert_eq!(a, b, "{label}: schema column differs");
    }
    assert_eq!(tuple.n_key_cols, vexec.n_key_cols, "{label}: n_key_cols");
    assert_eq!(tuple.row_prov, vexec.row_prov, "{label}: row provenance");
    assert_eq!(
        tuple.agg_cells, vexec.agg_cells,
        "{label}: aggregate provenance"
    );
    assert_eq!(
        tuple.predvars.infos(),
        vexec.predvars.infos(),
        "{label}: prediction-variable sources"
    );
    assert_eq!(
        tuple.predvars.preds(),
        vexec.predvars.preds(),
        "{label}: hard predictions"
    );
}

/// Randomized GROUP BY workloads must agree across engines in both modes;
/// this pins the vexec grouped-aggregation key paths to the tuple oracle.
#[test]
fn vexec_grouped_aggregation_matches_tuple_oracle() {
    use rain_sql::Engine;
    let model = step_model();
    for seed in 0..CASES {
        let mut rng = RainRng::seed_from_u64(0x6B0 ^ seed);
        let db = spja_db(&mut rng);
        let sql = random_grouped_query(&mut rng);
        let stmt = parse_select(&sql).unwrap_or_else(|e| panic!("seed {seed} `{sql}`: {e}"));
        let bound = bind(&stmt, &db).unwrap_or_else(|e| panic!("seed {seed} `{sql}`: {e}"));
        let plan = optimize(bound, &db);
        for debug in [false, true] {
            let label = format!("seed {seed} `{sql}` [debug={debug}]");
            let opts = ExecOptions::with_debug(debug);
            let tuple = execute(&db, &model, &plan, opts.on(Engine::Tuple))
                .unwrap_or_else(|e| panic!("{label} tuple: {e}"));
            let vexec = execute(&db, &model, &plan, opts.on(Engine::Vectorized))
                .unwrap_or_else(|e| panic!("{label} vexec: {e}"));
            assert_bit_identical(&label, &tuple, &vexec);
        }
    }
}

/// Each rule on its own must also preserve results (catches a rule that
/// is only correct in combination with another).
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
        OptimizerConfig {
            constant_folding: false,
            predicate_pushdown: false,
            projection_pruning: false,
            join_reorder: false,
            index_paths: true,
        },
    ];
    for seed in 0..CASES / 2 {
        let mut rng = RainRng::seed_from_u64(0xB0B ^ seed);
        let db = spja_db(&mut rng);
        let sql = random_query(&mut rng);
        let stmt = parse_select(&sql).unwrap();
        let bound = bind(&stmt, &db).unwrap();
        let naive_plan = QueryPlan::naive(bound.clone(), &db);
        let base = execute(&db, &model, &naive_plan, ExecOptions::debug())
            .unwrap_or_else(|e| panic!("seed {seed} `{sql}`: {e}"));
        for cfg in &configs {
            let plan = rain_sql::optimize_with(bound.clone(), &db, cfg);
            let out = execute(&db, &model, &plan, ExecOptions::debug())
                .unwrap_or_else(|e| panic!("seed {seed} `{sql}`: {e}"));
            assert_equivalent(seed, &base, &out, &mut rng);
        }
    }
}
