//! The differential harness the SQL bit-identity suites share: model and
//! catalog fixtures, one seeded SPJA query generator that tallies the
//! branches it draws and the access paths and join algorithms the
//! optimizer chose for them, one bit-identity assertion, and one sweep of
//! the vectorized engine against the tuple oracle. Each suite keeps only
//! what makes it different (indexes, refresh and extension, tracing,
//! sampled worlds).
#![allow(dead_code)] // each suite uses a different slice of the harness

use rain_linalg::{Matrix, RainRng};
use rain_model::par::MIN_WORK_PER_WORKER;
use rain_model::{Classifier, LogisticRegression, Mlp};
use rain_obs::{Trace, TraceNode};
use rain_sql::table::{ColType, Column, Schema, Table};
use rain_sql::{
    bind, execute, optimize, parse_select, AccessPath, BExpr, CmpOp, Database, Engine, ExecOptions,
    IndexKind, JoinAlgo, QueryOutput, QueryPlan, Value,
};
use std::collections::BTreeMap;

/// The thread budgets every oracle sweep runs the vectorized engine at:
/// sequential, the smallest parallel budget, and more workers than cores.
pub const THREADS: [usize; 3] = [1, 2, 8];

// ---------------------------------------------------------------------
// Models
// ---------------------------------------------------------------------

/// A deterministic step model: class 1 iff feature > 0.
pub fn step_model() -> LogisticRegression {
    let mut m = LogisticRegression::new(1, 0.0);
    m.set_params(&[50.0, 0.0]);
    m
}

/// The step model with the decision flipped: class 1 iff feature < 0.
/// Refreshing with it flips *every* prediction a skeleton was prepared
/// under, which is the adversarial case for cached concrete state.
pub fn flipped_model() -> LogisticRegression {
    let mut m = LogisticRegression::new(1, 0.0);
    m.set_params(&[-50.0, 0.0]);
    m
}

/// A seeded random model: soft, non-degenerate decision boundary.
pub fn random_model(rng: &mut RainRng) -> LogisticRegression {
    let mut m = LogisticRegression::new(1, 0.0);
    m.set_params(&[rng.uniform_range(-3.0, 3.0), rng.uniform_range(-1.0, 1.0)]);
    m
}

/// The step model's decision on ±1 features (`sign` = 1) or the flipped
/// one (`sign` = -1) as a one-input ReLU MLP just wide enough that
/// inference over `vars` variables earns two full shares of
/// [`MIN_WORK_PER_WORKER`] multiply-adds (`n_params` per row). Hidden unit
/// 0 is `relu(sign·x)`, unit 1 `relu(-sign·x)`, every other unit is dead.
pub fn wide_step_model(sign: f64, vars: usize) -> Mlp {
    let hidden = (2 * MIN_WORK_PER_WORKER).div_ceil(4 * vars).max(2);
    let mut m = Mlp::new(1, hidden, 2, 0.0, 1);
    let mut p = vec![0.0; m.n_params()];
    p[0] = sign; // W₁[0] = [sign, 0]
    p[2] = -sign; // W₁[1] = [-sign, 0]
    let w2 = 2 * hidden;
    p[w2 + 1] = 50.0; // class 0 logit = 50·relu(-sign·x)
    p[w2 + hidden + 1] = 50.0; // class 1 logit = 50·relu(sign·x)
    m.set_params(&p);
    assert!(vars * m.n_params() >= 2 * MIN_WORK_PER_WORKER);
    m
}

// ---------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------

/// `n` one-feature rows, each +1 or -1 with even odds, so the step
/// models predict each class about half the time.
pub fn sign_features(rng: &mut RainRng, n: usize) -> Matrix {
    let signs = (0..n)
        .map(|_| if rng.bernoulli(0.5) { 1.0 } else { -1.0 })
        .collect();
    Matrix::from_vec(n, 1, signs)
}

/// t1(x int, f float, s str, flag bool) and t2(y int, k int, s2 str),
/// both featured so `predict()` binds. Sizes straddle several batch
/// shapes (empty joins, duplicate keys, selective filters). Every column
/// the atoms compare, `f` included (on a grid of halves), takes values on
/// their integer literals, so rows sit exactly on inclusive bounds, and
/// `k` spans `x`'s domain, so a row on a bound of `x` has join partners.
pub fn random_db(rng: &mut RainRng) -> Database {
    let n1 = 4 + rng.below(30);
    let n2 = 3 + rng.below(20);
    let words = ["http", "deal", "spam", "note", "xyz", ""];
    let mut db = Database::new();
    let t1 = Table::from_columns(
        Schema::new(&[
            ("x", ColType::Int),
            ("f", ColType::Float),
            ("s", ColType::Str),
            ("flag", ColType::Bool),
        ]),
        vec![
            Column::Int((0..n1).map(|_| rng.int_range(0, 6)).collect()),
            Column::Float((0..n1).map(|_| rng.int_range(-4, 8) as f64 / 2.0).collect()),
            Column::Str(
                (0..n1)
                    .map(|_| words[rng.below(words.len())].to_string())
                    .collect(),
            ),
            Column::Bool((0..n1).map(|_| rng.bernoulli(0.5)).collect()),
        ],
    )
    .with_features(sign_features(rng, n1));
    db.register("t1", t1);
    let t2 = Table::from_columns(
        Schema::new(&[
            ("y", ColType::Int),
            ("k", ColType::Int),
            ("s2", ColType::Str),
        ]),
        vec![
            Column::Int((0..n2).map(|_| rng.int_range(0, 6)).collect()),
            Column::Int((0..n2).map(|_| rng.int_range(0, 6)).collect()),
            Column::Str(
                (0..n2)
                    .map(|_| words[rng.below(words.len())].to_string())
                    .collect(),
            ),
        ],
    )
    .with_features(sign_features(rng, n2));
    db.register("t2", t2);
    db
}

/// Secondary indexes on [`random_db`]'s filter and join columns, both
/// kinds where the planner can use both, so optimized plans can take
/// index scans and index-nested-loop joins.
pub fn index_all(db: &mut Database) {
    for (table, column, kind) in [
        ("t1", "x", IndexKind::Hash),
        ("t1", "x", IndexKind::Sorted),
        ("t1", "f", IndexKind::Sorted),
        ("t1", "s", IndexKind::Hash),
        ("t1", "flag", IndexKind::Hash),
        ("t2", "k", IndexKind::Hash),
        ("t2", "y", IndexKind::Sorted),
    ] {
        db.create_index(table, column, kind).unwrap();
    }
}

/// Re-register `table` with NULL holes punched into every column (one
/// cell in five), features kept. Nullable columns force the kernels'
/// row-at-a-time fallbacks, the general join strategy and NULL-skipping
/// aggregate terms.
pub fn punch_nulls(rng: &mut RainRng, db: &mut Database, table: &str) {
    let t = db.table(table).unwrap().clone();
    let mut nullable = Table::empty(t.schema().clone());
    for r in 0..t.n_rows() {
        let row = (0..t.schema().len())
            .map(|c| {
                if rng.bernoulli(0.2) {
                    Value::Null
                } else {
                    t.value(r, c)
                }
            })
            .collect();
        nullable.push_row(row, None);
    }
    db.register(table, nullable.with_features(t.features().unwrap().clone()));
}

/// Parse, bind and optimize `sql` against `db`.
pub fn plan_of(db: &Database, sql: &str) -> QueryPlan {
    let stmt = parse_select(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
    optimize(
        bind(&stmt, db).unwrap_or_else(|e| panic!("`{sql}`: {e}")),
        db,
    )
}

// ---------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------

/// Which branches of each random choice a generator drew, and of each
/// physical choice the optimizer made for the result, so a sweep can
/// assert that its seeds reached every shape the generator can emit and
/// every plan the engine can run.
#[derive(Debug, Default)]
pub struct Tally(BTreeMap<&'static str, Vec<bool>>);

impl Tally {
    /// A uniform draw of one of `n` branches of `choice`, recorded.
    pub fn pick(&mut self, rng: &mut RainRng, choice: &'static str, n: usize) -> usize {
        let i = rng.below(n);
        self.note(choice, i, n);
        i
    }

    /// Record that `choice` took branch `i` of `n`.
    pub fn note(&mut self, choice: &'static str, i: usize, n: usize) {
        self.0.entry(choice).or_insert_with(|| vec![false; n])[i] = true;
    }

    /// Record what the optimizer made of `plan`: each relation's `access
    /// path` (0 sequential scan, 1 hash index scan, 2–5 sorted index scan
    /// answering `<`, `<=`, `>`, `>=` on its column) and each step's `join
    /// algorithm` (0 hash, 1 index-nested-loop) — every physical choice
    /// the vectorized engine has a code path of its own for.
    pub fn note_plan(&mut self, plan: &QueryPlan) {
        for (rel, path) in plan.access.iter().enumerate() {
            let branch = match *path {
                AccessPath::SeqScan => 0,
                AccessPath::IndexScan {
                    kind: IndexKind::Hash,
                    ..
                } => 1,
                AccessPath::IndexScan { filter, .. } => {
                    let f = &plan.scan_filters[rel][filter];
                    let BExpr::Cmp { op, left, .. } = f else {
                        panic!("a sorted index scan answers {f:?}");
                    };
                    // A literal on the left mirrors the column's comparison.
                    match (op, matches!(**left, BExpr::Lit(_))) {
                        (CmpOp::Lt, false) | (CmpOp::Gt, true) => 2,
                        (CmpOp::Le, false) | (CmpOp::Ge, true) => 3,
                        (CmpOp::Gt, false) | (CmpOp::Lt, true) => 4,
                        (CmpOp::Ge, false) | (CmpOp::Le, true) => 5,
                        _ => panic!("a sorted index scan answers {f:?}"),
                    }
                }
            };
            self.note("access path", branch, 6);
        }
        for algo in &plan.join_algos {
            let inl = matches!(algo, JoinAlgo::IndexNestedLoop { .. });
            self.note("join algorithm", inl as usize, 2);
        }
    }

    /// Every branch of every choice was drawn at least once. A choice that
    /// was never reached at all cannot hide here: each one is drawn inside
    /// some branch of another, and that branch was drawn (a plan's `access
    /// path` on every plan, its `join algorithm` on every join).
    pub fn assert_complete(&self, sweep: &str) {
        for (choice, seen) in &self.0 {
            let missing: Vec<usize> = (0..seen.len()).filter(|&i| !seen[i]).collect();
            assert!(
                missing.is_empty(),
                "{sweep}: `{choice}` never drew branches {missing:?}"
            );
        }
    }
}

/// A random single-relation predicate over alias `a` (t1) or `b` (t2).
/// Comparisons of a bare column with a literal, on either side, are the
/// filters an index can answer: `=` on a hash-indexed column and each of
/// `<`, `<=`, `>`, `>=` on a sorted-indexed one (see [`index_all`]).
fn atom(rng: &mut RainRng, tally: &mut Tally, alias: &str, is_t1: bool) -> String {
    if is_t1 {
        match tally.pick(rng, "t1 atom", 13) {
            0 => format!("{alias}.x > {}", rng.int_range(0, 5)),
            1 => format!("{} <= {alias}.f", rng.int_range(-1, 4)),
            2 => format!("{alias}.f < {}", rng.int_range(-1, 4)),
            3 => format!("{} >= {alias}.x", rng.int_range(0, 5)),
            4 => format!("{alias}.x = {}", rng.int_range(0, 7)),
            5 => format!("{alias}.x + 1 <= {}", rng.int_range(1, 7)),
            6 => format!("{alias}.s LIKE '%{}%'", ["ht", "ea", "o"][rng.below(3)]),
            7 => format!("{alias}.s NOT LIKE '%{}%'", ["sp", "x"][rng.below(2)]),
            8 => format!("{alias}.flag"),
            9 => format!("{alias}.flag = true"),
            10 => format!("NOT {alias}.flag = false"),
            11 => format!("predict({alias}) = {}", rng.below(2)),
            _ => format!("predict({alias}) != {}", rng.below(2)),
        }
    } else {
        match tally.pick(rng, "t2 atom", 8) {
            0 => format!("{alias}.y >= {}", rng.int_range(0, 5)),
            1 => format!("{alias}.y <= {}", rng.int_range(0, 5)),
            2 => format!("{} > {alias}.y", rng.int_range(1, 6)),
            3 => format!("{alias}.k < {}", rng.int_range(1, 4)),
            4 => format!("{alias}.s2 = '{}'", ["http", "deal"][rng.below(2)]),
            5 => format!("predict({alias}) = {}", rng.below(2)),
            6 => format!("{alias}.y * 2 > {}", rng.int_range(0, 9)),
            _ => format!("{alias}.y != {alias}.k"),
        }
    }
}

/// A random SPJA query over [`random_db`]'s schema: one relation or a
/// join of two (typed, string, mixed-type and expression equi-keys, or a
/// cross join), zero to three conjuncts (atoms, disjunctions, constants,
/// prediction joins, non-equi join predicates), and an ungrouped
/// aggregate, a grouped one (column, multi-column and predict keys) or a
/// projection. Every draw goes through `tally`.
pub fn random_query(rng: &mut RainRng, tally: &mut Tally) -> String {
    let two_rels = tally.pick(rng, "relations", 5) >= 2;
    let from = if two_rels { "t1 a, t2 b" } else { "t1 a" };

    let mut terms = Vec::new();
    if two_rels {
        match tally.pick(rng, "join key", 8) {
            0..=3 => terms.push("a.x = b.k".to_string()),
            4 => terms.push("a.s = b.s2".to_string()),
            5 => terms.push("a.f = b.k".to_string()), // mixed-type key
            6 => terms.push("a.x + 0 = b.k".to_string()), // expression key
            _ => {}                                   // cross join
        }
    }
    for _ in 0..tally.pick(rng, "conjuncts", 4) {
        let or = |rng: &mut RainRng, tally: &mut Tally| {
            let l = atom(rng, tally, "a", true);
            let r = match two_rels {
                true => atom(rng, tally, "b", false),
                false => atom(rng, tally, "a", true),
            };
            format!("({l} OR {r})")
        };
        let constant = |rng: &mut RainRng, tally: &mut Tally| {
            ["1 = 1", "1 + 1 = 2", "2 > 3"][tally.pick(rng, "constant", 3)].to_string()
        };
        let t = if two_rels {
            match tally.pick(rng, "conjunct (join)", 8) {
                0 => or(rng, tally),
                1 => constant(rng, tally),
                2 => "predict(a) = predict(b)".to_string(),
                3 => format!("a.x > b.k - {}", rng.int_range(0, 3)),
                4..=5 => atom(rng, tally, "b", false),
                _ => atom(rng, tally, "a", true),
            }
        } else {
            match tally.pick(rng, "conjunct (one relation)", 4) {
                0 => or(rng, tally),
                1 => constant(rng, tally),
                _ => atom(rng, tally, "a", true),
            }
        };
        terms.push(t);
    }
    let where_sql = if terms.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", terms.join(" AND "))
    };

    const AGGS: [&str; 8] = [
        "COUNT(*)",
        "SUM(x)",
        "AVG(x)",
        "AVG(x), COUNT(*)",
        "SUM(predict(a))",
        "SUM(predict(a)), COUNT(*)",
        "SUM(f)",
        "AVG(f)",
    ];
    match tally.pick(rng, "select", 3) {
        0 => {
            let aggs = AGGS[tally.pick(rng, "aggregates", AGGS.len())];
            format!("SELECT {aggs} FROM {from}{where_sql}")
        }
        1 => {
            let aggs = AGGS[tally.pick(rng, "aggregates", AGGS.len())];
            let keys = ["x", "flag", "x, flag", "predict(a)", "k"];
            let key = if two_rels {
                keys[tally.pick(rng, "group key (join)", 5)]
            } else {
                keys[tally.pick(rng, "group key (one relation)", 4)]
            };
            match tally.pick(rng, "keys selected", 2) {
                0 => format!("SELECT {aggs} FROM {from}{where_sql} GROUP BY {key}"),
                _ => format!("SELECT {key}, {aggs} FROM {from}{where_sql} GROUP BY {key}"),
            }
        }
        _ => {
            let cols = ["x, s", "x * 2 AS d, flag", "predict(a), x", "*"];
            let cols = cols[tally.pick(rng, "projection", cols.len())];
            format!("SELECT {cols} FROM {from}{where_sql}")
        }
    }
}

// ---------------------------------------------------------------------
// Assertion and oracle sweep
// ---------------------------------------------------------------------

/// Assert two outputs are bit-identical: rows, schema, scalar shape, key
/// columns, row and aggregate provenance (structurally: `PartialEq` on
/// `BoolProv` / `CellProv`, no canonicalization), and the
/// prediction-variable registry (ids, sources, hard predictions).
pub fn assert_identical(label: &str, want: &QueryOutput, got: &QueryOutput) {
    assert_eq!(
        want.table.to_tsv(),
        got.table.to_tsv(),
        "{label}: result rows differ"
    );
    assert_eq!(
        want.table.schema(),
        got.table.schema(),
        "{label}: schema differs"
    );
    assert_eq!(want.scalar(), got.scalar(), "{label}: ScalarResult differs");
    assert_eq!(want.n_key_cols, got.n_key_cols, "{label}: n_key_cols");
    assert_eq!(want.row_prov, got.row_prov, "{label}: row provenance");
    assert_eq!(
        want.agg_cells, got.agg_cells,
        "{label}: aggregate provenance"
    );
    assert_eq!(
        want.predvars.infos(),
        got.predvars.infos(),
        "{label}: prediction-variable sources"
    );
    assert_eq!(
        want.predvars.preds(),
        got.predvars.preds(),
        "{label}: hard predictions"
    );
}

/// What one oracle sweep saw.
pub struct Sweep {
    /// The tuple oracle's output in normal mode.
    pub normal: QueryOutput,
    /// The tuple oracle's output in debug (provenance) mode.
    pub debug: QueryOutput,
    /// `(debug, threads, trace)` of every vectorized run.
    pub traces: Vec<(bool, usize, TraceNode)>,
}

impl Sweep {
    /// `(debug, trace)` of the runs whose budget allows parallel paths.
    pub fn parallel_traces(&self) -> impl Iterator<Item = (bool, &TraceNode)> {
        self.traces
            .iter()
            .filter(|(_, threads, _)| *threads >= 2)
            .map(|(debug, _, tree)| (*debug, tree))
    }
}

/// Run `plan` on the tuple oracle once per mode, then on the vectorized
/// engine at every budget in [`THREADS`], each vectorized run traced, and
/// assert every vectorized output bit-identical to the oracle's. Traced
/// and untraced runs are pinned equal by `obs_differential`.
pub fn assert_matches_oracle(
    label: &str,
    db: &Database,
    plan: &QueryPlan,
    model: &dyn Classifier,
) -> Sweep {
    let mut traces = Vec::new();
    let [normal, debug] = [false, true].map(|debug| {
        let opts = ExecOptions::with_debug(debug);
        let oracle = execute(db, model, plan, opts.on(Engine::Tuple))
            .unwrap_or_else(|e| panic!("{label} [debug={debug}] tuple: {e}"));
        for threads in THREADS {
            let label = format!("{label} [debug={debug}, threads={threads}]");
            let trace = Trace::start("query");
            let vexec = execute(
                db,
                model,
                plan,
                opts.on(Engine::Vectorized).with_threads(threads),
            )
            .unwrap_or_else(|e| panic!("{label} vexec: {e}"));
            traces.push((debug, threads, trace.finish()));
            assert_identical(&label, &oracle, &vexec);
        }
        oracle
    });
    Sweep {
        normal,
        debug,
        traces,
    }
}

// ---------------------------------------------------------------------
// Traces
// ---------------------------------------------------------------------

/// The value of `node`'s counter `key`, if it has one.
pub fn counter(node: &TraceNode, key: &str) -> Option<u64> {
    node.counters
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
}

/// Every node of `tree` named `name`, depth first.
pub fn find_all<'a>(tree: &'a TraceNode, name: &str) -> Vec<&'a TraceNode> {
    let mut found: Vec<&TraceNode> = tree
        .children
        .iter()
        .flat_map(|c| find_all(c, name))
        .collect();
    if tree.name == name {
        found.insert(0, tree);
    }
    found
}

/// How many children of `node` are named `name`.
pub fn children_named(node: &TraceNode, name: &str) -> usize {
    node.children.iter().filter(|c| c.name == name).count()
}
