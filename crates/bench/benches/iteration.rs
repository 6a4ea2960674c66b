//! Figure 5 / Figure 12 microbenches: the cost of one train–rank–fix
//! iteration, split by phase (train / encode / rank), for Loss, TwoStep,
//! and Holistic on the DBLP workload — plus the incremental-vs-full
//! re-execution comparison for the loop's encode phase.
//!
//! The incremental section pits a prepared skeleton's per-iteration
//! `refresh` against a full debug-mode `execute` on the same plans (the
//! paper's count complaint and a self-join with a model predicate),
//! asserts the outputs are bit-identical before timing, and writes the
//! speedups to `BENCH_iteration.json` (path overridable via
//! `RAIN_BENCH_JSON`), which CI uploads as the loop's bench trajectory.

use rain_bench::BenchGroup;
use rain_core::prelude::*;
use rain_core::rank::{rank, Method as M, RankContext};
use rain_data::dblp::DblpConfig;
use rain_data::flip_labels_where;
use rain_data::tables::dataset_to_table;
use rain_model::{train_lbfgs, LbfgsConfig, LogisticRegression};
use rain_sql::table::Column;
use rain_sql::{
    bind, execute, optimize, parse_select, prepare, run_query, Database, Engine, ExecOptions,
    QueryPlan,
};

struct Fixture {
    db: Database,
    train: rain_model::Dataset,
    model: LogisticRegression,
    queries: Vec<QuerySpec>,
    out: rain_sql::QueryOutput,
}

fn fixture() -> Fixture {
    let w = DblpConfig {
        n_train: 1000,
        n_query: 500,
        ..Default::default()
    }
    .generate(42);
    let mut train = w.train.clone();
    flip_labels_where(&mut train, |_, _, y| y == 1, 0.5, |_| 0, 42);
    let mut db = Database::new();
    db.register("dblp", w.query_table());
    let mut model = LogisticRegression::new(17, 0.01);
    train_lbfgs(&mut model, &train, &LbfgsConfig::default());
    let sql = "SELECT COUNT(*) FROM dblp WHERE predict(*) = 1";
    let out = run_query(&db, &model, sql, ExecOptions::debug()).unwrap();
    let queries =
        vec![QuerySpec::new(sql).with_complaint(Complaint::scalar_eq(w.true_match_count() as f64))];
    Fixture {
        db,
        train,
        model,
        queries,
        out,
    }
}

fn bench_iteration() {
    let f = fixture();
    let mut g = BenchGroup::new("iteration_phase", 10);

    g.bench("train_warm", || {
        let mut m = f.model.clone();
        train_lbfgs(&mut m, &f.train, &LbfgsConfig::warm())
    });
    g.bench("exec_debug_mode", || {
        run_query(&f.db, &f.model, &f.queries[0].sql, ExecOptions::debug()).unwrap()
    });
    for method in [M::Loss, M::TwoStep, M::Holistic] {
        let influence = Default::default();
        let sqlstep = Default::default();
        g.bench(&format!("rank_{}", method.name()), || {
            let ctx = RankContext {
                db: &f.db,
                model: &f.model,
                train: &f.train,
                outputs: std::slice::from_ref(&f.out),
                queries: &f.queries,
                k: 10,
                hessian: None,
                influence: &influence,
                sqlstep: &sqlstep,
            };
            rank(method, &ctx).unwrap()
        });
    }
    g.finish();
}

fn plan_for(sql: &str, db: &Database) -> QueryPlan {
    let stmt = parse_select(sql).unwrap();
    let bound = bind(&stmt, db).unwrap();
    optimize(bound, db)
}

/// Incremental refresh vs full debug-mode re-execution, per iteration of
/// the loop: the tentpole comparison, exported as `BENCH_iteration.json`.
/// Returns the artifact's JSON body (unterminated — `main` closes and
/// writes it).
fn bench_incremental() -> String {
    let quick = rain_bench::is_quick();
    let n_query = 2000;
    let w = DblpConfig {
        n_train: 400,
        n_query,
        ..Default::default()
    }
    .generate(42);
    let mut model = LogisticRegression::new(17, 0.01);
    train_lbfgs(&mut model, &w.train, &Default::default());

    // The paper's count-complaint workload plus a self-join with a model
    // predicate (the shape where the cached join skeleton pays most).
    let n = w.query.len();
    let bucket = Column::Int((0..n as i64).map(|i| i % 10).collect());
    let mut db = Database::new();
    db.register(
        "dblp",
        dataset_to_table(&w.query, vec![("bucket", bucket.clone())]),
    );
    db.register(
        "dblp_b",
        dataset_to_table(&w.query, vec![("bucket", bucket)]),
    );
    let cases = [
        (
            "count",
            plan_for("SELECT COUNT(*) FROM dblp WHERE predict(*) = 1", &db),
        ),
        (
            "join",
            plan_for(
                "SELECT COUNT(*) FROM dblp a, dblp_b b \
                 WHERE a.id = b.id AND b.bucket < 4 AND predict(a) = 1",
                &db,
            ),
        ),
    ];

    // Prepare once; assert refresh ≡ full execution before timing.
    let prepared: Vec<_> = cases
        .iter()
        .map(|(name, plan)| {
            let p = prepare(&db, &model, plan, Engine::Vectorized).expect(name);
            let full = execute(&db, &model, plan, ExecOptions::debug()).unwrap();
            let refreshed = p.refresh(&db, &model, 0).unwrap();
            assert_eq!(
                full.table.to_tsv(),
                refreshed.table.to_tsv(),
                "{name}: rows disagree"
            );
            assert_eq!(
                full.agg_cells, refreshed.agg_cells,
                "{name}: provenance disagrees"
            );
            assert_eq!(
                full.predvars.preds(),
                refreshed.predvars.preds(),
                "{name}: predictions disagree"
            );
            p
        })
        .collect();

    let samples = if quick { 3 } else { 30 };
    let mut g = BenchGroup::new("iteration_incremental", samples);
    for ((name, plan), p) in cases.iter().zip(&prepared) {
        g.bench(&format!("full_{name}"), || {
            execute(&db, &model, plan, ExecOptions::debug()).unwrap()
        });
        g.bench(&format!("refresh_{name}"), || {
            p.refresh(&db, &model, 0).unwrap()
        });
    }
    g.finish();

    let mut json = format!(
        "{{\n  \"bench\": \"iteration_incremental\",\n  \"n_query\": {n_query},\n  \"samples\": {samples}"
    );
    for (name, _) in &cases {
        let (full, refresh) = (
            g.median_secs(&format!("full_{name}")).unwrap(),
            g.median_secs(&format!("refresh_{name}")).unwrap(),
        );
        println!(
            "speedup_{name}: {:.2}x (full {:.3} ms → refresh {:.3} ms)",
            full / refresh,
            full * 1e3,
            refresh * 1e3
        );
        json.push_str(&format!(
            ",\n  \"{name}\": {{ \"full_ms\": {:.6}, \"refresh_ms\": {:.6}, \"speedup\": {:.3} }}",
            full * 1e3,
            refresh * 1e3,
            full / refresh
        ));
    }
    json
}

fn main() {
    bench_iteration();
    let mut json = bench_incremental();
    json.push_str("\n}\n");
    let path =
        std::env::var("RAIN_BENCH_JSON").unwrap_or_else(|_| "BENCH_iteration.json".to_string());
    std::fs::write(&path, &json).expect("write bench artifact");
    println!("wrote {path}");
}
