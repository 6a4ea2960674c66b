//! Morsel-parallel scaling bench on the DBLP join workload.
//!
//! Times the model-free DBLP equi-join (the `BENCH_vexec.json` `join`
//! shape, scaled up so the parallel scan, partitioned hash build, and
//! join-probe paths dominate) and a grouped aggregation over the full
//! pair set at `threads ∈ {1, 2, 4}`, plus the debug-mode skeleton
//! refresh (batched-inference fan-out) at a budget of 1 vs 4. Inference
//! fans out only over full shares of `rows × n_params` multiply-adds
//! (`rain_model::par::MIN_WORK_PER_WORKER`), so the refresh runs an MLP
//! sized to give four workers a share each, and the bench prints the
//! worker count the rule chose next to the ratio. Before timing, every
//! thread count's output is asserted bit-identical to `threads=1` and to
//! the tuple oracle — thread count must never change results.
//!
//! Writes `BENCH_parallel.json` (path overridable via `RAIN_BENCH_JSON`)
//! with the headline `scaling_4t` ratios and the host's core count —
//! the regression gate only enforces the scaling floor when the bench
//! actually had ≥ 4 cores to scale onto.

use rain_bench::BenchGroup;
use rain_data::{dblp::DblpConfig, tables::dataset_to_table};
use rain_model::par::MIN_WORK_PER_WORKER;
use rain_model::{train_lbfgs, Classifier, LogisticRegression, Mlp};
use rain_sql::table::Column;
use rain_sql::{
    bind, execute, optimize, parse_select, prepare, Database, Engine, ExecOptions, QueryPlan,
};

const JOIN_SQL: &str = "SELECT COUNT(*) FROM pairs_a a, pairs_b b \
                        WHERE a.id = b.id AND b.bucket < 2";
const DEBUG_SQL: &str = "SELECT COUNT(*) FROM pairs_a a, pairs_b b \
                         WHERE a.id = b.id AND b.bucket < 4 AND predict(a) = 1";
const AGG_SQL: &str = "SELECT bucket, COUNT(*), SUM(id) FROM pairs_a GROUP BY bucket";

fn plan_for(sql: &str, db: &Database) -> QueryPlan {
    let stmt = parse_select(sql).unwrap();
    let bound = bind(&stmt, db).unwrap();
    optimize(bound, db)
}

fn main() {
    let quick = rain_bench::is_quick();
    let n_query = if quick { 200_000 } else { 400_000 };
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let w = DblpConfig {
        n_train: 400,
        n_query,
        ..Default::default()
    }
    .generate(42);
    let mut model = LogisticRegression::new(17, 0.01);
    train_lbfgs(&mut model, &w.train, &Default::default());

    // Probe-heavy shape: the full pair set probes against a 5×-smaller
    // build relation (plus its pushed-down bucket filter) — the realistic
    // big-fact-vs-filtered-dimension case. The morsel-parallel probe
    // dominates, and the build relation is large enough that the
    // hash build partitions across workers too.
    let n = w.query.len();
    let bucket = |n: usize| Column::Int((0..n as i64).map(|i| i % 10).collect());
    let n_build = (n / 5).min(20_000);
    let b_side = w.query.select(&(0..n_build).collect::<Vec<_>>());
    let mut db = Database::new();
    db.register(
        "pairs_a",
        dataset_to_table(&w.query, vec![("bucket", bucket(n))]),
    );
    db.register(
        "pairs_b",
        dataset_to_table(&b_side, vec![("bucket", bucket(n_build))]),
    );

    let join_plan = plan_for(JOIN_SQL, &db);
    let debug_plan = plan_for(DEBUG_SQL, &db);
    let agg_plan = plan_for(AGG_SQL, &db);
    let thread_counts = [1usize, 2, 4];

    // Correctness before timing: every thread count must reproduce the
    // sequential vexec output AND the tuple oracle, rows and provenance.
    for (name, plan) in [("join", &join_plan), ("agg", &agg_plan)] {
        let oracle = execute(&db, &model, plan, ExecOptions::default().on(Engine::Tuple)).unwrap();
        for &t in &thread_counts {
            let out = execute(&db, &model, plan, ExecOptions::default().with_threads(t)).unwrap();
            assert_eq!(
                oracle.table.to_tsv(),
                out.table.to_tsv(),
                "{name} threads={t}: rows disagree with the tuple oracle"
            );
        }
    }
    // The refresh's model: an MLP over the same 17 features, wide enough
    // (`n_params = 20·hidden + 2`) that the skeleton's variables make four
    // full shares of work.
    let n_vars = prepare(&db, &model, &debug_plan, Engine::Vectorized)
        .unwrap()
        .stats()
        .n_vars;
    let mlp = Mlp::new(
        17,
        (4 * MIN_WORK_PER_WORKER).div_ceil(20 * n_vars),
        2,
        0.0,
        7,
    );
    assert!(n_vars * mlp.n_params() >= 4 * MIN_WORK_PER_WORKER);
    let prepared = prepare(&db, &mlp, &debug_plan, Engine::Vectorized).unwrap();
    let refresh_1 = prepared.refresh(&db, &mlp, 1).unwrap();
    for &t in &thread_counts {
        let out = prepared.refresh(&db, &mlp, t).unwrap();
        assert_eq!(
            refresh_1.table.to_tsv(),
            out.table.to_tsv(),
            "threads={t}: refresh rows disagree"
        );
        assert_eq!(
            refresh_1.agg_cells, out.agg_cells,
            "threads={t}: refresh provenance disagrees"
        );
        assert_eq!(
            refresh_1.predvars.preds(),
            out.predvars.preds(),
            "threads={t}: refresh predictions disagree"
        );
    }

    let samples = if quick { 3 } else { 20 };
    let mut g = BenchGroup::new("dblp_join_parallel", samples);
    for &t in &thread_counts {
        g.bench(&format!("join_{t}t"), || {
            execute(
                &db,
                &model,
                &join_plan,
                ExecOptions::default().with_threads(t),
            )
            .unwrap()
        });
        g.bench(&format!("agg_{t}t"), || {
            execute(
                &db,
                &model,
                &agg_plan,
                ExecOptions::default().with_threads(t),
            )
            .unwrap()
        });
    }
    for &t in &[1usize, 4] {
        g.bench(&format!("refresh_{t}t"), || {
            prepared.refresh(&db, &mlp, t).unwrap()
        });
    }
    g.finish();

    let join_ms: Vec<f64> = thread_counts
        .iter()
        .map(|t| g.median_secs(&format!("join_{t}t")).unwrap() * 1e3)
        .collect();
    let agg_ms: Vec<f64> = thread_counts
        .iter()
        .map(|t| g.median_secs(&format!("agg_{t}t")).unwrap() * 1e3)
        .collect();
    let refresh_1t = g.median_secs("refresh_1t").unwrap() * 1e3;
    let refresh_4t = g.median_secs("refresh_4t").unwrap() * 1e3;
    let join_scaling = join_ms[0] / join_ms[2];
    let agg_scaling = agg_ms[0] / agg_ms[2];
    let refresh_scaling = refresh_1t / refresh_4t;
    let trace = rain_obs::Trace::start("refresh");
    prepared.refresh(&db, &mlp, 4).unwrap();
    let tree = trace.finish();
    let inference = tree.find("inference").expect("inference span");
    let refresh_workers = inference
        .counters
        .iter()
        .find(|(k, _)| *k == "workers")
        .map_or(0, |(_, w)| *w);
    println!("host_cores: {host_cores}");
    println!(
        "join scaling at 4 threads: {join_scaling:.2}x ({:.3} ms -> {:.3} ms)",
        join_ms[0], join_ms[2]
    );
    println!(
        "agg scaling at 4 threads: {agg_scaling:.2}x ({:.3} ms -> {:.3} ms)",
        agg_ms[0], agg_ms[2]
    );
    println!(
        "refresh scaling at 4 threads: {refresh_scaling:.2}x on {refresh_workers} workers \
         ({n_vars} vars x {} params, {refresh_1t:.3} ms -> {refresh_4t:.3} ms)",
        mlp.n_params()
    );

    let json = format!(
        "{{\n  \"bench\": \"dblp_join_parallel\",\n  \"n_query\": {n_query},\n  \
         \"samples\": {samples},\n  \"host_cores\": {host_cores},\n  \
         \"join\": {{ \"t1_ms\": {:.6}, \"t2_ms\": {:.6}, \"t4_ms\": {:.6}, \
         \"scaling_4t\": {:.3} }},\n  \
         \"agg\": {{ \"t1_ms\": {:.6}, \"t2_ms\": {:.6}, \"t4_ms\": {:.6}, \
         \"scaling_4t\": {agg_scaling:.3} }},\n  \
         \"refresh\": {{ \"t1_ms\": {refresh_1t:.6}, \"t4_ms\": {refresh_4t:.6}, \
         \"scaling_4t\": {refresh_scaling:.3}, \"workers_4t\": {refresh_workers} }}\n}}\n",
        join_ms[0], join_ms[1], join_ms[2], join_scaling, agg_ms[0], agg_ms[1], agg_ms[2]
    );
    let path =
        std::env::var("RAIN_BENCH_JSON").unwrap_or_else(|_| "BENCH_parallel.json".to_string());
    std::fs::write(&path, &json).expect("write bench artifact");
    println!("wrote {path}");
}
