//! Observability differential tests.
//!
//! Instrumentation must be a pure observer: running with tracing enabled
//! has to produce **bit-identical** output to running with it disabled
//! (which in turn is the seed behavior — disabled spans don't read
//! clocks, allocate, or touch the evaluator). The tests also pin what a
//! harvested trace contains: every pipeline operator, rows-in/rows-out
//! counters, per-morsel worker spans matching `explain_exec`'s reported
//! plan shape, and the incremental prepare/refresh stages. The other
//! differential suites trace every vectorized run of their oracle sweeps
//! (`common::assert_matches_oracle`) and lean on the on-vs-off equality
//! pinned here.

mod common;

use common::{
    assert_identical, children_named, counter, plan_of, sign_features, step_model, wide_step_model,
};
use rain_linalg::{Matrix, RainRng};
use rain_obs::{Span, Trace, TraceNode};
use rain_sql::table::{ColType, Column, Schema, Table};
use rain_sql::{prepare_with, run_query, Database, Engine, ExecOptions};

/// One featured table big enough to engage the morsel-parallel scan.
fn big_db(n: usize) -> Database {
    let mut rng = RainRng::seed_from_u64(0x0B5);
    let t = Table::from_columns(
        Schema::new(&[("x", ColType::Int), ("k", ColType::Int)]),
        vec![
            Column::Int((0..n).map(|i| (i % 997) as i64).collect()),
            Column::Int((0..n).map(|i| (i % 53) as i64).collect()),
        ],
    )
    .with_features(sign_features(&mut rng, n));
    let mut db = Database::new();
    db.register("t", t);
    db
}

const QUERIES: [&str; 4] = [
    "SELECT COUNT(*) FROM t WHERE x < 500",
    "SELECT COUNT(*) FROM t WHERE x < 500 AND predict(t) = 1",
    "SELECT k, SUM(x) FROM t WHERE x < 800 GROUP BY k",
    "SELECT COUNT(*) FROM t a, t b WHERE a.x = b.x AND a.k < 5 AND predict(a) = 1",
];

/// Tracing on vs. off changes nothing about query results — rows,
/// provenance, variable ids, and predictions are bit-identical (and the
/// disabled runs are the seed behavior: inert spans do no work).
#[test]
fn enabled_instrumentation_is_bit_identical_to_disabled() {
    let db = big_db(12_000);
    let model = step_model();
    for sql in QUERIES {
        for debug in [false, true] {
            for threads in [1, 8] {
                let opts = ExecOptions::with_debug(debug).with_threads(threads);
                let label = format!("`{sql}` [debug={debug}, threads={threads}]");
                let off = run_query(&db, &model, sql, opts).unwrap();
                let trace = Trace::start("query");
                let on = run_query(&db, &model, sql, opts).unwrap();
                let tree = trace.finish();
                assert_identical(&label, &off, &on);
                assert!(tree.size() > 1, "{label}: empty trace tree");
            }
        }
    }
}

/// A traced query records every pipeline stage with row counters.
#[test]
fn trace_tree_covers_the_pipeline_operators() {
    let db = big_db(12_000);
    let model = step_model();
    let sql = "SELECT COUNT(*) FROM t a, t b WHERE a.x = b.x AND a.k < 5 AND predict(a) = 1";
    let trace = Trace::start("query");
    run_query(&db, &model, sql, ExecOptions::debug().with_threads(8)).unwrap();
    let tree = trace.finish();
    for stage in [
        "parse",
        "bind",
        "optimize",
        "scan",
        "join",
        "filter",
        "aggregate",
    ] {
        assert!(tree.find(stage).is_some(), "missing span: {stage}");
    }
    // The join splits into hash build + morsel-sharded probe.
    let join = tree.find("join").unwrap();
    assert!(join.find("build").is_some(), "missing build under join");
    let probe = join.find("probe").expect("missing probe under join");
    assert!(counter(probe, "rows_in").is_some());
    assert!(counter(probe, "rows_out").is_some());
    let scan = tree.find("scan").unwrap();
    assert_eq!(counter(scan, "rows_in"), Some(12_000));
    assert!(counter(scan, "rows_out").unwrap() <= 12_000);
}

/// `explain_exec` reports the resolved thread count and per-scan morsel
/// counts, and a traced run records exactly that many per-morsel worker
/// spans under the scan.
#[test]
fn explain_exec_matches_traced_morsel_counts() {
    let n = 20_000;
    let db = big_db(n);
    let model = step_model();
    let sql = "SELECT COUNT(*) FROM t WHERE x < 500";
    let plan = plan_of(&db, sql);

    let explain = plan.explain_exec(&db, Engine::Vectorized, 4);
    assert!(
        explain.contains("Engine: vectorized threads=4"),
        "missing resolved thread count:\n{explain}"
    );
    let morsels: usize = explain
        .lines()
        .find_map(|l| l.split(" morsels=").nth(1))
        .expect("scan line carries a morsel count")
        .trim()
        .parse()
        .unwrap();
    assert!(morsels > 1, "large scan should shard: {explain}");

    let trace = Trace::start("query");
    run_query(&db, &model, sql, ExecOptions::default().with_threads(4)).unwrap();
    let tree = trace.finish();
    let scan = tree.find("scan").unwrap();
    let worker_spans = children_named(scan, "morsel");
    assert_eq!(
        worker_spans, morsels,
        "explain vs trace disagree:\n{explain}"
    );
    // Morsel items cover the whole table exactly once.
    let items: u64 = scan
        .children
        .iter()
        .filter(|c| c.name == "morsel")
        .map(|c| counter(c, "items").unwrap())
        .sum();
    assert_eq!(items, n as u64);

    // The tuple oracle is always sequential and says so.
    let tuple = plan.explain_exec(&db, Engine::Tuple, 4);
    assert!(tuple.contains("Engine: tuple threads=1"), "{tuple}");
    assert!(!tuple.contains("morsels="), "{tuple}");
}

/// 16 emitter threads each record a nested span tree into a trace of
/// their own, all live at once, and harvest it themselves: no span is
/// lost, none is duplicated, no tree bleeds into another, and each tree
/// is stitched in emission order — even though half of every tree's
/// grandchildren are recorded by worker threads attached with
/// `enter_under`.
#[test]
fn concurrent_emitters_and_harvesters_lose_and_duplicate_nothing() {
    use std::sync::{mpsc, Barrier};
    const EMITTERS: usize = 16;
    const SPANS_PER: usize = 24;

    let (tx, rx) = mpsc::channel::<(u64, TraceNode)>();
    let start = Barrier::new(EMITTERS);
    std::thread::scope(|s| {
        for w in 0..EMITTERS {
            let (tx, start) = (tx.clone(), &start);
            s.spawn(move || {
                let mut trace = Trace::start("stress-root");
                trace.add("worker", w as u64);
                // Every emitter's trace is live before any records.
                start.wait();
                for i in 0..SPANS_PER {
                    let mut child = Span::enter("stress-child");
                    child.add("i", i as u64);
                    if i % 2 == 0 {
                        let _grand = Span::enter("stress-grand");
                    } else {
                        let child = &child;
                        std::thread::scope(|ws| {
                            ws.spawn(move || {
                                let _m = Span::enter_under(child, "stress-worker");
                                let _grand = Span::enter("stress-grand");
                            });
                        });
                    }
                }
                tx.send((w as u64, trace.finish())).unwrap();
            });
        }
    });
    drop(tx);

    let harvested: Vec<(u64, TraceNode)> = rx.into_iter().collect();
    assert_eq!(
        harvested.len(),
        EMITTERS,
        "every root harvested exactly once"
    );
    let mut workers: Vec<u64> = harvested
        .iter()
        .map(|(w, tree)| {
            assert_eq!(counter(tree, "worker"), Some(*w), "trees don't bleed");
            assert_eq!(tree.children.len(), SPANS_PER, "trees don't bleed");
            assert_eq!(tree.size(), 1 + SPANS_PER * 2 + SPANS_PER / 2);
            let children: Vec<&TraceNode> = tree
                .children
                .iter()
                .filter(|c| c.name == "stress-child")
                .collect();
            assert_eq!(children.len(), SPANS_PER, "lost or duplicated child spans");
            // Deterministic stitching: children come back in emission
            // order, each with its one grandchild intact.
            let idxs: Vec<u64> = children.iter().map(|c| counter(c, "i").unwrap()).collect();
            let want: Vec<u64> = (0..SPANS_PER as u64).collect();
            assert_eq!(idxs, want, "children out of emission order");
            for (i, c) in children.into_iter().enumerate() {
                assert_eq!(c.children.len(), 1, "grandchild lost or duplicated");
                let grand = if i % 2 == 0 {
                    &c.children[0]
                } else {
                    let worker = &c.children[0];
                    assert_eq!(worker.name, "stress-worker");
                    assert_eq!(worker.children.len(), 1, "worker's span lost");
                    &worker.children[0]
                };
                assert_eq!(grand.name, "stress-grand");
                assert!(grand.children.is_empty());
            }
            *w
        })
        .collect();
    workers.sort_unstable();
    let want: Vec<u64> = (0..EMITTERS as u64).collect();
    assert_eq!(workers, want, "a worker's root was lost or harvested twice");
}

/// The always-on sampler's on/off cadence (trace 1-in-N executions,
/// nothing the rest of the time) never changes what a query returns:
/// sampled and unsampled executions are bit-identical to each other and
/// to the never-traced baseline.
#[test]
fn sampled_execution_is_bit_identical_to_unsampled() {
    let db = big_db(12_000);
    let model = step_model();
    for sql in QUERIES {
        let opts = ExecOptions::with_debug(true).with_threads(8);
        let label = format!("`{sql}`");
        let baseline = run_query(&db, &model, sql, opts).unwrap();
        // Alternate sampling windows the way the serve layer does.
        for pass in 0..4 {
            let sampling = pass % 2 == 0;
            let window = sampling.then(|| Trace::start("query"));
            let out = run_query(&db, &model, sql, opts).unwrap();
            let tree = window.map(Trace::finish);
            assert_identical(&format!("{label} pass {pass}"), &baseline, &out);
            if let Some(tree) = tree {
                assert!(tree.size() > 1, "{label}: sampled trace is empty");
            }
        }
    }
}

/// Parallel operators record a **thread-independent** span shape. The
/// partitioned hash build, the partitioned grouped aggregate, and the
/// morselized cross join size their worker spans from the input alone
/// (`partition_count` and morsel counts are functions of row counts, not
/// of the thread budget), so a trace at `threads = 2` and `threads = 8`
/// must have identical names, nesting, and deterministic counters.
/// (`threads = 1` runs the sequential paths and records no worker
/// children, so the sweep compares the two parallel budgets.)
#[test]
fn parallel_span_shape_is_thread_independent() {
    let mut db = big_db(12_000);
    // Three rows: the small side of a scaled cross join.
    let small = Table::from_columns(
        Schema::new(&[("z", ColType::Int)]),
        vec![Column::Int(vec![0, 1, 2])],
    )
    .with_features(Matrix::from_rows(&[&[1.0], &[-1.0], &[1.0]]));
    db.register("s", small);
    let model = step_model();

    // Project a trace to its deterministic skeleton: names, structural
    // counters, and children canonicalized by sorting (parallel workers
    // finish in nondeterministic order; their *set* of spans is not).
    fn shape(node: &TraceNode) -> String {
        const KEEP: [&str; 7] = [
            "index",
            "items",
            "groups",
            "partitions",
            "morsels",
            "rows_in",
            "rows_out",
        ];
        let mut counters: Vec<String> = node
            .counters
            .iter()
            .filter(|(k, _)| KEEP.contains(k))
            .map(|&(k, v)| format!("{k}={v}"))
            .collect();
        counters.sort();
        let mut kids: Vec<String> = node.children.iter().map(shape).collect();
        kids.sort();
        format!("{}[{}]({})", node.name, counters.join(","), kids.join(" "))
    }

    let cases = [
        // Typed hash join: partitioned build under `join` → `build`. The
        // filter is mostly unselective on purpose: the cost-based
        // optimizer builds over the filtered (cheaper) side, and both
        // sides must stay above the parallel threshold so the build
        // partitions whichever order it picks.
        "SELECT COUNT(*) FROM t a, t b WHERE a.x = b.x AND a.k < 48",
        // Partitioned grouped aggregation (53 groups over 12k rows).
        "SELECT k, SUM(x) FROM t WHERE x < 800 GROUP BY k",
        // Morselized cross join feeding a partitioned grouped aggregate.
        "SELECT z, COUNT(*) FROM t a, s c GROUP BY z",
    ];
    for sql in cases {
        let mut shapes = Vec::new();
        for threads in [2, 8] {
            let trace = Trace::start("query");
            run_query(
                &db,
                &model,
                sql,
                ExecOptions::default().with_threads(threads),
            )
            .unwrap();
            let tree = trace.finish();
            if threads == 8 {
                // The parallel operators actually recorded worker spans.
                if sql.contains("a.x = b.x") {
                    let build = tree.find("build").expect("build span");
                    let parts = children_named(build, "partition") as u64;
                    assert!(parts > 1, "`{sql}`: build did not partition");
                    assert_eq!(counter(build, "partitions"), Some(parts));
                }
                if sql.contains("GROUP BY") {
                    let agg = tree.find("aggregate").expect("aggregate span");
                    let parts = children_named(agg, "partition") as u64;
                    assert!(parts > 1, "`{sql}`: aggregate did not partition");
                    assert_eq!(counter(agg, "partitions"), Some(parts));
                }
                if sql.contains(" s c") {
                    let cross = tree.find("cross").expect("cross span");
                    assert!(
                        children_named(cross, "morsel") > 1,
                        "`{sql}`: cross join did not morselize"
                    );
                }
            }
            shapes.push(shape(&tree));
        }
        assert_eq!(
            shapes[0], shapes[1],
            "`{sql}`: span shape varies with thread count"
        );
    }
}

/// The incremental subsystem's stages appear in traces: skeleton capture
/// inside prepare, sharded inference and formula re-eval inside refresh.
#[test]
fn prepare_and_refresh_record_their_stages() {
    let n = 12_000;
    let db = big_db(n);
    // `x = i % 997`: the rows with `x < 500` are the variables.
    let vars = (0..n).filter(|i| i % 997 < 500).count();
    let model = wide_step_model(1.0, vars);
    let sql = "SELECT COUNT(*) FROM t WHERE x < 500 AND predict(t) = 1";
    let plan = plan_of(&db, sql);

    let trace = Trace::start("run");
    let pq = prepare_with(&db, &model, &plan, Engine::Vectorized, 4).unwrap();
    let out = pq.refresh(&db, &model, 4).unwrap();
    let tree = trace.finish();
    assert!(!out.predvars.is_empty());
    assert_eq!(pq.stats().n_vars, vars);

    let prep = tree.find("prepare").expect("prepare span");
    assert!(prep.find("capture").is_some(), "capture under prepare");
    assert!(prep.find("pack-features").is_some());
    assert!(counter(prep, "n_vars").unwrap() > 0);
    let refresh = tree.find("refresh").expect("refresh span");
    let inference = refresh.find("inference").expect("inference under refresh");
    // Enough work to shard: per-shard worker spans attach, one per worker.
    let workers = counter(inference, "workers").expect("workers counter");
    assert!(workers >= 2, "inference ran on {workers} worker(s)");
    assert_eq!(
        children_named(inference, "shard") as u64,
        workers,
        "sharded inference records worker spans"
    );
    assert!(refresh.find("re-eval").is_some(), "re-eval under refresh");
}
