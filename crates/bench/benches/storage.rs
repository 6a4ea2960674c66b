//! Durability bench: commitlog append throughput and boot-time recovery
//! on a 200k-row DBLP-like catalog (40k under `RAIN_QUICK=1`).
//!
//! The workload mirrors the serving layer's ingestion path: one
//! `RegisterTable` record for the seed batch, then `AppendRows` records
//! of `BATCH` rows (ids + 17-D feature vectors) with one fsync'd commit
//! each — exactly what `POST /sessions/{s}/tables/{t}/append` costs per
//! request. Recovery is timed both log-only (full replay) and from a
//! snapshot covering the whole log (the steady-state boot shape).
//!
//! Before any timing, the recovered catalog is asserted bit-identical to
//! a reference replay (row count, `(gen, delta)` version, feature
//! matrix) — a bench that recovers the wrong state must panic, not post
//! a throughput number.
//!
//! Writes `BENCH_storage.json` (path overridable via `RAIN_BENCH_JSON`)
//! with the headline `append.rows_per_s` and `recovery.rows_per_s`; the
//! regression gate floors both.

use rain_data::dblp::DblpConfig;
use rain_linalg::Matrix;
use rain_sql::table::{ColType, Column, Schema, Table};
use rain_sql::Value;
use rain_storage::{snapshot_records, Record, RecoveredState, SessionStore};
use std::path::PathBuf;
use std::time::Instant;

const BATCH: usize = 1_000;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rain-bench-storage-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The seed batch as a registered table: id column + feature matrix.
fn seed_table(ids: &[usize], feats: &Matrix) -> Table {
    let rows: Vec<&[f64]> = (0..ids.len()).map(|i| feats.row(i)).collect();
    Table::from_columns(
        Schema::new(&[("id", ColType::Int)]),
        vec![Column::Int(ids.iter().map(|&i| i as i64).collect())],
    )
    .with_features(Matrix::from_rows(&rows))
}

/// One ingestion batch: rows `[lo, hi)` as an `AppendRows` record.
fn append_record(ids: &[usize], feats: &Matrix, lo: usize, hi: usize) -> Record {
    Record::AppendRows {
        name: "dblp".into(),
        rows: (lo..hi).map(|i| vec![Value::Int(ids[i] as i64)]).collect(),
        features: Some((lo..hi).map(|i| feats.row(i).to_vec()).collect()),
    }
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn main() {
    let quick = rain_bench::is_quick();
    let n_rows = if quick { 40_000 } else { 200_000 };
    let recovery_samples = if quick { 3 } else { 5 };
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let w = DblpConfig {
        n_train: 200,
        n_query: n_rows,
        ..Default::default()
    }
    .generate(42);
    let ids = w.query.ids();
    let feats = w.query.features();

    // --- Append phase: register the seed batch, then one fsync'd commit
    // per BATCH-row append record (the wire handler's per-request cost).
    let dir = temp_dir("append");
    let t0 = Instant::now();
    let mut store = SessionStore::open(&dir).unwrap();
    store
        .append_commit(&Record::RegisterTable {
            name: "dblp".into(),
            table: seed_table(&ids[..BATCH], feats),
        })
        .unwrap();
    let mut batches = 0u64;
    let mut lo = BATCH;
    while lo < n_rows {
        let hi = (lo + BATCH).min(n_rows);
        store
            .append_commit(&append_record(ids, feats, lo, hi))
            .unwrap();
        batches += 1;
        lo = hi;
    }
    let append_s = t0.elapsed().as_secs_f64();
    let appended = n_rows - BATCH;
    let append_rows_per_s = appended as f64 / append_s;
    let log_bytes = store.log_bytes();
    drop(store);

    // --- Correctness before timing: recovery must reproduce the full
    // catalog bit-identically (reference replay of the same records).
    let mut reference = RecoveredState::empty();
    reference
        .apply(Record::RegisterTable {
            name: "dblp".into(),
            table: seed_table(&ids[..BATCH], feats),
        })
        .unwrap();
    let mut lo = BATCH;
    while lo < n_rows {
        let hi = (lo + BATCH).min(n_rows);
        reference.apply(append_record(ids, feats, lo, hi)).unwrap();
        lo = hi;
    }
    {
        let mut store = SessionStore::open(&dir).unwrap();
        let recovered = store.recover().unwrap();
        let id = recovered.db.resolve("dblp").unwrap();
        let ref_id = reference.db.resolve("dblp").unwrap();
        assert_eq!(recovered.db.table_by_id(id).n_rows(), n_rows);
        assert_eq!(
            recovered.db.table_version(id),
            reference.db.table_version(ref_id),
            "recovery lost the (gen, delta) version"
        );
        let got = recovered.db.table_by_id(id).features().unwrap();
        let want = reference.db.table_by_id(ref_id).features().unwrap();
        assert_eq!(got.rows(), want.rows());
        for r in [0, n_rows / 2, n_rows - 1] {
            assert_eq!(
                got.row(r).iter().map(|x| x.to_bits()).collect::<Vec<u64>>(),
                want.row(r)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<u64>>(),
                "recovered features diverge at row {r}"
            );
        }
    }

    // --- Recovery phase, log-only: full replay of every record.
    let mut replay_samples: Vec<f64> = (0..recovery_samples)
        .map(|_| {
            let t = Instant::now();
            let mut store = SessionStore::open(&dir).unwrap();
            let recovered = store.recover().unwrap();
            assert_eq!(recovered.stats.replayed_records, batches + 1);
            t.elapsed().as_secs_f64()
        })
        .collect();
    let replay_s = median(&mut replay_samples);
    let replay_rows_per_s = n_rows as f64 / replay_s;

    // --- Recovery phase, from a snapshot covering the whole log.
    {
        let mut store = SessionStore::open(&dir).unwrap();
        let state = store.recover().unwrap();
        let train = rain_model::Dataset::with_ids(Matrix::zeros(0, 0), vec![], vec![], 2);
        let snap = snapshot_records("{}", &[], &train, &state.db);
        store.snapshot(&snap).unwrap();
    }
    let mut snap_samples: Vec<f64> = (0..recovery_samples)
        .map(|_| {
            let t = Instant::now();
            let mut store = SessionStore::open(&dir).unwrap();
            let recovered = store.recover().unwrap();
            assert_eq!(
                recovered.stats.replayed_records, 0,
                "snapshot must cover the log"
            );
            assert_eq!(
                recovered
                    .db
                    .table_by_id(recovered.db.resolve("dblp").unwrap())
                    .n_rows(),
                n_rows
            );
            t.elapsed().as_secs_f64()
        })
        .collect();
    let snap_s = median(&mut snap_samples);
    let snap_rows_per_s = n_rows as f64 / snap_s;

    println!("host_cores: {host_cores}");
    println!(
        "append: {appended} rows in {append_s:.3} s ({append_rows_per_s:.0} rows/s, \
         {batches} fsync'd batches, {log_bytes} log bytes)"
    );
    println!("recovery (log replay): {replay_s:.3} s ({replay_rows_per_s:.0} rows/s)");
    println!("recovery (snapshot):   {snap_s:.3} s ({snap_rows_per_s:.0} rows/s)");

    let json = format!(
        "{{\n  \"bench\": \"storage\",\n  \"n_rows\": {n_rows},\n  \
         \"batch_rows\": {BATCH},\n  \"host_cores\": {host_cores},\n  \
         \"append\": {{ \"rows\": {appended}, \"batches\": {batches}, \
         \"seconds\": {append_s:.6}, \"rows_per_s\": {append_rows_per_s:.1}, \
         \"log_bytes\": {log_bytes} }},\n  \
         \"recovery\": {{ \"seconds\": {replay_s:.6}, \
         \"rows_per_s\": {replay_rows_per_s:.1} }},\n  \
         \"snapshot_recovery\": {{ \"seconds\": {snap_s:.6}, \
         \"rows_per_s\": {snap_rows_per_s:.1} }}\n}}\n"
    );
    let path =
        std::env::var("RAIN_BENCH_JSON").unwrap_or_else(|_| "BENCH_storage.json".to_string());
    std::fs::write(&path, &json).expect("write bench artifact");
    println!("wrote {path}");
    let _ = std::fs::remove_dir_all(&dir);
}
