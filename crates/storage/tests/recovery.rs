//! Crash-recovery property tests: torn-write simulation.
//!
//! Each trial builds a random mutation history, makes it durable, then
//! damages the log file the way a crash would — truncation at an
//! arbitrary byte offset, or a flipped byte in the tail — and asserts
//! that recovery stops cleanly at the last fully-valid record with state
//! **bit-identical** to a reference replay of exactly that record
//! prefix. "Bit-identical" is checked by encoding both states through
//! the storage codec and comparing bytes: float bit patterns, null
//! bitmaps, dataset record ids, and `(gen, delta)` catalog versions all
//! participate.

use rain_linalg::{Matrix, RainRng};
use rain_model::Dataset;
use rain_sql::table::{ColType, Column, Schema, Table};
use rain_sql::{IndexKind, Value};
use rain_storage::{
    codec, crc32, snapshot_records, Enc, Record, RecoveredState, SessionStore, LOG_HEADER_LEN,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "rain-recovery-test-{}-{tag}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Canonical byte encoding of everything recovery promises to restore.
/// Two states encoding to the same bytes are bit-identical: specs,
/// params, training sets (float bits + record ids), and every catalog
/// entry's name, `(gen, delta)` version, columns, null bitmaps, and
/// feature matrix.
fn state_bytes(state: &RecoveredState) -> Vec<u8> {
    let mut e = Enc::new();
    match &state.spec {
        Some(s) => {
            e.u8(1);
            e.str(s);
        }
        None => e.u8(0),
    }
    match &state.params {
        Some(p) => {
            e.u8(1);
            e.u64(p.len() as u64);
            for &x in p {
                e.f64(x);
            }
        }
        None => e.u8(0),
    }
    match &state.train {
        Some(d) => {
            e.u8(1);
            codec::put_dataset(&mut e, d);
        }
        None => e.u8(0),
    }
    for ent in state.db.entries() {
        e.str(&ent.name);
        e.u64(ent.version.gen);
        e.u64(ent.version.delta);
        codec::put_table(&mut e, &ent.table);
        // Index definitions participate in the bit-identity claim (their
        // data is a pure function of the table, so defs suffice).
        e.u64(ent.indexes.len() as u64);
        for ix in &ent.indexes {
            e.str(&ix.column);
            e.u8(ix.kind.code());
        }
    }
    e.into_bytes()
}

/// An owned copy of a record (Record is not Clone; the codec round-trip
/// is exact by construction).
fn dup(rec: &Record) -> Record {
    Record::decode(&rec.encode()).unwrap()
}

const COL_NAMES: [&str; 3] = ["a", "b", "c"];

fn random_col_type(rng: &mut RainRng) -> ColType {
    match rng.below(4) {
        0 => ColType::Bool,
        1 => ColType::Int,
        2 => ColType::Float,
        _ => ColType::Str,
    }
}

/// Cell of the given type; floats draw from bit-pattern edge cases so the
/// bit-identity claim is load-bearing, not vacuous.
fn random_value(rng: &mut RainRng, ty: ColType, allow_null: bool) -> Value {
    if allow_null && rng.bernoulli(0.15) {
        return Value::Null;
    }
    match ty {
        ColType::Bool => Value::Bool(rng.bernoulli(0.5)),
        ColType::Int => Value::Int(rng.int_range(-1_000, 1_000)),
        ColType::Float => Value::Float(match rng.below(8) {
            0 => -0.0,
            1 => f64::MIN_POSITIVE,
            2 => -1.5e300,
            _ => rng.uniform_range(-10.0, 10.0),
        }),
        ColType::Str => Value::Str(format!("s{}", rng.below(100))),
    }
}

fn random_table(rng: &mut RainRng) -> (Table, Vec<ColType>) {
    let n_cols = 1 + rng.below(3);
    let n_rows = 1 + rng.below(5);
    let types: Vec<ColType> = (0..n_cols).map(|_| random_col_type(rng)).collect();
    let defs: Vec<(&str, ColType)> = types
        .iter()
        .enumerate()
        .map(|(i, &ty)| (COL_NAMES[i], ty))
        .collect();
    let columns = types
        .iter()
        .map(|&ty| match ty {
            ColType::Bool => Column::Bool((0..n_rows).map(|_| rng.bernoulli(0.5)).collect()),
            ColType::Int => Column::Int((0..n_rows).map(|_| rng.int_range(-50, 50)).collect()),
            ColType::Float => Column::Float(
                (0..n_rows)
                    .map(|_| match rng.below(6) {
                        0 => -0.0,
                        _ => rng.uniform_range(-5.0, 5.0),
                    })
                    .collect(),
            ),
            ColType::Str => {
                Column::Str((0..n_rows).map(|_| format!("r{}", rng.below(30))).collect())
            }
        })
        .collect();
    (Table::from_columns(Schema::new(&defs), columns), types)
}

fn random_dataset(rng: &mut RainRng) -> Dataset {
    let n = 1 + rng.below(5);
    let dim = 2;
    let x = Matrix::from_vec(n, dim, (0..n * dim).map(|_| rng.uniform()).collect());
    let labels: Vec<usize> = (0..n).map(|_| rng.below(2)).collect();
    let ids: Vec<usize> = (0..n).map(|i| i * 3 + 7).collect();
    Dataset::with_ids(x, labels, ids, 2)
}

/// One random catalog mutation, kept valid against the tables registered
/// so far (`tables` mirrors name → schema).
fn random_record(rng: &mut RainRng, tables: &mut Vec<(String, Vec<ColType>)>) -> Record {
    let roll = rng.below(10);
    if tables.is_empty() || roll < 3 {
        let name = format!("t{}", rng.below(4));
        let (table, types) = random_table(rng);
        match tables.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = types,
            None => tables.push((name.clone(), types)),
        }
        Record::RegisterTable { name, table }
    } else if roll < 6 {
        let (name, types) = tables[rng.below(tables.len())].clone();
        let n = 1 + rng.below(4);
        let rows = (0..n)
            .map(|_| {
                types
                    .iter()
                    .map(|&ty| random_value(rng, ty, true))
                    .collect()
            })
            .collect();
        Record::AppendRows {
            name,
            rows,
            features: None,
        }
    } else if roll < 7 {
        // Valid against the schema at this point in the history; a later
        // replacing register may drop the index again, deterministically.
        let (name, types) = tables[rng.below(tables.len())].clone();
        let col = rng.below(types.len());
        let kind = if types[col] != ColType::Str && rng.bernoulli(0.5) {
            IndexKind::Sorted
        } else {
            IndexKind::Hash
        };
        Record::CreateIndex {
            name,
            column: COL_NAMES[col].to_string(),
            kind: kind.code(),
        }
    } else if roll < 8 {
        Record::TrainSet {
            data: random_dataset(rng),
        }
    } else if roll < 9 {
        Record::ModelParams {
            params: rng.normal_vec(3, 1.0),
        }
    } else {
        Record::SessionMeta {
            spec: format!("{{\"seed\":{}}}", rng.below(1_000)),
        }
    }
}

/// Write `records` durably and return the log-offset one past each frame
/// (frame i's bytes are `[ends[i-1], ends[i])`, with `ends[-1]` standing
/// for the 8-byte header).
fn write_history(dir: &Path, records: &[Record]) -> Vec<u64> {
    let mut store = SessionStore::open(dir).unwrap();
    let mut ends = Vec::with_capacity(records.len());
    let mut off = LOG_HEADER_LEN;
    for rec in records {
        off += 8 + rec.encode().len() as u64;
        ends.push(off);
        store.append(rec);
    }
    store.commit().unwrap();
    ends
}

/// Reference replay: the first `n` records applied to an empty state.
fn reference(records: &[Record], n: usize) -> RecoveredState {
    let mut state = RecoveredState::empty();
    for rec in &records[..n] {
        state.apply(dup(rec)).unwrap();
    }
    state
}

#[test]
fn truncation_at_any_offset_recovers_the_exact_durable_prefix() {
    for seed in 0..6u64 {
        let mut rng = RainRng::seed_from_u64(0xB0A7 + seed);
        let mut tables = Vec::new();
        let records: Vec<Record> = (0..25)
            .map(|_| random_record(&mut rng, &mut tables))
            .collect();
        let dir = temp_dir("trunc");
        let ends = write_history(&dir, &records);
        let log_path = dir.join("log.bin");
        let full = std::fs::metadata(&log_path).unwrap().len();
        assert_eq!(full, *ends.last().unwrap());

        // Tear the file at a uniformly random byte offset (header kept).
        let cut = LOG_HEADER_LEN + rng.below((full - LOG_HEADER_LEN + 1) as usize) as u64;
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&log_path)
            .unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let survivors = ends.iter().filter(|&&e| e <= cut).count();
        let mut store = SessionStore::open(&dir).unwrap();
        let recovered = store.recover().unwrap();
        assert_eq!(
            recovered.stats.replayed_records, survivors as u64,
            "seed {seed}: cut at {cut} of {full} must keep exactly the full frames before it"
        );
        assert!(recovered.stats.snapshot_offset.is_none());
        assert_eq!(
            state_bytes(&recovered),
            state_bytes(&reference(&records, survivors)),
            "seed {seed}: recovered state diverges from reference replay of {survivors} records"
        );
        // The truncated log keeps accepting appends from the cut point.
        let mut tail_tables: Vec<(String, Vec<ColType>)> = Vec::new();
        store
            .append_commit(&random_record(&mut rng, &mut tail_tables))
            .unwrap();
        assert_eq!(store.log_records(), survivors as u64 + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn corruption_in_the_tail_recovers_the_prefix_before_the_bad_frame() {
    for seed in 0..6u64 {
        let mut rng = RainRng::seed_from_u64(0xC0DE + seed);
        let mut tables = Vec::new();
        let records: Vec<Record> = (0..25)
            .map(|_| random_record(&mut rng, &mut tables))
            .collect();
        let dir = temp_dir("corrupt");
        let ends = write_history(&dir, &records);
        let log_path = dir.join("log.bin");

        // Flip one byte somewhere past the header: the frame containing
        // it fails its checksum (or yields an implausible length), and
        // the scan must stop at the frame boundary before it.
        let mut bytes = std::fs::read(&log_path).unwrap();
        let victim = LOG_HEADER_LEN as usize + rng.below(bytes.len() - LOG_HEADER_LEN as usize);
        bytes[victim] ^= 0x5A;
        std::fs::write(&log_path, &bytes).unwrap();

        let survivors = ends.iter().filter(|&&e| e <= victim as u64).count();
        let mut store = SessionStore::open(&dir).unwrap();
        let recovered = store.recover().unwrap();
        assert_eq!(
            recovered.stats.replayed_records, survivors as u64,
            "seed {seed}: byte {victim} flipped; frames before its frame must survive"
        );
        assert!(recovered.stats.truncated_bytes > 0, "seed {seed}");
        assert_eq!(
            state_bytes(&recovered),
            state_bytes(&reference(&records, survivors)),
            "seed {seed}: recovered state diverges from reference replay of {survivors} records"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn snapshot_plus_torn_tail_recovers_bit_identically() {
    for seed in 0..4u64 {
        let mut rng = RainRng::seed_from_u64(0x57AB + seed);
        let mut tables = Vec::new();
        // A head the snapshot will cover: meta, params, and a train set
        // first so the snapshot has concrete spec/params/train to carry.
        let mut records = vec![
            Record::SessionMeta {
                spec: format!("{{\"session\":{seed}}}"),
            },
            Record::ModelParams {
                params: rng.normal_vec(4, 1.0),
            },
            Record::TrainSet {
                data: random_dataset(&mut rng),
            },
        ];
        for _ in 0..8 {
            records.push(random_record(&mut rng, &mut tables));
        }
        let head_len = records.len();

        let dir = temp_dir("snaptorn");
        let mut store = SessionStore::open(&dir).unwrap();
        let mut ends = Vec::new();
        let mut off = LOG_HEADER_LEN;
        for rec in &records {
            off += 8 + rec.encode().len() as u64;
            ends.push(off);
            store.append(rec);
        }
        store.commit().unwrap();

        // Snapshot the head state, then keep logging a tail.
        let head = reference(&records, head_len);
        let snap = snapshot_records(
            head.spec.as_deref().unwrap(),
            head.params.as_deref().unwrap(),
            head.train.as_ref().unwrap(),
            &head.db,
        );
        store.snapshot(&snap).unwrap();
        let snap_offset = store.log_bytes();

        for _ in 0..8 {
            let rec = random_record(&mut rng, &mut tables);
            off += 8 + rec.encode().len() as u64;
            ends.push(off);
            store.append(&rec);
            records.push(rec);
        }
        store.commit().unwrap();
        drop(store);

        // Tear somewhere in the tail (at or after the snapshot offset).
        let log_path = dir.join("log.bin");
        let full = std::fs::metadata(&log_path).unwrap().len();
        let cut = snap_offset + rng.below((full - snap_offset + 1) as usize) as u64;
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&log_path)
            .unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let survivors = ends.iter().filter(|&&e| e <= cut).count();
        let mut store = SessionStore::open(&dir).unwrap();
        let recovered = store.recover().unwrap();
        assert_eq!(
            recovered.stats.snapshot_offset,
            Some(snap_offset),
            "seed {seed}: the snapshot must be found and used"
        );
        assert_eq!(
            recovered.stats.replayed_records,
            (survivors - head_len) as u64,
            "seed {seed}: only the tail after the snapshot replays"
        );
        assert_eq!(
            state_bytes(&recovered),
            state_bytes(&reference(&records, survivors)),
            "seed {seed}: snapshot + tail replay diverges from full reference replay"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Write a snapshot file by hand: `magic`, body length, a valid CRC over
/// `body`, then `body`, under the name a snapshot covering `offset` has.
fn write_raw_snapshot(dir: &Path, offset: u64, magic: &[u8; 8], body: &[u8]) {
    let mut bytes = magic.to_vec();
    bytes.extend_from_slice(&(body.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc32(body).to_le_bytes());
    bytes.extend_from_slice(body);
    std::fs::write(dir.join(format!("snap-{offset:020}.bin")), bytes).unwrap();
}

/// The upgrade path: a snapshot in the retired `RAINSNP1` format (valid
/// checksum, any body) is skipped, and recovery replays the whole log —
/// which is complete, because no log prefix is ever dropped.
#[test]
fn retired_snapshot_format_recovers_by_full_log_replay() {
    let mut rng = RainRng::seed_from_u64(0x5A71);
    let mut tables = Vec::new();
    let records: Vec<Record> = (0..20)
        .map(|_| random_record(&mut rng, &mut tables))
        .collect();
    let dir = temp_dir("oldsnap");
    let ends = write_history(&dir, &records);
    write_raw_snapshot(&dir, *ends.last().unwrap(), b"RAINSNP1", b"any old body");

    let mut store = SessionStore::open(&dir).unwrap();
    let recovered = store.recover().unwrap();
    assert_eq!(recovered.stats.snapshot_offset, None);
    assert_eq!(recovered.stats.replayed_records, records.len() as u64);
    assert_eq!(
        state_bytes(&recovered),
        state_bytes(&reference(&records, records.len()))
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A newest snapshot whose checksum passes but whose body holds a record
/// that does not decode is corrupt: recovery falls back to the older
/// snapshot and replays the longer tail after it.
#[test]
fn undecodable_record_in_newest_snapshot_falls_back_to_the_older_one() {
    let mut rng = RainRng::seed_from_u64(0xBAD5);
    let mut tables = Vec::new();
    let mut records = vec![
        Record::SessionMeta {
            spec: "{\"session\":1}".into(),
        },
        Record::ModelParams {
            params: rng.normal_vec(3, 1.0),
        },
        Record::TrainSet {
            data: random_dataset(&mut rng),
        },
    ];
    records.extend((0..10).map(|_| random_record(&mut rng, &mut tables)));
    let head_len = records.len();
    let dir = temp_dir("badsnap");
    write_history(&dir, &records);
    let mut store = SessionStore::open(&dir).unwrap();
    let head = reference(&records, head_len);
    let snap = snapshot_records(
        head.spec.as_deref().unwrap(),
        head.params.as_deref().unwrap(),
        head.train.as_ref().unwrap(),
        &head.db,
    );
    store.snapshot(&snap).unwrap();
    let older = store.log_bytes();
    for _ in 0..5 {
        let rec = random_record(&mut rng, &mut tables);
        store.append(&rec);
        records.push(rec);
    }
    store.commit().unwrap();
    let newest = store.log_bytes();
    drop(store);

    // One record, length-prefixed, whose tag no decoder knows.
    let mut body = Enc::new();
    body.u64(1);
    body.bytes(&[0xFF]);
    write_raw_snapshot(&dir, newest, b"RAINSNP2", &body.into_bytes());

    let mut store = SessionStore::open(&dir).unwrap();
    let recovered = store.recover().unwrap();
    assert_eq!(recovered.stats.snapshot_offset, Some(older));
    assert_eq!(
        recovered.stats.replayed_records,
        (records.len() - head_len) as u64
    );
    assert_eq!(
        state_bytes(&recovered),
        state_bytes(&reference(&records, records.len()))
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The acceptance differential: a debug-mode query (rows + provenance
/// polynomials over prediction variables) against the recovered catalog
/// matches the pre-crash run exactly — including after a delta append
/// bumped the table's `(gen, delta)` version.
#[test]
fn recovered_catalog_serves_identical_rows_and_provenance() {
    use rain_model::{Classifier, LogisticRegression};
    use rain_sql::{run_query, ExecOptions, TableVersion};

    let table = Table::from_columns(
        Schema::new(&[("id", ColType::Int)]),
        vec![Column::Int(vec![10, 11, 12])],
    )
    .with_features(Matrix::from_rows(&[&[1.0], &[-1.0], &[0.25]]));
    let records = vec![
        Record::RegisterTable {
            name: "users".into(),
            table,
        },
        Record::AppendRows {
            name: "users".into(),
            rows: vec![vec![Value::Int(13)], vec![Value::Int(14)]],
            features: Some(vec![vec![-2.5], vec![0.75]]),
        },
    ];
    let pre = reference(&records, records.len());

    let mut model = LogisticRegression::new(1, 0.0);
    model.set_params(&[10.0, 0.0]);
    let sql = "SELECT id FROM users WHERE predict(*) = 1";
    let before = run_query(&pre.db, &model, sql, ExecOptions::debug()).unwrap();

    let dir = temp_dir("differential");
    write_history(&dir, &records);
    let mut store = SessionStore::open(&dir).unwrap();
    let recovered = store.recover().unwrap();

    assert_eq!(state_bytes(&recovered), state_bytes(&pre));
    let id = recovered.db.resolve("users").unwrap();
    assert_eq!(
        recovered.db.table_version(id),
        TableVersion { gen: 0, delta: 1 },
        "the delta append's version bump must survive recovery"
    );

    let after = run_query(&recovered.db, &model, sql, ExecOptions::debug()).unwrap();
    assert_eq!(before.table.n_rows(), 3, "ids 10, 12, 14 predict positive");
    assert_eq!(
        format!("{:?}", before.table),
        format!("{:?}", after.table),
        "result rows must match the pre-crash run exactly"
    );
    assert_eq!(
        format!("{:?}", before.row_prov),
        format!("{:?}", after.row_prov),
        "provenance polynomials must match the pre-crash run exactly"
    );
    assert_eq!(
        format!("{:?}", before.agg_cells),
        format!("{:?}", after.agg_cells)
    );
    assert_eq!(before.predvars.infos(), after.predvars.infos());
    assert_eq!(before.predvars.preds(), after.predvars.preds());
    std::fs::remove_dir_all(&dir).unwrap();
}
