//! One directory per session: a commitlog plus its snapshots.
//!
//! Layout under the session directory:
//!
//! ```text
//! <dir>/log.bin                  append-only commitlog
//! <dir>/snap-<offset>.bin        snapshots, named by covered log offset
//! ```
//!
//! [`SessionStore::recover`] is the boot path: newest valid snapshot (if
//! any) + replay of the log tail after its offset, producing a
//! [`RecoveredState`] whose catalog versions, null bitmaps, float bits,
//! and dataset record ids are identical to the pre-crash state.
//! Both halves go through one function: the snapshot's records, then the
//! tail's, are applied by [`RecoveredState::apply`], which checks and
//! applies each through [`effect`], as a live commit does.
//! [`SessionStore::maybe_snapshot`] is the steady-state path: it cuts a
//! snapshot only once enough log (bytes or records) has accumulated
//! behind the previous one, keeping both the write amplification and the
//! recovery tail bounded.

use crate::effect::{self, Applied, SessionParts};
use crate::log::{Commitlog, LOG_HEADER_LEN};
use crate::record::Record;
use crate::snapshot;
use crate::StorageError;
use rain_model::Dataset;
use rain_sql::Database;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Log bytes behind the latest snapshot that trigger a new one.
const SNAPSHOT_EVERY_BYTES: u64 = 8 << 20;
/// Log records behind the latest snapshot that trigger a new one.
const SNAPSHOT_EVERY_RECORDS: u64 = 256;

/// What recovery did, for `/stats`, `/metrics`, and logs.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryStats {
    /// Log offset of the snapshot used, if one validated.
    pub snapshot_offset: Option<u64>,
    /// Log records replayed after the snapshot.
    pub replayed_records: u64,
    /// Torn-tail bytes discarded when the log was opened.
    pub truncated_bytes: u64,
    /// Durable log size after open (bytes).
    pub log_bytes: u64,
    /// Durable records in the log after open.
    pub log_records: u64,
    /// Wall-clock seconds spent in snapshot load + replay.
    pub seconds: f64,
}

/// Session state reassembled from disk: the catalog plus the pieces the
/// caller turns back into a live session (parse `spec`, build the model,
/// apply `params`).
#[derive(Debug, Default)]
pub struct RecoveredState {
    /// Verbatim session-creation JSON, if a meta record survived.
    pub spec: Option<String>,
    /// Flat model parameters, if a params record survived.
    pub params: Option<Vec<f64>>,
    /// Training set, if one was uploaded.
    pub train: Option<Dataset>,
    /// The catalog, versions and all.
    pub db: Database,
    /// What recovery did.
    pub stats: RecoveryStats,
}

impl RecoveredState {
    /// Empty state (what a session looks like before any record).
    pub fn empty() -> Self {
        RecoveredState::default()
    }

    /// Apply one record, from a snapshot or the log tail, through the
    /// same [`effect::check`] and [`effect::apply`] a live commit runs, so
    /// versions come out identical. A stored record that fails its check
    /// is corruption. Tests use this directly as the reference replay.
    pub fn apply(&mut self, rec: Record) -> Result<(), StorageError> {
        let ok = effect::check(&self.db, rec)
            .map_err(|e| StorageError::Corrupt(format!("record does not apply: {e}")))?;
        match effect::apply(self, ok) {
            Applied::Spec(spec) => self.spec = Some(spec),
            Applied::Params(params) => self.params = Some(params),
            _ => {}
        }
        Ok(())
    }
}

impl SessionParts for RecoveredState {
    fn db(&mut self) -> &mut Database {
        &mut self.db
    }

    fn set_train(&mut self, data: Dataset) {
        self.train = Some(data);
    }
}

/// Commitlog + snapshots for one session.
#[derive(Debug)]
pub struct SessionStore {
    dir: PathBuf,
    log: Commitlog,
    /// Log offset covered by the latest snapshot (header offset = none).
    snapshot_offset: u64,
    /// Log offset the snapshot cadence counts from: the latest snapshot's,
    /// or the log's end at the latest failed attempt.
    cadence_offset: u64,
    /// Records appended since `cadence_offset` was set.
    records_since_snapshot: u64,
    snapshots_taken: u64,
    last_snapshot_unix_ms: u64,
}

impl SessionStore {
    /// Open, creating the directory and log if needed.
    pub fn open(dir: &Path) -> Result<SessionStore, StorageError> {
        std::fs::create_dir_all(dir)?;
        let log = Commitlog::open(&dir.join("log.bin"))?;
        Ok(SessionStore {
            dir: dir.to_path_buf(),
            log,
            snapshot_offset: LOG_HEADER_LEN,
            cadence_offset: LOG_HEADER_LEN,
            records_since_snapshot: 0,
            snapshots_taken: 0,
            last_snapshot_unix_ms: 0,
        })
    }

    /// Buffer a record; durable after the next [`SessionStore::commit`].
    pub fn append(&mut self, rec: &Record) {
        self.log.append(&rec.encode());
        self.records_since_snapshot += 1;
    }

    /// Flush buffered records with one write + fsync.
    pub fn commit(&mut self) -> Result<(), StorageError> {
        self.log.commit()
    }

    /// Append one record and commit immediately (the common wire-handler
    /// case: one mutation per request).
    pub fn append_commit(&mut self, rec: &Record) -> Result<(), StorageError> {
        self.append(rec);
        self.commit()
    }

    /// Fault injection for tests of the layers above the store: see
    /// [`Commitlog::fail_next_commit`].
    #[doc(hidden)]
    pub fn fail_next_commit(&mut self) {
        self.log.fail_next_commit();
    }

    /// Reassemble session state: newest valid snapshot plus the log tail.
    pub fn recover(&mut self) -> Result<RecoveredState, StorageError> {
        let t0 = Instant::now();
        let open = self.log.open_stats();
        let mut state = RecoveredState::empty();
        let mut from = LOG_HEADER_LEN;
        if let Some((offset, records)) = snapshot::load_latest(&self.dir)? {
            for rec in records {
                state.apply(rec)?;
            }
            state.stats.snapshot_offset = Some(offset);
            from = offset;
            self.snapshot_offset = offset;
            self.cadence_offset = offset;
            self.snapshots_taken = 1;
        }
        // A record that passed its checksum but fails to decode or to
        // apply is real corruption, not a torn write: recovery fails.
        state.stats.replayed_records = self
            .log
            .replay(from, |_, payload| state.apply(Record::decode(payload)?))?;
        state.stats.truncated_bytes = open.truncated_bytes;
        state.stats.log_bytes = self.log.bytes();
        state.stats.log_records = self.log.records();
        state.stats.seconds = t0.elapsed().as_secs_f64();
        Ok(state)
    }

    /// Cut a snapshot now, covering everything committed so far.
    /// `records` is the session's full state, as
    /// [`snapshot_records`](crate::snapshot_records) builds it.
    pub fn snapshot(&mut self, records: &[Record]) -> Result<(), StorageError> {
        let offset = self.log.durable_end();
        snapshot::write_snapshot(&self.dir, offset, records)?;
        self.snapshot_offset = offset;
        self.cadence_offset = offset;
        self.records_since_snapshot = 0;
        self.snapshots_taken += 1;
        self.last_snapshot_unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        Ok(())
    }

    /// Cut a snapshot once 8 MiB or 256 records of log accumulated behind
    /// the previous one. `build` runs only when a snapshot is due —
    /// building the records clones the full catalog, so the common no-op
    /// call stays cheap. Returns whether a snapshot was cut. A failed
    /// attempt restarts the cadence too: while snapshot writes keep
    /// failing, the catalog is copied once per cadence, not per record.
    pub fn maybe_snapshot(
        &mut self,
        build: impl FnOnce() -> Vec<Record>,
    ) -> Result<bool, StorageError> {
        let end = self.log.durable_end();
        if end.saturating_sub(self.cadence_offset) < SNAPSHOT_EVERY_BYTES
            && self.records_since_snapshot < SNAPSHOT_EVERY_RECORDS
        {
            return Ok(false);
        }
        self.snapshot(&build()).inspect_err(|_| {
            self.cadence_offset = end;
            self.records_since_snapshot = 0;
        })?;
        Ok(true)
    }

    /// Durable log size in bytes.
    pub fn log_bytes(&self) -> u64 {
        self.log.bytes()
    }

    /// Durable records in the log.
    pub fn log_records(&self) -> u64 {
        self.log.records()
    }

    /// Snapshots cut (including one counted for the snapshot recovery
    /// loaded, if any).
    pub fn snapshots_taken(&self) -> u64 {
        self.snapshots_taken
    }

    /// Unix milliseconds of the last snapshot cut by this process
    /// (0 = none yet).
    pub fn last_snapshot_unix_ms(&self) -> u64 {
        self.last_snapshot_unix_ms
    }

    /// Log bytes accumulated behind the latest snapshot.
    pub fn snapshot_lag_bytes(&self) -> u64 {
        self.log.durable_end().saturating_sub(self.snapshot_offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rain_linalg::Matrix;
    use rain_sql::table::{ColType, Column, Schema, Table};
    use rain_sql::{TableVersion, Value};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("rain-store-test-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ints(vals: Vec<i64>) -> Table {
        Table::from_columns(Schema::new(&[("x", ColType::Int)]), vec![Column::Int(vals)])
    }

    #[test]
    fn log_only_recovery_reproduces_versions() {
        let dir = temp_dir("logonly");
        {
            let mut store = SessionStore::open(&dir).unwrap();
            store.append(&Record::SessionMeta { spec: "{}".into() });
            store.append(&Record::RegisterTable {
                name: "t".into(),
                table: ints(vec![1, 2]),
            });
            store.append(&Record::AppendRows {
                name: "t".into(),
                rows: vec![vec![Value::Int(3)]],
                features: None,
            });
            store.append(&Record::RegisterTable {
                name: "t".into(),
                table: ints(vec![9]),
            });
            store.append(&Record::AppendRows {
                name: "t".into(),
                rows: vec![vec![Value::Int(10)], vec![Value::Null]],
                features: None,
            });
            store.commit().unwrap();
        }
        let mut store = SessionStore::open(&dir).unwrap();
        let state = store.recover().unwrap();
        assert_eq!(state.spec.as_deref(), Some("{}"));
        let id = state.db.resolve("t").unwrap();
        assert_eq!(
            state.db.table_version(id),
            TableVersion { gen: 1, delta: 1 },
            "replay reproduces the replace + append history"
        );
        let t = state.db.table_by_id(id);
        assert_eq!(t.n_rows(), 3);
        assert!(t.is_null(2, 0));
        assert_eq!(state.stats.replayed_records, 5);
        assert!(state.stats.snapshot_offset.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_plus_tail_recovery() {
        let dir = temp_dir("snaptail");
        {
            let mut store = SessionStore::open(&dir).unwrap();
            store.append(&Record::SessionMeta {
                spec: "{\"m\":1}".into(),
            });
            store.append(&Record::RegisterTable {
                name: "t".into(),
                table: ints(vec![1]),
            });
            store.commit().unwrap();
            // Cut a snapshot of the state so far, then keep logging.
            let mut pre = RecoveredState::empty();
            pre.apply(Record::RegisterTable {
                name: "t".into(),
                table: ints(vec![1]),
            })
            .unwrap();
            pre.db
                .create_index("t", "x", rain_sql::IndexKind::Hash)
                .unwrap();
            let train = Dataset::with_ids(Matrix::zeros(0, 0), vec![], vec![], 2);
            let snap = crate::snapshot_records("{\"m\":1}", &[0.5], &train, &pre.db);
            store.snapshot(&snap).unwrap();
            store
                .append_commit(&Record::AppendRows {
                    name: "t".into(),
                    rows: vec![vec![Value::Int(2)]],
                    features: None,
                })
                .unwrap();
        }
        let mut store = SessionStore::open(&dir).unwrap();
        let state = store.recover().unwrap();
        assert!(state.stats.snapshot_offset.is_some());
        assert_eq!(state.stats.replayed_records, 1, "only the tail replays");
        assert_eq!(state.params.as_deref(), Some(&[0.5][..]));
        let id = state.db.resolve("t").unwrap();
        assert_eq!(state.db.table_by_id(id).n_rows(), 2);
        assert_eq!(
            state.db.table_version(id),
            TableVersion { gen: 0, delta: 1 }
        );
        let ix = state
            .db
            .index_on(id, 0, rain_sql::IndexKind::Hash)
            .expect("snapshot index definition recovered");
        assert_eq!(ix.len(), 2, "index rebuilt over the replayed tail too");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_records_replay_and_rebuild() {
        let dir = temp_dir("index");
        {
            let mut store = SessionStore::open(&dir).unwrap();
            store.append(&Record::RegisterTable {
                name: "t".into(),
                table: ints(vec![1, 2]),
            });
            store.append(&Record::CreateIndex {
                name: "t".into(),
                column: "x".into(),
                kind: 0,
            });
            store.append(&Record::AppendRows {
                name: "t".into(),
                rows: vec![vec![Value::Int(2)]],
                features: None,
            });
            store.commit().unwrap();
        }
        let mut store = SessionStore::open(&dir).unwrap();
        let state = store.recover().unwrap();
        let id = state.db.resolve("t").unwrap();
        let ix = state
            .db
            .index_on(id, 0, rain_sql::IndexKind::Hash)
            .expect("index recovered from the log");
        assert_eq!(ix.len(), 3, "rebuilt over appended rows too");
        std::fs::remove_dir_all(&dir).unwrap();

        // A kind code from the future is corruption, not a silent skip.
        let mut st = RecoveredState::empty();
        st.apply(Record::RegisterTable {
            name: "t".into(),
            table: ints(vec![1]),
        })
        .unwrap();
        assert!(st
            .apply(Record::CreateIndex {
                name: "t".into(),
                column: "x".into(),
                kind: 9,
            })
            .is_err());
    }

    #[test]
    fn snapshot_policy_triggers_on_records() {
        let dir = temp_dir("threshold");
        let mut store = SessionStore::open(&dir).unwrap();
        let train = Dataset::with_ids(Matrix::zeros(0, 0), vec![], vec![], 2);
        let snap = || crate::snapshot_records("{}", &[], &train, &Database::new());
        for i in 1..SNAPSHOT_EVERY_RECORDS {
            store
                .append_commit(&Record::SessionMeta {
                    spec: format!("{{\"i\":{i}}}"),
                })
                .unwrap();
            assert!(!store.maybe_snapshot(snap).unwrap(), "{i} records");
        }
        store
            .append_commit(&Record::SessionMeta { spec: "{}".into() })
            .unwrap();
        assert!(store.maybe_snapshot(snap).unwrap());
        assert_eq!(store.snapshots_taken(), 1);
        assert!(store.last_snapshot_unix_ms() > 0);
        assert_eq!(store.snapshot_lag_bytes(), 0);
        assert!(!store.maybe_snapshot(snap).unwrap(), "counter reset");
        std::fs::remove_dir_all(&dir).unwrap();
    }
    #[test]
    fn a_failing_snapshot_is_retried_after_another_cadence() {
        let dir = temp_dir("failing");
        let mut store = SessionStore::open(&dir).unwrap();
        // The open log keeps working; snapshot files cannot be created.
        let away = dir.with_extension("away");
        std::fs::rename(&dir, &away).unwrap();
        let train = Dataset::with_ids(Matrix::zeros(0, 0), vec![], vec![], 2);
        let builds = std::cell::Cell::new(0);
        let snap = || {
            builds.set(builds.get() + 1);
            crate::snapshot_records("{}", &[], &train, &Database::new())
        };
        let mut failures = 0;
        for _ in 0..3 * SNAPSHOT_EVERY_RECORDS {
            store
                .append_commit(&Record::SessionMeta { spec: "{}".into() })
                .unwrap();
            failures += store.maybe_snapshot(snap).is_err() as usize;
        }
        assert_eq!((builds.get(), failures), (3, 3), "one attempt per cadence");
        assert_eq!(store.snapshots_taken(), 0);
        // Writable again: the next cadence cuts the snapshot.
        std::fs::rename(&away, &dir).unwrap();
        for i in 1..=SNAPSHOT_EVERY_RECORDS {
            store
                .append_commit(&Record::SessionMeta { spec: "{}".into() })
                .unwrap();
            let cut = store.maybe_snapshot(snap).unwrap();
            assert_eq!(cut, i == SNAPSHOT_EVERY_RECORDS, "record {i}");
        }
        assert_eq!((builds.get(), store.snapshots_taken()), (4, 1));
        assert_eq!(store.snapshot_lag_bytes(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
