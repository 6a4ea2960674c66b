//! Durable session mutations: pair every catalog change with a commitlog
//! record, and rebuild a [`DebugSession`] from disk on boot.
//!
//! The serving layer mutates a session in exactly four ways — create it,
//! register/replace a table, append rows, upload a training set — and
//! each helper here validates, then (when the session runs durably)
//! appends the matching [`Record`] and commits, then applies the
//! in-memory mutation — so the log is never behind the state a client has
//! been acknowledged, and a failed write changes nothing. Debug runs
//! themselves never mutate session state
//! ([`DebugSession::run`] takes `&self`), so they need no records.
//!
//! [`recover`] is the inverse: replay snapshot + log tail
//! ([`SessionStore::recover`]), then turn the replayed parts back into a
//! live session. The model is rebuilt by a caller-supplied factory from
//! the verbatim session-creation spec (the wire layer passes its JSON
//! parser, keeping this crate independent of the wire format), and the
//! weights of the snapshot's [`Record::ModelParams`] are applied on top —
//! so recovered weights are bit-identical even for models whose
//! initialization is seeded.

use crate::driver::DebugSession;
use rain_model::{Classifier, Dataset};
use rain_sql::table::Table;
use rain_sql::{Database, TableId, TableVersion, Value};
use rain_storage::{Record, RecoveryStats, SessionStore, StorageError};
use std::path::Path;

/// Turns a verbatim session-creation spec back into a model. The wire
/// layer passes its JSON parser, keeping this crate independent of the
/// wire format.
pub type ModelFactory = dyn Fn(&str) -> Result<Box<dyn Classifier>, String>;

/// A session rebuilt from a data directory.
pub struct Recovered {
    /// The live session: catalog, training set, model (weights applied).
    pub sess: DebugSession,
    /// Verbatim creation spec the session was rebuilt from.
    pub spec: String,
    /// The store, reopened and ready for further appends.
    pub store: SessionStore,
    /// What recovery did (snapshot used, records replayed, timing).
    pub stats: RecoveryStats,
}

/// Open a store for a brand-new durable session and log its creation
/// spec as the first record.
pub fn create_store(dir: &Path, spec: &str) -> Result<SessionStore, StorageError> {
    let mut store = SessionStore::open(dir)?;
    store.append_commit(&Record::SessionMeta {
        spec: spec.to_string(),
    })?;
    Ok(store)
}

/// Commit `rec` to the session's log, when it has one. Every mutation
/// below goes validate → log → apply: the record owns its payload while
/// it is encoded (no clone), and the caller moves the payload back out to
/// apply it only once the commit returned — so a failed write leaves the
/// in-memory state exactly as it was.
fn log(store: Option<&mut SessionStore>, rec: &Record) -> Result<(), StorageError> {
    let Some(store) = store else { return Ok(()) };
    let mut span = rain_obs::Span::enter("serve.log_commit");
    let before = store.log_bytes();
    store.append_commit(rec)?;
    span.add("bytes", store.log_bytes() - before);
    Ok(())
}

/// Register (or replace) a table, logging the mutation when durable.
pub fn register_table(
    db: &mut Database,
    store: Option<&mut SessionStore>,
    name: &str,
    table: Table,
) -> Result<(TableId, TableVersion), StorageError> {
    let rec = Record::RegisterTable {
        name: name.to_string(),
        table,
    };
    log(store, &rec)?;
    let Record::RegisterTable { table, .. } = rec else {
        unreachable!("built above")
    };
    let id = db.register(name, table);
    Ok((id, db.table_version(id)))
}

/// Why an append failed: the client's fault or the disk's.
#[derive(Debug)]
pub enum AppendError {
    /// The batch does not fit the table (arity, types, features) or the
    /// table does not exist — reject the request, nothing was logged.
    Invalid(String),
    /// The batch was valid but logging it failed; nothing was applied.
    Storage(StorageError),
}

impl std::fmt::Display for AppendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppendError::Invalid(msg) => write!(f, "invalid append: {msg}"),
            AppendError::Storage(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AppendError {}

/// Append rows to a table, logging the mutation when durable. Validation
/// runs (and fails) before anything is logged, and the log commits before
/// anything is applied: an invalid batch leaves both the catalog and the
/// log untouched, a failed write leaves the catalog untouched.
pub fn append_rows(
    db: &mut Database,
    store: Option<&mut SessionStore>,
    name: &str,
    rows: Vec<Vec<Value>>,
    features: Option<Vec<Vec<f64>>>,
) -> Result<(TableId, TableVersion), AppendError> {
    let id = db
        .validate_append(name, &rows, features.as_deref())
        .map_err(AppendError::Invalid)?;
    let rec = Record::AppendRows {
        name: name.to_string(),
        rows,
        features,
    };
    log(store, &rec).map_err(AppendError::Storage)?;
    let Record::AppendRows { rows, features, .. } = rec else {
        unreachable!("built above")
    };
    Ok(db.apply_append(id, rows, features))
}

/// Create a secondary index on a registered table's column, logging the
/// definition when durable. Validate → log → apply, like
/// [`append_rows`]: a bad request leaves both catalog and log untouched,
/// a failed write leaves the catalog untouched. Only the definition is
/// logged — index *data* is rebuilt from the table on recovery and on
/// every later table mutation.
pub fn create_index(
    db: &mut Database,
    store: Option<&mut SessionStore>,
    name: &str,
    column: &str,
    kind: rain_sql::IndexKind,
) -> Result<(TableId, usize), AppendError> {
    let (id, col) = db
        .validate_index(name, column, kind)
        .map_err(AppendError::Invalid)?;
    let rec = Record::CreateIndex {
        name: name.to_string(),
        column: column.to_string(),
        kind: kind.code(),
    };
    log(store, &rec).map_err(AppendError::Storage)?;
    db.apply_index(id, col, kind).map_err(AppendError::Invalid)
}

/// Replace the training set, logging the mutation when durable.
pub fn set_train(
    sess: &mut DebugSession,
    store: Option<&mut SessionStore>,
    data: Dataset,
) -> Result<(), StorageError> {
    let rec = Record::TrainSet { data };
    log(store, &rec)?;
    let Record::TrainSet { data } = rec else {
        unreachable!("built above")
    };
    sess.train = data;
    Ok(())
}

/// The full state of a session as snapshot records.
pub fn snapshot_state(sess: &DebugSession, spec: &str) -> Vec<Record> {
    rain_storage::snapshot_records(spec, sess.model.params(), &sess.train, &sess.db)
}

/// Cut a snapshot if enough log accumulated behind the last one (the
/// store decides). Returns whether one was cut.
pub fn maybe_snapshot(
    sess: &DebugSession,
    store: &mut SessionStore,
    spec: &str,
) -> Result<bool, StorageError> {
    store.maybe_snapshot(|| snapshot_state(sess, spec))
}

/// Rebuild a session from its data directory. `factory` turns the
/// verbatim creation spec back into a model (the wire layer passes the
/// same parser that built the original); snapshot-carried weights are
/// applied on top when present.
pub fn recover(dir: &Path, factory: &ModelFactory) -> Result<Recovered, StorageError> {
    let mut store = SessionStore::open(dir)?;
    let state = store.recover()?;
    let spec = state.spec.ok_or_else(|| {
        StorageError::Corrupt(format!(
            "{}: no session meta record survived; cannot rebuild the model",
            dir.display()
        ))
    })?;
    let mut model = factory(&spec)
        .map_err(|e| StorageError::Corrupt(format!("session spec does not parse: {e}")))?;
    if let Some(params) = state.params {
        if params.len() != model.n_params() {
            return Err(StorageError::Corrupt(format!(
                "recovered {} params for a model with {}",
                params.len(),
                model.n_params()
            )));
        }
        model.set_params(&params);
    }
    let mut sess = DebugSession {
        db: state.db,
        ..DebugSession::for_model(model)
    };
    if let Some(train) = state.train {
        sess.train = train;
    }
    Ok(Recovered {
        sess,
        spec,
        store,
        stats: state.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rain_linalg::Matrix;
    use rain_model::LogisticRegression;
    use rain_sql::table::{ColType, Column, Schema};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "rain-durable-test-{}-{tag}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ints(vals: Vec<i64>) -> Table {
        Table::from_columns(Schema::new(&[("x", ColType::Int)]), vec![Column::Int(vals)])
    }

    fn factory(dim: usize) -> impl Fn(&str) -> Result<Box<dyn Classifier>, String> {
        move |_spec: &str| Ok(Box::new(LogisticRegression::new(dim, 0.01)) as Box<dyn Classifier>)
    }

    #[test]
    fn durable_mutations_recover_bit_identically() {
        let dir = temp_dir("roundtrip");
        let spec = "{\"model\":{\"kind\":\"logistic\",\"dim\":2}}";
        {
            let mut store = create_store(&dir, spec).unwrap();
            let mut sess = DebugSession::for_model(Box::new(LogisticRegression::new(2, 0.01)));
            register_table(&mut sess.db, Some(&mut store), "t", ints(vec![1, 2])).unwrap();
            create_index(
                &mut sess.db,
                Some(&mut store),
                "t",
                "x",
                rain_sql::IndexKind::Hash,
            )
            .unwrap();
            append_rows(
                &mut sess.db,
                Some(&mut store),
                "t",
                vec![vec![Value::Int(3)]],
                None,
            )
            .unwrap();
            let train = Dataset::with_ids(
                Matrix::from_vec(2, 2, vec![0.5, -0.5, 1.5, 2.5]),
                vec![0, 1],
                vec![11, 22],
                2,
            );
            set_train(&mut sess, Some(&mut store), train).unwrap();
            // Perturb the weights so recovery has something nontrivial to
            // restore via snapshot.
            sess.model.set_params(&[0.125, -3.5, 0.75]);
            store.snapshot(&snapshot_state(&sess, spec)).unwrap();
        }
        let rec = recover(&dir, &factory(2)).unwrap();
        assert_eq!(rec.spec, spec);
        assert_eq!(rec.sess.model.params(), &[0.125, -3.5, 0.75]);
        assert_eq!(rec.sess.train.ids(), &[11, 22]);
        let id = rec.sess.db.resolve("t").unwrap();
        assert_eq!(
            rec.sess.db.table_version(id),
            TableVersion { gen: 0, delta: 1 }
        );
        assert_eq!(rec.sess.db.table_by_id(id).n_rows(), 3);
        let ix = rec
            .sess
            .db
            .index_on(id, 0, rain_sql::IndexKind::Hash)
            .expect("index definition recovered");
        assert_eq!(ix.len(), 3, "index rebuilt over all recovered rows");
        assert!(rec.stats.snapshot_offset.is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A session that never uploaded training data snapshots its empty,
    /// 17-wide training set like any other state, and recovery uses that
    /// snapshot instead of skipping it for the full log.
    #[test]
    fn snapshot_without_a_training_upload_is_used() {
        let dir = temp_dir("notrain");
        let spec = "{}";
        let sess = {
            let mut store = create_store(&dir, spec).unwrap();
            let mut sess = DebugSession::for_model(Box::new(LogisticRegression::new(17, 0.01)));
            register_table(&mut sess.db, Some(&mut store), "t", ints(vec![1, 2])).unwrap();
            store.snapshot(&snapshot_state(&sess, spec)).unwrap();
            sess
        };
        let rec = recover(&dir, &factory(17)).unwrap();
        assert!(rec.stats.snapshot_offset.is_some());
        assert_eq!(rec.stats.replayed_records, 0);
        assert_eq!(rec.sess.train.dim(), sess.train.dim());
        assert!(rec.sess.train.is_empty());
        assert_eq!(rec.sess.db.table("t").unwrap().n_rows(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_append_logs_nothing() {
        let dir = temp_dir("invalid");
        let mut store = create_store(&dir, "{}").unwrap();
        let mut db = Database::new();
        register_table(&mut db, Some(&mut store), "t", ints(vec![1])).unwrap();
        let records_before = store.log_records();
        let err = append_rows(
            &mut db,
            Some(&mut store),
            "t",
            vec![vec![Value::Str("bad".into())]],
            None,
        )
        .unwrap_err();
        assert!(matches!(err, AppendError::Invalid(_)));
        assert_eq!(store.log_records(), records_before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_commit_changes_neither_catalog_nor_log() {
        let dir = temp_dir("failcommit");
        let mut store = create_store(&dir, "{}").unwrap();
        let mut sess = DebugSession::for_model(Box::new(LogisticRegression::new(2, 0.01)));
        register_table(&mut sess.db, Some(&mut store), "t", ints(vec![1, 2])).unwrap();
        let hash = rain_sql::IndexKind::Hash;
        create_index(&mut sess.db, Some(&mut store), "t", "x", hash).unwrap();
        let id = sess.db.resolve("t").unwrap();
        let state = |db: &Database, store: &SessionStore| {
            let entry = db.entry("t").unwrap();
            (
                entry.table.n_rows(),
                db.table_version(id),
                // Full contents: postings, sorted entries, every statistic.
                (entry.indexes.clone(), entry.stats().clone()),
                store.log_records(),
                store.log_bytes(),
            )
        };
        let before = state(&sess.db, &store);

        // Every mutation kind: the write fails, the client gets a storage
        // error, and nothing it asked for is visible.
        store.fail_next_commit();
        let err = append_rows(
            &mut sess.db,
            Some(&mut store),
            "t",
            vec![vec![Value::Int(3)]],
            None,
        )
        .unwrap_err();
        assert!(matches!(err, AppendError::Storage(_)), "{err}");
        assert_eq!(state(&sess.db, &store), before);

        store.fail_next_commit();
        let err = create_index(
            &mut sess.db,
            Some(&mut store),
            "t",
            "x",
            rain_sql::IndexKind::Sorted,
        )
        .unwrap_err();
        assert!(matches!(err, AppendError::Storage(_)), "{err}");
        assert_eq!(state(&sess.db, &store), before);

        store.fail_next_commit();
        assert!(register_table(&mut sess.db, Some(&mut store), "t", ints(vec![9])).is_err());
        assert_eq!(state(&sess.db, &store), before);

        store.fail_next_commit();
        let train = Dataset::new(Matrix::from_vec(1, 2, vec![1.0, 2.0]), vec![1], 2);
        assert!(set_train(&mut sess, Some(&mut store), train).is_err());
        assert!(sess.train.is_empty());
        assert_eq!(state(&sess.db, &store), before);

        // The failed records were dropped, not deferred: the next commit
        // logs one record, and recovery sees exactly what was acknowledged.
        append_rows(
            &mut sess.db,
            Some(&mut store),
            "t",
            vec![vec![Value::Int(4)]],
            None,
        )
        .unwrap();
        assert_eq!(store.log_records(), before.3 + 1);
        drop(store);
        let rec = recover(&dir, &factory(2)).unwrap();
        let entry = rec.sess.db.entry("t").unwrap();
        assert_eq!(entry.table.n_rows(), 3);
        assert_eq!(entry.table.value(2, 0), Value::Int(4));
        assert_eq!(entry.version, TableVersion { gen: 0, delta: 1 });
        assert_eq!(entry.indexes.len(), 1);
        assert_eq!(entry.indexes[0].kind, hash);
        assert!(rec.sess.train.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_without_meta_is_an_error() {
        let dir = temp_dir("nometa");
        {
            let mut store = SessionStore::open(&dir).unwrap();
            store
                .append_commit(&Record::RegisterTable {
                    name: "t".into(),
                    table: ints(vec![1]),
                })
                .unwrap();
        }
        assert!(matches!(
            recover(&dir, &factory(2)),
            Err(StorageError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_without_snapshot_rebuilds_from_log_alone() {
        let dir = temp_dir("lognosnap");
        {
            let mut store = create_store(&dir, "{}").unwrap();
            let mut db = Database::new();
            register_table(&mut db, Some(&mut store), "t", ints(vec![5])).unwrap();
        }
        let rec = recover(&dir, &factory(2)).unwrap();
        assert!(rec.stats.snapshot_offset.is_none());
        assert_eq!(rec.stats.replayed_records, 2);
        assert!(rec.sess.train.is_empty(), "no upload means empty train");
        assert_eq!(rec.sess.db.table("t").unwrap().n_rows(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
