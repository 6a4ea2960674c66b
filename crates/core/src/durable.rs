//! Durable session changes: one path for every change a session logs,
//! and the rebuild of a [`DebugSession`] from disk on boot.
//!
//! Five record kinds reach a session's log. [`create_store`] writes the
//! first, [`Record::SessionMeta`], once; every later change —
//! [`Record::RegisterTable`], [`Record::AppendRows`],
//! [`Record::CreateIndex`], [`Record::TrainSet`] — goes through
//! [`commit`]: check it (the model's checks here, the catalog's in
//! [`effect::check`]), log it when the session is durable, apply it
//! ([`effect::apply`]), and cut a snapshot when one is due. So the log is
//! never behind the state a client has been acknowledged, and a change
//! that fails its check or its write changes nothing. Only snapshots
//! write the other two kinds, [`Record::ModelParams`] and
//! [`Record::TableAt`]. Debug runs never change session state
//! ([`DebugSession::run`] takes `&self`), and complaints and the query
//! cache are never logged: they live in memory only.
//!
//! [`recover`] is the inverse: replay snapshot + log tail through the
//! same check and apply ([`SessionStore::recover`]), then turn the
//! replayed parts back into a live session. The model is rebuilt by a
//! caller-supplied factory from the verbatim session-creation spec (the
//! wire layer passes its JSON parser, keeping this crate independent of
//! the wire format), and the weights of the snapshot's
//! [`Record::ModelParams`] are applied on top — so recovered weights are
//! bit-identical even for models whose initialization is seeded.

use crate::driver::DebugSession;
use rain_model::{Classifier, Dataset};
use rain_sql::Database;
use rain_storage::effect::{self, Applied, SessionParts};
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

/// Why a [`commit`] changed nothing.
#[derive(Debug)]
pub enum CommitError {
    /// The record does not apply to the session (an unknown table, a batch
    /// that does not fit its table, a training set the model cannot take,
    /// ...). Nothing was logged.
    Invalid(String),
    /// The record applies, but logging it failed. Nothing was applied.
    Storage(StorageError),
}

impl SessionParts for DebugSession {
    fn db(&mut self) -> &mut Database {
        &mut self.db
    }

    fn set_train(&mut self, data: Dataset) {
        self.train = data;
    }
}

/// Commit one change to a session: check → log → apply → snapshot.
/// `store` is a durable session's store and creation spec (a snapshot
/// records the spec); without it the change is checked and applied only.
/// The record is checked once, encoded by reference and then moved into
/// the session, so its payload is never cloned.
///
/// Returns what the change did, plus the error of a snapshot that was due
/// and could not be cut. That change is logged and applied all the same,
/// and recovery replays it from the full log.
pub fn commit(
    sess: &mut DebugSession,
    mut store: Option<(&mut SessionStore, &str)>,
    rec: Record,
) -> Result<(Applied, Option<StorageError>), CommitError> {
    check_model(sess.model.as_ref(), &rec).map_err(CommitError::Invalid)?;
    let ok = effect::check(&sess.db, rec).map_err(CommitError::Invalid)?;
    if let Some((store, _)) = store.as_mut() {
        let mut span = rain_obs::Span::enter("serve.log_commit");
        let before = store.log_bytes();
        store
            .append_commit(ok.record())
            .map_err(CommitError::Storage)?;
        span.add("bytes", store.log_bytes() - before);
    }
    let applied = effect::apply(sess, ok);
    let snapshot =
        store.and_then(|(store, spec)| store.maybe_snapshot(|| snapshot_state(sess, spec)).err());
    Ok((applied, snapshot))
}

/// The checks that need the model, which the catalog's cannot make. A
/// training set must match the model's input width and class count. A
/// live session takes neither a new spec nor new parameters: its spec is
/// the one it was created with, and only snapshots record parameters.
fn check_model(model: &dyn Classifier, rec: &Record) -> Result<(), String> {
    match rec {
        Record::TrainSet { data } if data.dim() != model.dim() => Err(format!(
            "training dim {} does not match model dim {}",
            data.dim(),
            model.dim()
        )),
        Record::TrainSet { data } if data.n_classes() != model.n_classes() => Err(format!(
            "training classes {} do not match model classes {}",
            data.n_classes(),
            model.n_classes()
        )),
        Record::SessionMeta { .. } | Record::ModelParams { .. } => {
            Err("a live session logs its spec at creation and its parameters in snapshots".into())
        }
        _ => Ok(()),
    }
}

/// The full state of a session as snapshot records.
pub fn snapshot_state(sess: &DebugSession, spec: &str) -> Vec<Record> {
    rain_storage::snapshot_records(spec, sess.model.params(), &sess.train, &sess.db)
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
    use rain_sql::table::{ColType, Column, Schema, Table};
    use rain_sql::{IndexKind, TableVersion, Value};
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

    fn session(dim: usize) -> DebugSession {
        DebugSession::for_model(Box::new(LogisticRegression::new(dim, 0.01)))
    }

    fn register(name: &str, table: Table) -> Record {
        Record::RegisterTable {
            name: name.into(),
            table,
        }
    }

    fn append(name: &str, rows: Vec<Vec<Value>>) -> Record {
        Record::AppendRows {
            name: name.into(),
            rows,
            features: None,
        }
    }

    fn index(name: &str, column: &str, kind: IndexKind) -> Record {
        Record::CreateIndex {
            name: name.into(),
            column: column.into(),
            kind: kind.code(),
        }
    }

    /// Commit `rec` to a durable session whose spec is `{}`; no snapshot
    /// may fail.
    fn commit_to(
        sess: &mut DebugSession,
        store: &mut SessionStore,
        rec: Record,
    ) -> Result<Applied, CommitError> {
        let (applied, snapshot) = commit(sess, Some((store, "{}")), rec)?;
        assert!(snapshot.is_none(), "{snapshot:?}");
        Ok(applied)
    }

    #[test]
    fn durable_mutations_recover_bit_identically() {
        let dir = temp_dir("roundtrip");
        let spec = "{\"model\":{\"kind\":\"logistic\",\"dim\":2}}";
        {
            let mut store = create_store(&dir, spec).unwrap();
            let mut sess = session(2);
            let train = Dataset::with_ids(
                Matrix::from_vec(2, 2, vec![0.5, -0.5, 1.5, 2.5]),
                vec![0, 1],
                vec![11, 22],
                2,
            );
            for rec in [
                register("t", ints(vec![1, 2])),
                index("t", "x", IndexKind::Hash),
                append("t", vec![vec![Value::Int(3)]]),
                Record::TrainSet { data: train },
            ] {
                commit_to(&mut sess, &mut store, rec).unwrap();
            }
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
            .index_on(id, 0, IndexKind::Hash)
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
            let mut sess = session(17);
            commit_to(&mut sess, &mut store, register("t", ints(vec![1, 2]))).unwrap();
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

    /// Every check, the catalog's and the model's, runs before the log:
    /// a record that fails one is refused and nothing is logged.
    #[test]
    fn invalid_records_log_nothing() {
        let dir = temp_dir("invalid");
        let mut store = create_store(&dir, "{}").unwrap();
        let mut sess = session(2);
        commit_to(&mut sess, &mut store, register("t", ints(vec![1]))).unwrap();
        let records_before = store.log_records();
        let wide = Dataset::new(Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]), vec![1], 2);
        let three_classes = Dataset::new(Matrix::from_vec(1, 2, vec![1.0, 2.0]), vec![2], 3);
        for rec in [
            append("t", vec![vec![Value::Str("bad".into())]]),
            append("nope", vec![vec![Value::Int(1)]]),
            index("t", "nope", IndexKind::Hash),
            Record::CreateIndex {
                name: "t".into(),
                column: "x".into(),
                kind: 9,
            },
            Record::TrainSet { data: wide },
            Record::TrainSet {
                data: three_classes,
            },
            Record::SessionMeta { spec: "{}".into() },
            Record::ModelParams {
                params: vec![0.0; 3],
            },
        ] {
            let err = commit_to(&mut sess, &mut store, rec).unwrap_err();
            assert!(matches!(err, CommitError::Invalid(_)), "{err:?}");
        }
        assert_eq!(store.log_records(), records_before);
        assert!(sess.train.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_commit_changes_neither_catalog_nor_log() {
        let dir = temp_dir("failcommit");
        let mut store = create_store(&dir, "{}").unwrap();
        let mut sess = session(2);
        let hash = IndexKind::Hash;
        commit_to(&mut sess, &mut store, register("t", ints(vec![1, 2]))).unwrap();
        commit_to(&mut sess, &mut store, index("t", "x", hash)).unwrap();
        let id = sess.db.resolve("t").unwrap();
        let state = |sess: &DebugSession, store: &SessionStore| {
            let entry = sess.db.entry("t").unwrap();
            (
                entry.table.n_rows(),
                sess.db.table_version(id),
                // Full contents: postings, sorted entries, every statistic.
                (entry.indexes.clone(), entry.stats().clone()),
                sess.train.ids().to_vec(),
                store.log_records(),
                store.log_bytes(),
            )
        };
        let before = state(&sess, &store);

        // Every record kind a live session commits: the write fails, the
        // client gets a storage error, and nothing it asked for is visible.
        let train = Dataset::new(Matrix::from_vec(1, 2, vec![1.0, 2.0]), vec![1], 2);
        for rec in [
            append("t", vec![vec![Value::Int(3)]]),
            index("t", "x", IndexKind::Sorted),
            register("t", ints(vec![9])),
            register("u", ints(vec![9])),
            Record::TrainSet { data: train },
        ] {
            store.fail_next_commit();
            let err = commit_to(&mut sess, &mut store, rec).unwrap_err();
            assert!(matches!(err, CommitError::Storage(_)), "{err:?}");
            assert_eq!(state(&sess, &store), before);
        }
        assert!(sess.train.is_empty());
        assert!(sess.db.resolve("u").is_none());

        // The failed records were dropped, not deferred: the next commit
        // logs one record, and recovery sees exactly what was acknowledged.
        commit_to(
            &mut sess,
            &mut store,
            append("t", vec![vec![Value::Int(4)]]),
        )
        .unwrap();
        assert_eq!(store.log_records(), before.4 + 1);
        drop(store);
        let rec = recover(&dir, &factory(2)).unwrap();
        let entry = rec.sess.db.entry("t").unwrap();
        assert_eq!(entry.table.n_rows(), 3);
        assert_eq!(entry.table.value(2, 0), Value::Int(4));
        assert_eq!(entry.version, TableVersion { gen: 0, delta: 1 });
        assert_eq!(entry.indexes.len(), 1);
        assert_eq!(entry.indexes[0].kind, hash);
        assert!(rec.sess.db.resolve("u").is_none());
        assert!(rec.sess.train.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_without_meta_is_an_error() {
        let dir = temp_dir("nometa");
        {
            let mut store = SessionStore::open(&dir).unwrap();
            store.append_commit(&register("t", ints(vec![1]))).unwrap();
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
            commit_to(&mut session(2), &mut store, register("t", ints(vec![5]))).unwrap();
        }
        let rec = recover(&dir, &factory(2)).unwrap();
        assert!(rec.stats.snapshot_offset.is_none());
        assert_eq!(rec.stats.replayed_records, 2);
        assert!(rec.sess.train.is_empty(), "no upload means empty train");
        assert_eq!(rec.sess.db.table("t").unwrap().n_rows(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
