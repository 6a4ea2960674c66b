//! What a [`Record`] does to a session: the one definition, which a live
//! commit and recovery replay both go through.
//!
//! A change takes two steps. [`check`] decides whether the record applies
//! to the catalog as it is now, and resolves what it names: the table an
//! append grows, the column an index covers. [`apply`] then moves the
//! record's payload in, and cannot fail. A live commit runs check → log →
//! apply, so only a record that applies reaches the log and a failed write
//! changes nothing; replay runs check → apply on every stored record, so a
//! stored record that fails its check is corruption.

use crate::record::Record;
use rain_model::Dataset;
use rain_sql::{Database, IndexKind, TableId, TableVersion};

/// The parts of a session a record changes: its catalog and training set,
/// which a live and a recovering session both hold. The spec and the
/// model parameters a live session keeps elsewhere (its creation request,
/// its model), so [`apply`] hands those back.
pub trait SessionParts {
    /// The catalog.
    fn db(&mut self) -> &mut Database;
    /// Replace the training set.
    fn set_train(&mut self, data: Dataset);
}

/// A record [`check`] accepted, with what it resolved in the catalog.
pub struct Checked {
    rec: Record,
    at: Resolved,
}

enum Resolved {
    Nothing,
    Table(TableId),
    Column(TableId, usize, IndexKind),
}

impl Checked {
    /// The record, to log before it is applied.
    pub fn record(&self) -> &Record {
        &self.rec
    }
}

/// What [`apply`] did.
#[derive(Debug)]
pub enum Applied {
    /// A table was registered, replaced or appended to: its id and version.
    Table((TableId, TableVersion)),
    /// An index was built with this many entries.
    Index(usize),
    /// The training set was replaced.
    Train,
    /// A session-creation spec, for the caller to keep.
    Spec(String),
    /// Model parameters, for the caller to keep.
    Params(Vec<f64>),
}

/// Whether `rec` applies to `db` as it is: an append's table exists and
/// the batch fits it (arity, cell types, feature presence and width); an
/// index's kind code is known, and its table and column exist with a type
/// the kind supports. Every other record applies to any catalog.
pub fn check(db: &Database, rec: Record) -> Result<Checked, String> {
    let at = match &rec {
        Record::AppendRows {
            name,
            rows,
            features: f,
        } => Resolved::Table(db.validate_append(name, rows, f.as_deref())?),
        Record::CreateIndex { name, column, kind } => {
            let kind = IndexKind::from_code(*kind)
                .ok_or_else(|| format!("unknown index kind code {kind}"))?;
            let (id, col) = db.validate_index(name, column, kind)?;
            Resolved::Column(id, col, kind)
        }
        _ => Resolved::Nothing,
    };
    Ok(Checked { rec, at })
}

/// Move a checked record's payload into `session`, with the catalog's
/// version rules: a registration bumps `gen`, an append `delta`, and a
/// snapshot's [`Record::TableAt`] pins the version it carries.
pub fn apply(session: &mut impl SessionParts, ok: Checked) -> Applied {
    let db = session.db();
    match (ok.rec, ok.at) {
        (Record::RegisterTable { name, table }, _) => {
            let id = db.register(&name, table);
            Applied::Table((id, db.table_version(id)))
        }
        (
            Record::TableAt {
                name,
                version: v,
                table,
            },
            _,
        ) => Applied::Table((db.register_with_version(&name, table, v), v)),
        (
            Record::AppendRows {
                rows, features: f, ..
            },
            Resolved::Table(id),
        ) => Applied::Table(db.apply_append(id, rows, f)),
        (Record::CreateIndex { .. }, Resolved::Column(id, col, kind)) => {
            Applied::Index(db.apply_index(id, col, kind).1)
        }
        (Record::TrainSet { data }, _) => {
            session.set_train(data);
            Applied::Train
        }
        (Record::SessionMeta { spec }, _) => Applied::Spec(spec),
        (Record::ModelParams { params }, _) => Applied::Params(params),
        (Record::AppendRows { .. } | Record::CreateIndex { .. }, _) => {
            unreachable!("check resolves the table of every append and index record")
        }
    }
}
