//! Record payloads: one piece of session state each.
//!
//! A [`Record`] is the unit the [`Commitlog`](crate::Commitlog) appends
//! and the unit a [`snapshot`](crate::snapshot) is a batch of, so this
//! module alone defines how session state looks on disk. Replaying the
//! full sequence against an empty session reproduces the session exactly
//! — table versions included, because replay applies the same
//! [`Database`](rain_sql::Database) bump rules that produced them
//! (register bumps `gen`, append bumps `delta`) or, for a snapshot's
//! [`Record::TableAt`], pins the version it carries.

use crate::codec::{self, Dec, Enc};
use crate::StorageError;
use rain_model::Dataset;
use rain_sql::table::Table;
use rain_sql::{TableVersion, Value};

/// One durable piece of session state.
#[derive(Debug)]
pub enum Record {
    /// Session creation: the verbatim JSON body the session was created
    /// with (model spec, engine/threads, sampling knobs). Recovery
    /// re-parses it through the same factory the wire handler uses, so a
    /// deterministic model spec reproduces the same initial weights.
    SessionMeta {
        /// Verbatim creation-request JSON.
        spec: String,
    },
    /// Create or replace a table under a name (bumps `gen`).
    RegisterTable {
        /// Catalog name.
        name: String,
        /// Full table contents.
        table: Table,
    },
    /// Append rows to an existing table (bumps `delta`).
    AppendRows {
        /// Catalog name.
        name: String,
        /// Row values, one `Vec<Value>` per row.
        rows: Vec<Vec<Value>>,
        /// Row-aligned feature vectors, when the table carries features.
        features: Option<Vec<Vec<f64>>>,
    },
    /// Create a secondary index on an existing table's column. Only the
    /// definition is durable; the index data is rebuilt from the table on
    /// replay (and on every later mutation of the table).
    CreateIndex {
        /// Catalog name of the table.
        name: String,
        /// Column the index covers.
        column: String,
        /// [`rain_sql::IndexKind`] wire code
        /// ([`rain_sql::IndexKind::code`]).
        kind: u8,
    },
    /// Replace the training set.
    TrainSet {
        /// The full training set, record ids included.
        data: Dataset,
    },
    /// Replace the model's flat parameter vector (exact bit patterns).
    ModelParams {
        /// Flat parameters, as [`rain_model::Classifier::params`] returns.
        params: Vec<f64>,
    },
    /// Register a table at a pinned version. Written only by snapshots:
    /// applied in registration order through
    /// [`Database::register_with_version`](rain_sql::Database::register_with_version),
    /// it reissues the same [`TableId`](rain_sql::TableId)s and versions.
    TableAt {
        /// Catalog name.
        name: String,
        /// The version the table had when the snapshot was cut.
        version: TableVersion,
        /// Full table contents.
        table: Table,
    },
}

const TAG_SESSION_META: u8 = 1;
const TAG_REGISTER_TABLE: u8 = 2;
const TAG_APPEND_ROWS: u8 = 3;
const TAG_TRAIN_SET: u8 = 4;
const TAG_MODEL_PARAMS: u8 = 5;
const TAG_CREATE_INDEX: u8 = 6;
const TAG_TABLE_AT: u8 = 7;

impl Record {
    /// Encode to a standalone payload (the commitlog adds framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Record::SessionMeta { spec } => {
                e.u8(TAG_SESSION_META);
                e.str(spec);
            }
            Record::RegisterTable { name, table } => {
                e.u8(TAG_REGISTER_TABLE);
                e.str(name);
                codec::put_table(&mut e, table);
            }
            Record::AppendRows {
                name,
                rows,
                features,
            } => {
                e.u8(TAG_APPEND_ROWS);
                e.str(name);
                e.u64(rows.len() as u64);
                for row in rows {
                    e.u64(row.len() as u64);
                    for v in row {
                        codec::put_value(&mut e, v);
                    }
                }
                match features {
                    Some(feats) => {
                        e.u8(1);
                        e.u64(feats.len() as u64);
                        for f in feats {
                            e.u64(f.len() as u64);
                            for &x in f {
                                e.f64(x);
                            }
                        }
                    }
                    None => e.u8(0),
                }
            }
            Record::CreateIndex { name, column, kind } => {
                e.u8(TAG_CREATE_INDEX);
                e.str(name);
                e.str(column);
                e.u8(*kind);
            }
            Record::TrainSet { data } => {
                e.u8(TAG_TRAIN_SET);
                codec::put_dataset(&mut e, data);
            }
            Record::ModelParams { params } => {
                e.u8(TAG_MODEL_PARAMS);
                e.u64(params.len() as u64);
                for &p in params {
                    e.f64(p);
                }
            }
            Record::TableAt {
                name,
                version,
                table,
            } => {
                e.u8(TAG_TABLE_AT);
                e.str(name);
                e.u64(version.gen);
                e.u64(version.delta);
                codec::put_table(&mut e, table);
            }
        }
        e.into_bytes()
    }

    /// Decode a payload produced by [`Record::encode`]. The payload has
    /// already passed its log frame's or snapshot's checksum, so failure
    /// here means an unknown tag or malformed body — real corruption, not
    /// a torn write.
    pub fn decode(payload: &[u8]) -> Result<Record, StorageError> {
        let mut d = Dec::new(payload);
        let rec = match d.u8()? {
            TAG_SESSION_META => Record::SessionMeta { spec: d.str()? },
            TAG_REGISTER_TABLE => Record::RegisterTable {
                name: d.str()?,
                table: codec::get_table(&mut d)?,
            },
            TAG_APPEND_ROWS => {
                let name = d.str()?;
                let n_rows = d.len(8)?;
                let mut rows = Vec::with_capacity(n_rows);
                for _ in 0..n_rows {
                    let n = d.len(1)?;
                    let mut row = Vec::with_capacity(n);
                    for _ in 0..n {
                        row.push(codec::get_value(&mut d)?);
                    }
                    rows.push(row);
                }
                let features = match d.u8()? {
                    0 => None,
                    1 => {
                        let n_feat = d.len(8)?;
                        let mut feats = Vec::with_capacity(n_feat);
                        for _ in 0..n_feat {
                            let w = d.len(8)?;
                            let mut f = Vec::with_capacity(w);
                            for _ in 0..w {
                                f.push(d.f64()?);
                            }
                            feats.push(f);
                        }
                        Some(feats)
                    }
                    t => {
                        return Err(StorageError::Corrupt(format!(
                            "bad append features tag {t}"
                        )))
                    }
                };
                Record::AppendRows {
                    name,
                    rows,
                    features,
                }
            }
            TAG_CREATE_INDEX => Record::CreateIndex {
                name: d.str()?,
                column: d.str()?,
                kind: d.u8()?,
            },
            TAG_TRAIN_SET => Record::TrainSet {
                data: codec::get_dataset(&mut d)?,
            },
            TAG_MODEL_PARAMS => {
                let n = d.len(8)?;
                let mut params = Vec::with_capacity(n);
                for _ in 0..n {
                    params.push(d.f64()?);
                }
                Record::ModelParams { params }
            }
            TAG_TABLE_AT => Record::TableAt {
                name: d.str()?,
                version: TableVersion {
                    gen: d.u64()?,
                    delta: d.u64()?,
                },
                table: codec::get_table(&mut d)?,
            },
            t => return Err(StorageError::Corrupt(format!("unknown record tag {t}"))),
        };
        if !d.is_done() {
            return Err(StorageError::Corrupt(
                "trailing bytes after record body".into(),
            ));
        }
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rain_linalg::Matrix;
    use rain_sql::table::{ColType, Column, Schema};

    #[test]
    fn records_round_trip() {
        let table = Table::from_columns(
            Schema::new(&[("x", ColType::Int)]),
            vec![Column::Int(vec![1, 2, 3])],
        );
        let recs = vec![
            Record::SessionMeta {
                spec: "{\"session\":\"s\"}".into(),
            },
            Record::RegisterTable {
                name: "pairs".into(),
                table,
            },
            Record::AppendRows {
                name: "pairs".into(),
                rows: vec![vec![Value::Int(4)], vec![Value::Null]],
                features: None,
            },
            Record::AppendRows {
                name: "feat".into(),
                rows: vec![vec![Value::Float(0.5)]],
                features: Some(vec![vec![1.0, -0.0]]),
            },
            Record::CreateIndex {
                name: "pairs".into(),
                column: "x".into(),
                kind: 1,
            },
            Record::TrainSet {
                data: Dataset::with_ids(
                    Matrix::from_vec(2, 1, vec![1.0, 2.0]),
                    vec![0, 1],
                    vec![5, 9],
                    2,
                ),
            },
            Record::ModelParams {
                params: vec![0.25, -1.5, f64::MIN_POSITIVE],
            },
            Record::TableAt {
                name: "pairs".into(),
                version: TableVersion { gen: 3, delta: 7 },
                table: Table::from_columns(
                    Schema::new(&[("x", ColType::Float)]),
                    vec![Column::Float(vec![-0.0, 1.5])],
                ),
            },
        ];
        for rec in recs {
            let bytes = rec.encode();
            let back = Record::decode(&bytes).unwrap();
            // Compare through re-encoding: byte equality is exactly the
            // bit-identity the recovery path promises.
            assert_eq!(back.encode(), bytes);
        }
    }

    /// Logs already on disk replay unchanged only while every tag keeps
    /// its byte; a snapshot-only variant gets a new one.
    #[test]
    fn tags_are_pinned() {
        let table = || Table::from_columns(Schema::new(&[]), vec![]);
        let tagged = [
            (Record::SessionMeta { spec: "x".into() }, 1),
            (
                Record::RegisterTable {
                    name: String::new(),
                    table: table(),
                },
                2,
            ),
            (
                Record::AppendRows {
                    name: String::new(),
                    rows: vec![],
                    features: None,
                },
                3,
            ),
            (
                Record::TrainSet {
                    data: Dataset::new(Matrix::zeros(0, 2), vec![], 2),
                },
                4,
            ),
            (Record::ModelParams { params: vec![] }, 5),
            (
                Record::CreateIndex {
                    name: String::new(),
                    column: String::new(),
                    kind: 1,
                },
                6,
            ),
            (
                Record::TableAt {
                    name: String::new(),
                    version: TableVersion::default(),
                    table: table(),
                },
                7,
            ),
        ];
        for (rec, tag) in tagged {
            assert_eq!(rec.encode()[0], tag, "{rec:?}");
        }
        let meta = Record::SessionMeta { spec: "x".into() };
        assert_eq!(meta.encode(), [1, 1, 0, 0, 0, 0, 0, 0, 0, b'x']);
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_are_corrupt() {
        assert!(Record::decode(&[0xFF]).is_err());
        assert!(Record::decode(&[]).is_err());
        let mut bytes = Record::SessionMeta { spec: "x".into() }.encode();
        bytes.push(0);
        assert!(Record::decode(&bytes).is_err());
    }
}
