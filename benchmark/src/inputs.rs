//! Seed → inputs. Everything the server will be sent is made here, from
//! the `rain_data` generators and the wire encoders; the program under
//! test receives only these bodies. The same seed gives the same inputs.

use crate::spec::{Data, Workload, CLIENTS};
use rain_data::adult::AdultConfig;
use rain_data::dblp::DblpConfig;
use rain_data::digits::DigitsConfig;
use rain_data::flip_labels_where;
use rain_model::Dataset;
use rain_serve::json::Json;
use rain_serve::protocol::{dataset_to_json, table_to_json, value_to_json};
use rain_sql::table::{ColType, Table};

/// Records removed per debug-run iteration (the paper's setting).
pub const K_PER_ITER: usize = 10;

/// Everything one client sends to its session.
pub struct SessionInputs {
    /// Session name on the server.
    pub name: String,
    /// `POST /sessions` model spec (`{"kind":…}`).
    pub model: Json,
    /// `POST …/tables` bodies; the first is the table appends go to.
    pub tables: Vec<Json>,
    /// `POST …/train` body: the corrupted training set.
    pub train: Json,
    /// The cached queries the client rotates through.
    pub queries: Vec<String>,
    /// `POST …/complain` body; its `sql` is the debugged query.
    pub complain: Json,
    /// Ids of the corrupted training records (ground truth for AUCCR).
    pub truth: Vec<usize>,
    /// Name of the append target and `POST …/append` bodies for one
    /// ingest episode, in order (first session only: the episodes run on
    /// its data).
    pub append_table: String,
    pub appends: Vec<Json>,
    /// Rows of the append target as registered.
    pub base_rows: usize,
    /// Bytes of user data (cells + features) in the registered tables
    /// plus every append body — the denominator of `storage_amp`.
    pub episode_user_bytes: u64,
}

pub struct Inputs {
    pub sessions: Vec<SessionInputs>,
    pub budget: usize,
    pub auccr_floor: f64,
}

fn model_spec(kind: &str, dim: usize, classes: Option<usize>) -> Json {
    let mut pairs = vec![
        ("kind", Json::str(kind)),
        ("dim", Json::num(dim as f64)),
        ("l2", Json::num(0.01)),
    ];
    if let Some(c) = classes {
        pairs.push(("classes", Json::num(c as f64)));
    }
    Json::obj(pairs)
}

fn value_complaint(sql: &str, row: usize, target: f64) -> Json {
    Json::obj(vec![
        ("sql", Json::str(sql)),
        (
            "complaint",
            Json::obj(vec![
                ("kind", Json::str("value")),
                ("row", Json::num(row as f64)),
                ("op", Json::str("eq")),
                ("target", Json::num(target)),
            ]),
        ),
    ])
}

/// Bytes of user data in rows `lo..hi` of `t`: 8 per numeric cell and
/// feature value, 1 per bool, the UTF-8 length per string.
fn user_bytes(t: &Table, lo: usize, hi: usize) -> u64 {
    let dim = t.features().map_or(0, |m| m.cols());
    let mut bytes = ((hi - lo) * dim * 8) as u64;
    for (ci, def) in t.schema().iter().enumerate() {
        bytes += match def.ty {
            ColType::Int | ColType::Float => ((hi - lo) * 8) as u64,
            ColType::Bool => (hi - lo) as u64,
            ColType::Str => {
                let strs = t.column(ci).as_strs().expect("str column");
                strs[lo..hi].iter().map(|s| s.len() as u64).sum()
            }
        };
    }
    bytes
}

/// `POST …/append` bodies: `extra` cut into `rounds` batches of `rows`.
fn append_bodies(extra: &Table, rows: usize, rounds: usize) -> Vec<Json> {
    assert!(
        extra.n_rows() >= rows * rounds,
        "generator made too few rows"
    );
    (0..rounds)
        .map(|i| {
            let range = i * rows..(i + 1) * rows;
            let cells = range
                .clone()
                .map(|r| {
                    Json::Arr(
                        (0..extra.schema().len())
                            .map(|c| value_to_json(&extra.value(r, c)))
                            .collect(),
                    )
                })
                .collect();
            let feats = range
                .map(|r| {
                    let f = extra.feature_row(r).expect("featured table");
                    Json::Arr(f.iter().map(|&x| Json::Num(x)).collect())
                })
                .collect();
            Json::obj(vec![
                ("rows", Json::Arr(cells)),
                ("features", Json::Arr(feats)),
            ])
        })
        .collect()
}

struct Made {
    model: Json,
    /// Named tables; the first is the append target.
    tables: Vec<(&'static str, Table)>,
    /// Rows shaped like the first table, to append.
    extra: Table,
    train: Dataset,
    truth: Vec<usize>,
    queries: Vec<String>,
    complain: Json,
}

fn make(w: &Workload, seed: u64) -> Made {
    let n_extra = w.append_rows * w.append_rounds;
    match w.data {
        Data::Dblp => {
            let cfg = DblpConfig {
                n_train: w.n_train,
                n_query: w.n_query,
                ..Default::default()
            };
            let g = cfg.generate(seed);
            let extra = DblpConfig {
                n_train: 1,
                n_query: n_extra,
                ..cfg
            }
            .generate(seed ^ 0x00A9_9E4D)
            .query_table();
            let mut train = g.train.clone();
            // §6.2: half of the match labels flipped to non-match.
            let truth = flip_labels_where(&mut train, |_, _, y| y == 1, 0.5, |_| 0, seed);
            let sql = "SELECT COUNT(*) FROM dblp WHERE predict(*) = 1";
            Made {
                model: model_spec("logistic", rain_data::dblp::N_FEATURES, None),
                complain: value_complaint(sql, 0, g.true_match_count() as f64),
                tables: vec![("dblp", g.query_table())],
                extra,
                train,
                truth,
                queries: vec![sql.to_string()],
            }
        }
        Data::Digits => {
            let g = DigitsConfig {
                n_train: w.n_train,
                n_query: w.n_query,
            }
            .generate(seed);
            let side = w.n_query / 4;
            let (low, high) = ([1, 2, 3, 4, 5], [6, 7, 8, 9, 0]);
            // Half of the generated digits fall on the left side; four
            // times the rows needed leaves a wide margin.
            let extra = DigitsConfig {
                n_train: 1,
                n_query: 4 * n_extra,
            }
            .generate(seed ^ 0x00A9_9E4D)
            .query_table_for(&low, n_extra);
            let mut train = g.train.clone();
            // §6.3: half of the training 1s relabelled 7.
            let truth = flip_labels_where(&mut train, |_, _, y| y == 1, 0.5, |_| 7, seed);
            let sql = "SELECT COUNT(*) FROM left l, right r WHERE predict(l) = predict(r)";
            Made {
                model: model_spec(
                    "softmax",
                    rain_data::digits::N_PIXELS,
                    Some(rain_data::digits::N_CLASSES),
                ),
                // The sides hold disjoint digits: no pair should join.
                complain: value_complaint(sql, 0, 0.0),
                tables: vec![
                    ("left", g.query_table_for(&low, side)),
                    ("right", g.query_table_for(&high, side)),
                ],
                extra,
                train,
                truth,
                queries: vec![sql.to_string()],
            }
        }
        Data::Adult => {
            let cfg = AdultConfig {
                n_train: w.n_train,
                n_query: w.n_query,
            };
            let g = cfg.generate(seed);
            let extra = AdultConfig {
                n_train: 1,
                n_query: n_extra,
            }
            .generate(seed ^ 0x00A9_9E4D)
            .query_table();
            let mut train = g.train.clone();
            // §6.5: half of (low income ∧ male ∧ 40s) flipped to high.
            let truth = flip_labels_where(&mut train, g.corruption_predicate(), 0.5, |_| 1, seed);
            let by_age = "SELECT AVG(predict(*)) FROM adult GROUP BY agedecade";
            // Groups come back ordered by key: find the forties' row.
            let mut decades: Vec<i64> = g.query_records.iter().map(|r| r.age_decade()).collect();
            decades.sort_unstable();
            decades.dedup();
            let row = decades.iter().position(|&d| d == 40).expect("a 40s group");
            let target = g.true_avg_where(|r| r.age_decade() == 40);
            Made {
                model: model_spec("logistic", rain_data::adult::N_FEATURES, None),
                complain: value_complaint(by_age, row, target),
                tables: vec![("adult", g.query_table())],
                extra,
                train,
                truth,
                queries: vec![
                    "SELECT AVG(predict(*)) FROM adult GROUP BY gender".to_string(),
                    by_age.to_string(),
                    "SELECT COUNT(*) FROM adult WHERE predict(*) = 1 AND agedecade >= 40"
                        .to_string(),
                ],
            }
        }
    }
}

/// The workload's inputs for `seed`: one [`SessionInputs`] per client,
/// each on data of its own.
pub fn generate(w: &Workload, seed: u64) -> Inputs {
    let sessions = (0..CLIENTS)
        .map(|ci| {
            let m = make(w, seed.wrapping_mul(0x9E37_79B9).wrapping_add(ci as u64));
            let (append_table, base) = &m.tables[0];
            let registered: u64 = m
                .tables
                .iter()
                .map(|(_, t)| user_bytes(t, 0, t.n_rows()))
                .sum();
            let episode_user_bytes =
                registered + user_bytes(&m.extra, 0, w.append_rows * w.append_rounds);
            SessionInputs {
                name: format!("s{ci}"),
                model: m.model,
                tables: m.tables.iter().map(|(n, t)| table_to_json(n, t)).collect(),
                train: dataset_to_json(&m.train),
                queries: m.queries,
                complain: m.complain,
                truth: m.truth,
                append_table: append_table.to_string(),
                appends: match ci {
                    0 => append_bodies(&m.extra, w.append_rows, w.append_rounds),
                    _ => Vec::new(),
                },
                base_rows: base.n_rows(),
                episode_user_bytes,
            }
        })
        .collect();
    Inputs {
        sessions,
        budget: w.budget,
        auccr_floor: w.auccr_floor,
    }
}
