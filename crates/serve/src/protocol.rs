//! The wire protocol: API errors plus JSON ↔ domain conversions.
//!
//! Everything a client sends or receives crosses this module, so the
//! shapes are documented here once:
//!
//! - **model spec** — `{"kind":"logistic","dim":D,"l2":λ}`,
//!   `{"kind":"softmax","dim":D,"classes":C,"l2":λ}`, or
//!   `{"kind":"mlp","dim":D,"hidden":H,"classes":C,"l2":λ,"seed":S}`;
//!   `l2` (a finite λ ≥ 0, default 0.01), `hidden` (default 16) and
//!   `seed` (default 42) are optional, and a 400 names any of them that
//!   is present but not of its type.
//! - **table** — `{"name":N,"columns":[{"name":C,"type":"int"|"float"|
//!   "bool"|"str","values":[…]}…],"features":[[…]…]}`; `null` cells are
//!   allowed, `features` (one row per tuple) is required for tables that
//!   `predict()` touches.
//! - **training set** — `{"features":[[…]…],"labels":[…],"classes":C}`.
//! - **complaint** — `{"kind":"value","row":R,"agg":A,"op":"eq"|"le"|"ge",
//!   "target":T}`, `{"kind":"tuple_delete","row":R}`,
//!   `{"kind":"join_delete","left_table":…,"left_row":…,"right_table":…,
//!   "right_row":…}`, or `{"kind":"prediction_is","table":…,"row":…,
//!   "class":…}`. A value complaint's `row` and `agg` default to 0 when
//!   absent; present but not a non-negative integer, they are a 400.
//! - **run config** — `{"method":M,"budget":B,"k_per_iter":K,
//!   "stop_when_satisfied":bool,"profile":bool,"sample_every":N}` (method
//!   and budget required, rest defaulted when absent; a key that is
//!   present but not of its type — `"k_per_iter":-1`, `"profile":1` — is
//!   a 400 naming it). `profile` (also settable as `?profile=1` on the
//!   debug-run URL) attaches the run's span tree — checkouts under
//!   `prepare-queries`, then one `iteration` per loop pass — to the
//!   finished report. A run works under its session's `threads`.
//! - **trace node** — `{"name":…,"start_ns":…,"dur_ns":…,
//!   "counters":{…},"children":[…]}`; `start_ns` is relative to the
//!   enclosing subtree's root.
//! - **session threads** — optional `"threads":T` on session creation:
//!   the worker budget of every execution in the session (`0`/absent =
//!   the machine's available parallelism).
//!
//! Keys this module does not name are ignored, not rejected — among them
//! the retired `engine`, `memo`, `incremental` and per-run `threads`, so
//! a creation body logged by an older server still recovers.

use crate::json::Json;
use rain_core::complaint::{Complaint, ValueOp};
use rain_core::driver::{DebugReport, RunConfig};
use rain_core::rank::Method;
use rain_linalg::Matrix;
use rain_model::{Classifier, Dataset, LogisticRegression, Mlp, SoftmaxRegression};
use rain_sql::table::{ColType, Column, Schema, Table};
use rain_sql::{QueryError, QueryOutput, Value};

/// A protocol-level failure: an HTTP status plus a message the client can
/// read. Every handler error funnels through this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code.
    pub status: u16,
    /// Human-readable explanation, returned as `{"error": …}`.
    pub message: String,
}

impl ApiError {
    /// 400: the request itself is malformed or semantically invalid.
    pub fn bad_request(msg: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            message: msg.into(),
        }
    }

    /// 404: the addressed session/job/route does not exist.
    pub fn not_found(msg: impl Into<String>) -> ApiError {
        ApiError {
            status: 404,
            message: msg.into(),
        }
    }

    /// 409: the request conflicts with current state (duplicate session).
    pub fn conflict(msg: impl Into<String>) -> ApiError {
        ApiError {
            status: 409,
            message: msg.into(),
        }
    }

    /// 500: the server broke (bug or poisoned state).
    pub fn internal(msg: impl Into<String>) -> ApiError {
        ApiError {
            status: 500,
            message: msg.into(),
        }
    }

    /// The `{"error": …}` response body.
    pub fn body(&self) -> Json {
        Json::obj(vec![("error", Json::str(self.message.clone()))])
    }
}

impl From<QueryError> for ApiError {
    fn from(e: QueryError) -> Self {
        // Parse/bind/execution failures are the client's query, not a
        // server fault.
        ApiError::bad_request(e.to_string())
    }
}

/// A required field of `v`, with a field-path error message.
fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, ApiError> {
    v.get(key)
        .ok_or_else(|| ApiError::bad_request(format!("missing field '{key}'")))
}

/// A required string field of `v`: 400 when missing or not a string.
pub(crate) fn str_field(v: &Json, key: &str) -> Result<String, ApiError> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| ApiError::bad_request(format!("field '{key}' must be a string")))
}

fn usize_field(v: &Json, key: &str) -> Result<usize, ApiError> {
    field(v, key)?.as_usize().ok_or_else(|| {
        ApiError::bad_request(format!("field '{key}' must be a non-negative integer"))
    })
}

/// An optional field of `v`: `None` when absent, a 400 saying it must be
/// `what` when present but not something `read` accepts — never a silent
/// default.
pub(crate) fn opt_field<'a, T>(
    v: &'a Json,
    key: &str,
    read: fn(&'a Json) -> Option<T>,
    what: &str,
) -> Result<Option<T>, ApiError> {
    v.get(key)
        .map(|x| {
            read(x).ok_or_else(|| ApiError::bad_request(format!("field '{key}' must be {what}")))
        })
        .transpose()
}

fn f64_field(v: &Json, key: &str) -> Result<f64, ApiError> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| ApiError::bad_request(format!("field '{key}' must be a number")))
}

/// Largest accepted model feature dimension. Caps what an unauthenticated
/// request can make the server allocate (parameter vectors are O(dim ×
/// classes); an unchecked huge `dim` would abort the whole process on
/// allocation failure).
pub const MAX_MODEL_DIM: usize = 1 << 20;
/// Largest accepted class count.
pub const MAX_MODEL_CLASSES: usize = 1 << 14;
/// Largest accepted MLP hidden width.
pub const MAX_MODEL_HIDDEN: usize = 1 << 14;

fn bounded(value: usize, what: &str, min: usize, max: usize) -> Result<usize, ApiError> {
    if (min..=max).contains(&value) {
        Ok(value)
    } else {
        Err(ApiError::bad_request(format!(
            "model {what} {value} outside [{min}, {max}]"
        )))
    }
}

/// Build a classifier from a model spec.
pub fn model_from_json(v: &Json) -> Result<Box<dyn Classifier>, ApiError> {
    let kind = str_field(v, "kind")?;
    let dim = bounded(usize_field(v, "dim")?, "dim", 1, MAX_MODEL_DIM)?;
    // Every model asserts a non-negative penalty; an infinite one would
    // train nothing but NaNs.
    let penalty = |x: &Json| x.as_f64().filter(|l2| l2.is_finite() && *l2 >= 0.0);
    let l2 = opt_field(v, "l2", penalty, "a finite non-negative number")?.unwrap_or(0.01);
    match kind.as_str() {
        "logistic" => Ok(Box::new(LogisticRegression::new(dim, l2))),
        "softmax" => {
            let classes = bounded(usize_field(v, "classes")?, "classes", 2, MAX_MODEL_CLASSES)?;
            Ok(Box::new(SoftmaxRegression::new(dim, classes, l2)))
        }
        "mlp" => {
            let classes = bounded(usize_field(v, "classes")?, "classes", 2, MAX_MODEL_CLASSES)?;
            let count = |key| opt_field(v, key, Json::as_usize, "a non-negative integer");
            let hidden = bounded(
                count("hidden")?.unwrap_or(16),
                "hidden",
                1,
                MAX_MODEL_HIDDEN,
            )?;
            let seed = count("seed")?.unwrap_or(42) as u64;
            Ok(Box::new(Mlp::new(dim, hidden, classes, l2, seed)))
        }
        other => Err(ApiError::bad_request(format!(
            "unknown model kind '{other}'"
        ))),
    }
}

/// Largest accepted worker-thread request. Mirrors the engine's own
/// [`rain_sql::MAX_EXEC_THREADS`] clamp, but rejects over-asks at the
/// protocol boundary with a 400 instead of silently clamping — an
/// unauthenticated request must not even *ask* for a thread-spawn storm.
pub const MAX_THREADS: usize = rain_sql::MAX_EXEC_THREADS;

/// Parse the optional `"threads"` of a session-creation body — the
/// session's worker budget: a non-negative integer up to [`MAX_THREADS`]
/// (`0`/absent = automatic).
pub fn session_threads_from_json(v: &Json) -> Result<usize, ApiError> {
    let Some(n) = opt_field(v, "threads", Json::as_usize, "a non-negative integer")? else {
        return Ok(0);
    };
    if n > MAX_THREADS {
        return Err(ApiError::bad_request(format!(
            "threads {n} above the maximum {MAX_THREADS}"
        )));
    }
    Ok(n)
}

fn coltype_from_str(s: &str) -> Result<ColType, ApiError> {
    match s {
        "bool" => Ok(ColType::Bool),
        "int" => Ok(ColType::Int),
        "float" => Ok(ColType::Float),
        "str" => Ok(ColType::Str),
        other => Err(ApiError::bad_request(format!(
            "unknown column type '{other}'"
        ))),
    }
}

fn coltype_name(ty: ColType) -> &'static str {
    match ty {
        ColType::Bool => "bool",
        ColType::Int => "int",
        ColType::Float => "float",
        ColType::Str => "str",
    }
}

fn cell_from_json(v: &Json, ty: ColType) -> Result<Value, ApiError> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    match ty {
        ColType::Bool => v.as_bool().map(Value::Bool),
        ColType::Int => v.as_i64().map(Value::Int),
        ColType::Float => v.as_f64().map(Value::Float),
        ColType::Str => v.as_str().map(|s| Value::Str(s.to_string())),
    }
    .ok_or_else(|| ApiError::bad_request(format!("cell {v} does not fit column type")))
}

/// JSON form of a result cell.
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Num(*i as f64),
        Value::Float(f) => Json::Num(*f),
        Value::Str(s) => Json::str(s.clone()),
    }
}

/// The rows of a feature matrix — a non-empty array of equal-length
/// arrays — and their common width. Every row's shape is checked here, so
/// `rows × width` is the number of cells received and safe to size a
/// buffer from (the width alone is whatever the first row claims).
fn feature_rows<'a>(v: &'a Json, what: &str) -> Result<(&'a [Json], usize), ApiError> {
    let rows = v
        .as_arr()
        .ok_or_else(|| ApiError::bad_request(format!("{what} must be an array of rows")))?;
    let first = rows
        .first()
        .ok_or_else(|| ApiError::bad_request(format!("{what} must not be empty")))?;
    let cols = first.as_arr().map_or(0, <[Json]>::len);
    for (i, row) in rows.iter().enumerate() {
        let cells = row
            .as_arr()
            .ok_or_else(|| ApiError::bad_request(format!("{what} row {i} must be an array")))?;
        if cells.len() != cols {
            return Err(ApiError::bad_request(format!("{what} rows are ragged")));
        }
    }
    Ok((rows, cols))
}

/// Append the numbers of feature row `i` (one of [`feature_rows`]' rows)
/// to `out`.
fn push_feature_row(row: &Json, what: &str, i: usize, out: &mut Vec<f64>) -> Result<(), ApiError> {
    for c in row.as_arr().into_iter().flatten() {
        out.push(
            c.as_f64().ok_or_else(|| {
                ApiError::bad_request(format!("{what} row {i} holds a non-number"))
            })?,
        );
    }
    Ok(())
}

/// Parse a feature matrix: a non-ragged array of equal-length number
/// rows, decoded straight into the matrix's row-major buffer.
fn matrix_from_json(v: &Json, what: &str) -> Result<Matrix, ApiError> {
    let (rows, cols) = feature_rows(v, what)?;
    let mut data = Vec::with_capacity(rows.len() * cols);
    for (i, row) in rows.iter().enumerate() {
        push_feature_row(row, what, i, &mut data)?;
    }
    Ok(Matrix::from_vec(rows.len(), cols, data))
}

/// Decode one JSON column into typed cells plus a null mask (`None` while
/// the column holds no `null`; a NULL cell stores the type's zero value,
/// as [`Column::push_zero`] does).
fn cells_from_json<T: Default>(
    vals: &[Json],
    cell: impl Fn(&Json) -> Option<T>,
) -> Result<(Vec<T>, Option<Vec<bool>>), ApiError> {
    let mut cells = Vec::with_capacity(vals.len());
    let mut nulls: Option<Vec<bool>> = None;
    for (r, v) in vals.iter().enumerate() {
        if v.is_null() {
            nulls.get_or_insert_with(|| vec![false; vals.len()])[r] = true;
            cells.push(T::default());
        } else {
            cells.push(cell(v).ok_or_else(|| {
                ApiError::bad_request(format!("cell {v} does not fit column type"))
            })?);
        }
    }
    Ok((cells, nulls))
}

fn column_from_json(vals: &[Json], ty: ColType) -> Result<(Column, Option<Vec<bool>>), ApiError> {
    match ty {
        ColType::Bool => cells_from_json(vals, Json::as_bool).map(|(c, m)| (Column::Bool(c), m)),
        ColType::Int => cells_from_json(vals, Json::as_i64).map(|(c, m)| (Column::Int(c), m)),
        ColType::Float => cells_from_json(vals, Json::as_f64).map(|(c, m)| (Column::Float(c), m)),
        ColType::Str => cells_from_json(vals, |v| v.as_str().map(str::to_string))
            .map(|(c, m)| (Column::Str(c), m)),
    }
}

/// Build a `(name, table)` pair from a table upload.
pub fn table_from_json(v: &Json) -> Result<(String, Table), ApiError> {
    let name = str_field(v, "name")?;
    let cols = field(v, "columns")?
        .as_arr()
        .ok_or_else(|| ApiError::bad_request("field 'columns' must be an array"))?;
    if cols.is_empty() {
        return Err(ApiError::bad_request("table needs at least one column"));
    }
    let mut schema = Schema::default();
    let mut columns = Vec::with_capacity(cols.len());
    let mut nulls = Vec::with_capacity(cols.len());
    let mut n_rows = None;
    for c in cols {
        let cname = str_field(c, "name")?;
        let ty = coltype_from_str(&str_field(c, "type")?)?;
        if schema.index_of(&cname).is_some() {
            return Err(ApiError::bad_request(format!("duplicate column '{cname}'")));
        }
        schema.push(&cname, ty);
        let vals = field(c, "values")?
            .as_arr()
            .ok_or_else(|| ApiError::bad_request("column 'values' must be an array"))?;
        match n_rows {
            None => n_rows = Some(vals.len()),
            Some(n) if n != vals.len() => {
                return Err(ApiError::bad_request("columns have differing lengths"))
            }
            _ => {}
        }
        let (column, mask) = column_from_json(vals, ty)?;
        columns.push(column);
        nulls.push(mask);
    }
    let n_rows = n_rows.unwrap_or(0);

    let features = match v.get("features") {
        None | Some(Json::Null) => None,
        Some(f) => {
            let m = matrix_from_json(f, "features")?;
            if m.rows() != n_rows {
                return Err(ApiError::bad_request(format!(
                    "features have {} rows, table has {n_rows}",
                    m.rows()
                )));
            }
            Some(m)
        }
    };
    Ok((name, Table::from_parts(schema, columns, nulls, features)))
}

/// JSON form of a table (used by clients to upload generated workloads).
pub fn table_to_json(name: &str, table: &Table) -> Json {
    let mut cols = Vec::with_capacity(table.schema().len());
    for (ci, def) in table.schema().iter().enumerate() {
        let vals: Vec<Json> = (0..table.n_rows())
            .map(|r| value_to_json(&table.value(r, ci)))
            .collect();
        cols.push(Json::obj(vec![
            ("name", Json::str(def.name.clone())),
            ("type", Json::str(coltype_name(def.ty))),
            ("values", Json::Arr(vals)),
        ]));
    }
    let mut pairs = vec![("name", Json::str(name)), ("columns", Json::Arr(cols))];
    if let Some(m) = table.features() {
        let rows: Vec<Json> = m
            .iter_rows()
            .map(|r| Json::Arr(r.iter().map(|&x| Json::Num(x)).collect()))
            .collect();
        pairs.push(("features", Json::Arr(rows)));
    }
    Json::obj(pairs)
}

/// Parse the `"rows"` of an append request against the target table's
/// column types: an array of rows, each an array of cells (`null`
/// allowed) matching the schema's arity and types.
pub fn append_rows_from_json(v: &Json, types: &[ColType]) -> Result<Vec<Vec<Value>>, ApiError> {
    let rows = v
        .as_arr()
        .ok_or_else(|| ApiError::bad_request("field 'rows' must be an array of rows"))?;
    if rows.is_empty() {
        return Err(ApiError::bad_request("field 'rows' must not be empty"));
    }
    let mut out = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let cells = row
            .as_arr()
            .ok_or_else(|| ApiError::bad_request(format!("row {i} must be an array")))?;
        if cells.len() != types.len() {
            return Err(ApiError::bad_request(format!(
                "row {i} has {} cells, table has {} columns",
                cells.len(),
                types.len()
            )));
        }
        let parsed: Vec<Value> = cells
            .iter()
            .zip(types)
            .map(|(c, &ty)| cell_from_json(c, ty))
            .collect::<Result<_, _>>()?;
        out.push(parsed);
    }
    Ok(out)
}

/// Parse the optional `"features"` of an append request: one number row
/// per appended tuple.
pub fn append_features_from_json(v: &Json) -> Result<Option<Vec<Vec<f64>>>, ApiError> {
    match v {
        Json::Null => Ok(None),
        _ => {
            let (rows, cols) = feature_rows(v, "features")?;
            rows.iter()
                .enumerate()
                .map(|(i, row)| {
                    let mut out = Vec::with_capacity(cols);
                    push_feature_row(row, "features", i, &mut out)?;
                    Ok(out)
                })
                .collect::<Result<_, _>>()
                .map(Some)
        }
    }
}

/// JSON form of a per-delta catalog version: `{"gen":…,"delta":…}`.
pub fn version_to_json(v: rain_sql::TableVersion) -> Json {
    Json::obj(vec![
        ("gen", Json::Num(v.gen as f64)),
        ("delta", Json::Num(v.delta as f64)),
    ])
}

/// Build a training set from an upload.
pub fn dataset_from_json(v: &Json) -> Result<Dataset, ApiError> {
    let features = matrix_from_json(field(v, "features")?, "features")?;
    let labels_json = field(v, "labels")?
        .as_arr()
        .ok_or_else(|| ApiError::bad_request("field 'labels' must be an array"))?;
    let labels: Vec<usize> = labels_json
        .iter()
        .map(|l| {
            l.as_usize()
                .ok_or_else(|| ApiError::bad_request("labels must be non-negative integers"))
        })
        .collect::<Result<_, _>>()?;
    let classes = usize_field(v, "classes")?;
    if labels.len() != features.rows() {
        return Err(ApiError::bad_request(format!(
            "{} labels for {} feature rows",
            labels.len(),
            features.rows()
        )));
    }
    if classes < 2 || labels.iter().any(|&y| y >= classes) {
        return Err(ApiError::bad_request("labels out of range for class count"));
    }
    Ok(Dataset::new(features, labels, classes))
}

/// JSON form of a training set.
pub fn dataset_to_json(data: &Dataset) -> Json {
    let rows: Vec<Json> = data
        .features()
        .iter_rows()
        .map(|r| Json::Arr(r.iter().map(|&x| Json::Num(x)).collect()))
        .collect();
    Json::obj(vec![
        ("features", Json::Arr(rows)),
        (
            "labels",
            Json::Arr(data.labels().iter().map(|&y| Json::Num(y as f64)).collect()),
        ),
        ("classes", Json::Num(data.n_classes() as f64)),
    ])
}

/// Parse one complaint.
pub fn complaint_from_json(v: &Json) -> Result<Complaint, ApiError> {
    match str_field(v, "kind")?.as_str() {
        "value" => {
            let op = match str_field(v, "op")?.as_str() {
                "eq" => ValueOp::Eq,
                "le" => ValueOp::Le,
                "ge" => ValueOp::Ge,
                other => {
                    return Err(ApiError::bad_request(format!(
                        "unknown value op '{other}' (want eq/le/ge)"
                    )))
                }
            };
            // An absent cell coordinate means the first; a present one of
            // the wrong type is a 400, never a complaint about row 0.
            let index = |key| opt_field(v, key, Json::as_usize, "a non-negative integer");
            Ok(Complaint::Value {
                row: index("row")?.unwrap_or(0),
                agg: index("agg")?.unwrap_or(0),
                op,
                target: f64_field(v, "target")?,
            })
        }
        "tuple_delete" => Ok(Complaint::TupleDelete {
            row: usize_field(v, "row")?,
        }),
        "join_delete" => Ok(Complaint::JoinDelete {
            left: (str_field(v, "left_table")?, usize_field(v, "left_row")?),
            right: (str_field(v, "right_table")?, usize_field(v, "right_row")?),
        }),
        "prediction_is" => Ok(Complaint::PredictionIs {
            table: str_field(v, "table")?,
            row: usize_field(v, "row")?,
            class: usize_field(v, "class")?,
        }),
        other => Err(ApiError::bad_request(format!(
            "unknown complaint kind '{other}'"
        ))),
    }
}

/// Parse the ranking method of a debug-run request.
pub fn method_from_str(s: &str) -> Result<Method, ApiError> {
    match s.to_ascii_lowercase().as_str() {
        "loss" => Ok(Method::Loss),
        "infloss" => Ok(Method::InfLoss),
        "twostep" => Ok(Method::TwoStep),
        "holistic" => Ok(Method::Holistic),
        "auto" => Ok(Method::Auto),
        other => Err(ApiError::bad_request(format!("unknown method '{other}'"))),
    }
}

/// Parse a debug-run request into `(method, run config)`.
pub fn run_request_from_json(v: &Json) -> Result<(Method, RunConfig), ApiError> {
    let method = method_from_str(&str_field(v, "method")?)?;
    let budget = usize_field(v, "budget")?;
    if budget == 0 {
        return Err(ApiError::bad_request("budget must be positive"));
    }
    let mut cfg = RunConfig::paper(budget);
    let count = |key| opt_field(v, key, Json::as_usize, "a non-negative integer");
    let flag = |key| opt_field(v, key, Json::as_bool, "a boolean");
    if let Some(k) = count("k_per_iter")? {
        if k == 0 {
            return Err(ApiError::bad_request("k_per_iter must be positive"));
        }
        cfg.k_per_iter = k;
    }
    cfg.stop_when_satisfied = flag("stop_when_satisfied")?.unwrap_or(cfg.stop_when_satisfied);
    cfg.profile = flag("profile")?.unwrap_or(cfg.profile);
    // `0` disables iteration sampling for this run.
    cfg.sample_every = count("sample_every")?.unwrap_or(cfg.sample_every);
    Ok((method, cfg))
}

/// JSON form of a harvested span tree.
pub fn trace_to_json(node: &rain_obs::TraceNode) -> Json {
    let counters: Vec<(String, Json)> = node
        .counters
        .iter()
        .map(|&(k, v)| (k.to_string(), Json::Num(v as f64)))
        .collect();
    Json::obj(vec![
        ("name", Json::str(node.name)),
        ("start_ns", Json::Num(node.start_ns as f64)),
        ("dur_ns", Json::Num(node.dur_ns as f64)),
        ("counters", Json::Obj(counters)),
        (
            "children",
            Json::Arr(node.children.iter().map(trace_to_json).collect()),
        ),
    ])
}

/// JSON form of a query output: schema, rows, and shape metadata.
pub fn output_to_json(out: &QueryOutput) -> Json {
    let schema: Vec<Json> = out
        .table
        .schema()
        .iter()
        .map(|d| {
            Json::obj(vec![
                ("name", Json::str(d.name.clone())),
                ("type", Json::str(coltype_name(d.ty))),
            ])
        })
        .collect();
    let rows: Vec<Json> = (0..out.table.n_rows())
        .map(|r| {
            Json::Arr(
                (0..out.table.schema().len())
                    .map(|c| value_to_json(&out.table.value(r, c)))
                    .collect(),
            )
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::Arr(schema)),
        ("rows", Json::Arr(rows)),
        ("n_key_cols", Json::Num(out.n_key_cols as f64)),
        ("n_predvars", Json::Num(out.predvars.len() as f64)),
    ])
}

/// JSON form of a finished debug report.
pub fn report_to_json(report: &DebugReport) -> Json {
    let iterations: Vec<Json> = report
        .iterations
        .iter()
        .map(|it| {
            Json::obj(vec![
                ("train_s", Json::Num(it.train_s)),
                ("encode_s", Json::Num(it.encode_s)),
                ("rank_s", Json::Num(it.rank_s)),
                (
                    "removed",
                    Json::Arr(it.removed.iter().map(|&id| Json::Num(id as f64)).collect()),
                ),
                ("complaints_satisfied", Json::Bool(it.complaints_satisfied)),
                ("checks_skipped", Json::Num(it.checks_skipped as f64)),
                ("train_loss", Json::Num(it.train_loss)),
            ])
        })
        .collect();
    Json::obj(vec![
        (
            "removed",
            Json::Arr(
                report
                    .removed
                    .iter()
                    .map(|&id| Json::Num(id as f64))
                    .collect(),
            ),
        ),
        ("iterations", Json::Arr(iterations)),
        (
            "skeleton_rebuilds",
            Json::Num(report.skeleton_rebuilds as f64),
        ),
        (
            "failure",
            match &report.failure {
                Some(f) => Json::str(f.clone()),
                None => Json::Null,
            },
        ),
        (
            "profile",
            match &report.profile {
                Some(tree) => trace_to_json(tree),
                None => Json::Null,
            },
        ),
        (
            "iteration_profiles",
            Json::Arr(
                report
                    .iteration_profiles
                    .iter()
                    .map(|ip| {
                        Json::obj(vec![
                            ("iteration", Json::Num(ip.iteration as f64)),
                            ("profile", trace_to_json(&ip.profile)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn table_roundtrips_through_json_including_nulls_and_features() {
        let mut t = Table::empty(Schema::new(&[
            ("id", ColType::Int),
            ("score", ColType::Float),
            ("tag", ColType::Str),
            ("ok", ColType::Bool),
        ]))
        .with_features(Matrix::zeros(0, 2));
        t.push_row(
            vec![
                Value::Int(1),
                Value::Float(0.5),
                Value::Str("a".into()),
                Value::Bool(true),
            ],
            Some(&[1.0, -1.0]),
        );
        t.push_row(
            vec![Value::Int(2), Value::Null, Value::Null, Value::Bool(false)],
            Some(&[0.0, 2.0]),
        );
        let j = table_to_json("demo", &t);
        let reparsed = json::parse(&j.to_string()).unwrap();
        let (name, back) = table_from_json(&reparsed).unwrap();
        assert_eq!(name, "demo");
        assert_eq!(back.to_tsv(), t.to_tsv());
        assert!(back.is_null(1, 1) && back.is_null(1, 2));
        assert_eq!(back.feature_row(1), Some(&[0.0, 2.0][..]));
    }

    fn assert_same_table(a: &Table, b: &Table, what: &str) {
        assert_eq!(a.schema(), b.schema(), "{what}: schema");
        assert_eq!(a.n_rows(), b.n_rows(), "{what}: row count");
        for c in 0..a.schema().len() {
            // Column equality covers the filler under NULL cells too.
            assert_eq!(a.column(c), b.column(c), "{what}: column {c}");
            assert_eq!(a.null_mask(c), b.null_mask(c), "{what}: null mask {c}");
        }
        let bits = |t: &Table| {
            t.features().map(|m| {
                let bits: Vec<u64> = m.as_slice().iter().map(|x| x.to_bits()).collect();
                (m.rows(), m.cols(), bits)
            })
        };
        assert_eq!(bits(a), bits(b), "{what}: feature bits");
    }

    /// The row-by-row build `table_from_json` used before it decoded
    /// whole columns: one `cell_from_json` + `push_row` per row.
    fn reference_table(v: &Json) -> Table {
        let cols = v.get("columns").unwrap().as_arr().unwrap();
        let mut schema = Schema::default();
        for c in cols {
            let ty = coltype_from_str(c.get("type").unwrap().as_str().unwrap()).unwrap();
            schema.push(c.get("name").unwrap().as_str().unwrap(), ty);
        }
        let types: Vec<ColType> = schema.iter().map(|d| d.ty).collect();
        let feats = v.get("features").map(|f| f.as_arr().unwrap());
        let mut table = Table::empty(schema);
        if let Some(f) = feats {
            table = table.with_features(Matrix::zeros(0, f[0].as_arr().unwrap().len()));
        }
        let n_rows = cols[0].get("values").unwrap().as_arr().unwrap().len();
        for r in 0..n_rows {
            let row = cols
                .iter()
                .zip(&types)
                .map(|(c, &ty)| {
                    cell_from_json(&c.get("values").unwrap().as_arr().unwrap()[r], ty).unwrap()
                })
                .collect();
            let feat: Option<Vec<f64>> = feats.map(|f| {
                let cells = f[r].as_arr().unwrap();
                cells.iter().map(|x| x.as_f64().unwrap()).collect()
            });
            table.push_row(row, feat.as_deref());
        }
        table
    }

    #[test]
    fn column_decode_matches_row_by_row_build_on_random_tables() {
        let mut rng = rain_linalg::RainRng::seed_from_u64(0xDEC0DE);
        let strings = [
            "",
            "a",
            "male",
            "λ→∞",
            "😀",
            "quote\"back\\slash",
            "tab\tnl\n",
        ];
        let floats = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE,
            1e308,
            -1e308,
            0.1,
            -2.5,
        ];
        let kinds = ["bool", "int", "float", "str"];
        for case in 0..200 {
            let n_rows = rng.below(12);
            let n_cols = 1 + rng.below(5);
            let columns: Vec<Json> = (0..n_cols)
                .map(|c| {
                    let kind = kinds[(case + c) % kinds.len()];
                    // NULLs nowhere, everywhere, or scattered — and always
                    // tried at the first and last row.
                    let null_rate = [0.0_f64, 0.3, 1.0][rng.below(3)];
                    let values = (0..n_rows)
                        .map(|r| {
                            let edge = r == 0 || r + 1 == n_rows;
                            if rng.bernoulli(if edge { null_rate.max(0.5) } else { null_rate }) {
                                return Json::Null;
                            }
                            match kind {
                                "bool" => Json::Bool(rng.bernoulli(0.5)),
                                "int" => Json::Num(rng.below(2001) as f64 - 1000.0),
                                "float" => Json::Num(floats[rng.below(floats.len())]),
                                _ => Json::str(strings[rng.below(strings.len())]),
                            }
                        })
                        .collect();
                    Json::obj(vec![
                        ("name", Json::str(format!("C{c}"))),
                        ("type", Json::str(kind)),
                        ("values", Json::Arr(values)),
                    ])
                })
                .collect();
            let mut pairs = vec![("name", Json::str("T")), ("columns", Json::Arr(columns))];
            // Zero-width feature rows round-trip as `[[],…]`; a featured
            // table has at least one row (`features: []` is rejected).
            if n_rows > 0 && rng.bernoulli(0.7) {
                let dim = rng.below(3);
                let rows = (0..n_rows)
                    .map(|_| {
                        Json::Arr(
                            (0..dim)
                                .map(|_| Json::Num(floats[rng.below(floats.len())]))
                                .collect(),
                        )
                    })
                    .collect();
                pairs.push(("features", Json::Arr(rows)));
            }
            let body = Json::obj(pairs);

            let (name, decoded) = table_from_json(&body).unwrap();
            assert_eq!(name, "T");
            assert_same_table(&decoded, &reference_table(&body), &format!("case {case}"));
            let (_, back) = table_from_json(&table_to_json("T", &decoded)).unwrap();
            assert_same_table(&back, &decoded, &format!("case {case} re-decoded"));
        }
    }

    #[test]
    fn append_decoders_match_the_matrix_decoder() {
        let v = json::parse("[[1,-0.0,2.5],[3,4,5e-324]]").unwrap();
        let rows = append_features_from_json(&v).unwrap().unwrap();
        let m = matrix_from_json(&v, "features").unwrap();
        assert_eq!((m.rows(), m.cols()), (2, 3));
        let flat: Vec<u64> = rows.iter().flatten().map(|x| x.to_bits()).collect();
        let want: Vec<u64> = m.as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(flat, want);
        assert_eq!(append_features_from_json(&Json::Null).unwrap(), None);
        for bad in ["[]", "[[1],[1,2]]", "[[1],2]", "[[1,\"x\"]]", "3"] {
            let v = json::parse(bad).unwrap();
            assert_eq!(matrix_from_json(&v, "features").unwrap_err().status, 400);
            assert_eq!(append_features_from_json(&v).unwrap_err().status, 400);
        }
    }

    /// A long first row followed by many empty ones: sized from
    /// rows × first-row-width this is a 320 GB allocation, which aborts the
    /// process instead of answering 400.
    #[test]
    fn ragged_features_with_a_long_first_row_are_rejected_not_allocated() {
        let n = 200_000;
        let mut rows = vec![Json::Arr(vec![Json::Num(0.0); n])];
        rows.resize(n + 1, Json::Arr(Vec::new()));
        let v = Json::Arr(rows);
        let e = matrix_from_json(&v, "features").unwrap_err();
        assert_eq!(
            (e.status, e.message.as_str()),
            (400, "features rows are ragged")
        );
        assert_eq!(append_features_from_json(&v).unwrap_err().status, 400);
        let upload = Json::obj(vec![("features", v), ("labels", Json::Arr(vec![]))]);
        assert_eq!(dataset_from_json(&upload).unwrap_err().status, 400);
    }

    #[test]
    fn dataset_roundtrips() {
        let d = Dataset::new(
            Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]),
            vec![0, 1],
            2,
        );
        let back = dataset_from_json(&dataset_to_json(&d)).unwrap();
        assert_eq!(back.labels(), d.labels());
        assert_eq!(back.features().as_slice(), d.features().as_slice());
        assert_eq!(back.n_classes(), 2);
    }

    #[test]
    fn rejects_malformed_uploads() {
        for (what, text) in [
            ("no name", r#"{"columns":[]}"#),
            ("no columns", r#"{"name":"t"}"#),
            ("empty columns", r#"{"name":"t","columns":[]}"#),
            (
                "ragged columns",
                r#"{"name":"t","columns":[
                    {"name":"a","type":"int","values":[1,2]},
                    {"name":"b","type":"int","values":[1]}]}"#,
            ),
            (
                "bad type",
                r#"{"name":"t","columns":[{"name":"a","type":"uuid","values":[]}]}"#,
            ),
            (
                "cell type mismatch",
                r#"{"name":"t","columns":[{"name":"a","type":"int","values":["x"]}]}"#,
            ),
            (
                "feature row count",
                r#"{"name":"t","columns":[{"name":"a","type":"int","values":[1,2]}],
                    "features":[[0.0]]}"#,
            ),
            (
                "duplicate column",
                r#"{"name":"t","columns":[
                    {"name":"a","type":"int","values":[1]},
                    {"name":"a","type":"int","values":[1]}]}"#,
            ),
        ] {
            let v = json::parse(text).unwrap();
            let e = table_from_json(&v).unwrap_err();
            assert_eq!(e.status, 400, "{what}: wrong status");
        }
    }

    #[test]
    fn complaints_parse() {
        let v = json::parse(r#"{"kind":"value","op":"eq","target":42}"#).unwrap();
        assert_eq!(complaint_from_json(&v).unwrap(), Complaint::scalar_eq(42.0));
        let v = json::parse(
            r#"{"kind":"join_delete","left_table":"l","left_row":1,"right_table":"r","right_row":2}"#,
        )
        .unwrap();
        assert_eq!(
            complaint_from_json(&v).unwrap(),
            Complaint::join_delete("l", 1, "r", 2)
        );
        let v = json::parse(r#"{"kind":"prediction_is","table":"t","row":3,"class":1}"#).unwrap();
        assert_eq!(
            complaint_from_json(&v).unwrap(),
            Complaint::prediction_is("t", 3, 1)
        );
        let v = json::parse(r#"{"kind":"sue"}"#).unwrap();
        assert_eq!(complaint_from_json(&v).unwrap_err().status, 400);
        let v = json::parse(r#"{"kind":"value","op":"le","target":1,"row":2,"agg":1}"#).unwrap();
        assert_eq!(
            complaint_from_json(&v).unwrap(),
            Complaint::Value {
                row: 2,
                agg: 1,
                op: ValueOp::Le,
                target: 1.0
            }
        );
        // A cell coordinate of the wrong type names the field; it must not
        // silently become a complaint about row 0.
        for (key, bad) in [
            ("row", r#""3""#),
            ("row", "-1"),
            ("row", "1.5"),
            ("agg", "null"),
            ("agg", "[0]"),
        ] {
            let v = json::parse(&format!(
                r#"{{"kind":"value","op":"eq","target":42,"{key}":{bad}}}"#
            ))
            .unwrap();
            let err = complaint_from_json(&v).unwrap_err();
            assert_eq!(err.status, 400, "{key}: {bad}");
            assert!(err.message.contains(&format!("'{key}'")), "{}", err.message);
        }
    }

    #[test]
    fn session_exec_config_parses_with_defaults() {
        let v = json::parse(r#"{"name":"s","engine":"tuple","threads":2}"#).unwrap();
        assert_eq!(session_threads_from_json(&v).unwrap(), 2);
        let v = json::parse(r#"{"name":"s"}"#).unwrap();
        assert_eq!(session_threads_from_json(&v).unwrap(), 0);
        // The retired engine key is ignored like any unknown key.
        let v = json::parse(r#"{"engine":"turbo"}"#).unwrap();
        assert_eq!(session_threads_from_json(&v).unwrap(), 0);
        let v = json::parse(r#"{"threads":"many"}"#).unwrap();
        assert_eq!(session_threads_from_json(&v).unwrap_err().status, 400);
        // Thread-spawn storms are rejected at the protocol boundary.
        let v = json::parse(&format!(r#"{{"threads":{}}}"#, MAX_THREADS + 1)).unwrap();
        assert_eq!(session_threads_from_json(&v).unwrap_err().status, 400);
        let v = json::parse(&format!(r#"{{"threads":{MAX_THREADS}}}"#)).unwrap();
        assert_eq!(session_threads_from_json(&v).unwrap(), MAX_THREADS);
    }

    #[test]
    fn run_requests_parse_with_defaults() {
        let v = json::parse(r#"{"method":"holistic","budget":30}"#).unwrap();
        let (m, cfg) = run_request_from_json(&v).unwrap();
        assert_eq!(m, Method::Holistic);
        assert_eq!(cfg.budget, 30);
        assert_eq!(cfg.k_per_iter, 10);
        // Retired path-selecting keys are ignored, whatever they hold.
        let v = json::parse(
            r#"{"method":"loss","budget":5,"threads":true,"incremental":false,"memo":7}"#,
        )
        .unwrap();
        let (_, cfg) = run_request_from_json(&v).unwrap();
        assert!(cfg.incremental);
        let v = json::parse(
            r#"{"method":"auto","budget":8,"k_per_iter":2,"stop_when_satisfied":true}"#,
        )
        .unwrap();
        let (m, cfg) = run_request_from_json(&v).unwrap();
        assert_eq!(m, Method::Auto);
        assert_eq!((cfg.k_per_iter, cfg.stop_when_satisfied), (2, true));
        let v = json::parse(r#"{"method":"holistic","budget":0}"#).unwrap();
        assert!(run_request_from_json(&v).is_err());
        // Profile defaults off; the body flag switches it on.
        let v = json::parse(r#"{"method":"loss","budget":5}"#).unwrap();
        assert!(!run_request_from_json(&v).unwrap().1.profile);
        let v = json::parse(r#"{"method":"loss","budget":5,"profile":true}"#).unwrap();
        assert!(run_request_from_json(&v).unwrap().1.profile);
    }

    #[test]
    fn run_request_fields_of_the_wrong_type_are_rejected() {
        // A present optional key must hold what it names; before, each of
        // these ran quietly with the key's default.
        for (field, value) in [
            ("k_per_iter", "-1"),
            ("k_per_iter", "\"2\""),
            ("k_per_iter", "2.5"),
            ("k_per_iter", "null"),
            ("sample_every", "\"x\""),
            ("sample_every", "-16"),
            ("sample_every", "true"),
            ("profile", "1"),
            ("profile", "\"yes\""),
            ("stop_when_satisfied", "\"true\""),
            ("stop_when_satisfied", "[]"),
        ] {
            let body = format!(r#"{{"method":"loss","budget":5,"{field}":{value}}}"#);
            let e = run_request_from_json(&json::parse(&body).unwrap()).unwrap_err();
            assert_eq!(e.status, 400, "{body}");
            assert!(e.message.contains(field), "{body}: {}", e.message);
        }
        // Well-typed values, zero included where it means "off", parse.
        let v = json::parse(
            r#"{"method":"loss","budget":5,"k_per_iter":2.0,"sample_every":0,"profile":false}"#,
        )
        .unwrap();
        let (_, cfg) = run_request_from_json(&v).unwrap();
        assert_eq!(
            (cfg.k_per_iter, cfg.sample_every, cfg.profile),
            (2, 0, false)
        );
    }

    #[test]
    fn model_specs_build() {
        let v = json::parse(r#"{"kind":"logistic","dim":3,"l2":0.5}"#).unwrap();
        let m = model_from_json(&v).unwrap();
        assert_eq!((m.dim(), m.n_classes()), (3, 2));
        let v = json::parse(r#"{"kind":"softmax","dim":2,"classes":4}"#).unwrap();
        assert_eq!(model_from_json(&v).unwrap().n_classes(), 4);
        let v = json::parse(r#"{"kind":"mlp","dim":2,"classes":3,"hidden":4}"#).unwrap();
        assert_eq!(model_from_json(&v).unwrap().n_classes(), 3);
        let v = json::parse(r#"{"kind":"gpt","dim":2}"#).unwrap();
        assert!(model_from_json(&v).is_err());
    }
}
