//! Columnar tables with optional row-aligned feature matrices.
//!
//! A [`Table`] is a small columnar store: a [`Schema`] plus one [`Column`]
//! per attribute. Tables that participate in model inference additionally
//! carry a feature [`Matrix`] whose row `i` is the model input for tuple
//! `i` — this is how `predict(alias)` resolves `alias.*` to a vector (the
//! in-DBMS ML pattern from the paper's Figure 1).

use crate::value::Value;
use rain_linalg::Matrix;
use std::collections::HashMap;

/// Column data type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// Boolean column.
    Bool,
    /// 64-bit integer column.
    Int,
    /// 64-bit float column.
    Float,
    /// String column.
    Str,
}

/// A named, typed column descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Attribute name (lowercase).
    pub name: String,
    /// Attribute type.
    pub ty: ColType,
}

/// An ordered set of column definitions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    cols: Vec<ColumnDef>,
    by_name: HashMap<String, usize>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate column names.
    pub fn new(cols: &[(&str, ColType)]) -> Self {
        let mut s = Schema::default();
        for (name, ty) in cols {
            s.push(name, *ty);
        }
        s
    }

    /// Append a column definition.
    pub fn push(&mut self, name: &str, ty: ColType) {
        let name = name.to_ascii_lowercase();
        assert!(
            self.by_name.insert(name.clone(), self.cols.len()).is_none(),
            "duplicate column {name}"
        );
        self.cols.push(ColumnDef { name, ty });
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Index of a column by (case-insensitive) name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(&name.to_ascii_lowercase()).copied()
    }

    /// Column definition at `i`.
    pub fn col(&self, i: usize) -> &ColumnDef {
        &self.cols[i]
    }

    /// Iterate over column definitions.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &ColumnDef> {
        self.cols.iter()
    }
}

/// Typed column storage.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Boolean cells.
    Bool(Vec<bool>),
    /// Integer cells.
    Int(Vec<i64>),
    /// Float cells.
    Float(Vec<f64>),
    /// String cells.
    Str(Vec<String>),
}

impl Column {
    /// Empty column of a type.
    pub fn empty(ty: ColType) -> Self {
        match ty {
            ColType::Bool => Column::Bool(Vec::new()),
            ColType::Int => Column::Int(Vec::new()),
            ColType::Float => Column::Float(Vec::new()),
            ColType::Str => Column::Str(Vec::new()),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            Column::Bool(v) => v.len(),
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
        }
    }

    /// True when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cell at `i` as a [`Value`].
    pub fn get(&self, i: usize) -> Value {
        match self {
            Column::Bool(v) => Value::Bool(v[i]),
            Column::Int(v) => Value::Int(v[i]),
            Column::Float(v) => Value::Float(v[i]),
            Column::Str(v) => Value::Str(v[i].clone()),
        }
    }

    /// Append a value (must match the column type).
    ///
    /// # Panics
    /// Panics on a type mismatch.
    pub fn push(&mut self, v: Value) {
        match (self, v) {
            (Column::Bool(c), Value::Bool(b)) => c.push(b),
            (Column::Int(c), Value::Int(x)) => c.push(x),
            (Column::Int(c), Value::Bool(b)) => c.push(b as i64),
            (Column::Float(c), Value::Float(x)) => c.push(x),
            (Column::Float(c), Value::Int(x)) => c.push(x as f64),
            (Column::Str(c), Value::Str(s)) => c.push(s),
            (c, v) => panic!(
                "type mismatch pushing {v:?} into {:?} column",
                discriminant(c)
            ),
        }
    }

    /// The column's type.
    pub fn ty(&self) -> ColType {
        match self {
            Column::Bool(_) => ColType::Bool,
            Column::Int(_) => ColType::Int,
            Column::Float(_) => ColType::Float,
            Column::Str(_) => ColType::Str,
        }
    }

    /// Zero-copy view of an integer column (`None` for other types). The
    /// vectorized kernels use these typed slices instead of per-row
    /// [`Value`] boxing through [`Column::get`].
    pub fn as_i64s(&self) -> Option<&[i64]> {
        match self {
            Column::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Zero-copy view of a float column (`None` for other types).
    pub fn as_f64s(&self) -> Option<&[f64]> {
        match self {
            Column::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Zero-copy view of a string column (`None` for other types).
    pub fn as_strs(&self) -> Option<&[String]> {
        match self {
            Column::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Zero-copy view of a boolean column (`None` for other types).
    pub fn as_bools(&self) -> Option<&[bool]> {
        match self {
            Column::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// Append the type's zero value (the physical filler under a NULL
    /// cell; the table's null bitmap marks it invalid).
    pub fn push_zero(&mut self) {
        match self {
            Column::Bool(v) => v.push(false),
            Column::Int(v) => v.push(0),
            Column::Float(v) => v.push(0.0),
            Column::Str(v) => v.push(String::new()),
        }
    }
}

fn discriminant(c: &Column) -> ColType {
    c.ty()
}

/// A columnar table, optionally with a row-aligned feature matrix.
///
/// NULLs are represented out of band: each column may carry a null
/// bitmap (`nulls[col]`), lazily materialized the first time a NULL is
/// pushed. Fully valid columns carry no bitmap, so the common case stays
/// a plain typed vector the kernels can slice zero-copy.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    /// Per-column null bitmap; `None` = all cells valid.
    nulls: Vec<Option<Vec<bool>>>,
    n_rows: usize,
    features: Option<Matrix>,
}

impl Table {
    /// Empty table over a schema.
    pub fn empty(schema: Schema) -> Self {
        let columns: Vec<Column> = schema.iter().map(|c| Column::empty(c.ty)).collect();
        let nulls = vec![None; columns.len()];
        Table {
            schema,
            columns,
            nulls,
            n_rows: 0,
            features: None,
        }
    }

    /// Build a table from equal-length columns.
    ///
    /// # Panics
    /// Panics if column counts/lengths or types disagree with the schema.
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> Self {
        assert_eq!(
            schema.len(),
            columns.len(),
            "Table: schema/column count mismatch"
        );
        let n_rows = columns.first().map_or(0, Column::len);
        for (def, col) in schema.iter().zip(&columns) {
            assert_eq!(col.len(), n_rows, "Table: ragged column {}", def.name);
            assert_eq!(col.ty(), def.ty, "Table: column {} type mismatch", def.name);
        }
        let nulls = vec![None; columns.len()];
        Table {
            schema,
            columns,
            nulls,
            n_rows,
            features: None,
        }
    }

    /// Reassemble a table from persisted parts: columns, per-column null
    /// bitmaps, and an optional feature matrix. This is the restore path
    /// for durability snapshots — [`Table::from_columns`] followed by
    /// `push_row` cannot reproduce a null bitmap bit-identically, this
    /// can — and the build step of the wire decoder, which fills whole
    /// columns at a time.
    ///
    /// # Panics
    /// Panics if the parts disagree (column counts/lengths/types, bitmap
    /// lengths, feature row count).
    pub fn from_parts(
        schema: Schema,
        columns: Vec<Column>,
        nulls: Vec<Option<Vec<bool>>>,
        features: Option<Matrix>,
    ) -> Self {
        let mut t = Table::from_columns(schema, columns);
        assert_eq!(
            nulls.len(),
            t.columns.len(),
            "from_parts: null bitmap count mismatch"
        );
        for (ci, mask) in nulls.iter().enumerate() {
            if let Some(m) = mask {
                assert_eq!(m.len(), t.n_rows, "from_parts: bitmap {ci} length");
            }
        }
        t.nulls = nulls;
        if let Some(m) = features {
            t = t.with_features(m);
        }
        t
    }

    /// Attach a feature matrix (one row per tuple).
    ///
    /// # Panics
    /// Panics if the row counts differ.
    pub fn with_features(mut self, features: Matrix) -> Self {
        assert_eq!(features.rows(), self.n_rows, "features: row count mismatch");
        self.features = Some(features);
        self
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Column at index `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Cell accessor (NULL-aware: masked cells read as [`Value::Null`]).
    pub fn value(&self, row: usize, col: usize) -> Value {
        if self.is_null(row, col) {
            return Value::Null;
        }
        self.columns[col].get(row)
    }

    /// True when the cell is NULL.
    pub fn is_null(&self, row: usize, col: usize) -> bool {
        self.nulls[col].as_deref().is_some_and(|m| m[row])
    }

    /// Null bitmap of a column: `Some(mask)` once the column holds any
    /// NULL (with `mask[row] == true` for NULL cells), `None` while the
    /// column is fully valid. Kernels check this before slicing a column
    /// zero-copy through the `as_*s` accessors.
    pub fn null_mask(&self, col: usize) -> Option<&[bool]> {
        self.nulls[col].as_deref()
    }

    /// Feature vector of a row, if the table carries features.
    pub fn feature_row(&self, row: usize) -> Option<&[f64]> {
        self.features.as_ref().map(|m| m.row(row))
    }

    /// The whole feature matrix, if present.
    pub fn features(&self) -> Option<&Matrix> {
        self.features.as_ref()
    }

    /// Append one row of values (and optionally a feature vector) in
    /// O(width): typed columns, null bitmaps and the feature matrix all
    /// grow in place (amortised), so building a table row by row is
    /// linear in its size.
    ///
    /// # Panics
    /// Panics if arity/types mismatch, or if `feat` presence disagrees with
    /// whether the table carries features.
    pub fn push_row(&mut self, row: Vec<Value>, feat: Option<&[f64]>) {
        assert_eq!(row.len(), self.columns.len(), "push_row: arity mismatch");
        match (&mut self.features, feat) {
            (Some(m), Some(f)) => m.push_row(f),
            (None, None) => {}
            (None, Some(f)) if self.n_rows == 0 => {
                self.features = Some(Matrix::from_vec(1, f.len(), f.to_vec()));
            }
            _ => panic!("push_row: feature presence mismatch"),
        }
        for (ci, (col, v)) in self.columns.iter_mut().zip(row).enumerate() {
            if v == Value::Null {
                col.push_zero();
                self.nulls[ci]
                    .get_or_insert_with(|| vec![false; self.n_rows])
                    .push(true);
            } else {
                col.push(v);
                if let Some(mask) = &mut self.nulls[ci] {
                    mask.push(false);
                }
            }
        }
        self.n_rows += 1;
    }

    /// Append many rows (and optionally row-aligned feature vectors):
    /// [`Table::push_row`] per row, after reserving the feature matrix's
    /// growth once. This is the path commitlog replay and the serving
    /// layer's append endpoint go through.
    ///
    /// # Panics
    /// Panics if arity/types mismatch, if `feats` presence disagrees with
    /// whether the table carries features, or if `feats` is not
    /// row-aligned with `rows`.
    pub fn append_rows(&mut self, rows: Vec<Vec<Value>>, feats: Option<&[Vec<f64>]>) {
        if let Some(fs) = feats {
            assert_eq!(
                fs.len(),
                rows.len(),
                "append_rows: feature row count mismatch"
            );
        }
        if let Some(m) = &mut self.features {
            m.reserve_rows(rows.len());
        }
        for (i, row) in rows.into_iter().enumerate() {
            self.push_row(row, feats.map(|fs| fs[i].as_slice()));
        }
    }

    /// Render the table as tab-separated text with a header line.
    pub fn to_tsv(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let header: Vec<&str> = self.schema.iter().map(|c| c.name.as_str()).collect();
        let _ = writeln!(out, "{}", header.join("\t"));
        for r in 0..self.n_rows {
            let row: Vec<String> = (0..self.columns.len())
                .map(|c| self.value(r, c).to_string())
                .collect();
            let _ = writeln!(out, "{}", row.join("\t"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people() -> Table {
        let schema = Schema::new(&[
            ("id", ColType::Int),
            ("name", ColType::Str),
            ("active", ColType::Bool),
        ]);
        Table::from_columns(
            schema,
            vec![
                Column::Int(vec![1, 2]),
                Column::Str(vec!["ada".into(), "bob".into()]),
                Column::Bool(vec![true, false]),
            ],
        )
    }

    #[test]
    fn schema_lookup_is_case_insensitive() {
        let t = people();
        assert_eq!(t.schema().index_of("NAME"), Some(1));
        assert_eq!(t.schema().index_of("missing"), None);
    }

    #[test]
    fn value_access() {
        let t = people();
        assert_eq!(t.value(0, 1), Value::Str("ada".into()));
        assert_eq!(t.value(1, 2), Value::Bool(false));
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    fn push_row_grows_all_columns() {
        let mut t = people();
        t.push_row(
            vec![Value::Int(3), Value::Str("eve".into()), Value::Bool(true)],
            None,
        );
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.value(2, 0), Value::Int(3));
    }

    #[test]
    fn append_rows_matches_repeated_push_row() {
        let base = || people().with_features(Matrix::from_rows(&[&[0.1, 0.2], &[0.3, 0.4]]));
        let rows = vec![
            vec![Value::Null, Value::Str("eve".into()), Value::Bool(true)],
            vec![Value::Int(4), Value::Str("dan".into()), Value::Null],
            vec![Value::Int(5), Value::Null, Value::Bool(false)],
        ];
        let feats = vec![
            vec![-0.0, 1.5],
            vec![f64::MIN_POSITIVE, 2.5],
            vec![3.5, -4.5],
        ];

        let mut batched = base();
        batched.append_rows(rows.clone(), Some(&feats));
        let mut serial = base();
        for (row, f) in rows.into_iter().zip(&feats) {
            serial.push_row(row, Some(f));
        }

        assert_eq!(batched.n_rows(), serial.n_rows());
        for c in 0..3 {
            assert_eq!(batched.null_mask(c), serial.null_mask(c), "mask col {c}");
            for r in 0..batched.n_rows() {
                assert_eq!(batched.value(r, c), serial.value(r, c), "cell ({r}, {c})");
            }
        }
        let (bm, sm) = (batched.features().unwrap(), serial.features().unwrap());
        assert_eq!(bm.rows(), sm.rows());
        assert_eq!(
            bm.as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            sm.as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        );

        // Empty batch is a no-op; batch onto a featureless empty table
        // seeds the matrix just like push_row does.
        batched.append_rows(vec![], None);
        assert_eq!(batched.n_rows(), 5);
        let schema = Schema::new(&[("id", ColType::Int)]);
        let mut fresh = Table::from_columns(schema, vec![Column::Int(vec![])]);
        fresh.append_rows(
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
            Some(&[vec![9.0], vec![8.0]]),
        );
        assert_eq!(fresh.feature_row(1), Some(&[8.0][..]));
    }

    #[test]
    fn features_are_row_aligned() {
        let t = people().with_features(Matrix::from_rows(&[&[0.1, 0.2], &[0.3, 0.4]]));
        assert_eq!(t.feature_row(1), Some(&[0.3, 0.4][..]));
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn feature_shape_is_checked() {
        let _ = people().with_features(Matrix::from_rows(&[&[0.1]]));
    }

    #[test]
    #[should_panic(expected = "ragged column")]
    fn ragged_columns_rejected() {
        let schema = Schema::new(&[("a", ColType::Int), ("b", ColType::Int)]);
        Table::from_columns(schema, vec![Column::Int(vec![1]), Column::Int(vec![1, 2])]);
    }

    #[test]
    fn int_column_accepts_bools() {
        let mut c = Column::Int(vec![]);
        c.push(Value::Bool(true));
        assert_eq!(c.get(0), Value::Int(1));
    }

    #[test]
    fn typed_zero_copy_accessors() {
        let t = people();
        assert_eq!(t.column(0).as_i64s(), Some(&[1i64, 2][..]));
        assert_eq!(t.column(2).as_bools(), Some(&[true, false][..]));
        assert_eq!(t.column(1).as_strs().map(|s| s.len()), Some(2));
        assert_eq!(t.column(0).as_f64s(), None);
        assert_eq!(t.column(1).as_i64s(), None);
        let f = Column::Float(vec![1.5]);
        assert_eq!(f.as_f64s(), Some(&[1.5][..]));
    }

    #[test]
    fn null_cells_are_tracked_by_bitmap() {
        let mut t = people();
        assert!(t.null_mask(0).is_none());
        t.push_row(
            vec![Value::Null, Value::Str("eve".into()), Value::Bool(true)],
            None,
        );
        // Only the column that received a NULL grows a bitmap.
        assert_eq!(t.null_mask(0), Some(&[false, false, true][..]));
        assert!(t.null_mask(1).is_none());
        assert_eq!(t.value(2, 0), Value::Null);
        assert!(t.is_null(2, 0));
        assert!(!t.is_null(0, 0));
        // Subsequent non-NULL pushes keep the bitmap aligned.
        t.push_row(
            vec![Value::Int(9), Value::Str("f".into()), Value::Bool(false)],
            None,
        );
        assert_eq!(t.value(3, 0), Value::Int(9));
        assert!(!t.is_null(3, 0));
        assert!(t.to_tsv().contains("NULL"));
    }

    #[test]
    fn tsv_rendering() {
        let t = people();
        let tsv = t.to_tsv();
        assert!(tsv.starts_with("id\tname\tactive\n"));
        assert!(tsv.contains("1\tada\ttrue"));
    }
}
