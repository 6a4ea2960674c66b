//! Binary encoding primitives shared by log records and snapshots.
//!
//! Everything is little-endian and length-prefixed; floats travel as raw
//! [`f64::to_bits`] patterns so `-0.0`, NaN payloads, and every last ulp
//! round-trip exactly — recovery promises bit-identity, not approximate
//! equality. The format carries no self-description beyond small type
//! tags: both sides are this workspace, and the outer record/snapshot
//! framing already carries a magic and a checksum.

use crate::StorageError;
use rain_linalg::Matrix;
use rain_model::Dataset;
use rain_sql::table::{ColType, Column, Schema, Table};
use rain_sql::Value;

/// Append-only byte sink for encoding.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an f64 as its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Cursor over encoded bytes; every getter fails loudly on truncation.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn corrupt(what: &str) -> StorageError {
    StorageError::Corrupt(format!("decode: {what}"))
}

impl<'a> Dec<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("unexpected end of input"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, StorageError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(&format!("bad bool byte {b}"))),
        }
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian i64.
    pub fn i64(&mut self) -> Result<i64, StorageError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an f64 from its exact bit pattern.
    pub fn f64(&mut self) -> Result<f64, StorageError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length (u64 on the wire) that must fit the remaining input
    /// when each element takes at least `min_width` bytes — the sanity
    /// check that keeps a corrupt length from allocating gigabytes.
    pub fn len(&mut self, min_width: usize) -> Result<usize, StorageError> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n.saturating_mul(min_width.max(1) as u64) > remaining {
            return Err(corrupt(&format!("implausible length {n}")));
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed byte string, borrowed from the input.
    pub fn bytes(&mut self) -> Result<&'a [u8], StorageError> {
        let n = self.len(1)?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, StorageError> {
        String::from_utf8(self.bytes()?.to_vec()).map_err(|_| corrupt("invalid utf-8 in string"))
    }
}

// ---------------------------------------------------------------------------
// Composite encoders/decoders
// ---------------------------------------------------------------------------

fn col_type_tag(ty: ColType) -> u8 {
    match ty {
        ColType::Bool => 0,
        ColType::Int => 1,
        ColType::Float => 2,
        ColType::Str => 3,
    }
}

fn col_type_from_tag(tag: u8) -> Result<ColType, StorageError> {
    Ok(match tag {
        0 => ColType::Bool,
        1 => ColType::Int,
        2 => ColType::Float,
        3 => ColType::Str,
        t => return Err(corrupt(&format!("unknown column type tag {t}"))),
    })
}

/// Encode a scalar value (tag + payload).
pub fn put_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Null => e.u8(0),
        Value::Bool(b) => {
            e.u8(1);
            e.bool(*b);
        }
        Value::Int(x) => {
            e.u8(2);
            e.i64(*x);
        }
        Value::Float(x) => {
            e.u8(3);
            e.f64(*x);
        }
        Value::Str(s) => {
            e.u8(4);
            e.str(s);
        }
    }
}

/// Decode a scalar value.
pub fn get_value(d: &mut Dec<'_>) -> Result<Value, StorageError> {
    Ok(match d.u8()? {
        0 => Value::Null,
        1 => Value::Bool(d.bool()?),
        2 => Value::Int(d.i64()?),
        3 => Value::Float(d.f64()?),
        4 => Value::Str(d.str()?),
        t => return Err(corrupt(&format!("unknown value tag {t}"))),
    })
}

fn put_bitmap(e: &mut Enc, mask: &[bool]) {
    e.u64(mask.len() as u64);
    for &b in mask {
        e.bool(b);
    }
}

fn get_bitmap(d: &mut Dec<'_>) -> Result<Vec<bool>, StorageError> {
    let n = d.len(1)?;
    let mut mask = Vec::with_capacity(n);
    for _ in 0..n {
        mask.push(d.bool()?);
    }
    Ok(mask)
}

/// Encode a feature matrix (rows, cols, raw f64 bits).
pub fn put_matrix(e: &mut Enc, m: &Matrix) {
    e.u64(m.rows() as u64);
    e.u64(m.cols() as u64);
    for &v in m.as_slice() {
        e.f64(v);
    }
}

/// Decode a feature matrix. Only the cells must fit the remaining input:
/// a dimension alone carries no bytes when the other one is zero (a
/// training set with no rows still has its feature width).
pub fn get_matrix(d: &mut Dec<'_>) -> Result<Matrix, StorageError> {
    let (rows, cols) = (d.u64()?, d.u64()?);
    let remaining = (d.buf.len() - d.pos) as u64;
    let n = rows
        .checked_mul(cols)
        .filter(|n| n.saturating_mul(8) <= remaining)
        .ok_or_else(|| corrupt(&format!("implausible matrix shape {rows} x {cols}")))?;
    let size = |v: u64| usize::try_from(v).map_err(|_| corrupt("matrix shape overflow"));
    let (rows, cols, n) = (size(rows)?, size(cols)?, size(n)?);
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(d.f64()?);
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

fn put_column(e: &mut Enc, c: &Column) {
    e.u8(col_type_tag(c.ty()));
    e.u64(c.len() as u64);
    match c {
        Column::Bool(v) => {
            for &b in v {
                e.bool(b);
            }
        }
        Column::Int(v) => {
            for &x in v {
                e.i64(x);
            }
        }
        Column::Float(v) => {
            for &x in v {
                e.f64(x);
            }
        }
        Column::Str(v) => {
            for s in v {
                e.str(s);
            }
        }
    }
}

fn get_column(d: &mut Dec<'_>) -> Result<Column, StorageError> {
    let ty = col_type_from_tag(d.u8()?)?;
    Ok(match ty {
        ColType::Bool => {
            let n = d.len(1)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(d.bool()?);
            }
            Column::Bool(v)
        }
        ColType::Int => {
            let n = d.len(8)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(d.i64()?);
            }
            Column::Int(v)
        }
        ColType::Float => {
            let n = d.len(8)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(d.f64()?);
            }
            Column::Float(v)
        }
        ColType::Str => {
            let n = d.len(8)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(d.str()?);
            }
            Column::Str(v)
        }
    })
}

/// Encode a full table: schema, typed columns, per-column null bitmaps,
/// optional feature matrix.
pub fn put_table(e: &mut Enc, t: &Table) {
    let schema = t.schema();
    e.u64(schema.len() as u64);
    for def in schema.iter() {
        e.str(&def.name);
        e.u8(col_type_tag(def.ty));
    }
    for ci in 0..schema.len() {
        put_column(e, t.column(ci));
    }
    for ci in 0..schema.len() {
        match t.null_mask(ci) {
            Some(mask) => {
                e.u8(1);
                put_bitmap(e, mask);
            }
            None => e.u8(0),
        }
    }
    match t.features() {
        Some(m) => {
            e.u8(1);
            put_matrix(e, m);
        }
        None => e.u8(0),
    }
}

/// Decode a table encoded by [`put_table`], reconstructing null bitmaps
/// and features bit-identically via [`Table::from_parts`].
pub fn get_table(d: &mut Dec<'_>) -> Result<Table, StorageError> {
    let n_cols = d.len(2)?;
    let mut schema = Schema::default();
    for _ in 0..n_cols {
        let name = d.str()?;
        let ty = col_type_from_tag(d.u8()?)?;
        if schema.index_of(&name).is_some() {
            return Err(corrupt(&format!("duplicate column {name}")));
        }
        schema.push(&name, ty);
    }
    let mut columns = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        columns.push(get_column(d)?);
    }
    let n_rows = columns.first().map_or(0, Column::len);
    let mut nulls = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        nulls.push(match d.u8()? {
            0 => None,
            1 => Some(get_bitmap(d)?),
            t => return Err(corrupt(&format!("bad bitmap presence tag {t}"))),
        });
    }
    let features = match d.u8()? {
        0 => None,
        1 => Some(get_matrix(d)?),
        t => return Err(corrupt(&format!("bad features presence tag {t}"))),
    };
    for (i, c) in columns.iter().enumerate() {
        let def = schema.col(i);
        if c.ty() != def.ty || c.len() != n_rows {
            return Err(corrupt(&format!("column {} shape mismatch", def.name)));
        }
        if let Some(mask) = &nulls[i] {
            if mask.len() != n_rows {
                return Err(corrupt(&format!("bitmap {} length mismatch", def.name)));
            }
        }
    }
    if let Some(m) = &features {
        if m.rows() != n_rows {
            return Err(corrupt("feature matrix row count mismatch"));
        }
    }
    Ok(Table::from_parts(schema, columns, nulls, features))
}

/// Encode a training set: features, labels, record ids, class count.
pub fn put_dataset(e: &mut Enc, data: &Dataset) {
    put_matrix(e, data.features());
    e.u64(data.len() as u64);
    for &y in data.labels() {
        e.u64(y as u64);
    }
    for &id in data.ids() {
        e.u64(id as u64);
    }
    e.u64(data.n_classes() as u64);
}

/// Decode a training set encoded by [`put_dataset`].
pub fn get_dataset(d: &mut Dec<'_>) -> Result<Dataset, StorageError> {
    let features = get_matrix(d)?;
    let n = d.len(8)?;
    if n != features.rows() {
        return Err(corrupt("dataset label count mismatch"));
    }
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        labels.push(d.u64()? as usize);
    }
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(d.u64()? as usize);
    }
    let n_classes = d.u64()? as usize;
    if n_classes < 2 {
        return Err(corrupt("dataset with fewer than two classes"));
    }
    if labels.iter().any(|&y| y >= n_classes) {
        return Err(corrupt("dataset label out of range"));
    }
    Ok(Dataset::with_ids(features, labels, ids, n_classes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rain_sql::table::{ColType, Schema};

    fn table_eq(a: &Table, b: &Table) {
        assert_eq!(a.schema(), b.schema());
        assert_eq!(a.n_rows(), b.n_rows());
        for ci in 0..a.schema().len() {
            // NaN-bearing float columns fail Column's PartialEq even when
            // bit-identical; compare floats by bits instead.
            match (a.column(ci), b.column(ci)) {
                (Column::Float(x), Column::Float(y)) => {
                    let xb: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                    let yb: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(xb, yb, "float column {ci}");
                }
                (x, y) => assert_eq!(x, y, "column {ci}"),
            }
            assert_eq!(a.null_mask(ci), b.null_mask(ci), "bitmap {ci}");
        }
        match (a.features(), b.features()) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.rows(), y.rows());
                assert_eq!(x.cols(), y.cols());
                let xb: Vec<u64> = x.as_slice().iter().map(|v| v.to_bits()).collect();
                let yb: Vec<u64> = y.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(xb, yb, "feature bits");
            }
            _ => panic!("feature presence mismatch"),
        }
    }

    #[test]
    fn table_round_trip_with_nulls_and_features() {
        let schema = Schema::new(&[
            ("id", ColType::Int),
            ("name", ColType::Str),
            ("score", ColType::Float),
            ("ok", ColType::Bool),
        ]);
        let mut t = Table::from_columns(
            schema,
            vec![
                Column::Int(vec![1, 2]),
                Column::Str(vec!["ada".into(), "bob".into()]),
                Column::Float(vec![0.5, -0.0]),
                Column::Bool(vec![true, false]),
            ],
        )
        .with_features(Matrix::from_vec(2, 3, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]));
        t.push_row(
            vec![
                Value::Null,
                Value::Str(String::new()),
                Value::Float(f64::NAN),
                Value::Null,
            ],
            Some(&[f64::INFINITY, -0.0, 1e-308]),
        );
        let mut e = Enc::new();
        put_table(&mut e, &t);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = get_table(&mut d).unwrap();
        assert!(d.is_done());
        table_eq(&t, &back);
        // NaN survives by bits even though Column's PartialEq would reject it.
        assert_eq!(
            back.column(2).as_f64s().unwrap()[2].to_bits(),
            f64::NAN.to_bits()
        );
    }

    #[test]
    fn dataset_round_trip_keeps_ids() {
        let data = Dataset::with_ids(
            Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            vec![0, 1, 1],
            vec![10, 20, 30],
            2,
        );
        let mut e = Enc::new();
        put_dataset(&mut e, &data);
        let bytes = e.into_bytes();
        let back = get_dataset(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(back.ids(), data.ids());
        assert_eq!(back.labels(), data.labels());
        assert_eq!(back.n_classes(), data.n_classes());
        assert_eq!(back.features().as_slice(), data.features().as_slice());
    }

    #[test]
    fn values_round_trip() {
        let vals = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-7),
            Value::Float(-0.0),
            Value::Str("héllo".into()),
        ];
        let mut e = Enc::new();
        for v in &vals {
            put_value(&mut e, v);
        }
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        for v in &vals {
            let got = get_value(&mut d).unwrap();
            match (v, &got) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(*v, got),
            }
        }
        assert!(d.is_done());
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut e = Enc::new();
        put_value(&mut e, &Value::Str("hello world".into()));
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            assert!(get_value(&mut Dec::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn implausible_lengths_are_rejected() {
        // A u64 length of u64::MAX must not attempt the allocation.
        let mut e = Enc::new();
        e.u64(u64::MAX);
        let bytes = e.into_bytes();
        assert!(Dec::new(&bytes).len(1).is_err());
        assert!(Dec::new(&bytes).str().is_err());
        // Matrix cells must fit the input; 2^32 x 2^32 is refused unread.
        let mut e = Enc::new();
        e.u64(1 << 32);
        e.u64(1 << 32);
        e.f64(1.0);
        assert!(get_matrix(&mut Dec::new(&e.into_bytes())).is_err());
    }

    /// A matrix with a zero dimension carries no cells, however wide the
    /// other one is — and decodes from its own bytes alone, as it must
    /// when it ends a record (an empty training set of width 17).
    #[test]
    fn matrices_with_a_zero_dimension_round_trip_alone() {
        for (rows, cols) in [(0, 17), (0, 1000), (5, 0), (0, 0)] {
            let m = Matrix::from_vec(rows, cols, vec![]);
            let mut e = Enc::new();
            put_matrix(&mut e, &m);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            let back = get_matrix(&mut d).unwrap();
            assert_eq!((back.rows(), back.cols()), (rows, cols));
            assert!(d.is_done());
        }
    }
}
