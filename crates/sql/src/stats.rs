//! Per-table statistics feeding the cost-based planner.
//!
//! The catalog ([`Database`](crate::Database)) keeps one [`TableStats`]
//! per table *version*: every mutation
//! ([`register`](crate::Database::register),
//! [`append_to`](crate::Database::append_to)) empties the cache, and the
//! first reader afterwards ([`Database::stats_of`](crate::Database::stats_of)
//! — the planner, or the serving layer's `GET …/stats`) computes them over
//! the live table and stamps them with the live [`TableVersion`]. So
//! whoever reads them sees exact, current statistics, and a run of appends
//! between two plans pays for one computation, not one per batch. The
//! cost model ([`cost`](crate::cost)) reads row counts, per-column
//! distinct estimates, and numeric min/max to estimate scan
//! selectivities and join cardinalities. A cached query that is merely
//! *extended* over appended rows — a single table's, or a join's outer
//! relation's ([`PreparedQuery::catch_up`](crate::PreparedQuery::catch_up))
//! — keeps its plan, so its estimates are as of the last time it was
//! planned.
//!
//! Distinct counts are exact, computed over the same canonical key
//! space the join machinery uses (NULLs and NaNs excluded, `3` and
//! `3.0` collapse to one key) so an equality selectivity of
//! `1/distinct` means exactly "one hash-index posting list out of
//! `distinct`".

use crate::eval::{join_key, JoinKey};
use crate::table::Table;
use crate::TableVersion;
use std::collections::HashSet;

/// Statistics for one column of a registered table.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of distinct non-NULL, non-NaN values (exact).
    pub distinct: usize,
    /// Number of NULL (or NaN) cells.
    pub null_count: usize,
    /// Smallest numeric value, for `Int`/`Float`/`Bool` columns with at
    /// least one non-NULL cell; `None` for strings or all-NULL columns.
    pub min: Option<f64>,
    /// Largest numeric value, same caveats as `min`.
    pub max: Option<f64>,
}

/// Statistics for one registered table, stamped with the version they
/// were computed at.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Row count at computation time.
    pub row_count: usize,
    /// One entry per schema column, in schema order.
    pub columns: Vec<ColumnStats>,
    /// The `(gen, delta)` the table had when these stats were computed.
    /// The catalog caches per version, so what it hands out always
    /// matches the live [`TableVersion`].
    pub version: TableVersion,
}

#[cfg(test)]
thread_local! {
    /// [`TableStats::compute`] calls made by this thread (tests count
    /// how often the catalog recomputes).
    pub(crate) static COMPUTE_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl TableStats {
    /// Compute fresh statistics for `table`, stamped with `version`.
    ///
    /// One full pass per column: distinct values are collected into the
    /// same canonical key space as hash joins and hash indexes
    /// (numerics by canonical `f64` bits, so `3 = 3.0` counts once;
    /// NULL and NaN are excluded and tallied as `null_count`).
    pub fn compute(table: &Table, version: TableVersion) -> TableStats {
        #[cfg(test)]
        COMPUTE_CALLS.with(|c| c.set(c.get() + 1));
        let n = table.n_rows();
        let columns = (0..table.schema().len())
            .map(|c| column_stats(table, c, n))
            .collect();
        TableStats {
            row_count: n,
            columns,
            version,
        }
    }

    /// Distinct count for column `col`, or 0 when out of range.
    pub fn distinct(&self, col: usize) -> usize {
        self.columns.get(col).map_or(0, |c| c.distinct)
    }
}

fn column_stats(table: &Table, col: usize, n_rows: usize) -> ColumnStats {
    let column = table.column(col);
    let mask = table.null_mask(col);
    let is_null = |row: usize| mask.is_some_and(|m| m[row]);

    if let Some(strs) = column.as_strs() {
        let mut seen: HashSet<&str> = HashSet::new();
        let mut null_count = 0usize;
        for (row, s) in strs.iter().enumerate().take(n_rows) {
            if is_null(row) {
                null_count += 1;
            } else {
                seen.insert(s.as_str());
            }
        }
        return ColumnStats {
            distinct: seen.len(),
            null_count,
            min: None,
            max: None,
        };
    }

    // Numeric family (Int/Float/Bool): distinct over canonical f64 key
    // bits — exactly the key space hash joins and hash indexes use.
    let mut keys: HashSet<u64> = HashSet::new();
    let mut null_count = 0usize;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for row in 0..n_rows {
        if is_null(row) {
            null_count += 1;
            continue;
        }
        match join_key(&column.get(row)) {
            Some(JoinKey::Num(bits)) => {
                keys.insert(bits);
                let f = f64::from_bits(bits);
                min = min.min(f);
                max = max.max(f);
            }
            Some(JoinKey::Str(_)) => unreachable!("string in a numeric column"),
            None => null_count += 1, // NaN keys like NULL: no index entry
        }
    }
    ColumnStats {
        distinct: keys.len(),
        null_count,
        min: min.is_finite().then_some(min),
        max: max.is_finite().then_some(max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ColType, Column, Schema};
    use crate::Value;

    fn t() -> Table {
        Table::from_columns(
            Schema::new(&[
                ("x", ColType::Int),
                ("f", ColType::Float),
                ("s", ColType::Str),
            ]),
            vec![
                Column::Int(vec![1, 2, 2, 3]),
                Column::Float(vec![1.0, 2.0, 2.0, -0.5]),
                Column::Str(vec!["a".into(), "b".into(), "a".into(), "c".into()]),
            ],
        )
    }

    #[test]
    fn distinct_min_max_per_column() {
        let s = TableStats::compute(&t(), TableVersion { gen: 1, delta: 2 });
        assert_eq!(s.row_count, 4);
        assert_eq!(s.version, TableVersion { gen: 1, delta: 2 });
        assert_eq!(s.columns[0].distinct, 3);
        assert_eq!(s.columns[0].min, Some(1.0));
        assert_eq!(s.columns[0].max, Some(3.0));
        assert_eq!(s.columns[1].distinct, 3);
        assert_eq!(s.columns[1].min, Some(-0.5));
        assert_eq!(s.columns[2].distinct, 3);
        assert_eq!(s.columns[2].min, None);
        assert_eq!(s.columns[2].max, None);
    }

    #[test]
    fn nulls_are_counted_not_distinct() {
        let mut table = Table::empty(Schema::new(&[("x", ColType::Int)]));
        table.push_row(vec![Value::Int(5)], None);
        table.push_row(vec![Value::Null], None);
        table.push_row(vec![Value::Null], None);
        let s = TableStats::compute(&table, TableVersion::default());
        assert_eq!(s.columns[0].distinct, 1);
        assert_eq!(s.columns[0].null_count, 2);
        assert_eq!(s.columns[0].min, Some(5.0));
    }

    #[test]
    fn int_and_float_collapse_to_one_key() {
        let table = Table::from_columns(
            Schema::new(&[("f", ColType::Float)]),
            vec![Column::Float(vec![3.0, 3.0, 0.0, -0.0])],
        );
        let s = TableStats::compute(&table, TableVersion::default());
        // 3.0 and 3.0 collapse; 0.0 and -0.0 collapse: two keys.
        assert_eq!(s.columns[0].distinct, 2);
    }

    #[test]
    fn empty_table_has_empty_ranges() {
        let s = TableStats::compute(
            &Table::empty(Schema::new(&[("x", ColType::Int)])),
            TableVersion::default(),
        );
        assert_eq!(s.row_count, 0);
        assert_eq!(s.columns[0].distinct, 0);
        assert_eq!(s.columns[0].min, None);
    }
}
