//! Typed secondary indexes over registered tables.
//!
//! Two kinds, matched to the two predicate shapes the planner
//! ([`cost`](crate::cost)) can turn into index access paths:
//!
//! * [`IndexKind::Hash`] — equality. Postings are keyed by the same
//!   canonical join-key space hash joins use (numerics
//!   by canonical `f64` bits, so `x = 3` and `x = 3.0` hit the same
//!   list; NULL and NaN rows are never indexed, matching `=`'s
//!   NULL-rejecting semantics). Also backs the index-nested-loop join
//!   strategy in [`vexec`](crate::vexec).
//! * [`IndexKind::Sorted`] — ranges over numeric columns (`<`, `<=`,
//!   `>`, `>=`). Entries are `(value, row)` sorted by value; a range
//!   probe is two binary searches. Creation on a string column is
//!   rejected — string ranges stay on the sequential-scan path.
//!
//! Posting lists (and range probe results) are always in ascending row
//! order, which is exactly scan order — so an index access path emits
//! the same rows in the same order as the full scan it replaces, and
//! the differential suites can demand bit-identical output with
//! indexes on and off.
//!
//! Index *definitions* are durable (a commitlog record and a snapshot
//! field, see `rain-storage`); index *data* is derived from table
//! contents by one routine (`TableIndex::extend`): a build is an
//! extension from row 0, an append
//! ([`Database::append_to`](crate::Database::append_to)) extends over the
//! new rows only, and only a re-registration rebuilds from scratch.

use crate::eval::{join_key, JoinKey};
use crate::table::{ColType, Table};
use std::collections::HashMap;

/// Which probe shape an index accelerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Equality probes; backs index-nested-loop joins.
    Hash,
    /// Range probes over numeric columns.
    Sorted,
}

impl IndexKind {
    /// Stable wire/log code (`0` hash, `1` sorted).
    pub fn code(self) -> u8 {
        match self {
            IndexKind::Hash => 0,
            IndexKind::Sorted => 1,
        }
    }

    /// Inverse of [`code`](IndexKind::code).
    pub fn from_code(code: u8) -> Option<IndexKind> {
        match code {
            0 => Some(IndexKind::Hash),
            1 => Some(IndexKind::Sorted),
            _ => None,
        }
    }

    /// Lowercase name, as accepted by the serving layer.
    pub fn as_str(self) -> &'static str {
        match self {
            IndexKind::Hash => "hash",
            IndexKind::Sorted => "sorted",
        }
    }

    /// Inverse of [`as_str`](IndexKind::as_str).
    pub fn parse(s: &str) -> Option<IndexKind> {
        match s {
            "hash" => Some(IndexKind::Hash),
            "sorted" => Some(IndexKind::Sorted),
            _ => None,
        }
    }
}

impl std::fmt::Display for IndexKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A secondary index on one column of one registered table, owned by
/// the catalog entry of that table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableIndex {
    /// Indexed column name (lowercased schema name).
    pub column: String,
    /// Column position in the current schema.
    pub col: usize,
    /// Probe shape.
    pub kind: IndexKind,
    data: IndexData,
}

#[derive(Debug, Clone, PartialEq)]
enum IndexData {
    /// Canonical key → ascending row ids.
    Hash(HashMap<JoinKey, Vec<u32>>),
    /// `(value, row)` sorted by value then row.
    Sorted(Vec<(f64, u32)>),
}

impl TableIndex {
    /// Whether [`TableIndex::build`] would accept these arguments: it
    /// fails only for a sorted index on a string column.
    pub fn check(table: &Table, column: &str, col: usize, kind: IndexKind) -> Result<(), String> {
        if kind == IndexKind::Sorted && table.schema().col(col).ty == ColType::Str {
            return Err(format!(
                "sorted index on string column '{column}' is not supported; \
                 string predicates use the sequential scan path"
            ));
        }
        Ok(())
    }

    /// Build an index over `table`'s column `col`: an empty index
    /// extended from row 0. Fails for a sorted index
    /// on a string column.
    pub fn build(
        table: &Table,
        column: &str,
        col: usize,
        kind: IndexKind,
    ) -> Result<TableIndex, String> {
        TableIndex::check(table, column, col, kind)?;
        Ok(TableIndex::build_checked(table, column, col, kind))
    }

    /// [`TableIndex::build`] on arguments [`TableIndex::check`] accepted.
    pub(crate) fn build_checked(
        table: &Table,
        column: &str,
        col: usize,
        kind: IndexKind,
    ) -> TableIndex {
        let mut ix = TableIndex {
            column: column.to_string(),
            col,
            kind,
            data: match kind {
                IndexKind::Hash => IndexData::Hash(HashMap::new()),
                IndexKind::Sorted => IndexData::Sorted(Vec::new()),
            },
        };
        ix.extend(table, 0);
        ix
    }

    /// Index rows `from_row..` of `table` (the rows an append just added,
    /// or every row for a build). NULL and NaN cells get no entry. Rows
    /// arrive in ascending order, so hash postings stay sorted; sorted
    /// entries are re-sorted by `(value, row)` — a total order over
    /// distinct rows, so the result is the one a build over the whole
    /// table produces.
    pub(crate) fn extend(&mut self, table: &Table, from_row: usize) {
        let column = table.column(self.col);
        let mask = table.null_mask(self.col);
        let keys = (from_row..table.n_rows())
            .filter(|&row| !mask.is_some_and(|m| m[row]))
            .filter_map(|row| Some((join_key(&column.get(row))?, row as u32)));
        match &mut self.data {
            IndexData::Hash(map) => {
                for (key, row) in keys {
                    map.entry(key).or_default().push(row);
                }
            }
            IndexData::Sorted(entries) => {
                entries.extend(keys.filter_map(|(key, row)| match key {
                    JoinKey::Num(bits) => Some((f64::from_bits(bits), row)),
                    JoinKey::Str(_) => None,
                }));
                // Stable sort: the already-sorted prefix is one run, so an
                // extension costs a sort of the new entries plus a merge.
                entries.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
            }
        }
    }

    /// Number of indexed entries (NULL/NaN rows are absent).
    pub fn len(&self) -> usize {
        match &self.data {
            IndexData::Hash(m) => m.values().map(Vec::len).sum(),
            IndexData::Sorted(v) => v.len(),
        }
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ascending rows whose value equals `key` (hash indexes only).
    pub(crate) fn lookup_eq(&self, key: &JoinKey) -> &[u32] {
        match &self.data {
            IndexData::Hash(m) => m.get(key).map_or(&[], Vec::as_slice),
            IndexData::Sorted(_) => &[],
        }
    }

    /// Rows at or after `first_row` whose value lies in `[lo, hi]` (bounds
    /// optional, each inclusive or strict), returned in ascending row
    /// order. Sorted indexes only; a hash index returns an empty set.
    pub(crate) fn lookup_range(
        &self,
        lo: Option<(f64, bool)>,
        hi: Option<(f64, bool)>,
        first_row: u32,
    ) -> Vec<u32> {
        let IndexData::Sorted(entries) = &self.data else {
            return Vec::new();
        };
        let start = match lo {
            None => 0,
            Some((v, inclusive)) => {
                entries.partition_point(|&(x, _)| if inclusive { x < v } else { x <= v })
            }
        };
        let end = match hi {
            None => entries.len(),
            Some((v, inclusive)) => {
                entries.partition_point(|&(x, _)| if inclusive { x <= v } else { x < v })
            }
        };
        let mut rows: Vec<u32> = entries[start..end.max(start)]
            .iter()
            .map(|&(_, row)| row)
            .filter(|&row| row >= first_row)
            .collect();
        // Back to scan order so index scans emit rows exactly like the
        // sequential scan they replace.
        rows.sort_unstable();
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Column, Schema};
    use crate::Value;

    fn t() -> Table {
        Table::from_columns(
            Schema::new(&[("x", ColType::Int), ("s", ColType::Str)]),
            vec![
                Column::Int(vec![5, 1, 5, 3, 1]),
                Column::Str(vec![
                    "b".into(),
                    "a".into(),
                    "b".into(),
                    "c".into(),
                    "a".into(),
                ]),
            ],
        )
    }

    #[test]
    fn hash_postings_are_ascending() {
        let idx = TableIndex::build(&t(), "x", 0, IndexKind::Hash).unwrap();
        assert_eq!(idx.lookup_eq(&join_key(&Value::Int(5)).unwrap()), &[0, 2]);
        assert_eq!(idx.lookup_eq(&join_key(&Value::Int(1)).unwrap()), &[1, 4]);
        assert_eq!(
            idx.lookup_eq(&join_key(&Value::Float(5.0)).unwrap()),
            &[0, 2],
            "5 and 5.0 share one canonical key"
        );
        assert!(idx.lookup_eq(&join_key(&Value::Int(9)).unwrap()).is_empty());
        assert_eq!(idx.len(), 5);
    }

    #[test]
    fn hash_on_strings_works() {
        let idx = TableIndex::build(&t(), "s", 1, IndexKind::Hash).unwrap();
        assert_eq!(
            idx.lookup_eq(&join_key(&Value::Str("a".into())).unwrap()),
            &[1, 4]
        );
    }

    #[test]
    fn sorted_range_probes() {
        let idx = TableIndex::build(&t(), "x", 0, IndexKind::Sorted).unwrap();
        // x < 5
        assert_eq!(idx.lookup_range(None, Some((5.0, false)), 0), vec![1, 3, 4]);
        // x <= 5
        assert_eq!(
            idx.lookup_range(None, Some((5.0, true)), 0),
            vec![0, 1, 2, 3, 4]
        );
        // x > 3
        assert_eq!(idx.lookup_range(Some((3.0, false)), None, 0), vec![0, 2]);
        // x >= 3
        assert_eq!(idx.lookup_range(Some((3.0, true)), None, 0), vec![0, 2, 3]);
        // empty band
        assert!(idx.lookup_range(Some((9.0, true)), None, 0).is_empty());
    }

    #[test]
    fn sorted_on_string_is_rejected() {
        assert!(TableIndex::build(&t(), "s", 1, IndexKind::Sorted).is_err());
    }

    #[test]
    fn nulls_and_nans_are_not_indexed() {
        let mut table = Table::empty(Schema::new(&[("f", ColType::Float)]));
        table.push_row(vec![Value::Float(1.0)], None);
        table.push_row(vec![Value::Null], None);
        table.push_row(vec![Value::Float(f64::NAN)], None);
        table.push_row(vec![Value::Float(1.0)], None);
        let hash = TableIndex::build(&table, "f", 0, IndexKind::Hash).unwrap();
        assert_eq!(hash.len(), 2);
        let sorted = TableIndex::build(&table, "f", 0, IndexKind::Sorted).unwrap();
        assert_eq!(sorted.lookup_range(None, None, 0), vec![0, 3]);
    }

    #[test]
    fn kind_codes_round_trip() {
        for kind in [IndexKind::Hash, IndexKind::Sorted] {
            assert_eq!(IndexKind::from_code(kind.code()), Some(kind));
            assert_eq!(IndexKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(IndexKind::from_code(7), None);
        assert_eq!(IndexKind::parse("btree"), None);
    }
}
