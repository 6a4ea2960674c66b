//! The database catalog: stable table ids, typed schemas, name lookup.
//!
//! The catalog is the binder's source of truth. Every registered table gets
//! a stable [`TableId`]; the binder resolves names once, and from then on
//! the planner and executor address tables by id — no string lookups on the
//! hot path. Columns are addressed by a [`ColumnRef`] (table id + ordinal),
//! with names and types carried by the table's [`Schema`](crate::table::Schema).

use crate::index::{IndexKind, TableIndex};
use crate::stats::TableStats;
use crate::table::{ColType, ColumnDef, Table};
use crate::value::Value;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Stable identifier of a registered table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

impl std::fmt::Display for TableId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Two-part data version of a catalog entry.
///
/// `gen` counts full replacements (re-registering a name swaps the table
/// wholesale, so row identities from before the bump are meaningless).
/// `delta` counts row appends within the current generation: identities of
/// pre-existing rows survive, only new rows arrived. Everything derived
/// from a table keys on the pair: prepared query skeletons record it at
/// build time and, on mismatch, rebuild from scratch when `gen` moved but
/// only scan the appended rows when `delta` did
/// ([`PreparedQuery::catch_up`](crate::PreparedQuery::catch_up),
/// [`StaleKind`](crate::StaleKind)); the entry's statistics are cached per
/// version; its indexes grow in place with `delta`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct TableVersion {
    /// Full-replacement generation (bumped by [`Database::register`] on an
    /// existing name).
    pub gen: u64,
    /// Append sequence within the generation (bumped by
    /// [`Database::append_to`], reset to 0 on replacement).
    pub delta: u64,
}

impl std::fmt::Display for TableVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}d{}", self.gen, self.delta)
    }
}

/// A fully resolved column: owning table plus ordinal position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Owning table.
    pub table: TableId,
    /// Ordinal position within the table's schema.
    pub index: u32,
}

/// A catalog entry: the table plus its registration metadata.
#[derive(Debug, Clone)]
pub struct TableEntry {
    /// Stable id (survives re-registration under the same name).
    pub id: TableId,
    /// Lowercase catalog name.
    pub name: String,
    /// Data version: `gen` bumps on re-registration, `delta` on appends.
    /// Cached artifacts keyed on row identity (e.g. prepared query
    /// skeletons) record it at build time and revalidate before reuse.
    pub version: TableVersion,
    /// The table itself.
    pub table: Table,
    /// Statistics for the cost-based planner: a cache for the current
    /// `version`, emptied by every mutation and filled by the first
    /// [`TableEntry::stats`] call after it.
    stats: OnceLock<TableStats>,
    /// Secondary indexes, always current: extended over the new rows by an
    /// append, rebuilt by a re-registration. At most one per
    /// `(column, kind)` pair.
    pub indexes: Vec<TableIndex>,
}

impl TableEntry {
    /// Exact statistics of the table as it is now, stamped with the live
    /// version. Computed on the first call after a mutation (the planner,
    /// or `GET …/stats`) — an append nobody plans against never pays for
    /// them.
    pub fn stats(&self) -> &TableStats {
        self.stats
            .get_or_init(|| TableStats::compute(&self.table, self.version))
    }

    /// Rebuild every index after the table was replaced. Definitions
    /// survive as long as the column still exists with a compatible type;
    /// otherwise the index is dropped (a sorted index on a now-string
    /// column cannot be rebuilt).
    fn rebuild_indexes(&mut self) {
        let table = &self.table;
        self.indexes = std::mem::take(&mut self.indexes)
            .into_iter()
            .filter_map(|ix| {
                let col = table.schema().index_of(&ix.column)?;
                TableIndex::build(table, &ix.column, col, ix.kind).ok()
            })
            .collect();
    }
}

/// A named collection of tables (the queried database `D` of the paper).
#[derive(Debug, Clone, Default)]
pub struct Database {
    entries: Vec<TableEntry>,
    by_name: HashMap<String, usize>,
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Register (or replace) a table under a lowercase name, returning its
    /// stable id. Replacing an existing name keeps the original id, so
    /// bound plans survive data refreshes as long as the schema matches.
    pub fn register(&mut self, name: &str, table: Table) -> TableId {
        let name = name.to_ascii_lowercase();
        match self.by_name.get(&name) {
            Some(&slot) => {
                let entry = &mut self.entries[slot];
                entry.table = table;
                entry.version.gen += 1;
                entry.version.delta = 0;
                entry.stats.take();
                entry.rebuild_indexes();
                entry.id
            }
            None => {
                let slot = self.entries.len();
                let id = TableId(slot as u32);
                self.by_name.insert(name.clone(), slot);
                self.entries.push(TableEntry {
                    id,
                    name,
                    version: TableVersion::default(),
                    table,
                    stats: OnceLock::new(),
                    indexes: Vec::new(),
                });
                id
            }
        }
    }

    /// Register a table with an explicit version, as part of restoring a
    /// previously-persisted catalog (snapshot load / log replay). Behaves
    /// like [`Database::register`] but pins the entry's version instead of
    /// bumping it, so the restored catalog is bit-identical to the one
    /// that was persisted.
    pub fn register_with_version(
        &mut self,
        name: &str,
        table: Table,
        version: TableVersion,
    ) -> TableId {
        let id = self.register(name, table);
        // `register` left the stats cache empty, so nothing was stamped
        // with the version it bumped to.
        self.entries[id.0 as usize].version = version;
        id
    }

    /// Append rows (and optionally row-aligned feature vectors) to a table
    /// in place, bumping its `delta` version. Row identities of existing
    /// tuples survive — this is the cheap ingestion path that lets cached
    /// skeletons distinguish "grown" from "replaced".
    ///
    /// All rows are validated ([`Database::validate_append`]) before any
    /// mutation, so an `Err` leaves the catalog untouched.
    pub fn append_to(
        &mut self,
        name: &str,
        rows: Vec<Vec<Value>>,
        features: Option<Vec<Vec<f64>>>,
    ) -> Result<(TableId, TableVersion), String> {
        let id = self.validate_append(name, &rows, features.as_deref())?;
        Ok(self.apply_append(id, rows, features))
    }

    /// The validate-only half of [`Database::append_to`]: does the table
    /// exist, and does the batch fit it (arity, cell types, feature
    /// presence and width)? Durable sessions run this, then log, then
    /// [`Database::apply_append`], so a batch that reaches the log always
    /// applies.
    pub fn validate_append(
        &self,
        name: &str,
        rows: &[Vec<Value>],
        features: Option<&[Vec<f64>]>,
    ) -> Result<TableId, String> {
        let entry = self.entry_or_err(name)?;
        validate_append(&entry.table, rows, features)?;
        Ok(entry.id)
    }

    /// The apply-only half of [`Database::append_to`], for a batch that
    /// [`Database::validate_append`] just accepted for table `id`; panics
    /// on one it would have rejected.
    pub fn apply_append(
        &mut self,
        id: TableId,
        rows: Vec<Vec<Value>>,
        features: Option<Vec<Vec<f64>>>,
    ) -> (TableId, TableVersion) {
        let entry = &mut self.entries[id.0 as usize];
        let old_rows = entry.table.n_rows();
        entry.table.append_rows(rows, features.as_deref());
        entry.version.delta += 1;
        entry.stats.take();
        for ix in &mut entry.indexes {
            ix.extend(&entry.table, old_rows);
        }
        (id, entry.version)
    }

    fn entry_or_err(&self, name: &str) -> Result<&TableEntry, String> {
        self.entry(name)
            .ok_or_else(|| format!("unknown table {}", name.to_ascii_lowercase()))
    }

    /// Create (or rebuild) a secondary index on `table.column`. Replaces
    /// an existing index of the same `(column, kind)`; fails for unknown
    /// tables/columns and for sorted indexes on string columns. Returns
    /// the table id and the number of indexed entries.
    pub fn create_index(
        &mut self,
        table: &str,
        column: &str,
        kind: IndexKind,
    ) -> Result<(TableId, usize), String> {
        let (id, col) = self.validate_index(table, column, kind)?;
        Ok(self.apply_index(id, col, kind))
    }

    /// The validate-only half of [`Database::create_index`]: the table and
    /// column exist and the column's type supports an index of `kind`.
    /// Returns the table's id and the column's ordinal.
    pub fn validate_index(
        &self,
        table: &str,
        column: &str,
        kind: IndexKind,
    ) -> Result<(TableId, usize), String> {
        let entry = self.entry_or_err(table)?;
        let column = column.to_ascii_lowercase();
        let col = entry
            .table
            .schema()
            .index_of(&column)
            .ok_or_else(|| format!("table {} has no column {column}", entry.name))?;
        TableIndex::check(&entry.table, &column, col, kind)?;
        Ok((entry.id, col))
    }

    /// The apply-only half of [`Database::create_index`], on the table id
    /// and column ordinal [`Database::validate_index`] just returned for
    /// `kind`; it cannot fail.
    pub fn apply_index(&mut self, id: TableId, col: usize, kind: IndexKind) -> (TableId, usize) {
        let entry = &mut self.entries[id.0 as usize];
        let column = entry.table.schema().col(col).name.clone();
        let ix = TableIndex::build_checked(&entry.table, &column, col, kind);
        let entries = ix.len();
        entry
            .indexes
            .retain(|other| !(other.column == column && other.kind == kind));
        entry.indexes.push(ix);
        (id, entries)
    }

    /// The index of a given kind on `(table, column ordinal)`, if one
    /// exists. This is the executor's probe point: access paths resolve
    /// lazily against the live catalog, so a plan that references a
    /// since-dropped index falls back to a sequential scan.
    pub fn index_on(&self, id: TableId, col: usize, kind: IndexKind) -> Option<&TableIndex> {
        self.entries[id.0 as usize]
            .indexes
            .iter()
            .find(|ix| ix.col == col && ix.kind == kind)
    }

    /// Planner statistics for a table id ([`TableEntry::stats`]).
    ///
    /// # Panics
    /// Panics if the id was not issued by this database.
    pub fn stats_of(&self, id: TableId) -> &TableStats {
        self.entries[id.0 as usize].stats()
    }

    /// Number of secondary indexes on a table id. Cached plans record it:
    /// an index created since is an access path they were costed without.
    ///
    /// # Panics
    /// Panics if the id was not issued by this database.
    pub(crate) fn index_count(&self, id: TableId) -> usize {
        self.entries[id.0 as usize].indexes.len()
    }

    /// Full two-part data version of a table id.
    ///
    /// # Panics
    /// Panics if the id was not issued by this database.
    pub fn table_version(&self, id: TableId) -> TableVersion {
        self.entries[id.0 as usize].version
    }

    /// Look up a table by case-insensitive name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.entry(name).map(|e| &e.table)
    }

    /// Resolve a case-insensitive name to a table id.
    pub fn resolve(&self, name: &str) -> Option<TableId> {
        self.entry(name).map(|e| e.id)
    }

    /// Full entry for a case-insensitive name.
    pub fn entry(&self, name: &str) -> Option<&TableEntry> {
        self.by_name
            .get(&name.to_ascii_lowercase())
            .map(|&i| &self.entries[i])
    }

    /// Table addressed by id.
    ///
    /// # Panics
    /// Panics if the id was not issued by this database.
    pub fn table_by_id(&self, id: TableId) -> &Table {
        &self.entries[id.0 as usize].table
    }

    /// Catalog name of a table id.
    ///
    /// # Panics
    /// Panics if the id was not issued by this database.
    pub fn name_of(&self, id: TableId) -> &str {
        &self.entries[id.0 as usize].name
    }

    /// Column definition for a resolved column reference.
    ///
    /// # Panics
    /// Panics if the reference was not issued by this database.
    pub fn column(&self, col: ColumnRef) -> &ColumnDef {
        self.table_by_id(col.table).schema().col(col.index as usize)
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no table is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over `(name, table)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Table)> {
        self.entries.iter().map(|e| (&e.name, &e.table))
    }

    /// Iterate over full catalog entries in registration order.
    pub fn entries(&self) -> impl Iterator<Item = &TableEntry> {
        self.entries.iter()
    }
}

/// Check an append batch against a table without mutating anything:
/// arity, cell-type compatibility (the coercions [`Column::push`] accepts,
/// plus NULL anywhere), and feature presence/width.
fn validate_append(
    table: &Table,
    rows: &[Vec<Value>],
    features: Option<&[Vec<f64>]>,
) -> Result<(), String> {
    let schema = table.schema();
    let want_feat = table.features().is_some() || (table.n_rows() == 0 && features.is_some());
    match (want_feat, features) {
        (true, None) => {
            return Err("table carries features; append must supply them".into());
        }
        (false, Some(_)) => {
            return Err("table has no feature matrix; append must not supply features".into());
        }
        _ => {}
    }
    if let Some(feats) = features {
        if feats.len() != rows.len() {
            return Err(format!(
                "feature batch has {} rows, value batch has {}",
                feats.len(),
                rows.len()
            ));
        }
        let width = table
            .features()
            .map(|m| m.cols())
            .or_else(|| feats.first().map(|f| f.len()))
            .unwrap_or(0);
        for (i, f) in feats.iter().enumerate() {
            if f.len() != width {
                return Err(format!(
                    "feature row {i} has width {}, expected {width}",
                    f.len()
                ));
            }
        }
    }
    for (i, row) in rows.iter().enumerate() {
        if row.len() != schema.len() {
            return Err(format!(
                "row {i} has {} values, schema has {} columns",
                row.len(),
                schema.len()
            ));
        }
        for (def, v) in schema.iter().zip(row) {
            let ok = matches!(
                (def.ty, v),
                (_, Value::Null)
                    | (ColType::Bool, Value::Bool(_))
                    | (ColType::Int, Value::Int(_) | Value::Bool(_))
                    | (ColType::Float, Value::Float(_) | Value::Int(_))
                    | (ColType::Str, Value::Str(_))
            );
            if !ok {
                return Err(format!(
                    "row {i}: value {v:?} does not fit {:?} column {}",
                    def.ty, def.name
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ColType, Column, Schema};

    fn ints(name: &str, vals: Vec<i64>) -> Table {
        Table::from_columns(
            Schema::new(&[(name, ColType::Int)]),
            vec![Column::Int(vals)],
        )
    }

    #[test]
    fn register_and_lookup() {
        let mut db = Database::new();
        db.register("Users", ints("x", vec![1, 2, 3]));
        assert!(db.table("users").is_some());
        assert!(db.table("USERS").is_some());
        assert!(db.table("logins").is_none());
        assert_eq!(db.table("users").unwrap().n_rows(), 3);
    }

    #[test]
    fn ids_are_stable_across_replacement() {
        let mut db = Database::new();
        let a = db.register("a", ints("x", vec![1]));
        let b = db.register("b", ints("x", vec![2]));
        assert_ne!(a, b);
        // Replacing keeps the id; data is swapped.
        let a2 = db.register("A", ints("x", vec![7, 8]));
        assert_eq!(a, a2);
        assert_eq!(db.table_by_id(a).n_rows(), 2);
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn versions_bump_on_replacement() {
        let mut db = Database::new();
        let a = db.register("a", ints("x", vec![1]));
        assert_eq!(db.table_version(a), TableVersion { gen: 0, delta: 0 });
        db.register("a", ints("x", vec![1, 2]));
        assert_eq!(
            db.table_version(a),
            TableVersion { gen: 1, delta: 0 },
            "replacement bumps the generation"
        );
        let b = db.register("b", ints("x", vec![3]));
        assert_eq!(
            db.table_version(b),
            TableVersion { gen: 0, delta: 0 },
            "fresh names start at g0d0"
        );
    }

    #[test]
    fn appends_bump_delta_and_replacement_resets_it() {
        let mut db = Database::new();
        let a = db.register("a", ints("x", vec![1]));
        let (id, v) = db
            .append_to("A", vec![vec![Value::Int(2)], vec![Value::Int(3)]], None)
            .unwrap();
        assert_eq!(id, a);
        assert_eq!(v, TableVersion { gen: 0, delta: 1 });
        assert_eq!(db.table_by_id(a).n_rows(), 3);
        assert_eq!(db.table_by_id(a).value(2, 0), Value::Int(3));
        db.register("a", ints("x", vec![9]));
        assert_eq!(
            db.table_version(a),
            TableVersion { gen: 1, delta: 0 },
            "replacement resets the delta sequence"
        );
    }

    #[test]
    fn append_validates_before_mutating() {
        let mut db = Database::new();
        let a = db.register("a", ints("x", vec![1]));
        // Second row is bad: the whole batch must be rejected atomically.
        let err = db
            .append_to(
                "a",
                vec![vec![Value::Int(2)], vec![Value::Str("no".into())]],
                None,
            )
            .unwrap_err();
        assert!(err.contains("row 1"), "unexpected error: {err}");
        assert_eq!(db.table_by_id(a).n_rows(), 1, "failed append is atomic");
        assert_eq!(db.table_version(a), TableVersion::default());
        assert!(db.append_to("missing", vec![], None).is_err());
        let err = db.append_to("a", vec![vec![]], None).unwrap_err();
        assert!(err.contains("0 values"), "unexpected error: {err}");
        let err = db
            .append_to("a", vec![vec![Value::Int(1)]], Some(vec![vec![1.0]]))
            .unwrap_err();
        assert!(err.contains("no feature matrix"), "unexpected error: {err}");
    }

    #[test]
    fn append_with_features_and_nulls() {
        use rain_linalg::Matrix;
        let mut db = Database::new();
        let t = ints("x", vec![1, 2]).with_features(Matrix::from_rows(&[&[0.5], &[1.5]]));
        let a = db.register("a", t);
        db.append_to("a", vec![vec![Value::Null]], Some(vec![vec![2.5]]))
            .unwrap();
        let t = db.table_by_id(a);
        assert_eq!(t.n_rows(), 3);
        assert!(t.is_null(2, 0));
        assert_eq!(t.feature_row(2), Some(&[2.5][..]));
        // Missing features on a featured table is rejected.
        assert!(db.append_to("a", vec![vec![Value::Int(4)]], None).is_err());
        // Wrong width too.
        assert!(db
            .append_to("a", vec![vec![Value::Int(4)]], Some(vec![vec![1.0, 2.0]]))
            .is_err());
    }

    #[test]
    fn register_with_version_pins_versions() {
        let mut db = Database::new();
        let v = TableVersion { gen: 4, delta: 7 };
        let a = db.register_with_version("a", ints("x", vec![1]), v);
        assert_eq!(db.table_version(a), v);
    }

    /// NULL, NaN, and `3` / `3.0` cells: the keys indexes and distinct
    /// counts have to treat specially.
    fn tricky_rows(seed: i64, n: i64) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| {
                vec![match (seed + i) % 5 {
                    0 => Value::Null,
                    1 => Value::Float(f64::NAN),
                    2 => Value::Int(3),
                    3 => Value::Float(3.0),
                    _ => Value::Float((seed * 7 + i) as f64 / 2.0),
                }]
            })
            .collect()
    }

    fn floats(rows: Vec<Vec<Value>>) -> Table {
        let mut t = Table::empty(Schema::new(&[("f", ColType::Float)]));
        t.append_rows(rows, None);
        t
    }

    #[test]
    fn stats_are_exact_current_and_computed_once_per_version() {
        use crate::stats::COMPUTE_CALLS;
        let calls = || COMPUTE_CALLS.with(|c| c.get());
        let mut db = Database::new();
        let mut versions_read = 0;
        // Every interleaving of the three mutations, three deep.
        for code in 0..27 {
            for step in 0..3 {
                let rows = tricky_rows(code + step, 4 + step);
                let before = calls();
                let id = match (code / 3i64.pow(step as u32)) % 3 {
                    0 => db.register("t", floats(rows)),
                    1 if db.resolve("t").is_some() => db.append_to("t", rows, None).unwrap().0,
                    1 => db.register("t", floats(rows)),
                    _ => {
                        let v = TableVersion {
                            gen: 40 + code as u64,
                            delta: step as u64,
                        };
                        db.register_with_version("t", floats(rows), v)
                    }
                };
                assert_eq!(calls(), before, "a mutation must not compute stats");
                // Read on some steps only, so versions go by unread too.
                if (code + step) % 2 == 0 {
                    let want = TableStats::compute(db.table_by_id(id), db.table_version(id));
                    let before = calls();
                    assert_eq!(db.stats_of(id), &want, "code {code} step {step}");
                    assert_eq!(db.stats_of(id).version, db.table_version(id));
                    assert_eq!(db.entry("t").unwrap().stats(), &want);
                    assert_eq!(calls() - before, 1, "one computation per version read");
                    versions_read += 1;
                }
            }
        }
        assert!(versions_read > 30);
    }

    #[test]
    fn indexes_extended_by_appends_equal_a_build_on_the_final_table() {
        for n_appends in 1..6 {
            let mut db = Database::new();
            let id = db.register("t", floats(tricky_rows(n_appends, 7)));
            db.create_index("t", "f", IndexKind::Hash).unwrap();
            db.create_index("t", "f", IndexKind::Sorted).unwrap();
            for i in 0..n_appends {
                // Includes an empty batch and values sorting before,
                // between and after the ones already indexed.
                db.append_to("t", tricky_rows(i * 3 - 4, i % 3 * 5), None)
                    .unwrap();
            }
            let table = db.table_by_id(id);
            for kind in [IndexKind::Hash, IndexKind::Sorted] {
                let grown = db.index_on(id, 0, kind).unwrap();
                let built = TableIndex::build(table, "f", 0, kind).unwrap();
                assert_eq!(grown, &built, "{kind} after {n_appends} appends");
                assert_eq!(grown.len(), built.len());
            }
        }
    }

    #[test]
    fn resolve_and_column_metadata() {
        let mut db = Database::new();
        let id = db.register("t", ints("score", vec![5]));
        assert_eq!(db.resolve("T"), Some(id));
        assert_eq!(db.resolve("missing"), None);
        assert_eq!(db.name_of(id), "t");
        let col = ColumnRef {
            table: id,
            index: 0,
        };
        assert_eq!(db.column(col).name, "score");
        assert_eq!(db.column(col).ty, ColType::Int);
    }
}
