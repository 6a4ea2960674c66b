//! Prediction variables: the bridge between the query and the model.
//!
//! Each distinct `(table, row)` a model inference touches during query
//! execution is assigned one [`VarId`] — the paper's *prediction view*
//! entry (Figure 2, step ①). The registry also caches the model's hard
//! prediction for each variable so discrete evaluation is cheap, and
//! remembers where the features came from so downstream crates can compute
//! `∇θ p_c(x_var)` for every variable.
//!
//! Deduplication is by underlying table (not alias), so a self-join sees
//! one variable per record — predicting the same record twice is the same
//! random variable, as the paper's provenance semantics require.

use crate::catalog::Database;
use crate::prov::VarId;
use crate::table::Table;
use std::collections::HashMap;
use std::sync::Arc;

/// Where a prediction variable's features come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredVarInfo {
    /// Catalog name of the base table.
    pub table: String,
    /// Row index within that table.
    pub row: usize,
}

/// Registry of prediction variables created during one query execution.
///
/// The lookup map is keyed table-first so the per-tuple hot path
/// (`var_for` on an existing variable) hashes a borrowed `&str` — no
/// `String` allocation per joined tuple.
///
/// The variable structure (`infos`, lookup map) sits behind [`Arc`]s:
/// cloning a registry — which the incremental refresh path does once per
/// iteration via [`PredVarRegistry::with_preds`] — shares it instead of
/// re-allocating every source string and map node. Mutation through
/// [`PredVarRegistry::var_for`] copy-on-writes only when shared, so
/// ordinary execution never pays for it.
#[derive(Debug, Clone, Default)]
pub struct PredVarRegistry {
    infos: Arc<Vec<PredVarInfo>>,
    map: Arc<HashMap<String, HashMap<usize, VarId>>>,
    preds: Vec<usize>,
}

impl PredVarRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry with the same variables — structurally *shared*, not
    /// copied — and different hard predictions: the per-iteration refresh
    /// registry, built in O(number of variables) with no per-variable
    /// allocation. This is what keeps prediction-variable ids stable
    /// across incremental refreshes: ids are positional in the shared
    /// `infos`, never re-derived from lookup order.
    ///
    /// # Panics
    /// Panics if `preds` does not supply one prediction per variable.
    pub fn with_preds(&self, preds: Vec<usize>) -> Self {
        assert_eq!(
            preds.len(),
            self.infos.len(),
            "one hard prediction per variable"
        );
        PredVarRegistry {
            infos: Arc::clone(&self.infos),
            map: Arc::clone(&self.map),
            preds,
        }
    }

    /// Get-or-create the variable for `(table, row)`; `hard_pred` supplies
    /// the model's argmax prediction on first sight (a closure so callers
    /// only run inference for genuinely new variables).
    pub fn var_for(&mut self, table: &str, row: usize, hard_pred: impl FnOnce() -> usize) -> VarId {
        if let Some(&v) = self.map.get(table).and_then(|rows| rows.get(&row)) {
            return v;
        }
        let id = self.infos.len() as VarId;
        Arc::make_mut(&mut self.infos).push(PredVarInfo {
            table: table.to_string(),
            row,
        });
        Arc::make_mut(&mut self.map)
            .entry(table.to_string())
            .or_default()
            .insert(row, id);
        self.preds.push(hard_pred());
        id
    }

    /// Look up an existing variable without creating one.
    pub fn lookup(&self, table: &str, row: usize) -> Option<VarId> {
        self.map.get(table).and_then(|rows| rows.get(&row)).copied()
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// True when no variables were created.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Hard (argmax) prediction per variable.
    pub fn preds(&self) -> &[usize] {
        &self.preds
    }

    /// Source info per variable.
    pub fn infos(&self) -> &[PredVarInfo] {
        &self.infos
    }

    /// Info for one variable.
    pub fn info(&self, var: VarId) -> &PredVarInfo {
        &self.infos[var as usize]
    }
}

/// The feature rows of a registry's variables, read from a database: what
/// a skeleton's feature matrix and the complaint encoding feed the model.
///
/// A catalog lookup lowercases and hashes the name, so each base table is
/// resolved once — on the first variable over it — and remembered; the
/// rows after that cost a name comparison and a slice.
pub struct FeatureRows<'a> {
    db: &'a Database,
    reg: &'a PredVarRegistry,
    tables: Vec<(&'a str, &'a Table)>,
}

impl<'a> FeatureRows<'a> {
    /// Feature rows of `reg`'s variables in `db`.
    pub fn new(db: &'a Database, reg: &'a PredVarRegistry) -> Self {
        FeatureRows {
            db,
            reg,
            tables: Vec::new(),
        }
    }

    /// The feature row of `var`.
    ///
    /// # Panics
    /// Panics if the variable's table is no longer registered or has no
    /// features (binding checks both before any variable exists).
    pub fn row(&mut self, var: VarId) -> &'a [f64] {
        let info = self.reg.info(var);
        let table = match self.tables.iter().find(|(name, _)| *name == info.table) {
            Some(&(_, table)) => table,
            None => {
                let table = self
                    .db
                    .table(&info.table)
                    .expect("prediction variable over an unregistered table");
                self.tables.push((&info.table, table));
                table
            }
        };
        table
            .feature_row(info.row)
            .expect("prediction variable over a table without features")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variables_are_deduplicated_per_table_row() {
        let mut reg = PredVarRegistry::new();
        let mut calls = 0;
        let a = reg.var_for("mnist", 3, || {
            calls += 1;
            7
        });
        let b = reg.var_for("mnist", 3, || {
            calls += 1;
            9
        });
        assert_eq!(a, b);
        assert_eq!(calls, 1, "inference must run once per variable");
        assert_eq!(reg.preds()[a as usize], 7);
        let c = reg.var_for("mnist", 4, || 1);
        assert_ne!(a, c);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn lookup_does_not_create() {
        let mut reg = PredVarRegistry::new();
        assert_eq!(reg.lookup("t", 0), None);
        let v = reg.var_for("t", 0, || 0);
        assert_eq!(reg.lookup("t", 0), Some(v));
        assert_eq!(
            reg.info(v),
            &PredVarInfo {
                table: "t".into(),
                row: 0
            }
        );
    }

    #[test]
    fn with_preds_shares_structure_and_keeps_ids() {
        let mut reg = PredVarRegistry::new();
        let a = reg.var_for("t", 0, || 0);
        let b = reg.var_for("t", 5, || 1);
        let refreshed = reg.with_preds(vec![1, 0]);
        assert_eq!(refreshed.lookup("t", 0), Some(a));
        assert_eq!(refreshed.lookup("t", 5), Some(b));
        assert_eq!(refreshed.preds(), &[1, 0]);
        assert_eq!(refreshed.infos(), reg.infos());
        // A structurally shared registry can still grow: mutation
        // copy-on-writes and leaves the original untouched.
        let mut grown = refreshed.clone();
        let c = grown.var_for("t", 9, || 2);
        assert_eq!(c, 2);
        assert_eq!(grown.len(), 3);
        assert_eq!(reg.len(), 2, "original untouched");
        assert_eq!(reg.lookup("t", 9), None);
    }

    #[test]
    fn distinct_tables_get_distinct_vars() {
        let mut reg = PredVarRegistry::new();
        let a = reg.var_for("left", 0, || 0);
        let b = reg.var_for("right", 0, || 0);
        assert_ne!(a, b);
    }
}
