//! The Query 2.0 substrate: storage, SQL, execution, and provenance.
//!
//! This crate implements everything the Rain paper assumes from its
//! database layer (§3.1, §5.1, §5.3), structured as a four-stage query
//! stack — `parser → binder → optimizer → executor`:
//!
//! - columnar [`table::Table`]s with row-aligned feature matrices for
//!   in-database model inference, registered in a [`catalog`] that issues
//!   stable table ids,
//! - a hand-written SQL [`parser`] for the SPJA dialect with
//!   `predict(alias)` model predicates,
//! - a [`binder`] that resolves names against the catalog (aliases,
//!   scoped contexts, typed [`BindError`]s) into a [`BoundStatement`],
//! - an [`optimize()`]r in two phases — rule-based rewrites (constant
//!   folding, predicate pushdown, projection pruning, all
//!   provenance-preserving) and a **cost-based phase** ([`cost`]) that
//!   picks the cheapest left-deep join order and index access paths
//!   from catalog [`stats`] — lowering to a physical
//!   [`plan::QueryPlan`],
//! - typed **secondary indexes** ([`index`]) on registered columns —
//!   hash for equality, sorted for ranges — backing index scans and
//!   index-nested-loop joins with output bit-identical to the full-scan
//!   paths,
//! - two execution engines behind one [`exec::execute`] entry point: the
//!   default **vectorized columnar engine** ([`vexec`] — selection-vector
//!   scans with typed predicate kernels, hash joins over column slices,
//!   struct-of-arrays joined tuples, and **morsel-parallel** scans and
//!   join probes behind [`ExecOptions::threads`]) and the tuple-at-a-time
//!   oracle it is differentially tested against, both sharing one
//!   evaluation core so results and provenance are bit-identical at every
//!   thread count,
//! - **provenance polynomials** ([`prov`]) over prediction variables,
//!   captured during debug-mode execution, and their **differentiable
//!   relaxation** with reverse-mode gradients — the machinery behind the
//!   Holistic approach and the input to TwoStep's ILP encoding,
//! - an **incremental re-execution subsystem** ([`incremental`]):
//!   [`prepare`] captures a query's model-independent skeleton once and
//!   [`PreparedQuery::refresh`] re-assembles the full debug-mode output
//!   under new model parameters from one batched inference — bit-identical
//!   to a fresh execution, at a fraction of the cost, which is what the
//!   train–rank–fix loop re-executes through each iteration,
//! - a **prepared-skeleton cache** ([`cache::QueryCache`]) keyed by
//!   normalized SQL and validated against catalog versions — the serving
//!   layer's warm path, with hit/miss/invalidation counters and
//!   transparent re-prepare on invalidation.
//!
//! # Example
//!
//! ```
//! use rain_sql::{Database, ExecOptions, run_query};
//! use rain_sql::table::{ColType, Column, Schema, Table};
//! use rain_linalg::Matrix;
//! use rain_model::{Classifier, LogisticRegression};
//!
//! // A tiny table of two rows with 1-D features.
//! let table = Table::from_columns(
//!     Schema::new(&[("id", ColType::Int)]),
//!     vec![Column::Int(vec![10, 11])],
//! )
//! .with_features(Matrix::from_rows(&[&[1.0], &[-1.0]]));
//! let mut db = Database::new();
//! db.register("users", table);
//!
//! // A fixed model: predicts class 1 iff the feature is positive.
//! let mut model = LogisticRegression::new(1, 0.0);
//! model.set_params(&[10.0, 0.0]);
//!
//! let out = run_query(
//!     &db,
//!     &model,
//!     "SELECT COUNT(*) FROM users WHERE predict(*) = 1",
//!     ExecOptions::debug(),
//! )
//! .unwrap();
//! assert_eq!(out.scalar().value(), Some(rain_sql::Value::Int(1)));
//! // Debug mode captured a provenance polynomial over 2 prediction vars.
//! assert_eq!(out.predvars.len(), 2);
//! ```

pub mod ast;
pub mod binder;
pub mod cache;
pub mod catalog;
pub mod cost;
mod eval;
pub mod exec;
pub mod incremental;
pub mod index;
pub mod lexer;
pub mod optimize;
pub mod parser;
pub mod plan;
pub mod predvar;
pub mod printer;
pub mod prov;
pub mod stats;
pub mod table;
pub mod value;
pub mod vexec;

pub use ast::{AggFunc, ArithOp, CmpOp, Expr, SelectItem, SelectStmt, TableRef};
pub use binder::{bind, BExpr, BindError, Binder, BoundStatement};
pub use cache::{CacheEvent, CacheStats, CachedQuery, QueryCache};
pub use catalog::{ColumnRef, Database, TableId, TableVersion};
pub use exec::{
    execute, resolve_threads, run_query, run_stmt, Engine, ExecOptions, QueryOutput, ScalarResult,
    MAX_EXEC_THREADS,
};
pub use incremental::{prepare, prepare_with, PreparedQuery, SkeletonStats, StaleKind};
pub use index::{IndexKind, TableIndex};
pub use lexer::SqlError;
pub use optimize::{optimize, optimize_with, OptimizerConfig};
pub use parser::parse_select;
pub use plan::{AccessPath, JoinAlgo, ModelDeps, PlanEstimates, QueryPlan};
pub use predvar::{FeatureRows, PredVarInfo, PredVarRegistry};
pub use prov::{AggSum, AggTerm, BoolProv, CellProv, ProbGrad, Probs, VarId};
pub use stats::{ColumnStats, TableStats};
pub use value::Value;

/// Errors from parsing, binding, or executing a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Lexical or syntactic error.
    Parse(SqlError),
    /// Name-resolution, typing, or validation error (see [`BindError`]).
    Bind(BindError),
    /// Runtime error.
    Exec(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "parse error: {e}"),
            QueryError::Bind(e) => write!(f, "bind error: {e}"),
            QueryError::Exec(msg) => write!(f, "execution error: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Bind(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BindError> for QueryError {
    fn from(e: BindError) -> Self {
        QueryError::Bind(e)
    }
}
