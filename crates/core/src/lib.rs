//! # Rain core: complaint-driven training data debugging for Query 2.0
//!
//! This crate is the paper's primary contribution: given a SQL query that
//! embeds model inference, a database, a training set, and user
//! *complaints* about the query's output, find the minimum set of training
//! records whose deletion would resolve the complaints (Definition 3.2).
//!
//! The pieces, mirroring Figure 2 of the paper:
//!
//! - [`complaint`] — value / tuple / prediction complaints and query specs.
//! - [`qfunc`] — complaints → differentiable `q(θ)` over relaxed
//!   provenance, with gradients chained through the model (Holistic's
//!   encoding, §5.3; also used by TwoStep's influence step).
//! - [`twostep`] — the ILP SQL step of §5.2 (presolve + Tseitin + branch
//!   and bound), producing marked mispredictions.
//! - [`rank`](mod@rank) — the four ranking methods (`Loss`, `InfLoss`, `TwoStep`,
//!   `Holistic`) plus the §5.1 `Auto` heuristic.
//! - [`driver`] — the train–rank–fix loop and reporting.
//! - [`durable`] — one commit path for every logged session change
//!   (check → log → apply → snapshot) and boot-time recovery (see
//!   `rain_storage`).
//! - [`metrics`] — recall@k and AUCCR (§6.1.5).
//!
//! ## Example: debugging a corrupted entity-resolution model
//!
//! ```
//! use rain_core::prelude::*;
//! use rain_data::dblp::DblpConfig;
//! use rain_data::flip_labels_where;
//! use rain_model::LogisticRegression;
//! use rain_sql::Database;
//!
//! // Workload with systematic corruption: 50% of match labels flipped.
//! let w = DblpConfig::small().generate(7);
//! let mut train = w.train.clone();
//! let truth = flip_labels_where(&mut train, |_, _, y| y == 1, 0.5, |_| 0, 7);
//!
//! let mut db = Database::new();
//! db.register("pairs", w.query_table());
//!
//! let session = DebugSession::new(
//!     db,
//!     train,
//!     Box::new(LogisticRegression::new(17, 0.01)),
//! )
//! .with_query(
//!     QuerySpec::new("SELECT COUNT(*) FROM pairs WHERE predict(*) = 1")
//!         .with_complaint(Complaint::scalar_eq(w.true_match_count() as f64)),
//! );
//!
//! let report = session
//!     .run(Method::Holistic, &RunConfig::paper(truth.len().min(30)))
//!     .unwrap();
//! let recall = report.recall_curve(&truth);
//! assert!(*recall.last().unwrap() > 0.0);
//! ```

pub mod complaint;
pub mod driver;
pub mod durable;
pub mod metrics;
pub mod qfunc;
pub mod rank;
pub mod twostep;

pub use complaint::{Complaint, QuerySpec, ValueOp};
pub use driver::{DebugReport, DebugSession, IterStats, RunConfig};
pub use metrics::{auccr, recall_curve};
pub use rank::{rank, Method, RankContext, RankError, Ranking};
pub use twostep::{sql_step, SqlStep, SqlStepConfig};

/// Convenience re-exports for downstream users.
pub mod prelude {
    pub use crate::complaint::{Complaint, QuerySpec, ValueOp};
    pub use crate::driver::{DebugReport, DebugSession, RunConfig};
    pub use crate::rank::Method;
}
