//! The micro-benchmark harness behind `cargo bench -p rain-bench`.
//!
//! The paper's figures, tables and theorems are reproduced as asserted
//! orderings in `tests/figures.rs`, not here:
//!
//! ```text
//! cargo test -q -p rain-bench --test figures                                  # quick sizes
//! cargo test --release -q -p rain-bench --test figures -- --include-ignored   # full sizes too
//! ```

pub mod microbench;

pub use microbench::{black_box, is_quick, BenchGroup};
