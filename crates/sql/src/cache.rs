//! Plan + skeleton cache for repeat queries: the serving layer's warm
//! path.
//!
//! An interactive complaint-debugging service sees the same SQL text over
//! and over — the analyst re-runs a query after every fix, and every
//! debug-run iterates over the same complained-about statements. All of
//! the model-independent work (parse → bind → optimize → skeleton
//! capture) is a pure function of the SQL and the catalog state, so a
//! [`QueryCache`] memoizes it: entries are keyed by **normalized SQL**
//! (parse + canonical re-print, so whitespace/case/paren variants share
//! one entry) and validated against the **catalog versions** recorded in
//! the cached [`PreparedQuery`] skeleton. A hit turns a full debug
//! execution into a [`PreparedQuery::refresh`]; a stale entry is counted
//! as an invalidation and transparently brought current — extended over
//! the appended rows when only its plan's first relation grew, a single
//! table or a join's outer one ([`PreparedQuery::catch_up`]), re-planned
//! and re-prepared from the SQL otherwise (an append to a join's inner
//! relation, a re-registered table, a new index).
//!
//! The cache is deliberately single-threaded: a server shards one cache
//! per session behind the session's mutex, which is what lets unrelated
//! sessions execute in parallel without a shared lock.

use crate::catalog::Database;
use crate::exec::{Engine, QueryOutput};
use crate::incremental::{prepare_with, PreparedQuery};
use crate::optimize::optimize;
use crate::QueryError;
use rain_model::Classifier;
use std::collections::HashMap;

/// Monotonic counters describing a cache's life so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered by a cached, still-valid skeleton.
    pub hits: u64,
    /// Lookups for SQL never seen (normalized) before.
    pub misses: u64,
    /// Lookups that found a stale skeleton — a queried table appended to,
    /// re-registered or newly indexed since capture — and brought it
    /// current on the spot.
    pub invalidations: u64,
    /// The subset of `invalidations` answered by extending the skeleton
    /// over appended rows instead of re-preparing it.
    pub extended: u64,
}

impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
        self.extended += other.extended;
    }
}

/// What one cache lookup did, surfaced to clients in query responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEvent {
    /// Valid cached skeleton reused.
    Hit,
    /// No entry; planned and prepared from scratch.
    Miss,
    /// Entry existed but was stale; extended over appended rows, or
    /// re-planned and re-prepared.
    Invalidated,
}

impl CacheEvent {
    /// Wire/debug label.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheEvent::Hit => "hit",
            CacheEvent::Miss => "miss",
            CacheEvent::Invalidated => "invalidated",
        }
    }
}

/// A cache entry checked out for exclusive use (e.g. for the iterations
/// of a debug run); return it with [`QueryCache::checkin`].
#[derive(Debug)]
pub struct CachedQuery {
    /// Normalized-SQL cache key.
    pub key: String,
    /// The (fresh or cached) prepared skeleton.
    pub prepared: PreparedQuery,
    /// What the lookup did.
    pub event: CacheEvent,
}

/// A prepared-skeleton cache keyed by normalized SQL, validated against
/// catalog versions. See the module docs.
#[derive(Debug)]
pub struct QueryCache {
    engine: Engine,
    /// Worker budget for captures and refreshes issued through this
    /// cache (`0` = auto, `1` = sequential) — a per-session parallelism
    /// cap in the serving layer.
    threads: usize,
    entries: HashMap<String, PreparedQuery>,
    stats: CacheStats,
}

impl QueryCache {
    /// An empty cache capturing skeletons on `engine`, with an automatic
    /// worker budget.
    pub fn new(engine: Engine) -> Self {
        QueryCache {
            engine,
            threads: 0,
            entries: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// The same cache with an explicit worker budget for its captures
    /// and refreshes (`0` = auto, `1` = sequential).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The cache's worker budget (`0` = auto).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The canonical cache key of a SQL string: parse + re-print, so any
    /// two statements with the same syntax tree share an entry.
    pub fn normalize(sql: &str) -> Result<String, QueryError> {
        let stmt = crate::parser::parse_select(sql).map_err(QueryError::Parse)?;
        Ok(crate::printer::stmt_to_sql(&stmt))
    }

    /// Check out the prepared skeleton for `sql`, preparing on a miss and
    /// transparently catching up on invalidation: an entry whose plan's
    /// first relation alone grew is extended in place, keeping its plan
    /// ([`PreparedQuery::can_extend`]); any other stale entry is
    /// re-planned from the SQL, so even schema-changing re-registrations
    /// recover and a new index gets costed. The entry is *removed* from
    /// the cache until [`QueryCache::checkin`] returns it — callers hold
    /// it across a whole debug run's refreshes. Captures run under the
    /// cache's worker budget.
    pub fn checkout(
        &mut self,
        db: &Database,
        model: &dyn Classifier,
        sql: &str,
    ) -> Result<CachedQuery, QueryError> {
        let mut span = rain_obs::Span::enter("cache-checkout");
        let key = Self::normalize(sql)?;
        let entry = self.entries.remove(&key);
        let fresh = entry.as_ref().is_some_and(|p| !p.is_stale(db));
        span.add("hit", fresh as u64);
        let event = match entry {
            Some(prepared) if fresh => {
                self.stats.hits += 1;
                return Ok(CachedQuery {
                    key,
                    prepared,
                    event: CacheEvent::Hit,
                });
            }
            Some(mut prepared) => {
                self.stats.invalidations += 1;
                if prepared.can_extend(db, model) {
                    prepared.catch_up(db, model, self.threads)?;
                    self.stats.extended += 1;
                    return Ok(CachedQuery {
                        key,
                        prepared,
                        event: CacheEvent::Invalidated,
                    });
                }
                CacheEvent::Invalidated
            }
            None => {
                self.stats.misses += 1;
                CacheEvent::Miss
            }
        };
        let stmt = crate::parser::parse_select(sql).map_err(QueryError::Parse)?;
        let bound = crate::binder::bind(&stmt, db)?;
        let plan = optimize(bound, db);
        let prepared = prepare_with(db, model, &plan, self.engine, self.threads)?;
        Ok(CachedQuery {
            key,
            prepared,
            event,
        })
    }

    /// Return a checked-out entry to the cache.
    pub fn checkin(&mut self, cq: CachedQuery) {
        self.entries.insert(cq.key, cq.prepared);
    }

    /// Execute `sql` in debug mode through the cache: checkout → refresh →
    /// checkin. Repeat queries skip planning and skeleton capture
    /// entirely and pay only the model refresh.
    pub fn execute(
        &mut self,
        db: &Database,
        model: &dyn Classifier,
        sql: &str,
    ) -> Result<(QueryOutput, CacheEvent), QueryError> {
        let cq = self.checkout(db, model, sql)?;
        let out = cq.prepared.refresh(db, model, self.threads)?;
        let event = cq.event;
        self.checkin(cq);
        Ok((out, event))
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of resident (checked-in) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every resident entry (counted as invalidations).
    pub fn clear(&mut self) {
        self.stats.invalidations += self.entries.len() as u64;
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ColType, Column, Schema, Table};
    use rain_linalg::Matrix;
    use rain_model::{Classifier, LogisticRegression};

    fn db_with(vals: Vec<i64>) -> Database {
        let feats: Vec<Vec<f64>> = vals.iter().map(|&v| vec![v as f64 - 1.5]).collect();
        let refs: Vec<&[f64]> = feats.iter().map(|r| r.as_slice()).collect();
        let t = Table::from_columns(
            Schema::new(&[("id", ColType::Int)]),
            vec![Column::Int(vals)],
        )
        .with_features(Matrix::from_rows(&refs));
        let mut db = Database::new();
        db.register("t", t);
        db
    }

    fn model() -> LogisticRegression {
        let mut m = LogisticRegression::new(1, 0.0);
        m.set_params(&[10.0, 0.0]);
        m
    }

    #[test]
    fn normalization_merges_spelling_variants() {
        let a = QueryCache::normalize("SELECT COUNT(*) FROM t WHERE predict(*) = 1").unwrap();
        let b = QueryCache::normalize("select  count(*)  from T where (predict(*)) = 1").unwrap();
        assert_eq!(a, b);
        assert!(QueryCache::normalize("SELECT FROM").is_err());
    }

    #[test]
    fn hits_misses_and_results() {
        let db = db_with(vec![0, 1, 2, 3]);
        let m = model();
        let mut cache = QueryCache::new(Engine::Vectorized);
        let sql = "SELECT COUNT(*) FROM t WHERE predict(*) = 1";

        let (out, ev) = cache.execute(&db, &m, sql).unwrap();
        assert_eq!(ev, CacheEvent::Miss);
        assert_eq!(out.scalar().unwrap(), crate::Value::Int(2));

        // Same statement, different spelling: a hit on the same entry.
        let (out2, ev2) = cache
            .execute(&db, &m, "select count(*) from T where (predict(*)) = 1")
            .unwrap();
        assert_eq!(ev2, CacheEvent::Hit);
        assert_eq!(out2.scalar().unwrap(), crate::Value::Int(2));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn hit_output_matches_fresh_execution() {
        let db = db_with(vec![0, 1, 2, 3, 4, 5]);
        let m = model();
        let mut cache = QueryCache::new(Engine::Vectorized);
        let sql = "SELECT id FROM t WHERE predict(*) = 1 AND id < 5";
        let (first, _) = cache.execute(&db, &m, sql).unwrap();
        let (second, ev) = cache.execute(&db, &m, sql).unwrap();
        assert_eq!(ev, CacheEvent::Hit);
        assert_eq!(first.table.to_tsv(), second.table.to_tsv());
        assert_eq!(first.row_prov, second.row_prov);
        assert_eq!(first.predvars.preds(), second.predvars.preds());
    }

    #[test]
    fn reregistration_invalidates_and_reprepares() {
        let mut db = db_with(vec![0, 1, 2, 3]);
        let m = model();
        let mut cache = QueryCache::new(Engine::Vectorized);
        let sql = "SELECT COUNT(*) FROM t WHERE predict(*) = 1";
        cache.execute(&db, &m, sql).unwrap();

        // Replace the queried table: the cached skeleton is now stale.
        let replacement = db_with(vec![0, 1, 2, 3, 4, 5]);
        db.register("t", replacement.table("t").unwrap().clone());
        let (out, ev) = cache.execute(&db, &m, sql).unwrap();
        assert_eq!(ev, CacheEvent::Invalidated);
        assert_eq!(out.scalar().unwrap(), crate::Value::Int(4));
        assert_eq!(cache.stats().invalidations, 1);

        // The re-prepared entry is warm again.
        let (_, ev) = cache.execute(&db, &m, sql).unwrap();
        assert_eq!(ev, CacheEvent::Hit);
    }

    #[test]
    fn checkout_holds_entry_across_refreshes() {
        let db = db_with(vec![0, 1, 2, 3]);
        let m = model();
        let mut cache = QueryCache::new(Engine::Vectorized);
        let sql = "SELECT COUNT(*) FROM t WHERE predict(*) = 1";
        let cq = cache.checkout(&db, &m, sql).unwrap();
        assert_eq!(cq.event, CacheEvent::Miss);
        assert!(cache.is_empty(), "checked-out entry is not resident");
        // Multiple refreshes on the checked-out skeleton (a debug run).
        for _ in 0..3 {
            let out = cq.prepared.refresh(&db, &m, 0).unwrap();
            assert_eq!(out.scalar().unwrap(), crate::Value::Int(2));
        }
        cache.checkin(cq);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.checkout(&db, &m, sql).unwrap().event, CacheEvent::Hit);
    }

    #[test]
    fn clear_counts_invalidations() {
        let db = db_with(vec![0, 1]);
        let m = model();
        let mut cache = QueryCache::new(Engine::Vectorized);
        cache.execute(&db, &m, "SELECT COUNT(*) FROM t").unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidations, 1);
    }
}
