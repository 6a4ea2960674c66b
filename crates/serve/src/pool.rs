//! The session pool: named, long-lived debugging sessions.
//!
//! Each session owns a full [`DebugSession`] (queried `Database`, training
//! `Dataset`, model, attached complaints) plus its private
//! [`QueryCache`] of prepared skeletons. A session's state sits behind one
//! `Mutex`: concurrent requests against the *same* session serialize (the
//! catalog, cache, and training set are one consistent unit), while
//! requests against *different* sessions run fully in parallel — there is
//! no shared lock on the request path beyond the brief pool-map read.
//!
//! A `generation` counter on each slot records every observable mutation
//! (table registration, training upload, complaint, completed debug run).
//! It is monotonic under the mutex, which makes per-session serialization
//! externally checkable: N concurrent mutations always land N distinct
//! generations. Cache statistics are mirrored into atomics after each
//! cache-touching request so `GET /stats` never has to queue behind a
//! long-running debug job for a session lock.

use crate::protocol::ApiError;
use rain_core::driver::{DebugReport, DebugSession, RunConfig};
use rain_core::rank::Method;
use rain_obs::Sketch;
use rain_sql::{CacheStats, Engine, QueryCache};
use rain_storage::SessionStore;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

/// Default query/iteration sampling period: 1-in-16 (see
/// [`SessionSlot::should_sample`]). Always-on by default; `0` disables.
pub const DEFAULT_SAMPLE_EVERY: u64 = 16;
/// Default slow-capture threshold in milliseconds: queries slower than
/// this are force-captured into the slow-profile ring even when the
/// sampler skipped them.
pub const DEFAULT_SLOW_MS: u64 = 500;

/// Everything a session's mutex guards.
pub struct SessionState {
    /// The library session: database + training set + model + queries.
    pub sess: DebugSession,
    /// Prepared-skeleton cache for this session's SQL.
    pub cache: QueryCache,
    /// The most recent completed debug report, if any.
    pub last_report: Option<DebugReport>,
    /// When the session is durable (the server was started with a data
    /// dir): its verbatim creation JSON, which recovery rebuilds the model
    /// from, and the commitlog + snapshots behind it.
    pub store: Option<(String, SessionStore)>,
}

/// Lock-free mirror of a durable session's storage counters, refreshed
/// after each logged mutation so `GET /stats` and `GET /metrics` never
/// take session locks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageCounters {
    /// Durable commitlog size, bytes.
    pub log_bytes: u64,
    /// Durable records in the commitlog.
    pub log_records: u64,
    /// Snapshots cut (including the one recovery loaded, if any).
    pub snapshots: u64,
    /// Unix milliseconds of the last snapshot cut by this process.
    pub last_snapshot_unix_ms: u64,
    /// Log bytes accumulated behind the latest snapshot.
    pub snapshot_lag_bytes: u64,
}

/// One named session: its mutex-guarded state plus lock-free metadata.
pub struct SessionSlot {
    /// Session name (the URL path segment).
    pub name: String,
    /// The session's worker budget, fixed at creation (`threads` on
    /// `POST /sessions`; `0` = the machine's parallelism): every capture,
    /// refresh and debug run in this session works under it.
    pub threads: usize,
    state: Mutex<SessionState>,
    /// Observes how long callers block acquiring the session mutex, when
    /// the server wires its metrics registry in.
    lock_wait: Option<Arc<Sketch>>,
    /// Monotonic mutation counter (see the module docs).
    generation: AtomicU64,
    /// Lock-free mirror of the cache counters, refreshed after each
    /// cache-touching request.
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_invalidations: AtomicU64,
    cache_extended: AtomicU64,
    /// Sampling period for always-on profiling: every Nth query (and
    /// debug-run iteration) is traced into the profile ring. `0` = off:
    /// never sample (explicitly — the modulo path is not consulted).
    sample_every: AtomicU64,
    /// Slow-capture threshold in milliseconds (force-capture latency).
    /// `0` = force-capture *everything* (explicitly — not as an accident
    /// of every latency exceeding a zero threshold).
    slow_ms: AtomicU64,
    /// Queries seen so far — drives the 1-in-N sampling decision.
    query_seq: AtomicU64,
    /// Whether this session writes a commitlog (fixed at creation).
    durable: bool,
    /// Whether this slot was rebuilt from disk at boot (re-attachable via
    /// `POST /sessions` without a 409).
    recovered: bool,
    /// Lock-free mirror of the store's counters (see
    /// [`SessionSlot::publish_storage_stats`]).
    log_bytes: AtomicU64,
    log_records: AtomicU64,
    snapshots: AtomicU64,
    last_snapshot_ms: AtomicU64,
    snapshot_lag: AtomicU64,
}

impl std::fmt::Debug for SessionSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionSlot")
            .field("name", &self.name)
            .field("generation", &self.generation())
            .finish_non_exhaustive()
    }
}

impl SessionSlot {
    /// Build a slot around an assembled session — fresh and recovered
    /// sessions both land here, so a recovered slot behaves exactly like a
    /// live one. `store` is a durable session's creation spec and store.
    fn from_session(
        name: String,
        sess: DebugSession,
        threads: usize,
        lock_wait: Option<Arc<Sketch>>,
        store: Option<(String, SessionStore)>,
        recovered: bool,
    ) -> Self {
        let durable = store.is_some();
        let slot = SessionSlot {
            name,
            threads,
            state: Mutex::new(SessionState {
                sess,
                // The cache works under the session's budget — the same
                // one debug runs use.
                cache: QueryCache::new(Engine::Vectorized).with_threads(threads),
                last_report: None,
                store,
            }),
            lock_wait,
            generation: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_invalidations: AtomicU64::new(0),
            cache_extended: AtomicU64::new(0),
            sample_every: AtomicU64::new(DEFAULT_SAMPLE_EVERY),
            slow_ms: AtomicU64::new(DEFAULT_SLOW_MS),
            query_seq: AtomicU64::new(0),
            durable,
            recovered,
            log_bytes: AtomicU64::new(0),
            log_records: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            last_snapshot_ms: AtomicU64::new(0),
            snapshot_lag: AtomicU64::new(0),
        };
        if let Some((_, store)) = &slot.state.lock().unwrap_or_else(|p| p.into_inner()).store {
            slot.publish_storage_stats(store);
        }
        slot
    }

    /// Whether this slot was rebuilt from disk at boot.
    pub fn recovered(&self) -> bool {
        self.recovered
    }

    /// Mirror the store's counters into the lock-free snapshot; call
    /// while holding (or just before releasing) the state lock, after
    /// each logged mutation.
    pub fn publish_storage_stats(&self, store: &SessionStore) {
        self.log_bytes.store(store.log_bytes(), Ordering::Relaxed);
        self.log_records
            .store(store.log_records(), Ordering::Relaxed);
        self.snapshots
            .store(store.snapshots_taken(), Ordering::Relaxed);
        self.last_snapshot_ms
            .store(store.last_snapshot_unix_ms(), Ordering::Relaxed);
        self.snapshot_lag
            .store(store.snapshot_lag_bytes(), Ordering::Relaxed);
    }

    /// The lock-free storage-counter snapshot; `None` for ephemeral
    /// sessions.
    pub fn storage_snapshot(&self) -> Option<StorageCounters> {
        self.durable.then(|| StorageCounters {
            log_bytes: self.log_bytes.load(Ordering::Relaxed),
            log_records: self.log_records.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            last_snapshot_unix_ms: self.last_snapshot_ms.load(Ordering::Relaxed),
            snapshot_lag_bytes: self.snapshot_lag.load(Ordering::Relaxed),
        })
    }

    /// Configure always-on profiling for this session: trace 1-in-`every`
    /// queries/iterations (`0` disables sampling) and force-capture
    /// anything slower than `slow_ms` milliseconds (`0` force-captures
    /// everything).
    pub fn set_sampling(&self, every: u64, slow_ms: u64) {
        self.sample_every.store(every, Ordering::Relaxed);
        self.slow_ms.store(slow_ms, Ordering::Relaxed);
    }

    /// The session's sampling period (`0` = sampling off).
    pub fn sample_every(&self) -> u64 {
        self.sample_every.load(Ordering::Relaxed)
    }

    /// The session's slow-capture threshold, in milliseconds.
    pub fn slow_ms(&self) -> u64 {
        self.slow_ms.load(Ordering::Relaxed)
    }

    /// The session's slow-capture threshold, in seconds.
    pub fn slow_threshold_s(&self) -> f64 {
        self.slow_ms.load(Ordering::Relaxed) as f64 / 1e3
    }

    /// Whether a request of `latency_s` seconds must be force-captured
    /// into the slow-profile ring. `slow_ms == 0` means "capture
    /// everything" **by decision**, not because every latency happens to
    /// clear a zero threshold — zero-duration captures (a clock that
    /// returned the same instant twice) are included either way.
    pub fn is_slow_capture(&self, latency_s: f64) -> bool {
        let ms = self.slow_ms.load(Ordering::Relaxed);
        ms == 0 || latency_s >= ms as f64 / 1e3
    }

    /// Sampling decision for the next query: true on the first query and
    /// every `sample_every`-th after it. `sample_every == 0` means
    /// "never sample" — decided before the sequence counter or its
    /// modulo are consulted (`x % 0` panics), so the knob is an explicit
    /// off switch, not an accident of guard ordering.
    pub fn should_sample(&self) -> bool {
        let every = self.sample_every.load(Ordering::Relaxed);
        if every == 0 {
            return false;
        }
        self.query_seq
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(every)
    }

    /// Lock the session's state. Survives a poisoned mutex (a panicking
    /// job must not brick the session: state mutations are all
    /// whole-value swaps, so the state stays consistent).
    pub fn lock(&self) -> MutexGuard<'_, SessionState> {
        let t = self.lock_wait.as_ref().map(|_| Instant::now());
        let guard = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if let (Some(h), Some(t)) = (&self.lock_wait, t) {
            h.observe(t.elapsed().as_secs_f64());
        }
        guard
    }

    /// Record one observable mutation, returning the new generation.
    pub fn bump_generation(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Mutations so far.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Mirror the cache counters into the lock-free snapshot; call while
    /// holding (or just before releasing) the state lock.
    pub fn publish_cache_stats(&self, stats: CacheStats) {
        self.cache_hits.store(stats.hits, Ordering::Relaxed);
        self.cache_misses.store(stats.misses, Ordering::Relaxed);
        self.cache_invalidations
            .store(stats.invalidations, Ordering::Relaxed);
        self.cache_extended.store(stats.extended, Ordering::Relaxed);
    }

    /// The lock-free cache-counter snapshot.
    pub fn cache_stats_snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.cache_hits.load(Ordering::Relaxed),
            misses: self.cache_misses.load(Ordering::Relaxed),
            invalidations: self.cache_invalidations.load(Ordering::Relaxed),
            extended: self.cache_extended.load(Ordering::Relaxed),
        }
    }

    /// Execute one debug run against this session through its skeleton
    /// cache ([`DebugSession::run_cached`]): a second run over the same
    /// complaints starts from cache hits, and the run works under the
    /// session's worker budget (the cache's).
    pub fn run_debug(&self, method: Method, cfg: &RunConfig) -> Result<DebugReport, ApiError> {
        let mut st = self.lock();
        let st = &mut *st;
        if st.sess.train.is_empty() {
            return Err(ApiError::bad_request(
                "session has no training data; POST …/train first",
            ));
        }
        if st.sess.queries.is_empty() {
            return Err(ApiError::bad_request(
                "session has no complaints; POST …/complain first",
            ));
        }
        let run = st.sess.run_cached(method, cfg, &mut st.cache);
        // Published on every exit path — a failed run still moved cache
        // counters.
        self.publish_cache_stats(st.cache.stats());
        let report = run?;
        st.last_report = Some(report.clone());
        self.bump_generation();
        Ok(report)
    }
}

/// The pool: name → session slot. The map itself is behind an `RwLock`
/// held only for lookups/creation — request handling happens on the
/// slot's own mutex, outside the map lock.
#[derive(Default)]
pub struct SessionPool {
    slots: RwLock<HashMap<String, Arc<SessionSlot>>>,
    /// Handed to every created slot; see [`SessionSlot::lock`].
    lock_wait: Option<Arc<Sketch>>,
    /// Cache counters of removed sessions, folded in by
    /// [`SessionPool::remove`] so the pool-wide totals
    /// ([`SessionPool::cache_totals`]) stay monotonic across session
    /// churn. Locked *before* the slot map on both the fold and the total
    /// paths — that ordering is what makes a concurrent scrape see either
    /// the live slot or its retired counters, never neither.
    retired: Mutex<CacheStats>,
    /// Names held by a create in flight ([`SessionPool::reserve`]) or a
    /// removal clearing its directory ([`SessionPool::remove`]). A name is
    /// in the slot map or here, never both: it moves between the two under
    /// the map's write lock. Locked after the slot map, and never across
    /// I/O.
    creating: Mutex<HashSet<String>>,
}

/// A session name held by [`SessionPool::reserve`] until
/// [`Reservation::insert`] adds the session, or until the reservation is
/// dropped (the create failed, or the removal that took the name out of
/// the pool is done with it) and the name is free again.
pub struct Reservation<'a> {
    pool: &'a SessionPool,
    name: String,
}

impl Reservation<'_> {
    /// Add the session `sess` under the reserved name, with a worker
    /// budget of `threads` (`0` = the machine's parallelism). `store`
    /// makes it durable: its verbatim creation spec and its store, whose
    /// commitlog already holds the session-meta record. A `recovered`
    /// slot (rebuilt from disk at boot) answers `POST /sessions` against
    /// its name by re-attaching (200) instead of conflicting.
    pub fn insert(
        mut self,
        sess: DebugSession,
        threads: usize,
        store: Option<(String, SessionStore)>,
        recovered: bool,
    ) -> Arc<SessionSlot> {
        let slot = Arc::new(SessionSlot::from_session(
            self.name.clone(),
            sess,
            threads,
            self.pool.lock_wait.clone(),
            store,
            recovered,
        ));
        // Into the map and out of `creating` under one write lock, so
        // every other pool call sees the name in exactly one of the two.
        let mut slots = self.pool.slots.write().unwrap_or_else(|p| p.into_inner());
        slots.insert(self.name.clone(), Arc::clone(&slot));
        self.release();
        slot
    }

    /// Free the name, once: an inserted reservation has already moved it
    /// into the map, and its drop must not release a later holder's.
    fn release(&mut self) {
        let name = std::mem::take(&mut self.name);
        if !name.is_empty() {
            self.pool
                .creating
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .remove(&name);
        }
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

/// Session names must be path-segment safe (and therefore safe as an
/// on-disk directory component — no separators, no `..`): 400 otherwise.
fn check_session_name(name: &str) -> Result<(), ApiError> {
    let valid = !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.');
    if valid {
        Ok(())
    } else {
        Err(ApiError::bad_request(
            "session names are 1-64 chars of [a-zA-Z0-9._-]",
        ))
    }
}

impl SessionPool {
    /// Empty pool.
    pub fn new() -> Self {
        SessionPool::default()
    }

    /// Empty pool whose sessions observe mutex acquisition time into
    /// `lock_wait` (the server wires its
    /// `rain_session_lock_wait_seconds` sketch here).
    pub fn with_lock_wait(lock_wait: Arc<Sketch>) -> Self {
        SessionPool {
            lock_wait: Some(lock_wait),
            ..SessionPool::default()
        }
    }

    /// Hold `name` for one create: while the [`Reservation`] lives, every
    /// other `reserve` of the name answers 409, as does one of a name
    /// already in the pool. The map lock is held only for the check, so a
    /// create opens its store directory (file create + fsync) unlocked,
    /// and a create that loses a race never touches that directory. 400
    /// on an invalid name.
    pub fn reserve(&self, name: &str) -> Result<Reservation<'_>, ApiError> {
        check_session_name(name)?;
        let slots = self.slots.read().unwrap_or_else(|p| p.into_inner());
        let mut creating = self.creating.lock().unwrap_or_else(|p| p.into_inner());
        if slots.contains_key(name) || !creating.insert(name.to_string()) {
            return Err(ApiError::conflict(format!(
                "session '{name}' already exists"
            )));
        }
        Ok(Reservation {
            pool: self,
            name: name.to_string(),
        })
    }

    /// Look up a session. 404 when missing.
    pub fn get(&self, name: &str) -> Result<Arc<SessionSlot>, ApiError> {
        self.slots
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(name)
            .cloned()
            .ok_or_else(|| ApiError::not_found(format!("no session '{name}'")))
    }

    /// Drop a session. In-flight requests holding the slot's `Arc` finish
    /// against the detached state. 404 when missing.
    ///
    /// The name leaves the map held: it moves into the names of creates in
    /// flight in the same step, and the returned [`Reservation`] keeps it
    /// there — a `reserve` of it answers 409 — until dropped. The server
    /// drops it after deleting the session's directory, so a create of the
    /// same name cannot open its store in a directory about to go.
    ///
    /// The slot's final cache counters fold into the pool's retired
    /// totals under the `retired` lock *before* the slot leaves the map,
    /// so [`SessionPool::cache_totals`] (and with it `GET /metrics`)
    /// never regresses across a removal. Counter movement a detached
    /// in-flight request publishes after this point is not totaled —
    /// invisible growth, never a decrease.
    pub fn remove(&self, name: &str) -> Result<Reservation<'_>, ApiError> {
        let mut retired = self.retired.lock().unwrap_or_else(|p| p.into_inner());
        let mut slots = self.slots.write().unwrap_or_else(|p| p.into_inner());
        let slot = slots
            .remove(name)
            .ok_or_else(|| ApiError::not_found(format!("no session '{name}'")))?;
        self.creating
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(name.to_string());
        drop(slots);
        *retired += slot.cache_stats_snapshot();
        Ok(Reservation {
            pool: self,
            name: name.to_string(),
        })
    }

    /// Pool-wide cache totals: retired sessions plus every live slot's
    /// snapshot, read under the `retired` lock so a concurrent
    /// [`SessionPool::remove`] can't be double- or zero-counted. The
    /// result is monotonic over time (per-slot counters only grow, and
    /// removal folds them into `retired` atomically w.r.t. this read).
    pub fn cache_totals(&self) -> CacheStats {
        let retired = self.retired.lock().unwrap_or_else(|p| p.into_inner());
        let mut total = *retired;
        for slot in self
            .slots
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .values()
        {
            total += slot.cache_stats_snapshot();
        }
        total
    }

    /// Snapshot of all slots, in name order.
    pub fn list(&self) -> Vec<Arc<SessionSlot>> {
        let mut slots: Vec<Arc<SessionSlot>> = self
            .slots
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .values()
            .cloned()
            .collect();
        slots.sort_by(|a, b| a.name.cmp(&b.name));
        slots
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.slots.read().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// True when no session exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rain_model::LogisticRegression;

    fn session() -> DebugSession {
        DebugSession::for_model(Box::new(LogisticRegression::new(2, 0.01)))
    }

    /// Add an ephemeral session under an automatic worker budget.
    fn add(pool: &SessionPool, name: &str) -> Result<Arc<SessionSlot>, ApiError> {
        Ok(pool.reserve(name)?.insert(session(), 0, None, false))
    }

    #[test]
    fn a_reserved_name_conflicts_until_inserted_or_dropped() {
        let pool = SessionPool::new();
        let held = pool.reserve("x").unwrap();
        assert_eq!(pool.reserve("x").err().map(|e| e.status), Some(409));
        assert_eq!(pool.get("x").unwrap_err().status, 404, "not live yet");
        drop(held);
        pool.reserve("x").unwrap().insert(session(), 0, None, false);
        assert_eq!(pool.reserve("x").err().map(|e| e.status), Some(409));
        assert_eq!(pool.reserve("bad/name").err().map(|e| e.status), Some(400));
    }

    #[test]
    fn a_removed_name_is_held_until_its_reservation_drops() {
        let pool = SessionPool::new();
        add(&pool, "x").unwrap();
        let held = pool.remove("x").unwrap();
        assert_eq!(pool.get("x").unwrap_err().status, 404, "gone from the pool");
        assert_eq!(pool.reserve("x").err().map(|e| e.status), Some(409));
        assert_eq!(pool.remove("x").err().map(|e| e.status), Some(404));
        drop(held);
        pool.reserve("x").unwrap().insert(session(), 0, None, false);
        // The inserted reservation released the name once; removing the
        // session holds it again until that guard drops.
        let held = pool.remove("x").unwrap();
        assert_eq!(pool.reserve("x").err().map(|e| e.status), Some(409));
        drop(held);
        add(&pool, "x").unwrap();
    }

    #[test]
    fn create_get_remove_lifecycle() {
        let pool = SessionPool::new();
        assert!(pool.is_empty());
        add(&pool, "alpha").unwrap();
        assert_eq!(add(&pool, "alpha").unwrap_err().status, 409);
        assert_eq!(add(&pool, "no/slash").unwrap_err().status, 400);
        assert_eq!(add(&pool, "").unwrap_err().status, 400);
        assert_eq!(pool.get("alpha").unwrap().name, "alpha");
        assert_eq!(pool.get("beta").unwrap_err().status, 404);
        add(&pool, "beta").unwrap();
        let names: Vec<String> = pool.list().iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, ["alpha", "beta"]);
        pool.remove("alpha").unwrap();
        assert_eq!(pool.remove("alpha").err().map(|e| e.status), Some(404));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn session_exec_config_drives_the_cache_and_caps_run_threads() {
        let pool = SessionPool::new();
        let slot = pool
            .reserve("capped")
            .unwrap()
            .insert(session(), 2, None, false);
        // The skeleton cache — and through `run_debug` every run — works
        // under the session's one budget.
        assert_eq!(slot.threads, 2);
        assert_eq!(slot.lock().cache.threads(), 2);

        let uncapped = add(&pool, "open").unwrap();
        assert_eq!(uncapped.threads, 0);
        assert_eq!(uncapped.lock().cache.threads(), 0);
    }

    #[test]
    fn generations_count_mutations_exactly_once_each() {
        let pool = SessionPool::new();
        let slot = add(&pool, "s").unwrap();
        assert_eq!(slot.generation(), 0);
        let gens: Vec<u64> = (0..5).map(|_| slot.bump_generation()).collect();
        assert_eq!(gens, [1, 2, 3, 4, 5]);
        assert_eq!(slot.generation(), 5);
    }

    #[test]
    fn failed_checkout_returns_earlier_skeletons_to_the_cache() {
        use rain_core::complaint::{Complaint, QuerySpec};
        use rain_linalg::Matrix;
        use rain_sql::table::{ColType, Column, Schema, Table};

        let pool = SessionPool::new();
        let slot = add(&pool, "s").unwrap();
        {
            let mut st = slot.lock();
            let t = Table::from_columns(
                Schema::new(&[("id", ColType::Int)]),
                vec![Column::Int(vec![0, 1, 2, 3])],
            )
            .with_features(Matrix::from_rows(&[
                &[1.0, 0.0],
                &[1.0, 1.0],
                &[-1.0, 0.0],
                &[-1.0, -1.0],
            ]));
            st.sess.db.register("t", t);
            st.sess.train = rain_model::Dataset::new(
                Matrix::from_rows(&[&[1.0, 0.0], &[-1.0, 0.0]]),
                vec![1, 0],
                2,
            );
            st.sess.queries = vec![
                QuerySpec::new("SELECT COUNT(*) FROM t WHERE predict(*) = 1")
                    .with_complaint(Complaint::scalar_eq(2.0)),
                QuerySpec::new("SELECT COUNT(*) FROM missing")
                    .with_complaint(Complaint::scalar_eq(1.0)),
            ];
        }
        // The second query's checkout fails (unknown table); the first
        // query's freshly prepared skeleton must land back in the cache.
        let err = slot
            .run_debug(Method::Loss, &RunConfig::paper(2))
            .unwrap_err();
        assert_eq!(err.status, 400);
        let st = slot.lock();
        assert_eq!(st.cache.len(), 1, "checked-out skeleton was not returned");
        // Both lookups missed (the broken query misses before its
        // prepare fails); only the first produced a resident entry.
        assert_eq!(st.cache.stats().misses, 2);
        drop(st);

        // Drop the broken query: the retained skeleton is a warm hit.
        slot.lock().sess.queries.truncate(1);
        slot.run_debug(Method::Loss, &RunConfig::paper(2)).unwrap();
        assert!(slot.cache_stats_snapshot().hits >= 1);
    }

    #[test]
    fn removal_folds_cache_counters_into_monotonic_totals() {
        let pool = SessionPool::new();
        let a = add(&pool, "a").unwrap();
        let b = add(&pool, "b").unwrap();
        a.publish_cache_stats(CacheStats {
            hits: 5,
            misses: 2,
            invalidations: 1,
            extended: 1,
        });
        b.publish_cache_stats(CacheStats {
            hits: 3,
            misses: 4,
            invalidations: 0,
            extended: 0,
        });
        let before = pool.cache_totals();
        assert_eq!(
            (
                before.hits,
                before.misses,
                before.invalidations,
                before.extended
            ),
            (8, 6, 1, 1)
        );
        // Removing a session must not regress the pool-wide totals.
        pool.remove("a").unwrap();
        let after = pool.cache_totals();
        assert_eq!(before, after, "totals regressed across removal");
        // A second removal folds on top of the first.
        pool.remove("b").unwrap();
        assert_eq!(pool.cache_totals(), before);
        // New sessions add to the retired baseline.
        let c = add(&pool, "c").unwrap();
        c.publish_cache_stats(CacheStats {
            hits: 1,
            ..CacheStats::default()
        });
        assert_eq!(pool.cache_totals().hits, 9);
    }

    #[test]
    fn sample_every_zero_means_never_sample() {
        // Regression: `{"sample_every": 0}` must be an explicit off
        // switch — decided before the sequence counter's modulo path
        // (`x % 0` panics), and stable over any number of queries.
        let pool = SessionPool::new();
        let slot = add(&pool, "s").unwrap();
        slot.set_sampling(0, DEFAULT_SLOW_MS);
        assert!(!(0..1000).any(|_| slot.should_sample()), "0 samples none");
        // Re-enabling works; the first sampled query comes immediately
        // (the off window never consumed sequence numbers).
        slot.set_sampling(1, DEFAULT_SLOW_MS);
        assert!(slot.should_sample());
    }

    #[test]
    fn slow_ms_zero_means_force_capture_everything() {
        // Regression: `{"slow_ms": 0}` must capture every request by
        // decision — including zero-latency ones — not by the accident
        // of `latency >= 0.0` holding for non-negative clocks.
        let pool = SessionPool::new();
        let slot = add(&pool, "s").unwrap();
        slot.set_sampling(DEFAULT_SAMPLE_EVERY, 0);
        assert!(slot.is_slow_capture(0.0), "zero latency still captures");
        assert!(slot.is_slow_capture(12.5));
        // A non-zero threshold is a real threshold again.
        slot.set_sampling(DEFAULT_SAMPLE_EVERY, 500);
        assert!(!slot.is_slow_capture(0.499));
        assert!(slot.is_slow_capture(0.5));
        assert!(!slot.is_slow_capture(0.0));
    }

    #[test]
    fn sampling_defaults_on_and_is_configurable() {
        let pool = SessionPool::new();
        let slot = add(&pool, "s").unwrap();
        assert_eq!(slot.sample_every(), DEFAULT_SAMPLE_EVERY);
        assert!((slot.slow_threshold_s() - DEFAULT_SLOW_MS as f64 / 1e3).abs() < 1e-12);
        // 1-in-N: the first query samples, then every Nth.
        let hits: usize = (0..32).filter(|_| slot.should_sample()).count();
        assert_eq!(hits, 2, "32 queries at 1-in-16 sample twice");
        slot.set_sampling(1, 10);
        assert!((0..10).all(|_| slot.should_sample()), "1-in-1 samples all");
        slot.set_sampling(0, 10);
        assert!(!(0..10).any(|_| slot.should_sample()), "0 disables");
    }

    #[test]
    fn debug_run_without_data_is_a_client_error() {
        let pool = SessionPool::new();
        let slot = add(&pool, "s").unwrap();
        let err = slot
            .run_debug(Method::Loss, &RunConfig::paper(4))
            .unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("training data"));
    }
}
