//! Morsel-driven parallelism: deterministic work sharding for the
//! vectorized operators.
//!
//! A *morsel* is a contiguous range of work items — base-table rows for a
//! scan, accumulated tuples for a join probe. Workers (plain
//! `std::thread::scope` threads; per-row model passes fan out by work
//! instead, see `rain_model::par`) pull morsel indices off one atomic
//! counter, so load balances dynamically, but every morsel's *output* is
//! written into its own pre-allocated slot and the caller concatenates
//! the slots **in morsel order**. That makes parallel execution
//! bit-identical to sequential execution by construction: the merged
//! stream is the same rows in the same order no matter how many workers
//! ran or how they interleaved — which is what keeps the vectorized
//! engine's determinism guarantee (rows *and* provenance equal to the
//! tuple oracle) intact at every thread count.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Work items per morsel. A multiple of the scan batch size so a morsel
/// always holds whole batches; small enough that medium inputs still
/// split across workers, large enough that the per-morsel atomic claim
/// is noise.
pub(crate) const MORSEL_SIZE: usize = 4 * super::batch::BATCH_SIZE;

/// Inputs below this many items run sequentially even when a thread
/// budget is available — thread spawn costs more than the work saves.
pub(crate) const MIN_PARALLEL_ITEMS: usize = 2 * MORSEL_SIZE;

/// True when `n_items` is worth sharding across `threads` workers.
pub(crate) fn worth_parallel(threads: usize, n_items: usize) -> bool {
    threads > 1 && n_items >= MIN_PARALLEL_ITEMS
}

/// How many morsels `n_items` would shard into under a `threads` budget —
/// `1` when the input runs sequentially. `EXPLAIN` uses this so its
/// reported plan shape matches the per-morsel spans a traced run records.
pub(crate) fn morsel_count(threads: usize, n_items: usize) -> usize {
    if worth_parallel(threads, n_items) {
        n_items.div_ceil(MORSEL_SIZE)
    } else {
        1
    }
}

/// Most hash partitions a parallel build/aggregation splits into. Small
/// enough that per-partition routing lists and merge bookkeeping stay
/// cheap, large enough to feed every realistic worker budget.
pub(crate) const MAX_PARTITIONS: usize = 16;

/// How many hash partitions `n_items` splits into for a parallel
/// hash-join build or grouped aggregation. A function of the input size
/// **only** — never of the thread budget — so a traced run records the
/// same partition spans (same count, same deterministic indices) at
/// every parallel thread count.
pub(crate) fn partition_count(n_items: usize) -> usize {
    n_items.div_ceil(MORSEL_SIZE).clamp(1, MAX_PARTITIONS)
}

/// Which partition of `n_parts` a key hashes into. Routing uses its own
/// deterministic hasher (seed-free SipHash) so partition assignment is a
/// pure function of the key — identical across workers, runs, and thread
/// counts.
pub(crate) fn part_of<K: Hash + ?Sized>(key: &K, n_parts: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % n_parts as u64) as usize
}

/// Run `work(task)` for every task index in `0..n_tasks` across up to
/// `threads` scoped workers, returning the outputs **in task order**.
///
/// The task-indexed sibling of [`run_morsels`]: hash-partitioned builds
/// and grouped aggregations shard by partition id instead of contiguous
/// item ranges, but determinism comes from the same construction — each
/// task writes its own pre-allocated slot, claim order never shows.
pub(crate) fn run_tasks<T, F>(threads: usize, n_tasks: usize, work: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    let slots: Vec<OnceLock<T>> = (0..n_tasks).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let workers = threads.clamp(1, n_tasks.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let t = next.fetch_add(1, Ordering::Relaxed);
                if t >= n_tasks {
                    break;
                }
                let out = work(t);
                let _ = slots[t].set(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every task claimed exactly once"))
        .collect()
}

/// Split `n_items` into contiguous morsels and run `work(start, end)` for
/// each across up to `threads` scoped workers, returning the per-morsel
/// outputs **in morsel order**.
///
/// `work` runs concurrently from several threads and must not rely on
/// claim order; determinism comes from the ordered collection. Callers
/// handle `n_items == 0` (returns no morsels) and sequential fallbacks
/// themselves — this function always spawns.
pub(crate) fn run_morsels<T, F>(threads: usize, n_items: usize, work: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize, usize) -> T + Sync,
{
    let n_morsels = n_items.div_ceil(MORSEL_SIZE);
    let slots: Vec<OnceLock<T>> = (0..n_morsels).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let workers = threads.clamp(1, n_morsels.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let m = next.fetch_add(1, Ordering::Relaxed);
                if m >= n_morsels {
                    break;
                }
                let start = m * MORSEL_SIZE;
                let end = (start + MORSEL_SIZE).min(n_items);
                let out = work(start, end);
                let _ = slots[m].set(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every morsel claimed exactly once"))
        .collect()
}

/// Concatenate per-morsel `Result<Vec<_>, E>` outputs in morsel order,
/// surfacing the first (lowest-morsel) error — the same error a
/// sequential pass would have hit first.
pub(crate) fn concat_results<T, E>(parts: Vec<Result<Vec<T>, E>>) -> Result<Vec<T>, E> {
    let mut out = Vec::with_capacity(parts.iter().map(|p| p.as_ref().map_or(0, Vec::len)).sum());
    for p in parts {
        out.extend(p?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsel_outputs_collect_in_order_at_any_thread_count() {
        let n = 3 * MORSEL_SIZE + 17;
        let expect: Vec<usize> = (0..n).collect();
        for threads in [1, 2, 8] {
            let parts = run_morsels(threads, n, |s, e| (s..e).collect::<Vec<_>>());
            assert_eq!(parts.len(), n.div_ceil(MORSEL_SIZE));
            let flat: Vec<usize> = parts.into_iter().flatten().collect();
            assert_eq!(flat, expect, "threads={threads}");
        }
    }

    #[test]
    fn concat_surfaces_the_first_error() {
        let parts: Vec<Result<Vec<u32>, &str>> =
            vec![Ok(vec![1, 2]), Err("second"), Err("third"), Ok(vec![3])];
        assert_eq!(concat_results(parts), Err("second"));
        let ok: Vec<Result<Vec<u32>, &str>> = vec![Ok(vec![1]), Ok(vec![2, 3])];
        assert_eq!(concat_results(ok), Ok(vec![1, 2, 3]));
    }

    #[test]
    fn small_inputs_are_not_worth_parallelizing() {
        assert!(!worth_parallel(8, MIN_PARALLEL_ITEMS - 1));
        assert!(!worth_parallel(1, 1 << 20));
        assert!(worth_parallel(2, MIN_PARALLEL_ITEMS));
    }

    #[test]
    fn task_outputs_collect_in_order_at_any_thread_count() {
        for threads in [1, 2, 8] {
            let out = run_tasks(threads, 11, |t| t * t);
            let want: Vec<usize> = (0..11).map(|t| t * t).collect();
            assert_eq!(out, want, "threads={threads}");
        }
        assert!(run_tasks(4, 0, |t| t).is_empty());
    }

    #[test]
    fn partition_count_is_thread_independent_and_bounded() {
        assert_eq!(partition_count(0), 1);
        assert_eq!(partition_count(1), 1);
        assert_eq!(partition_count(MORSEL_SIZE), 1);
        assert_eq!(partition_count(MIN_PARALLEL_ITEMS), 2);
        assert_eq!(partition_count(usize::MAX / 2), MAX_PARTITIONS);
    }
}
