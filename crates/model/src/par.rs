//! Thread budgets, and the one fan-out rule for per-row model passes: a
//! budget is a ceiling, not a demand. [`shard_rows`] starts a worker only
//! for a full [`MIN_WORK_PER_WORKER`] share and runs one share on the
//! caller's thread; shares write disjoint slices, so results are identical
//! at every budget.

use rain_obs::Span;

/// Ceiling on explicit budgets: workers are CPU-bound, and an unbounded
/// request could otherwise spawn a thread per item — on a server, a remote
/// process-abort. Larger requests clamp to it.
pub const MAX_THREADS: usize = 256;

/// Resolve a thread budget: `0` = the machine's available parallelism
/// (1 when unknown), any other value up to [`MAX_THREADS`]. The one reader
/// of the machine value, and it reads it once per process: the call reads
/// cgroup files, 22 µs a call on the 2-core reference host.
pub fn resolve_threads(threads: usize) -> usize {
    static MACHINE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    match threads {
        0 => *MACHINE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        t => t.min(MAX_THREADS),
    }
}

/// The share of a per-row pass (in multiply-adds, `rows × work_per_row`)
/// a worker must have to repay being started.
///
/// Both passes follow single-threaded work, so a worker starts on an idle
/// core that holds none of the data. Measured that way on the 2-core
/// reference host (a serial and a two-worker scoring pass interleaved,
/// each after 30 ms of single-threaded work on the same rows, 101 of each
/// per size, softmax 196×10 and logistic d = 17): two workers take 0.5–1 ms
/// *longer* than one up to 2²¹ multiply-adds, win 24–58 % of passes at
/// 2²², and stop losing at 2²³ (40–90 %; logistic 11 ms against 17 ms).
/// Back to back, with both cores hot, they win from 2²⁰.
pub const MIN_WORK_PER_WORKER: usize = 1 << 22;

/// Workers a pass over `rows` rows of `work_per_row` multiply-adds earns
/// under a `threads` budget: one per full share, at most one per row.
fn workers_for(rows: usize, work_per_row: usize, threads: usize) -> usize {
    let shares = rows.saturating_mul(work_per_row) / MIN_WORK_PER_WORKER;
    shares.min(resolve_threads(threads)).min(rows).max(1)
}

/// Run `pass(start, share)` over `out` cut into one contiguous share of
/// near-equal length per worker `rows × work_per_row` earns, the last on
/// the caller's thread. Adds a `workers` counter to `span`; with more than
/// one worker each share also records a `shard` span under it (counters
/// `index`, `items`).
pub fn shard_rows<T: Send>(
    span: &mut Span,
    out: &mut [T],
    work_per_row: usize,
    threads: usize,
    pass: impl Fn(usize, &mut [T]) + Sync,
) {
    let (n, workers) = (out.len(), workers_for(out.len(), work_per_row, threads));
    span.add("workers", workers as u64);
    if workers == 1 {
        return pass(0, out);
    }
    let (span, pass) = (&*span, &pass);
    let run = move |index: usize, start: usize, share: &mut [T]| {
        let mut shard = Span::enter_under(span, "shard");
        shard.add("index", index as u64);
        shard.add("items", share.len() as u64);
        pass(start, share);
    };
    std::thread::scope(|scope| {
        let (mut rest, mut start) = (out, 0);
        for index in 0..workers {
            let end = (index + 1) * n / workers;
            let (share, tail) = std::mem::take(&mut rest).split_at_mut(end - start);
            if index + 1 == workers {
                run(index, start, share);
            } else {
                scope.spawn(move || run(index, start, share));
            }
            (rest, start) = (tail, end);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn machine_parallelism_resolves_to_the_same_value_every_call() {
        let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
        for _ in 0..3 {
            assert_eq!(resolve_threads(0), machine);
        }
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(usize::MAX), MAX_THREADS);
    }

    #[test]
    fn workers_follow_full_shares_under_the_budget() {
        let share = MIN_WORK_PER_WORKER;
        // Below one full share: the caller's thread alone.
        assert_eq!(workers_for(1000, share / 1000 - 1, 8), 1);
        assert_eq!(workers_for(0, share, 8), 1);
        // k full shares give k workers, capped by the budget.
        for k in 1..=5 {
            assert_eq!(workers_for(k * 1024, share / 1024, 8), k);
            assert_eq!(workers_for(k * 1024, share / 1024, 3), k.min(3));
        }
        // Never more workers than rows, however heavy each row is.
        assert_eq!(workers_for(3, usize::MAX, 8), 3);
    }

    /// `(start, len, ran on the caller's thread)` of every share, in order.
    fn shares(n: usize, work_per_row: usize, threads: usize) -> (Vec<(usize, usize, bool)>, u64) {
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        let mut out: Vec<usize> = vec![usize::MAX; n];
        let trace = rain_obs::Trace::start("pass");
        {
            let mut span = Span::enter("pass-span");
            shard_rows(
                &mut span,
                &mut out,
                work_per_row,
                threads,
                |start, share| {
                    let on_caller = std::thread::current().id() == caller;
                    seen.lock().unwrap().push((start, share.len(), on_caller));
                    for (k, slot) in share.iter_mut().enumerate() {
                        *slot = start + k;
                    }
                },
            );
        }
        let tree = trace.finish();
        let span = tree.find("pass-span").unwrap();
        let workers = span
            .counters
            .iter()
            .find(|(k, _)| *k == "workers")
            .unwrap()
            .1;
        let shards = span.children.iter().filter(|c| c.name == "shard").count();
        assert_eq!(shards as u64, if workers == 1 { 0 } else { workers });
        // Every row written exactly once, by the share that owns it.
        assert_eq!(out, (0..n).collect::<Vec<_>>());
        let mut seen = seen.into_inner().unwrap();
        seen.sort();
        (seen, workers)
    }

    #[test]
    fn shares_cover_the_rows_and_the_caller_runs_one() {
        let per_row = MIN_WORK_PER_WORKER / 100;
        let (seen, workers) = shares(1000, per_row, 4);
        assert_eq!(workers, 4);
        assert_eq!(
            seen.iter().map(|s| (s.0, s.1)).collect::<Vec<_>>(),
            [(0, 250), (250, 250), (500, 250), (750, 250)]
        );
        assert_eq!(seen.iter().filter(|s| s.2).count(), 1, "{seen:?}");
        // Uneven splits differ by at most one row and never leave a
        // worker without a row.
        let (seen, workers) = shares(5, usize::MAX, 4);
        assert_eq!(workers, 4);
        assert!(seen.iter().all(|s| s.1 == 1 || s.1 == 2), "{seen:?}");
        // One worker: the whole slice on the caller's thread.
        let (seen, workers) = shares(1000, 1, 4);
        assert_eq!((seen, workers), (vec![(0, 1000, true)], 1));
    }
}
