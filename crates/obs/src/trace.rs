//! Request-scoped spans with near-zero cost outside a trace.
//!
//! A [`Trace`] is one request's record buffer — one `?profile=1` debug
//! run, one analyzed or sampled query, one sampled iteration.
//! [`Trace::start`] opens the trace's root span and makes the trace the
//! calling thread's context; [`Trace::finish`] closes the root and
//! stitches the trace's records into a [`TraceNode`] tree; dropping the
//! guard unfinished discards them.
//!
//! A [`Span`] is an RAII guard around a region of work. [`Span::enter`]
//! nests under the calling thread's innermost open span and, on `Drop`,
//! records its duration plus any counters attached with [`Span::add`]
//! into that span's trace. On a thread with no open trace it is inert:
//! one thread-local read, no clock read, no allocation — so
//! instrumentation stays compiled into every hot path. Worker threads
//! (morsels, partitions, inference shards) don't share the spawner's
//! stack: [`Span::enter_under`] opens a worker's span under a borrowed
//! parent and makes the parent's trace the worker's context while that
//! span is open, so a `Span::enter` inside the worker records too.
//!
//! Traces share nothing. Concurrent requests record into their own
//! buffers, and a thread without a trace never records, whatever other
//! threads are tracing. A trace holds at most [`MAX_RECORDS`] records;
//! spans past the cap are counted in a `dropped` counter on the root.
//! A trace started inside another takes the thread over until it ends:
//! its spans are in its own tree, not in the outer one.
//!
//! Stitching is deterministic: siblings sort by `(start_ns, span id)`,
//! not by the order worker threads closed them.

use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Cap on the records one trace holds, its root included; spans past it
/// are counted (a `dropped` counter on the finished root), not recorded.
pub const MAX_RECORDS: usize = 1 << 16;

thread_local! {
    /// This thread's open spans, innermost last, each with the trace it
    /// records into. Non-empty exactly while the thread carries a trace.
    static STACK: RefCell<Vec<(u64, Arc<Buf>)>> = const { RefCell::new(Vec::new()) };
}

/// True when the calling thread carries a live trace, i.e. a
/// [`Span::enter`] here would record.
#[inline]
pub fn enabled() -> bool {
    STACK.with(|s| !s.borrow().is_empty())
}

#[derive(Debug)]
struct Rec {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    counters: Vec<(&'static str, u64)>,
}

#[derive(Debug, Default)]
struct Recs {
    list: Vec<Rec>,
    dropped: u64,
}

/// One trace's records, shared by every thread that records into it.
#[derive(Debug)]
struct Buf {
    /// Span start times are offsets from here.
    t0: Instant,
    /// Next span id; `0` is "no parent", so the root gets `1`.
    next_id: AtomicU64,
    recs: Mutex<Recs>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// `Sync` but not `Send`: a span sits on the stack of the thread that
/// opened it and must close there, while workers may borrow it as a
/// parent.
type ThreadBound = PhantomData<MutexGuard<'static, ()>>;

/// An in-flight span. Inert (no allocation, no clock read) when its
/// thread carried no trace at `enter` time; its `Drop` then does nothing.
#[derive(Debug)]
pub struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    counters: Vec<(&'static str, u64)>,
    /// The trace this span records into and its start; `None` = inert.
    live: Option<(Arc<Buf>, Instant)>,
    _thread: ThreadBound,
}

impl Span {
    /// Open a span nested under the innermost open span on this thread.
    #[inline]
    pub fn enter(name: &'static str) -> Span {
        let top = STACK.with(|s| s.borrow().last().map(|(id, buf)| (*id, Arc::clone(buf))));
        match top {
            Some((parent, buf)) => Span::open(name, parent, buf),
            None => Span::inert(name),
        }
    }

    /// Open a span under `parent` and record it into `parent`'s trace —
    /// for worker threads, which don't share the spawner's span stack.
    /// While it is open, spans entered on this thread nest under it.
    #[inline]
    pub fn enter_under(parent: &Span, name: &'static str) -> Span {
        match &parent.live {
            Some((buf, _)) => Span::open(name, parent.id, Arc::clone(buf)),
            None => Span::inert(name),
        }
    }

    fn inert(name: &'static str) -> Span {
        Span {
            id: 0,
            parent: 0,
            name,
            start_ns: 0,
            counters: Vec::new(),
            live: None,
            _thread: PhantomData,
        }
    }

    fn open(name: &'static str, parent: u64, buf: Arc<Buf>) -> Span {
        let id = buf.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push((id, Arc::clone(&buf))));
        let now = Instant::now();
        Span {
            id,
            parent,
            name,
            start_ns: now.duration_since(buf.t0).as_nanos() as u64,
            counters: Vec::new(),
            live: Some((buf, now)),
            _thread: PhantomData,
        }
    }

    /// True when this span will record on drop.
    pub fn is_recording(&self) -> bool {
        self.live.is_some()
    }

    /// Attach a counter (e.g. `rows_in` / `rows_out`). No-op when inert.
    pub fn add(&mut self, key: &'static str, value: u64) {
        if self.live.is_some() {
            self.counters.push((key, value));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((buf, start)) = self.live.take() else {
            return;
        };
        let dur_ns = start.elapsed().as_nanos() as u64;
        // The innermost entry, unless spans moved across an early return
        // close out of order: remove just this one, keep the rest.
        let _ = STACK.try_with(|s| {
            let mut st = s.borrow_mut();
            if let Some(pos) = st
                .iter()
                .rposition(|(id, b)| *id == self.id && Arc::ptr_eq(b, &buf))
            {
                st.remove(pos);
            }
        });
        let mut recs = lock(&buf.recs);
        // The root always records: a finished trace must have its top.
        if self.parent == 0 || recs.list.len() < MAX_RECORDS - 1 {
            recs.list.push(Rec {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start_ns,
                dur_ns,
                counters: std::mem::take(&mut self.counters),
            });
        } else {
            recs.dropped += 1;
        }
    }
}

/// A live trace: the guard that owns one request's records. Derefs to
/// its root [`Span`], so counters attach with [`Span::add`] and workers
/// attach with `Span::enter_under(&trace, ..)`.
#[derive(Debug)]
pub struct Trace {
    root: Span,
    buf: Arc<Buf>,
}

impl Trace {
    /// Open a trace whose root span is `name` and make it the calling
    /// thread's context until the guard is finished or dropped.
    pub fn start(name: &'static str) -> Trace {
        let buf = Arc::new(Buf {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            recs: Mutex::default(),
        });
        Trace {
            root: Span::open(name, 0, Arc::clone(&buf)),
            buf,
        }
    }

    /// Close the root span and return the trace's tree. Spans still open
    /// (none, when every worker was joined) are not in it.
    pub fn finish(self) -> TraceNode {
        let Trace { root, buf } = self;
        drop(root);
        let recs = std::mem::take(&mut *lock(&buf.recs));
        build_tree(recs)
    }
}

impl Deref for Trace {
    type Target = Span;

    fn deref(&self) -> &Span {
        &self.root
    }
}

impl DerefMut for Trace {
    fn deref_mut(&mut self) -> &mut Span {
        &mut self.root
    }
}

/// One node of a finished trace tree. Times are nanoseconds; `start_ns`
/// is relative to the tree's root start, so a tree is self-contained.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceNode {
    /// Span name (`"scan"`, `"morsel"`, `"refresh"`, ...).
    pub name: &'static str,
    /// Start offset from the root span's start, in nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Counters attached with [`Span::add`], in attach order.
    pub counters: Vec<(&'static str, u64)>,
    /// Child spans, ordered by `(start_ns, span id)` — deterministic even
    /// when concurrent workers closed them in any order.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Total number of nodes in this subtree, the root included.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(TraceNode::size).sum::<usize>()
    }

    /// Depth-first search for the first node named `name`.
    pub fn find(&self, name: &str) -> Option<&TraceNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// Stitch a trace's records into a tree under its root (the one record
/// without a parent). Siblings are ordered by `(start_ns, id)`, so the
/// result is independent of which thread closed its span first.
fn build_tree(recs: Recs) -> TraceNode {
    let mut kids: HashMap<u64, Vec<Rec>> = HashMap::new();
    for r in recs.list {
        kids.entry(r.parent).or_default().push(r);
    }
    let root = kids
        .remove(&0)
        .and_then(|mut roots| roots.pop())
        .expect("a finished trace has recorded its root");
    fn build(r: Rec, root_start: u64, kids: &mut HashMap<u64, Vec<Rec>>) -> TraceNode {
        let mut mine = kids.remove(&r.id).unwrap_or_default();
        mine.sort_by_key(|c| (c.start_ns, c.id));
        TraceNode {
            name: r.name,
            start_ns: r.start_ns.saturating_sub(root_start),
            dur_ns: r.dur_ns,
            counters: r.counters,
            children: mine
                .into_iter()
                .map(|c| build(c, root_start, kids))
                .collect(),
        }
    }
    let root_start = root.start_ns;
    let mut tree = build(root, root_start, &mut kids);
    if recs.dropped > 0 {
        tree.counters.push(("dropped", recs.dropped));
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert_and_record_nothing() {
        assert!(!enabled());
        let mut s = Span::enter("noop");
        s.add("rows", 5);
        assert!(!s.is_recording());
        assert!(!Span::enter_under(&s, "worker").is_recording());
        drop(s);
        assert!(!enabled());
    }

    #[test]
    fn nested_spans_build_a_tree_with_counters() {
        let root = Trace::start("root");
        assert!(enabled());
        {
            let mut a = Span::enter("a");
            a.add("rows_in", 10);
            a.add("rows_out", 7);
            let _a1 = Span::enter("a1");
        }
        drop(Span::enter("b"));
        let tree = root.finish();
        assert!(!enabled(), "finishing the trace leaves the thread untraced");
        assert_eq!(tree.name, "root");
        assert_eq!(tree.start_ns, 0);
        assert_eq!(tree.size(), 4);
        assert_eq!(tree.children.len(), 2);
        assert_eq!(tree.children[0].name, "a");
        assert_eq!(tree.children[1].name, "b");
        let a = tree.find("a").unwrap();
        assert_eq!(a.counters, vec![("rows_in", 10), ("rows_out", 7)]);
        assert_eq!(a.children[0].name, "a1");
        assert!(tree.dur_ns >= a.dur_ns);
    }

    #[test]
    fn enter_under_attaches_worker_spans_to_an_explicit_parent() {
        let mut trace = Trace::start("root");
        trace.add("root_counter", 1);
        let parent = &*trace;
        std::thread::scope(|s| {
            for i in 0..3u64 {
                s.spawn(move || {
                    // A worker thread carries no trace of its own...
                    assert!(!Span::enter("stray").is_recording());
                    let mut m = Span::enter_under(parent, "morsel");
                    m.add("items", i);
                    // ...until a span opened under a traced parent hands
                    // it the parent's trace: plain `enter` nests below.
                    let inner = Span::enter("inner");
                    assert!(inner.is_recording());
                });
            }
        });
        let tree = trace.finish();
        assert_eq!(tree.counters, vec![("root_counter", 1)]);
        assert_eq!(tree.children.len(), 3);
        for m in &tree.children {
            assert_eq!(m.name, "morsel");
            assert_eq!(m.children.len(), 1);
            assert_eq!(m.children[0].name, "inner");
        }
    }

    #[test]
    fn concurrent_traces_harvest_their_own_subtrees() {
        let a = Trace::start("trace-a");
        let _ca = Span::enter("child-a");
        // A trace started inside another takes the thread over until it
        // finishes; the outer trace resumes afterwards.
        let b = Trace::start("trace-b");
        drop(Span::enter("child-b"));
        let tb = b.finish();
        drop(Span::enter("child-a2"));
        drop(_ca);
        let ta = a.finish();
        assert_eq!(tb.size(), 2);
        assert_eq!(tb.children[0].name, "child-b");
        assert_eq!(ta.size(), 3);
        assert!(ta.find("child-b").is_none(), "inner trace bled out");
        assert!(ta.find("child-a").unwrap().find("child-a2").is_some());
    }

    #[test]
    fn spans_on_other_threads_are_inert_while_one_thread_traces() {
        let trace = Trace::start("a");
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!enabled());
                let mut b = Span::enter("b");
                b.add("rows", 1);
                assert!(!b.is_recording(), "thread B recorded into A's trace");
            });
        });
        drop(Span::enter("a-child"));
        let tree = trace.finish();
        assert_eq!(tree.size(), 2);
        assert!(tree.find("b").is_none());
    }

    #[test]
    fn two_threads_tracing_at_once_each_finish_their_own_tree() {
        let barrier = std::sync::Barrier::new(2);
        let trees: Vec<TraceNode> = std::thread::scope(|s| {
            let hs: Vec<_> = ["left", "right"]
                .into_iter()
                .map(|name| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let trace = Trace::start(name);
                        // Both traces are live while either records.
                        barrier.wait();
                        for i in 0..50u64 {
                            let mut c = Span::enter(name);
                            c.add("i", i);
                        }
                        barrier.wait();
                        trace.finish()
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for tree in &trees {
            assert_eq!(tree.children.len(), 50);
            assert!(tree.children.iter().all(|c| c.name == tree.name));
            let order: Vec<u64> = tree.children.iter().map(|c| c.counters[0].1).collect();
            assert_eq!(order, (0..50).collect::<Vec<_>>());
        }
    }

    #[test]
    fn stitching_orders_children_by_start_then_id_across_threads() {
        let trace = Trace::start("root");
        // Sequential worker threads: spans strictly increase in both
        // start tick and id, so the stitched order must match spawn
        // order whichever thread's record landed first.
        for i in 0..6u64 {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut m = Span::enter_under(&trace, "step");
                    m.add("i", i);
                });
            });
        }
        let tree = trace.finish();
        let order: Vec<u64> = tree
            .children
            .iter()
            .map(|c| c.counters.iter().find(|(k, _)| *k == "i").unwrap().1)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
        assert!(tree
            .children
            .windows(2)
            .all(|w| w[0].start_ns <= w[1].start_ns));
    }

    #[test]
    fn buffer_cap_holds_per_trace() {
        let n_threads = 4;
        let per_thread = MAX_RECORDS / n_threads + 64;
        let flooded = Trace::start("cap-root");
        std::thread::scope(|s| {
            for _ in 0..n_threads {
                s.spawn(|| {
                    for _ in 0..per_thread {
                        let _x = Span::enter_under(&flooded, "x");
                    }
                });
            }
            // A trace on another thread at the same time has its own
            // budget: the flood costs it nothing.
            s.spawn(|| {
                let other = Trace::start("other");
                for _ in 0..10 {
                    drop(Span::enter("y"));
                }
                let tree = other.finish();
                assert_eq!(tree.size(), 11);
                assert!(tree.counters.is_empty());
            });
        });
        let tree = flooded.finish();
        assert_eq!(tree.size(), MAX_RECORDS, "the root survives the cap");
        let dropped = tree.counters.iter().find(|(k, _)| *k == "dropped");
        let emitted = (n_threads * per_thread) as u64;
        // Every emitted span is either in the tree or counted as dropped.
        assert_eq!(
            dropped.map(|d| d.1),
            Some(emitted - (MAX_RECORDS as u64 - 1))
        );
    }

    #[test]
    fn dropping_an_unfinished_trace_discards_it() {
        let trace = Trace::start("abandoned");
        drop(Span::enter("child"));
        drop(trace);
        assert!(!enabled());
        assert!(!Span::enter("after").is_recording());
    }
}
