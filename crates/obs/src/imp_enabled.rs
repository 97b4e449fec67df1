//! The live registry (`enabled` feature on): a span-tree arena behind
//! one mutex, counter/histogram maps behind read-write locks, and per
//! thread a current-span cursor and a cache of resolved entries.
//!
//! Every recording call resolves its registry entry through the calling
//! thread's [`ThreadCache`]: `(parent id, name address)` → span node for
//! [`span_under`], name address → slot for [`count`] and [`observe`]. A
//! thread takes the arena lock (or a map's write lock) only the first
//! time it sees a pair, so the steady-state cost is one thread-local map
//! lookup plus relaxed atomic adds (and two clock reads for spans).
//! Span nodes are leaked (`&'static`) with atomic stats, so *closing* a
//! span never takes a lock either.

use crate::{HistRec, Snapshot, SpanId, SpanRec};
use callpath_core::hash::MixState;
use parking_lot::{Mutex, RwLock};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

/// One aggregated `(parent, name)` node of the span tree. Leaked on
/// intern so guards and thread caches can hold `&'static` references
/// and record without the arena lock.
struct SpanNode {
    name: &'static str,
    parent: u32,
    count: AtomicU64,
    total_ns: AtomicU64,
}

/// Arena + child index. Node 0 is the synthetic root.
struct SpanArena {
    nodes: Vec<&'static SpanNode>,
    index: HashMap<(u32, &'static str), u32>,
}

impl SpanArena {
    fn new() -> Self {
        SpanArena {
            nodes: vec![Box::leak(Box::new(SpanNode {
                name: "(root)",
                parent: 0,
                count: AtomicU64::new(0),
                total_ns: AtomicU64::new(0),
            }))],
            index: HashMap::new(),
        }
    }

    /// Find or add the child of `parent` named `name`. A stale parent
    /// id (possible only across a mid-span [`reset`]) clamps to root.
    fn intern(&mut self, parent: u32, name: &'static str) -> (u32, &'static SpanNode) {
        let parent = if (parent as usize) < self.nodes.len() {
            parent
        } else {
            0
        };
        if let Some(&id) = self.index.get(&(parent, name)) {
            return (id, self.nodes[id as usize]);
        }
        let id = self.nodes.len() as u32;
        let node = Box::leak(Box::new(SpanNode {
            name,
            parent,
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }));
        self.nodes.push(node);
        self.index.insert((parent, name), id);
        (id, node)
    }
}

/// Power-of-two histogram: bucket `i` counts values with `i`
/// significant bits (bucket 0 = zeros). 65 buckets cover all of `u64`.
struct Hist {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; 65],
}

impl Hist {
    fn new() -> Self {
        Hist {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, value: u64) {
        self.count.fetch_add(1, Relaxed);
        // `fetch_add` would wrap; the sum saturates as `HistRec` says.
        let _ = self
            .sum
            .fetch_update(Relaxed, Relaxed, |s| Some(s.saturating_add(value)));
        let bits = (64 - value.leading_zeros()) as usize;
        self.buckets[bits].fetch_add(1, Relaxed);
    }

    fn clear(&self) {
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
    }
}

struct Registry {
    arena: Mutex<SpanArena>,
    counters: RwLock<HashMap<&'static str, &'static AtomicU64>>,
    hists: RwLock<HashMap<&'static str, &'static Hist>>,
    /// Distinct error strings with counts, in first-seen order.
    errors: Mutex<Vec<(String, u64)>>,
}

fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Registry {
        arena: Mutex::new(SpanArena::new()),
        counters: RwLock::new(HashMap::new()),
        hists: RwLock::new(HashMap::new()),
        errors: Mutex::new(Vec::new()),
    })
}

/// Find or create the slot named `name` in one of the registry's maps.
fn slot<T: Sync>(
    map: &RwLock<HashMap<&'static str, &'static T>>,
    name: &'static str,
    new: fn() -> T,
) -> &'static T {
    if let Some(&s) = map.read().get(name) {
        return s;
    }
    map.write()
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(new())))
}

/// Which arena the span entries of a [`ThreadCache`] belong to. Moved
/// only by [`reset`], under the arena lock: a thread that reads the new
/// value and then takes the lock is sure to find the new arena, so no
/// entry interned in an old arena is ever filed under the current epoch.
static EPOCH: AtomicU64 = AtomicU64::new(0);

/// A thread's resolved registry entries, keyed by name *address* (a
/// `*const str` compares address and length, never the text): each
/// `&'static str` is hashed by content once per thread, on a miss. Two
/// literals with equal text are two keys that resolve to the same entry.
struct ThreadCache {
    /// The [`EPOCH`] the span entries were interned under.
    epoch: u64,
    spans: HashMap<(u32, *const str), (u32, &'static SpanNode), MixState>,
    counters: HashMap<*const str, &'static AtomicU64, MixState>,
    hists: HashMap<*const str, &'static Hist, MixState>,
}

thread_local! {
    /// The calling thread's current span (0 = root).
    static CURRENT: Cell<u32> = const { Cell::new(0) };
    /// The calling thread's resolved registry entries.
    static CACHE: RefCell<ThreadCache> = const { RefCell::new(ThreadCache {
        epoch: 0,
        spans: HashMap::with_hasher(MixState::new()),
        counters: HashMap::with_hasher(MixState::new()),
        hists: HashMap::with_hasher(MixState::new()),
    }) };
}

/// Is instrumentation compiled in? `true` in this build.
pub fn enabled() -> bool {
    true
}

/// The calling thread's current span, for [`span_under`] across a
/// thread fan-out.
pub fn current() -> SpanId {
    SpanId(CURRENT.with(Cell::get))
}

/// Open a timed span named `name` nested under the thread's current
/// span. Close it by dropping the guard.
pub fn span(name: &'static str) -> SpanGuard {
    span_under(current(), name)
}

/// Open a timed span under an explicit parent — the cross-thread form:
/// capture [`current`] before handing work to `core::pool::chunked_map`,
/// open shard spans under it inside the chunk closure.
pub fn span_under(parent: SpanId, name: &'static str) -> SpanGuard {
    let (id, node) = CACHE.with_borrow_mut(|cache| {
        let epoch = EPOCH.load(Relaxed);
        if cache.epoch != epoch {
            cache.spans.clear();
            cache.epoch = epoch;
        }
        *cache
            .spans
            .entry((parent.0, name))
            .or_insert_with(|| registry().arena.lock().intern(parent.0, name))
    });
    let prev = CURRENT.with(|c| c.replace(id));
    SpanGuard {
        node,
        prev,
        start: Instant::now(),
    }
}

/// Live timed region: records elapsed wall time into its span-tree node
/// on drop (two relaxed atomic adds — no lock) and restores the
/// thread's previous span. A guard that outlives a [`reset`] records
/// into its orphaned node, which no longer appears in snapshots.
#[must_use = "a span measures the region it is alive for"]
pub struct SpanGuard {
    node: &'static SpanNode,
    prev: u32,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos() as u64;
        self.node.count.fetch_add(1, Relaxed);
        self.node.total_ns.fetch_add(ns, Relaxed);
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Add `delta` to the counter named `name` (created on first use).
pub fn count(name: &'static str, delta: u64) {
    CACHE
        .with_borrow_mut(|cache| {
            *cache
                .counters
                .entry(name)
                .or_insert_with(|| slot(&registry().counters, name, || AtomicU64::new(0)))
        })
        .fetch_add(delta, Relaxed);
}

/// Current value of counter `name` (0 if it never fired).
pub fn counter_value(name: &str) -> u64 {
    registry()
        .counters
        .read()
        .get(name)
        .map(|c| c.load(Relaxed))
        .unwrap_or(0)
}

/// Record `value` into the histogram named `name` (created on first use).
pub fn observe(name: &'static str, value: u64) {
    CACHE
        .with_borrow_mut(|cache| {
            *cache
                .hists
                .entry(name)
                .or_insert_with(|| slot(&registry().hists, name, Hist::new))
        })
        .record(value);
}

/// Record an error message. Distinct messages are kept separately with
/// occurrence counts — nothing after the first failure is dropped.
pub fn error(message: &str) {
    let mut errors = registry().errors.lock();
    if let Some(e) = errors.iter_mut().find(|(m, _)| m == message) {
        e.1 += 1;
    } else {
        errors.push((message.to_owned(), 1));
    }
}

/// Freeze the registry into a plain-data [`Snapshot`].
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let spans: Vec<SpanRec> = {
        let arena = reg.arena.lock();
        arena
            .nodes
            .iter()
            .map(|n| SpanRec {
                name: n.name.to_owned(),
                parent: n.parent as usize,
                count: n.count.load(Relaxed),
                total_ns: n.total_ns.load(Relaxed),
            })
            .collect()
    };
    let mut counters: Vec<(String, u64)> = reg
        .counters
        .read()
        .iter()
        .map(|(&name, c)| (name.to_owned(), c.load(Relaxed)))
        .collect();
    // The fan-out helper lives below this crate in the dependency
    // graph (callpath-obs depends on callpath-core), so it keeps its
    // own always-on atomics; fold them in here so `--stats` and
    // `--self-profile` show how many chunks ran where. Zero values are
    // skipped: a process that never fanned out reports no pool rows.
    for (name, value) in callpath_core::pool::stats().named() {
        if value > 0 {
            counters.push((name.to_owned(), value));
        }
    }
    counters.sort();
    let mut histograms: Vec<HistRec> = reg
        .hists
        .read()
        .iter()
        .map(|(&name, h)| HistRec {
            name: name.to_owned(),
            count: h.count.load(Relaxed),
            sum: h.sum.load(Relaxed),
            buckets: h
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(bits, b)| {
                    let n = b.load(Relaxed);
                    (n > 0).then_some((bits as u32, n))
                })
                .collect(),
        })
        .collect();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    let errors = reg.errors.lock().clone();
    Snapshot {
        spans,
        counters,
        histograms,
        errors,
    }
}

/// Clear everything recorded so far (counters and histograms keep their
/// identity but drop to zero). Intended for tests; a new epoch drops
/// every thread's cached span entries at its next open, and spans still
/// open across a reset record into orphaned nodes that no longer appear
/// in snapshots.
pub fn reset() {
    let reg = registry();
    {
        let mut arena = reg.arena.lock();
        *arena = SpanArena::new();
        EPOCH.fetch_add(1, Relaxed);
    }
    for c in reg.counters.read().values() {
        c.store(0, Relaxed);
    }
    for h in reg.hists.read().values() {
        h.clear();
    }
    reg.errors.lock().clear();
    CURRENT.with(|c| c.set(0));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global, so the enabled-mode unit tests
    /// run as one sequence under a single lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn spans_nest_and_aggregate() {
        let _l = TEST_LOCK.lock();
        reset();
        for _ in 0..3 {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        {
            let _other = span("outer");
        }
        let snap = snapshot();
        let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.count, 4);
        assert_eq!(inner.count, 3);
        assert_eq!(snap.spans[inner.parent].name, "outer");
        assert_eq!(outer.parent, 0);
        assert!(outer.total_ns >= inner.total_ns);
    }

    #[test]
    fn span_under_crosses_threads() {
        let _l = TEST_LOCK.lock();
        reset();
        let _job = span("job");
        let parent = current();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(move || {
                    let _shard = span_under(parent, "shard");
                });
            }
        });
        drop(_job);
        let snap = snapshot();
        let shard = snap.spans.iter().find(|s| s.name == "shard").unwrap();
        assert_eq!(shard.count, 4);
        assert_eq!(snap.spans[shard.parent].name, "job");
    }

    #[test]
    fn counters_and_histograms_aggregate_concurrently() {
        let _l = TEST_LOCK.lock();
        reset();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        count("t.hits", 1);
                    }
                    observe("t.bytes", 4096);
                });
            }
        });
        assert_eq!(counter_value("t.hits"), 8000);
        let snap = snapshot();
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "t.bytes")
            .unwrap();
        assert_eq!(h.count, 8);
        assert_eq!(h.sum, 8 * 4096);
        assert_eq!(h.buckets, vec![(13, 8)]); // 4096 has 13 significant bits
    }

    #[test]
    fn errors_keep_every_distinct_message() {
        let _l = TEST_LOCK.lock();
        reset();
        error("first failure");
        error("second failure");
        error("first failure");
        let snap = snapshot();
        assert_eq!(
            snap.errors,
            vec![
                ("first failure".to_owned(), 2),
                ("second failure".to_owned(), 1)
            ]
        );
    }

    #[test]
    fn histogram_sums_saturate() {
        let _l = TEST_LOCK.lock();
        reset();
        observe("t.huge", u64::MAX);
        observe("t.huge", u64::MAX);
        let snap = snapshot();
        let h = snap.histograms.iter().find(|h| h.name == "t.huge").unwrap();
        assert_eq!((h.count, h.sum), (2, u64::MAX));
        assert_eq!(h.buckets, vec![(64, 2)]);
    }

    #[test]
    fn cached_entries_record_like_first_lookups() {
        let _l = TEST_LOCK.lock();
        reset();
        for _ in 0..5 {
            count("t.cached.hits", 2);
            let _g = span("t.cached.region");
        }
        // Another thread resolves the same slot and node on its own.
        std::thread::scope(|s| {
            s.spawn(|| {
                count("t.cached.hits", 1);
                let _g = span("t.cached.region");
            });
        });
        assert_eq!(counter_value("t.cached.hits"), 11);
        let snap = snapshot();
        let s = snap
            .spans
            .iter()
            .find(|s| s.name == "t.cached.region")
            .unwrap();
        assert_eq!(s.count, 6);
        assert_eq!(s.parent, 0);
    }

    #[test]
    fn cached_span_follows_parent_changes_and_reset() {
        let _l = TEST_LOCK.lock();
        reset();
        {
            let _a = span("t.parent.a");
            let _g = span("t.cached.child");
        }
        {
            let _b = span("t.parent.b");
            let _g = span("t.cached.child");
        }
        let snap = snapshot();
        let children: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == "t.cached.child")
            .map(|s| snap.spans[s.parent].name.clone())
            .collect();
        assert_eq!(children, vec!["t.parent.a", "t.parent.b"]);

        // Reset orphans the cached node; recording must land in the
        // fresh arena, not the old one.
        reset();
        {
            let _g = span("t.cached.child");
        }
        let snap = snapshot();
        let s = snap
            .spans
            .iter()
            .find(|s| s.name == "t.cached.child")
            .unwrap();
        assert_eq!(s.count, 1);
    }

    #[test]
    fn a_reset_on_another_thread_drops_this_threads_cached_spans() {
        let _l = TEST_LOCK.lock();
        reset();
        let (to_worker, worker_rx) = std::sync::mpsc::channel::<()>();
        let (to_main, main_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            s.spawn(move || {
                drop(span("t.worker"));
                to_main.send(()).unwrap();
                worker_rx.recv().unwrap();
                // The cached (root, "t.worker") entry names node 1 of
                // the old arena; node 1 of the fresh one is "t.main".
                drop(span("t.worker"));
            });
            main_rx.recv().unwrap();
            reset();
            drop(span("t.main"));
            to_worker.send(()).unwrap();
        });
        let snap = snapshot();
        let names: Vec<_> = snap
            .spans
            .iter()
            .map(|s| (s.name.as_str(), s.parent, s.count))
            .collect();
        assert_eq!(
            names,
            vec![("(root)", 0, 0), ("t.main", 0, 1), ("t.worker", 0, 1)]
        );
    }

    #[test]
    fn alternating_parents_yield_one_node_each() {
        let _l = TEST_LOCK.lock();
        reset();
        const N: u64 = 100;
        for _ in 0..N {
            for parent in ["t.parent.a", "t.parent.b"] {
                let _p = span(parent);
                let _c = span("t.alternating");
            }
        }
        let snap = snapshot();
        let children: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == "t.alternating")
            .map(|s| (snap.spans[s.parent].name.as_str(), s.count))
            .collect();
        assert_eq!(children, vec![("t.parent.a", N), ("t.parent.b", N)]);
    }
}
