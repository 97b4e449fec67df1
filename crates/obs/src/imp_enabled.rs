//! The live registry (`enabled` feature on): a span-tree arena behind
//! one mutex, counter/histogram maps behind read-write locks, and a
//! thread-local current-span cursor so nesting works without any
//! per-span allocation.
//!
//! Span nodes are leaked (`&'static`) with atomic stats, so *closing*
//! a span never takes a lock; only interning a new `(parent, name)`
//! pair does. Hot call sites go further with [`LazyCounter`] and
//! [`LazySpan`], which cache the resolved registry entry at the call
//! site — the steady-state cost is a relaxed atomic add, not a
//! string-keyed map lookup.

use crate::{HistRec, Snapshot, SpanId, SpanRec};
use parking_lot::{Mutex, RwLock};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{
    AtomicPtr, AtomicU64, Ordering::Acquire, Ordering::Relaxed, Ordering::Release,
};
use std::sync::OnceLock;
use std::time::Instant;

/// One aggregated `(parent, name)` node of the span tree. Leaked on
/// intern so guards and call-site caches can hold `&'static` references
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
    fn intern(&mut self, parent: u32, name: &'static str) -> u32 {
        let parent = if (parent as usize) < self.nodes.len() {
            parent
        } else {
            0
        };
        if let Some(&id) = self.index.get(&(parent, name)) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Box::leak(Box::new(SpanNode {
            name,
            parent,
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        })));
        self.index.insert((parent, name), id);
        id
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
        // Saturating sum: fetch_add wraps, but an overflowing total of
        // nanoseconds (585 years) is out of scope for a process profile.
        self.sum.fetch_add(value, Relaxed);
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

/// Bumped by [`reset`]; [`LazySpan`] call-site caches carry the epoch
/// they resolved under and re-resolve on mismatch.
static EPOCH: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The calling thread's current span (0 = root).
    static CURRENT: Cell<u32> = const { Cell::new(0) };
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
    let (id, node) = {
        let mut arena = registry().arena.lock();
        let id = arena.intern(parent.0, name);
        (id, arena.nodes[id as usize])
    };
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

/// A span whose registry node is cached at the call site:
///
/// ```ignore
/// static FULL_SORT: obs::LazySpan = obs::LazySpan::new("viewer.full_sort");
/// let _span = FULL_SORT.open();
/// ```
///
/// While the parent context stays the same (the common case — one call
/// site, one enclosing span), [`open`](LazySpan::open) skips the arena
/// lock and the `(parent, name)` hash lookup entirely. A parent change
/// or a [`reset`] falls back to the slow path and re-caches.
pub struct LazySpan {
    name: &'static str,
    site: AtomicPtr<SpanSite>,
}

/// Immutable-after-publish cache entry for one [`LazySpan`] call site.
struct SpanSite {
    epoch: u64,
    parent: u32,
    id: u32,
    node: &'static SpanNode,
}

impl LazySpan {
    /// A lazy span named `name`; resolution happens on first open.
    pub const fn new(name: &'static str) -> Self {
        LazySpan {
            name,
            site: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Open the span under the thread's current context.
    #[inline]
    pub fn open(&self) -> SpanGuard {
        let parent = CURRENT.with(Cell::get);
        let site = unsafe { self.site.load(Acquire).as_ref() };
        let (id, node) = match site {
            Some(s) if s.parent == parent && s.epoch == EPOCH.load(Relaxed) => (s.id, s.node),
            _ => self.resolve(parent),
        };
        let prev = CURRENT.with(|c| c.replace(id));
        SpanGuard {
            node,
            prev,
            start: Instant::now(),
        }
    }

    /// Slow path: intern under the arena lock and publish a fresh cache
    /// entry (leaked; entries are immutable once published).
    #[cold]
    fn resolve(&self, parent: u32) -> (u32, &'static SpanNode) {
        let epoch = EPOCH.load(Relaxed);
        let (id, node) = {
            let mut arena = registry().arena.lock();
            let id = arena.intern(parent, self.name);
            (id, arena.nodes[id as usize])
        };
        let entry = Box::leak(Box::new(SpanSite {
            epoch,
            parent,
            id,
            node,
        }));
        self.site.store(entry, Release);
        (id, node)
    }
}

/// Resolve (or create) the counter named `name` in the registry.
fn counter_handle(name: &'static str) -> &'static AtomicU64 {
    let reg = registry();
    if let Some(c) = reg.counters.read().get(name) {
        return c;
    }
    let mut map = reg.counters.write();
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(AtomicU64::new(0))))
}

/// Add `delta` to the counter named `name` (created on first use).
pub fn count(name: &'static str, delta: u64) {
    counter_handle(name).fetch_add(delta, Relaxed);
}

/// A counter whose registry slot is resolved once and cached at the
/// call site:
///
/// ```ignore
/// static HITS: obs::LazyCounter = obs::LazyCounter::new("viewer.sort_cache.hit");
/// HITS.add(1);
/// ```
///
/// After the first call, [`add`](LazyCounter::add) is one relaxed
/// atomic add — no lock, no hash. [`reset`] zeroes the shared slot in
/// place, so cached handles stay valid across it.
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<&'static AtomicU64>,
}

impl LazyCounter {
    /// A lazy counter named `name`; resolution happens on first add.
    pub const fn new(name: &'static str) -> Self {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Add `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.cell
            .get_or_init(|| counter_handle(self.name))
            .fetch_add(delta, Relaxed);
    }
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
    let reg = registry();
    if let Some(h) = reg.hists.read().get(name) {
        h.record(value);
        return;
    }
    let mut map = reg.hists.write();
    let h = map
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Hist::new())));
    h.record(value);
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

/// Clear everything recorded so far (counters keep their identity but
/// drop to zero). Intended for tests; a new epoch invalidates
/// [`LazySpan`] caches, and spans still open across a reset record into
/// orphaned nodes that no longer appear in snapshots.
pub fn reset() {
    let reg = registry();
    EPOCH.fetch_add(1, Relaxed);
    *reg.arena.lock() = SpanArena::new();
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
    fn lazy_handles_record_like_their_slow_counterparts() {
        let _l = TEST_LOCK.lock();
        reset();
        static C: LazyCounter = LazyCounter::new("t.lazy.hits");
        static S: LazySpan = LazySpan::new("t.lazy.region");
        for _ in 0..5 {
            C.add(2);
            let _g = S.open();
        }
        count("t.lazy.hits", 1); // same slot, by name
        assert_eq!(counter_value("t.lazy.hits"), 11);
        let snap = snapshot();
        let s = snap
            .spans
            .iter()
            .find(|s| s.name == "t.lazy.region")
            .unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.parent, 0);
    }

    #[test]
    fn lazy_span_follows_parent_changes_and_reset() {
        let _l = TEST_LOCK.lock();
        reset();
        static S: LazySpan = LazySpan::new("t.lazy.child");
        {
            let _a = span("t.parent.a");
            let _g = S.open();
        }
        {
            let _b = span("t.parent.b");
            let _g = S.open();
        }
        let snap = snapshot();
        let children: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == "t.lazy.child")
            .map(|s| snap.spans[s.parent].name.clone())
            .collect();
        assert_eq!(children, vec!["t.parent.a", "t.parent.b"]);

        // Reset orphans the cached node; recording must land in the
        // fresh arena, not the old one.
        reset();
        {
            let _g = S.open();
        }
        let snap = snapshot();
        let s = snap
            .spans
            .iter()
            .find(|s| s.name == "t.lazy.child")
            .unwrap();
        assert_eq!(s.count, 1);
    }
}
