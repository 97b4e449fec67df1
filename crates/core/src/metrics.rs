//! Metric descriptors and per-node metric storage.
//!
//! The paper uses *metric* for any measure of work (instructions), resource
//! consumption (bus transactions) or inefficiency (stall cycles). A raw
//! metric is what the sampler records; the presentation layer projects each
//! raw metric into an **inclusive** and an **exclusive** column, and lets
//! the analyst add **derived** columns computed by formula (Section V-D).
//!
//! Performance data is sparse (Section V-A): most CCT nodes have zero for
//! most metrics, so a column stores its non-zeros only — two parallel
//! arrays ordered by node id ([`CsrColumn`], or [`MappedCol`] when they
//! are borrowed from a database image) — unless it covers a quarter of
//! its tree or more, where a node-indexed `Vec<f64>` reads ten times
//! faster for under three times the bytes. Nobody chooses between the
//! two: whoever produces a column already knows which it is. The
//! attribution kernel hands over the shape of the branch it took; sorted
//! entries with a known node count go through [`MetricVec::from_sorted`],
//! dense at one node in four or more (the kernel's own
//! `SWEEP_ABOVE_ONE_IN`); a column written cell by cell starts in the
//! shape its owner's write pattern fixes ([`ColumnSet::add_column`] dense,
//! [`RawMetrics::add_metric`] sorted). Reads are the same either way, bit
//! for bit.
//!
//! A lazily backed [`ColumnSet`] is the only store of a lazily opened
//! experiment's attributed values, and a column is faulted when it is
//! read ([`ColumnSource`]).

use crate::attribution::SWEEP_ABOVE_ONE_IN;
use crate::ids::{ColumnId, MetricId};
use crate::mapped::MappedCol;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// On-demand provider of column contents, the hook behind lazily opened
/// experiment databases (CPDB): a [`ColumnSet`] or [`RawMetrics`]
/// with a source attached starts with **no resident column data** and
/// faults each column in on first touch, so opening a database costs
/// only topology decoding and untouched metric columns are never paid
/// for.
///
/// Both methods return the column itself, in whatever shape the source
/// found it — borrowed zero-copy from the file image
/// ([`MetricVec::Mapped`]), the attribution kernel's own vectors, or
/// decoded entries through [`MetricVec::from_sorted`] — and it is
/// *moved* into the slot as it is: the source keeps no copy. They are
/// called at most once per column/metric (results are cached in the
/// owning set). A `Err(reason)` materializes the column as all-zeros and
/// is surfaced through [`ColumnSet::lazy_errors`] /
/// [`RawMetrics::lazy_errors`] instead of panicking, so a corrupt block
/// discovered mid-render degrades rather than aborts.
pub trait ColumnSource: Send + Sync + std::fmt::Debug {
    /// Presentation column `c` of `columns`, the set whose slot it
    /// fills. A derived column reads its inputs through `columns`, which
    /// faults them into their own (earlier) slots. The call runs inside
    /// `c`'s slot initializer, so it must not read `c` itself.
    fn load_column(&self, c: ColumnId, columns: &ColumnSet) -> Result<MetricVec, String>;
    /// Direct costs of raw metric `m`.
    fn load_raw(&self, m: MetricId) -> Result<MetricVec, String>;
    /// Run now, together, the integrity checks the loads of columns
    /// `cols` would each run alone; a load skips a check that passed
    /// here and runs one that failed again, to report it. Nothing to do
    /// by default.
    fn precheck(&self, _cols: &[ColumnId]) {}
}

/// Lazy-fault bookkeeping shared by [`ColumnSet`] and [`RawMetrics`]:
/// one [`OnceLock`] slot per lazily backed column, filled from the
/// source on first touch.
#[derive(Debug, Default)]
struct LazySlots {
    source: Option<Arc<dyn ColumnSource>>,
    slots: Vec<OnceLock<MetricVec>>,
    /// Decode executions per slot. `OnceLock` runs the init closure at
    /// most once, so after a fault this reads exactly 1 no matter how
    /// many threads raced the first touch — the concurrency stress test
    /// asserts on it.
    fault_counts: Vec<AtomicU64>,
    /// Every *distinct* load failure, in first-seen order (the failed
    /// column reads as zeros from then on); surfaced through
    /// [`ColumnSet::lazy_errors`].
    errors: Mutex<Vec<String>>,
}

impl Clone for LazySlots {
    fn clone(&self) -> Self {
        LazySlots {
            source: self.source.clone(),
            slots: self.slots.clone(),
            fault_counts: self
                .fault_counts
                .iter()
                .map(|c| AtomicU64::new(c.load(Ordering::Relaxed)))
                .collect(),
            errors: Mutex::new(self.errors.lock().expect("lazy errors lock").clone()),
        }
    }
}

impl LazySlots {
    fn attach(&mut self, source: Arc<dyn ColumnSource>, count: usize) {
        self.source = Some(source);
        self.slots = (0..count).map(|_| OnceLock::new()).collect();
        self.fault_counts = (0..count).map(|_| AtomicU64::new(0)).collect();
    }

    /// Is `index` inside the lazily backed prefix?
    fn covers(&self, index: usize) -> bool {
        self.source.is_some() && index < self.slots.len()
    }

    /// Resolve slot `index`, faulting it in via `load` on first touch.
    fn fault(
        &self,
        index: usize,
        load: impl FnOnce(&dyn ColumnSource) -> Result<MetricVec, String>,
    ) -> Option<&MetricVec> {
        if !self.covers(index) {
            return None;
        }
        let source = self.source.as_deref()?;
        Some(self.slots[index].get_or_init(|| {
            self.fault_counts[index].fetch_add(1, Ordering::Relaxed);
            load(source).unwrap_or_else(|reason| {
                let mut all = self.errors.lock().expect("lazy errors lock");
                if !all.contains(&reason) {
                    all.push(reason);
                }
                MetricVec::Csr(CsrColumn::new())
            })
        }))
    }

    /// Number of slots already faulted in.
    fn resident(&self) -> usize {
        self.slots.iter().filter(|s| s.get().is_some()).count()
    }

    /// Decode executions recorded for slot `index` (0 if untouched or
    /// out of range, exactly 1 once faulted).
    fn fault_count(&self, index: usize) -> u64 {
        self.fault_counts
            .get(index)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Every distinct load failure seen so far, in first-seen order.
    fn all_errors(&self) -> Vec<String> {
        self.errors.lock().expect("lazy errors lock").clone()
    }
}

/// Description of a raw (measured) metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDesc {
    /// e.g. `PAPI_TOT_CYC`, `PAPI_L1_DCM`, `PAPI_FP_OPS`, `IDLENESS`.
    pub name: String,
    /// Unit label for display, e.g. `cycles`, `misses`, `ops`.
    pub unit: String,
    /// Sampling period: one recorded sample represents this many events.
    /// The paper defines the exclusive value at a sample point as sample
    /// count × period.
    pub period: f64,
}

impl MetricDesc {
    /// Describe a raw metric.
    pub fn new(name: &str, unit: &str, period: f64) -> Self {
        MetricDesc {
            name: name.to_owned(),
            unit: unit.to_owned(),
            period,
        }
    }
}

/// The first index of ascending `keys` whose key is `node` or more,
/// found by doubling steps away from `from` and a bisection of the last
/// step: O(log |answer − from|) probes, all near `from` when the answer
/// is.
fn lower_bound_from(keys: &[u32], node: u32, from: usize) -> usize {
    let at = from.min(keys.len());
    let mut step = 1;
    let (lo, hi) = if keys.get(at).is_some_and(|&k| k < node) {
        // keys[at + step / 2] < node throughout.
        while at + step < keys.len() && keys[at + step] < node {
            step *= 2;
        }
        (at + step / 2 + 1, (at + step).min(keys.len()))
    } else {
        // keys[at - step / 2] >= node throughout (past the end counts).
        while step <= at && keys[at - step] >= node {
            step *= 2;
        }
        (
            at.saturating_sub(step) + usize::from(step <= at),
            at - step / 2,
        )
    };
    lo + keys[lo..hi].partition_point(|&k| k < node)
}

/// A frozen-plus-overlay sorted columnar store for one metric: non-zero
/// values live in two parallel arrays (`keys` ascending node ids, `vals`
/// their values), looked up by binary search. Out-of-order mutations land
/// in a small unsorted `pending` delta overlay that is folded back into
/// the sorted arrays once it grows past a threshold, keeping amortized
/// cost near O(log nnz) per operation while ordered scans stay a plain
/// slice walk.
#[derive(Debug, Clone, Default)]
pub struct CsrColumn {
    /// Node ids with (potentially) non-zero values, strictly ascending.
    keys: Vec<u32>,
    /// `vals[i]` is the value at `keys[i]`.
    vals: Vec<f64>,
    /// Unsorted `(node, delta)` overlay absorbed on the next compaction.
    pending: Vec<(u32, f64)>,
}

impl CsrColumn {
    /// An empty column.
    pub fn new() -> Self {
        CsrColumn::default()
    }

    /// A column holding `entries`, which are sorted ascending by node id
    /// with no duplicates.
    pub fn from_sorted(entries: Vec<(u32, f64)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let (keys, vals) = entries.into_iter().unzip();
        CsrColumn {
            keys,
            vals,
            pending: Vec::new(),
        }
    }

    /// Value at `node` (0.0 when absent).
    #[inline]
    pub fn get(&self, node: u32) -> f64 {
        let mut v = match self.keys.binary_search(&node) {
            Ok(i) => self.vals[i],
            Err(_) => 0.0,
        };
        for &(k, d) in &self.pending {
            if k == node {
                v += d;
            }
        }
        v
    }

    /// Accumulate `delta` at `node`. Ascending appends (the common case:
    /// attribution sweeps and view fills walk nodes in id order) are O(1);
    /// anything else goes through the pending overlay.
    #[inline]
    pub fn add(&mut self, node: u32, delta: f64) {
        if delta == 0.0 {
            return;
        }
        if self.pending.is_empty() {
            match self.keys.last() {
                Some(&last) if node == last => {
                    *self.vals.last_mut().unwrap() += delta;
                    return;
                }
                Some(&last) if node < last => {}
                _ => {
                    self.keys.push(node);
                    self.vals.push(delta);
                    return;
                }
            }
        }
        self.pending.push((node, delta));
        if self.pending.len() >= 32 + self.keys.len() / 4 {
            self.compact();
        }
    }

    /// Set the value at `node`, replacing any accumulated value. Like
    /// [`CsrColumn::add`], a node past the last key is an O(1) append;
    /// anything else binary-searches the sorted arrays.
    pub fn set(&mut self, node: u32, value: f64) {
        self.compact();
        if self.keys.last().is_none_or(|&last| node > last) {
            if value != 0.0 {
                self.keys.push(node);
                self.vals.push(value);
            }
            return;
        }
        match self.keys.binary_search(&node) {
            Ok(i) => self.vals[i] = value,
            Err(i) => {
                if value != 0.0 {
                    self.keys.insert(i, node);
                    self.vals.insert(i, value);
                }
            }
        }
    }

    /// Fold the pending overlay back into the sorted arrays, summing
    /// duplicates and dropping entries that cancelled to exactly zero.
    pub fn compact(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut overlay = std::mem::take(&mut self.pending);
        overlay.sort_unstable_by_key(|&(k, _)| k);
        let (keys, vals) = (
            std::mem::take(&mut self.keys),
            std::mem::take(&mut self.vals),
        );
        self.keys.reserve(keys.len() + overlay.len());
        self.vals.reserve(keys.len() + overlay.len());
        let mut stored = keys.into_iter().zip(vals).peekable();
        let mut deltas = overlay.into_iter().peekable();
        // Key by key, ascending: the stored value, then its deltas.
        loop {
            let key = match (stored.peek(), deltas.peek()) {
                (Some(s), Some(d)) => s.0.min(d.0),
                (Some(e), None) | (None, Some(e)) => e.0,
                (None, None) => break,
            };
            let mut v = stored.next_if(|e| e.0 == key).map_or(0.0, |e| e.1);
            while let Some((_, d)) = deltas.next_if(|e| e.0 == key) {
                v += d;
            }
            if v != 0.0 {
                self.keys.push(key);
                self.vals.push(v);
            }
        }
    }

    fn merged_entries(&self) -> Vec<(u32, f64)> {
        let mut c = self.clone();
        c.compact();
        c.keys.into_iter().zip(c.vals).collect()
    }

    fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u32>()
            + self.vals.capacity() * std::mem::size_of::<f64>()
            + self.pending.capacity() * std::mem::size_of::<(u32, f64)>()
    }
}

/// Per-node storage for one metric column. Indices are node ids of whatever
/// tree the containing table is attached to (CCT or a view tree). Which
/// shape a column has is decided by its producer from what it has in
/// hand (module docs); every read gives the same bits from either.
#[derive(Debug, Clone)]
pub enum MetricVec {
    /// Dense vector indexed by node id.
    Dense(Vec<f64>),
    /// Sorted columnar non-zeros; see [`CsrColumn`].
    Csr(CsrColumn),
    /// Sorted columnar non-zeros borrowed zero-copy from a database
    /// image ([`MappedCol`], format v2.1). Reads are in-place; the
    /// first mutation copies into an owned [`CsrColumn`]
    /// (copy-on-write), so the shared image is never written.
    Mapped(MappedCol),
}

impl MetricVec {
    /// A dense column pre-sized for `len` nodes.
    pub fn dense(len: usize) -> Self {
        MetricVec::Dense(vec![0.0; len])
    }

    /// A column over a tree of `n_nodes` nodes from its entries, sorted
    /// ascending by node id with no duplicates — what a decoded database
    /// block, a derived-column evaluation and a finished ingestion hand
    /// over. One node in `SWEEP_ABOVE_ONE_IN` (four) or more makes it a
    /// node-indexed vector (8 bytes a node against 12 an entry: at most
    /// 2.7× the bytes, and a read is an index instead of a search); below
    /// that it stays sorted arrays.
    pub fn from_sorted(entries: Vec<(u32, f64)>, n_nodes: usize) -> Self {
        if entries.len() * SWEEP_ABOVE_ONE_IN < n_nodes {
            return MetricVec::Csr(CsrColumn::from_sorted(entries));
        }
        let last = entries.last().map_or(0, |&(k, _)| k as usize + 1);
        let mut v = vec![0.0; n_nodes.max(last)];
        for (k, x) in entries {
            v[k as usize] = x;
        }
        MetricVec::Dense(v)
    }

    /// Value at `node` (0.0 when absent).
    #[inline]
    pub fn get(&self, node: u32) -> f64 {
        match self {
            MetricVec::Dense(v) => v.get(node as usize).copied().unwrap_or(0.0),
            MetricVec::Csr(c) => c.get(node),
            MetricVec::Mapped(m) => m.get(node),
        }
    }

    /// [`MetricVec::get`], searching sorted keys outward from `*finger`
    /// (the index the previous call left there) instead of from the
    /// middle: a reader whose nodes come close together in id — the rows
    /// of a tree written depth first — costs the log of the distance, in
    /// cache lines it has just read. Any finger gives the same value.
    #[inline]
    pub fn get_near(&self, node: u32, finger: &mut usize) -> f64 {
        let (keys, vals) = match self {
            MetricVec::Dense(v) => return v.get(node as usize).copied().unwrap_or(0.0),
            MetricVec::Csr(c) if !c.pending.is_empty() => return c.get(node),
            MetricVec::Csr(c) => (&c.keys[..], &c.vals[..]),
            MetricVec::Mapped(m) => (m.keys(), m.vals()),
        };
        let at = lower_bound_from(keys, node, *finger);
        *finger = at;
        match keys.get(at) {
            Some(&k) if k == node => vals[at],
            _ => 0.0,
        }
    }

    /// Copy a mapped (zero-copy) column into sorted arrays of its own so
    /// it can be mutated; no-op for the owned shapes.
    fn make_owned(&mut self) {
        if let MetricVec::Mapped(m) = self {
            *self = MetricVec::Csr(CsrColumn::from_sorted(m.entries()));
        }
    }

    /// Set the value at `node`.
    #[inline]
    pub fn set(&mut self, node: u32, value: f64) {
        self.make_owned();
        match self {
            MetricVec::Dense(v) => {
                if node as usize >= v.len() {
                    v.resize(node as usize + 1, 0.0);
                }
                v[node as usize] = value;
            }
            MetricVec::Csr(c) => c.set(node, value),
            MetricVec::Mapped(_) => unreachable!("make_owned() materialized above"),
        }
    }

    /// Accumulate `delta` at `node`.
    #[inline]
    pub fn add(&mut self, node: u32, delta: f64) {
        if delta == 0.0 {
            return;
        }
        self.make_owned();
        match self {
            MetricVec::Dense(v) => {
                if node as usize >= v.len() {
                    v.resize(node as usize + 1, 0.0);
                }
                v[node as usize] += delta;
            }
            MetricVec::Csr(c) => c.add(node, delta),
            MetricVec::Mapped(_) => unreachable!("make_owned() materialized above"),
        }
    }

    /// Number of nodes with a non-zero value.
    pub fn nonzero_count(&self) -> usize {
        match self {
            // No branch per cell: a 40 %-dense column mispredicts every other.
            MetricVec::Dense(v) => v.iter().filter(|&&x| x != 0.0).count(),
            _ => self.nonzero_sorted().count(),
        }
    }

    /// Non-zero entries in ascending node order, the same from either
    /// shape.
    ///
    /// Returns a borrowed iterator that walks the storage in place with
    /// no per-call allocation; only sorted arrays with unmerged pending
    /// deltas must materialize a merged buffer first.
    pub fn nonzero_sorted(&self) -> NonzeroSorted<'_> {
        match self {
            MetricVec::Dense(v) => NonzeroSorted::Dense {
                v,
                i: 0,
                mask: 0,
                base: 0,
            },
            MetricVec::Csr(c) => {
                if c.pending.is_empty() {
                    NonzeroSorted::Csr {
                        keys: &c.keys,
                        vals: &c.vals,
                        i: 0,
                    }
                } else {
                    NonzeroSorted::Owned(c.merged_entries().into_iter())
                }
            }
            // Zero-copy: the parallel arrays are walked straight out of
            // the file image.
            MetricVec::Mapped(m) => NonzeroSorted::Csr {
                keys: m.keys(),
                vals: m.vals(),
                i: 0,
            },
        }
    }

    /// The stored entries as parallel slices of strictly ascending node
    /// ids and their values — what the attribution kernel reads. Borrowed
    /// in place from compacted sorted arrays or a mapped block (which
    /// may hold explicit zeros); a dense column collects its non-zeros
    /// first.
    pub fn sorted_parts(&self) -> (Cow<'_, [u32]>, Cow<'_, [f64]>) {
        match self.nonzero_sorted() {
            NonzeroSorted::Csr { keys, vals, .. } => (Cow::Borrowed(keys), Cow::Borrowed(vals)),
            entries => {
                let (keys, vals): (Vec<u32>, Vec<f64>) = entries.unzip();
                (Cow::Owned(keys), Cow::Owned(vals))
            }
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        match self {
            MetricVec::Dense(v) => v.capacity() * std::mem::size_of::<f64>(),
            MetricVec::Csr(c) => c.heap_bytes(),
            // Borrowed from the shared file image: no heap of its own.
            MetricVec::Mapped(_) => 0,
        }
    }
}

/// Borrowed iterator over non-zero `(node, value)` entries in ascending
/// node order; see [`MetricVec::nonzero_sorted`].
#[derive(Debug)]
pub enum NonzeroSorted<'a> {
    /// Walks a dense vector 64 cells at a time: a mask of a block's
    /// non-zeros is built with no branch per cell (a column of
    /// attributed values is a coin flip per cell), then its set bits are
    /// handed out in order.
    Dense {
        /// The dense values.
        v: &'a [f64],
        /// First index of the next block to inspect.
        i: usize,
        /// The current block's non-zeros not handed out yet: bit `b` is
        /// index `base + b`.
        mask: u64,
        /// First index of the current block.
        base: usize,
    },
    /// Walks a compacted columnar store's parallel arrays.
    Csr {
        /// Sorted node ids.
        keys: &'a [u32],
        /// Values parallel to `keys`.
        vals: &'a [f64],
        /// Next index to inspect.
        i: usize,
    },
    /// A materialized sorted buffer (sorted arrays with pending deltas).
    Owned(std::vec::IntoIter<(u32, f64)>),
}

impl Iterator for NonzeroSorted<'_> {
    type Item = (u32, f64);

    fn next(&mut self) -> Option<(u32, f64)> {
        match self {
            NonzeroSorted::Dense { v, i, mask, base } => {
                while *mask == 0 {
                    if *i >= v.len() {
                        return None;
                    }
                    (*mask, *base, *i) = next_block(v, *i);
                }
                let at = *base + mask.trailing_zeros() as usize;
                *mask &= *mask - 1;
                Some((at as u32, v[at]))
            }
            NonzeroSorted::Csr { keys, vals, i } => {
                while *i < keys.len() {
                    let at = *i;
                    *i += 1;
                    if vals[at] != 0.0 {
                        return Some((keys[at], vals[at]));
                    }
                }
                None
            }
            NonzeroSorted::Owned(it) => it.next(),
        }
    }

    /// Internal iteration (`for_each`, `sum`, the summary kernel): one
    /// loop per shape, not a dispatch per entry.
    fn fold<B, F: FnMut(B, (u32, f64)) -> B>(self, mut acc: B, mut f: F) -> B {
        match self {
            NonzeroSorted::Dense {
                v,
                mut i,
                mut mask,
                mut base,
            } => loop {
                while mask != 0 {
                    let at = base + mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    acc = f(acc, (at as u32, v[at]));
                }
                if i >= v.len() {
                    return acc;
                }
                (mask, base, i) = next_block(v, i);
            },
            NonzeroSorted::Csr { keys, vals, i } => (keys[i..].iter().zip(&vals[i..]))
                .filter(|e| *e.1 != 0.0)
                .fold(acc, |acc, (&k, &x)| f(acc, (k, x))),
            NonzeroSorted::Owned(it) => it.fold(acc, f),
        }
    }
}

/// The dense block of up to 64 cells at `i`: a mask of its non-zeros,
/// built with no branch per cell, its first index, and the next block's.
fn next_block(v: &[f64], i: usize) -> (u64, usize, usize) {
    let block = &v[i..v.len().min(i + 64)];
    let mask = (0..)
        .zip(block)
        .fold(0, |m, (b, &x)| m | u64::from(x != 0.0) << b);
    (mask, i, i + block.len())
}

/// Selects nothing. A column's representation follows its data (module
/// docs); this type exists because the benchmark's
/// `examples/bench_e2e/src/adapter.rs`, frozen for feature PRs, passes it
/// to [`RawMetrics::new`], `Experiment::build`, `attribute`,
/// `Correlator::finish` and `ParallelCorrelator::correlate` (the
/// correlator's `add` loop under the name the adapter calls) and reads
/// it from `Experiment::storage`. All six ignore it; it goes with the
/// adapter's arguments (ROADMAP, "Re-baseline the scoreboard").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// The only value.
    Csr,
}

/// Direct (sample-point) costs for every raw metric, attached to a CCT.
///
/// `values[m].get(n)` is the cost measured *at* node `n` for metric `m`:
/// sample count × period, before any inclusive/exclusive attribution.
#[derive(Debug, Clone, Default)]
pub struct RawMetrics {
    descs: Vec<MetricDesc>,
    values: Vec<MetricVec>,
    /// Lazy-fault slots for metrics backed by a [`ColumnSource`]
    /// (CPDB databases).
    lazy: LazySlots,
}

impl RawMetrics {
    /// An empty metric set. The argument selects nothing ([`StorageKind`]).
    pub fn new(_: StorageKind) -> Self {
        RawMetrics::default()
    }

    /// Back every currently registered metric with `source`: their
    /// direct-cost columns start empty and fault in (at most once each)
    /// on first access. Metrics added afterwards are eager as usual.
    pub fn attach_source(&mut self, source: Arc<dyn ColumnSource>) {
        self.lazy.attach(source, self.descs.len());
    }

    /// Number of metrics whose direct-cost column is resident in
    /// memory. Equals [`RawMetrics::metric_count`] for eager metric
    /// sets; counts faulted-in columns for lazily backed ones.
    pub fn materialized_metrics(&self) -> usize {
        self.descs.len() - self.lazy.slots.len() + self.lazy.resident()
    }

    /// Every distinct failure reported by the lazy column source, in
    /// first-seen order (empty when all loads succeeded).
    pub fn lazy_errors(&self) -> Vec<String> {
        self.lazy.all_errors()
    }

    /// Decode executions recorded for metric `m` (0 if untouched,
    /// exactly 1 once faulted in, regardless of reader concurrency).
    pub fn fault_count(&self, m: MetricId) -> u64 {
        self.lazy.fault_count(m.index())
    }

    /// Resolve the storage of metric `m`, faulting lazily backed
    /// columns in on first touch.
    fn resolved(&self, m: MetricId) -> &MetricVec {
        self.lazy
            .fault(m.index(), |s| s.load_raw(m))
            .unwrap_or(&self.values[m.index()])
    }

    /// Mutable storage of metric `m`; lazily backed columns are faulted
    /// in first so the mutation lands on the materialized contents.
    fn resolved_mut(&mut self, m: MetricId) -> &mut MetricVec {
        if self.lazy.covers(m.index()) {
            self.resolved(m);
            return self.lazy.slots[m.index()]
                .get_mut()
                .expect("slot faulted in above");
        }
        &mut self.values[m.index()]
    }

    /// Register a raw metric, returning its id. Its column starts as
    /// empty sorted arrays: ingestion puts costs on statements only, in
    /// whatever order profiles arrive.
    pub fn add_metric(&mut self, desc: MetricDesc) -> MetricId {
        let id = MetricId::from_usize(self.descs.len());
        self.descs.push(desc);
        self.values.push(MetricVec::Csr(CsrColumn::new()));
        id
    }

    /// Number of registered raw metrics.
    pub fn metric_count(&self) -> usize {
        self.descs.len()
    }

    /// Descriptor of metric `m`.
    pub fn desc(&self, m: MetricId) -> &MetricDesc {
        &self.descs[m.index()]
    }

    /// All metric descriptors, in id order.
    pub fn descs(&self) -> &[MetricDesc] {
        &self.descs
    }

    /// Find a metric by name.
    pub fn find(&self, name: &str) -> Option<MetricId> {
        self.descs
            .iter()
            .position(|d| d.name == name)
            .map(MetricId::from_usize)
    }

    /// Record `count` samples of metric `m` at node `n`.
    pub fn record_samples(&mut self, m: MetricId, n: crate::ids::NodeId, count: u64) {
        let period = self.descs[m.index()].period;
        self.resolved_mut(m).add(n.0, count as f64 * period);
    }

    /// Add a pre-scaled cost at node `n`.
    pub fn add_cost(&mut self, m: MetricId, n: crate::ids::NodeId, cost: f64) {
        self.resolved_mut(m).add(n.0, cost);
    }

    /// Batched [`RawMetrics::add_cost`]: one column lookup for the whole
    /// slice and a tight loop over it, which keeps columnar storage on
    /// its O(1) append fast path when `costs` is sorted by node (the
    /// order correlation reductions produce).
    pub fn add_costs(&mut self, m: MetricId, costs: &[(crate::ids::NodeId, f64)]) {
        let col = self.resolved_mut(m);
        for &(n, v) in costs {
            col.add(n.0, v);
        }
    }

    /// Ingestion is over and the tree has `n_nodes` nodes: give every
    /// resident column the shape [`MetricVec::from_sorted`] picks for its
    /// coverage (`Experiment::build` calls this once it has attributed).
    /// Values do not change; lazily backed columns are left on the shelf.
    pub(crate) fn settle(&mut self, n_nodes: usize) {
        for (i, col) in self.values.iter_mut().enumerate() {
            if !self.lazy.covers(i) {
                *col = MetricVec::from_sorted(col.nonzero_sorted().collect(), n_nodes);
            }
        }
    }

    /// Direct (sample-point) cost of metric `m` at node `n`.
    pub fn direct(&self, m: MetricId, n: crate::ids::NodeId) -> f64 {
        self.resolved(m).get(n.0)
    }

    /// The raw per-node storage of metric `m`.
    pub fn column(&self, m: MetricId) -> &MetricVec {
        self.resolved(m)
    }

    /// Total direct cost of metric `m` over all nodes (the whole-program
    /// cost, which equals the root's inclusive value after attribution).
    pub fn total(&self, m: MetricId) -> f64 {
        self.resolved(m).nonzero_sorted().map(|(_, v)| v).sum()
    }
}

/// How a presentation column derives its values.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnFlavor {
    /// Inclusive projection of a raw metric (Eq. 2).
    Inclusive(MetricId),
    /// Exclusive projection of a raw metric (Eq. 1 hybrid rules).
    Exclusive(MetricId),
    /// Computed from other columns with a formula (Section V-D); the source
    /// text of the formula is kept for the experiment database.
    Derived {
        /// Source text of the formula (kept for the experiment database).
        formula: String,
    },
    /// A statistic over per-process values (finalization step, Section IV).
    Summary {
        /// The raw metric the statistic summarizes.
        base: MetricId,
        /// Which statistic over per-process values.
        stat: crate::summary::Stat,
    },
}

/// A presentation column: what the metric pane shows.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDesc {
    /// Column title shown in the metric pane.
    pub name: String,
    /// How the column's values are produced.
    pub flavor: ColumnFlavor,
    /// Hidden columns take part in derived-metric formulas but are not
    /// rendered (matches hpcviewer's show/hide metric property).
    pub visible: bool,
}

/// Ids of the columns among `descs` (in id order) that the metric pane
/// renders.
pub fn visible_columns(descs: &[ColumnDesc]) -> impl Iterator<Item = ColumnId> + '_ {
    let shown = descs.iter().enumerate().filter(|(_, d)| d.visible);
    shown.map(|(i, _)| ColumnId::from_usize(i))
}

/// The table of presentation columns over the CCT's nodes (a view tree
/// keeps the values it sums from them itself, `viewtree::ViewTree`).
/// Column values are indexed by node id.
#[derive(Debug, Clone, Default)]
pub struct ColumnSet {
    descs: Vec<ColumnDesc>,
    values: Vec<MetricVec>,
    /// Lazy-fault bookkeeping for columns backed by a [`ColumnSource`]
    /// (CPDB databases).
    lazy: LazySlots,
}

impl ColumnSet {
    /// An empty column table.
    pub fn new() -> Self {
        ColumnSet::default()
    }

    /// Back the first `descs().len()` columns with a lazy source: each
    /// column's values materialize from `source` on first read instead of
    /// being decoded up front. Columns appended *after* this call are
    /// ordinary eager columns.
    pub fn attach_source(&mut self, source: Arc<dyn ColumnSource>) {
        self.lazy.attach(source, self.descs.len());
    }

    /// How many columns have materialized values: eager columns plus
    /// lazily-backed columns that have been read (not merely computed by
    /// their source). The laziness acceptance tests pin this.
    pub fn materialized_columns(&self) -> usize {
        self.descs.len() - self.lazy.slots.len() + self.lazy.resident()
    }

    /// Every distinct lazy-load failure, in first-seen order (empty when
    /// all loads succeeded). A failing column reads as all zeros rather
    /// than panicking mid-render.
    pub fn lazy_errors(&self) -> Vec<String> {
        self.lazy.all_errors()
    }

    /// Decode executions recorded for column `c` (0 if untouched,
    /// exactly 1 once faulted in, regardless of reader concurrency).
    pub fn fault_count(&self, c: ColumnId) -> u64 {
        self.lazy.fault_count(c.index())
    }

    /// Check the stored data of columns `cols` in one pass, ahead of
    /// reading them ([`ColumnSource::precheck`]); nothing to do on a
    /// built experiment.
    pub fn precheck(&self, cols: &[ColumnId]) {
        if let Some(source) = &self.lazy.source {
            source.precheck(cols);
        }
    }

    fn resolved(&self, c: ColumnId) -> &MetricVec {
        self.lazy
            .fault(c.index(), |s| s.load_column(c, self))
            .unwrap_or(&self.values[c.index()])
    }

    fn resolved_mut(&mut self, c: ColumnId) -> &mut MetricVec {
        if self.lazy.covers(c.index()) {
            self.resolved(c);
            return self.lazy.slots[c.index()]
                .get_mut()
                .expect("slot faulted in above");
        }
        &mut self.values[c.index()]
    }

    /// Append a presentation column, returning its id. It starts as an
    /// empty node-indexed vector, which is what its cell-by-cell writers
    /// need (summary statistics: a value at most nodes, in node order).
    pub fn add_column(&mut self, desc: ColumnDesc) -> ColumnId {
        let id = ColumnId::from_usize(self.descs.len());
        self.descs.push(desc);
        self.values.push(MetricVec::dense(0));
        id
    }

    /// Append a presentation column whose values are already computed:
    /// the vector becomes the column's storage as it is, with no
    /// per-node copy.
    pub fn add_column_with(&mut self, desc: ColumnDesc, values: MetricVec) -> ColumnId {
        let id = self.add_column(desc);
        self.values[id.index()] = values;
        id
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.descs.len()
    }

    /// Descriptor of column `c`.
    pub fn desc(&self, c: ColumnId) -> &ColumnDesc {
        &self.descs[c.index()]
    }

    /// All column descriptors, in id order.
    pub fn descs(&self) -> &[ColumnDesc] {
        &self.descs
    }

    /// Every column id, in order.
    pub fn columns(&self) -> impl Iterator<Item = ColumnId> + '_ {
        (0..self.descs.len()).map(ColumnId::from_usize)
    }

    /// Column ids the metric pane renders (visible ones).
    pub fn visible_columns(&self) -> impl Iterator<Item = ColumnId> + '_ {
        visible_columns(&self.descs)
    }

    /// Look a column up by its title.
    pub fn find(&self, name: &str) -> Option<ColumnId> {
        self.descs
            .iter()
            .position(|d| d.name == name)
            .map(ColumnId::from_usize)
    }

    /// Value of column `c` at `node` (0.0 when absent).
    #[inline]
    pub fn get(&self, c: ColumnId, node: u32) -> f64 {
        self.resolved(c).get(node)
    }

    /// Set column `c` at `node`.
    #[inline]
    pub fn set(&mut self, c: ColumnId, node: u32, value: f64) {
        self.resolved_mut(c).set(node, value);
    }

    /// Accumulate into column `c` at `node`.
    #[inline]
    pub fn add(&mut self, c: ColumnId, node: u32, delta: f64) {
        self.resolved_mut(c).add(node, delta);
    }

    /// The per-node storage backing column `c`.
    pub fn vec(&self, c: ColumnId) -> &MetricVec {
        self.resolved(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    /// A visible inclusive column of metric 0.
    fn col(name: &str) -> ColumnDesc {
        ColumnDesc {
            name: name.into(),
            flavor: ColumnFlavor::Inclusive(MetricId(0)),
            visible: true,
        }
    }

    /// The search from a finger finds what a bisection finds, from every
    /// start, on every small key set (present and absent keys, both ends).
    #[test]
    fn lower_bound_from_any_finger_is_the_lower_bound() {
        for keys in [
            vec![],
            vec![5],
            vec![1, 2, 3],
            (0..40).map(|k| 3 * k + 1).collect(),
        ] {
            for node in 0..=keys.last().map_or(2, |&k| k + 2) {
                let expected = keys.partition_point(|&k| k < node);
                for from in 0..=keys.len() + 2 {
                    assert_eq!(
                        lower_bound_from(&keys, node, from),
                        expected,
                        "{keys:?} {node} {from}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        /// `get_near` ≡ `get` on a sorted column, whatever the finger and
        /// the order of the reads.
        #[test]
        fn get_near_reads_what_get_reads(
            keys in proptest::collection::vec(0u32..5_000, 0..300),
            reads in proptest::collection::vec(0u32..5_100, 1..200),
            finger in 0usize..400,
        ) {
            let mut keys = keys;
            keys.sort_unstable();
            keys.dedup();
            let entries: Vec<(u32, f64)> = keys.iter().map(|&k| (k, f64::from(k) + 0.5)).collect();
            let column = MetricVec::Csr(CsrColumn::from_sorted(entries));
            let mut finger = finger;
            for node in reads {
                proptest::prop_assert_eq!(column.get_near(node, &mut finger), column.get(node));
            }
        }
    }

    /// Dense ≡ sorted arrays (the sparse shape) under the same writes.
    #[test]
    fn dense_sparse_and_csr_agree() {
        let mut d = MetricVec::dense(0);
        let mut c = MetricVec::Csr(CsrColumn::new());
        for (n, v) in [(3u32, 1.5), (0, 2.0), (3, 0.5), (10, -1.0)] {
            d.add(n, v);
            c.add(n, v);
        }
        for n in 0..12 {
            assert_eq!(d.get(n), c.get(n), "node {n}");
        }
        let dv: Vec<_> = d.nonzero_sorted().collect();
        let cv: Vec<_> = c.nonzero_sorted().collect();
        assert_eq!(dv, cv);
        for v in [&d, &c] {
            let (keys, vals) = v.sorted_parts();
            assert!(keys
                .iter()
                .zip(vals.iter())
                .eq(dv.iter().map(|(k, x)| (k, x))));
        }
        // Setting a cell to zero removes it from both.
        d.set(10, 0.0);
        c.set(10, 0.0);
        assert_eq!((d.nonzero_count(), c.nonzero_count()), (2, 2));
    }

    /// Both ways through a dense column — `next` and `fold`, from the
    /// start and part way — hand out exactly its non-zeros in order,
    /// across block boundaries and a short last block.
    #[test]
    fn dense_walks_agree_with_a_filter() {
        let v: Vec<f64> = (0..203u32)
            .map(|i| match i % 7 {
                0 | 3 => 0.0,
                5 => -0.0,
                _ => f64::from(i) - 100.0,
            })
            .collect();
        let col = MetricVec::Dense(v.clone());
        let want: Vec<(u32, f64)> = (0u32..).zip(v).filter(|e| e.1 != 0.0).collect();
        assert_eq!(col.nonzero_sorted().collect::<Vec<_>>(), want);
        for skip in [0, 1, 40, 100, want.len()] {
            let mut it = col.nonzero_sorted();
            it.by_ref().take(skip).for_each(drop);
            let mut rest = Vec::new();
            it.for_each(|e| rest.push(e));
            assert_eq!(rest, want[skip..], "after {skip}");
        }
    }

    #[test]
    fn from_sorted_is_dense_from_one_node_in_four() {
        let entries: Vec<(u32, f64)> = (0..25).map(|i| (i * 4, 1.0 + i as f64)).collect();
        // 4·len = n − 1: sorted arrays; 4·len = n: a node-indexed vector.
        let below = MetricVec::from_sorted(entries.clone(), 101);
        let at = MetricVec::from_sorted(entries.clone(), 100);
        assert!(matches!(below, MetricVec::Csr(_)), "{below:?}");
        assert!(
            matches!(&at, MetricVec::Dense(v) if v.len() == 100),
            "{at:?}"
        );
        for shape in [&below, &at] {
            assert_eq!(shape.nonzero_sorted().collect::<Vec<_>>(), entries);
        }
        // A key past the stated node count still has a slot.
        let past = MetricVec::from_sorted(vec![(0, 1.0), (9, 2.0)], 4);
        assert_eq!((past.get(9), past.get(10)), (2.0, 0.0));
    }

    #[test]
    fn build_settles_raw_columns_by_their_coverage() {
        use crate::names::{NameTable, SourceLoc};
        let mut cct = crate::cct::Cct::new(NameTable::new());
        let mut raw = RawMetrics::new(StorageKind::Csr);
        let third = raw.add_metric(MetricDesc::new("one in 3", "u", 1.0));
        let hundredth = raw.add_metric(MetricDesc::new("one in 100", "u", 1.0));
        // 299 statements under the root; costs ingested in descending
        // node order, so through the pending overlay.
        let stmts: Vec<NodeId> = (1..300)
            .map(|line| {
                let loc = SourceLoc::new(crate::ids::FileId(0), line);
                cct.add_child(cct.root(), crate::scope::ScopeKind::Stmt { loc })
            })
            .collect();
        for &s in stmts.iter().rev() {
            if s.0 % 3 == 0 {
                raw.add_cost(third, s, s.0 as f64);
            }
            if s.0 % 100 == 0 {
                raw.add_cost(hundredth, s, s.0 as f64);
            }
        }
        assert!(matches!(raw.column(third), MetricVec::Csr(_)));
        let totals = (raw.total(third), raw.total(hundredth));
        let exp = crate::experiment::Experiment::build(cct, raw, StorageKind::Csr);
        assert!(matches!(exp.raw.column(third), MetricVec::Dense(v) if v.len() == 300));
        assert!(matches!(exp.raw.column(hundredth), MetricVec::Csr(_)));
        assert_eq!(exp.raw.column(third).nonzero_count(), 99);
        assert_eq!(exp.raw.column(hundredth).nonzero_count(), 2);
        assert_eq!((exp.raw.total(third), exp.raw.total(hundredth)), totals);
        // The attributed columns follow the kernel's branch: a statement's
        // chain is itself and the root.
        let inclusive = |m| exp.columns.vec(exp.inclusive_col(m));
        assert!(matches!(inclusive(third), MetricVec::Dense(_)));
        assert!(matches!(inclusive(hundredth), MetricVec::Csr(_)));
        assert_eq!(exp.inclusive(hundredth, exp.cct.root()), totals.1);
    }

    #[test]
    fn both_shapes_of_one_column_read_bit_identically() {
        let entries = vec![(1u32, 0.1), (2, 1e-17), (5, -3e300), (9, f64::NAN)];
        let mut raw = RawMetrics::new(StorageKind::Csr);
        let sorted = raw.add_metric(MetricDesc::new("sorted", "u", 1.0));
        let dense = raw.add_metric(MetricDesc::new("dense", "u", 1.0));
        raw.values[sorted.index()] = MetricVec::Csr(CsrColumn::from_sorted(entries.clone()));
        raw.values[dense.index()] = MetricVec::from_sorted(entries, 12);
        assert!(matches!(raw.column(dense), MetricVec::Dense(_)));
        assert_eq!(raw.total(sorted).to_bits(), raw.total(dense).to_bits());
        let bits = |m| -> Vec<(u32, u64)> {
            let entries = raw.column(m).nonzero_sorted();
            entries.map(|(k, v)| (k, v.to_bits())).collect()
        };
        assert_eq!(bits(sorted), bits(dense));
        for n in 0..14 {
            let (s, d) = (raw.direct(sorted, NodeId(n)), raw.direct(dense, NodeId(n)));
            assert_eq!(s.to_bits(), d.to_bits(), "node {n}");
        }
    }

    #[test]
    fn csr_set_overwrites_and_handles_out_of_order() {
        let mut c = CsrColumn::new();
        // Ascending appends stay on the fast path...
        for n in [1u32, 4, 9] {
            c.add(n, 1.0);
        }
        // ...then an out-of-order burst lands in the overlay.
        c.add(2, 5.0);
        c.add(4, -1.0);
        c.set(9, 7.0);
        c.set(3, 2.5);
        c.set(1, 0.0);
        assert_eq!([1, 2, 3, 4, 9].map(|n| c.get(n)), [0.0, 5.0, 2.5, 0.0, 7.0]);
        let mv = MetricVec::Csr(c);
        let nz: Vec<_> = mv.nonzero_sorted().collect();
        assert_eq!(nz, vec![(2, 5.0), (3, 2.5), (9, 7.0)]);
    }

    #[test]
    fn csr_set_appends_past_the_last_key() {
        let mut c = CsrColumn::new();
        c.set(2, 1.0); // into an empty column
        c.set(5, 2.0); // set after a set-append
        c.add(9, 3.0);
        c.set(12, 4.0); // set after an add-append
        c.set(12, 6.0); // overwrite the last key
        c.set(20, 0.0); // a zero past the end stores nothing
        assert_eq!(
            (c.keys.as_slice(), c.vals.as_slice()),
            (&[2, 5, 9, 12][..], &[1.0, 2.0, 3.0, 6.0][..])
        );
        // Out of order: inserted in place, overwritten in place.
        c.set(7, 7.0);
        c.set(5, 5.5);
        c.set(30, 8.0);
        assert!(c.pending.is_empty());
        assert_eq!(c.keys, [2, 5, 7, 9, 12, 30]);
        assert_eq!(c.vals, [1.0, 5.5, 7.0, 3.0, 6.0, 8.0]);
        // A pending overlay is folded in before the append test.
        c.add(1, 0.5);
        c.set(31, 9.0);
        assert_eq!(c.keys, [1, 2, 5, 7, 9, 12, 30, 31]);
        assert_eq!(c.get(1), 0.5);
        assert_eq!(c.get(31), 9.0);
    }

    #[test]
    fn csr_compaction_preserves_values_past_threshold() {
        let mut c = CsrColumn::new();
        let mut expect = std::collections::BTreeMap::new();
        // Alternate high/low nodes so every other add is out of order,
        // forcing several compactions.
        for i in 0..500u32 {
            let n = if i % 2 == 0 { i } else { 1000 - i };
            c.add(n, 1.0 + i as f64);
            *expect.entry(n).or_insert(0.0) += 1.0 + i as f64;
        }
        for (&n, &v) in &expect {
            assert_eq!(c.get(n), v, "node {n}");
        }
        assert_eq!(MetricVec::Csr(c).nonzero_count(), expect.len());
    }

    /// Column 0 loads; every other column and every raw metric fails.
    #[derive(Debug)]
    struct PerColumnFailure;

    impl ColumnSource for PerColumnFailure {
        fn load_column(&self, c: ColumnId, _: &ColumnSet) -> Result<MetricVec, String> {
            match c.index() {
                0 => Ok(MetricVec::from_sorted(vec![(2, 5.0)], 3)),
                i => Err(format!("column {i}: checksum mismatch")),
            }
        }
        fn load_raw(&self, _m: MetricId) -> Result<MetricVec, String> {
            Err("raw block missing".into())
        }
    }

    #[derive(Debug)]
    struct CountingSource {
        entries: Vec<(u32, f64)>,
        loads: AtomicU64,
    }

    impl ColumnSource for CountingSource {
        fn load_column(&self, _c: ColumnId, _: &ColumnSet) -> Result<MetricVec, String> {
            self.loads.fetch_add(1, Ordering::SeqCst);
            Ok(MetricVec::from_sorted(self.entries.clone(), 100))
        }
        fn load_raw(&self, m: MetricId) -> Result<MetricVec, String> {
            self.load_column(ColumnId(m.0), &ColumnSet::new())
        }
    }

    #[test]
    fn lazy_columns_fault_once_on_first_read() {
        let mut cs = ColumnSet::new();
        let (a, b) = (cs.add_column(col("a")), cs.add_column(col("b")));
        let source = Arc::new(CountingSource {
            entries: vec![(1, 2.0), (5, 7.5)],
            loads: AtomicU64::new(0),
        });
        cs.attach_source(source.clone());
        assert_eq!(cs.materialized_columns(), 0);

        assert_eq!(cs.get(a, 5), 7.5);
        assert_eq!(cs.get(a, 0), 0.0);
        assert_eq!(cs.materialized_columns(), 1);
        assert_eq!(source.loads.load(Ordering::SeqCst), 1);

        // A mutation lands on the faulted contents.
        cs.add(b, 1, 1.0);
        assert_eq!(cs.get(b, 1), 3.0);
        assert_eq!(cs.materialized_columns(), 2);
        assert_eq!(source.loads.load(Ordering::SeqCst), 2);
        assert!(cs.lazy_errors().is_empty());
    }

    #[test]
    fn lazy_raw_metrics_fault_and_errors_read_as_zero() {
        let mut raw = RawMetrics::new(StorageKind::Csr);
        let m = raw.add_metric(MetricDesc::new("cycles", "cycles", 1.0));
        raw.attach_source(Arc::new(CountingSource {
            entries: vec![(0, 4.0), (3, 2.0)],
            loads: AtomicU64::new(0),
        }));
        assert_eq!(raw.materialized_metrics(), 0);
        assert_eq!(raw.total(m), 6.0);
        assert_eq!(raw.direct(m, NodeId(3)), 2.0);
        assert_eq!(raw.materialized_metrics(), 1);

        let mut failing = RawMetrics::new(StorageKind::Csr);
        let f = failing.add_metric(MetricDesc::new("cycles", "cycles", 1.0));
        failing.attach_source(Arc::new(PerColumnFailure));
        assert_eq!(failing.direct(f, NodeId(0)), 0.0);
        assert_eq!(failing.lazy_errors(), ["raw block missing"]);
    }

    #[test]
    fn every_distinct_lazy_failure_is_kept_with_per_column_fault_counts() {
        let mut cs = ColumnSet::new();
        for name in ["a", "b", "c"] {
            cs.add_column(col(name));
        }
        cs.attach_source(Arc::new(PerColumnFailure));

        // Touch every column: one succeeds, two fail with distinct reasons.
        assert_eq!(cs.get(ColumnId(0), 2), 5.0);
        assert_eq!(cs.get(ColumnId(1), 2), 0.0);
        assert_eq!(cs.get(ColumnId(2), 2), 0.0);

        // Both are kept, in first-seen order.
        let both = ["column 1: checksum mismatch", "column 2: checksum mismatch"];
        assert_eq!(cs.lazy_errors(), both);

        // Fault counts: exactly one decode per touched column, repeat
        // reads never re-decode (even for the failed ones).
        assert_eq!(cs.get(ColumnId(1), 7), 0.0);
        for c in [ColumnId(0), ColumnId(1), ColumnId(2)] {
            assert_eq!(cs.fault_count(c), 1, "column {}", c.index());
        }
        assert_eq!(cs.lazy_errors().len(), 2);
    }

    #[test]
    fn add_costs_matches_scalar_adds() {
        let costs = [(0, 1.0), (5, 2.0), (3, 4.0), (5, 0.5)].map(|(n, v)| (NodeId(n), v));
        let mut batched = RawMetrics::new(StorageKind::Csr);
        let mb = batched.add_metric(MetricDesc::new("m", "u", 1.0));
        batched.add_costs(mb, &costs);
        let mut scalar = RawMetrics::new(StorageKind::Csr);
        let ms = scalar.add_metric(MetricDesc::new("m", "u", 1.0));
        for &(n, v) in &costs {
            scalar.add_cost(ms, n, v);
        }
        for n in (0..8).map(NodeId) {
            assert_eq!(batched.direct(mb, n), scalar.direct(ms, n), "{n:?}");
        }
    }

    #[test]
    fn record_samples_scales_by_period() {
        let mut raw = RawMetrics::new(StorageKind::Csr);
        let m = raw.add_metric(MetricDesc::new("PAPI_TOT_CYC", "cycles", 1000.0));
        raw.record_samples(m, NodeId(4), 3);
        assert_eq!(raw.direct(m, NodeId(4)), 3000.0);
        assert_eq!(raw.total(m), 3000.0);
    }

    #[test]
    fn find_metric_by_name() {
        let mut raw = RawMetrics::new(StorageKind::Csr);
        let cyc = raw.add_metric(MetricDesc::new("cycles", "cycles", 1.0));
        let l1 = raw.add_metric(MetricDesc::new("l1_dcm", "misses", 1.0));
        assert_eq!(raw.find("cycles"), Some(cyc));
        assert_eq!(raw.find("l1_dcm"), Some(l1));
        assert_eq!(raw.find("nope"), None);
    }

    #[test]
    fn column_set_visibility() {
        let mut cs = ColumnSet::new();
        let a = cs.add_column(col("cycles (I)"));
        let b = cs.add_column(ColumnDesc {
            name: "scratch".into(),
            flavor: ColumnFlavor::Derived {
                formula: "$0*2".into(),
            },
            visible: false,
        });
        let visible: Vec<ColumnId> = cs.visible_columns().collect();
        assert_eq!(visible, vec![a]);
        assert_eq!(cs.find("scratch"), Some(b));
    }
}
