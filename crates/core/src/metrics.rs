//! Metric descriptors and per-node metric storage.
//!
//! The paper uses *metric* for any measure of work (instructions), resource
//! consumption (bus transactions) or inefficiency (stall cycles). A raw
//! metric is what the sampler records; the presentation layer projects each
//! raw metric into an **inclusive** and an **exclusive** column, and lets
//! the analyst add **derived** columns computed by formula (Section V-D).
//!
//! Performance data is sparse (Section V-A): most CCT nodes have zero for
//! most metrics. Storage therefore comes in three interchangeable flavors —
//! dense `Vec<f64>`, a hash-indexed sparse map, and a sorted columnar
//! (CSR-style) layout ([`CsrColumn`]) whose non-zeros live in two parallel
//! arrays ordered by node id — so the ablation bench (`metric_storage`)
//! can compare them; the public API is identical. The columnar flavor is
//! the parallel-ingestion workhorse: workers accumulate into
//! [`ColumnBuilder`]s and the reduction merges frozen columns in O(nnz).
//!
//! [`RawMetrics`] and [`ColumnSet`] each carry a **generation counter**
//! bumped by every mutation; cached child orderings key on it to
//! revalidate instead of serving stale values.

use crate::ids::{ColumnId, MetricId};
use crate::mapped::{ColumnData, MappedCol};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// On-demand provider of column contents, the hook behind lazily opened
/// experiment databases (CPDB): a [`ColumnSet`] or [`RawMetrics`]
/// with a source attached starts with **no resident column data** and
/// faults each column in on first touch, so opening a database costs
/// only topology decoding and untouched metric columns are never paid
/// for.
///
/// Both methods return entries **sorted ascending by node id** with no
/// duplicates — either decoded into an owned buffer or borrowed
/// zero-copy from the file image ([`ColumnData::Mapped`]). They are
/// called at most once per column/metric (results are
/// cached in the owning set). A `Err(reason)` materializes the column
/// as all-zeros and is surfaced through [`ColumnSet::lazy_error`] /
/// [`RawMetrics::lazy_error`] instead of panicking, so a corrupt block
/// discovered mid-render degrades rather than aborts.
pub trait ColumnSource: Send + Sync + std::fmt::Debug {
    /// Sorted non-zero `(node, value)` entries of presentation column `c`.
    fn load_column(&self, c: ColumnId) -> Result<ColumnData, String>;
    /// Sorted non-zero direct-cost entries of raw metric `m`.
    fn load_raw(&self, m: MetricId) -> Result<ColumnData, String>;
}

/// Lazy-fault bookkeeping shared by [`ColumnSet`] and [`RawMetrics`]:
/// one [`OnceLock`] slot per lazily backed column, filled from the
/// source on first touch. Faulting a column in does **not** bump the
/// owner's generation: a fault happens on the *first* read, so no
/// cached ordering can ever have observed the pre-fault zeros — the
/// PR 2 sort-cache invariants hold unchanged.
#[derive(Debug, Default)]
struct LazySlots {
    source: Option<Arc<dyn ColumnSource>>,
    slots: Vec<OnceLock<MetricVec>>,
    /// Decode executions per slot. `OnceLock` runs the init closure at
    /// most once, so after a fault this reads exactly 1 no matter how
    /// many threads raced the first touch — the concurrency stress test
    /// asserts on it.
    fault_counts: Vec<AtomicU64>,
    /// First load failure, kept for the original single-error API
    /// (the column reads as zeros from then on).
    error: OnceLock<String>,
    /// Every *distinct* load failure, in first-seen order. The original
    /// bookkeeping dropped all but the first; multi-column corruption
    /// now surfaces completely via [`ColumnSet::lazy_errors`].
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
            error: self.error.clone(),
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
        storage: StorageKind,
        load: impl FnOnce(&dyn ColumnSource) -> Result<ColumnData, String>,
    ) -> Option<&MetricVec> {
        if !self.covers(index) {
            return None;
        }
        let source = self.source.as_deref()?;
        // A source hands over sorted entries, and sorted arrays are what
        // a faulted column stays as: no hash build between the database
        // block and the slot. Only a dense owner scatters them, because
        // its readers index every node of every column.
        let storage = match storage {
            StorageKind::Dense => StorageKind::Dense,
            StorageKind::Sparse | StorageKind::Csr => StorageKind::Csr,
        };
        Some(self.slots[index].get_or_init(|| {
            self.fault_counts[index].fetch_add(1, Ordering::Relaxed);
            match load(source) {
                Ok(ColumnData::Owned(entries)) => MetricVec::from_sorted(storage, entries),
                Ok(ColumnData::Mapped(col)) => MetricVec::Mapped(col),
                Err(reason) => {
                    let mut all = self.errors.lock().expect("lazy errors lock");
                    if !all.contains(&reason) {
                        all.push(reason.clone());
                    }
                    drop(all);
                    let _ = self.error.set(reason);
                    empty_vec(storage)
                }
            }
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

    fn heap_bytes(&self) -> usize {
        self.slots
            .iter()
            .filter_map(|s| s.get())
            .map(MetricVec::heap_bytes)
            .sum()
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
                Some(&last) if node > last => {
                    self.keys.push(node);
                    self.vals.push(delta);
                    return;
                }
                None => {
                    self.keys.push(node);
                    self.vals.push(delta);
                    return;
                }
                _ => {}
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
        if !self.pending.is_empty() {
            self.compact();
        }
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
        let mut keys = Vec::with_capacity(self.keys.len() + overlay.len());
        let mut vals = Vec::with_capacity(self.keys.len() + overlay.len());
        let mut oi = 0;
        let mut push = |k: u32, v: f64| {
            if v != 0.0 {
                keys.push(k);
                vals.push(v);
            }
        };
        for (i, &k) in self.keys.iter().enumerate() {
            while oi < overlay.len() && overlay[oi].0 < k {
                let key = overlay[oi].0;
                let mut v = 0.0;
                while oi < overlay.len() && overlay[oi].0 == key {
                    v += overlay[oi].1;
                    oi += 1;
                }
                push(key, v);
            }
            let mut v = self.vals[i];
            while oi < overlay.len() && overlay[oi].0 == k {
                v += overlay[oi].1;
                oi += 1;
            }
            push(k, v);
        }
        while oi < overlay.len() {
            let key = overlay[oi].0;
            let mut v = 0.0;
            while oi < overlay.len() && overlay[oi].0 == key {
                v += overlay[oi].1;
                oi += 1;
            }
            push(key, v);
        }
        self.keys = keys;
        self.vals = vals;
    }

    /// Accumulate every entry of `other` into `self` with a single
    /// two-pointer merge: O(nnz(self) + nnz(other)), no binary searches.
    pub fn merge(&mut self, other: &CsrColumn) {
        self.compact();
        let compacted_other;
        let (okeys, ovals): (&[u32], &[f64]) = if other.pending.is_empty() {
            (&other.keys, &other.vals)
        } else {
            let mut c = other.clone();
            c.compact();
            compacted_other = c;
            (&compacted_other.keys, &compacted_other.vals)
        };
        let mut keys = Vec::with_capacity(self.keys.len() + okeys.len());
        let mut vals = Vec::with_capacity(self.keys.len() + okeys.len());
        let (mut i, mut j) = (0, 0);
        while i < self.keys.len() || j < okeys.len() {
            let (k, v) = if j >= okeys.len() || (i < self.keys.len() && self.keys[i] < okeys[j]) {
                let e = (self.keys[i], self.vals[i]);
                i += 1;
                e
            } else if i >= self.keys.len() || okeys[j] < self.keys[i] {
                let e = (okeys[j], ovals[j]);
                j += 1;
                e
            } else {
                let e = (self.keys[i], self.vals[i] + ovals[j]);
                i += 1;
                j += 1;
                e
            };
            if v != 0.0 {
                keys.push(k);
                vals.push(v);
            }
        }
        self.keys = keys;
        self.vals = vals;
    }

    /// Number of stored entries (after folding the overlay in).
    pub fn nnz(&mut self) -> usize {
        self.compact();
        self.vals.iter().filter(|&&v| v != 0.0).count()
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

/// Accumulates `(node, value)` pairs in any order — e.g. from one
/// ingestion worker — and freezes them into a sorted [`CsrColumn`].
/// Builders from different workers concatenate cheaply before freezing,
/// so a parallel reduction is "append all, sort once".
#[derive(Debug, Clone, Default)]
pub struct ColumnBuilder {
    entries: Vec<(u32, f64)>,
}

impl ColumnBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        ColumnBuilder::default()
    }

    /// Accumulate `value` at `node` (duplicates are summed at freeze).
    #[inline]
    pub fn push(&mut self, node: u32, value: f64) {
        if value != 0.0 {
            self.entries.push((node, value));
        }
    }

    /// Move every entry of `other` into this builder.
    pub fn append(&mut self, other: &mut ColumnBuilder) {
        self.entries.append(&mut other.entries);
    }

    /// Number of accumulated (pre-dedup) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries were pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sort, sum duplicates, drop zeros: the frozen immutable column.
    pub fn freeze(mut self) -> CsrColumn {
        self.entries.sort_unstable_by_key(|&(k, _)| k);
        let mut keys: Vec<u32> = Vec::new();
        let mut vals: Vec<f64> = Vec::new();
        for (k, v) in self.entries {
            if keys.last() == Some(&k) {
                *vals.last_mut().unwrap() += v;
                // Duplicates may cancel to exactly zero; drop the slot.
                if *vals.last().unwrap() == 0.0 {
                    keys.pop();
                    vals.pop();
                }
            } else {
                keys.push(k);
                vals.push(v);
            }
        }
        CsrColumn {
            keys,
            vals,
            pending: Vec::new(),
        }
    }
}

/// Per-node storage for one metric column. Indices are node ids of whatever
/// tree the containing table is attached to (CCT or a view tree).
#[derive(Debug, Clone)]
pub enum MetricVec {
    /// Dense vector indexed by node id.
    Dense(Vec<f64>),
    /// Sparse map from node id to value; zeros are absent.
    Sparse(HashMap<u32, f64>),
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

    /// An empty sparse column.
    pub fn sparse() -> Self {
        MetricVec::Sparse(HashMap::new())
    }

    /// An empty sorted columnar column.
    pub fn csr() -> Self {
        MetricVec::Csr(CsrColumn::new())
    }

    /// Build a column of the given storage flavor from entries sorted
    /// ascending by node id (no duplicates) — the shape lazy column
    /// sources and frozen reductions hand over.
    pub fn from_sorted(storage: StorageKind, entries: Vec<(u32, f64)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        match storage {
            StorageKind::Dense => {
                let len = entries.last().map(|&(k, _)| k as usize + 1).unwrap_or(0);
                let mut v = vec![0.0; len];
                for (k, x) in entries {
                    v[k as usize] = x;
                }
                MetricVec::Dense(v)
            }
            StorageKind::Sparse => MetricVec::Sparse(entries.into_iter().collect()),
            StorageKind::Csr => {
                let (keys, vals) = entries.into_iter().unzip();
                MetricVec::Csr(CsrColumn {
                    keys,
                    vals,
                    pending: Vec::new(),
                })
            }
        }
    }

    /// Value at `node` (0.0 when absent).
    #[inline]
    pub fn get(&self, node: u32) -> f64 {
        match self {
            MetricVec::Dense(v) => v.get(node as usize).copied().unwrap_or(0.0),
            MetricVec::Sparse(m) => m.get(&node).copied().unwrap_or(0.0),
            MetricVec::Csr(c) => c.get(node),
            MetricVec::Mapped(m) => m.get(node),
        }
    }

    /// Copy a mapped (zero-copy) column into owned columnar storage so
    /// it can be mutated; no-op for already-owned flavors.
    fn make_owned(&mut self) {
        if let MetricVec::Mapped(m) = self {
            let (keys, vals) = m.entries().into_iter().unzip();
            *self = MetricVec::Csr(CsrColumn {
                keys,
                vals,
                pending: Vec::new(),
            });
        }
    }

    /// Set the value at `node`; setting 0.0 removes sparse entries.
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
            MetricVec::Sparse(m) => {
                if value == 0.0 {
                    m.remove(&node);
                } else {
                    m.insert(node, value);
                }
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
            MetricVec::Sparse(m) => {
                *m.entry(node).or_insert(0.0) += delta;
            }
            MetricVec::Csr(c) => c.add(node, delta),
            MetricVec::Mapped(_) => unreachable!("make_owned() materialized above"),
        }
    }

    /// Number of nodes with a non-zero value.
    pub fn nonzero_count(&self) -> usize {
        match self {
            MetricVec::Dense(v) => v.iter().filter(|&&x| x != 0.0).count(),
            MetricVec::Sparse(m) => m.values().filter(|&&x| x != 0.0).count(),
            MetricVec::Csr(_) | MetricVec::Mapped(_) => self.nonzero_sorted().count(),
        }
    }

    /// Non-zero entries in ascending node order (deterministic regardless of
    /// storage flavor).
    ///
    /// Returns a borrowed iterator: the dense and compacted-columnar
    /// flavors walk their storage in place with no per-call allocation;
    /// only the hash-indexed flavor (and a columnar store with unmerged
    /// pending deltas) must materialize a sorted buffer first.
    pub fn nonzero_sorted(&self) -> NonzeroSorted<'_> {
        match self {
            MetricVec::Dense(v) => NonzeroSorted::Dense { v, i: 0 },
            MetricVec::Sparse(m) => {
                let mut out: Vec<(u32, f64)> = m
                    .iter()
                    .filter(|(_, &x)| x != 0.0)
                    .map(|(&k, &v)| (k, v))
                    .collect();
                out.sort_unstable_by_key(|&(k, _)| k);
                NonzeroSorted::Owned(out.into_iter())
            }
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
            // the file image, same shape as the columnar flavor.
            MetricVec::Mapped(m) => NonzeroSorted::Csr {
                keys: m.keys(),
                vals: m.vals(),
                i: 0,
            },
        }
    }

    /// The stored entries as parallel slices of strictly ascending node
    /// ids and their values — what the attribution kernel reads. Borrowed
    /// in place from a compacted columnar store or a mapped block (which
    /// may hold explicit zeros); the other flavors collect their
    /// non-zeros first.
    pub(crate) fn sorted_parts(&self) -> (Cow<'_, [u32]>, Cow<'_, [f64]>) {
        match self.nonzero_sorted() {
            NonzeroSorted::Csr { keys, vals, .. } => (Cow::Borrowed(keys), Cow::Borrowed(vals)),
            entries => {
                let (keys, vals): (Vec<u32>, Vec<f64>) = entries.unzip();
                (Cow::Owned(keys), Cow::Owned(vals))
            }
        }
    }

    /// Approximate heap footprint in bytes, for the storage ablation bench.
    pub fn heap_bytes(&self) -> usize {
        match self {
            MetricVec::Dense(v) => v.capacity() * std::mem::size_of::<f64>(),
            MetricVec::Sparse(m) => m.capacity() * (std::mem::size_of::<(u32, f64)>() + 8),
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
    /// Walks a dense vector, skipping zeros.
    Dense {
        /// The dense values.
        v: &'a [f64],
        /// Next index to inspect.
        i: usize,
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
    /// A materialized sorted buffer (hash-indexed storage, or a columnar
    /// store with pending deltas).
    Owned(std::vec::IntoIter<(u32, f64)>),
}

impl Iterator for NonzeroSorted<'_> {
    type Item = (u32, f64);

    fn next(&mut self) -> Option<(u32, f64)> {
        match self {
            NonzeroSorted::Dense { v, i } => {
                while *i < v.len() {
                    let at = *i;
                    *i += 1;
                    if v[at] != 0.0 {
                        return Some((at as u32, v[at]));
                    }
                }
                None
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
}

/// Which storage flavor new columns use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// One `f64` slot per node; fastest lookups, O(nodes) memory.
    Dense,
    /// Hash-indexed non-zero entries; memory proportional to samples.
    Sparse,
    /// Sorted columnar non-zero entries ([`CsrColumn`]); binary-search
    /// lookups, allocation-free ordered scans, O(nnz) merges. In-memory
    /// only: the experiment database serializes it as the dense flavor.
    Csr,
}

/// Pick the empty column matching a storage flavor.
fn empty_vec(storage: StorageKind) -> MetricVec {
    match storage {
        StorageKind::Dense => MetricVec::dense(0),
        StorageKind::Sparse => MetricVec::sparse(),
        StorageKind::Csr => MetricVec::csr(),
    }
}

/// Direct (sample-point) costs for every raw metric, attached to a CCT.
///
/// `values[m].get(n)` is the cost measured *at* node `n` for metric `m`:
/// sample count × period, before any inclusive/exclusive attribution.
#[derive(Debug, Clone)]
pub struct RawMetrics {
    descs: Vec<MetricDesc>,
    values: Vec<MetricVec>,
    storage: StorageKind,
    /// Bumped by every mutation; caches key on it ([`RawMetrics::generation`]).
    generation: u64,
    /// Lazy-fault slots for metrics backed by a [`ColumnSource`]
    /// (CPDB databases).
    lazy: LazySlots,
}

impl RawMetrics {
    /// An empty metric set using the given storage flavor.
    pub fn new(storage: StorageKind) -> Self {
        RawMetrics {
            descs: Vec::new(),
            values: Vec::new(),
            storage,
            generation: 0,
            lazy: LazySlots::default(),
        }
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

    /// First failure reported by the lazy column source, if any.
    pub fn lazy_error(&self) -> Option<&str> {
        self.lazy.error.get().map(String::as_str)
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
            .fault(m.index(), self.storage, |s| s.load_raw(m))
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

    /// The storage flavor new columns use.
    pub fn storage(&self) -> StorageKind {
        self.storage
    }

    /// Mutation counter: incremented by every operation that can change
    /// metric values ([`RawMetrics::add_metric`],
    /// [`RawMetrics::record_samples`], [`RawMetrics::add_cost`],
    /// [`RawMetrics::add_costs`]). The Calling Context View's stamp for
    /// cached child orderings includes it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Register a raw metric, returning its id.
    pub fn add_metric(&mut self, desc: MetricDesc) -> MetricId {
        let id = MetricId::from_usize(self.descs.len());
        self.descs.push(desc);
        self.values.push(empty_vec(self.storage));
        self.generation += 1;
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
        self.generation += 1;
    }

    /// Add a pre-scaled cost at node `n`.
    pub fn add_cost(&mut self, m: MetricId, n: crate::ids::NodeId, cost: f64) {
        self.resolved_mut(m).add(n.0, cost);
        self.generation += 1;
    }

    /// Batched [`RawMetrics::add_cost`]: one generation bump for the whole
    /// slice and a tight loop over one column, which keeps columnar
    /// storage on its O(1) append fast path when `costs` is sorted by
    /// node (the order correlation reductions produce).
    pub fn add_costs(&mut self, m: MetricId, costs: &[(crate::ids::NodeId, f64)]) {
        let col = self.resolved_mut(m);
        for &(n, v) in costs {
            col.add(n.0, v);
        }
        self.generation += 1;
    }

    /// Replace the storage of metric `m` with a frozen columnar column
    /// (used by the parallel correlator's reduction; the metric must use
    /// [`StorageKind::Csr`]).
    pub fn install_csr(&mut self, m: MetricId, column: CsrColumn) {
        debug_assert_eq!(self.storage, StorageKind::Csr);
        *self.resolved_mut(m) = MetricVec::Csr(column);
        self.generation += 1;
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
        match self.resolved(m) {
            MetricVec::Dense(v) => v.iter().sum(),
            MetricVec::Sparse(map) => map.values().sum(),
            // Pending entries are deltas, so they sum in directly.
            MetricVec::Csr(c) => {
                c.vals.iter().sum::<f64>() + c.pending.iter().map(|&(_, d)| d).sum::<f64>()
            }
            MetricVec::Mapped(m) => m.vals().iter().sum(),
        }
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

/// A table of presentation columns attached to some tree (CCT or view
/// tree). Column values are indexed by node id within that tree.
#[derive(Debug, Clone)]
pub struct ColumnSet {
    descs: Vec<ColumnDesc>,
    values: Vec<MetricVec>,
    storage: StorageKind,
    /// Bumped by every mutation, mirroring [`RawMetrics::generation`]:
    /// sort-order caches over view trees key on it so a column appended
    /// or rewritten after the fact (e.g. summary statistics via
    /// `append_view_columns`) invalidates cached orderings.
    generation: u64,
    /// Lazy-fault bookkeeping for columns backed by a [`ColumnSource`]
    /// (CPDB databases).
    lazy: LazySlots,
}

impl ColumnSet {
    /// An empty column table using the given storage flavor.
    pub fn new(storage: StorageKind) -> Self {
        ColumnSet {
            descs: Vec::new(),
            values: Vec::new(),
            storage,
            generation: 0,
            lazy: LazySlots::default(),
        }
    }

    /// Back the first `descs().len()` columns with a lazy source: each
    /// column's values materialize from `source` on first read instead of
    /// being decoded up front. Columns appended *after* this call are
    /// ordinary eager columns. No generation bump happens when a column
    /// faults in — faulting occurs on first read, so no cache can have
    /// observed the pre-fault (empty) values.
    pub fn attach_source(&mut self, source: Arc<dyn ColumnSource>) {
        self.lazy.attach(source, self.descs.len());
    }

    /// How many columns have materialized values: eager columns plus
    /// lazily-backed columns that have been faulted in. The laziness
    /// acceptance tests pin this after a render.
    pub fn materialized_columns(&self) -> usize {
        self.descs.len() - self.lazy.slots.len() + self.lazy.resident()
    }

    /// First error a lazy column load produced, if any. The failing
    /// column reads as all zeros rather than panicking mid-render.
    pub fn lazy_error(&self) -> Option<&str> {
        self.lazy.error.get().map(String::as_str)
    }

    /// Every distinct lazy-load failure, in first-seen order. Unlike
    /// [`ColumnSet::lazy_error`] this keeps reporting past the first
    /// corrupt column, so multi-block corruption is fully visible.
    pub fn lazy_errors(&self) -> Vec<String> {
        self.lazy.all_errors()
    }

    /// Decode executions recorded for column `c` (0 if untouched,
    /// exactly 1 once faulted in, regardless of reader concurrency).
    pub fn fault_count(&self, c: ColumnId) -> u64 {
        self.lazy.fault_count(c.index())
    }

    fn resolved(&self, c: ColumnId) -> &MetricVec {
        self.lazy
            .fault(c.index(), self.storage, |s| s.load_column(c))
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

    /// Mutation counter: incremented by [`ColumnSet::add_column`],
    /// [`ColumnSet::set`] and [`ColumnSet::add`]. Derived caches (cached
    /// child sort orders) revalidate against it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Append a presentation column, returning its id.
    pub fn add_column(&mut self, desc: ColumnDesc) -> ColumnId {
        let id = ColumnId::from_usize(self.descs.len());
        self.descs.push(desc);
        self.values.push(empty_vec(self.storage));
        self.generation += 1;
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
        self.descs
            .iter()
            .enumerate()
            .filter(|(_, d)| d.visible)
            .map(|(i, _)| ColumnId::from_usize(i))
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
        self.generation += 1;
    }

    /// Accumulate into column `c` at `node`.
    #[inline]
    pub fn add(&mut self, c: ColumnId, node: u32, delta: f64) {
        self.resolved_mut(c).add(node, delta);
        self.generation += 1;
    }

    /// The per-node storage backing column `c`.
    pub fn vec(&self, c: ColumnId) -> &MetricVec {
        self.resolved(c)
    }

    /// Approximate heap footprint of all column storage.
    pub fn heap_bytes(&self) -> usize {
        self.values.iter().map(MetricVec::heap_bytes).sum::<usize>() + self.lazy.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    #[test]
    fn dense_sparse_and_csr_agree() {
        let mut d = MetricVec::dense(0);
        let mut s = MetricVec::sparse();
        let mut c = MetricVec::csr();
        for (n, v) in [(3u32, 1.5), (0, 2.0), (3, 0.5), (10, -1.0)] {
            d.add(n, v);
            s.add(n, v);
            c.add(n, v);
        }
        for n in 0..12 {
            assert_eq!(d.get(n), s.get(n), "node {n}");
            assert_eq!(d.get(n), c.get(n), "node {n}");
        }
        let dv: Vec<_> = d.nonzero_sorted().collect();
        let sv: Vec<_> = s.nonzero_sorted().collect();
        let cv: Vec<_> = c.nonzero_sorted().collect();
        assert_eq!(dv, sv);
        assert_eq!(dv, cv);
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
        assert_eq!(c.get(1), 0.0);
        assert_eq!(c.get(2), 5.0);
        assert_eq!(c.get(3), 2.5);
        assert_eq!(c.get(4), 0.0);
        assert_eq!(c.get(9), 7.0);
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
    fn sorted_parts_agree_across_flavors() {
        let entries = [(3u32, 1.5), (0, 2.0), (10, -1.0)];
        let mut want: Vec<(u32, f64)> = entries.to_vec();
        want.sort_by_key(|e| e.0);
        for mut v in [MetricVec::dense(0), MetricVec::sparse(), MetricVec::csr()] {
            for (n, x) in entries {
                v.add(n, x);
            }
            let (keys, vals) = v.sorted_parts();
            let got: Vec<(u32, f64)> = keys.iter().copied().zip(vals.iter().copied()).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn csr_compaction_preserves_values_past_threshold() {
        let mut c = CsrColumn::new();
        let mut expect = std::collections::HashMap::new();
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
        c.compact();
        assert_eq!(c.nnz(), expect.len());
    }

    #[test]
    fn builder_freeze_and_merge_match_scalar_adds() {
        let mut b0 = ColumnBuilder::new();
        let mut b1 = ColumnBuilder::new();
        b0.push(7, 1.0);
        b0.push(2, 3.0);
        b0.push(7, 2.0);
        b1.push(0, 4.0);
        b1.push(2, -3.0);
        // Concatenate-then-freeze (the parallel reduction path)...
        let mut cat = ColumnBuilder::new();
        cat.append(&mut b0.clone());
        cat.append(&mut b1.clone());
        let frozen = cat.freeze();
        // ...equals freeze-then-merge...
        let mut merged = b0.freeze();
        merged.merge(&b1.freeze());
        // ...equals scalar adds into one column.
        let mut scalar = CsrColumn::new();
        for (n, v) in [(7u32, 1.0), (2, 3.0), (7, 2.0), (0, 4.0), (2, -3.0)] {
            scalar.add(n, v);
        }
        scalar.compact();
        for n in 0..10 {
            assert_eq!(frozen.get(n), scalar.get(n), "node {n}");
            assert_eq!(merged.get(n), scalar.get(n), "node {n}");
        }
        // The entry at node 2 cancelled exactly; it must not linger.
        let mut f = frozen;
        assert_eq!(f.nnz(), 2);
    }

    #[derive(Debug)]
    struct CountingSource {
        entries: Vec<(u32, f64)>,
        loads: std::sync::atomic::AtomicUsize,
    }

    impl ColumnSource for CountingSource {
        fn load_column(&self, _c: ColumnId) -> Result<ColumnData, String> {
            self.loads.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(ColumnData::Owned(self.entries.clone()))
        }
        fn load_raw(&self, _m: MetricId) -> Result<ColumnData, String> {
            self.loads.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(ColumnData::Owned(self.entries.clone()))
        }
    }

    #[test]
    fn lazy_columns_fault_once_on_first_read() {
        let mut cs = ColumnSet::new(StorageKind::Csr);
        let a = cs.add_column(ColumnDesc {
            name: "a".into(),
            flavor: ColumnFlavor::Inclusive(MetricId(0)),
            visible: true,
        });
        let b = cs.add_column(ColumnDesc {
            name: "b".into(),
            flavor: ColumnFlavor::Exclusive(MetricId(0)),
            visible: true,
        });
        let source = Arc::new(CountingSource {
            entries: vec![(1, 2.0), (5, 7.5)],
            loads: std::sync::atomic::AtomicUsize::new(0),
        });
        cs.attach_source(source.clone());
        assert_eq!(cs.materialized_columns(), 0);

        let gen = cs.generation();
        assert_eq!(cs.get(a, 5), 7.5);
        assert_eq!(cs.get(a, 0), 0.0);
        // Faulting is not a mutation: reads must not invalidate caches.
        assert_eq!(cs.generation(), gen);
        assert_eq!(cs.materialized_columns(), 1);
        assert_eq!(source.loads.load(std::sync::atomic::Ordering::SeqCst), 1);

        // A mutation lands on the faulted contents and bumps the stamp.
        cs.add(b, 1, 1.0);
        assert_eq!(cs.get(b, 1), 3.0);
        assert!(cs.generation() > gen);
        assert_eq!(cs.materialized_columns(), 2);
        assert_eq!(source.loads.load(std::sync::atomic::Ordering::SeqCst), 2);
        assert!(cs.lazy_error().is_none());
    }

    #[test]
    fn lazy_raw_metrics_fault_and_errors_read_as_zero() {
        #[derive(Debug)]
        struct FailingSource;
        impl ColumnSource for FailingSource {
            fn load_column(&self, _c: ColumnId) -> Result<ColumnData, String> {
                Err("no such block".into())
            }
            fn load_raw(&self, _m: MetricId) -> Result<ColumnData, String> {
                Err("no such block".into())
            }
        }

        let mut raw = RawMetrics::new(StorageKind::Sparse);
        let m = raw.add_metric(MetricDesc::new("cycles", "cycles", 1.0));
        raw.attach_source(Arc::new(CountingSource {
            entries: vec![(0, 4.0), (3, 2.0)],
            loads: std::sync::atomic::AtomicUsize::new(0),
        }));
        assert_eq!(raw.materialized_metrics(), 0);
        assert_eq!(raw.total(m), 6.0);
        assert_eq!(raw.direct(m, NodeId(3)), 2.0);
        assert_eq!(raw.materialized_metrics(), 1);

        let mut failing = RawMetrics::new(StorageKind::Sparse);
        let f = failing.add_metric(MetricDesc::new("cycles", "cycles", 1.0));
        failing.attach_source(Arc::new(FailingSource));
        assert_eq!(failing.direct(f, NodeId(0)), 0.0);
        assert_eq!(failing.lazy_error(), Some("no such block"));
    }

    #[test]
    fn every_distinct_lazy_failure_is_kept_with_per_column_fault_counts() {
        #[derive(Debug)]
        struct PerColumnFailure;
        impl ColumnSource for PerColumnFailure {
            fn load_column(&self, c: ColumnId) -> Result<ColumnData, String> {
                match c.index() {
                    0 => Ok(ColumnData::Owned(vec![(2, 5.0)])),
                    i => Err(format!("column {i}: checksum mismatch")),
                }
            }
            fn load_raw(&self, _m: MetricId) -> Result<ColumnData, String> {
                Err("raw block missing".into())
            }
        }

        let mut cs = ColumnSet::new(StorageKind::Csr);
        for name in ["a", "b", "c"] {
            cs.add_column(ColumnDesc {
                name: name.into(),
                flavor: ColumnFlavor::Inclusive(MetricId(0)),
                visible: true,
            });
        }
        cs.attach_source(Arc::new(PerColumnFailure));

        // Touch every column: one succeeds, two fail with distinct reasons.
        assert_eq!(cs.get(ColumnId(0), 2), 5.0);
        assert_eq!(cs.get(ColumnId(1), 2), 0.0);
        assert_eq!(cs.get(ColumnId(2), 2), 0.0);

        // The legacy single-error API still reports the first failure...
        assert_eq!(cs.lazy_error(), Some("column 1: checksum mismatch"));
        // ...while the full list keeps both, in first-seen order.
        assert_eq!(
            cs.lazy_errors(),
            vec![
                "column 1: checksum mismatch".to_owned(),
                "column 2: checksum mismatch".to_owned(),
            ]
        );

        // Fault counts: exactly one decode per touched column, repeat
        // reads never re-decode (even for the failed ones).
        assert_eq!(cs.get(ColumnId(1), 7), 0.0);
        for c in [ColumnId(0), ColumnId(1), ColumnId(2)] {
            assert_eq!(cs.fault_count(c), 1, "column {}", c.index());
        }
        assert_eq!(cs.lazy_errors().len(), 2);
    }

    #[test]
    fn generation_bumps_on_every_mutation() {
        let mut raw = RawMetrics::new(StorageKind::Csr);
        let g0 = raw.generation();
        let m = raw.add_metric(MetricDesc::new("cycles", "cycles", 10.0));
        assert!(raw.generation() > g0);
        let g1 = raw.generation();
        raw.record_samples(m, NodeId(3), 2);
        assert!(raw.generation() > g1);
        let g2 = raw.generation();
        raw.add_cost(m, NodeId(1), 5.0);
        assert!(raw.generation() > g2);
        let g3 = raw.generation();
        raw.add_costs(m, &[(NodeId(2), 1.0), (NodeId(4), 2.0)]);
        assert!(raw.generation() > g3);
        assert_eq!(raw.total(m), 28.0);
        assert_eq!(raw.direct(m, NodeId(3)), 20.0);
    }

    #[test]
    fn column_set_generation_bumps_on_every_mutation() {
        let mut cols = ColumnSet::new(StorageKind::Dense);
        let g0 = cols.generation();
        let c = cols.add_column(ColumnDesc {
            name: "cycles (I)".into(),
            flavor: ColumnFlavor::Inclusive(MetricId(0)),
            visible: true,
        });
        assert!(cols.generation() > g0);
        let g1 = cols.generation();
        cols.set(c, 3, 5.0);
        assert!(cols.generation() > g1);
        let g2 = cols.generation();
        cols.add(c, 3, 1.0);
        assert!(cols.generation() > g2);
        assert_eq!(cols.get(c, 3), 6.0);
    }

    #[test]
    fn add_costs_matches_scalar_adds_across_flavors() {
        let costs: Vec<(NodeId, f64)> = [(0u32, 1.0), (5, 2.0), (3, 4.0), (5, 0.5)]
            .iter()
            .map(|&(n, v)| (NodeId(n), v))
            .collect();
        for kind in [StorageKind::Dense, StorageKind::Sparse, StorageKind::Csr] {
            let mut batched = RawMetrics::new(kind);
            let mb = batched.add_metric(MetricDesc::new("m", "u", 1.0));
            batched.add_costs(mb, &costs);
            let mut scalar = RawMetrics::new(kind);
            let ms = scalar.add_metric(MetricDesc::new("m", "u", 1.0));
            for &(n, v) in &costs {
                scalar.add_cost(ms, n, v);
            }
            for n in 0..8 {
                assert_eq!(
                    batched.direct(mb, NodeId(n)),
                    scalar.direct(ms, NodeId(n)),
                    "{kind:?} node {n}"
                );
            }
        }
    }

    #[test]
    fn sparse_set_zero_removes_entry() {
        let mut s = MetricVec::sparse();
        s.set(5, 3.0);
        assert_eq!(s.nonzero_count(), 1);
        s.set(5, 0.0);
        assert_eq!(s.nonzero_count(), 0);
        assert_eq!(s.get(5), 0.0);
    }

    #[test]
    fn record_samples_scales_by_period() {
        let mut raw = RawMetrics::new(StorageKind::Dense);
        let m = raw.add_metric(MetricDesc::new("PAPI_TOT_CYC", "cycles", 1000.0));
        raw.record_samples(m, NodeId(4), 3);
        assert_eq!(raw.direct(m, NodeId(4)), 3000.0);
        assert_eq!(raw.total(m), 3000.0);
    }

    #[test]
    fn find_metric_by_name() {
        let mut raw = RawMetrics::new(StorageKind::Sparse);
        let cyc = raw.add_metric(MetricDesc::new("cycles", "cycles", 1.0));
        let l1 = raw.add_metric(MetricDesc::new("l1_dcm", "misses", 1.0));
        assert_eq!(raw.find("cycles"), Some(cyc));
        assert_eq!(raw.find("l1_dcm"), Some(l1));
        assert_eq!(raw.find("nope"), None);
    }

    #[test]
    fn column_set_visibility() {
        let mut cs = ColumnSet::new(StorageKind::Dense);
        let a = cs.add_column(ColumnDesc {
            name: "cycles (I)".into(),
            flavor: ColumnFlavor::Inclusive(MetricId(0)),
            visible: true,
        });
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

    #[test]
    fn dense_auto_grows() {
        let mut d = MetricVec::dense(0);
        d.add(100, 1.0);
        assert_eq!(d.get(100), 1.0);
        assert_eq!(d.get(99), 0.0);
    }
}
