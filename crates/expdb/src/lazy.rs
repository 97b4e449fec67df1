//! The lazy reader: open decodes only the table of contents, name
//! tables and metric *descriptors*, and borrows the CCT topology from
//! the file image; every metric column stays as undecoded bytes until
//! some view first reads it.
//!
//! [`open_lazy`] returns an ordinary [`Experiment`] whose
//! [`RawMetrics`] and [`ColumnSet`] have a [`ColumnSource`] attached
//! (the [`LazyShared`] state in this module, holding the raw file
//! bytes). Every view reads attributed values from `exp.columns` and
//! nowhere else: every view faults in exactly the columns it sorts and
//! displays, on their first read. The raw direct-cost columns are
//! faulted only by what reads direct costs — the exclusive cells of the
//! flat view's call-site rows, and re-encoding.
//!
//! **What one fault costs.** A column fault costs what the column
//! touches, not what the tree holds: one checksum pass over the metric's
//! block (on the block's first read only), then the attribution kernel
//! ([`attribute_sorted`]) reading the block's key/value arrays where
//! they lie in the image — O(K) for K the union of the non-zeros'
//! ancestor chains, with one bit per node of private scratch; a column
//! that covers a quarter of the tree or more is swept in O(n) instead.
//! The kernel runs once per metric: the half that was read moves into
//! its slot, the other is *parked* here until its own column is read and
//! then moves into that slot. Nothing is copied and nothing is kept, so
//! `exp.columns` is the only store of attributed values; a parked half
//! is not resident (a column is faulted when it is read). A derived
//! column is [`callpath_core::derived::evaluate`] over its inputs'
//! slots, the evaluator `Experiment::add_derived` uses.
//!
//! **What shape a faulted column has** follows from what was read, never
//! from the file's header: a fixed-width block stays a window onto the
//! image (`MetricVec::Mapped`); an attributed column keeps the shape of
//! the kernel branch that computed it — sorted arrays from the walk
//! (binary-search reads, ordered scans in place), node-indexed vectors
//! from the sweep; a decoded varint block and a derived column are sorted
//! entries and go through `MetricVec::from_sorted`, which makes them
//! node-indexed from one node in four. Between the mapped bytes and the
//! slot there is no sort and no conversion from one shape to the other.
//!
//! `LazyShared` keeps its **own copy** of the CCT (the `Experiment`
//! owns another): a fault reaches the source through the column set, not
//! the experiment, so the kernel needs a tree of its own. Both copies
//! borrow the same mapped arrays, so the duplication is cheap. A block's
//! checksum is verified on the block's first read and remembered, one
//! flag per block, so a raw fault after a column fault of the same metric
//! hashes nothing again: [`decode_all`] makes one per metric, the flat
//! view's call-site cells one per metric they show. A failed check is not
//! remembered: a corrupt block fails every read. A caller about to fault
//! several columns checks their blocks first, four at a time
//! (`ColumnSet::precheck`, [`Toc::verify_sections`]). See DESIGN.md §10.
//!
//! Batch consumers that will touch everything anyway (diffing, format
//! conversion) should call [`decode_all`] right after opening:
//! it divides the columns among threads (`core::pool::chunked_map`)
//! instead of paying faults serially on first touch.

use crate::bin2::{self, MetricInfo};
use crate::image::FileImage;
use crate::model::{build_cct, DbError};
use crate::toc::{
    Toc, SEC_ATTRIBUTED, SEC_BLOCK_BASE, SEC_CCT_KINDS, SEC_CCT_LINKS, SEC_DERIVED, SEC_METRICS,
    SEC_NAMES,
};
use callpath_core::attribution::attribute_sorted;
use callpath_core::derived;
use callpath_core::prelude::*;
use callpath_obs as obs;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Everything a lazily opened experiment needs to fault columns in:
/// the file image, the parsed TOC, a private copy of the topology,
/// and the attributed halves whose columns have not been read yet.
#[derive(Debug)]
pub(crate) struct LazyShared {
    data: ByteImage,
    toc: Toc,
    /// Private topology copy for attributing faulted columns.
    cct: Cct,
    /// One descriptor per stored block, and the section id holding it:
    /// `SEC_BLOCK_BASE + b` for the database's own blocks; an ensemble
    /// open with per-run drill-down columns appends run-block sections.
    infos: Vec<MetricInfo>,
    sections: Vec<u32>,
    /// Per stored block, whether its checksum has passed: a block is
    /// hashed on its first read only. A failed check sets nothing, so a
    /// corrupt block fails every read.
    verified: Vec<AtomicBool>,
    /// Metrics stored attributed (a `.cpens`'s statistics, marked by
    /// `SEC_ATTRIBUTED`; 0 in a plain database): metric `m < pairs` *is*
    /// blocks `2m` and `2m + 1`, its two columns; every later metric `m`
    /// is the direct costs in block `m + pairs`.
    pairs: usize,
    /// Parsed derived formulas, in derived-column order.
    exprs: Vec<Expr>,
    /// Whole-program value per column (from stored totals), for `@n`
    /// references in derived formulas.
    aggregates: Vec<f64>,
    /// Per metric, the half of its attribution whose column has not been
    /// read yet, tagged with that column: the first fault of either
    /// column parks the other half here, the sibling's fault takes it.
    /// (The tag keeps a clone of the experiment, which shares this
    /// provider, from taking the wrong half.)
    ///
    /// Lock order: (1) a column's `OnceLock` slot; (2) the slots of
    /// earlier columns, which a derived column's inputs are; (3) this
    /// `Mutex`, which takes no other lock. A fault never fills the
    /// sibling's slot from inside its own slot's initializer — two
    /// threads faulting I and E at once would each wait on the other.
    parked: Vec<Mutex<Option<(usize, MetricVec)>>>,
}

impl LazyShared {
    fn n_nodes(&self) -> u32 {
        self.cct.len() as u32
    }

    /// The entries of stored block `b`. For fixed-kind blocks this
    /// *borrows* the key/value arrays from the image instead of decoding
    /// them; everything else decodes to owned entries. Each read verifies
    /// the block's checksum until one check has passed.
    fn block(&self, b: usize) -> Result<MetricVec, String> {
        let _span = obs::span("expdb.block_decode");
        let id = self.sections[b];
        let data = self.data.bytes();
        // The image never changes, so a flag seen late costs at most one
        // more hash: Relaxed is enough.
        if !self.verified[b].load(Relaxed) {
            self.toc.verify_section(data, id).map_err(|e| e.message)?;
            self.verified[b].store(true, Relaxed);
        }
        let (off, body) = self.toc.raw_payload(data, id).map_err(|e| e.message)?;
        obs::observe("expdb.block_bytes", body.len() as u64);
        let info = &self.infos[b];
        if let Some(fb) = bin2::block_layout(body, info).map_err(|e| e.message)? {
            // Construction only fails for environmental reasons (a
            // big-endian host, an unaligned image); fall through to the
            // owned decode then.
            if let Ok(col) = MappedCol::new(
                self.data.clone(),
                off + fb.keys_off,
                off + fb.vals_off,
                fb.nnz,
            ) {
                check_keys(col.keys(), self.n_nodes())
                    .map_err(|reason| format!("metric '{}': {reason}", info.name))?;
                obs::count("expdb.lazy.fault.mapped", 1);
                return Ok(MetricVec::Mapped(col));
            }
        }
        bin2::read_block_v21(body, info, self.n_nodes())
            .map(|entries| MetricVec::from_sorted(entries, self.cct.len()))
            .map_err(|e| e.message)
    }

    /// The stored block metric column `c` is read from: itself for a
    /// stored attributed column, else its metric's direct costs.
    fn block_of(&self, c: usize) -> usize {
        if c < 2 * self.pairs {
            c
        } else {
            c / 2 + self.pairs
        }
    }

    /// Column `c`, the inclusive (even) or exclusive (odd) half of metric
    /// `c / 2`. A stored attributed column is its block as it is. Else it
    /// is taken from the parking cell if the sibling's fault left it
    /// there, or computed — the kernel reads the block's key/value
    /// arrays where they lie in the image (small varint blocks are
    /// decoded first) — with the sibling half parked. The cell stays
    /// locked through the kernel, so racing faults of both halves read
    /// the block once.
    fn attributed(&self, c: usize) -> Result<MetricVec, String> {
        if c < 2 * self.pairs {
            return self.block(c);
        }
        let mut parked = self.parked[c / 2].lock().expect("parked half lock");
        if let Some((_, half)) = parked.take_if(|(at, _)| *at == c) {
            return Ok(half);
        }
        let raw = self.block(self.block_of(c))?;
        let (keys, vals) = raw.sorted_parts();
        let attr = attribute_sorted(&self.cct, &keys, &vals);
        let (half, sibling) = if c.is_multiple_of(2) {
            (attr.inclusive, attr.exclusive)
        } else {
            (attr.exclusive, attr.inclusive)
        };
        *parked = Some((c ^ 1, sibling));
        Ok(half)
    }
}

impl ColumnSource for LazyShared {
    /// Checksum the unverified blocks behind `cols` four at a time
    /// ([`Toc::verify_sections`]), and flag those that pass.
    fn precheck(&self, cols: &[ColumnId]) {
        let metric_cols = self.parked.len() * 2;
        let mut blocks: Vec<usize> = cols
            .iter()
            .map(|c| c.index())
            .filter(|&c| c < metric_cols)
            .map(|c| self.block_of(c))
            .filter(|&b| !self.verified[b].load(Relaxed))
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        let ids: Vec<u32> = blocks.iter().map(|&b| self.sections[b]).collect();
        let passed = self.toc.verify_sections(self.data.bytes(), &ids);
        for (b, ok) in blocks.into_iter().zip(passed) {
            if ok {
                self.verified[b].store(true, Relaxed);
            }
        }
    }

    fn load_column(&self, c: ColumnId, columns: &ColumnSet) -> Result<MetricVec, String> {
        let _span = obs::span("expdb.column_fault");
        obs::count("expdb.lazy.fault.column", 1);
        let (c, metric_cols) = (c.index(), self.parked.len() * 2);
        let column = if c < metric_cols {
            self.attributed(c)
        } else {
            // Its inputs were checked at open to be earlier columns.
            let (expr, n) = (&self.exprs[c - metric_cols], self.cct.len());
            Ok(derived::evaluate(expr, columns, &self.aggregates, n))
        };
        column.inspect_err(|reason| {
            obs::count("expdb.lazy.fault.failed", 1);
            obs::error(&format!("column {c}: {reason}"));
        })
    }

    /// A stored statistic has no direct costs: its raw column is empty.
    fn load_raw(&self, m: MetricId) -> Result<MetricVec, String> {
        let _span = obs::span("expdb.raw_fault");
        obs::count("expdb.lazy.fault.raw", 1);
        if m.index() >= self.parked.len() {
            return Err(format!("no metric {} in this database", m.index()));
        }
        if m.index() < self.pairs {
            return Ok(MetricVec::Csr(CsrColumn::new()));
        }
        self.block(m.index() + self.pairs).inspect_err(|reason| {
            obs::count("expdb.lazy.fault.failed", 1);
            obs::error(&format!("metric {}: {reason}", m.index()));
        })
    }
}

/// Strictly ascending, in-range keys are what [`MappedCol::get`]'s
/// binary search relies on; checked once when a column is first
/// borrowed.
fn check_keys(keys: &[u32], n_nodes: u32) -> Result<(), String> {
    if keys.windows(2).any(|w| w[0] >= w[1]) {
        return Err("cost keys not strictly ascending".into());
    }
    if keys.last().is_some_and(|&k| k >= n_nodes) {
        return Err(format!("cost references a node beyond CCT size {n_nodes}"));
    }
    Ok(())
}

/// Open a database lazily from bytes already in memory (the read image):
/// decode the TOC, names, metric descriptors and derived definitions
/// now; leave every cost block on the shelf until a view touches a
/// column computed from it. The topology is *borrowed* from the bytes,
/// not decoded — exactly as [`open_lazy_path`] borrows it from a mapped
/// file.
pub fn open_lazy(data: Vec<u8>) -> Result<Experiment, DbError> {
    open_image(FileImage::from_vec(data))
}

/// Open a database file lazily, memory-mapped on Unix ([`FileImage::open`]),
/// so open-time cost is bounded by the sections actually touched
/// (header, TOC, names, descriptors, and one structural pass over the
/// topology arrays); cost blocks fault in page by page as columns are
/// first read.
pub fn open_lazy_path(path: &Path) -> Result<Experiment, DbError> {
    let image = FileImage::open(path).map_err(|e| DbError::new(format!("open failed: {e}")))?;
    open_image(image)
}

fn open_image(image: FileImage) -> Result<Experiment, DbError> {
    open_image_with(ByteImage::new(Arc::new(image)), Vec::new()).map(|(exp, _)| exp)
}

/// The full lazy-open path, optionally appending *extra* metrics whose
/// cost blocks live in non-standard sections — the ensemble reader
/// ([`crate::ens`]) uses this to graft per-run drill-down columns onto
/// an opened `.cpens` container. Each extra entry is a descriptor plus
/// the section id holding its block. The provider attached to the
/// experiment comes back beside it.
pub(crate) fn open_image_with(
    image: ByteImage,
    extra: Vec<(MetricInfo, u32)>,
) -> Result<(Experiment, Arc<LazyShared>), DbError> {
    let _span = obs::span("expdb.open_lazy");
    let data = image.bytes();
    let toc = Toc::parse(data)?;
    let (procs, files, modules) = bin2::read_names(toc.section(data, SEC_NAMES)?)?;
    let mut infos = bin2::read_metric_infos(toc.section(data, SEC_METRICS)?)?;
    let defs = bin2::read_derived(toc.section(data, SEC_DERIVED)?)?;
    let mut sections: Vec<u32> = (0..infos.len() as u32)
        .map(|i| SEC_BLOCK_BASE + i)
        .collect();
    let pairs = if toc.contains(SEC_ATTRIBUTED) {
        if infos.len() % 2 == 1 {
            return Err(DbError::new("attributed columns do not come in pairs"));
        }
        infos.len() / 2
    } else {
        0
    };
    for (info, sec) in extra {
        infos.push(info);
        sections.push(sec);
    }
    // Block payloads stay untouched, but their *existence* is checked
    // now so a missing column is an open-time error, not a render-time
    // surprise.
    for (info, &sec) in infos.iter().zip(&sections) {
        if !toc.contains(sec) {
            return Err(DbError::new(format!(
                "missing cost block for metric '{}'",
                info.name
            )));
        }
    }
    let cct = open_topology(&image, &toc, &procs, &files, &modules)?;

    let mut raw = RawMetrics::new(StorageKind::Csr);
    let mut columns = ColumnSet::new();
    let mut aggregates = Vec::with_capacity(infos.len() * 2 + defs.len());
    // A stored pair is one metric: its two blocks' descriptors carry
    // its name and, each, its column's aggregate (`bin2`).
    let metrics = (0..pairs).map(|m| [&infos[2 * m], &infos[2 * m + 1]]);
    let rest = infos[2 * pairs..].iter().map(|info| [info, info]);
    for (i, [info, sibling]) in metrics.chain(rest).enumerate() {
        let m = MetricId::from_usize(i);
        raw.add_metric(MetricDesc::new(&info.name, &info.unit, info.period));
        columns.add_column(ColumnDesc {
            name: format!("{} (I)", info.name),
            flavor: ColumnFlavor::Inclusive(m),
            visible: true,
        });
        columns.add_column(ColumnDesc {
            name: format!("{} (E)", info.name),
            flavor: ColumnFlavor::Exclusive(m),
            visible: true,
        });
        // Root inclusive == whole-program direct total, for both the
        // inclusive and the exclusive aggregate (cf. Experiment::build).
        aggregates.push(info.total);
        aggregates.push(sibling.total);
    }

    let mut derived_cols = Vec::with_capacity(defs.len());
    for (name, formula) in &defs {
        let (expr, agg) = derived::parse_column(formula, columns.column_count(), &aggregates)
            .map_err(|e| DbError::new(format!("derived metric '{name}': {e}")))?;
        let c = columns.add_column(ColumnDesc {
            name: name.clone(),
            flavor: ColumnFlavor::Derived {
                formula: formula.clone(),
            },
            visible: true,
        });
        aggregates.push(agg);
        derived_cols.push((c, expr));
    }

    let shared = Arc::new(LazyShared {
        data: image.clone(),
        toc,
        cct: cct.clone(),
        parked: (0..raw.metric_count()).map(|_| Mutex::new(None)).collect(),
        verified: infos.iter().map(|_| AtomicBool::new(false)).collect(),
        infos,
        sections,
        pairs,
        exprs: derived_cols.iter().map(|(_, e)| e.clone()).collect(),
        aggregates: aggregates.clone(),
    });
    raw.attach_source(shared.clone());
    columns.attach_source(shared.clone());
    let exp = Experiment::open_lazy(cct, raw, columns, derived_cols, aggregates);
    Ok((exp, shared))
}

/// Build the CCT by *borrowing* the topology arrays from the image
/// instead of decoding node records.
///
/// The mapped sections are deliberately **not** checksummed here — an
/// FNV pass over tens of megabytes of topology would swamp the whole
/// open budget. Integrity comes in layers instead: the header/TOC
/// digest was already verified, [`MappedTopology::new`] makes the cheap
/// structural checks (bounds, alignment, tag validity), a single O(n)
/// pass below proves every parent precedes its child (which rules out
/// cycles and orphans), and out-of-range links read as "none" with
/// budget-guarded traversals. Batch consumers wanting bit-level
/// certainty call [`crate::verify_container`].
fn open_topology(
    image: &ByteImage,
    toc: &Toc,
    procs: &[String],
    files: &[String],
    modules: &[String],
) -> Result<Cct, DbError> {
    let data = image.bytes();
    let (links_off, links) = toc.raw_payload(data, SEC_CCT_LINKS)?;
    let (kinds_off, kinds) = toc.raw_payload(data, SEC_CCT_KINDS)?;
    let lay = bin2::topo_layout(links, kinds)?;
    for i in 1..lay.n {
        let off = lay.parent_off + 4 * i;
        let p = u32::from_le_bytes(links[off..off + 4].try_into().unwrap());
        if p as usize >= i {
            return Err(DbError::new(format!(
                "node {i}: parent {p} does not precede it"
            )));
        }
    }
    let mut names = NameTable::new();
    for p in procs {
        names.proc(p);
    }
    for f in files {
        names.file(f);
    }
    for m in modules {
        names.module(m);
    }
    let topo = match MappedTopology::new(
        image.clone(),
        lay.n,
        links_off + lay.parent_off,
        links_off + lay.first_child_off,
        links_off + lay.next_sibling_off,
        kinds_off + lay.tags_off,
        kinds_off + lay.fields_off,
        names.proc_count() as u32,
        names.file_count() as u32,
        names.module_count() as u32,
    ) {
        Ok(t) => t,
        // Environmental failures (big-endian host) and structural ones
        // alike: fall back to the eager decode, which either produces a
        // fully validated owned CCT or a precise error.
        Err(_) => {
            let nodes = bin2::read_topology_v21(links, kinds)?;
            return build_cct(procs, files, modules, &nodes);
        }
    };
    Ok(Cct::from_mapped(names, topo))
}

/// Materialize every column of a lazily opened experiment, fanning the
/// per-column block decode + attribution across `threads` threads
/// (0 = automatic). Batch consumers — replay, diffing, re-encoding —
/// call this once after [`open_lazy`] instead of paying faults
/// serially; on an eagerly built experiment it is a cheap no-op scan.
pub fn decode_all(exp: &Experiment, threads: usize) {
    let span = obs::span("expdb.decode_all");
    let parent = obs::current();
    // Touching any value of a column faults the whole column in; the
    // OnceLock slots make concurrent faults race-free.
    let cols: Vec<ColumnId> = exp.columns.columns().collect();
    chunked_map(&cols, threads, |_, chunk| {
        let _span = obs::span_under(parent, "expdb.decode_chunk");
        for &c in chunk {
            exp.columns.get(c, 0);
        }
    });
    let metrics: Vec<MetricId> = (0..exp.raw.metric_count())
        .map(MetricId::from_usize)
        .collect();
    chunked_map(&metrics, threads, |_, chunk| {
        let _span = obs::span_under(parent, "expdb.decode_chunk");
        for &m in chunk {
            let _ = exp.raw.column(m);
        }
    });
    drop(span);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::sample_experiment;

    #[test]
    fn lazy_open_matches_eager_column_for_column() {
        let eager = sample_experiment();
        let bytes = crate::to_binary_v21(&eager);
        let lazy = open_lazy(bytes).unwrap();
        assert!(lazy.cct.is_mapped(), "topology should be borrowed");
        assert_eq!(lazy.cct.len(), eager.cct.len());
        for n in 0..eager.cct.len() as u32 {
            assert_eq!(lazy.cct.kind(NodeId(n)), eager.cct.kind(NodeId(n)));
            assert_eq!(lazy.cct.parent(NodeId(n)), eager.cct.parent(NodeId(n)));
        }
        assert_eq!(lazy.columns.column_count(), eager.columns.column_count());
        assert_eq!(lazy.columns.materialized_columns(), 0);
        for c in eager.columns.columns() {
            assert_eq!(lazy.columns.desc(c), eager.columns.desc(c));
            for n in 0..eager.cct.len() as u32 {
                assert_eq!(
                    lazy.columns.get(c, n),
                    eager.columns.get(c, n),
                    "column {c:?} node {n}"
                );
            }
        }
        assert_eq!(
            lazy.columns.materialized_columns(),
            eager.columns.column_count()
        );
        assert!(lazy.columns.lazy_errors().is_empty());
        for (a, b) in lazy.aggregates().iter().zip(eager.aggregates()) {
            assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{a} vs {b}");
        }
        for m in 0..eager.raw.metric_count() {
            let m = MetricId::from_usize(m);
            for n in 0..eager.cct.len() as u32 {
                assert_eq!(lazy.raw.column(m).get(n), eager.raw.column(m).get(n));
            }
        }
    }

    #[test]
    fn untouched_columns_stay_on_disk() {
        let bytes = crate::to_binary_v21(&sample_experiment());
        let lazy = open_lazy(bytes).unwrap();
        // Touch only the first metric's inclusive column: its sibling
        // exclusive half is parked, not resident, and the second
        // metric's block is never read.
        lazy.columns.get(ColumnId(0), 0);
        assert_eq!(lazy.columns.materialized_columns(), 1);
        assert_eq!(lazy.raw.materialized_metrics(), 0);
    }

    #[test]
    fn a_half_is_parked_until_its_column_is_read_then_nothing_is() {
        let bytes = crate::to_binary_v21(&sample_experiment());
        let image = ByteImage::new(Arc::new(FileImage::from_vec(bytes)));
        let (lazy, shared) = open_image_with(image, Vec::new()).unwrap();
        let parked = |m: usize| shared.parked[m].lock().unwrap().as_ref().map(|p| p.0);
        // Metric 0's exclusive column first, metric 1's inclusive one.
        for (first, sibling) in [(1, 0), (2, 3)] {
            lazy.columns.get(ColumnId::from_usize(first), 0);
            assert_eq!(parked(first / 2), Some(sibling));
        }
        assert_eq!(lazy.columns.materialized_columns(), 2);
        lazy.attributions();
        assert_eq!((parked(0), parked(1)), (None, None));
        assert!((0..4).all(|c| lazy.columns.fault_count(ColumnId(c)) == 1));
    }

    #[test]
    fn decode_all_materializes_everything() {
        let eager = sample_experiment();
        let bytes = crate::to_binary_v21(&eager);
        let lazy = open_lazy(bytes.clone()).unwrap();
        decode_all(&lazy, 0);
        assert_eq!(
            lazy.columns.materialized_columns(),
            eager.columns.column_count()
        );
        assert_eq!(lazy.raw.materialized_metrics(), eager.raw.metric_count());
        // Re-extracting the model from the lazily opened experiment
        // yields the exact bytes we opened (raw costs round-trip).
        assert_eq!(crate::to_binary_v21(&lazy), bytes);
    }

    #[test]
    fn reading_one_inclusive_value_faults_one_column_and_no_raw_metric() {
        let eager = sample_experiment();
        let lazy = open_lazy(crate::to_binary_v21(&eager)).unwrap();
        let m = MetricId(0);
        let root = lazy.cct.root();
        assert_eq!(lazy.inclusive(m, root), eager.inclusive(m, root));
        assert_eq!(lazy.columns.materialized_columns(), 1);
        assert_eq!(lazy.columns.fault_count(lazy.inclusive_col(m)), 1);
        assert_eq!(lazy.raw.materialized_metrics(), 0);
    }

    #[test]
    fn corrupt_block_degrades_to_zeros_with_error() {
        let mut bytes = crate::to_binary_v21(&sample_experiment());
        // Flip a byte in the last section (a cost block), leaving the
        // header/TOC and topology sections intact so open succeeds.
        let n = bytes.len();
        bytes[n - 3] ^= 0xff;
        let lazy = open_lazy(bytes).expect("topology is intact");
        let c = ColumnId(2); // second metric's inclusive column
        assert_eq!(lazy.columns.get(c, 0), 0.0);
        assert!(lazy.columns.lazy_errors()[0].contains("checksum"));
    }

    #[test]
    fn a_block_is_checksummed_until_a_check_passes() {
        let bytes = crate::to_binary_v21(&sample_experiment());
        let open = |bytes: Vec<u8>| {
            let image = ByteImage::new(Arc::new(FileImage::from_vec(bytes)));
            open_image_with(image, Vec::new()).unwrap()
        };
        let flags = |shared: &LazyShared| -> Vec<bool> {
            shared.verified.iter().map(|v| v.load(Relaxed)).collect()
        };
        let (lazy, shared) = open(bytes.clone());
        assert_eq!(flags(&shared), [false, false]);
        decode_all(&lazy, 1);
        assert_eq!(flags(&shared), [true, true]);
        // The last section is the second metric's cost block.
        let mut bad = bytes;
        let n = bad.len();
        bad[n - 3] ^= 0xff;
        let (_, shared) = open(bad.clone());
        for _ in 0..2 {
            assert!(shared.block(1).unwrap_err().contains("checksum"));
        }
        assert!(shared.block(0).is_ok());
        assert_eq!(flags(&shared), [true, false]);
        // A precheck flags the blocks that pass, and only those.
        let (_, shared) = open(bad);
        shared.precheck(&[ColumnId(3), ColumnId(0), ColumnId(2)]);
        assert_eq!(flags(&shared), [true, false]);
        assert!(shared.block(1).unwrap_err().contains("checksum"));
    }

    /// The sample tree with the two metrics' costs at different nodes, so
    /// a derived column's inputs are non-zero on different, overlapping
    /// sets.
    fn sparse_experiment() -> Experiment {
        let mut cct = sample_experiment().cct;
        // Node 6: a statement of `main` no metric has a cost at.
        let loc = SourceLoc::new(FileId(0), 2);
        cct.add_child(NodeId(1), ScopeKind::Stmt { loc });
        let mut raw = RawMetrics::new(StorageKind::Csr);
        let cyc = raw.add_metric(MetricDesc::new("cycles", "cycles", 1000.0));
        let fp = raw.add_metric(MetricDesc::new("fp", "ops", 500.0));
        raw.add_costs(cyc, &[(NodeId(3), 7_000.0), (NodeId(5), 42_000.0)]);
        raw.add_costs(fp, &[(NodeId(4), 1_500.0), (NodeId(5), 8_000.0)]);
        Experiment::build(cct, raw, StorageKind::Csr)
    }

    #[test]
    fn derived_columns_match_the_eager_decode_for_both_formula_kinds() {
        let mut exp = sparse_experiment();
        // Zero where its inputs are: evaluated on the union of their
        // non-zeros only.
        let waste = exp.add_derived("waste", "$0 * 4 - $3").unwrap();
        // A constant term: a value at every node of the tree.
        let plus_one = exp.add_derived("plus one", "$0 + 1").unwrap();
        // A guarded division: zero wherever there are no cycles.
        let ratio = exp.add_derived("ratio", "$2 / $0").unwrap();
        let chained = exp
            .add_derived("chained", &format!("${} - ${}", waste.0, plus_one.0))
            .unwrap();
        let bytes = crate::to_binary_v21(&exp);
        let eager = crate::from_binary(&bytes).unwrap();
        let lazy = open_lazy(bytes).unwrap();
        for c in [chained, ratio, plus_one, waste] {
            for n in 0..eager.cct.len() as u32 {
                assert_eq!(
                    lazy.columns.get(c, n).to_bits(),
                    eager.columns.get(c, n).to_bits(),
                    "column {c:?} node {n}"
                );
            }
        }
        assert!(lazy.columns.lazy_errors().is_empty());
        // Node 4 (the inlined frame) has no cycles of its own and an fp
        // cost of its own: it is in the union. Node 6 is in no input.
        assert_eq!(lazy.columns.get(waste, 4), 4.0 * 42_000.0 - 9_500.0);
        assert_eq!(lazy.columns.get(waste, 6), 0.0);
        assert_eq!(lazy.columns.vec(waste).nonzero_count(), 6);
        assert_eq!(lazy.columns.get(plus_one, 6), 1.0);
        assert_eq!(lazy.columns.vec(plus_one).nonzero_count(), eager.cct.len());
    }

    #[test]
    fn corrupt_topology_is_caught_by_verify_container() {
        let bytes = crate::to_binary_v21(&sample_experiment());
        crate::verify_container(&bytes).unwrap();
        let toc = Toc::parse(&bytes).unwrap();
        let links = toc
            .entries
            .iter()
            .find(|e| e.id == SEC_CCT_LINKS)
            .copied()
            .unwrap();
        let mut bad = bytes.clone();
        // Flip a bit inside the links payload: the lazy open does not
        // checksum borrowed topology, but verify_container must.
        bad[links.offset as usize + links.len as usize - 1] ^= 0x04;
        assert!(crate::verify_container(&bad).is_err());
    }
}
