#![warn(missing_docs)]
//! # callpath-ensemble
//!
//! Deterministic N-way **union supergraph** over many profile runs,
//! with cross-run statistics — the ensemble path of DESIGN.md §15.
//!
//! Given N runs (each a CCT plus sparse per-metric costs), this crate
//! builds one union CCT containing every calling context that appears
//! in any run, remaps every run's costs into union node ids, computes
//! per-node cross-run statistics (mean / min / max / stddev per base
//! metric) of each run's *attributed* values — every run attributed in
//! its own tree, both halves placed at union ids, folded by the summary
//! kernel `callpath_core::summary::Summarizer`, a context a run lacks
//! counting as zero — and serializes the whole thing as a `.cpens` container
//! ([`callpath_expdb::ens`]), the statistics stored as attributed
//! (I)/(E) column pairs, that reopens topology-only in milliseconds.
//!
//! ## Determinism
//!
//! The union is **byte-identical** regardless of thread count and of
//! the order runs are supplied in:
//!
//! * runs are first sorted into a *canonical order* by `(label,
//!   content fingerprint)` — a pure function of run content
//!   ([`fingerprint`]: each distinct name string hashed once per run,
//!   then a fixed 64-bit word mixer over every node and cost, so it
//!   costs per node and per distinct name, not per byte of name);
//! * each run's tree is replayed into the union on its encoded words
//!   (`callpath_core::supergraph::replay_into`), its name ids
//!   translated through per-run tables;
//! * the canonical sequence is split into one contiguous group per
//!   thread ([`chunked_map`]), each group folded left-to-right into a
//!   **fresh empty shard** (so no input's stored name-table order leaks
//!   into the result), and the groups merged pairwise
//!   ([`reduce_pairwise`] preserves left-to-right operand order), which
//!   makes the parallel reduction equal to the sequential fold —
//!   same node ids, same name table, bit for bit;
//! * each base metric's statistics fold the runs in canonical order
//!   per node, one metric per thread, so every f64 accumulation order
//!   is fixed too.
//!
//! The property tests in `tests/ensemble_properties.rs` pin all of
//! this, and `tests/ensemble_smoke.rs` measures the 1,000-run build
//! and cold open for `BENCH_ensemble.json`.

use callpath_core::attribution::attribute_sorted;
use callpath_core::names::Namespace;
use callpath_core::prelude::*;
use callpath_core::summary::{stat_columns, Summarizer};
use callpath_core::topo::{visit_fields, Field};
use callpath_expdb::ens::{Directory, EnsembleRun, STAT_NAMES};
use callpath_expdb::model::{DbError, DbMetric, DbModel};
use callpath_obs as obs;

/// One run's raw material: a CCT and sparse direct costs per metric,
/// in the run's own node ids.
#[derive(Debug, Clone)]
pub struct RunData {
    /// Display label (file name, rank, trial id, ...). Sorts first in
    /// the canonical order; need not be unique.
    pub label: String,
    /// The run's calling context tree.
    pub cct: Cct,
    /// Metric descriptors, index = local metric id.
    pub metrics: Vec<MetricDesc>,
    /// Per metric: sparse `(local node, value)`, ascending by node.
    pub costs: Vec<Vec<(u32, f64)>>,
}

impl RunData {
    /// Build from a database model (the synthetic-workload path):
    /// validates topology and cost node ranges, attributes nothing.
    pub fn from_model(label: impl Into<String>, model: &DbModel) -> Result<RunData, DbError> {
        let cct = model.build_cct()?;
        let n = cct.len() as u32;
        let mut metrics = Vec::with_capacity(model.metrics.len());
        let mut costs = Vec::with_capacity(model.metrics.len());
        for m in &model.metrics {
            if let Some(&(node, _)) = m.costs.iter().find(|&&(node, _)| node >= n) {
                return Err(DbError::new(format!(
                    "metric '{}': cost references node {node} beyond CCT size {n}",
                    m.name
                )));
            }
            metrics.push(MetricDesc::new(&m.name, &m.unit, m.period));
            costs.push(m.costs.clone());
        }
        Ok(RunData {
            label: label.into(),
            cct,
            metrics,
            costs,
        })
    }

    /// Build from an opened experiment (the `.cpdb` path). On a lazily
    /// opened database this faults exactly the raw direct-cost columns
    /// — never the presentation columns.
    pub fn from_experiment(label: impl Into<String>, exp: &Experiment) -> RunData {
        let metrics: Vec<MetricDesc> = (0..exp.raw.metric_count())
            .map(|m| exp.raw.desc(MetricId::from_usize(m)).clone())
            .collect();
        let costs = (0..exp.raw.metric_count())
            .map(|m| {
                exp.raw
                    .column(MetricId::from_usize(m))
                    .nonzero_sorted()
                    .collect()
            })
            .collect();
        RunData {
            label: label.into(),
            cct: exp.cct.clone(),
            metrics,
            costs,
        }
    }
}

/// A content fingerprint of a run: a pure function of what the run
/// says — its topology in arena order with every name resolved to its
/// string, its metric descriptors and its cost bit patterns — and of
/// nothing else: not the name tables' intern order, not names no node
/// refers to, not the label (the *other* half of the canonical sort
/// key).
///
/// Each name string a node refers to is hashed once per run, a 64-bit
/// word at a time. Then every non-root node folds 64-bit words through
/// a fixed multiply-xorshift mixer: its parent and tag in one word,
/// then, in field order, its lines and the hashes of its names
/// (`Topo::canonical`, so a mapped tree's name ids read through its
/// clamp). Every metric folds its name, unit, period and `(node, value
/// bits)` pairs the same way. No seed varies by process or host, so the
/// value is stable across both.
pub fn fingerprint(run: &RunData) -> u64 {
    let cct = &run.cct;
    let topo = cct.topo();
    let mut names = NameHashes::new(&cct.names);
    let mut h = mix(0, topo.len() as u64);
    for node in cct.all_nodes().skip(1) {
        let parent = topo.parents()[node.index()];
        let (tag, mut words) = topo.canonical(node);
        h = mix(h, u64::from(parent) << 8 | u64::from(tag));
        visit_fields(tag, &mut words, |field, &mut word| {
            h = match field {
                Field::Name(ns) => mix(h, names.hash(ns, word)),
                Field::Line => mix(h, u64::from(word)),
                Field::Unused => h,
            }
        });
    }
    h = mix(h, run.metrics.len() as u64);
    for (desc, costs) in run.metrics.iter().zip(&run.costs) {
        h = mix(h, str_hash(&desc.name));
        h = mix(h, str_hash(&desc.unit));
        h = mix(h, desc.period.to_bits());
        h = mix(h, costs.len() as u64);
        for &(node, v) in costs {
            h = mix(mix(h, u64::from(node)), v.to_bits());
        }
    }
    finish(h)
}

/// One fold step of [`fingerprint`]: xor, an odd multiply, an xorshift.
/// Each is a bijection, so for a fixed state the step is one-to-one in
/// the word and for a fixed word in the state: two word sequences of
/// the same length that differ in one word end in different states.
#[inline]
fn mix(h: u64, word: u64) -> u64 {
    let x = (h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^ (x >> 32)
}

/// A final avalanche (the MurmurHash3 finalizer; also a bijection).
fn finish(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A string's length, then its bytes as little-endian 64-bit words (the
/// last one zero-padded), through [`mix`]. Never 0, which marks an
/// empty slot of [`NameHashes`].
fn str_hash(s: &str) -> u64 {
    let bytes = s.as_bytes();
    let mut h = mix(0, bytes.len() as u64);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = mix(h, u64::from_le_bytes(last));
    }
    finish(h).max(1)
}

/// [`str_hash`] of each name id a run refers to, computed at its first
/// reference: one table per namespace, index = raw id, 0 = not yet.
struct NameHashes<'a> {
    names: &'a NameTable,
    memo: [Vec<u64>; 3],
}

impl<'a> NameHashes<'a> {
    fn new(names: &'a NameTable) -> Self {
        NameHashes {
            names,
            memo: Namespace::ALL.map(|ns| vec![0; names.count(ns)]),
        }
    }

    #[inline]
    fn hash(&mut self, ns: Namespace, id: u32) -> u64 {
        match self.memo[ns as usize][id as usize] {
            0 => self.first(ns, id),
            h => h,
        }
    }

    /// The first reference: kept out of line, so the per-node loop stays
    /// a load and a compare.
    #[cold]
    #[inline(never)]
    fn first(&mut self, ns: Namespace, id: u32) -> u64 {
        let h = str_hash(self.names.name(ns, id));
        self.memo[ns as usize][id as usize] = h;
        h
    }
}

/// The union supergraph of a run set, plus everything needed to place
/// each run's costs in it.
pub struct Union {
    /// The union CCT: every calling context of every run, once.
    pub cct: Cct,
    /// Canonical run order: `order[i]` is an index into the input
    /// slice; position `i` is the run's index everywhere downstream.
    pub order: Vec<usize>,
    /// `node_maps[i][local]` = union node of canonical run `i`'s
    /// `local` node.
    pub node_maps: Vec<Vec<NodeId>>,
    /// `fingerprints[i]` = [`fingerprint`] of canonical run `i`: the
    /// canonical order sorts by it, and the written run records carry
    /// it.
    pub fingerprints: Vec<u64>,
}

/// Per-run payload carried through the shard merge: the canonical
/// position (for a debug assertion) and the local→merged node map.
struct RunSlot {
    pos: usize,
    map: Vec<NodeId>,
}

impl RemapNodes for RunSlot {
    fn remap_nodes(&mut self, map: &[NodeId]) {
        for n in &mut self.map {
            *n = map[n.index()];
        }
    }
}

/// Build the union supergraph of `runs` on `threads` threads
/// (0 = automatic). Deterministic: the result is byte-identical for
/// any thread count and any input order (see the module docs).
pub fn build_union(runs: &[RunData], threads: usize) -> Union {
    assert!(!runs.is_empty(), "an ensemble needs at least one run");
    let _span = obs::span("ensemble.union");
    obs::count("ensemble.runs", runs.len() as u64);

    let fps: Vec<u64> = {
        let _span = obs::span("ensemble.fingerprint");
        chunked_map(runs, threads, |_, chunk| {
            chunk.iter().map(fingerprint).collect::<Vec<u64>>()
        })
        .into_iter()
        .flatten()
        .collect()
    };
    let mut order: Vec<usize> = (0..runs.len()).collect();
    order.sort_by(|&a, &b| {
        (&runs[a].label, fps[a])
            .cmp(&(&runs[b].label, fps[b]))
            .then(a.cmp(&b))
    });

    // One contiguous group of the canonical sequence per thread, each
    // folded sequentially into a fresh empty shard; then a pairwise
    // reduction that preserves left-to-right order. Group boundaries
    // vary with the thread count, but the result does not: merging
    // adjacent folds equals folding the concatenation.
    let canonical: Vec<(usize, &RunData)> = order.iter().map(|&ri| &runs[ri]).enumerate().collect();
    let shards: Vec<CctShard<RunSlot>> = chunked_map(&canonical, threads, |_, group| {
        let mut shard = CctShard::empty();
        for &(pos, run) in group {
            let journal = arena_journal(&run.cct);
            let map = replay_into(&mut shard.cct, &mut shard.journal, &run.cct, &journal);
            shard.payload.push(RunSlot { pos, map });
        }
        shard
    });
    let merged = reduce_pairwise(shards, |a, b| {
        obs::count("ensemble.merge.pairs", 1);
        merge_shards(a, b)
    })
    .expect("at least one run implies at least one shard");

    debug_assert!(merged.payload.windows(2).all(|w| w[0].pos + 1 == w[1].pos));
    Union {
        cct: merged.cct,
        fingerprints: order.iter().map(|&ri| fps[ri]).collect(),
        order,
        node_maps: merged.payload.into_iter().map(|s| s.map).collect(),
    }
}

/// Remap one sparse cost list through a node map, re-sorting by union
/// node id. Replay is injective for trees built by child lookup, but a
/// loaded file makes no such promise, so duplicates are summed (in
/// original order — the sort is stable).
fn remap_costs(costs: impl IntoIterator<Item = (u32, f64)>, map: &[NodeId]) -> Vec<(u32, f64)> {
    let mut out: Vec<(u32, f64)> = costs
        .into_iter()
        .map(|(n, v)| (map[n as usize].0, v))
        .collect();
    out.sort_by_key(|&(n, _)| n);
    out.dedup_by(|next, kept| {
        next.0 == kept.0 && {
            kept.1 += next.1;
            true
        }
    });
    out
}

/// A fully built ensemble, ready to serialize.
pub struct BuiltEnsemble {
    /// The union CCT.
    pub cct: Cct,
    /// Base metric names (from the canonical-first run; other runs
    /// matched by name, missing metrics contribute zero columns).
    pub metric_names: Vec<String>,
    /// Stat columns, metric-major per [`STAT_NAMES`].
    pub stat_metrics: Vec<DbMetric>,
    /// Per-run remapped costs, canonical order.
    pub runs: Vec<EnsembleRun>,
}

impl BuiltEnsemble {
    /// Serialize as a `.cpens` container.
    pub fn to_bytes(self) -> Vec<u8> {
        callpath_expdb::ens::write_cpens(
            &self.cct,
            self.stat_metrics,
            &self.metric_names,
            &self.runs,
        )
    }
}

/// Build the full ensemble: union supergraph, per-run remapped costs,
/// and cross-run statistics; the union runs on `threads` threads
/// (0 = automatic).
pub fn build(runs: &[RunData], threads: usize) -> BuiltEnsemble {
    let union = build_union(runs, threads);
    build_from_union(runs, union, threads)
}

/// The post-union half of [`build`], split out so benches can time the
/// union and the statistics separately. The base metrics' statistics
/// are independent of each other, so they divide among `threads`
/// threads (0 = automatic) and no fold order changes.
pub fn build_from_union(runs: &[RunData], union: Union, threads: usize) -> BuiltEnsemble {
    let _span = obs::span("ensemble.stats");
    let base: Vec<MetricDesc> = runs[union.order[0]].metrics.clone();
    let metric_names: Vec<String> = base.iter().map(|d| d.name.clone()).collect();
    let mut seen = vec![false; union.cct.len()];
    let injective: Vec<bool> = (union.node_maps.iter())
        .map(|map| {
            seen.fill(false);
            map.iter()
                .all(|n| !std::mem::replace(&mut seen[n.index()], true))
        })
        .collect();
    let per_metric = chunked_map(&base, threads, |_, metrics| {
        let stats = metrics
            .iter()
            .map(|d| metric_stats(runs, &union, &injective, d));
        stats.collect::<Vec<_>>()
    });
    let (blocks, stats): (Vec<Vec<_>>, Vec<_>) = per_metric.into_iter().flatten().unzip();
    let mut blocks: Vec<_> = blocks.into_iter().map(Vec::into_iter).collect();
    let ens_runs = (0..union.order.len())
        .map(|i| EnsembleRun {
            label: runs[union.order[i]].label.clone(),
            fingerprint: union.fingerprints[i],
            costs: blocks
                .iter_mut()
                .map(|b| b.next().expect("a block per run"))
                .collect(),
        })
        .collect();
    BuiltEnsemble {
        cct: union.cct,
        metric_names,
        stat_metrics: stats.into_iter().flatten().collect(),
        runs: ens_runs,
    }
}

/// One base metric of [`build_from_union`], in one pass over the runs
/// in canonical order: each run's costs (matched by name; a run without
/// the metric has nothing anywhere) remapped into union ids for its run
/// block, and attributed in the run's own tree for the metric's summary
/// kernel, both halves placed at union ids the same way — through
/// [`remap_costs`], which sums what lands on one node, if the run's node
/// map is not one to one (`injective[i]` for canonical run `i`). Then
/// the statistic columns, each statistic's inclusive then exclusive one.
fn metric_stats(
    runs: &[RunData],
    union: &Union,
    injective: &[bool],
    d: &MetricDesc,
) -> (Vec<Vec<(u32, f64)>>, Vec<DbMetric>) {
    let mut kernel = Summarizer::new(union.cct.len());
    let canonical = union.order.iter().map(|&ri| &runs[ri]);
    let blocks: Vec<_> = (canonical.zip(&union.node_maps).zip(injective))
        .map(|((run, map), &one_to_one)| {
            let Some(mi) = run.metrics.iter().position(|m| m.name == d.name) else {
                kernel.add(vec![], vec![]);
                return Vec::new();
            };
            let mut direct = CsrColumn::new();
            run.costs[mi].iter().for_each(|&(n, v)| direct.add(n, v));
            let direct = MetricVec::Csr(direct);
            let (keys, vals) = direct.sorted_parts();
            let attr = attribute_sorted(&run.cct, &keys, &vals);
            let halves = (
                attr.inclusive.nonzero_sorted(),
                attr.exclusive.nonzero_sorted(),
            );
            if one_to_one {
                let at = |(n, v): (u32, f64)| (map[n as usize].0, v);
                kernel.add(halves.0.map(at), halves.1.map(at));
            } else {
                kernel.add(remap_costs(halves.0, map), remap_costs(halves.1, map));
            }
            remap_costs(run.costs[mi].iter().copied(), map)
        })
        .collect();
    let stats = kernel.finish();
    let (inclusive, exclusive) = stats.split_at(stats.len() / 2);
    let [inclusive, exclusive] = [inclusive, exclusive].map(stat_columns);
    let mut metrics = Vec::with_capacity(2 * STAT_NAMES.len());
    for (name, pair) in STAT_NAMES.iter().zip(inclusive.into_iter().zip(exclusive)) {
        metrics.extend([pair.0, pair.1].map(|costs| DbMetric {
            name: format!("{} {name}", d.name),
            unit: d.unit.clone(),
            period: d.period,
            costs,
        }));
    }
    (blocks, metrics)
}

/// Score each run's distance from the ensemble from directory totals
/// alone (no column ever faulted): per run, the maximum over base
/// metrics of `|total − mean| / stddev` of that metric's per-run
/// totals (population stddev; metrics with zero spread contribute 0).
/// Returns `(canonical run index, score)` sorted by descending score,
/// ties by run index.
pub fn outlier_scores(dir: &Directory) -> Vec<(usize, f64)> {
    let mut scores = vec![0.0f64; dir.runs.len()];
    for m in 0..dir.metric_names.len() {
        let mut totals = Welford::new();
        dir.runs.iter().for_each(|r| totals.push(r.stats[m].1));
        let (mean, sd) = (totals.mean(), totals.std_dev());
        if sd > 0.0 {
            for (r, run) in dir.runs.iter().enumerate() {
                let z = (run.stats[m].1 - mean).abs() / sd;
                if z.is_finite() && z > scores[r] {
                    scores[r] = z;
                }
            }
        }
    }
    let mut out: Vec<(usize, f64)> = scores.into_iter().enumerate().collect();
    out.sort_by(|a, b| SortDir::Descending.cmp_values(a.1, b.1).then(a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(label: &str, procs: &[&str], costs: &[(u32, f64)]) -> RunData {
        let mut names = NameTable::new();
        let file = names.file("x.c");
        let module = names.module("x");
        let ids: Vec<ProcId> = procs.iter().map(|p| names.proc(p)).collect();
        let mut cct = Cct::new(names);
        let mut parent = cct.root();
        for (i, p) in ids.into_iter().enumerate() {
            parent = cct.add_child(
                parent,
                ScopeKind::Frame {
                    proc: p,
                    module,
                    def: SourceLoc::new(file, 10 * (i as u32 + 1)),
                    call_site: None,
                },
            );
        }
        RunData {
            label: label.into(),
            cct,
            metrics: vec![MetricDesc::new("cycles", "ev", 1.0)],
            costs: vec![costs.to_vec()],
        }
    }

    #[test]
    fn union_contains_every_context_once() {
        let runs = vec![
            run("a", &["main", "fast"], &[(2, 1.0)]),
            run("b", &["main", "slow"], &[(2, 2.0)]),
            run("c", &["main", "fast"], &[(2, 4.0)]),
        ];
        let u = build_union(&runs, 1);
        // root + main + fast + slow
        assert_eq!(u.cct.len(), 4);
        // Runs a and c share "fast": their leaves map to the same node.
        let pos_of = |l: &str| u.order.iter().position(|&i| runs[i].label == l).unwrap();
        assert_eq!(u.node_maps[pos_of("a")][2], u.node_maps[pos_of("c")][2]);
        assert_ne!(u.node_maps[pos_of("a")][2], u.node_maps[pos_of("b")][2]);
    }

    #[test]
    fn union_is_independent_of_input_order_and_threads() {
        let runs = vec![
            run("r2", &["main", "g", "h"], &[(3, 1.0)]),
            run("r0", &["main", "f"], &[(2, 2.0)]),
            run("r1", &["main", "g"], &[(2, 3.0)]),
        ];
        let reference = build(&runs, 1).to_bytes();
        let mut shuffled = runs.clone();
        shuffled.rotate_left(2);
        for t in [1, 2, 3, 8] {
            assert_eq!(build(&shuffled, t).to_bytes(), reference, "threads {t}");
        }
    }

    #[test]
    fn a_run_with_duplicate_contexts_is_one_member_at_their_union_node() {
        // Run `a` holds `f` twice under `main`: its node map sends both to
        // one union node, where `a` is one member worth 3 + 4.
        let mut a = run("a", &["main", "f"], &[(2, 3.0)]);
        let kind = a.cct.kind(NodeId(2));
        let twin = a.cct.add_child(NodeId(1), kind);
        a.costs[0].push((twin.0, 4.0));
        let built = build(&[a, run("b", &["main", "f"], &[(2, 10.0)])], 1);
        assert_eq!(built.cct.len(), 3);
        // The first column of a statistic is its inclusive one.
        let at_f = |name: &str| {
            let inclusive = built.stat_metrics.iter().find(|m| m.name == name).unwrap();
            inclusive
                .costs
                .iter()
                .find(|e| e.0 == 2)
                .map_or(0.0, |e| e.1)
        };
        assert_eq!(at_f("cycles min"), 7.0);
        assert_eq!(at_f("cycles max"), 10.0);
        assert_eq!(at_f("cycles mean"), 8.5);
    }

    #[test]
    fn metrics_match_by_name_across_runs() {
        let mut a = run("a", &["main"], &[(1, 1.0)]);
        a.metrics.push(MetricDesc::new("insns", "ev", 1.0));
        a.costs.push(vec![(1, 10.0)]);
        let mut b = run("b", &["main"], &[(1, 3.0)]);
        // b stores insns FIRST: matching must go by name, not index.
        b.metrics.insert(0, MetricDesc::new("insns", "ev", 1.0));
        b.costs.insert(0, vec![(1, 20.0)]);
        let built = build(&[a, b], 1);
        assert_eq!(built.metric_names, vec!["cycles", "insns"]);
        let insns_mean = built
            .stat_metrics
            .iter()
            .find(|m| m.name == "insns mean")
            .unwrap();
        assert_eq!(insns_mean.costs, vec![(0, 15.0), (1, 15.0)], "inclusive");
    }

    #[test]
    fn outliers_surface_the_inflated_run() {
        let mut runs: Vec<RunData> = (0..8)
            .map(|i| run(&format!("r{i}"), &["main"], &[(1, 100.0)]))
            .collect();
        runs[5].costs[0] = vec![(1, 1000.0)];
        let bytes = build(&runs, 0).to_bytes();
        let dir = callpath_expdb::ens::read_directory(&bytes).unwrap();
        let scores = outlier_scores(&dir);
        assert_eq!(dir.runs[scores[0].0].label, "r5");
        assert!(scores[0].1 > 2.0, "z-score {}", scores[0].1);
        assert!(scores[0].1 > scores[1].1 * 2.0);
    }

    #[test]
    fn duplicate_runs_collapse_to_the_same_topology() {
        let a = run("same", &["main", "f"], &[(2, 1.0)]);
        let b = a.clone();
        let u = build_union(&[a, b], 2);
        assert_eq!(u.cct.len(), 3);
        assert_eq!(u.node_maps[0], u.node_maps[1]);
    }
}
