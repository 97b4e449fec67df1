//! Metric attribution: computing inclusive and exclusive costs over the
//! canonical CCT (Section IV-A, Equations 1 and 2).
//!
//! Two per-node quantities are computed for every raw metric, and a third
//! is defined on demand:
//!
//! * **inclusive** — Eq. 2: `i(x) = d(x) + Σ_children i(c)` where `d` is the
//!   direct (sample-point) cost. Computed over direct costs rather than the
//!   displayed exclusive, because the hybrid exclusive of a procedure frame
//!   already contains its loops' statements and would double-count (see
//!   `h`/`l1`/`l2` in Fig. 2a, where `h = (4,4)` *includes* `l2`'s 4).
//! * **exclusive** — Eq. 1 hybrid: procedure frames (and inlined frames)
//!   absorb every descendant statement reachable without crossing another
//!   frame boundary (rule 1, "Dynamic"); loops sum only their direct child
//!   statements (rule 2, "Static"); statements keep their direct cost; the
//!   root and other purely dynamic scopes display zero.
//! * **frame-direct** — the part of a frame's cost attributed to statements
//!   that are immediate children of the frame (outside any loop or inlined
//!   frame). The Flat View's call-site nodes display this as their
//!   exclusive cost: in Fig. 2c, `hy = (4,0)` because all of `h`'s
//!   statements live inside loops, while `gy/gz/gv` carry `g`'s body cost.
//!   Nothing else reads it, so it is not stored: [`frame_direct`] sums it
//!   from the raw column when a call-site row is filled.
//!
//! **Cost.** One kernel, [`attribute_sorted`], does Eq. 1 and Eq. 2 from a
//! column's sorted non-zeros, and its work follows what the column
//! touches (Section VII: "process data only when needed"): O(K) for Eq. 2,
//! where K is the size of the union of the non-zeros' ancestor chains,
//! and at most 3·nnz adds for Eq. 1, each found without walking above the
//! enclosing frame. Walking every chain to the root would instead cost
//! nnz × depth — on the 10⁶-node synthetic tree (mean depth 57 282,
//! nnz 1 024) that is 5.9·10⁷ steps against K = 123 118 and n = 10⁶ —
//! so each walk stops at the first node an earlier one marked. The only
//! scratch proportional to the tree is that mark set, one bit per node,
//! private to the call: `decode_all` runs column faults on several
//! threads at once.
//! A column that touches a quarter of the tree or more is swept with
//! node-indexed vectors instead, O(n) as before: there the searches and
//! the sort that sparseness costs buy nothing. Either branch's result is
//! handed over in the shape it was computed in — sorted arrays from the
//! walk, the two node-indexed vectors from the sweep — and that is the
//! shape the column keeps.

use crate::cct::Cct;
use crate::ids::{MetricId, NodeId};
use crate::metrics::{CsrColumn, MetricVec, RawMetrics, StorageKind};
use crate::topo::{tags, Topo};

/// Attribution results for a single raw metric over a CCT, each in the
/// shape the kernel's branch computed it in: sorted arrays
/// ([`MetricVec::Csr`]) when it walked the ancestor chains, node-indexed
/// vectors ([`MetricVec::Dense`]) when it swept the tree.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Eq. 2 inclusive costs per node.
    pub inclusive: MetricVec,
    /// Eq. 1 hybrid exclusive costs per node.
    pub exclusive: MetricVec,
    /// Nodes the inclusive pass visited: the size of the union of the
    /// non-zeros' ancestor chains (each non-zero node included), or
    /// every node of the tree when the column was swept. The work tests
    /// assert on it; nothing else reads it.
    pub visited: usize,
}

/// A column whose ancestor chains cover at least one node in this many
/// is swept with node-indexed vectors instead (see [`attribute_sorted`]),
/// and sorted entries that cover as much become a node-indexed vector
/// ([`MetricVec::from_sorted`]): the one threshold between the two
/// shapes, on the compute side and on the read side (EXPERIMENTS.md,
/// "Metric storage", has the lookup and scan times either side of it).
/// The measured crossover (EXPERIMENTS.md, "kernel crossover"): on a
/// bushy tree whose parents are uniformly random earlier frames — the
/// worst case for the walk's parent search — the walk wins at K = 15 %
/// of n (1.26 against 1.74 ms at 10⁵ nodes) and loses at 25 % (2.74
/// against 2.31 ms); on the deep synthetic tree it wins up to 50 %.
/// Without the branch `nav_mid`, whose dense columns each cover 2/3 of
/// a bushy tree, read `op_ms_p95` 34–39 ms against 23–25 ms.
pub(crate) const SWEEP_ABOVE_ONE_IN: usize = 4;

/// The attribution kernel: one column's direct costs in, as parallel
/// slices of strictly ascending node ids and their values (borrowed
/// from a compacted column or straight from a mapped database block).
/// Keys at or beyond the CCT's size and zero values are ignored.
///
/// Work follows what the column touches, not the tree: with `nnz`
/// non-zeros whose ancestor chains cover `K` nodes in all, Eq. 2 costs
/// O(K) parent steps (plus one pass over an `n`-bit mark set, the only
/// scratch proportional to the tree) and Eq. 1 at most 3·`nnz` adds,
/// none of which walks above the enclosing frame.
///
/// A column that touches most of the tree has nothing to skip, and
/// there a sweep of node-indexed vectors does the same additions in the
/// same order without the searches and the sort that sparseness costs:
/// a column with `K ≥ n / 4` (known at once when `nnz` alone is that
/// many, else as soon as the marking has counted `n / 4`) takes that
/// branch.
pub fn attribute_sorted(cct: &Cct, keys: &[u32], vals: &[f64]) -> Attribution {
    debug_assert!(keys.windows(2).all(|w| w[0] < w[1]));
    let topo = cct.topo();
    let n = topo.len();
    let direct = keys
        .iter()
        .zip(vals)
        .map(|(&k, &v)| (k, v))
        .filter(|&(k, v)| (k as usize) < n && v != 0.0);
    if keys.len() * SWEEP_ABOVE_ONE_IN >= n {
        return sweep(topo, direct);
    }

    // Eq. 2. Mark every non-zero's ancestor chain, stopping at the
    // first node some earlier chain already marked: K steps in all.
    let mut marks = vec![0u64; n.div_ceil(64)];
    let mut visited = 0;
    for (k, _) in direct.clone() {
        let mut cur = NodeId(k);
        loop {
            let (word, bit) = (cur.index() / 64, 1u64 << (cur.0 % 64));
            if marks[word] & bit != 0 {
                break;
            }
            marks[word] |= bit;
            visited += 1;
            match topo.parent(cur) {
                Some(p) => cur = p,
                None => break,
            }
        }
        if visited * SWEEP_ABOVE_ONE_IN >= n {
            return sweep(topo, direct);
        }
    }
    // The marked nodes in ascending order, each seeded with its direct
    // cost (every non-zero is marked, and both sequences ascend).
    let mut inclusive = Vec::with_capacity(visited);
    let mut seeds = direct.clone().peekable();
    for (w, &word) in marks.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let node = (w * 64) as u32 + bits.trailing_zeros();
            bits &= bits - 1;
            let d = seeds.next_if(|&(k, _)| k == node).map_or(0.0, |(_, v)| v);
            inclusive.push((node, d));
        }
    }
    drop(marks);
    // Arena order is topological (parents precede children), so going
    // down the marked nodes hands every parent its children's finished
    // sums, in descending child order — the add order of a reverse sweep
    // over all nodes, which keeps every sum bit-identical to one.
    for i in (1..inclusive.len()).rev() {
        let (node, v) = inclusive[i];
        if v == 0.0 {
            continue;
        }
        let parent = topo.parent(NodeId(node));
        if let Some(at) = parent.and_then(|p| rank_below(&inclusive, i, p.0)) {
            inclusive[at].1 += v;
        }
    }
    inclusive.retain(|&(_, v)| v != 0.0);

    // Eq. 1: collect the adds, then sum them per node.
    let mut exclusive = Vec::new();
    for (i, d) in direct {
        exclusive_targets(topo, NodeId(i), |target| exclusive.push((target.0, d)));
    }

    Attribution {
        inclusive: MetricVec::Csr(CsrColumn::from_sorted(inclusive)),
        exclusive: MetricVec::Csr(CsrColumn::from_sorted(coalesce(exclusive))),
        visited,
    }
}

/// Eq. 1 hybrid exclusive: a direct cost at `node` goes to
///   - the node itself, when static (statements keep their own cost);
///   - its parent, when the parent is a loop and the node a statement
///     (rule 2: loops sum direct child statements);
///   - its innermost enclosing frame-like scope (rule 1).
///
/// Decided from tags alone: nothing is decoded.
fn exclusive_targets(topo: Topo<'_>, node: NodeId, mut add: impl FnMut(NodeId)) {
    match topo.tag(node) {
        tags::STMT | tags::LOOP => {
            add(node);
            if let Some(p) = topo.parent(node) {
                if topo.is_stmt(node) && topo.is_loop(p) {
                    add(p);
                }
                // Rule 1: attribute to the innermost frame-like scope.
                if let Some(f) = topo.enclosing_frame_like(p) {
                    add(f);
                }
            }
        }
        // Cost sampled directly at a frame (no statement info) belongs to
        // the frame's exclusive.
        tags::FRAME | tags::FRAME_TOP | tags::INLINED => add(node),
        // The root: unattributable cost, kept out of every exclusive
        // column (it still shows up in the root's inclusive value).
        _ => {}
    }
}

/// The kernel's branch for a column that touches most of the tree: the
/// same additions in the same order over two node-indexed vectors —
/// a scatter for Eq. 1, one reverse sweep for Eq. 2 (arena order is
/// topological). It visits every node.
fn sweep(topo: Topo<'_>, direct: impl Iterator<Item = (u32, f64)>) -> Attribution {
    let n = topo.len();
    let (mut inclusive, mut exclusive) = (vec![0.0; n], vec![0.0; n]);
    for (i, d) in direct {
        inclusive[i as usize] = d;
        exclusive_targets(topo, NodeId(i), |target| exclusive[target.index()] += d);
    }
    // Every node hands its sum to its parent, zero or not: adding +0.0
    // leaves any sum but −0.0 bit for bit, and no sum here is −0.0 (the
    // seeds are non-zero, and non-zero values that cancel sum to +0.0).
    // Without the test the loop has no branch to mispredict.
    let parents = topo.parents();
    for i in (1..n).rev() {
        if let Some(&p) = parents.get(i).filter(|&&p| (p as usize) < n) {
            inclusive[p as usize] += inclusive[i];
        }
    }
    Attribution {
        inclusive: MetricVec::Dense(inclusive),
        exclusive: MetricVec::Dense(exclusive),
        visited: n,
    }
}

/// Position of `node` in `sorted[..end]`, galloping down from `end`: a
/// parent usually sits a few marked nodes below its child, so the
/// search costs the logarithm of that distance rather than of `end`.
fn rank_below(sorted: &[(u32, f64)], end: usize, node: u32) -> Option<usize> {
    let (mut hi, mut step) = (end, 1);
    while hi > 0 {
        let lo = hi.saturating_sub(step);
        if sorted[lo].0 <= node {
            let found = sorted[lo..hi].binary_search_by_key(&node, |e| e.0);
            return found.ok().map(|at| lo + at);
        }
        (hi, step) = (lo, step * 2);
    }
    None
}

/// Sum `(node, delta)` adds per node. The sort is stable, so each node
/// receives its deltas in the order they were pushed — ascending source
/// node, as a scatter into a node-indexed vector would add them.
fn coalesce(mut adds: Vec<(u32, f64)>) -> Vec<(u32, f64)> {
    adds.sort_by_key(|&(node, _)| node);
    adds.dedup_by(|next, kept| {
        let same = kept.0 == next.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
    adds.retain(|&(_, v)| v != 0.0);
    adds
}

/// Inclusive and exclusive costs of metric `m`: [`attribute_sorted`]
/// over the column's sorted non-zeros. The last argument selects nothing
/// ([`StorageKind`]).
pub fn attribute(cct: &Cct, raw: &RawMetrics, m: MetricId, _: StorageKind) -> Attribution {
    let (keys, vals) = raw.column(m).sorted_parts();
    attribute_sorted(cct, &keys, &vals)
}

/// Frame-direct cost of `frame`, by definition: the direct cost sampled
/// at the frame itself plus that of its immediate statement and loop
/// children, added in ascending node order; zero for a scope that is not
/// a frame. `direct` is the raw metric's column. The Flat View calls this
/// when it fills a call-site row — the one place the quantity is shown.
pub fn frame_direct(cct: &Cct, direct: &MetricVec, frame: NodeId) -> f64 {
    let topo = cct.topo();
    if !topo.is_frame(frame) {
        return 0.0;
    }
    let body = topo
        .children(frame)
        .filter(|&c| topo.is_stmt(c) || topo.is_loop(c));
    std::iter::once(frame)
        .chain(body)
        .fold(0.0, |sum, n| sum + direct.get(n.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FileId, LoadModuleId, ProcId};
    use crate::metrics::MetricDesc;
    use crate::names::{NameTable, SourceLoc};
    use crate::scope::ScopeKind;

    fn frame(proc: u32, call_line: u32) -> ScopeKind {
        ScopeKind::Frame {
            proc: ProcId(proc),
            module: LoadModuleId(0),
            def: SourceLoc::new(FileId(0), 1),
            call_site: (call_line != 0).then(|| SourceLoc::new(FileId(0), call_line)),
        }
    }

    fn lp(line: u32) -> ScopeKind {
        ScopeKind::Loop {
            header: SourceLoc::new(FileId(0), line),
        }
    }

    fn stmt(line: u32) -> ScopeKind {
        ScopeKind::Stmt {
            loc: SourceLoc::new(FileId(0), line),
        }
    }

    /// Build `h` from Fig. 1/2: a frame containing `l1 { l2 { stmts } }`.
    #[test]
    fn frame_with_nested_loops_matches_fig2() {
        let mut cct = Cct::new(NameTable::new());
        let root = cct.root();
        let h = cct.add_child(root, frame(0, 0));
        let l1 = cct.add_child(h, lp(8));
        let l2 = cct.add_child(l1, lp(9));
        let s = cct.add_child(l2, stmt(9));

        let mut raw = RawMetrics::new(StorageKind::Csr);
        let m = raw.add_metric(MetricDesc::new("cyc", "cycles", 1.0));
        raw.add_cost(m, s, 4.0);

        let a = attribute(&cct, &raw, m, StorageKind::Csr);
        // Fig 2a: h = (4,4), l1 = (4,0), l2 = (4,4).
        assert_eq!(a.inclusive.get(h.0), 4.0);
        assert_eq!(a.exclusive.get(h.0), 4.0);
        assert_eq!(a.inclusive.get(l1.0), 4.0);
        assert_eq!(a.exclusive.get(l1.0), 0.0);
        assert_eq!(a.inclusive.get(l2.0), 4.0);
        assert_eq!(a.exclusive.get(l2.0), 4.0);
        // No statement is an immediate child of h.
        assert_eq!(frame_direct(&cct, raw.column(m), h), 0.0);
    }

    #[test]
    fn frame_direct_counts_only_body_statements() {
        let mut cct = Cct::new(NameTable::new());
        let root = cct.root();
        let f = cct.add_child(root, frame(0, 0));
        let body = cct.add_child(f, stmt(3));
        let l = cct.add_child(f, lp(4));
        let in_loop = cct.add_child(l, stmt(5));

        let mut raw = RawMetrics::new(StorageKind::Csr);
        let m = raw.add_metric(MetricDesc::new("cyc", "cycles", 1.0));
        raw.add_cost(m, body, 2.0);
        raw.add_cost(m, in_loop, 3.0);

        let a = attribute(&cct, &raw, m, StorageKind::Csr);
        assert_eq!(a.exclusive.get(f.0), 5.0, "rule 1: frame absorbs all stmts");
        assert_eq!(
            frame_direct(&cct, raw.column(m), f),
            2.0,
            "only the body statement"
        );
        assert_eq!(frame_direct(&cct, raw.column(m), l), 0.0, "not a frame");
        assert_eq!(a.exclusive.get(l.0), 3.0, "rule 2: direct child statement");
    }

    #[test]
    fn rule1_stops_at_inlined_frame_boundary() {
        let mut cct = Cct::new(NameTable::new());
        let root = cct.root();
        let f = cct.add_child(root, frame(0, 0));
        let inl = cct.add_child(
            f,
            ScopeKind::InlinedFrame {
                proc: ProcId(1),
                def: SourceLoc::new(FileId(0), 20),
                call_site: SourceLoc::new(FileId(0), 3),
            },
        );
        let s = cct.add_child(inl, stmt(21));

        let mut raw = RawMetrics::new(StorageKind::Csr);
        let m = raw.add_metric(MetricDesc::new("cyc", "cycles", 1.0));
        raw.add_cost(m, s, 7.0);

        let a = attribute(&cct, &raw, m, StorageKind::Csr);
        assert_eq!(
            a.exclusive.get(inl.0),
            7.0,
            "inlined frame absorbs its statements"
        );
        assert_eq!(
            a.exclusive.get(f.0),
            0.0,
            "host frame's exclusive must not cross the inline boundary"
        );
        assert_eq!(
            a.inclusive.get(f.0),
            7.0,
            "inclusive still flows to the host"
        );
    }

    #[test]
    fn inclusive_sums_across_call_sites() {
        let mut cct = Cct::new(NameTable::new());
        let root = cct.root();
        let main = cct.add_child(root, frame(0, 0));
        let callee = cct.add_child(main, frame(1, 7));
        let s_main = cct.add_child(main, stmt(2));
        let s_callee = cct.add_child(callee, stmt(30));

        let mut raw = RawMetrics::new(StorageKind::Csr);
        let m = raw.add_metric(MetricDesc::new("cyc", "cycles", 1.0));
        raw.add_cost(m, s_main, 1.0);
        raw.add_cost(m, s_callee, 9.0);

        let a = attribute(&cct, &raw, m, StorageKind::Csr);
        assert_eq!(a.inclusive.get(main.0), 10.0);
        assert_eq!(
            a.exclusive.get(main.0),
            1.0,
            "rule 1 does not cross the call"
        );
        assert_eq!(a.inclusive.get(callee.0), 9.0);
        assert_eq!(a.exclusive.get(callee.0), 9.0);
        assert_eq!(
            a.inclusive.get(root.0),
            10.0,
            "root inclusive = program total"
        );
        assert_eq!(
            a.exclusive.get(root.0),
            0.0,
            "root is dynamic: blank exclusive"
        );
    }

    #[test]
    fn cost_sampled_at_frame_is_frame_direct() {
        let mut cct = Cct::new(NameTable::new());
        let root = cct.root();
        let f = cct.add_child(root, frame(0, 0));
        let mut raw = RawMetrics::new(StorageKind::Csr);
        let m = raw.add_metric(MetricDesc::new("cyc", "cycles", 1.0));
        raw.add_cost(m, f, 3.0);
        let a = attribute(&cct, &raw, m, StorageKind::Csr);
        assert_eq!(a.exclusive.get(f.0), 3.0);
        assert_eq!(frame_direct(&cct, raw.column(m), f), 3.0);
    }
}
