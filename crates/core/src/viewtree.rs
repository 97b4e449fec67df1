//! Arena tree for derived presentation views (Callers View, Flat View).
//!
//! Unlike the canonical CCT, whose nodes are *instances* (one node per
//! calling context), a view node *aggregates* a set of CCT instances. The
//! node keeps the set, split once into the instances its values sum — the
//! ones with no proper ancestor in the set (Section IV-B) — and the rest,
//! which only an expansion reads.
//!
//! Values are column-lazy: a column of the experiment is summed over the
//! materialized view nodes the first time it is read
//! ([`ViewTree::value`]), the way the experiment's own columns fault in,
//! and nodes an expansion adds later are filled for the columns resident
//! by then. A read faults; it never sees a zero that only means "not
//! computed yet".

use crate::attribution::frame_direct;
use crate::derived::EvalContext;
use crate::experiment::Experiment;
use crate::exposure::Marks;
use crate::hash::MixState;
use crate::ids::{ColumnId, FileId, LoadModuleId, MetricId, NodeId, ProcId, ViewNodeId};
use crate::metrics::MetricVec;
use crate::names::{NameTable, SourceLoc};
use crate::topo::Topo;
use std::collections::HashMap;
use std::sync::OnceLock;

const NONE: u32 = u32::MAX;

/// What a view node presents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViewScope {
    /// Callers View top-level entry: a procedure aggregated over all its
    /// calling contexts.
    ProcTop {
        /// The aggregated procedure.
        proc: ProcId,
    },
    /// Callers View interior node: a caller one step further up the chain.
    /// `call_site` is where the *callee one level down* was called.
    Caller {
        /// The caller procedure at this level of the chain.
        proc: ProcId,
        /// Call site of the activation one level below.
        call_site: Option<SourceLoc>,
    },
    /// Flat View containers.
    Module {
        /// The load module.
        module: LoadModuleId,
    },
    /// Flat View file container.
    File {
        /// The source file.
        file: FileId,
    },
    /// Flat View procedure (all activations aggregated).
    Procedure {
        /// The procedure.
        proc: ProcId,
    },
    /// Flat View static structure inside a procedure.
    Loop {
        /// Loop header location.
        header: SourceLoc,
    },
    /// A statement within a procedure's static structure.
    Stmt {
        /// Statement location.
        loc: SourceLoc,
    },
    /// An inlined procedure body within the host's static structure.
    Inlined {
        /// The inlined procedure.
        callee: ProcId,
        /// Where it was inlined.
        call_site: SourceLoc,
    },
    /// Flat View dynamic node: a call site within a procedure, fused with
    /// its callee (Fig. 2c's `gy`, `gz`, `gv`, `fy`, `hy`).
    CallSite {
        /// The procedure called from this site.
        callee: ProcId,
        /// The call-site location in the host procedure.
        loc: Option<SourceLoc>,
    },
}

impl ViewScope {
    /// Human-readable label (procedure/file/module name, `loop at …`, …).
    pub fn label(&self, names: &NameTable) -> String {
        let mut s = String::new();
        self.write_label(names, &mut s);
        s
    }

    /// [`ViewScope::label`] writing into an existing buffer (the
    /// renderer's hot path reuses one buffer across rows).
    pub fn write_label(&self, names: &NameTable, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            ViewScope::ProcTop { proc } | ViewScope::Procedure { proc } => {
                out.push_str(names.proc_name(*proc))
            }
            ViewScope::Caller { proc, .. } => out.push_str(names.proc_name(*proc)),
            ViewScope::Module { module } => out.push_str(names.module_name(*module)),
            ViewScope::File { file } => out.push_str(names.file_name(*file)),
            ViewScope::Loop { header } => {
                let _ = write!(
                    out,
                    "loop at {}:{}",
                    names.file_name(header.file),
                    header.line
                );
            }
            ViewScope::Stmt { loc } => {
                let _ = write!(out, "{}:{}", names.file_name(loc.file), loc.line);
            }
            ViewScope::Inlined { callee, .. } => {
                out.push_str("inlined from ");
                out.push_str(names.proc_name(*callee));
            }
            ViewScope::CallSite { callee, .. } => out.push_str(names.proc_name(*callee)),
        }
    }

    /// Should the navigation pane draw the call-site arrow icon?
    pub fn is_call(&self) -> bool {
        matches!(self, ViewScope::CallSite { .. } | ViewScope::Caller { .. })
    }
}

#[derive(Debug, Clone)]
struct ViewNode {
    scope: ViewScope,
    parent: u32,
    first_child: u32,
    last_child: u32,
    next_sibling: u32,
    /// The aggregated CCT instances with no proper ancestor among them,
    /// ascending: the ones the node's values sum.
    kept: Vec<NodeId>,
    /// The other aggregated instances, ascending. An expansion groups
    /// them with the kept ones; no value reads them.
    covered: Vec<NodeId>,
    /// Lazy views: whether children have been materialized yet.
    expanded: bool,
}

/// A forest of view nodes plus their values in the experiment's columns.
#[derive(Debug, Clone, Default)]
pub struct ViewTree {
    nodes: Vec<ViewNode>,
    roots: Vec<u32>,
    /// Column values over view node ids, one slot per column of the
    /// experiment, in its order. A column is filled, for every node there
    /// is, on first read.
    values: Vec<OnceLock<MetricVec>>,
    /// Node additions. See [`ViewTree::generation`].
    generation: u64,
    /// Scratch for the set-relative exposure of expanded nodes.
    marks: Marks,
}

impl ViewTree {
    /// An empty forest with the columns of `exp`, none of them filled.
    pub fn new(exp: &Experiment) -> Self {
        ViewTree {
            values: (0..exp.columns.column_count())
                .map(|_| OnceLock::new())
                .collect(),
            ..ViewTree::default()
        }
    }

    /// Generation stamp: the number of nodes ever added (lazy expansion
    /// materializing children), so any change to a child set makes a
    /// previously observed stamp stale, which is exactly what
    /// [`SortCache`] needs. Values never change once read: the columns
    /// are the experiment's, which the view borrows immutably, and filling
    /// a column on its first read is not a mutation, since no ordering can
    /// have been computed from values nobody had read.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of materialized view nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been materialized.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Top-level nodes, in creation order.
    pub fn roots(&self) -> Vec<ViewNodeId> {
        self.roots.iter().map(|&r| ViewNodeId(r)).collect()
    }

    fn push_node(&mut self, scope: ViewScope, parent: u32) -> u32 {
        let id = u32::try_from(self.nodes.len()).expect("view tree overflow");
        self.nodes.push(ViewNode {
            scope,
            parent,
            first_child: NONE,
            last_child: NONE,
            next_sibling: NONE,
            kept: Vec::new(),
            covered: Vec::new(),
            expanded: false,
        });
        self.generation += 1;
        id
    }

    /// Append a new top-level node.
    pub fn add_root(&mut self, scope: ViewScope) -> ViewNodeId {
        let id = self.push_node(scope, NONE);
        self.roots.push(id);
        ViewNodeId(id)
    }

    /// Append a child under `parent` (insertion order preserved).
    pub fn add_child(&mut self, parent: ViewNodeId, scope: ViewScope) -> ViewNodeId {
        let id = self.push_node(scope, parent.0);
        let p = &mut self.nodes[parent.index()];
        if p.first_child == NONE {
            p.first_child = id;
        } else {
            let last = p.last_child;
            self.nodes[last as usize].next_sibling = id;
        }
        self.nodes[parent.index()].last_child = id;
        ViewNodeId(id)
    }

    /// What node `n` presents.
    pub fn scope(&self, n: ViewNodeId) -> &ViewScope {
        &self.nodes[n.index()].scope
    }

    /// Parent of `n` (`None` for roots).
    pub fn parent(&self, n: ViewNodeId) -> Option<ViewNodeId> {
        let p = self.nodes[n.index()].parent;
        (p != NONE).then_some(ViewNodeId(p))
    }

    /// Children of `n`, in insertion order.
    pub fn children(&self, n: ViewNodeId) -> Vec<ViewNodeId> {
        self.child_ids(n.0).map(ViewNodeId).collect()
    }

    /// Children of `n` as raw ids, in insertion order.
    pub(crate) fn child_ids(&self, n: u32) -> impl Iterator<Item = u32> + '_ {
        let first = self.nodes[n as usize].first_child;
        std::iter::successors((first != NONE).then_some(first), |&c| {
            let next = self.nodes[c as usize].next_sibling;
            (next != NONE).then_some(next)
        })
    }

    /// True when `n` has at least one materialized child.
    pub fn has_children(&self, n: ViewNodeId) -> bool {
        self.nodes[n.index()].first_child != NONE
    }

    /// The CCT instances `n` aggregates that have no proper ancestor among
    /// them, ascending: the ones its values are sums over.
    pub fn kept(&self, n: ViewNodeId) -> &[NodeId] {
        &self.nodes[n.index()].kept
    }

    /// The other instances `n` aggregates, ascending: each lies below a
    /// kept one, so it adds nothing to `n`'s values, but an expansion of
    /// `n` groups it with the rest. Flat files and modules, whose children
    /// exist from the start, keep none.
    pub fn covered(&self, n: ViewNodeId) -> &[NodeId] {
        &self.nodes[n.index()].covered
    }

    /// Record an instance of `n` whose place in the set is known: what the
    /// one-pass exposure of a view's build decides for every frame.
    pub(crate) fn push_instance(&mut self, n: ViewNodeId, inst: NodeId, kept: bool) {
        let node = &mut self.nodes[n.index()];
        let side = if kept {
            &mut node.kept
        } else {
            &mut node.covered
        };
        side.push(inst);
    }

    /// Record the whole instance set of a node an expansion made:
    /// `members` ascending, each with whether it is already known to be
    /// kept — an instance is, whenever the one it was grouped from was
    /// kept by the expanded node, because any ancestor of it in this set
    /// would put an ancestor of that one in the expanded node's set. Only
    /// the others climb ([`Marks`]), so a set none of whose members sits
    /// under recursion costs its length.
    pub(crate) fn set_instances(
        &mut self,
        topo: Topo<'_>,
        n: ViewNodeId,
        members: &[(NodeId, bool)],
    ) {
        let climb = members.len() > 1 && members.iter().any(|&(_, known)| !known);
        if climb {
            self.marks.stamp(topo, members.iter().map(|&(i, _)| i));
        }
        let mut kept = Vec::with_capacity(members.len());
        let mut covered = Vec::new();
        for &(i, known) in members {
            if known || !climb || self.marks.is_exposed(topo, i) {
                kept.push(i);
            } else {
                covered.push(i);
            }
        }
        let node = &mut self.nodes[n.index()];
        (node.kept, node.covered) = (kept, covered);
    }

    /// Lazy views: whether `n`'s children have been materialized.
    pub fn is_expanded(&self, n: ViewNodeId) -> bool {
        self.nodes[n.index()].expanded
    }

    /// Mark `n`'s children as materialized.
    pub fn mark_expanded(&mut self, n: ViewNodeId) {
        self.nodes[n.index()].expanded = true;
    }

    /// Value of column `c` at node `n`, filling the column first if this
    /// is its first read. `exp` is the experiment the tree was built
    /// from: attributed values are read from `exp.columns` — faulting a
    /// lazily opened database's column in on first touch — and nowhere
    /// else.
    pub fn value(&self, exp: &Experiment, c: ColumnId, n: ViewNodeId) -> f64 {
        self.column(exp, c).get(n.0)
    }

    fn column(&self, exp: &Experiment, c: ColumnId) -> &MetricVec {
        self.values[c.index()].get_or_init(|| {
            let mut values = vec![0.0; self.nodes.len()];
            self.fill(exp, c, 0, &mut values);
            MetricVec::Dense(values)
        })
    }

    /// Compute column `c` for nodes `from..`, into `values` (one cell per
    /// node of the tree). The inclusive value of a node is the sum of its
    /// kept instances' inclusive costs (Section IV-B), added in ascending
    /// CCT order; the exclusive value the same sum over the exclusive
    /// column — except on a Flat call-site row, where it is the kept
    /// callee frames' frame-direct cost (`hy = (4,0)` in Fig. 2c; the one
    /// reader of a raw metric, and only of the metric whose exclusive
    /// column is being filled), and on Flat files and modules, where it is
    /// the children's exclusive values added in child order (`file2.e =
    /// gx.e + hx.e = 8`); a derived column is its formula over the node's
    /// values of the columns it names, faulting those. Children have
    /// higher ids than their parents, so the cells are written last node
    /// first.
    fn fill(&self, exp: &Experiment, c: ColumnId, from: usize, values: &mut [f64]) {
        // Zero, of either sign, is the blank cell.
        let blank_zero = |value: f64| if value != 0.0 { value } else { 0.0 };
        let nodes = from..self.nodes.len();
        if c.index() >= 2 * exp.raw.metric_count() {
            let formulas = exp.derived_formulas();
            if let Some((_, formula)) = formulas.iter().find(|(d, _)| *d == c) {
                for v in nodes {
                    let inputs = Inputs {
                        tree: self,
                        exp,
                        node: ViewNodeId(v as u32),
                        below: c,
                    };
                    values[v] = blank_zero(formula.eval(&inputs));
                }
            }
            return;
        }
        let column = exp.columns.vec(c);
        let exclusive_of = (c.0 % 2 == 1).then_some(MetricId(c.0 / 2));
        let mut direct = None;
        for v in nodes.rev() {
            let node = &self.nodes[v];
            let kept = node.kept.iter();
            let value: f64 = match (exclusive_of, &node.scope) {
                (Some(m), ViewScope::CallSite { .. }) => {
                    let direct = *direct.get_or_insert_with(|| exp.raw.column(m));
                    kept.map(|&i| frame_direct(&exp.cct, direct, i)).sum()
                }
                (Some(_), ViewScope::File { .. } | ViewScope::Module { .. }) => {
                    self.child_ids(v as u32).map(|k| values[k as usize]).sum()
                }
                _ => kept.map(|i| column.get(i.0)).sum(),
            };
            values[v] = blank_zero(value);
        }
    }

    /// Nodes `from..` are new: give them their values in every column
    /// that has been read. Ascending, so that a derived column finds the
    /// columns it names already extended.
    pub(crate) fn fill_new_nodes(&mut self, exp: &Experiment, from: usize) {
        for c in 0..exp.columns.column_count() {
            let Some(MetricVec::Dense(mut values)) = self.values[c].take() else {
                continue;
            };
            values.resize(self.nodes.len(), 0.0);
            self.fill(exp, ColumnId::from_usize(c), from, &mut values);
            self.values[c] = OnceLock::from(MetricVec::Dense(values));
        }
    }

    /// Human-readable label of `n`.
    pub fn label(&self, n: ViewNodeId, names: &NameTable) -> String {
        self.nodes[n.index()].scope.label(names)
    }

    /// Write node `n`'s label into an existing buffer (allocation-free
    /// when the label is an interned name).
    pub fn write_label(&self, n: ViewNodeId, names: &NameTable, out: &mut String) {
        self.nodes[n.index()].scope.write_label(names, out)
    }

    /// Approximate heap footprint, for the lazy-vs-eager comparison in
    /// `tests/scalability.rs`.
    pub fn heap_bytes(&self) -> usize {
        let nodes = self.nodes.capacity() * std::mem::size_of::<ViewNode>();
        let instances: usize = self
            .nodes
            .iter()
            .map(|n| (n.kept.capacity() + n.covered.capacity()) * std::mem::size_of::<NodeId>())
            .sum();
        let columns: usize = self
            .values
            .iter()
            .filter_map(|v| v.get())
            .map(MetricVec::heap_bytes)
            .sum();
        nodes + instances + columns
    }
}

/// What a derived column's formula reads at one view node: the node's
/// values of the columns before it (a formula names no later one; such a
/// reference reads 0, as on the CCT), faulted in by the read, and the
/// experiment's whole-program aggregates.
struct Inputs<'a> {
    tree: &'a ViewTree,
    exp: &'a Experiment,
    node: ViewNodeId,
    below: ColumnId,
}

impl EvalContext for Inputs<'_> {
    fn column(&self, idx: u32) -> f64 {
        if idx < self.below.0 {
            self.tree.value(self.exp, ColumnId(idx), self.node)
        } else {
            0.0
        }
    }

    fn aggregate(&self, idx: u32) -> f64 {
        self.exp.aggregate(ColumnId(idx))
    }
}

/// Direction of a cached metric-column ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortDir {
    /// Largest value first (the navigation pane's default).
    Descending,
    /// Smallest value first.
    Ascending,
}

impl SortDir {
    /// The one comparator of metric values for a ranking in this
    /// direction: numbers by value (−0 equals +0), NaN after every number
    /// in both directions (and equal to NaN). Without NaN it is
    /// `partial_cmp` in this direction; with NaN it is still a total
    /// order, which `sort_by` and `select_nth_unstable_by` require.
    /// Callers chain their own tie key with `.then`.
    #[inline]
    pub fn cmp_values(self, a: f64, b: f64) -> std::cmp::Ordering {
        match a.partial_cmp(&b) {
            Some(by_value) => match self {
                SortDir::Descending => by_value.reverse(),
                SortDir::Ascending => by_value,
            },
            // At least one is NaN: the NaN goes last.
            None => a.is_nan().cmp(&b.is_nan()),
        }
    }
}

/// What a cached child ordering was sorted by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortKey {
    /// Ascending by node label.
    Name,
    /// By metric column value, ties broken ascending by label.
    Column {
        /// The view column sorted on.
        column: ColumnId,
        /// Sort direction.
        dir: SortDir,
    },
}

/// Slot namespace for top-level (root) orderings: node ids are `u32`, so
/// anything at or above `1 << 32` cannot collide with a per-parent slot.
/// Flat View adds the flatten level so each flattening depth caches its
/// own root ordering.
pub const TOP_SLOT_BASE: u64 = 1 << 32;

#[derive(Debug, Clone)]
struct CachedOrder {
    generation: u64,
    order: Vec<u32>,
}

/// Per-view cache of sorted child orderings, keyed by `(slot, sort key)`
/// and validated with a generation stamp. A slot is either a parent
/// view-node id or a [`TOP_SLOT_BASE`]-offset synthetic slot for a
/// top-level list. Each sort key has a table of its own, so a render
/// under one key probes that key's orderings only, not every key's.
///
/// What is cached: the sorted node-id vector of every list the caller
/// had to sort — two or more scopes. What is not: a list of zero or one
/// scope has a single order under every key, so callers neither sort it
/// nor [`SortCache::insert`] it, and `full_sorts` counts exactly the
/// entries written. Entries are node ids, not references into the tree,
/// and a hit is read in place ([`SortCache::lookup`] lends the slice;
/// nothing is copied). Lookups at a stale generation miss; the caller
/// recomputes and inserts at the generation observed *after* recomputing
/// (child materialization during the recompute bumps the tree
/// generation, and stamping afterward keeps the entry valid). Slots are
/// ids the program assigns, so the map hashes them with
/// [`MixState`], not SipHash.
#[derive(Debug, Default)]
pub struct SortCache {
    entries: HashMap<SortKey, HashMap<u64, CachedOrder, MixState>, MixState>,
    hits: u64,
    full_sorts: u64,
}

impl SortCache {
    /// An empty cache.
    pub fn new() -> Self {
        SortCache::default()
    }

    /// The cached ordering for `(slot, key)` if it was computed at
    /// exactly `generation`; counts a hit when present.
    pub fn lookup(&mut self, slot: u64, key: SortKey, generation: u64) -> Option<&[u32]> {
        match self.entries.get(&key).and_then(|e| e.get(&slot)) {
            Some(c) if c.generation == generation => {
                self.hits += 1;
                Some(&c.order)
            }
            _ => None,
        }
    }

    /// Record a freshly computed ordering (counts one full sort).
    pub fn insert(&mut self, slot: u64, key: SortKey, generation: u64, order: Vec<u32>) {
        self.full_sorts += 1;
        self.entries
            .entry(key)
            .or_default()
            .insert(slot, CachedOrder { generation, order });
    }

    /// `(hits, full_sorts)` since construction. The acceptance test for
    /// "re-sorting a built view performs zero full-child sorts" watches
    /// `full_sorts`.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.full_sorts)
    }

    /// Number of cached orderings.
    pub fn len(&self) -> usize {
        self.entries.values().map(HashMap::len).sum()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Interned per-node labels for one view, indexed densely by view node
/// id. Labels are rendered once through `write_label` (whose procedure/
/// file/module arms copy straight out of the [`NameTable`]'s interned
/// strings) and then reused by every sort comparison, tie-break, and
/// rendered row — instead of allocating a fresh `String` per comparison.
#[derive(Debug, Default)]
pub struct LabelCache {
    labels: Vec<Option<Box<str>>>,
}

impl LabelCache {
    /// An empty cache.
    pub fn new() -> Self {
        LabelCache::default()
    }

    /// Make sure node `n` has a cached label, building it with `fill`
    /// (which writes the label into the provided buffer) on first use.
    pub fn ensure(&mut self, n: u32, fill: impl FnOnce(&mut String)) {
        let i = n as usize;
        if i >= self.labels.len() {
            self.labels.resize(i + 1, None);
        }
        if self.labels[i].is_none() {
            let mut buf = String::new();
            fill(&mut buf);
            self.labels[i] = Some(buf.into_boxed_str());
        }
    }

    /// The cached label for `n` (empty when [`LabelCache::ensure`] has
    /// not run for it).
    pub fn peek(&self, n: u32) -> &str {
        self.labels
            .get(n as usize)
            .and_then(|l| l.as_deref())
            .unwrap_or("")
    }

    /// Cached label for `n`, building it on first use.
    pub fn get(&mut self, n: u32, fill: impl FnOnce(&mut String)) -> &str {
        self.ensure(n, fill);
        self.labels[n as usize].as_deref().unwrap_or("")
    }

    /// Number of label slots (dense up to the highest ensured node id).
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when no label has been cached.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forest_roots_and_children() {
        let mut t = ViewTree::default();
        let a = t.add_root(ViewScope::ProcTop { proc: ProcId(0) });
        let b = t.add_root(ViewScope::ProcTop { proc: ProcId(1) });
        let c = t.add_child(
            a,
            ViewScope::Caller {
                proc: ProcId(2),
                call_site: None,
            },
        );
        assert_eq!(t.roots(), vec![a, b]);
        assert_eq!(t.children(a), vec![c]);
        assert_eq!(t.parent(c), Some(a));
        assert_eq!(t.parent(a), None);
        assert!(t.has_children(a));
        assert!(!t.has_children(b));
    }

    #[test]
    fn instances_accumulate_on_their_side_of_the_set() {
        let mut t = ViewTree::default();
        let a = t.add_root(ViewScope::Procedure { proc: ProcId(0) });
        t.push_instance(a, NodeId(5), true);
        t.push_instance(a, NodeId(7), false);
        t.push_instance(a, NodeId(9), true);
        assert_eq!(t.kept(a), &[NodeId(5), NodeId(9)]);
        assert_eq!(t.covered(a), &[NodeId(7)]);
    }

    #[test]
    fn labels_and_call_icons() {
        let mut names = NameTable::new();
        let g = names.proc("g");
        let f = names.file("file2.c");
        let mut t = ViewTree::default();
        let top = t.add_root(ViewScope::ProcTop { proc: g });
        assert_eq!(t.label(top, &names), "g");
        assert!(!t.scope(top).is_call());
        let cs = t.add_child(
            top,
            ViewScope::CallSite {
                callee: g,
                loc: Some(SourceLoc::new(f, 3)),
            },
        );
        assert!(t.scope(cs).is_call());
        let lp = t.add_child(
            top,
            ViewScope::Loop {
                header: SourceLoc::new(f, 8),
            },
        );
        assert_eq!(t.label(lp, &names), "loop at file2.c:8");
    }

    #[test]
    fn generation_bumps_on_structure() {
        let mut t = ViewTree::default();
        let g0 = t.generation();
        let a = t.add_root(ViewScope::Procedure { proc: ProcId(0) });
        let g1 = t.generation();
        assert!(g1 > g0, "add_root must bump the generation");
        t.add_child(
            a,
            ViewScope::Loop {
                header: SourceLoc::new(FileId(0), 4),
            },
        );
        assert!(t.generation() > g1, "add_child must bump the generation");
    }

    #[test]
    fn sort_cache_hits_and_invalidation() {
        let mut cache = SortCache::new();
        let key = SortKey::Column {
            column: ColumnId(0),
            dir: SortDir::Descending,
        };
        assert_eq!(cache.lookup(3, key, 10), None);
        cache.insert(3, key, 10, vec![2, 0, 1]);
        assert_eq!(cache.lookup(3, key, 10), Some(&[2, 0, 1][..]));
        // Stale generation misses; by-name entry is a distinct key.
        assert_eq!(cache.lookup(3, key, 11), None);
        assert_eq!(cache.lookup(3, SortKey::Name, 10), None);
        let (hits, full_sorts) = cache.stats();
        assert_eq!((hits, full_sorts), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn label_cache_fills_once() {
        let mut labels = LabelCache::new();
        let mut fills = 0;
        labels.ensure(5, |buf| {
            fills += 1;
            buf.push_str("main");
        });
        labels.ensure(5, |buf| {
            fills += 1;
            buf.push_str("never");
        });
        assert_eq!(fills, 1);
        assert_eq!(labels.peek(5), "main");
        assert_eq!(labels.peek(2), "", "unfilled slots read as empty");
        assert_eq!(labels.get(1, |b| b.push('g')), "g");
    }
}
