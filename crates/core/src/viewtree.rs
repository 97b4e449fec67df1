//! Arena tree for derived presentation views (Callers View, Flat View).
//!
//! Unlike the canonical CCT, whose nodes are *instances* (one node per
//! calling context), a view node *aggregates* a set of CCT instances; the
//! set is kept on the node so that lazy expansion and recursion-correct
//! (set-exposed) metric aggregation can be computed on demand —
//! `ViewTree::fill` is the one routine that does it, for both views.

use crate::attribution::frame_direct;
use crate::derived::SliceContext;
use crate::experiment::Experiment;
use crate::exposure::{exposed, plain_sum};
use crate::ids::{ColumnId, FileId, LoadModuleId, MetricId, NodeId, ProcId, ViewNodeId};
use crate::metrics::ColumnSet;
use crate::names::{NameTable, SourceLoc};
use std::collections::HashMap;

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
    /// CCT instances this node aggregates.
    instances: Vec<NodeId>,
    /// Lazy views: whether children have been materialized yet.
    expanded: bool,
}

/// Where [`ViewTree::fill`] takes a node's exclusive value from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Exclusive {
    /// Set-exposed sum of the instances' Eq. 1 exclusive costs.
    Instances,
    /// Set-exposed sum of the instances' frame-direct costs: the Flat
    /// View's call-site rows (`hy = (4,0)` in Fig. 2c).
    FrameDirect,
    /// Sum of the children's exclusive values: the Flat View's files and
    /// modules (`file2.e = gx.e + hx.e = 8` in Fig. 2c).
    Children,
}

/// A forest of view nodes plus their metric columns.
#[derive(Debug, Clone, Default)]
pub struct ViewTree {
    nodes: Vec<ViewNode>,
    roots: Vec<u32>,
    /// Metric columns indexed by view node id.
    pub columns: ColumnSet,
    /// Structural mutation counter (node additions). See
    /// [`ViewTree::generation`].
    structure_generation: u64,
}

impl ViewTree {
    /// An empty forest.
    pub fn new() -> Self {
        ViewTree::default()
    }

    /// Generation stamp covering **both** structure (lazy expansion
    /// materializing children) and column values (metric fills, appended
    /// summary columns). Each component is monotone non-decreasing, so
    /// their sum is too: any mutation makes a previously observed stamp
    /// stale, which is exactly what [`SortCache`] needs.
    pub fn generation(&self) -> u64 {
        self.structure_generation + self.columns.generation()
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

    /// Append a new top-level node.
    pub fn add_root(&mut self, scope: ViewScope) -> ViewNodeId {
        let id = u32::try_from(self.nodes.len()).expect("view tree overflow");
        self.nodes.push(ViewNode {
            scope,
            parent: NONE,
            first_child: NONE,
            last_child: NONE,
            next_sibling: NONE,
            instances: Vec::new(),
            expanded: false,
        });
        self.roots.push(id);
        self.structure_generation += 1;
        ViewNodeId(id)
    }

    /// Append a child under `parent` (insertion order preserved).
    pub fn add_child(&mut self, parent: ViewNodeId, scope: ViewScope) -> ViewNodeId {
        let id = u32::try_from(self.nodes.len()).expect("view tree overflow");
        self.nodes.push(ViewNode {
            scope,
            parent: parent.0,
            first_child: NONE,
            last_child: NONE,
            next_sibling: NONE,
            instances: Vec::new(),
            expanded: false,
        });
        let p = &mut self.nodes[parent.index()];
        if p.first_child == NONE {
            p.first_child = id;
        } else {
            let last = p.last_child;
            self.nodes[last as usize].next_sibling = id;
        }
        self.nodes[parent.index()].last_child = id;
        self.structure_generation += 1;
        ViewNodeId(id)
    }

    /// Find a child of `parent` with this exact scope, or create it.
    pub fn find_or_add_child(&mut self, parent: ViewNodeId, scope: ViewScope) -> ViewNodeId {
        let mut cur = self.nodes[parent.index()].first_child;
        while cur != NONE {
            if self.nodes[cur as usize].scope == scope {
                return ViewNodeId(cur);
            }
            cur = self.nodes[cur as usize].next_sibling;
        }
        self.add_child(parent, scope)
    }

    /// Find a root with this exact scope, or create it.
    pub fn find_or_add_root(&mut self, scope: ViewScope) -> ViewNodeId {
        if let Some(&r) = self
            .roots
            .iter()
            .find(|&&r| self.nodes[r as usize].scope == scope)
        {
            return ViewNodeId(r);
        }
        self.add_root(scope)
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
        let mut out = Vec::new();
        let mut cur = self.nodes[n.index()].first_child;
        while cur != NONE {
            out.push(ViewNodeId(cur));
            cur = self.nodes[cur as usize].next_sibling;
        }
        out
    }

    /// True when `n` has at least one materialized child.
    pub fn has_children(&self, n: ViewNodeId) -> bool {
        self.nodes[n.index()].first_child != NONE
    }

    /// Record that `n` aggregates the CCT instance `inst`.
    pub fn push_instance(&mut self, n: ViewNodeId, inst: NodeId) {
        self.nodes[n.index()].instances.push(inst);
    }

    /// The CCT instances node `n` aggregates.
    pub fn instances(&self, n: ViewNodeId) -> &[NodeId] {
        &self.nodes[n.index()].instances
    }

    /// Lazy views: whether `n`'s children have been materialized.
    pub fn is_expanded(&self, n: ViewNodeId) -> bool {
        self.nodes[n.index()].expanded
    }

    /// Mark `n`'s children as materialized.
    pub fn mark_expanded(&mut self, n: ViewNodeId) {
        self.nodes[n.index()].expanded = true;
    }

    /// Compute node `v`'s column values from the CCT instances it
    /// aggregates and write the non-zero ones. Attributed values are read
    /// from `exp.columns` — faulting a lazily opened database's columns in
    /// on first touch — and nowhere else: the inclusive value is the
    /// set-exposed sum of the instances' inclusive costs (Section IV-B),
    /// the exclusive value what `exclusive` says, and derived columns
    /// their formulas over those sums.
    pub(crate) fn fill(&mut self, exp: &Experiment, v: ViewNodeId, exclusive: Exclusive) {
        let keep = exposed(&exp.cct, self.instances(v));
        let children = match exclusive {
            Exclusive::Children => self.children(v),
            _ => Vec::new(),
        };
        let mut row = vec![0.0; self.columns.column_count()];
        for mi in 0..exp.raw.metric_count() {
            let m = MetricId::from_usize(mi);
            let (ci, ce) = (exp.inclusive_col(m), exp.exclusive_col(m));
            row[ci.index()] = plain_sum(&keep, exp.columns.vec(ci));
            row[ce.index()] = match exclusive {
                Exclusive::Instances => plain_sum(&keep, exp.columns.vec(ce)),
                Exclusive::FrameDirect => {
                    let direct = exp.raw.column(m);
                    keep.iter()
                        .map(|&i| frame_direct(&exp.cct, direct, i))
                        .sum()
                }
                Exclusive::Children => children.iter().map(|c| self.columns.get(ce, c.0)).sum(),
            };
        }
        for (c, expr) in exp.derived_formulas() {
            row[c.index()] = expr.eval(&SliceContext {
                columns: &row,
                aggregates: exp.aggregates(),
            });
        }
        for (c, &value) in row.iter().enumerate() {
            if value != 0.0 {
                self.columns.set(ColumnId::from_usize(c), v.0, value);
            }
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

    /// Approximate heap footprint, for the lazy-vs-eager ablation bench.
    pub fn heap_bytes(&self) -> usize {
        let nodes = self.nodes.capacity() * std::mem::size_of::<ViewNode>();
        let instances: usize = self
            .nodes
            .iter()
            .map(|n| n.instances.capacity() * std::mem::size_of::<NodeId>())
            .sum();
        nodes + instances + self.columns.heap_bytes()
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
/// top-level list.
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
/// generation, and stamping afterward keeps the entry valid).
#[derive(Debug, Default)]
pub struct SortCache {
    entries: HashMap<(u64, SortKey), CachedOrder>,
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
        match self.entries.get(&(slot, key)) {
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
            .insert((slot, key), CachedOrder { generation, order });
    }

    /// `(hits, full_sorts)` since construction (or the last
    /// [`SortCache::reset_stats`]). The acceptance test for "re-sorting a
    /// built view performs zero full-child sorts" watches `full_sorts`.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.full_sorts)
    }

    /// Zero the hit/full-sort counters (entries are kept).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.full_sorts = 0;
    }

    /// Number of cached orderings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
        let mut t = ViewTree::new();
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
    fn find_or_add_deduplicates_children_and_roots() {
        let mut t = ViewTree::new();
        let r1 = t.find_or_add_root(ViewScope::Module {
            module: LoadModuleId(0),
        });
        let r2 = t.find_or_add_root(ViewScope::Module {
            module: LoadModuleId(0),
        });
        assert_eq!(r1, r2);
        let c1 = t.find_or_add_child(r1, ViewScope::File { file: FileId(3) });
        let c2 = t.find_or_add_child(r1, ViewScope::File { file: FileId(3) });
        assert_eq!(c1, c2);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn instances_accumulate() {
        let mut t = ViewTree::new();
        let a = t.add_root(ViewScope::Procedure { proc: ProcId(0) });
        t.push_instance(a, NodeId(5));
        t.push_instance(a, NodeId(9));
        assert_eq!(t.instances(a), &[NodeId(5), NodeId(9)]);
    }

    #[test]
    fn labels_and_call_icons() {
        let mut names = NameTable::new();
        let g = names.proc("g");
        let f = names.file("file2.c");
        let mut t = ViewTree::new();
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
    fn generation_bumps_on_structure_and_columns() {
        let mut t = ViewTree::new();
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
        let g2 = t.generation();
        assert!(g2 > g1, "add_child must bump the generation");
        let c = t.columns.add_column(crate::metrics::ColumnDesc {
            name: "x".into(),
            flavor: crate::metrics::ColumnFlavor::Inclusive(crate::ids::MetricId(0)),
            visible: true,
        });
        assert!(
            t.generation() > g2,
            "column append must bump the generation"
        );
        let g3 = t.generation();
        t.columns.set(c, a.0, 7.0);
        assert!(t.generation() > g3, "column write must bump the generation");
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
        cache.reset_stats();
        assert_eq!(cache.stats(), (0, 0));
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
