//! The canonical calling context tree (CCT).
//!
//! This is the central data structure of the paper: a fusion of dynamic
//! calling contexts (`<call site, callee>` chains collected by the sampler)
//! with static program structure (loops, inlined frames, statements)
//! recovered from the binary. The Calling Context View presents this tree
//! directly; the Callers View and Flat View are derived from it
//! (`crate::callers`, `crate::flat`).
//!
//! Storage is a flat arena with two backings behind one API:
//!
//! * **Owned** — one contiguous `Vec` of nodes, each storing `parent`,
//!   `first_child`, `last_child` and `next_sibling` indices plus its
//!   [`ScopeKind`]. This is what profile correlation builds.
//! * **Mapped** — a zero-copy [`MappedTopology`] view borrowing the
//!   same arrays straight out of a format-v2.1 database image
//!   (structure-of-arrays: three `u32` link arrays, a tag byte and six
//!   `u32` payload fields per node). Opening a million-node database
//!   costs no per-node decoding; the first *mutation* materializes the
//!   owned arena (copy-on-write).
//!
//! Child order is insertion order and is preserved by every traversal,
//! which keeps golden tests deterministic. Traversals over mapped
//! topologies carry step budgets so a corrupt image can produce a wrong
//! tree but never an unbounded walk.

use crate::ids::NodeId;
use crate::mapped::MappedTopology;
use crate::names::NameTable;
use crate::scope::{ScopeKind, StaticKey};

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    kind: ScopeKind,
    parent: u32,
    first_child: u32,
    last_child: u32,
    next_sibling: u32,
}

/// The arena backing: owned nodes or a borrowed database image.
#[derive(Debug, Clone)]
enum NodeStore {
    Owned(Vec<Node>),
    Mapped(MappedTopology),
}

/// A canonical calling context tree plus the name tables its scopes
/// reference.
#[derive(Debug, Clone)]
pub struct Cct {
    store: NodeStore,
    /// Name tables the scopes reference.
    pub names: NameTable,
}

impl Cct {
    /// Create a CCT containing only the synthetic root scope.
    pub fn new(names: NameTable) -> Self {
        Cct {
            store: NodeStore::Owned(vec![Node {
                kind: ScopeKind::Root,
                parent: NONE,
                first_child: NONE,
                last_child: NONE,
                next_sibling: NONE,
            }]),
            names,
        }
    }

    /// Wrap a validated zero-copy topology view (format v2.1): no
    /// per-node decoding happens here, so this is O(1) regardless of
    /// tree size. The tree is read-only until the first mutation, which
    /// silently materializes an owned arena.
    pub fn from_mapped(names: NameTable, topo: MappedTopology) -> Self {
        Cct {
            store: NodeStore::Mapped(topo),
            names,
        }
    }

    /// True while the tree is still backed by a borrowed database image.
    pub fn is_mapped(&self) -> bool {
        matches!(self.store, NodeStore::Mapped(_))
    }

    /// The synthetic root node.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of nodes (including the root).
    pub fn len(&self) -> usize {
        match &self.store {
            NodeStore::Owned(nodes) => nodes.len(),
            NodeStore::Mapped(topo) => topo.len(),
        }
    }

    /// Always false: a CCT contains at least its root.
    pub fn is_empty(&self) -> bool {
        // A CCT always contains its root.
        false
    }

    #[inline]
    fn parent_raw(&self, i: u32) -> u32 {
        match &self.store {
            NodeStore::Owned(nodes) => nodes[i as usize].parent,
            NodeStore::Mapped(topo) => topo.parent(i as usize),
        }
    }

    #[inline]
    fn first_child_raw(&self, i: u32) -> u32 {
        match &self.store {
            NodeStore::Owned(nodes) => nodes[i as usize].first_child,
            NodeStore::Mapped(topo) => topo.first_child(i as usize),
        }
    }

    #[inline]
    fn next_sibling_raw(&self, i: u32) -> u32 {
        match &self.store {
            NodeStore::Owned(nodes) => nodes[i as usize].next_sibling,
            NodeStore::Mapped(topo) => topo.next_sibling(i as usize),
        }
    }

    /// Copy a mapped topology into the owned arena so it can be
    /// mutated; no-op when already owned. `last_child` is recomputed by
    /// walking each sibling chain (the mapped form does not store it).
    fn make_owned(&mut self) {
        if let NodeStore::Mapped(topo) = &self.store {
            let n = topo.len();
            let mut nodes: Vec<Node> = (0..n)
                .map(|i| Node {
                    kind: topo.kind(i),
                    parent: topo.parent(i),
                    first_child: topo.first_child(i),
                    last_child: NONE,
                    next_sibling: topo.next_sibling(i),
                })
                .collect();
            for i in 0..n {
                let mut cur = nodes[i].first_child;
                let mut last = NONE;
                let mut budget = n;
                while cur != NONE && budget > 0 {
                    last = cur;
                    cur = nodes[cur as usize].next_sibling;
                    budget -= 1;
                }
                nodes[i].last_child = last;
            }
            self.store = NodeStore::Owned(nodes);
        }
    }

    /// Append a child scope under `parent`, returning its id. Children keep
    /// insertion order.
    pub fn add_child(&mut self, parent: NodeId, kind: ScopeKind) -> NodeId {
        self.make_owned();
        let NodeStore::Owned(nodes) = &mut self.store else {
            unreachable!("make_owned() materialized above");
        };
        let id = u32::try_from(nodes.len()).expect("CCT node overflow");
        nodes.push(Node {
            kind,
            parent: parent.0,
            first_child: NONE,
            last_child: NONE,
            next_sibling: NONE,
        });
        let p = &mut nodes[parent.index()];
        if p.first_child == NONE {
            p.first_child = id;
        } else {
            let last = p.last_child;
            nodes[last as usize].next_sibling = id;
        }
        nodes[parent.index()].last_child = id;
        NodeId(id)
    }

    /// Find an existing child of `parent` with exactly this `kind`, or add
    /// one. This is the primitive profile-merging operation: two samples
    /// that share a calling-context prefix share CCT nodes.
    pub fn find_or_add_child(&mut self, parent: NodeId, kind: ScopeKind) -> NodeId {
        self.find_or_add_child_tracked(parent, kind).0
    }

    /// [`Self::find_or_add_child`], also reporting whether the child was
    /// newly created. Journal-pruning merges need the distinction: only
    /// first-appearance edges have to be replayed to reconstruct a CCT,
    /// so repeat visits can be dropped at record time.
    pub fn find_or_add_child_tracked(&mut self, parent: NodeId, kind: ScopeKind) -> (NodeId, bool) {
        let mut cur = self.first_child_raw(parent.0);
        while cur != NONE {
            if self.kind(NodeId(cur)) == kind {
                return (NodeId(cur), false);
            }
            cur = self.next_sibling_raw(cur);
        }
        (self.add_child(parent, kind), true)
    }

    /// Scope kind of node `n`. Returned by value (`ScopeKind` is `Copy`):
    /// the mapped backing decodes it from the image on the fly, so there
    /// is no stored `ScopeKind` to borrow.
    #[inline]
    pub fn kind(&self, n: NodeId) -> ScopeKind {
        match &self.store {
            NodeStore::Owned(nodes) => nodes[n.index()].kind,
            NodeStore::Mapped(topo) => topo.kind(n.index()),
        }
    }

    /// Parent of `n` (`None` for the root).
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        let p = self.parent_raw(n.0);
        (p != NONE).then_some(NodeId(p))
    }

    /// Iterate the children of `n` in insertion order.
    pub fn children(&self, n: NodeId) -> Children<'_> {
        Children {
            cct: self,
            cur: self.first_child_raw(n.0),
            remaining: self.len(),
        }
    }

    /// Number of children of `n`.
    pub fn child_count(&self, n: NodeId) -> usize {
        self.children(n).count()
    }

    /// True when `n` has no children.
    pub fn is_leaf(&self, n: NodeId) -> bool {
        self.first_child_raw(n.0) == NONE
    }

    /// Iterate proper ancestors of `n`, innermost first, ending at the root.
    pub fn ancestors(&self, n: NodeId) -> Ancestors<'_> {
        Ancestors {
            cct: self,
            cur: self.parent_raw(n.0),
            remaining: self.len(),
        }
    }

    /// Pre-order traversal of the subtree rooted at `n` (including `n`).
    ///
    /// Allocation-free: instead of keeping an explicit stack it follows
    /// `first_child`, then `next_sibling`, climbing `parent` links back
    /// to the subtree root — O(1) state for any tree size.
    pub fn preorder(&self, n: NodeId) -> Preorder<'_> {
        Preorder {
            cct: self,
            start: n.0,
            cur: n.0,
            remaining: self.len(),
        }
    }

    /// Depth-first walk of the whole tree: `visit(n, true)` when `n` is
    /// entered, `visit(n, false)` when its subtree is done, so a visitor
    /// can keep per-path state (what is on the call stack) in counters.
    /// Allocation-free like [`Cct::preorder`], and under the same kind of
    /// step budget: a corrupt mapped image, whose links need not agree with
    /// one another, can make the walk stop early or leave a node it never
    /// entered, but not run on.
    pub fn walk(&self, mut visit: impl FnMut(NodeId, bool)) {
        let mut budget = 2 * self.len();
        let mut cur = self.root().0;
        visit(NodeId(cur), true);
        loop {
            let fc = self.first_child_raw(cur);
            if fc != NONE && budget > 0 {
                budget -= 1;
                cur = fc;
                visit(NodeId(cur), true);
                continue;
            }
            // `cur`'s subtree is done: leave it, and every ancestor it was
            // the last child of, until a sibling is left to enter.
            loop {
                visit(NodeId(cur), false);
                if cur == self.root().0 || budget == 0 {
                    return;
                }
                budget -= 1;
                let next = self.next_sibling_raw(cur);
                if next != NONE {
                    cur = next;
                    visit(NodeId(cur), true);
                    break;
                }
                match self.parent_raw(cur) {
                    NONE => return,
                    parent => cur = parent,
                }
            }
        }
    }

    /// All node ids, in arena order. Arena order is a valid topological
    /// order (parents precede children) because children are always
    /// appended after their parent.
    pub fn all_nodes(&self) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        (0..self.len() as u32).map(NodeId)
    }

    /// Depth of `n`: the root has depth 0.
    pub fn depth(&self, n: NodeId) -> usize {
        self.ancestors(n).count()
    }

    /// The nearest enclosing *dynamic* procedure frame of `n` (or `n`
    /// itself if it is one). Loops and statements always live inside some
    /// frame; the root has no frame.
    pub fn enclosing_frame(&self, n: NodeId) -> Option<NodeId> {
        if matches!(self.kind(n), ScopeKind::Frame { .. }) {
            return Some(n);
        }
        self.ancestors(n)
            .find(|&a| matches!(self.kind(a), ScopeKind::Frame { .. }))
    }

    /// The nearest enclosing frame-like scope (dynamic frame *or* inlined
    /// frame); used for attribution rule 1, which stops at any frame
    /// boundary.
    pub fn enclosing_frame_like(&self, n: NodeId) -> Option<NodeId> {
        if self.kind(n).is_frame() {
            return Some(n);
        }
        self.ancestors(n).find(|&a| self.kind(a).is_frame())
    }

    /// The caller frame of a frame node: the nearest ancestor that is a
    /// dynamic frame.
    pub fn caller_frame(&self, frame: NodeId) -> Option<NodeId> {
        self.ancestors(frame)
            .find(|&a| matches!(self.kind(a), ScopeKind::Frame { .. }))
    }

    /// The static object this node is an instance of, used for exposure
    /// analysis and Flat-View aggregation. Loops and statements are
    /// qualified by the procedure of their enclosing frame-like scope so
    /// that identical line numbers in different procedures stay distinct.
    pub fn static_key(&self, n: NodeId) -> StaticKey {
        match self.kind(n) {
            ScopeKind::Root => StaticKey::Root,
            ScopeKind::Frame { proc, .. } => StaticKey::Proc(proc),
            ScopeKind::InlinedFrame {
                proc, call_site, ..
            } => {
                let host = self
                    .parent(n)
                    .and_then(|p| self.enclosing_frame_host_proc(p))
                    .expect("inlined frame must be nested in a frame");
                StaticKey::InlinedProc {
                    host,
                    callee: proc,
                    call_site,
                }
            }
            ScopeKind::Loop { header } => {
                let proc = self
                    .parent(n)
                    .and_then(|p| self.enclosing_frame_host_proc(p))
                    .expect("loop must be nested in a frame");
                StaticKey::Loop { proc, header }
            }
            ScopeKind::Stmt { loc } => {
                let proc = self
                    .parent(n)
                    .and_then(|p| self.enclosing_frame_host_proc(p))
                    .expect("statement must be nested in a frame");
                StaticKey::Stmt { proc, loc }
            }
        }
    }

    /// The procedure owning the innermost frame-like scope at or above `n`.
    fn enclosing_frame_host_proc(&self, n: NodeId) -> Option<crate::ids::ProcId> {
        self.enclosing_frame_like(n)
            .and_then(|f| self.kind(f).frame_proc())
    }

    /// Structural sanity checks; used by tests and debug assertions.
    ///
    /// Verifies that the root is unique, that every non-root node has a
    /// parent chain ending at the root, and that loops/statements are nested
    /// inside frames.
    pub fn validate(&self) -> Result<(), String> {
        for n in self.all_nodes() {
            match self.kind(n) {
                ScopeKind::Root => {
                    if n != self.root() {
                        return Err(format!("non-root node {n:?} has Root kind"));
                    }
                }
                ScopeKind::Loop { .. }
                | ScopeKind::Stmt { .. }
                | ScopeKind::InlinedFrame { .. } => {
                    if self.enclosing_frame_like(n).is_none()
                        || self
                            .parent(n)
                            .and_then(|p| self.enclosing_frame_host_proc(p))
                            .is_none()
                    {
                        return Err(format!("{:?} not nested inside a frame", self.kind(n)));
                    }
                }
                ScopeKind::Frame { .. } => {}
            }
            // Parent chain must terminate (guaranteed by arena construction:
            // parents always have smaller indices).
            if let Some(p) = self.parent(n) {
                if p.index() >= n.index() {
                    return Err(format!("parent {p:?} does not precede child {n:?}"));
                }
            } else if n != self.root() {
                return Err(format!("orphan node {n:?}"));
            }
        }
        Ok(())
    }

    /// Human-readable dump of the subtree at `n` (for tests and debugging).
    pub fn dump(&self, n: NodeId) -> String {
        let mut out = String::new();
        self.dump_into(n, 0, &mut out);
        out
    }

    fn dump_into(&self, n: NodeId, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.kind(n).label(&self.names));
        out.push('\n');
        for c in self.children(n) {
            self.dump_into(c, depth + 1, out);
        }
    }
}

/// Iterator over the children of a node.
pub struct Children<'a> {
    cct: &'a Cct,
    cur: u32,
    /// Step budget (node count): terminates even on a corrupt mapped
    /// image whose sibling links form a cycle.
    remaining: usize,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.cur == NONE || self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let id = NodeId(self.cur);
        self.cur = self.cct.next_sibling_raw(self.cur);
        Some(id)
    }
}

/// Iterator over proper ancestors, innermost first.
pub struct Ancestors<'a> {
    cct: &'a Cct,
    cur: u32,
    /// Step budget (node count): terminates even on a corrupt mapped
    /// image whose parent links form a cycle.
    remaining: usize,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.cur == NONE || self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let id = NodeId(self.cur);
        self.cur = self.cct.parent_raw(self.cur);
        Some(id)
    }
}

/// Pre-order subtree traversal (allocation-free; see [`Cct::preorder`]).
pub struct Preorder<'a> {
    cct: &'a Cct,
    start: u32,
    cur: u32,
    /// Step budget (node count): terminates even on a corrupt mapped
    /// image whose links form a cycle.
    remaining: usize,
}

impl Iterator for Preorder<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.cur == NONE || self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let out = self.cur;
        // Advance: descend to the first child if there is one; otherwise
        // take the next sibling, climbing parents (never past the
        // subtree root) until one exists.
        let fc = self.cct.first_child_raw(out);
        if fc != NONE {
            self.cur = fc;
        } else {
            let mut x = out;
            loop {
                if x == self.start {
                    self.cur = NONE;
                    break;
                }
                let ns = self.cct.next_sibling_raw(x);
                if ns != NONE {
                    self.cur = ns;
                    break;
                }
                match self.cct.parent_raw(x) {
                    NONE => {
                        self.cur = NONE;
                        break;
                    }
                    p => x = p,
                }
            }
        }
        Some(NodeId(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FileId, LoadModuleId, ProcId};
    use crate::names::SourceLoc;

    fn frame(proc: u32) -> ScopeKind {
        ScopeKind::Frame {
            proc: ProcId(proc),
            module: LoadModuleId(0),
            def: SourceLoc::new(FileId(0), 1),
            call_site: Some(SourceLoc::new(FileId(0), 2)),
        }
    }

    fn stmt(line: u32) -> ScopeKind {
        ScopeKind::Stmt {
            loc: SourceLoc::new(FileId(0), line),
        }
    }

    fn small_tree() -> (Cct, NodeId, NodeId, NodeId) {
        let mut cct = Cct::new(NameTable::new());
        let root = cct.root();
        let a = cct.add_child(root, frame(0));
        let b = cct.add_child(a, frame(1));
        let s = cct.add_child(b, stmt(5));
        (cct, a, b, s)
    }

    #[test]
    fn children_preserve_insertion_order() {
        let mut cct = Cct::new(NameTable::new());
        let root = cct.root();
        let ids: Vec<NodeId> = (0..5).map(|i| cct.add_child(root, frame(i))).collect();
        let got: Vec<NodeId> = cct.children(root).collect();
        assert_eq!(got, ids);
        assert_eq!(cct.child_count(root), 5);
    }

    #[test]
    fn find_or_add_deduplicates() {
        let mut cct = Cct::new(NameTable::new());
        let root = cct.root();
        let a = cct.find_or_add_child(root, frame(0));
        let b = cct.find_or_add_child(root, frame(0));
        assert_eq!(a, b);
        let c = cct.find_or_add_child(root, frame(1));
        assert_ne!(a, c);
        assert_eq!(cct.len(), 3);
    }

    #[test]
    fn ancestors_innermost_first() {
        let (cct, a, b, s) = small_tree();
        let chain: Vec<NodeId> = cct.ancestors(s).collect();
        assert_eq!(chain, vec![b, a, cct.root()]);
        assert_eq!(cct.depth(s), 3);
        assert_eq!(cct.depth(cct.root()), 0);
    }

    #[test]
    fn enclosing_frame_skips_static_scopes() {
        let mut cct = Cct::new(NameTable::new());
        let root = cct.root();
        let f = cct.add_child(root, frame(0));
        let l = cct.add_child(
            f,
            ScopeKind::Loop {
                header: SourceLoc::new(FileId(0), 8),
            },
        );
        let s = cct.add_child(l, stmt(9));
        assert_eq!(cct.enclosing_frame(s), Some(f));
        assert_eq!(cct.enclosing_frame(l), Some(f));
        assert_eq!(cct.enclosing_frame(f), Some(f));
        assert_eq!(cct.enclosing_frame(root), None);
    }

    #[test]
    fn static_keys_qualified_by_proc() {
        let mut cct = Cct::new(NameTable::new());
        let root = cct.root();
        let f0 = cct.add_child(root, frame(0));
        let f1 = cct.add_child(f0, frame(1));
        let s0 = cct.add_child(f0, stmt(5));
        let s1 = cct.add_child(f1, stmt(5));
        assert_ne!(cct.static_key(s0), cct.static_key(s1));
        assert_eq!(cct.static_key(f0), StaticKey::Proc(ProcId(0)));
    }

    #[test]
    fn preorder_visits_subtree_in_order() {
        let mut cct = Cct::new(NameTable::new());
        let root = cct.root();
        let a = cct.add_child(root, frame(0));
        let b = cct.add_child(a, frame(1));
        let c = cct.add_child(a, frame(2));
        let d = cct.add_child(b, frame(3));
        let order: Vec<NodeId> = cct.preorder(root).collect();
        assert_eq!(order, vec![root, a, b, d, c]);
        let sub: Vec<NodeId> = cct.preorder(b).collect();
        assert_eq!(sub, vec![b, d]);
    }

    #[test]
    fn walk_enters_in_preorder_and_leaves_each_subtree_once() {
        let mut cct = Cct::new(NameTable::new());
        let root = cct.root();
        let a = cct.add_child(root, frame(0));
        let b = cct.add_child(a, frame(1));
        let c = cct.add_child(a, frame(2));
        let d = cct.add_child(b, frame(3));
        let mut events = Vec::new();
        cct.walk(|n, entering| events.push((n, entering)));
        let enter = |n| (n, true);
        let leave = |n| (n, false);
        let want = [
            enter(root),
            enter(a),
            enter(b),
            enter(d),
            leave(d),
            leave(b),
            enter(c),
            leave(c),
            leave(a),
            leave(root),
        ];
        assert_eq!(events, want);
        let mut bare = Vec::new();
        Cct::new(NameTable::new()).walk(|n, entering| bare.push((n, entering)));
        assert_eq!(bare, [enter(root), leave(root)]);
    }

    #[test]
    fn preorder_of_leaf_is_just_the_leaf() {
        let (cct, _, _, s) = small_tree();
        let only: Vec<NodeId> = cct.preorder(s).collect();
        assert_eq!(only, vec![s]);
    }

    #[test]
    fn validate_accepts_well_formed() {
        let (cct, ..) = small_tree();
        assert!(cct.validate().is_ok());
    }

    #[test]
    fn validate_rejects_orphan_static_scope() {
        let mut cct = Cct::new(NameTable::new());
        let root = cct.root();
        cct.add_child(root, stmt(5)); // statement directly under root
        assert!(cct.validate().is_err());
    }

    #[test]
    fn dump_is_indented() {
        let mut cct = Cct::new(NameTable::new());
        let p = cct.names.proc("main");
        let module = cct.names.module("a.out");
        let file = cct.names.file("m.c");
        let root = cct.root();
        let f = cct.add_child(
            root,
            ScopeKind::Frame {
                proc: p,
                module,
                def: SourceLoc::new(file, 1),
                call_site: None,
            },
        );
        let _ = f;
        let text = cct.dump(root);
        assert!(text.contains("<program root>"));
        assert!(text.contains("  main"));
    }
}
