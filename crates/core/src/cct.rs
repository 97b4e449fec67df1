//! The canonical calling context tree (CCT).
//!
//! This is the central data structure of the paper: a fusion of dynamic
//! calling contexts (`<call site, callee>` chains collected by the sampler)
//! with static program structure (loops, inlined frames, statements)
//! recovered from the binary. The Calling Context View presents this tree
//! directly; the Callers View and Flat View are derived from it
//! (`crate::callers`, `crate::flat`).
//!
//! Storage is one structure-of-arrays layout ([`crate::topo`]: three `u32`
//! link arrays, a tag byte and six `u32` fields per node) with two
//! backings:
//!
//! * **Owned** — an arena of `Vec`s holding those arrays, plus each
//!   node's last child for appends. This is what profile correlation
//!   builds.
//! * **Mapped** — a zero-copy [`MappedTopology`] borrowing the same
//!   arrays straight out of a format-v2.1 database image. Opening a
//!   million-node database costs no per-node decoding; the first
//!   *mutation* copies the arrays into an owned arena (copy-on-write).
//!
//! Kernels read either backing through one borrowed [`Topo`], taken once
//! per call ([`Cct::topo`]); the per-node methods below are for cold
//! callers, and each derives only the array it reads.
//!
//! Child order is insertion order and is preserved by every traversal,
//! which keeps golden tests deterministic. Traversals carry step budgets
//! so a corrupt image can produce a wrong tree but never an unbounded
//! walk.

use crate::ids::NodeId;
use crate::mapped::MappedTopology;
use crate::names::NameTable;
use crate::scope::ScopeKind;
use crate::topo::{decode_kind, encode_kind, link, tags, Topo, LINK_NONE, UNCLAMPED};
pub use crate::topo::{Ancestors, Children};

const NONE: u32 = LINK_NONE;

/// The owned backing: the layout's arrays, plus each node's last child
/// so that an append does not walk the sibling chain.
#[derive(Debug, Clone, Default)]
struct Arena {
    parent: Vec<u32>,
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
    last_child: Vec<u32>,
    tags: Vec<u8>,
    fields: Vec<u32>,
}

impl Arena {
    #[inline]
    fn topo(&self) -> Topo<'_> {
        Topo::new(
            [&self.parent, &self.first_child, &self.next_sibling],
            &self.tags,
            &self.fields,
            UNCLAMPED,
        )
    }

    /// Append `(tag, fields)` as the last child of `parent` (`NONE` for
    /// the root).
    fn push(&mut self, parent: u32, (tag, fields): (u8, [u32; tags::N_FIELDS])) -> NodeId {
        let id = u32::try_from(self.tags.len())
            .ok()
            .filter(|&id| id != NONE)
            .expect("CCT node overflow");
        self.parent.push(parent);
        self.first_child.push(NONE);
        self.next_sibling.push(NONE);
        self.last_child.push(NONE);
        self.tags.push(tag);
        self.fields.extend_from_slice(&fields);
        if parent != NONE {
            let p = parent as usize;
            match self.last_child[p] {
                NONE => self.first_child[p] = id,
                last => self.next_sibling[last as usize] = id,
            }
            self.last_child[p] = id;
        }
        NodeId(id)
    }
}

/// The arena backing: owned arrays or a borrowed database image.
#[derive(Debug, Clone)]
enum Store {
    Owned(Arena),
    Mapped(MappedTopology),
}

/// A canonical calling context tree plus the name tables its scopes
/// reference.
#[derive(Debug, Clone)]
pub struct Cct {
    store: Store,
    /// Name tables the scopes reference.
    pub names: NameTable,
}

impl Cct {
    /// Create a CCT containing only the synthetic root scope.
    pub fn new(names: NameTable) -> Self {
        let mut arena = Arena::default();
        arena.push(NONE, encode_kind(&ScopeKind::Root));
        Cct {
            store: Store::Owned(arena),
            names,
        }
    }

    /// Wrap a validated zero-copy topology view (format v2.1): no
    /// per-node decoding happens here, so this is O(1) regardless of
    /// tree size. The tree is read-only until the first mutation, which
    /// silently materializes an owned arena.
    pub fn from_mapped(names: NameTable, topo: MappedTopology) -> Self {
        Cct {
            store: Store::Mapped(topo),
            names,
        }
    }

    /// True while the tree is still backed by a borrowed database image.
    pub fn is_mapped(&self) -> bool {
        matches!(self.store, Store::Mapped(_))
    }

    /// The synthetic root node.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of nodes (including the root).
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Owned(arena) => arena.tags.len(),
            Store::Mapped(mapped) => mapped.len(),
        }
    }

    /// Always false: a CCT contains at least its root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Lend the topology to a kernel: all five arrays, for one lookup of
    /// the image on a mapped tree. Take it once per call, not per node.
    #[inline]
    pub fn topo(&self) -> Topo<'_> {
        match &self.store {
            Store::Owned(arena) => arena.topo(),
            Store::Mapped(mapped) => mapped.topo(),
        }
    }

    #[inline]
    fn parents(&self) -> &[u32] {
        match &self.store {
            Store::Owned(arena) => &arena.parent,
            Store::Mapped(mapped) => mapped.parents(),
        }
    }

    #[inline]
    fn first_children(&self) -> &[u32] {
        match &self.store {
            Store::Owned(arena) => &arena.first_child,
            Store::Mapped(mapped) => mapped.first_children(),
        }
    }

    #[inline]
    fn next_siblings(&self) -> &[u32] {
        match &self.store {
            Store::Owned(arena) => &arena.next_sibling,
            Store::Mapped(mapped) => mapped.next_siblings(),
        }
    }

    /// The owned arena, copying a mapped topology into one first. The
    /// copy reads what [`Topo`] reads: out-of-range link words become
    /// none, and the fields are the canonical form (`Topo::canonical`:
    /// name ids clamped), since an owned arena's are never clamped.
    #[inline]
    fn arena(&mut self) -> &mut Arena {
        if let Store::Mapped(_) = &self.store {
            self.make_owned();
        }
        match &mut self.store {
            Store::Owned(arena) => arena,
            Store::Mapped(_) => unreachable!("copied into an owned arena above"),
        }
    }

    /// The copy of [`Self::arena`]: once per tree, out of the per-node
    /// paths that call it.
    #[cold]
    fn make_owned(&mut self) {
        if let Store::Mapped(mapped) = &self.store {
            let topo = mapped.topo();
            let n = topo.len();
            let links = |words: &[u32]| -> Vec<u32> {
                words
                    .iter()
                    .map(|&w| link(w, n).map_or(NONE, |l| l.0))
                    .collect()
            };
            let nodes = || (0..n as u32).map(NodeId);
            let arena = Arena {
                parent: links(topo.parents()),
                first_child: links(topo.first_children()),
                next_sibling: links(topo.next_siblings()),
                last_child: nodes()
                    .map(|i| topo.children(i).last().map_or(NONE, |c| c.0))
                    .collect(),
                tags: topo.tags().to_vec(),
                fields: nodes().flat_map(|i| topo.canonical(i).1).collect(),
            };
            self.store = Store::Owned(arena);
        }
    }

    /// Append a child scope under `parent`, returning its id. Children keep
    /// insertion order.
    pub fn add_child(&mut self, parent: NodeId, kind: ScopeKind) -> NodeId {
        self.arena().push(parent.0, encode_kind(&kind))
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
        let (tag, fields) = encode_kind(&kind);
        self.find_or_add_encoded(parent, tag, fields)
    }

    /// [`Self::find_or_add_child_tracked`] on the encoded form. Siblings
    /// are compared word for word, so `(tag, fields)` must be canonical
    /// (what [`encode_kind`] or `Topo::canonical` returns); a mapped tree
    /// is copied into an owned arena first.
    #[inline]
    pub(crate) fn find_or_add_encoded(
        &mut self,
        parent: NodeId,
        tag: u8,
        fields: [u32; tags::N_FIELDS],
    ) -> (NodeId, bool) {
        let arena = self.arena();
        // An owned arena's links are in range (a copied image's were
        // sanitized), but a copied image may still carry a sibling cycle:
        // the scan is budgeted like `Topo::children`.
        let mut c = arena.first_child[parent.index()];
        let mut budget = arena.tags.len();
        while c != NONE && budget > 0 {
            budget -= 1;
            let at = c as usize * tags::N_FIELDS;
            if arena.tags[c as usize] == tag && arena.fields[at..at + tags::N_FIELDS] == fields {
                return (NodeId(c), false);
            }
            c = arena.next_sibling[c as usize];
        }
        (arena.push(parent.0, (tag, fields)), true)
    }

    /// Scope kind of node `n`, decoded from its tag and fields. Returned
    /// by value (`ScopeKind` is `Copy`): there is no stored `ScopeKind`
    /// to borrow.
    #[inline]
    pub fn kind(&self, n: NodeId) -> ScopeKind {
        let (tags, fields, limits) = match &self.store {
            Store::Owned(arena) => (&arena.tags[..], &arena.fields[..], UNCLAMPED),
            Store::Mapped(mapped) => (mapped.tags(), mapped.fields(), mapped.limits()),
        };
        let at = n.index() * tags::N_FIELDS;
        decode_kind(tags[n.index()], &fields[at..at + tags::N_FIELDS], limits)
    }

    /// Parent of `n` (`None` for the root).
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        link(self.parents()[n.index()], self.len())
    }

    /// Iterate the children of `n` in insertion order.
    #[inline]
    pub fn children(&self, n: NodeId) -> Children<'_> {
        let first = self.first_children()[n.index()];
        let next_sibling = self.next_siblings();
        Children::new(link(first, next_sibling.len()), next_sibling)
    }

    /// True when `n` has no children.
    #[inline]
    pub fn is_leaf(&self, n: NodeId) -> bool {
        let first_children = self.first_children();
        link(first_children[n.index()], first_children.len()).is_none()
    }

    /// Iterate proper ancestors of `n`, innermost first, ending at the root.
    #[inline]
    pub fn ancestors(&self, n: NodeId) -> Ancestors<'_> {
        let parents = self.parents();
        Ancestors::new(link(parents[n.index()], parents.len()), parents)
    }

    /// Pre-order traversal of the subtree rooted at `n` (including `n`).
    ///
    /// Allocation-free: instead of keeping an explicit stack it follows
    /// `first_child`, then `next_sibling`, climbing `parent` links back
    /// to the subtree root — O(1) state for any tree size.
    pub fn preorder(&self, n: NodeId) -> Preorder<'_> {
        Preorder {
            topo: self.topo(),
            start: n,
            cur: Some(n),
            remaining: self.len(),
        }
    }

    /// Depth-first walk of the whole tree ([`Topo::walk`]).
    pub fn walk(&self, visit: impl FnMut(NodeId, bool)) {
        self.topo().walk(visit)
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
        let topo = self.topo();
        std::iter::once(n)
            .chain(topo.ancestors(n))
            .find(|&a| topo.is_proc_frame(a))
    }

    /// The nearest enclosing frame-like scope (dynamic frame *or* inlined
    /// frame); used for attribution rule 1, which stops at any frame
    /// boundary.
    pub fn enclosing_frame_like(&self, n: NodeId) -> Option<NodeId> {
        self.topo().enclosing_frame_like(n)
    }

    /// The caller frame of a frame node: the nearest ancestor that is a
    /// dynamic frame.
    pub fn caller_frame(&self, frame: NodeId) -> Option<NodeId> {
        self.topo().caller_frame(frame)
    }

    /// Structural sanity checks; used by tests and debug assertions.
    ///
    /// Verifies that the root is unique, that every non-root node has a
    /// parent that precedes it (so every parent chain ends at the root),
    /// and that loops, statements and inlined frames are nested inside
    /// frames.
    pub fn validate(&self) -> Result<(), String> {
        let topo = self.topo();
        for n in self.all_nodes() {
            let parent = topo.parent(n);
            match topo.tag(n) {
                tags::ROOT if n != self.root() => {
                    return Err(format!("non-root node {n:?} has Root kind"));
                }
                tags::LOOP | tags::STMT | tags::INLINED
                    if parent.and_then(|p| topo.enclosing_frame_like(p)).is_none() =>
                {
                    return Err(format!("{:?} not nested inside a frame", topo.kind(n)));
                }
                _ => {}
            }
            match parent {
                Some(p) if p.index() >= n.index() => {
                    return Err(format!("parent {p:?} does not precede child {n:?}"));
                }
                None if n != self.root() => return Err(format!("orphan node {n:?}")),
                _ => {}
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

/// Pre-order subtree traversal (allocation-free; see [`Cct::preorder`]).
pub struct Preorder<'a> {
    topo: Topo<'a>,
    start: NodeId,
    cur: Option<NodeId>,
    /// Step budget (node count): terminates even on a corrupt mapped
    /// image whose links form a cycle.
    remaining: usize,
}

impl Iterator for Preorder<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let out = self.cur.filter(|_| self.remaining > 0)?;
        self.remaining -= 1;
        // Advance: descend to the first child if there is one; otherwise
        // take the next sibling, climbing parents (never past the
        // subtree root) until one exists.
        let topo = self.topo;
        self.cur = topo.first_child(out).or_else(|| {
            let mut x = out;
            while x != self.start {
                if let Some(next) = topo.next_sibling(x) {
                    return Some(next);
                }
                x = topo.parent(x)?;
            }
            None
        });
        Some(out)
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
        // Same fields but no call site: another tag, another child.
        let top = ScopeKind::Frame {
            proc: ProcId(0),
            module: LoadModuleId(0),
            def: SourceLoc::new(FileId(0), 1),
            call_site: None,
        };
        let d = cct.find_or_add_child(root, top);
        assert!(d != a && d != c);
        assert_eq!(cct.find_or_add_child(root, top), d);
        assert_eq!(cct.kind(d), top);
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
