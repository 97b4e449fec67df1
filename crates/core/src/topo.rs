//! The CCT's topology as structure-of-arrays, and [`Topo`], the borrowed
//! view every per-node kernel reads it through.
//!
//! One layout serves both backings of a [`crate::cct::Cct`]: the owned
//! arena stores exactly the arrays format v2.1 writes and a mapped open
//! borrows in place —
//!
//! * `parent`, `first_child`, `next_sibling`: one `u32` per node,
//!   [`LINK_NONE`] for none, the root at index 0;
//! * a `u8` tag per node ([`tags`]) and six `u32` fields per node whose
//!   meaning the tag fixes ([`encode_kind`]; unused fields are 0).
//!
//! A kernel asks the tree for a [`Topo`] once (`Cct::topo`: one image
//! lookup on a mapped tree, none on an owned one) and then reads plain
//! slices: a parent step is one load, and the tag tests (`is_frame`,
//! `is_loop`, …) decode nothing. [`Topo::kind`] is the one decoder of a
//! scope's fields.
//!
//! What each accessor relies on, and where it is checked:
//!
//! * *Lengths.* The three link arrays and the tags hold `n` entries and
//!   the fields `6n` — the owned arena pushes all of them together, and
//!   `MappedTopology::new` bounds-checks each window against `n`.
//! * *Links.* A link word at or beyond `n` reads as none
//!   ([`Topo::parent`], [`Topo::first_child`], [`Topo::next_sibling`]),
//!   so a corrupt image cannot index out of bounds. Parents precede their
//!   children — by construction in the arena, by an O(n) scan when a
//!   database is opened (`expdb::lazy`) — so an ancestor climb ends at the
//!   root; child and sibling links are not checked against anything, so
//!   every walk over them ([`Topo::children`], [`Topo::walk`]) carries a
//!   step budget and a corrupt image yields a wrong tree, never a hang.
//! * *Tags.* Node 0 is the root and no other node is: the arena starts
//!   with the root and never adds another, `MappedTopology::new` checks
//!   every tag byte.
//! * *Name ids.* An owned arena's fields come from ids of its own name
//!   table, so its limits are `u32::MAX` and nothing is clamped (the table
//!   may still grow). A mapped tree's limits are its name-table sizes: a
//!   corrupt field decodes to id 0, a wrong label but never a panic in a
//!   name lookup.

use crate::ids::{FileId, LoadModuleId, NodeId, ProcId};
use crate::names::SourceLoc;
use crate::scope::ScopeKind;

/// Scope-kind tag values of the topology encoding.
pub mod tags {
    /// The synthetic experiment root; exactly node 0, nowhere else.
    pub const ROOT: u8 = 0;
    /// Procedure frame with a call site.
    pub const FRAME: u8 = 1;
    /// Top-level procedure frame (no call site).
    pub const FRAME_TOP: u8 = 2;
    /// Inlined procedure body.
    pub const INLINED: u8 = 3;
    /// Loop scope.
    pub const LOOP: u8 = 4;
    /// Statement scope.
    pub const STMT: u8 = 5;
    /// One past the largest valid tag.
    pub const N_TAGS: u8 = 6;
    /// `u32` payload fields per node (fixed-width; unused fields are 0).
    pub const N_FIELDS: usize = 6;
}

/// Sentinel for "no node" in the link arrays.
pub const LINK_NONE: u32 = u32::MAX;

/// A link word of an `n`-node topology as a node id: out of range reads
/// as none.
#[inline]
pub(crate) fn link(word: u32, n: usize) -> Option<NodeId> {
    ((word as usize) < n).then_some(NodeId(word))
}

/// Name-table sizes decoded ids are clamped to: procedures, files,
/// modules. An owned arena's are all `u32::MAX`: nothing clamps.
pub(crate) type Limits = [u32; 3];

/// The limits of an owned arena, and of a reader that checks every id
/// itself: nothing clamps.
pub const UNCLAMPED: [u32; 3] = [u32::MAX; 3];

/// Encode a scope kind into its `(tag, fields)` representation — the
/// exact inverse of [`Topo::kind`]. The owned arena stores what this
/// returns, and the expdb writer writes it.
pub fn encode_kind(kind: &ScopeKind) -> (u8, [u32; tags::N_FIELDS]) {
    match *kind {
        ScopeKind::Root => (tags::ROOT, [0; 6]),
        ScopeKind::Frame {
            proc,
            module,
            def,
            call_site: Some(cs),
        } => (
            tags::FRAME,
            [proc.0, module.0, def.file.0, def.line, cs.file.0, cs.line],
        ),
        ScopeKind::Frame {
            proc,
            module,
            def,
            call_site: None,
        } => (
            tags::FRAME_TOP,
            [proc.0, module.0, def.file.0, def.line, 0, 0],
        ),
        ScopeKind::InlinedFrame {
            proc,
            def,
            call_site,
        } => (
            tags::INLINED,
            [
                proc.0,
                def.file.0,
                def.line,
                call_site.file.0,
                call_site.line,
                0,
            ],
        ),
        ScopeKind::Loop { header } => (tags::LOOP, [header.file.0, header.line, 0, 0, 0, 0]),
        ScopeKind::Stmt { loc } => (tags::STMT, [loc.file.0, loc.line, 0, 0, 0, 0]),
    }
}

/// Decode one node's `(tag, fields)`, clamping name ids to `limits`. A
/// tag outside [`tags`] reads as a statement: the borrowed backing
/// admits none, and the eager reader rejects them before it calls this.
pub fn decode_kind(tag: u8, f: &[u32], limits: [u32; 3]) -> ScopeKind {
    let [procs, files, modules] = limits;
    let clamp = |id: u32, n: u32| if id < n { id } else { 0 };
    let loc = |file: u32, line: u32| SourceLoc::new(FileId(clamp(file, files)), line);
    match tag {
        tags::ROOT => ScopeKind::Root,
        tags::FRAME | tags::FRAME_TOP => ScopeKind::Frame {
            proc: ProcId(clamp(f[0], procs)),
            module: LoadModuleId(clamp(f[1], modules)),
            def: loc(f[2], f[3]),
            call_site: (tag == tags::FRAME).then(|| loc(f[4], f[5])),
        },
        tags::INLINED => ScopeKind::InlinedFrame {
            proc: ProcId(clamp(f[0], procs)),
            def: loc(f[1], f[2]),
            call_site: loc(f[3], f[4]),
        },
        tags::LOOP => ScopeKind::Loop {
            header: loc(f[0], f[1]),
        },
        _ => ScopeKind::Stmt {
            loc: loc(f[0], f[1]),
        },
    }
}

/// A CCT's topology, borrowed: the five arrays of the layout (see the
/// module docs) plus the limits its name ids are clamped to. `Copy`, and
/// taken once per kernel call rather than once per node.
#[derive(Debug, Clone, Copy)]
pub struct Topo<'a> {
    parent: &'a [u32],
    first_child: &'a [u32],
    next_sibling: &'a [u32],
    tags: &'a [u8],
    fields: &'a [u32],
    limits: Limits,
}

impl<'a> Topo<'a> {
    /// Lend the arrays of one backing; their lengths agree (see the
    /// module docs).
    #[inline]
    pub(crate) fn new(
        [parent, first_child, next_sibling]: [&'a [u32]; 3],
        tags: &'a [u8],
        fields: &'a [u32],
        limits: Limits,
    ) -> Self {
        let n = tags.len();
        debug_assert!(parent.len() == n && first_child.len() == n && next_sibling.len() == n);
        debug_assert_eq!(fields.len(), n * tags::N_FIELDS);
        Topo {
            parent,
            first_child,
            next_sibling,
            tags,
            fields,
            limits,
        }
    }

    /// Node count, including the root.
    #[inline]
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Always false: a topology holds at least its root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Parent of `n` (`None` for the root).
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        link(self.parent[n.index()], self.len())
    }

    /// First child of `n`.
    #[inline]
    pub fn first_child(&self, n: NodeId) -> Option<NodeId> {
        link(self.first_child[n.index()], self.len())
    }

    /// Next sibling of `n`.
    #[inline]
    pub fn next_sibling(&self, n: NodeId) -> Option<NodeId> {
        link(self.next_sibling[n.index()], self.len())
    }

    /// The scope tag of `n` ([`tags`]).
    #[inline]
    pub fn tag(&self, n: NodeId) -> u8 {
        self.tags[n.index()]
    }

    /// A procedure frame or an inlined one: where Eq. 1's rule 1 stops.
    #[inline]
    pub fn is_frame(&self, n: NodeId) -> bool {
        matches!(self.tag(n), tags::FRAME | tags::FRAME_TOP | tags::INLINED)
    }

    /// A dynamic procedure frame ([`ScopeKind::Frame`]), not an inlined one.
    #[inline]
    pub fn is_proc_frame(&self, n: NodeId) -> bool {
        matches!(self.tag(n), tags::FRAME | tags::FRAME_TOP)
    }

    /// A frame with a call site: the rows that carry the call icon.
    #[inline]
    pub fn is_call(&self, n: NodeId) -> bool {
        self.tag(n) == tags::FRAME
    }

    /// A loop scope.
    #[inline]
    pub fn is_loop(&self, n: NodeId) -> bool {
        self.tag(n) == tags::LOOP
    }

    /// A statement scope.
    #[inline]
    pub fn is_stmt(&self, n: NodeId) -> bool {
        self.tag(n) == tags::STMT
    }

    /// The scope kind of `n`, decoded from its tag and fields.
    #[inline]
    pub fn kind(&self, n: NodeId) -> ScopeKind {
        let at = n.index() * tags::N_FIELDS;
        decode_kind(
            self.tag(n),
            &self.fields[at..at + tags::N_FIELDS],
            self.limits,
        )
    }

    /// The parent array, as stored (out-of-range words included).
    #[inline]
    pub fn parents(&self) -> &'a [u32] {
        self.parent
    }

    /// The first-child array, as stored.
    #[inline]
    pub fn first_children(&self) -> &'a [u32] {
        self.first_child
    }

    /// The next-sibling array, as stored.
    #[inline]
    pub fn next_siblings(&self) -> &'a [u32] {
        self.next_sibling
    }

    /// The tag array.
    #[inline]
    pub fn tags(&self) -> &'a [u8] {
        self.tags
    }

    /// The field array, six words per node, as stored (unclamped).
    #[inline]
    pub fn fields(&self) -> &'a [u32] {
        self.fields
    }

    /// The children of `n` in insertion order, under a step budget of
    /// the node count.
    #[inline]
    pub fn children(&self, n: NodeId) -> Children<'a> {
        Children::new(self.first_child(n), self.next_sibling)
    }

    /// Proper ancestors of `n`, innermost first, ending at the root.
    #[inline]
    pub fn ancestors(&self, n: NodeId) -> Ancestors<'a> {
        Ancestors::new(self.parent(n), self.parent)
    }

    /// The nearest frame-like scope (procedure or inlined frame) at or
    /// above `n`.
    pub fn enclosing_frame_like(&self, mut n: NodeId) -> Option<NodeId> {
        for _ in 0..self.len() {
            if self.is_frame(n) {
                return Some(n);
            }
            n = self.parent(n)?;
        }
        None
    }

    /// The caller of a frame: its nearest proper ancestor that is a
    /// dynamic frame.
    pub fn caller_frame(&self, n: NodeId) -> Option<NodeId> {
        self.ancestors(n).find(|&a| self.is_proc_frame(a))
    }

    /// Depth-first walk of the whole tree: `visit(n, true)` when `n` is
    /// entered, `visit(n, false)` when its subtree is done, so a visitor
    /// can keep per-path state (what is on the call stack) in counters.
    /// Allocation-free, and under a budget of two steps per node: links
    /// that disagree with one another can make the walk stop early or
    /// leave a node it never entered, but not run on.
    pub fn walk(&self, mut visit: impl FnMut(NodeId, bool)) {
        let mut budget = 2 * self.len();
        let mut cur = NodeId(0);
        visit(cur, true);
        loop {
            if let Some(fc) = self.first_child(cur).filter(|_| budget > 0) {
                budget -= 1;
                cur = fc;
                visit(cur, true);
                continue;
            }
            // `cur`'s subtree is done: leave it, and every ancestor it was
            // the last child of, until a sibling is left to enter.
            loop {
                visit(cur, false);
                if cur.0 == 0 || budget == 0 {
                    return;
                }
                budget -= 1;
                if let Some(next) = self.next_sibling(cur) {
                    cur = next;
                    visit(cur, true);
                    break;
                }
                match self.parent(cur) {
                    Some(p) => cur = p,
                    None => return,
                }
            }
        }
    }
}

/// Iterator over the children of a node.
pub struct Children<'a> {
    cur: Option<NodeId>,
    next_sibling: &'a [u32],
    /// Step budget (node count): terminates even when sibling links form
    /// a cycle.
    remaining: usize,
}

impl<'a> Children<'a> {
    #[inline]
    pub(crate) fn new(first: Option<NodeId>, next_sibling: &'a [u32]) -> Self {
        Children {
            cur: first,
            next_sibling,
            remaining: next_sibling.len(),
        }
    }
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        let id = self.cur.filter(|_| self.remaining > 0)?;
        self.remaining -= 1;
        self.cur = link(self.next_sibling[id.index()], self.next_sibling.len());
        Some(id)
    }
}

/// Iterator over proper ancestors, innermost first.
pub struct Ancestors<'a> {
    cur: Option<NodeId>,
    parent: &'a [u32],
    /// Step budget (node count): terminates even when parent links form
    /// a cycle.
    remaining: usize,
}

impl<'a> Ancestors<'a> {
    #[inline]
    pub(crate) fn new(first: Option<NodeId>, parent: &'a [u32]) -> Self {
        Ancestors {
            cur: first,
            parent,
            remaining: parent.len(),
        }
    }
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        let id = self.cur.filter(|_| self.remaining > 0)?;
        self.remaining -= 1;
        self.cur = link(self.parent[id.index()], self.parent.len());
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_kind_roundtrip() {
        let kinds = [
            ScopeKind::Root,
            ScopeKind::Frame {
                proc: ProcId(2),
                module: LoadModuleId(1),
                def: SourceLoc::new(FileId(3), 10),
                call_site: Some(SourceLoc::new(FileId(0), 4)),
            },
            ScopeKind::Frame {
                proc: ProcId(0),
                module: LoadModuleId(0),
                def: SourceLoc::new(FileId(1), 1),
                call_site: None,
            },
            ScopeKind::InlinedFrame {
                proc: ProcId(1),
                def: SourceLoc::new(FileId(2), 7),
                call_site: SourceLoc::new(FileId(2), 30),
            },
            ScopeKind::Loop {
                header: SourceLoc::new(FileId(1), 8),
            },
            ScopeKind::Stmt {
                loc: SourceLoc::new(FileId(1), 9),
            },
        ];
        for k in kinds {
            let (tag, f) = encode_kind(&k);
            assert_eq!(decode_kind(tag, &f, UNCLAMPED), k);
        }
        // Ids beyond the limits clamp to 0.
        let (tag, f) = encode_kind(&kinds[1]);
        let clamped = decode_kind(tag, &f, [1, 1, 1]);
        assert_eq!(
            clamped,
            ScopeKind::Frame {
                proc: ProcId(0),
                module: LoadModuleId(0),
                def: SourceLoc::new(FileId(0), 10),
                call_site: Some(SourceLoc::new(FileId(0), 4)),
            }
        );
    }

    #[test]
    fn out_of_range_links_read_as_none_and_cycles_end() {
        // 0 → 1 → 2; 2's sibling link points back at 1, 1's first child
        // is out of range.
        let parent = [LINK_NONE, 0, 1];
        let first_child = [1, 99, LINK_NONE];
        let next_sibling = [LINK_NONE, 2, 1];
        let tags = [tags::ROOT, tags::FRAME_TOP, tags::STMT];
        let fields = [0u32; 18];
        let topo = Topo::new(
            [&parent, &first_child, &next_sibling],
            &tags,
            &fields,
            UNCLAMPED,
        );
        assert_eq!(topo.first_child(NodeId(1)), None);
        assert_eq!(topo.children(NodeId(0)).count(), 3, "budgeted cycle");
        let mut steps = 0;
        topo.walk(|_, _| steps += 1);
        assert!(steps <= 2 + 2 * 2 * topo.len());
        assert!(topo.is_frame(NodeId(1)) && !topo.is_call(NodeId(1)));
        assert_eq!(topo.enclosing_frame_like(NodeId(2)), Some(NodeId(1)));
    }
}
