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
//!   meaning the tag fixes ([`visit_fields`]; unused fields are 0).
//!
//! A kernel asks the tree for a [`Topo`] once (`Cct::topo`: one image
//! lookup on a mapped tree, none on an owned one) and then reads plain
//! slices: a parent step is one load, and the tag tests (`is_frame`,
//! `is_loop`, …) decode nothing. [`Topo::kind`] is the one decoder of a
//! scope's fields into a [`ScopeKind`]; code that only compares, hashes
//! or translates scopes stays on the words: [`Topo::canonical`] reads a
//! node's clamped, zero-padded words and [`visit_fields`] says which of
//! them hold a name id of which namespace. This module is the only one
//! that knows the field indices.
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
use crate::names::{Namespace, SourceLoc};
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

/// What one of a node's six field words holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// A name id of this namespace, clamped to the table size on read.
    Name(Namespace),
    /// A line number, read as stored.
    Line,
    /// Nothing: 0 in the canonical form.
    Unused,
}

/// The field layout of every tag, index = tag: the one description of
/// which word holds a procedure, module or file id. [`encode_kind`] and
/// [`decode_kind`] agree with it (unit-tested), and the name ids of a
/// frame come in the order a translation interns them: procedure,
/// module, definition file, call-site file.
const LAYOUT: [[Field; tags::N_FIELDS]; tags::N_TAGS as usize] = {
    use Field::{Line as L, Unused as U};
    const P: Field = Field::Name(Namespace::Proc);
    const M: Field = Field::Name(Namespace::Module);
    const F: Field = Field::Name(Namespace::File);
    [
        [U, U, U, U, U, U], // ROOT
        [P, M, F, L, F, L], // FRAME: proc, module, def, call site
        [P, M, F, L, U, U], // FRAME_TOP: proc, module, def
        [P, F, L, F, L, U], // INLINED: proc, def, call site
        [F, L, U, U, U, U], // LOOP: header
        [F, L, U, U, U, U], // STMT: loc
    ]
};

/// Visit the six words of a scope in field order, each with what it
/// holds — the one field layout, a table of this module: procedure,
/// module, definition file and line, call-site file and line for a
/// frame, and so on. A tag outside [`tags`] reads as a statement, as in
/// [`decode_kind`]. One jump on the tag, then straight-line code: the
/// layout row is a constant in each arm, so the per-field tests fold
/// away. [`Topo::canonical`], the run fingerprint and the supergraph
/// replay read the layout through this and nothing else.
#[inline(always)]
pub fn visit_fields(
    tag: u8,
    words: &mut [u32; tags::N_FIELDS],
    mut visit: impl FnMut(Field, &mut u32),
) {
    #[inline(always)]
    fn each<const TAG: usize>(
        words: &mut [u32; tags::N_FIELDS],
        visit: &mut impl FnMut(Field, &mut u32),
    ) {
        for (field, word) in LAYOUT[TAG].into_iter().zip(words) {
            visit(field, word);
        }
    }
    match canonical_tag(tag) {
        tags::ROOT => each::<{ tags::ROOT as usize }>(words, &mut visit),
        tags::FRAME => each::<{ tags::FRAME as usize }>(words, &mut visit),
        tags::FRAME_TOP => each::<{ tags::FRAME_TOP as usize }>(words, &mut visit),
        tags::INLINED => each::<{ tags::INLINED as usize }>(words, &mut visit),
        tags::LOOP => each::<{ tags::LOOP as usize }>(words, &mut visit),
        _ => each::<{ tags::STMT as usize }>(words, &mut visit),
    }
}

#[inline]
fn canonical_tag(tag: u8) -> u8 {
    if tag < tags::N_TAGS {
        tag
    } else {
        tags::STMT
    }
}

/// [`Topo::canonical`] of one node's stored `(tag, fields)`:
/// `encode_kind(&decode_kind(tag, f, limits))`, computed on the words.
#[inline]
fn canonical(tag: u8, f: &[u32], limits: [u32; 3]) -> (u8, [u32; tags::N_FIELDS]) {
    let tag = canonical_tag(tag);
    let mut words: [u32; tags::N_FIELDS] = f[..tags::N_FIELDS].try_into().expect("six fields");
    visit_fields(tag, &mut words, |field, w| {
        *w = match field {
            Field::Name(ns) if *w < limits[ns as usize] => *w,
            Field::Line => *w,
            Field::Name(_) | Field::Unused => 0,
        }
    });
    (tag, words)
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

    /// The line word of the location `n` itself stands at — a frame's
    /// definition, a loop's header, a statement's line — as stored; 0
    /// for the root and for an unknown line. What
    /// `SourceLoc::is_known` reads on that location of [`Topo::kind`],
    /// off one word instead of a decoded [`ScopeKind`].
    #[inline]
    pub fn own_line(&self, n: NodeId) -> u32 {
        let at = n.index() * tags::N_FIELDS;
        match self.tag(n) {
            tags::ROOT => 0,
            tags::FRAME | tags::FRAME_TOP => self.fields[at + 3],
            tags::INLINED => self.fields[at + 2],
            _ => self.fields[at + 1],
        }
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

    /// The canonical encoded form of `n`: what `encode_kind(&self.kind(n))`
    /// returns — the same clamps, unused words zeroed, an unknown tag read
    /// as a statement — read off the words without building a
    /// [`ScopeKind`]. Two nodes are the same scope exactly when their
    /// canonical forms are equal.
    #[inline]
    pub fn canonical(&self, n: NodeId) -> (u8, [u32; tags::N_FIELDS]) {
        let at = n.index() * tags::N_FIELDS;
        canonical(
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

    /// The layout table is the decoder's: on arbitrary tags, words and
    /// per-namespace limits (distinct, so a word read in the wrong
    /// namespace clamps differently), `canonical` is `encode ∘ decode`.
    #[test]
    fn canonical_is_encode_of_decode() {
        let mut s = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..20_000 {
            let r = next();
            let tag = (r % 9) as u8;
            let limits = [(r >> 8) as u32 % 5 + 1, (r >> 16) as u32 % 7 + 1, 3];
            let mut f = [0u32; tags::N_FIELDS];
            for w in &mut f {
                let r = next();
                *w = match r % 3 {
                    0 => (r >> 8) as u32 % 9,
                    1 => u32::MAX,
                    _ => (r >> 32) as u32,
                };
            }
            assert_eq!(
                canonical(tag, &f, limits),
                encode_kind(&decode_kind(tag, &f, limits)),
                "tag {tag}, fields {f:?}, limits {limits:?}"
            );
        }
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
