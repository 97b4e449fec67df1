//! The union-supergraph core: deterministic N-way merge of calling
//! context trees by journal replay.
//!
//! `ensemble::build_union` merges the trees of N arbitrary runs
//! (DESIGN.md §15); `diff` merges exactly two experiments. Both reduce
//! to the same primitive — replay a pruned creation journal of one tree
//! against another, matching scopes **by name** — which this module
//! factors out:
//!
//! * [`arena_journal`] derives the pruned journal of any loaded CCT
//!   from its arena order (arena order *is* creation order, parents
//!   precede children — see [`crate::cct`]);
//! * [`replay_into`] replays a journal into a destination shard,
//!   returning the node remap table. It never builds a
//!   [`crate::scope::ScopeKind`]: each source node's canonical encoded
//!   words (`Topo::canonical`) have their name ids
//!   ([`crate::topo::visit_fields`]) rewritten into the destination's
//!   table, and the child is looked up on those words. A tree refers
//!   to the same few names from all of its nodes, so each
//!   distinct source id is interned by string once, at its first
//!   appearance, and every later appearance is an array load. Within a
//!   node the ids are interned in field order — proc, module,
//!   definition file, call-site file — the order `diff`'s merge has
//!   always used, so the result equals translating each node's decoded
//!   kind by string (`tests/arena_cct.rs` holds it to that oracle);
//! * [`CctShard`] pairs a CCT + journal with an arbitrary payload that
//!   knows how to remap itself ([`RemapNodes`]), so the same pairwise
//!   merge carries whatever a caller keeps in node ids (the ensemble's
//!   per-run node maps).
//!
//! ## Determinism
//!
//! [`merge_shards`] is written for [`crate::pool::reduce_pairwise`]:
//! it always extends the *left* shard in the *right* journal's order,
//! so any pairwise reduction tree that keeps left-to-right operand
//! order produces the same result as the sequential fold — same node
//! ids, same name-table intern order, bit for bit. Folding every shard
//! into a **fresh empty shard** (rather than mutating shard 0 in
//! place) makes the result independent of any one input's stored
//! name-table ordering or unreferenced names.

use crate::cct::Cct;
use crate::ids::NodeId;
use crate::names::{NameTable, Namespace};
use crate::topo::{tags, visit_fields, Field};

/// Source name ids on their way into a destination table: an id is
/// interned by string at its first appearance and remembered, so that
/// its next appearance is an array load.
struct Translation<'a> {
    names: &'a mut NameTable,
    src: &'a NameTable,
    /// `src id -> dst id`, one table per [`Namespace`] (index = its
    /// discriminant), [`UNSEEN`] until the id first appears.
    seen: [Vec<u32>; 3],
}

const UNSEEN: u32 = u32::MAX;

impl<'a> Translation<'a> {
    fn new(names: &'a mut NameTable, src: &'a NameTable) -> Self {
        Translation {
            names,
            src,
            seen: Namespace::ALL.map(|ns| vec![UNSEEN; src.count(ns)]),
        }
    }

    /// Rewrite the name ids of a canonical encoded scope, in field order
    /// — proc, module, def file, call-site file: the intern order.
    #[inline]
    fn scope(&mut self, tag: u8, fields: &mut [u32; tags::N_FIELDS]) {
        visit_fields(tag, fields, |field, word| {
            if let Field::Name(ns) = field {
                let slot = &mut self.seen[ns as usize][*word as usize];
                if *slot == UNSEEN {
                    *slot = self.names.intern(ns, self.src.name(ns, *word));
                }
                *word = *slot;
            }
        });
    }
}

/// The pruned creation journal of a loaded CCT: every non-root node
/// once, as `(parent, node)`, in arena (= creation) order. Replaying
/// it against an empty tree rebuilds `cct` with identical ids.
pub fn arena_journal(cct: &Cct) -> Vec<(NodeId, NodeId)> {
    let topo = cct.topo();
    cct.all_nodes()
        .skip(1)
        .map(|n| (topo.parent(n).expect("non-root node has a parent"), n))
        .collect()
}

/// Replay `journal` (edges over `src`) into `dst`, translating each
/// scope's name ids from `src.names` into `dst`'s name table and
/// extending `dst_journal` with the edges that created new nodes.
/// Returns the remap table: `remap[src node] = dst node` for every node
/// the journal mentions (untouched slots stay `NodeId(u32::MAX)`).
///
/// `dst`'s existing node ids are stable across the call; new nodes are
/// appended in `journal` order — exactly where a sequential fold that
/// had processed `dst`'s inputs first would have put them.
pub fn replay_into(
    dst: &mut Cct,
    dst_journal: &mut Vec<(NodeId, NodeId)>,
    src: &Cct,
    journal: &[(NodeId, NodeId)],
) -> Vec<NodeId> {
    let mut remap: Vec<NodeId> = vec![NodeId(u32::MAX); src.len()];
    remap[src.root().index()] = dst.root();
    // The name table is moved out for the duration of the replay so
    // `dst` itself stays borrowable.
    let mut names = std::mem::take(&mut dst.names);
    let mut translation = Translation::new(&mut names, &src.names);
    let src_topo = src.topo();
    for &(parent, child) in journal {
        let merged_parent = remap[parent.index()];
        debug_assert_ne!(
            merged_parent.0,
            u32::MAX,
            "journal references unseen parent"
        );
        let (tag, mut fields) = src_topo.canonical(child);
        translation.scope(tag, &mut fields);
        let (merged_child, created) = dst.find_or_add_encoded(merged_parent, tag, fields);
        remap[child.index()] = merged_child;
        if created {
            dst_journal.push((merged_parent, merged_child));
        }
    }
    dst.names = names;
    remap
}

/// Payloads carried through a shard merge: anything holding node ids
/// that must be rewritten when its shard's nodes land in a merged tree.
pub trait RemapNodes {
    /// Rewrite every node id through `map` (`map[old.index()] = new`).
    fn remap_nodes(&mut self, map: &[NodeId]);
}

/// A mergeable unit: a CCT, the pruned journal that rebuilds it, and
/// payloads in its local node ids.
pub struct CctShard<P> {
    /// The shard's tree.
    pub cct: Cct,
    /// First-appearance `(parent, child)` edges in creation order:
    /// every non-root node of `cct` exactly once, after its parent.
    pub journal: Vec<(NodeId, NodeId)>,
    /// Per-input payloads (per-rank costs, per-run columns, ...), each
    /// in this shard's node ids.
    pub payload: Vec<P>,
}

impl<P> CctShard<P> {
    /// A root-only shard with a fresh name table and no payloads: the
    /// identity element of [`merge_shards`].
    pub fn empty() -> Self {
        CctShard {
            cct: Cct::new(NameTable::new()),
            journal: Vec::new(),
            payload: Vec::new(),
        }
    }
}

/// Merge `right` into `left`: replay `right`'s journal against
/// `left`'s tree, remap `right`'s payloads into the merged ids and
/// append them after `left`'s. `left`'s ids are stable, so its journal
/// and payloads carry over untouched — the invariant
/// [`crate::pool::reduce_pairwise`] needs for determinism.
pub fn merge_shards<P: RemapNodes>(mut left: CctShard<P>, right: CctShard<P>) -> CctShard<P> {
    let remap = replay_into(&mut left.cct, &mut left.journal, &right.cct, &right.journal);
    for mut p in right.payload {
        p.remap_nodes(&remap);
        left.payload.push(p);
    }
    left
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcId;
    use crate::names::SourceLoc;
    use crate::scope::ScopeKind;

    fn tree(procs: &[&str]) -> Cct {
        let mut names = NameTable::new();
        let file = names.file("x.c");
        let module = names.module("x");
        let ids: Vec<ProcId> = procs.iter().map(|p| names.proc(p)).collect();
        let mut cct = Cct::new(names);
        let root = cct.root();
        let mut parent = root;
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
        cct
    }

    #[derive(Debug, PartialEq)]
    struct Tagged(Vec<NodeId>);

    impl RemapNodes for Tagged {
        fn remap_nodes(&mut self, map: &[NodeId]) {
            for n in &mut self.0 {
                *n = map[n.index()];
            }
        }
    }

    #[test]
    fn arena_journal_rebuilds_the_tree() {
        let src = tree(&["main", "work", "leaf"]);
        let journal = arena_journal(&src);
        assert_eq!(journal.len(), src.len() - 1);
        let mut dst = Cct::new(NameTable::new());
        let mut dj = Vec::new();
        let remap = replay_into(&mut dst, &mut dj, &src, &journal);
        assert_eq!(dst.len(), src.len());
        for n in src.all_nodes() {
            // Fresh fold of a single tree: ids map onto themselves.
            assert_eq!(remap[n.index()], n);
        }
        assert_eq!(dj, journal);
    }

    #[test]
    fn merge_deduplicates_shared_prefixes_and_remaps_payloads() {
        let a = tree(&["main", "fast"]);
        let b = tree(&["main", "slow"]);
        let shard = |cct: Cct, payload| CctShard {
            journal: arena_journal(&cct),
            cct,
            payload: vec![payload],
        };
        let sa = shard(a, Tagged(vec![NodeId(2)]));
        let b_leaf = NodeId(2);
        let sb = shard(b, Tagged(vec![b_leaf]));
        let merged = merge_shards(merge_shards(CctShard::empty(), sa), sb);
        // main shared; fast and slow distinct: root + 3.
        assert_eq!(merged.cct.len(), 4);
        assert_eq!(merged.journal.len(), 3);
        // b's payload now points at the merged "slow" node, not id 2.
        assert_eq!(merged.payload.len(), 2);
        let slow = merged.payload[1].0[0];
        assert!(
            matches!(merged.cct.kind(slow), ScopeKind::Frame { proc, .. }
            if merged.cct.names.proc_name(proc) == "slow")
        );
    }

    #[test]
    fn fold_into_empty_ignores_source_name_table_order() {
        // Same tree, but one source interned extra names first: the
        // folds must still be identical because translation goes by
        // string, against a fresh table.
        let a = tree(&["main", "work"]);
        let mut b = tree(&["main", "work"]);
        b.names.proc("unrelated_zzz");
        b.names.file("zzz.c");
        let fold = |src: &Cct| {
            let mut dst = Cct::new(NameTable::new());
            let mut dj = Vec::new();
            replay_into(&mut dst, &mut dj, src, &arena_journal(src));
            dst
        };
        let fa = fold(&a);
        let fb = fold(&b);
        assert_eq!(fa.len(), fb.len());
        for n in fa.all_nodes() {
            assert_eq!(fa.kind(n), fb.kind(n));
        }
        assert_eq!(fa.names.proc_count(), fb.names.proc_count());
    }

    /// A replay asks the destination table for a string once per
    /// distinct name id the source tree refers to: only referenced ids
    /// get a slot filled, and a second translation of every node finds
    /// them all filled.
    #[test]
    fn a_translation_interns_each_referenced_name_once() {
        let mut src = tree(&["main", "work", "main", "work"]);
        src.names.proc("unreferenced");
        src.names.file("unreferenced.c");
        let mut names = NameTable::new();
        let mut translation = Translation::new(&mut names, &src.names);
        let topo = src.topo();
        for n in src.all_nodes() {
            let (tag, words) = topo.canonical(n);
            let [mut once, mut twice] = [words; 2];
            translation.scope(tag, &mut once);
            translation.scope(tag, &mut twice);
            assert_eq!(once, twice);
        }
        let filled = |ns: Namespace| -> Vec<bool> {
            translation.seen[ns as usize]
                .iter()
                .map(|&s| s != UNSEEN)
                .collect()
        };
        assert_eq!(filled(Namespace::Proc), [true, true, false]);
        assert_eq!(filled(Namespace::File), [true, false]);
        assert_eq!(filled(Namespace::Module), [true]);
        let interned: usize = Namespace::ALL.iter().map(|&ns| names.count(ns)).sum();
        assert_eq!(interned, 4, "main, work, x.c, x");
    }
}
