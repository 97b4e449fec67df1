//! The union-supergraph core: deterministic N-way merge of calling
//! context trees by journal replay.
//!
//! `ensemble::build_union` merges the trees of N arbitrary runs
//! (DESIGN.md §15); `diff` merges exactly two experiments. Both reduce
//! to the same primitive — replay a pruned creation journal of one tree
//! against another, translating scope kinds **by name** — which this
//! module factors out:
//!
//! * [`arena_journal`] derives the pruned journal of any loaded CCT
//!   from its arena order (arena order *is* creation order, parents
//!   precede children — see [`crate::cct`]);
//! * [`translate_kind`] rewrites a [`ScopeKind`] from one name table
//!   into another, interning on demand. Within one namespace the
//!   intern order is proc, then module, then definition file, then
//!   call-site file — the same order `diff`'s merge has always used,
//!   so rebasing `diff` on this module is byte-identical;
//! * [`replay_into`] replays a journal into a destination shard,
//!   returning the node remap table. A tree refers to the same few
//!   names from all of its nodes, so a replay interns each distinct
//!   source name id by string once — at its first appearance, which is
//!   where [`translate_kind`] per node would have interned it — and
//!   translates every later appearance with an array load;
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
use crate::ids::{FileId, LoadModuleId, NodeId, ProcId};
use crate::names::{NameTable, SourceLoc};
use crate::scope::ScopeKind;

/// Source name ids on their way into a destination table. An id is
/// interned by string — `names.proc / module / file(&str)` — and, when
/// the table for its namespace has a slot for it, remembered there, so
/// that the id's next appearance is an array load.
struct Translation<'a> {
    names: &'a mut NameTable,
    src: &'a NameTable,
    /// `src id -> dst id` per namespace, [`UNSEEN`] until the id first
    /// appears; empty when nothing is to be remembered.
    procs: Vec<u32>,
    modules: Vec<u32>,
    files: Vec<u32>,
}

const UNSEEN: u32 = u32::MAX;

/// The remembered id in `seen[src]`, or `intern()` (remembered if `seen`
/// has the slot).
#[inline]
fn seen_or(seen: &mut [u32], src: u32, intern: impl FnOnce() -> u32) -> u32 {
    match seen.get_mut(src as usize) {
        Some(slot) => {
            if *slot == UNSEEN {
                *slot = intern();
            }
            *slot
        }
        None => intern(),
    }
}

impl<'a> Translation<'a> {
    /// Translates each appearance by string.
    fn by_name(names: &'a mut NameTable, src: &'a NameTable) -> Self {
        Translation {
            names,
            src,
            procs: Vec::new(),
            modules: Vec::new(),
            files: Vec::new(),
        }
    }

    /// Translates each distinct id by string once: for a whole tree.
    fn remembering(names: &'a mut NameTable, src: &'a NameTable) -> Self {
        Translation {
            procs: vec![UNSEEN; src.proc_count()],
            modules: vec![UNSEEN; src.module_count()],
            files: vec![UNSEEN; src.file_count()],
            ..Self::by_name(names, src)
        }
    }

    fn proc(&mut self, p: ProcId) -> ProcId {
        let (names, src) = (&mut *self.names, self.src);
        ProcId(seen_or(&mut self.procs, p.0, || {
            names.proc(src.proc_name(p)).0
        }))
    }

    fn module(&mut self, m: LoadModuleId) -> LoadModuleId {
        let (names, src) = (&mut *self.names, self.src);
        LoadModuleId(seen_or(&mut self.modules, m.0, || {
            names.module(src.module_name(m)).0
        }))
    }

    fn loc(&mut self, l: SourceLoc) -> SourceLoc {
        let (names, src) = (&mut *self.names, self.src);
        let file = seen_or(&mut self.files, l.file.0, || {
            names.file(src.file_name(l.file)).0
        });
        SourceLoc::new(FileId(file), l.line)
    }

    /// The one definition of the intern order: proc, module, def file,
    /// call-site file, in field order.
    fn kind(&mut self, k: &ScopeKind) -> ScopeKind {
        match *k {
            ScopeKind::Root => ScopeKind::Root,
            ScopeKind::Frame {
                proc,
                module,
                def,
                call_site,
            } => ScopeKind::Frame {
                proc: self.proc(proc),
                module: self.module(module),
                def: self.loc(def),
                call_site: call_site.map(|c| self.loc(c)),
            },
            ScopeKind::InlinedFrame {
                proc,
                def,
                call_site,
            } => ScopeKind::InlinedFrame {
                proc: self.proc(proc),
                def: self.loc(def),
                call_site: self.loc(call_site),
            },
            ScopeKind::Loop { header } => ScopeKind::Loop {
                header: self.loc(header),
            },
            ScopeKind::Stmt { loc } => ScopeKind::Stmt { loc: self.loc(loc) },
        }
    }
}

/// Rewrite `kind` from `src` names into `names`, interning on demand.
///
/// Intern order within each namespace is fixed (proc, module, def
/// file, call-site file, in field order) so that two folds seeing the
/// same kind sequence build the same name table.
pub fn translate_kind(names: &mut NameTable, src: &NameTable, k: &ScopeKind) -> ScopeKind {
    Translation::by_name(names, src).kind(k)
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

/// Replay `journal` (edges over `src`) into `dst`, translating scope
/// kinds from `src.names` into `dst`'s name table and extending
/// `dst_journal` with the edges that created new nodes. Returns the
/// remap table: `remap[src node] = dst node` for every node the
/// journal mentions (untouched slots stay `NodeId(u32::MAX)`).
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
    let mut translation = Translation::remembering(&mut names, &src.names);
    let src_topo = src.topo();
    for &(parent, child) in journal {
        let merged_parent = remap[parent.index()];
        debug_assert_ne!(
            merged_parent.0,
            u32::MAX,
            "journal references unseen parent"
        );
        let kind = translation.kind(&src_topo.kind(child));
        let (merged_child, created) = dst.find_or_add_child_tracked(merged_parent, kind);
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

    /// Wrap an existing tree: the journal is derived from arena order.
    pub fn from_cct(cct: Cct, payload: Vec<P>) -> Self {
        let journal = arena_journal(&cct);
        CctShard {
            cct,
            journal,
            payload,
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
        let sa = CctShard::from_cct(a, vec![Tagged(vec![NodeId(2)])]);
        let b_leaf = NodeId(2);
        let sb = CctShard::from_cct(b, vec![Tagged(vec![b_leaf])]);
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

    struct XorShift(u64);

    impl XorShift {
        fn new(seed: u64) -> Self {
            XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
        }
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as usize % n
        }
    }

    /// A tree of every scope kind over names drawn from shared pools,
    /// interned in an order of its own (so ids differ between trees)
    /// with names no node refers to in between. The first half of the
    /// nodes is the same contexts in every tree, the rest the seed's.
    fn mixed_tree(seed: u64, nodes: usize) -> Cct {
        const PROCS: [&str; 7] = ["main", "solve", "x.c", "naïve_φ", "pack", "unpack", "io"];
        const FILES: [&str; 5] = ["x.c", "solve", "δ.f90", "lib.h", "io.c"];
        const MODULES: [&str; 3] = ["app", "libm.so", "x.c"];
        let mut own = XorShift::new(seed);
        let mut names = NameTable::new();
        let skew = own.below(7);
        let mut procs = [ProcId(0); PROCS.len()];
        let mut files = [FileId(0); FILES.len()];
        let mut modules = [LoadModuleId(0); MODULES.len()];
        for i in 0..PROCS.len() {
            names.proc(&format!("unreferenced_{seed}_{i}"));
            names.file(&format!("unreferenced_{seed}_{i}.c"));
            let at = (i + skew) % PROCS.len();
            procs[at] = names.proc(PROCS[at]);
            if let Some(f) = FILES.get(at) {
                files[at] = names.file(f);
            }
            if let Some(m) = MODULES.get(at) {
                modules[at] = names.module(m);
            }
        }
        names.module("unreferenced.so");
        let mut cct = Cct::new(names);
        let mut parents = vec![cct.root()];
        let mut common = XorShift::new(0xc0ffee);
        for i in 0..nodes {
            let rng = if i < nodes / 2 { &mut common } else { &mut own };
            let parent = parents[rng.below(parents.len())];
            let loc = |rng: &mut XorShift| {
                SourceLoc::new(files[rng.below(files.len())], rng.below(3) as u32)
            };
            let kind = match rng.below(5) {
                0 => ScopeKind::Frame {
                    proc: procs[rng.below(procs.len())],
                    module: modules[rng.below(modules.len())],
                    def: loc(rng),
                    call_site: None,
                },
                1 => ScopeKind::Frame {
                    proc: procs[rng.below(procs.len())],
                    module: modules[rng.below(modules.len())],
                    def: loc(rng),
                    call_site: Some(loc(rng)),
                },
                2 => ScopeKind::InlinedFrame {
                    proc: procs[rng.below(procs.len())],
                    def: loc(rng),
                    call_site: loc(rng),
                },
                3 => ScopeKind::Loop { header: loc(rng) },
                _ => ScopeKind::Stmt { loc: loc(rng) },
            };
            let child = cct.find_or_add_child(parent, kind);
            if !kind.is_stmt() && !parents.contains(&child) {
                parents.push(child);
            }
        }
        cct
    }

    fn name_lists(names: &NameTable) -> [Vec<String>; 3] {
        [
            (0..names.proc_count() as u32)
                .map(|i| names.proc_name(ProcId(i)).to_owned())
                .collect(),
            (0..names.module_count() as u32)
                .map(|i| names.module_name(LoadModuleId(i)).to_owned())
                .collect(),
            (0..names.file_count() as u32)
                .map(|i| names.file_name(FileId(i)).to_owned())
                .collect(),
        ]
    }

    /// `replay_into` against its definition: `translate_kind` +
    /// `find_or_add_child_tracked` per node. Same name-table order, node
    /// ids, journal and remap, tree after tree into one destination.
    #[test]
    fn replay_equals_per_node_translation() {
        let trees: Vec<Cct> = (1..=6)
            .map(|s| mixed_tree(s, 40 + 25 * s as usize))
            .collect();
        let mut dst = Cct::new(NameTable::new());
        let mut dst_journal = Vec::new();
        let mut want = Cct::new(NameTable::new());
        let mut want_journal = Vec::new();
        for src in &trees {
            let journal = arena_journal(src);
            let remap = replay_into(&mut dst, &mut dst_journal, src, &journal);

            let mut want_remap = vec![NodeId(u32::MAX); src.len()];
            want_remap[src.root().index()] = want.root();
            for &(parent, child) in &journal {
                let mut names = std::mem::take(&mut want.names);
                let kind = translate_kind(&mut names, &src.names, &src.kind(child));
                want.names = names;
                let parent = want_remap[parent.index()];
                let (node, created) = want.find_or_add_child_tracked(parent, kind);
                want_remap[child.index()] = node;
                if created {
                    want_journal.push((parent, node));
                }
            }

            assert_eq!(remap, want_remap);
            assert_eq!(dst_journal, want_journal);
            assert_eq!(name_lists(&dst.names), name_lists(&want.names));
            assert_eq!(dst.len(), want.len());
            for n in dst.all_nodes() {
                assert_eq!(dst.kind(n), want.kind(n), "node {n:?}");
                assert_eq!(dst.parent(n), want.parent(n), "node {n:?}");
            }
        }
        let unreferenced = |names: &[String]| names.iter().any(|n| n.starts_with("unreferenced"));
        assert!(!name_lists(&dst.names).iter().any(|l| unreferenced(l)));
        let separately: usize = trees.iter().map(|t| t.len() - 1).sum();
        assert!(dst.len() - 1 < separately, "the trees share no context");
    }

    /// A replay asks the destination table for a string once per
    /// distinct name id the source tree refers to: each slot of the
    /// translation is filled by exactly one string lookup, and only
    /// referenced ids have one.
    #[test]
    fn a_translation_interns_each_referenced_name_once() {
        let src = mixed_tree(9, 400);
        let mut referenced = [
            vec![false; src.names.proc_count()],
            vec![false; src.names.module_count()],
            vec![false; src.names.file_count()],
        ];
        let mut names = NameTable::new();
        let mut translation = Translation::remembering(&mut names, &src.names);
        for n in src.all_nodes() {
            let kind = src.kind(n);
            let mut file = |l: SourceLoc| referenced[2][l.file.index()] = true;
            match kind {
                ScopeKind::Root => {}
                ScopeKind::Frame { def, call_site, .. } => {
                    file(def);
                    call_site.map(&mut file);
                }
                ScopeKind::InlinedFrame { def, call_site, .. } => {
                    file(def);
                    file(call_site);
                }
                ScopeKind::Loop { header: l } | ScopeKind::Stmt { loc: l } => file(l),
            }
            if let Some(p) = kind.frame_proc() {
                referenced[0][p.index()] = true;
            }
            if let ScopeKind::Frame { module, .. } = kind {
                referenced[1][module.index()] = true;
            }
            // Twice: the second translation finds every slot filled.
            assert_eq!(translation.kind(&kind), translation.kind(&kind));
        }
        let filled = |slots: &[u32]| slots.iter().map(|&s| s != UNSEEN).collect::<Vec<bool>>();
        assert_eq!(filled(&translation.procs), referenced[0]);
        assert_eq!(filled(&translation.modules), referenced[1]);
        assert_eq!(filled(&translation.files), referenced[2]);
        assert!(referenced
            .iter()
            .all(|r| r.contains(&false) && r.contains(&true)));
        let interned = names.proc_count() + names.module_count() + names.file_count();
        let distinct: usize = referenced.iter().flatten().filter(|&&r| r).count();
        assert_eq!(interned, distinct);
    }
}
