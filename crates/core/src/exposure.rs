//! Exposed-instance analysis for recursion-correct aggregation
//! (Section IV-B).
//!
//! When the Callers View or Flat View aggregates the inclusive costs of a
//! set of CCT instances of the same static object, naively summing them
//! counts a chain of recursive activations multiple times (the inclusive
//! cost of an outer activation already contains the inner ones). The paper
//! defines an instance as **exposed** if it has no ancestor instance of the
//! same object, and sums only exposed instances.
//!
//! Fig. 2b refines this to *set-relative* exposure: the Callers-View node
//! `g←g` aggregates only `g2`, whose ancestor `g1` is not part of that
//! node's instance set, so `g2` counts there even though it is not globally
//! exposed. Two routines decide it, neither of which walks an instance's
//! ancestors to the root:
//!
//! * [`exposed_on_entry`], for sets that partition the frames by a key
//!   (a procedure, a file, a load module): one depth-first pass with a
//!   counter per key of how many of its activations are on the stack
//!   decides every set at once — what the views do when they are built;
//! * [`Marks`], for an arbitrary set: stamp its members into an array over
//!   the CCT and climb from an instance to the first stamped ancestor,
//!   leaving the answer on the nodes passed, so that a set costs the union
//!   of its members' chains — what an expansion does.

use crate::cct::Cct;
use crate::ids::NodeId;
use crate::topo::Topo;

/// Return the subset of `instances` that have no proper ancestor also in
/// `instances`. Order of the result follows the input order.
pub fn exposed(cct: &Cct, instances: &[NodeId]) -> Vec<NodeId> {
    if instances.len() <= 1 {
        return instances.to_vec();
    }
    let topo = cct.topo();
    let mut marks = Marks::default();
    marks.stamp(topo, instances.iter().copied());
    instances
        .iter()
        .copied()
        .filter(|&n| marks.is_exposed(topo, n))
        .collect()
}

/// One depth-first pass over the CCT for sets given by keys: `keys(n)` names
/// the `K` sets node `n` is a member of (dense ids below `n_keys`), or
/// `None` for a node in none. Bit `k` of the result at `n` says that `n`
/// is exposed in its `k`-th set: no activation of that key was on the
/// stack when `n` was entered.
pub(crate) fn exposed_on_entry<const K: usize>(
    topo: Topo<'_>,
    n_keys: usize,
    keys: impl Fn(NodeId) -> Option<[u32; K]>,
) -> Vec<u8> {
    let mut on_stack = vec![0u32; n_keys];
    let mut bits = vec![0u8; topo.len()];
    topo.walk(|n, entering| {
        let Some(keys) = keys(n) else { return };
        for (k, &key) in keys.iter().enumerate() {
            let count = &mut on_stack[key as usize];
            if !entering {
                // Saturating: see `Topo::walk` on corrupt images.
                *count = count.saturating_sub(1);
                continue;
            }
            if *count == 0 {
                bits[n.index()] |= 1 << k;
            }
            *count += 1;
        }
    });
    bits
}

const MEMBER: u32 = 1;
/// Not a member, and no member above.
const CLEAR: u32 = 2;
/// Not a member, below one.
const BELOW: u32 = 3;

/// Scratch marks over the nodes of one CCT for set-relative exposure
/// queries, reused from set to set: a mark is stale, whatever it says,
/// unless it carries the current set's epoch.
#[derive(Debug, Clone, Default)]
pub(crate) struct Marks {
    /// `epoch + state` per CCT node; epochs are multiples of 4.
    marks: Vec<u32>,
    epoch: u32,
}

impl Marks {
    /// Start on a new set: stamp its members.
    pub(crate) fn stamp(&mut self, topo: Topo<'_>, set: impl IntoIterator<Item = NodeId>) {
        if self.marks.len() != topo.len() || self.epoch > u32::MAX - 8 {
            self.marks = vec![0; topo.len()];
            self.epoch = 0;
        }
        self.epoch += 4;
        for n in set {
            self.marks[n.index()] = self.epoch + MEMBER;
        }
    }

    fn state(&self, n: NodeId) -> u32 {
        self.marks[n.index()].wrapping_sub(self.epoch)
    }

    /// Has `n` no proper ancestor in the stamped set? Climbs to the first
    /// ancestor that is stamped or was passed by an earlier climb, then
    /// leaves the answer on the ancestors in between.
    pub(crate) fn is_exposed(&mut self, topo: Topo<'_>, n: NodeId) -> bool {
        let decided = topo
            .ancestors(n)
            .find(|&a| matches!(self.state(a), MEMBER | CLEAR | BELOW));
        let exposed = decided.is_none_or(|a| self.state(a) == CLEAR);
        let mark = self.epoch + if exposed { CLEAR } else { BELOW };
        for a in topo.ancestors(n).take_while(|&a| Some(a) != decided) {
            self.marks[a.index()] = mark;
        }
        exposed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FileId, LoadModuleId, ProcId};
    use crate::names::{NameTable, SourceLoc};
    use crate::scope::ScopeKind;

    fn frame(proc: u32) -> ScopeKind {
        ScopeKind::Frame {
            proc: ProcId(proc),
            module: LoadModuleId(0),
            def: SourceLoc::new(FileId(0), 1),
            call_site: Some(SourceLoc::new(FileId(0), 2)),
        }
    }

    /// m → g1 → g2 → g3 (recursive chain) and m → g4 (separate branch).
    fn recursive_cct() -> (Cct, Vec<NodeId>) {
        let mut cct = Cct::new(NameTable::new());
        let root = cct.root();
        let m = cct.add_child(root, frame(0));
        let g1 = cct.add_child(m, frame(1));
        let g2 = cct.add_child(g1, frame(1));
        let g3 = cct.add_child(g2, frame(1));
        let g4 = cct.add_child(m, frame(1));
        (cct, vec![g1, g2, g3, g4])
    }

    #[test]
    fn exposed_filters_nested_instances() {
        let (cct, gs) = recursive_cct();
        let e = exposed(&cct, &gs);
        assert_eq!(e, vec![gs[0], gs[3]], "g1 and g4 are exposed");
    }

    #[test]
    fn set_relative_exposure() {
        let (cct, gs) = recursive_cct();
        // Only {g2, g3}: g2's ancestor g1 is NOT in the set, so g2 counts;
        // g3's ancestor g2 IS in the set, so g3 does not.
        let e = exposed(&cct, &[gs[1], gs[2]]);
        assert_eq!(e, vec![gs[1]]);
    }

    #[test]
    fn singleton_always_exposed() {
        let (cct, gs) = recursive_cct();
        assert_eq!(exposed(&cct, &[gs[2]]), vec![gs[2]]);
        assert_eq!(exposed(&cct, &[]), Vec::<NodeId>::new());
    }

    #[test]
    fn unrelated_instances_all_exposed() {
        let mut cct = Cct::new(NameTable::new());
        let root = cct.root();
        let a = cct.add_child(root, frame(0));
        let b = cct.add_child(root, frame(0));
        let c = cct.add_child(root, frame(0));
        let e = exposed(&cct, &[a, b, c]);
        assert_eq!(e.len(), 3);
    }

    #[test]
    fn one_pass_decides_every_keyed_set() {
        let (cct, gs) = recursive_cct();
        // Key 0: procedure m; key 1: procedure g.
        let bits = exposed_on_entry(cct.topo(), 2, |n| match cct.kind(n) {
            ScopeKind::Frame { proc, .. } => Some([proc.0]),
            _ => None,
        });
        let kept: Vec<NodeId> = gs
            .iter()
            .copied()
            .filter(|g| bits[g.index()] == 1)
            .collect();
        assert_eq!(kept, exposed(&cct, &gs));
        assert_eq!(bits[1], 1, "m, the only activation of its procedure");
        assert_eq!(bits[0], 0, "the root has no key");
    }

    #[test]
    fn marks_answer_set_after_set_without_clearing() {
        let (cct, gs) = recursive_cct();
        let mut marks = Marks::default();
        marks.stamp(cct.topo(), gs.iter().copied());
        assert!(marks.is_exposed(cct.topo(), gs[0]));
        assert!(!marks.is_exposed(cct.topo(), gs[2]));
        // The next set sees none of the first one's stamps or answers.
        marks.stamp(cct.topo(), gs[2..].iter().copied());
        assert!(
            marks.is_exposed(cct.topo(), gs[2]),
            "g3: g1, g2 are not members"
        );
        assert!(marks.is_exposed(cct.topo(), gs[3]));
    }

    /// A climb stops where an earlier one passed: on a chain of n
    /// activations below one member, deciding all of them marks each
    /// ancestor once — the union of the chains, not their sum.
    #[test]
    fn a_set_costs_the_union_of_its_chains() {
        let mut cct = Cct::new(NameTable::new());
        let mut chain = vec![cct.add_child(cct.root(), frame(0))];
        for _ in 0..1000 {
            chain.push(cct.add_child(*chain.last().unwrap(), frame(1)));
        }
        // The set: the two deepest activations. The climb from the upper
        // one marks the 999 above it; the lower one stops at once.
        let set = [chain[999], chain[1000]];
        let mut marks = Marks::default();
        marks.stamp(cct.topo(), set);
        assert!(marks.is_exposed(cct.topo(), set[0]));
        let marked = marks.marks.iter().filter(|&&m| m != 0).count();
        assert_eq!(marked, 2 + 999 + 1, "members, chain, root");
        assert!(!marks.is_exposed(cct.topo(), set[1]));
        let again = marks.marks.iter().filter(|&&m| m != 0).count();
        assert_eq!(again, marked, "nothing new to mark");
    }
}
