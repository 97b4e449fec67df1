//! The raw call path profile `hpcrun` produces: a trie over call-site
//! addresses with per-leaf sample counts, one count per hardware counter.
//!
//! Nothing here knows about loops, files or procedure names — exactly like
//! the on-disk artifact of a real sampling profiler, which records return
//! addresses and instruction pointers. All source-level meaning is
//! recovered later by `callpath-structure` + `callpath-prof`.

use crate::binary::Addr;
use crate::counters::Counter;
use crate::program::ProcIdx;

const NONE: u32 = u32::MAX;

/// Sentinel "call address" for the entry frame, which nothing called.
pub const NO_CALL: Addr = Addr::MAX;

/// Sample counts recorded at one instruction within one calling context.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafSamples {
    /// Instruction address the samples landed on.
    pub addr: Addr,
    /// Per-counter sample counts (fractional after post-processing such as
    /// idleness injection).
    pub counts: [f64; Counter::COUNT],
}

#[derive(Debug, Clone, PartialEq)]
struct RawNode {
    /// Address of the call instruction that created this frame.
    call_addr: Addr,
    /// The procedure entered (resolvable from the call target; carried
    /// directly for convenience).
    callee: ProcIdx,
    parent: u32,
    first_child: u32,
    last_child: u32,
    next_sibling: u32,
    leaves: Vec<LeafSamples>,
}

/// Raw profile trie. Node 0 is a synthetic root.
#[derive(Debug, Clone, PartialEq)]
pub struct RawProfile {
    nodes: Vec<RawNode>,
}

/// Handle to a trie node.
pub type RawNodeId = u32;

impl Default for RawProfile {
    fn default() -> Self {
        Self::new()
    }
}

impl RawProfile {
    /// An empty profile (just the synthetic root).
    pub fn new() -> Self {
        RawProfile {
            nodes: vec![RawNode {
                call_addr: NO_CALL,
                callee: usize::MAX,
                parent: NONE,
                first_child: NONE,
                last_child: NONE,
                next_sibling: NONE,
                leaves: Vec::new(),
            }],
        }
    }

    /// The synthetic root node.
    pub fn root(&self) -> RawNodeId {
        0
    }

    /// Number of trie nodes (including the root).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Find or create the child frame of `parent` entered through the call
    /// at `call_addr` into `callee`.
    pub fn frame(&mut self, parent: RawNodeId, call_addr: Addr, callee: ProcIdx) -> RawNodeId {
        let mut cur = self.nodes[parent as usize].first_child;
        while cur != NONE {
            let n = &self.nodes[cur as usize];
            if n.call_addr == call_addr && n.callee == callee {
                return cur;
            }
            cur = n.next_sibling;
        }
        let id = u32::try_from(self.nodes.len()).expect("raw profile overflow");
        self.nodes.push(RawNode {
            call_addr,
            callee,
            parent,
            first_child: NONE,
            last_child: NONE,
            next_sibling: NONE,
            leaves: Vec::new(),
        });
        let p = &mut self.nodes[parent as usize];
        if p.first_child == NONE {
            p.first_child = id;
        } else {
            let last = p.last_child;
            self.nodes[last as usize].next_sibling = id;
        }
        self.nodes[parent as usize].last_child = id;
        id
    }

    /// Record `count` samples of `counter` at instruction `addr` within
    /// frame `node`.
    pub fn add_samples(&mut self, node: RawNodeId, addr: Addr, counter: Counter, count: f64) {
        let leaves = &mut self.nodes[node as usize].leaves;
        if let Some(l) = leaves.iter_mut().find(|l| l.addr == addr) {
            l.counts[counter as usize] += count;
        } else {
            let mut counts = [0.0; Counter::COUNT];
            counts[counter as usize] = count;
            leaves.push(LeafSamples { addr, counts });
        }
    }

    /// Insert a whole call path (call addresses outermost-first, paired
    /// with their callees) and record samples at its leaf instruction.
    pub fn add_path(
        &mut self,
        path: &[(Addr, ProcIdx)],
        leaf_addr: Addr,
        counter: Counter,
        count: f64,
    ) -> RawNodeId {
        let mut cur = self.root();
        for &(call_addr, callee) in path {
            cur = self.frame(cur, call_addr, callee);
        }
        self.add_samples(cur, leaf_addr, counter, count);
        cur
    }

    /// Child frames of `node`, in insertion order.
    pub fn children(&self, node: RawNodeId) -> Vec<RawNodeId> {
        let mut out = Vec::new();
        let mut cur = self.nodes[node as usize].first_child;
        while cur != NONE {
            out.push(cur);
            cur = self.nodes[cur as usize].next_sibling;
        }
        out
    }

    /// Call-site address that created frame `node`.
    pub fn call_addr(&self, node: RawNodeId) -> Addr {
        self.nodes[node as usize].call_addr
    }

    /// The procedure frame `node` entered.
    pub fn callee(&self, node: RawNodeId) -> ProcIdx {
        self.nodes[node as usize].callee
    }

    /// Samples recorded at instructions within frame `node`.
    pub fn leaves(&self, node: RawNodeId) -> &[LeafSamples] {
        &self.nodes[node as usize].leaves
    }

    /// Total sample count for a counter over the whole profile.
    pub fn total_samples(&self, counter: Counter) -> f64 {
        self.nodes
            .iter()
            .flat_map(|n| n.leaves.iter())
            .map(|l| l.counts[counter as usize])
            .sum()
    }

    /// Merge another profile into this one (used to fold per-rank or
    /// per-thread profiles together).
    pub fn merge(&mut self, other: &RawProfile) {
        self.merge_subtree(self.root(), other, other.root());
    }

    fn merge_subtree(&mut self, into: RawNodeId, other: &RawProfile, from: RawNodeId) {
        // Copy leaves.
        let leaves: Vec<LeafSamples> = other.leaves(from).to_vec();
        for l in leaves {
            for c in Counter::ALL {
                if l.counts[c as usize] != 0.0 {
                    self.add_samples(into, l.addr, c, l.counts[c as usize]);
                }
            }
        }
        for child in other.children(from) {
            let mapped = self.frame(into, other.call_addr(child), other.callee(child));
            self.merge_subtree(mapped, other, child);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_deduplicates() {
        let mut p = RawProfile::new();
        let a = p.frame(p.root(), 10, 1);
        let b = p.frame(p.root(), 10, 1);
        assert_eq!(a, b);
        let c = p.frame(p.root(), 11, 1);
        assert_ne!(a, c);
        assert_eq!(p.node_count(), 3);
    }

    #[test]
    fn samples_accumulate_per_leaf() {
        let mut p = RawProfile::new();
        let f = p.frame(p.root(), NO_CALL, 0);
        p.add_samples(f, 5, Counter::Cycles, 2.0);
        p.add_samples(f, 5, Counter::Cycles, 3.0);
        p.add_samples(f, 6, Counter::Cycles, 1.0);
        p.add_samples(f, 5, Counter::FpOps, 4.0);
        assert_eq!(p.leaves(f).len(), 2);
        assert_eq!(p.total_samples(Counter::Cycles), 6.0);
        assert_eq!(p.total_samples(Counter::FpOps), 4.0);
    }

    #[test]
    fn add_path_builds_trie() {
        let mut p = RawProfile::new();
        p.add_path(&[(NO_CALL, 0), (3, 1), (7, 2)], 9, Counter::Cycles, 1.0);
        p.add_path(&[(NO_CALL, 0), (3, 1), (7, 2)], 9, Counter::Cycles, 1.0);
        p.add_path(&[(NO_CALL, 0), (4, 2)], 8, Counter::Cycles, 1.0);
        // root -> main(0) -> {callee1 -> callee2, callee2}
        assert_eq!(p.node_count(), 1 + 1 + 2 + 1);
        assert_eq!(p.total_samples(Counter::Cycles), 3.0);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = RawProfile::new();
        a.add_path(&[(NO_CALL, 0), (3, 1)], 5, Counter::Cycles, 2.0);
        let mut b = RawProfile::new();
        b.add_path(&[(NO_CALL, 0), (3, 1)], 5, Counter::Cycles, 3.0);
        b.add_path(&[(NO_CALL, 0), (9, 2)], 11, Counter::L1DcMisses, 1.0);
        a.merge(&b);
        assert_eq!(a.total_samples(Counter::Cycles), 5.0);
        assert_eq!(a.total_samples(Counter::L1DcMisses), 1.0);
        // Shared path nodes were not duplicated.
        assert_eq!(a.node_count(), 1 + 1 + 2);
    }

    #[test]
    fn merge_is_commutative_in_totals() {
        let mut a = RawProfile::new();
        a.add_path(&[(NO_CALL, 0)], 1, Counter::Cycles, 1.0);
        let mut b = RawProfile::new();
        b.add_path(&[(NO_CALL, 0), (2, 1)], 3, Counter::Cycles, 2.0);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(
            ab.total_samples(Counter::Cycles),
            ba.total_samples(Counter::Cycles)
        );
        assert_eq!(ab.node_count(), ba.node_count());
    }
}
