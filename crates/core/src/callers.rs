//! The Callers View: a bottom-up view that lets the analyst look upward
//! along call paths (Section III-B).
//!
//! Each top-level entry aggregates one procedure over *all* of its calling
//! contexts; expanding an entry walks up the call chain, apportioning the
//! procedure's costs among the contexts in which they were incurred.
//! Recursion is handled with set-exposed aggregation (Section IV-B): the
//! top-level entry for a recursive `g` counts only activations with no
//! `g` ancestor, while the `g←g` child counts the activations whose
//! *immediate* caller is `g`.
//!
//! Construction is **lazy** by default — the paper calls this out as a
//! scalability feature ("the Callers View is constructed dynamically...
//! we store and process data only when needed", Section VII). Top-level
//! entries are built from two passes over the CCT — frames bucketed by
//! procedure in node order, then one depth-first walk that decides every
//! entry's exposed activations at once; children materialize on first
//! expansion, numbers on the first read of their column
//! ([`ViewTree::value`]). `CallersView::fully_expand` provides the eager
//! variant the lazy-vs-eager tests compare against.

use crate::experiment::Experiment;
use crate::exposure::exposed_on_entry;
use crate::ids::{NodeId, ProcId, ViewNodeId};
use crate::scope::ScopeKind;
use crate::viewtree::{ViewScope, ViewTree};
use std::collections::HashMap;

const NONE: u32 = u32::MAX;

/// Bottom-up (callers) view over an experiment.
#[derive(Debug, Clone)]
pub struct CallersView {
    /// The materialized view nodes and their metric columns.
    pub tree: ViewTree,
    /// For each caller line, one "cursor" per aggregated instance, in
    /// ascending instance order: the CCT frame whose caller determines
    /// the next grouping level; each expansion moves every cursor one
    /// caller up. A top-level entry stores none: its cursors are its
    /// instances.
    cursors: Vec<Vec<NodeId>>,
}

/// A caller line [`CallersView::expand`] is gathering: its instances,
/// ascending, each with whether the expanded node kept it, and their
/// cursors.
struct Line {
    scope: ViewScope,
    members: Vec<(NodeId, bool)>,
    cursors: Vec<NodeId>,
}

impl CallersView {
    /// Build the top-level entries (one per procedure with at least one
    /// dynamic activation). Children are materialized on demand via
    /// [`CallersView::expand`].
    pub fn build(exp: &Experiment) -> Self {
        let topo = exp.cct.topo();
        let mut tree = ViewTree::new(exp);
        // Entries in first-appearance order, instances ascending: both
        // follow from walking the arena in node order.
        let mut entries: HashMap<ProcId, ViewNodeId> = HashMap::new();
        let mut entry_of = vec![NONE; topo.len()];
        for n in exp.cct.all_nodes().filter(|&n| topo.is_proc_frame(n)) {
            if let ScopeKind::Frame { proc, .. } = topo.kind(n) {
                let entry = entries
                    .entry(proc)
                    .or_insert_with(|| tree.add_root(ViewScope::ProcTop { proc }));
                entry_of[n.index()] = entry.0;
            }
        }
        let entry = |n: NodeId| Some(entry_of[n.index()]).filter(|&e| e != NONE);
        let exposed = exposed_on_entry(topo, tree.len(), |n| entry(n).map(|e| [e]));
        for n in exp.cct.all_nodes() {
            if let Some(e) = entry(n) {
                tree.push_instance(ViewNodeId(e), n, exposed[n.index()] != 0);
            }
        }
        CallersView {
            cursors: vec![Vec::new(); tree.len()],
            tree,
        }
    }

    /// `(instance, cursor, kept)` for every instance `n` aggregates,
    /// ascending by instance.
    fn instances(&self, n: ViewNodeId) -> Vec<(NodeId, NodeId, bool)> {
        let (kept, covered) = (self.tree.kept(n), self.tree.covered(n));
        let mut all: Vec<(NodeId, bool)> = kept.iter().map(|&i| (i, true)).collect();
        if !covered.is_empty() {
            all.extend(covered.iter().map(|&i| (i, false)));
            all.sort_unstable_by_key(|&(i, _)| i);
        }
        let cursors = &self.cursors[n.index()];
        all.into_iter()
            .enumerate()
            .map(|(at, (i, kept))| (i, *cursors.get(at).unwrap_or(&i), kept))
            .collect()
    }

    /// Materialize the children of `n` if not yet done.
    pub fn expand(&mut self, exp: &Experiment, n: ViewNodeId) {
        if self.tree.is_expanded(n) {
            return;
        }
        self.tree.mark_expanded(n);
        let topo = exp.cct.topo();
        // Group the instances by their cursor's caller frame:
        // key = (caller procedure, call site of the cursor activation),
        // lines in first-appearance order.
        let mut lines: Vec<Line> = Vec::new();
        let mut line_of: HashMap<ViewScope, usize> = HashMap::new();
        for (inst, cursor, kept) in self.instances(n) {
            let Some(caller) = topo.caller_frame(cursor) else {
                continue; // top-level activation (e.g. main): no caller line
            };
            let ScopeKind::Frame {
                proc: caller_proc, ..
            } = topo.kind(caller)
            else {
                unreachable!("caller_frame returns dynamic frames only");
            };
            let call_site = match topo.kind(cursor) {
                ScopeKind::Frame { call_site, .. } => call_site,
                _ => None,
            };
            let scope = ViewScope::Caller {
                proc: caller_proc,
                call_site,
            };
            let at = *line_of.entry(scope).or_insert_with(|| {
                lines.push(Line {
                    scope,
                    members: Vec::new(),
                    cursors: Vec::new(),
                });
                lines.len() - 1
            });
            lines[at].members.push((inst, kept));
            lines[at].cursors.push(caller);
        }
        let first_new = self.tree.len();
        for line in lines {
            let child = self.tree.add_child(n, line.scope);
            self.tree.set_instances(topo, child, &line.members);
            debug_assert_eq!(child.index(), self.cursors.len());
            self.cursors.push(line.cursors);
        }
        self.tree.fill_new_nodes(exp, first_new);
    }

    /// Expand every reachable node — the eager, non-scalable variant of
    /// the lazy-vs-eager ablation of Section VII (terminates because each
    /// level moves every cursor strictly closer to the root).
    pub fn fully_expand(&mut self, exp: &Experiment) {
        let mut stack: Vec<ViewNodeId> = self.tree.roots();
        while let Some(n) = stack.pop() {
            self.expand(exp, n);
            stack.extend(self.tree.children(n));
        }
    }

    /// Children of `n`, materializing them first if needed.
    pub fn children_of(&mut self, exp: &Experiment, n: ViewNodeId) -> Vec<ViewNodeId> {
        self.expand(exp, n);
        self.tree.children(n)
    }

    /// A node can expand if any aggregated activation still has a caller.
    pub fn can_expand(&self, exp: &Experiment, n: ViewNodeId) -> bool {
        if self.tree.is_expanded(n) {
            return self.tree.has_children(n);
        }
        // A top-level entry's cursors are its instances.
        let is_entry = self.tree.parent(n).is_none();
        let (kept, covered) = (self.tree.kept(n), self.tree.covered(n));
        let instances = kept.iter().chain(covered).filter(|_| is_entry);
        let mut cursors = self.cursors[n.index()].iter().chain(instances);
        let topo = exp.cct.topo();
        cursors.any(|&c| topo.caller_frame(c).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ColumnId, FileId};
    use crate::metrics::{MetricDesc, RawMetrics, StorageKind};
    use crate::names::{NameTable, SourceLoc};

    /// Build the Fig. 1 program's CCT by hand (same shape the golden
    /// integration test uses; duplicated here in miniature so unit tests
    /// stay self-contained).
    fn fig1_experiment() -> (Experiment, Vec<&'static str>) {
        let mut names = NameTable::new();
        let file1 = names.file("file1.c");
        let file2 = names.file("file2.c");
        let module = names.module("a.out");
        let p_m = names.proc("m");
        let p_f = names.proc("f");
        let p_g = names.proc("g");
        let p_h = names.proc("h");
        let mut cct = crate::cct::Cct::new(names);
        let root = cct.root();
        let frame = |proc, def: (FileId, u32), cs: Option<(FileId, u32)>| ScopeKind::Frame {
            proc,
            module,
            def: SourceLoc::new(def.0, def.1),
            call_site: cs.map(|(f, l)| SourceLoc::new(f, l)),
        };
        let m = cct.add_child(root, frame(p_m, (file1, 6), None));
        let f = cct.add_child(m, frame(p_f, (file1, 1), Some((file1, 7))));
        let g1 = cct.add_child(f, frame(p_g, (file2, 2), Some((file1, 2))));
        let g2 = cct.add_child(g1, frame(p_g, (file2, 2), Some((file2, 3))));
        let h = cct.add_child(g2, frame(p_h, (file2, 7), Some((file2, 4))));
        let l1 = cct.add_child(
            h,
            ScopeKind::Loop {
                header: SourceLoc::new(file2, 8),
            },
        );
        let l2 = cct.add_child(
            l1,
            ScopeKind::Loop {
                header: SourceLoc::new(file2, 9),
            },
        );
        let g3 = cct.add_child(m, frame(p_g, (file2, 2), Some((file1, 8))));
        let stmt = |cct: &mut crate::cct::Cct, p, file, line| {
            cct.add_child(
                p,
                ScopeKind::Stmt {
                    loc: SourceLoc::new(file, line),
                },
            )
        };
        let s_f = stmt(&mut cct, f, file1, 2);
        let s_g1 = stmt(&mut cct, g1, file2, 3);
        let s_g2 = stmt(&mut cct, g2, file2, 4);
        let s_g3 = stmt(&mut cct, g3, file2, 3);
        let s_l2 = stmt(&mut cct, l2, file2, 9);

        let mut raw = RawMetrics::new(StorageKind::Csr);
        let cyc = raw.add_metric(MetricDesc::new("cost", "samples", 1.0));
        raw.add_cost(cyc, s_f, 1.0);
        raw.add_cost(cyc, s_g1, 1.0);
        raw.add_cost(cyc, s_g2, 1.0);
        raw.add_cost(cyc, s_g3, 3.0);
        raw.add_cost(cyc, s_l2, 4.0);
        (
            Experiment::build(cct, raw, StorageKind::Csr),
            vec!["m", "f", "g", "h"],
        )
    }

    fn value(view: &CallersView, exp: &Experiment, n: ViewNodeId, col: u32) -> f64 {
        view.tree.value(exp, ColumnId(col), n)
    }

    fn find_root(view: &CallersView, exp: &Experiment, name: &str) -> ViewNodeId {
        view.tree
            .roots()
            .into_iter()
            .find(|&r| view.tree.label(r, &exp.cct.names) == name)
            .unwrap_or_else(|| panic!("no root named {name}"))
    }

    #[test]
    fn top_level_matches_fig2b() {
        let (exp, _) = fig1_experiment();
        let view = CallersView::build(&exp);
        // Roots: m, f, g, h (first-appearance order in the CCT).
        let labels: Vec<String> = view
            .tree
            .roots()
            .iter()
            .map(|&r| view.tree.label(r, &exp.cct.names))
            .collect();
        assert_eq!(labels, vec!["m", "f", "g", "h"]);

        let ga = find_root(&view, &exp, "g");
        assert_eq!(
            value(&view, &exp, ga, 0),
            9.0,
            "ga inclusive: exposed g1+g3"
        );
        assert_eq!(value(&view, &exp, ga, 1), 4.0, "ga exclusive: exposed 1+3");
        let fa = find_root(&view, &exp, "f");
        assert_eq!(value(&view, &exp, fa, 0), 7.0);
        assert_eq!(value(&view, &exp, fa, 1), 1.0);
        let ha = find_root(&view, &exp, "h");
        assert_eq!(value(&view, &exp, ha, 0), 4.0);
        assert_eq!(value(&view, &exp, ha, 1), 4.0);
        let ma = find_root(&view, &exp, "m");
        assert_eq!(value(&view, &exp, ma, 0), 10.0);
        assert_eq!(value(&view, &exp, ma, 1), 0.0);
    }

    #[test]
    fn expansion_matches_fig2b_children() {
        let (exp, _) = fig1_experiment();
        let mut view = CallersView::build(&exp);
        let ga = find_root(&view, &exp, "g");
        let kids = view.children_of(&exp, ga);
        let kid_labels: Vec<String> = kids
            .iter()
            .map(|&k| view.tree.label(k, &exp.cct.names))
            .collect();
        // Callers of g: f (g1), g (g2), m (g3) — first-appearance order.
        assert_eq!(kid_labels, vec!["f", "g", "m"]);
        assert_eq!(value(&view, &exp, kids[0], 0), 6.0, "g←f = g1 (6,1)");
        assert_eq!(value(&view, &exp, kids[0], 1), 1.0);
        assert_eq!(value(&view, &exp, kids[1], 0), 5.0, "g←g = g2 (5,1)");
        assert_eq!(value(&view, &exp, kids[1], 1), 1.0);
        assert_eq!(value(&view, &exp, kids[2], 0), 3.0, "g←m = g3 (3,3)");
        assert_eq!(value(&view, &exp, kids[2], 1), 3.0);

        // Grandchildren: g←g←f = (5,1), then g←g←f←m = (5,1).
        let gg = kids[1];
        let gg_kids = view.children_of(&exp, gg);
        assert_eq!(gg_kids.len(), 1);
        assert_eq!(view.tree.label(gg_kids[0], &exp.cct.names), "f");
        assert_eq!(value(&view, &exp, gg_kids[0], 0), 5.0);
        assert_eq!(value(&view, &exp, gg_kids[0], 1), 1.0);
        let ggf_kids = view.children_of(&exp, gg_kids[0]);
        assert_eq!(ggf_kids.len(), 1);
        assert_eq!(view.tree.label(ggf_kids[0], &exp.cct.names), "m");
        assert_eq!(value(&view, &exp, ggf_kids[0], 0), 5.0);
    }

    #[test]
    fn m_has_no_callers() {
        let (exp, _) = fig1_experiment();
        let mut view = CallersView::build(&exp);
        let ma = find_root(&view, &exp, "m");
        assert!(!view.can_expand(&exp, ma));
        assert!(view.children_of(&exp, ma).is_empty());
    }

    #[test]
    fn lazy_build_creates_only_top_level() {
        let (exp, procs) = fig1_experiment();
        let view = CallersView::build(&exp);
        assert_eq!(view.tree.len(), procs.len(), "no children materialized");
        let mut eager = view.clone();
        eager.fully_expand(&exp);
        assert!(eager.tree.len() > procs.len());
    }

    #[test]
    fn eager_matches_fig2b_node_count() {
        let (exp, _) = fig1_experiment();
        let mut eager = CallersView::build(&exp);
        eager.fully_expand(&exp);
        // Fig. 2b has 15 nodes: ga..gd, fa..fd, ma..me, m, h.
        assert_eq!(eager.tree.len(), 15);
    }

    #[test]
    fn expansion_is_idempotent() {
        let (exp, _) = fig1_experiment();
        let mut view = CallersView::build(&exp);
        let ga = find_root(&view, &exp, "g");
        let a = view.children_of(&exp, ga);
        let b = view.children_of(&exp, ga);
        assert_eq!(a, b);
        let len = view.tree.len();
        view.expand(&exp, ga);
        assert_eq!(view.tree.len(), len);
    }

    #[test]
    fn h_chain_carries_constant_cost() {
        let (exp, _) = fig1_experiment();
        let mut view = CallersView::build(&exp);
        let ha = find_root(&view, &exp, "h");
        // h ← g ← g ← f ← m, all (4,4)...(4,4) with exclusive 4 only at h.
        let mut cur = ha;
        let expected_callers = ["g", "g", "f", "m"];
        for name in expected_callers {
            let kids = view.children_of(&exp, cur);
            assert_eq!(kids.len(), 1);
            assert_eq!(view.tree.label(kids[0], &exp.cct.names), name);
            assert_eq!(value(&view, &exp, kids[0], 0), 4.0);
            cur = kids[0];
        }
        assert!(view.children_of(&exp, cur).is_empty());
    }
}
