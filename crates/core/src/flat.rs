//! The Flat View: performance data correlated with static program
//! structure (Section III-C).
//!
//! All costs a procedure incurs in any calling context are aggregated onto
//! its static scope, presented in a hierarchy of load module → file →
//! procedure → loops / statements / inlined code, plus *dynamic* call-site
//! nodes that fuse a call site inside the procedure with its callee
//! (Fig. 2c's `gy/gz/gv/fy/hy` nodes).
//!
//! Aggregation is recursion-correct via set-exposed instance sums
//! (Section IV-B): `gx`'s inclusive cost in Fig. 2c is 9 — the same as the
//! Callers View top-level entry — not the 14 a naive sum over `g1,g2,g3`
//! would produce.
//!
//! The module also implements **flattening** (Section III-C): eliding a
//! layer of hierarchy so that, e.g., loops in different routines can be
//! compared directly.
//!
//! ## Lazy containers
//!
//! [`FlatView::build`] is *shell-first*, mirroring the lazy Callers View:
//! only the load-module → file → procedure skeleton is materialized
//! eagerly, each node with the activations it sums already decided by one
//! depth-first walk of the CCT; each procedure's interior — loops,
//! statements, inlined bodies, and fused call-site nodes — is filled on
//! first expand from the CCT instances recorded on the node, and numbers
//! on the first read of their column ([`ViewTree::value`]). Container
//! metrics don't depend on the deferred children (a file's exclusive sums
//! its child *procedures'* exclusives), so the shell's numbers are final.
//! [`FlatView::flatten_once`]/[`FlatView::flatten`] force fills on
//! demand, so flattening descends through interiors not yet filled.

use crate::experiment::Experiment;
use crate::exposure::exposed_on_entry;
use crate::ids::{NodeId, ViewNodeId};
use crate::scope::ScopeKind;
use crate::viewtree::{ViewScope, ViewTree};
use std::collections::HashMap;

const NONE: u32 = u32::MAX;

/// Static (flat) view over an experiment, with lazily filled procedure
/// interiors (see the module docs).
#[derive(Debug, Clone)]
pub struct FlatView {
    /// The flat tree and its metric columns.
    pub tree: ViewTree,
}

impl FlatView {
    /// Build the Flat View shell from an experiment: module, file, and
    /// procedure nodes; everything inside procedures is deferred to
    /// [`FlatView::expand`].
    pub fn build(exp: &Experiment) -> Self {
        let topo = exp.cct.topo();
        let mut tree = ViewTree::new(exp);

        // (parent, scope) -> node index, to avoid quadratic sibling scans.
        let mut index: HashMap<(Option<ViewNodeId>, ViewScope), ViewNodeId> = HashMap::new();
        let mut node_at =
            |tree: &mut ViewTree, parent: Option<ViewNodeId>, scope: ViewScope| -> ViewNodeId {
                *index
                    .entry((parent, scope))
                    .or_insert_with(|| match parent {
                        Some(p) => tree.add_child(p, scope),
                        None => tree.add_root(scope),
                    })
            };

        // Shell nodes in first-appearance order: the arena in node order.
        let mut procedure_of = vec![NONE; topo.len()];
        for n in exp.cct.all_nodes().filter(|&n| topo.is_proc_frame(n)) {
            if let ScopeKind::Frame {
                proc, module, def, ..
            } = topo.kind(n)
            {
                let m_node = node_at(&mut tree, None, ViewScope::Module { module });
                let f_node = node_at(&mut tree, Some(m_node), ViewScope::File { file: def.file });
                let p_node = node_at(&mut tree, Some(f_node), ViewScope::Procedure { proc });
                procedure_of[n.index()] = p_node.0;
            }
        }

        // A frame is an instance of its procedure, file and module nodes.
        let containers = |tree: &ViewTree, n: NodeId| {
            let p = Some(procedure_of[n.index()]).filter(|&p| p != NONE)?;
            let f = tree.parent(ViewNodeId(p))?;
            let m = tree.parent(f)?;
            Some([p, f.0, m.0])
        };
        let exposed = exposed_on_entry(topo, tree.len(), |n| containers(&tree, n));
        for n in exp.cct.all_nodes() {
            let Some([p, f, m]) = containers(&tree, n) else {
                continue;
            };
            let bits = exposed[n.index()];
            tree.push_instance(ViewNodeId(p), n, bits & 1 != 0);
            // The skeleton's child sets are complete — a module only ever
            // contains files, a file only procedures — so nothing will
            // ask them for the instances their values leave out.
            for (container, bit) in [(f, 2), (m, 4)] {
                if bits & bit != 0 {
                    tree.push_instance(ViewNodeId(container), n, true);
                }
            }
        }
        // Only procedure interiors stay lazy.
        for v in (0..tree.len() as u32).map(ViewNodeId) {
            if !matches!(tree.scope(v), ViewScope::Procedure { .. }) {
                tree.mark_expanded(v);
            }
        }
        FlatView { tree }
    }

    /// Materialize `v`'s children if they haven't been yet. Idempotent.
    ///
    /// Children are derived from the CCT children of `v`'s instances,
    /// visited in ascending CCT-node order — exactly the order a one-pass
    /// build of the whole tree would have created them in, so the tree
    /// comes out the same (per parent, in order) whatever is expanded
    /// when. Every child of `v` is made here, so a map local to the call
    /// finds a row's scope among its siblings.
    pub fn expand(&mut self, exp: &Experiment, v: ViewNodeId) {
        if self.tree.is_expanded(v) {
            return;
        }
        self.tree.mark_expanded(v);
        // Call-site nodes fuse a call site with its callee and stay
        // leaves: the callee's breakdown lives under the callee's own
        // procedure node.
        if matches!(self.tree.scope(v), ViewScope::CallSite { .. }) {
            return;
        }

        let topo = exp.cct.topo();
        // (CCT child, its scope, whether `v` keeps its parent).
        let mut pending: Vec<(NodeId, ViewScope, bool)> = Vec::new();
        for (instances, kept) in [(self.tree.kept(v), true), (self.tree.covered(v), false)] {
            for &i in instances {
                for c in topo.children(i) {
                    let scope = match topo.kind(c) {
                        ScopeKind::Frame {
                            proc, call_site, ..
                        } => ViewScope::CallSite {
                            callee: proc,
                            loc: call_site,
                        },
                        ScopeKind::InlinedFrame {
                            proc, call_site, ..
                        } => ViewScope::Inlined {
                            callee: proc,
                            call_site,
                        },
                        ScopeKind::Loop { header } => ViewScope::Loop { header },
                        ScopeKind::Stmt { loc } => ViewScope::Stmt { loc },
                        // Only a corrupt image links the root as a child.
                        ScopeKind::Root => continue,
                    };
                    pending.push((c, scope, kept));
                }
            }
        }
        // Ascending CCT id = creation and instance order.
        pending.sort_unstable_by_key(|&(c, ..)| c);

        let first_new = self.tree.len();
        let mut row_of: HashMap<ViewScope, usize> = HashMap::new();
        let mut members: Vec<Vec<(NodeId, bool)>> = Vec::new();
        for (c, scope, parent_kept) in pending {
            let at = *row_of.entry(scope).or_insert_with(|| {
                self.tree.add_child(v, scope);
                members.push(Vec::new());
                members.len() - 1
            });
            members[at].push((c, parent_kept));
        }
        for (at, members) in members.iter().enumerate() {
            let child = ViewNodeId((first_new + at) as u32);
            self.tree.set_instances(topo, child, members);
        }
        self.tree.fill_new_nodes(exp, first_new);
    }

    /// Children of `v`, materializing them on first use.
    pub fn children_of(&mut self, exp: &Experiment, v: ViewNodeId) -> Vec<ViewNodeId> {
        self.expand(exp, v);
        self.tree.children(v)
    }

    /// Could `v` have children, without forcing a fill? (Used for the
    /// collapsed-row expansion marker.)
    pub fn can_expand(&self, exp: &Experiment, v: ViewNodeId) -> bool {
        if matches!(self.tree.scope(v), ViewScope::CallSite { .. }) {
            return false;
        }
        if self.tree.is_expanded(v) {
            return self.tree.has_children(v);
        }
        let topo = exp.cct.topo();
        let instances = self.tree.kept(v).iter().chain(self.tree.covered(v));
        instances
            .into_iter()
            .any(|&i| topo.first_child(i).is_some())
    }

    /// Force every deferred fill (the eager tree).
    pub fn force_all(&mut self, exp: &Experiment) {
        let mut stack = self.tree.roots();
        while let Some(n) = stack.pop() {
            self.expand(exp, n);
            stack.extend(self.tree.children(n));
        }
    }

    /// One flattening step: replace every scope in `current` that has
    /// children with its children; childless scopes stay. Scopes are
    /// expanded first, so flattening descends through not-yet-filled
    /// procedure interiors. Repeated application strips successive layers
    /// of hierarchy so that, e.g., all loops across all routines end up
    /// side by side for direct comparison (Fig. 6).
    pub fn flatten_once(&mut self, exp: &Experiment, current: &[ViewNodeId]) -> Vec<ViewNodeId> {
        let mut out = Vec::with_capacity(current.len());
        for &n in current {
            let kids = self.children_of(exp, n);
            if kids.is_empty() {
                out.push(n);
            } else {
                out.extend(kids);
            }
        }
        out
    }

    /// Apply [`FlatView::flatten_once`] `times` times, stopping early at a
    /// fixed point.
    pub fn flatten(
        &mut self,
        exp: &Experiment,
        roots: &[ViewNodeId],
        times: usize,
    ) -> Vec<ViewNodeId> {
        let mut cur = roots.to_vec();
        for _ in 0..times {
            let next = self.flatten_once(exp, &cur);
            if next == cur {
                break;
            }
            cur = next;
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ColumnId, FileId};
    use crate::metrics::{MetricDesc, RawMetrics, StorageKind};
    use crate::names::{NameTable, SourceLoc};

    /// Same Fig. 1 experiment as the callers tests.
    fn fig1_experiment() -> Experiment {
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
        Experiment::build(cct, raw, StorageKind::Csr)
    }

    /// The shell with every deferred fill forced: the whole tree.
    fn forced(exp: &Experiment) -> FlatView {
        let mut view = FlatView::build(exp);
        view.force_all(exp);
        view
    }

    fn val(view: &FlatView, exp: &Experiment, n: ViewNodeId, col: u32) -> f64 {
        view.tree.value(exp, ColumnId(col), n)
    }

    fn find(
        view: &FlatView,
        exp: &Experiment,
        parent: Option<ViewNodeId>,
        label: &str,
    ) -> ViewNodeId {
        let candidates = match parent {
            Some(p) => view.tree.children(p),
            None => view.tree.roots(),
        };
        candidates
            .into_iter()
            .find(|&n| view.tree.label(n, &exp.cct.names) == label)
            .unwrap_or_else(|| panic!("no node labelled {label}"))
    }

    #[test]
    fn files_match_fig2c() {
        let exp = fig1_experiment();
        let view = FlatView::build(&exp);
        let module = find(&view, &exp, None, "a.out");
        let file1 = find(&view, &exp, Some(module), "file1.c");
        let file2 = find(&view, &exp, Some(module), "file2.c");
        assert_eq!(val(&view, &exp, file1, 0), 10.0, "file1 inclusive");
        assert_eq!(val(&view, &exp, file1, 1), 1.0, "file1 exclusive");
        assert_eq!(val(&view, &exp, file2, 0), 9.0, "file2 inclusive");
        assert_eq!(
            val(&view, &exp, file2, 1),
            8.0,
            "file2 exclusive = gx.e + hx.e"
        );
        // The module spans the whole program.
        assert_eq!(val(&view, &exp, module, 0), 10.0);
        assert_eq!(val(&view, &exp, module, 1), 9.0);
    }

    #[test]
    fn procedures_match_fig2c() {
        let exp = fig1_experiment();
        let view = FlatView::build(&exp);
        let module = find(&view, &exp, None, "a.out");
        let file1 = find(&view, &exp, Some(module), "file1.c");
        let file2 = find(&view, &exp, Some(module), "file2.c");
        let gx = find(&view, &exp, Some(file2), "g");
        let hx = find(&view, &exp, Some(file2), "h");
        let fx = find(&view, &exp, Some(file1), "f");
        let mx = find(&view, &exp, Some(file1), "m");
        assert_eq!(
            (val(&view, &exp, gx, 0), val(&view, &exp, gx, 1)),
            (9.0, 4.0),
            "gx"
        );
        assert_eq!(
            (val(&view, &exp, hx, 0), val(&view, &exp, hx, 1)),
            (4.0, 4.0),
            "hx"
        );
        assert_eq!(
            (val(&view, &exp, fx, 0), val(&view, &exp, fx, 1)),
            (7.0, 1.0),
            "fx"
        );
        assert_eq!(
            (val(&view, &exp, mx, 0), val(&view, &exp, mx, 1)),
            (10.0, 0.0),
            "m"
        );
    }

    #[test]
    fn loops_match_fig2c() {
        let exp = fig1_experiment();
        let view = forced(&exp);
        let module = find(&view, &exp, None, "a.out");
        let file2 = find(&view, &exp, Some(module), "file2.c");
        let hx = find(&view, &exp, Some(file2), "h");
        let l1 = find(&view, &exp, Some(hx), "loop at file2.c:8");
        let l2 = find(&view, &exp, Some(l1), "loop at file2.c:9");
        assert_eq!(
            (val(&view, &exp, l1, 0), val(&view, &exp, l1, 1)),
            (4.0, 0.0),
            "l1"
        );
        assert_eq!(
            (val(&view, &exp, l2, 0), val(&view, &exp, l2, 1)),
            (4.0, 4.0),
            "l2"
        );
    }

    #[test]
    fn call_site_nodes_match_fig2c() {
        let exp = fig1_experiment();
        let view = forced(&exp);
        let module = find(&view, &exp, None, "a.out");
        let file1 = find(&view, &exp, Some(module), "file1.c");
        let file2 = find(&view, &exp, Some(module), "file2.c");
        let gx = find(&view, &exp, Some(file2), "g");
        let fx = find(&view, &exp, Some(file1), "f");
        let mx = find(&view, &exp, Some(file1), "m");

        // gy: call of g from f = g1 (6,1).
        let gy = view
            .tree
            .children(fx)
            .into_iter()
            .find(|&n| view.tree.scope(n).is_call())
            .expect("fx has a call site child");
        assert_eq!(
            (val(&view, &exp, gy, 0), val(&view, &exp, gy, 1)),
            (6.0, 1.0),
            "gy"
        );

        // Under m: fy (7,1) and gv (3,3).
        let m_calls: Vec<ViewNodeId> = view
            .tree
            .children(mx)
            .into_iter()
            .filter(|&n| view.tree.scope(n).is_call())
            .collect();
        assert_eq!(m_calls.len(), 2);
        let fy = m_calls
            .iter()
            .copied()
            .find(|&n| view.tree.label(n, &exp.cct.names) == "f")
            .unwrap();
        let gv = m_calls
            .iter()
            .copied()
            .find(|&n| view.tree.label(n, &exp.cct.names) == "g")
            .unwrap();
        assert_eq!(
            (val(&view, &exp, fy, 0), val(&view, &exp, fy, 1)),
            (7.0, 1.0),
            "fy"
        );
        assert_eq!(
            (val(&view, &exp, gv, 0), val(&view, &exp, gv, 1)),
            (3.0, 3.0),
            "gv"
        );

        // Under gx: gz (5,1) recursive call, hy (4,0) whose statements all
        // live inside loops.
        let g_calls: Vec<ViewNodeId> = view
            .tree
            .children(gx)
            .into_iter()
            .filter(|&n| view.tree.scope(n).is_call())
            .collect();
        assert_eq!(g_calls.len(), 2);
        let gz = g_calls
            .iter()
            .copied()
            .find(|&n| view.tree.label(n, &exp.cct.names) == "g")
            .unwrap();
        let hy = g_calls
            .iter()
            .copied()
            .find(|&n| view.tree.label(n, &exp.cct.names) == "h")
            .unwrap();
        assert_eq!(
            (val(&view, &exp, gz, 0), val(&view, &exp, gz, 1)),
            (5.0, 1.0),
            "gz"
        );
        assert_eq!(
            (val(&view, &exp, hy, 0), val(&view, &exp, hy, 1)),
            (4.0, 0.0),
            "hy"
        );
    }

    #[test]
    fn flatten_strips_hierarchy_layers() {
        let exp = fig1_experiment();
        let mut view = FlatView::build(&exp);
        let roots = view.tree.roots();
        assert_eq!(roots.len(), 1, "one load module");
        let files = view.flatten_once(&exp, &roots);
        assert_eq!(files.len(), 2);
        let procs = view.flatten_once(&exp, &files);
        let labels: Vec<String> = procs
            .iter()
            .map(|&n| view.tree.label(n, &exp.cct.names))
            .collect();
        assert!(labels.contains(&"g".to_owned()));
        assert!(labels.contains(&"h".to_owned()));
        assert!(labels.contains(&"f".to_owned()));
        assert!(labels.contains(&"m".to_owned()));
    }

    #[test]
    fn flatten_keeps_leaves() {
        let exp = fig1_experiment();
        let mut view = FlatView::build(&exp);
        let deep = view.flatten(&exp, &view.tree.roots(), 100);
        // Fixed point: every element is a leaf.
        assert!(deep.iter().all(|&n| !view.tree.has_children(n)));
        let again = view.flatten_once(&exp, &deep);
        assert_eq!(again, deep);
    }

    /// One procedure with 20 000 distinct statements over two
    /// activations (the second repeats every other one of the first's, in
    /// reverse): its rows are the distinct scopes in order of first
    /// appearance over ascending CCT ids, each with its own instances.
    #[test]
    fn wide_procedure_expands_to_rows_in_first_appearance_order() {
        let mut names = NameTable::new();
        let file = names.file("wide.c");
        let module = names.module("a.out");
        let (p_main, p_w) = (names.proc("main"), names.proc("w"));
        let mut cct = crate::cct::Cct::new(names);
        let frame = |proc, line, call: Option<u32>| ScopeKind::Frame {
            proc,
            module,
            def: SourceLoc::new(file, line),
            call_site: call.map(|l| SourceLoc::new(file, l)),
        };
        let main = cct.add_child(cct.root(), frame(p_main, 1, None));
        let w1 = cct.add_child(main, frame(p_w, 10, Some(2)));
        let w2 = cct.add_child(main, frame(p_w, 10, Some(3)));
        let stmt = |line| ScopeKind::Stmt {
            loc: SourceLoc::new(file, line),
        };
        let mut raw = RawMetrics::new(StorageKind::Csr);
        let m = raw.add_metric(MetricDesc::new("cost", "samples", 1.0));
        let lines: Vec<u32> = (0..20_000).map(|i| 100 + (i * 7919) % 20_000).collect();
        for &line in &lines {
            let s = cct.add_child(w1, stmt(line));
            raw.add_cost(m, s, 1.0);
        }
        for &line in lines.iter().rev().step_by(2) {
            let s = cct.add_child(w2, stmt(line));
            raw.add_cost(m, s, 1.0);
        }
        let exp = Experiment::build(cct, raw, StorageKind::Csr);
        let mut view = FlatView::build(&exp);
        let module_node = find(&view, &exp, None, "a.out");
        let file_node = find(&view, &exp, Some(module_node), "wide.c");
        let w = find(&view, &exp, Some(file_node), "w");
        let rows = view.children_of(&exp, w);
        let scopes: Vec<ViewScope> = rows.iter().map(|&r| *view.tree.scope(r)).collect();
        let want: Vec<ViewScope> = lines
            .iter()
            .map(|&line| ViewScope::Stmt {
                loc: SourceLoc::new(file, line),
            })
            .collect();
        assert_eq!(scopes, want);
        for (at, &r) in rows.iter().enumerate() {
            let twice = (lines.len() - 1 - at).is_multiple_of(2);
            assert_eq!(view.tree.kept(r).len(), 1 + twice as usize, "row {at}");
            assert_eq!(val(&view, &exp, r, 0), 1.0 + twice as u32 as f64);
        }
    }

    #[test]
    fn recursion_does_not_double_count_inclusive() {
        let exp = fig1_experiment();
        let view = FlatView::build(&exp);
        let module = find(&view, &exp, None, "a.out");
        // Root-level (module) inclusive equals program total despite the
        // recursive g chain.
        assert_eq!(val(&view, &exp, module, 0), 10.0);
    }

    #[test]
    fn shell_defers_procedure_interiors() {
        let exp = fig1_experiment();
        let shell = FlatView::build(&exp);
        // 1 module + 2 files + 4 procedures, nothing inside procedures yet.
        assert_eq!(shell.tree.len(), 7);
        for v in (0..shell.tree.len() as u32).map(ViewNodeId) {
            match shell.tree.scope(v) {
                ViewScope::Procedure { .. } => {
                    assert!(!shell.tree.is_expanded(v));
                    assert!(!shell.tree.has_children(v));
                }
                _ => assert!(shell.tree.is_expanded(v)),
            }
        }
        let eager = forced(&exp);
        assert!(eager.tree.len() > shell.tree.len());
    }

    #[test]
    fn lazy_fills_are_idempotent() {
        let exp = fig1_experiment();
        let mut view = FlatView::build(&exp);
        let module = find(&view, &exp, None, "a.out");
        let file2 = find(&view, &exp, Some(module), "file2.c");
        let gx = find(&view, &exp, Some(file2), "g");
        let first = view.children_of(&exp, gx);
        let len_after_first = view.tree.len();
        let gen_after_first = view.tree.generation();
        let second = view.children_of(&exp, gx);
        assert_eq!(first, second, "expanding twice yields the same children");
        assert_eq!(view.tree.len(), len_after_first, "no duplicate nodes");
        assert_eq!(
            view.tree.generation(),
            gen_after_first,
            "a no-op expand must not invalidate caches"
        );
    }

    /// The lazy tree, however it gets forced, must match the fully eager
    /// tree position-for-position: same scopes, same child order, same
    /// column values. Node *ids* may differ (creation order depends on
    /// which parent was forced first), so compare recursively by position.
    fn assert_same_forest(exp: &Experiment, a: &FlatView, b: &FlatView) {
        let mut pairs: Vec<_> = a.tree.roots().into_iter().zip(b.tree.roots()).collect();
        assert_eq!(a.tree.roots().len(), b.tree.roots().len());
        while let Some((na, nb)) = pairs.pop() {
            assert_eq!(a.tree.scope(na), b.tree.scope(nb));
            for c in 0..exp.columns.column_count() {
                let c = ColumnId::from_usize(c);
                assert_eq!(
                    a.tree.value(exp, c, na),
                    b.tree.value(exp, c, nb),
                    "column {c:?} at {:?}",
                    a.tree.scope(na)
                );
            }
            let ca = a.tree.children(na);
            let cb = b.tree.children(nb);
            assert_eq!(ca.len(), cb.len(), "children of {:?}", a.tree.scope(na));
            pairs.extend(ca.into_iter().zip(cb));
        }
    }

    #[test]
    fn forced_lazy_tree_matches_eager_tree() {
        let exp = fig1_experiment();
        let mut lazy = FlatView::build(&exp);
        // Force in a deliberately different order than force_all: flatten
        // level by level to a fixed point.
        let mut cur = lazy.tree.roots();
        loop {
            let next = lazy.flatten_once(&exp, &cur);
            if next == cur {
                break;
            }
            cur = next;
        }
        let eager = forced(&exp);
        assert_eq!(lazy.tree.len(), eager.tree.len());
        assert_same_forest(&exp, &lazy, &eager);
    }
}
