//! A uniform presentation interface over the three views
//! (Section III): Calling Context View, Callers View, Flat View.
//!
//! The renderer (`callpath-viewer`) and the hot-path driver work against
//! this one type, so every presentation feature — sorting, hot paths,
//! flattening, metric formatting — behaves identically across views, which
//! is the paper's "coherent synthesis" argument.

use crate::callers::CallersView;
use crate::experiment::Experiment;
use crate::flat::FlatView;
use crate::hotpath::{hot_path, HotPathConfig};
use crate::ids::{ColumnId, NodeId, ViewNodeId};
use crate::metrics::{visible_columns, ColumnDesc, MetricVec};
use crate::names::SourceLoc;
use crate::scope::ScopeKind;
use crate::viewtree::{LabelCache, SortDir, SortKey, ViewScope};
use std::cell::RefCell;

/// Which of the three complementary perspectives a `View` presents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViewKind {
    /// Top-down Calling Context View.
    CallingContext,
    /// Bottom-up Callers View.
    Callers,
    /// Static Flat View.
    Flat,
}

impl ViewKind {
    /// All three views, in the paper's order.
    pub const ALL: [ViewKind; 3] = [ViewKind::CallingContext, ViewKind::Callers, ViewKind::Flat];

    /// The pane title the paper uses.
    pub fn title(self) -> &'static str {
        match self {
            ViewKind::CallingContext => "Calling Context View",
            ViewKind::Callers => "Callers View",
            ViewKind::Flat => "Flat View",
        }
    }
}

/// The source location a CCT scope itself stands at: a frame's
/// definition, a loop's header, a statement's line; none for the root.
fn own_loc(kind: ScopeKind) -> Option<SourceLoc> {
    match kind {
        ScopeKind::Frame { def, .. } | ScopeKind::InlinedFrame { def, .. } => Some(def),
        ScopeKind::Loop { header } => Some(header),
        ScopeKind::Stmt { loc } => Some(loc),
        ScopeKind::Root => None,
    }
}

/// A row's decorations, answered by [`View::row`] in one visit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Draw the call-site icon ([`View::is_call`]).
    pub is_call: bool,
    /// The scope links to source ([`View::has_source`]).
    pub has_source: bool,
    /// Draw the collapsed-row marker ([`View::may_expand`]).
    pub may_expand: bool,
}

/// A presentable view bound to an experiment.
///
/// Node handles are plain `u32` indices into the underlying tree (CCT node
/// ids for the Calling Context View, view-tree ids otherwise).
pub enum View<'a> {
    /// The canonical CCT presented directly.
    CallingContext(&'a Experiment),
    /// The bottom-up view, owned so lazy expansion can mutate it.
    Callers {
        /// The underlying experiment.
        exp: &'a Experiment,
        /// The (lazily expanded) callers tree.
        view: CallersView,
    },
    /// The static view.
    Flat {
        /// The underlying experiment.
        exp: &'a Experiment,
        /// The flat tree.
        view: FlatView,
    },
}

impl<'a> View<'a> {
    /// The top-down Calling Context View: presents the canonical CCT
    /// directly.
    pub fn calling_context(exp: &'a Experiment) -> Self {
        View::CallingContext(exp)
    }

    /// The bottom-up Callers View (lazily constructed).
    pub fn callers(exp: &'a Experiment) -> Self {
        View::Callers {
            exp,
            view: CallersView::build(exp),
        }
    }

    /// The static Flat View.
    pub fn flat(exp: &'a Experiment) -> Self {
        View::Flat {
            exp,
            view: FlatView::build(exp),
        }
    }

    /// Which perspective this view presents.
    pub fn kind(&self) -> ViewKind {
        match self {
            View::CallingContext(_) => ViewKind::CallingContext,
            View::Callers { .. } => ViewKind::Callers,
            View::Flat { .. } => ViewKind::Flat,
        }
    }

    /// The experiment the view is bound to.
    pub fn experiment(&self) -> &Experiment {
        match self {
            View::CallingContext(exp) => exp,
            View::Callers { exp, .. } | View::Flat { exp, .. } => exp,
        }
    }

    /// Top-level nodes of the view. The Calling Context View starts at the
    /// children of the synthetic root; the Callers View at its per-procedure
    /// entries; the Flat View at load modules.
    pub fn roots(&self) -> Vec<u32> {
        match self {
            View::CallingContext(exp) => exp.cct.children(exp.cct.root()).map(|n| n.0).collect(),
            View::Callers { view, .. } => view.tree.roots().iter().map(|r| r.0).collect(),
            View::Flat { view, .. } => view.tree.roots().iter().map(|r| r.0).collect(),
        }
    }

    /// Children of `n`, materializing lazy views as needed. Only scopes
    /// with a non-zero metric somewhere below them exist at all (sparse
    /// representation), so no extra filtering is required here.
    pub fn children(&mut self, n: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.children_into(n, &mut out);
        out
    }

    /// [`View::children`] appended to `out`, which a caller that visits
    /// many scopes reuses: no allocation once it has grown.
    pub fn children_into(&mut self, n: u32, out: &mut Vec<u32>) {
        match self {
            View::CallingContext(exp) => out.extend(exp.cct.children(NodeId(n)).map(|c| c.0)),
            View::Callers { exp, view } => {
                view.expand(exp, ViewNodeId(n));
                out.extend(view.tree.child_ids(n));
            }
            View::Flat { exp, view } => {
                view.expand(exp, ViewNodeId(n));
                out.extend(view.tree.child_ids(n));
            }
        }
    }

    /// Navigation-pane label of scope `n`.
    pub fn label(&self, n: u32) -> String {
        let mut s = String::new();
        self.write_label(n, &mut s);
        s
    }

    /// [`View::label`] writing into an existing buffer: renderers reuse
    /// one buffer per row and borrow interned names directly from the
    /// experiment's name table.
    pub fn write_label(&self, n: u32, out: &mut String) {
        match self {
            View::CallingContext(exp) => exp.cct.kind(NodeId(n)).write_label(&exp.cct.names, out),
            View::Callers { exp, view } => {
                view.tree.write_label(ViewNodeId(n), &exp.cct.names, out)
            }
            View::Flat { exp, view } => view.tree.write_label(ViewNodeId(n), &exp.cct.names, out),
        }
    }

    /// Whether the navigation pane should draw the call-site arrow icon on
    /// this line (fused call-site/callee presentation, Section V-B).
    pub fn is_call(&self, n: u32) -> bool {
        match self {
            View::CallingContext(exp) => exp.cct.topo().is_call(NodeId(n)),
            View::Callers { view, .. } => view.tree.scope(ViewNodeId(n)).is_call(),
            View::Flat { view, .. } => view.tree.scope(ViewNodeId(n)).is_call(),
        }
    }

    /// Whether the scope has source code the viewer can navigate to. The
    /// paper renders binary-only routines (no line map) in plain black
    /// instead of as hyperlinks.
    pub fn has_source(&self, n: u32) -> bool {
        match self {
            View::CallingContext(exp) => exp.cct.topo().own_line(NodeId(n)) != 0,
            View::Callers { .. } => true,
            View::Flat { view, .. } => {
                !matches!(view.tree.scope(ViewNodeId(n)), ViewScope::Module { .. })
            }
        }
    }

    /// What a row's decorations need to know about scope `n` — call icon,
    /// source link, expansion marker — from one visit to the node. A
    /// Calling Context row reads them off one borrowed [`crate::topo::Topo`]:
    /// the tag, the line word and the first-child link, no [`ScopeKind`].
    pub fn row(&self, n: u32) -> Row {
        match self {
            View::CallingContext(exp) => {
                let (topo, n) = (exp.cct.topo(), NodeId(n));
                Row {
                    is_call: topo.is_call(n),
                    has_source: topo.own_line(n) != 0,
                    may_expand: topo.first_child(n).is_some(),
                }
            }
            _ => Row {
                is_call: self.is_call(n),
                has_source: self.has_source(n),
                may_expand: self.may_expand(n),
            },
        }
    }

    /// The call site (in the caller) associated with this line, if any —
    /// what clicking the call-site icon navigates to.
    pub fn call_site(&self, n: u32) -> Option<SourceLoc> {
        match self {
            View::CallingContext(exp) => match exp.cct.kind(NodeId(n)) {
                ScopeKind::Frame { call_site, .. } => call_site,
                ScopeKind::InlinedFrame { call_site, .. } => Some(call_site),
                _ => None,
            },
            View::Callers { view, .. } => match *view.tree.scope(ViewNodeId(n)) {
                ViewScope::Caller { call_site, .. } => call_site,
                _ => None,
            },
            View::Flat { view, .. } => match *view.tree.scope(ViewNodeId(n)) {
                ViewScope::CallSite { loc, .. } => loc,
                ViewScope::Inlined { call_site, .. } => Some(call_site),
                _ => None,
            },
        }
    }

    /// The source location the scope itself navigates to (procedure
    /// definition, loop header, statement line), if known.
    pub fn source_of(&self, n: u32) -> Option<SourceLoc> {
        let loc = match self {
            View::CallingContext(exp) => own_loc(exp.cct.kind(NodeId(n))),
            View::Callers { .. } => None,
            View::Flat { view, .. } => match *view.tree.scope(ViewNodeId(n)) {
                ViewScope::Loop { header } => Some(header),
                ViewScope::Stmt { loc } => Some(loc),
                _ => None,
            },
        };
        loc.filter(|l| l.is_known())
    }

    /// Descriptors of this view's metric columns, in id order: the
    /// experiment's, for all three views.
    pub fn column_descs(&self) -> &[ColumnDesc] {
        self.experiment().columns.descs()
    }

    /// Column ids the metric pane renders (visible ones).
    pub fn visible_columns(&self) -> impl Iterator<Item = ColumnId> + '_ {
        visible_columns(self.column_descs())
    }

    /// Value of column `c` at scope `n`. The first read of a column
    /// computes it — from the database for the Calling Context View, from
    /// the experiment's column for the nodes of the other two — so a view
    /// costs the columns it is asked for.
    pub fn value(&self, c: ColumnId, n: u32) -> f64 {
        match self {
            View::CallingContext(exp) => exp.columns.get(c, n),
            View::Callers { exp, view } => view.tree.value(exp, c, ViewNodeId(n)),
            View::Flat { exp, view } => view.tree.value(exp, c, ViewNodeId(n)),
        }
    }

    /// The storage of column `c`, when this view reads its values
    /// straight from it: the Calling Context View's, which a renderer
    /// resolves once and reads for every row. The other views keep their
    /// values in their tree, which an expansion may rebuild; `None`.
    pub fn column_vec(&self, c: ColumnId) -> Option<&'a MetricVec> {
        match *self {
            View::CallingContext(exp) => Some(exp.columns.vec(c)),
            _ => None,
        }
    }

    /// Hot path analysis (Eq. 3) starting at `start` for column `c`,
    /// materializing lazy children along the way: the generic
    /// [`crate::hotpath::hot_path`] descent, over the CCT's borrowed
    /// topology for the Calling Context View.
    pub fn hot_path(&mut self, start: u32, c: ColumnId, config: HotPathConfig) -> Vec<u32> {
        if let View::CallingContext(exp) = self {
            let topo = exp.cct.topo();
            let children = |n: u32| topo.children(NodeId(n)).map(|k| k.0);
            return hot_path(start, config, children, |n| exp.columns.get(c, n));
        }
        // Expansion needs the view mutably and values read it shared; the
        // descent never holds both at once.
        let view = RefCell::new(self);
        hot_path(
            start,
            config,
            |n| view.borrow_mut().children(n),
            |n| view.borrow().value(c, n),
        )
    }

    /// Number of nodes currently materialized (CCT size for the Calling
    /// Context View).
    pub fn node_count(&self) -> usize {
        match self {
            View::CallingContext(exp) => exp.cct.len(),
            View::Callers { view, .. } => view.tree.len(),
            View::Flat { view, .. } => view.tree.len(),
        }
    }

    /// Generation stamp for sort-order caches over this view: a lazy
    /// expansion that adds children makes a previously observed stamp
    /// stale: the derived views' tree's, which counts node additions.
    /// Column values cannot change under any view, which borrows its
    /// experiment immutably for as long as it lives, so the Calling
    /// Context View's stamp is a constant (DESIGN.md §9).
    pub fn generation(&self) -> u64 {
        match self {
            View::CallingContext(_) => 0,
            View::Callers { view, .. } => view.tree.generation(),
            View::Flat { view, .. } => view.tree.generation(),
        }
    }

    /// Could `n` have children, **without** materializing them? Used for
    /// the expansion marker on collapsed rows: lazy views must not be
    /// forced just to decide whether to draw `▶`. The Callers View
    /// conservatively reports `true` for every node (its chains are only
    /// discoverable by expanding).
    pub fn may_expand(&self, n: u32) -> bool {
        match self {
            View::CallingContext(exp) => !exp.cct.is_leaf(NodeId(n)),
            View::Callers { .. } => true,
            View::Flat { exp, view } => view.can_expand(exp, ViewNodeId(n)),
        }
    }
}

/// Rank `nodes` by a column in descending order (the navigation pane's
/// sort, Section V-A), NaN last ([`SortDir::cmp_values`]). Ties break by
/// label so results are deterministic.
pub fn sort_by_column(view: &View<'_>, nodes: &mut [u32], c: ColumnId) {
    nodes.sort_by(|&a, &b| {
        SortDir::Descending
            .cmp_values(view.value(c, a), view.value(c, b))
            .then_with(|| view.label(a).cmp(&view.label(b)))
    });
}

/// Compare two nodes under a metric-column sort key: by value in the
/// key's direction ([`SortDir::cmp_values`]), ties broken ascending by
/// (cached) label — the exact ordering [`sort_by_column`] produces for
/// [`SortDir::Descending`].
fn cmp_by_column(
    view: &View<'_>,
    labels: &LabelCache,
    c: ColumnId,
    dir: SortDir,
    a: u32,
    b: u32,
) -> std::cmp::Ordering {
    dir.cmp_values(view.value(c, a), view.value(c, b))
        .then_with(|| labels.peek(a).cmp(labels.peek(b)))
}

/// Sort `nodes` under `key`, routing label lookups through the interned
/// [`LabelCache`] (each label is rendered at most once per view instead
/// of once per comparison). Stable, and ordering-identical to the
/// historical `sort_by`/`sort_by_key` calls it replaces. A Calling
/// Context column is read with [`MetricVec::get_near`] from `*finger`:
/// a walker that sorts lists whose node ids lie close together — the
/// levels of a tree, depth first — keeps one finger for all of them; any
/// finger gives the same order.
pub fn sort_nodes_with(
    view: &View<'_>,
    labels: &mut LabelCache,
    nodes: &mut [u32],
    key: SortKey,
    finger: &mut usize,
) {
    for &n in nodes.iter() {
        labels.ensure(n, |buf| view.write_label(n, buf));
    }
    let by_label = |a: u32, b: u32| labels.peek(a).cmp(labels.peek(b));
    match key {
        SortKey::Name => nodes.sort_by(|&a, &b| by_label(a, b)),
        SortKey::Column { column, dir } => {
            let stored = view.column_vec(column);
            let mut value = |n| match stored {
                Some(values) => values.get_near(n, finger),
                None => view.value(column, n),
            };
            nodes.sort_by(|&a, &b| {
                dir.cmp_values(value(a), value(b))
                    .then_with(|| by_label(a, b))
            })
        }
    }
}

/// Keep only the top `k` of `nodes` under a metric-column key, in sorted
/// order, using `select_nth_unstable_by` partial selection instead of a
/// full sort (Section V panes show tens of rows out of potentially
/// thousands of children).
///
/// The comparator extends [`sort_nodes_with`]'s column ordering with the
/// node's original position as a final tie-break, which makes the
/// unstable selection reproduce a *stable* full sort's prefix exactly —
/// so truncated renders stay byte-identical to the full-sort path.
pub fn top_k_by_column(
    view: &View<'_>,
    labels: &mut LabelCache,
    nodes: &mut Vec<u32>,
    c: ColumnId,
    dir: SortDir,
    k: usize,
) {
    for &n in nodes.iter() {
        labels.ensure(n, |buf| view.write_label(n, buf));
    }
    if k >= nodes.len() {
        nodes.sort_by(|&a, &b| cmp_by_column(view, labels, c, dir, a, b));
        return;
    }
    let mut indexed: Vec<(u32, u32)> = nodes
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, i as u32))
        .collect();
    let cmp = |a: &(u32, u32), b: &(u32, u32)| {
        cmp_by_column(view, labels, c, dir, a.0, b.0).then(a.1.cmp(&b.1))
    };
    if k > 0 {
        indexed.select_nth_unstable_by(k - 1, cmp);
    }
    indexed.truncate(k);
    indexed.sort_by(cmp);
    nodes.clear();
    nodes.extend(indexed.into_iter().map(|(n, _)| n));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cct::Cct;
    use crate::ids::{LoadModuleId, ProcId};
    use crate::metrics::{MetricDesc, RawMetrics, StorageKind};
    use crate::names::{NameTable, SourceLoc};

    fn exp_with_chain() -> Experiment {
        let mut names = NameTable::new();
        let file = names.file("x.c");
        let module = names.module("x");
        let pa = names.proc("a");
        let pb = names.proc("b");
        let pc = names.proc("c");
        let mut cct = Cct::new(names);
        let root = cct.root();
        let fr = |proc: ProcId, line: u32, cs: Option<u32>| ScopeKind::Frame {
            proc,
            module,
            def: SourceLoc::new(file, line),
            call_site: cs.map(|l| SourceLoc::new(file, l)),
        };
        let a = cct.add_child(root, fr(pa, 1, None));
        let b = cct.add_child(a, fr(pb, 10, Some(2)));
        let c = cct.add_child(b, fr(pc, 20, Some(11)));
        let s = cct.add_child(
            c,
            ScopeKind::Stmt {
                loc: SourceLoc::new(file, 21),
            },
        );
        let s2 = cct.add_child(
            a,
            ScopeKind::Stmt {
                loc: SourceLoc::new(file, 3),
            },
        );
        let mut raw = RawMetrics::new(StorageKind::Csr);
        let m = raw.add_metric(MetricDesc::new("cyc", "cycles", 1.0));
        raw.add_cost(m, s, 90.0);
        raw.add_cost(m, s2, 10.0);
        let _ = LoadModuleId(0);
        Experiment::build(cct, raw, StorageKind::Csr)
    }

    #[test]
    fn three_views_share_one_interface() {
        let exp = exp_with_chain();
        for kind in ViewKind::ALL {
            let mut view = match kind {
                ViewKind::CallingContext => View::calling_context(&exp),
                ViewKind::Callers => View::callers(&exp),
                ViewKind::Flat => View::flat(&exp),
            };
            assert_eq!(view.kind(), kind);
            let roots = view.roots();
            assert!(!roots.is_empty(), "{}", kind.title());
            // Children of the first root must be reachable.
            let _ = view.children(roots[0]);
        }
    }

    #[test]
    fn cct_hot_path_descends_to_the_statement() {
        let exp = exp_with_chain();
        let mut view = View::calling_context(&exp);
        let roots = view.roots();
        let path = view.hot_path(roots[0], ColumnId(0), HotPathConfig::default());
        let labels: Vec<String> = path.iter().map(|&n| view.label(n)).collect();
        assert_eq!(labels, vec!["a", "b", "c", "x.c:21"]);
    }

    #[test]
    fn callers_hot_path_expands_lazily() {
        let exp = exp_with_chain();
        let mut view = View::callers(&exp);
        let roots = view.roots();
        // Find the "c" entry; its hot caller chain is b then a.
        let c_entry = roots.into_iter().find(|&r| view.label(r) == "c").unwrap();
        let before = view.node_count();
        let path = view.hot_path(c_entry, ColumnId(0), HotPathConfig::default());
        let labels: Vec<String> = path.iter().map(|&n| view.label(n)).collect();
        assert_eq!(labels, vec!["c", "b", "a"]);
        assert!(view.node_count() > before, "expansion materialized nodes");
    }

    #[test]
    fn sorting_is_descending_with_label_ties() {
        let exp = exp_with_chain();
        let mut view = View::calling_context(&exp);
        let roots = view.roots();
        let mut kids = view.children(roots[0]);
        sort_by_column(&view, &mut kids, ColumnId(0));
        let labels: Vec<String> = kids.iter().map(|&n| view.label(n)).collect();
        assert_eq!(labels, vec!["b", "x.c:3"]);
    }

    #[test]
    fn call_markers_only_on_called_frames() {
        let exp = exp_with_chain();
        let mut view = View::calling_context(&exp);
        let roots = view.roots();
        assert!(!view.is_call(roots[0]), "a is a top-level frame");
        let kids = view.children(roots[0]);
        assert!(view.is_call(kids[0]), "b was called from a");
    }

    #[test]
    fn flat_view_has_module_roots() {
        let exp = exp_with_chain();
        let view = View::flat(&exp);
        let roots = view.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(view.label(roots[0]), "x");
        assert!(!view.has_source(roots[0]), "modules have no source link");
    }
}
