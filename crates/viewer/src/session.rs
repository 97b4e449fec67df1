//! An interactive viewer session: the hpcviewer UX as a deterministic
//! state machine (Section V).
//!
//! The session owns the paper's interaction model:
//!
//! * **top-down enforcement**: everything starts collapsed at the top
//!   level; the only way to see a scope is to expand its parent (or run
//!   hot-path analysis, which expands for you);
//! * per-view **expansion state**, **selection**, and **sort column**;
//! * **hot path** from the selected scope (or the view's top) at the
//!   configurable threshold (the preferences-dialog knob);
//! * **zoom** into a subtree and back;
//! * **flatten/unflatten** for the Flat View;
//! * **source navigation** for the selected scope — the only route to
//!   source, per Section V-A.
//!
//! Commands return `Err` with a message instead of panicking, so a shell
//! or test can drive the session blindly.
//!
//! Rendering is a walk, not a formatter: [`Session::render`] decides which
//! rows are visible (top level → expanded scopes, each level in its cached
//! sort order) and which marks they carry, and the shared
//! [`crate::render`] row writer formats them — the same code that writes
//! the static views.

use crate::render::{Frame, RenderConfig, Renderer, HOT_ICON};
use crate::source_pane::render_selection_filtered;
use callpath_core::prelude::*;
use callpath_core::source::SourceStore;
use callpath_obs as obs;
use std::collections::HashSet;
use std::fmt::Write as _;

/// A user action.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Switch between the three views (each keeps its own state).
    SwitchView(ViewKind),
    /// Expand a visible scope (children become visible).
    Expand(u32),
    /// Collapse a scope (its subtree disappears).
    Collapse(u32),
    /// Select a visible scope (shows its source pane).
    Select(u32),
    /// Sort scopes by this metric column.
    SortBy(ColumnId),
    /// Run hot-path analysis from the selection (or each top-level scope's
    /// maximum when nothing is selected), expanding along the path.
    HotPath,
    /// Set the hot-path threshold (the preferences-dialog knob).
    SetThreshold(f64),
    /// Restrict the view to one subtree.
    Zoom(u32),
    /// Undo a zoom.
    Unzoom,
    /// Flat View only.
    Flatten,
    /// Restore one flattened hierarchy layer.
    Unflatten,
    /// Metric-properties dialog: hide/show a column (hidden columns still
    /// feed derived formulas, they just don't render).
    HideColumn(ColumnId),
    /// Show a previously hidden column.
    ShowColumn(ColumnId),
    /// Sort scopes by name instead of a metric (footnote 2).
    SortByName(bool),
    /// Search: find the first scope whose label contains the needle
    /// (case-sensitive), expand its ancestors so it becomes visible, and
    /// select it.
    Find(String),
}

/// Per-view interaction state.
#[derive(Debug, Default)]
struct ViewState {
    expanded: HashSet<u32>,
    selected: Option<u32>,
    zoom: Option<u32>,
    flatten_level: usize,
    hot: HashSet<u32>,
}

/// An interactive session over one experiment.
pub struct Session<'e> {
    exp: &'e Experiment,
    store: SourceStore,
    kind: ViewKind,
    views: [Option<View<'e>>; 3],
    states: [ViewState; 3],
    sort: ColumnId,
    sort_by_name: bool,
    threshold: f64,
    hidden: HashSet<u32>,
    cfg: RenderConfig,
    // Per-view query caches (indexed like `views`): cached child sort
    // orders with generation-stamped invalidation, and interned per-node
    // labels. Re-rendering an unchanged view costs lookups, not sorts.
    sort_caches: [SortCache; 3],
    label_caches: [LabelCache; 3],
    // The metric cells of the last render's rows, for a render of the
    // same view and columns to copy; `(reused, formatted)` rows so far.
    frame: Frame,
    cell_stats: (u64, u64),
}

fn idx(kind: ViewKind) -> usize {
    match kind {
        ViewKind::CallingContext => 0,
        ViewKind::Callers => 1,
        ViewKind::Flat => 2,
    }
}

impl<'e> Session<'e> {
    /// Start a session on the Calling Context View with everything
    /// collapsed (the top-down discipline).
    pub fn new(exp: &'e Experiment, store: SourceStore) -> Self {
        Session {
            exp,
            store,
            kind: ViewKind::CallingContext,
            views: [None, None, None],
            states: Default::default(),
            sort: ColumnId(0),
            sort_by_name: false,
            threshold: 0.5,
            hidden: HashSet::new(),
            cfg: RenderConfig::default(),
            sort_caches: Default::default(),
            label_caches: Default::default(),
            frame: Frame::default(),
            cell_stats: (0, 0),
        }
    }

    /// `(hits, full_sorts)` summed over the three per-view sort caches.
    /// The acceptance hook for the PR 2 tentpole: re-sorting or
    /// re-rendering an already-built view must not grow `full_sorts`.
    ///
    /// This is the per-session compat shim over the same events the
    /// process-wide obs registry counts as `viewer.sort_cache.hit` /
    /// `viewer.sort_cache.miss` — the session view stays scoped to this
    /// session's three caches, while `--stats` reports the global tally.
    pub fn sort_stats(&self) -> (u64, u64) {
        self.sort_caches.iter().fold((0, 0), |(h, f), c| {
            let (ch, cf) = c.stats();
            (h + ch, f + cf)
        })
    }

    /// `(reused, formatted)`: rows whose metric cells this session's
    /// renders copied from the previous frame, and rows they formatted.
    /// The process-wide obs registry counts the same rows as
    /// `viewer.cells.reused` / `viewer.cells.formatted`.
    pub fn cell_stats(&self) -> (u64, u64) {
        self.cell_stats
    }

    /// How many of the experiment's presentation columns hold resident
    /// values. On an eagerly built experiment this equals the column
    /// count; on a lazily opened database it counts the columns
    /// faulted in so far — the acceptance hook for the storage-path
    /// tentpole: rendering one sorted view must materialize only the
    /// columns that view reads.
    pub fn materialized_columns(&self) -> usize {
        self.exp.columns.materialized_columns()
    }

    /// Which view is active.
    pub fn view_kind(&self) -> ViewKind {
        self.kind
    }

    /// The currently selected scope, if any.
    pub fn selected(&self) -> Option<u32> {
        self.states[idx(self.kind)].selected
    }

    /// The hot-path threshold in effect.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    fn view(&mut self) -> &mut View<'e> {
        view_slot(&mut self.views[idx(self.kind)], self.kind, self.exp)
    }

    /// Scopes currently visible at the top of the view (zoom target, or
    /// flattened roots, or the view's natural roots).
    fn top_level(&mut self) -> Vec<u32> {
        let state = &self.states[idx(self.kind)];
        if let Some(z) = state.zoom {
            return vec![z];
        }
        let (kind, level) = (self.kind, state.flatten_level);
        let view = self.view();
        let mut roots = view.roots();
        if kind == ViewKind::Flat && level > 0 {
            if let View::Flat { exp, view: flat } = view {
                let _span = obs::span("viewer.flat_flatten");
                obs::count("viewer.flat.force", 1);
                let cur: Vec<ViewNodeId> = roots.iter().map(|&r| ViewNodeId(r)).collect();
                // The forcing variant: flattening must descend through
                // procedure interiors that haven't been filled yet.
                let cur = flat.flatten(exp, &cur, level);
                roots = cur.iter().map(|n| n.0).collect();
            }
        }
        roots
    }

    /// Is `node` currently visible (reachable from the top level through
    /// expanded scopes)? Commands that address invisible scopes are
    /// rejected — the top-down discipline.
    fn is_visible(&mut self, node: u32) -> bool {
        let tops = self.top_level();
        if tops.contains(&node) {
            return true;
        }
        // Field-by-field borrows: the view mutably (children may be built
        // lazily), the expansion set shared.
        let i = idx(self.kind);
        let view = view_slot(&mut self.views[i], self.kind, self.exp);
        let expanded = &self.states[i].expanded;
        let mut stack = tops;
        while let Some(n) = stack.pop() {
            if expanded.contains(&n) {
                for c in view.children(n) {
                    if c == node {
                        return true;
                    }
                    stack.push(c);
                }
            }
        }
        false
    }

    /// Apply one command.
    pub fn apply(&mut self, cmd: Command) -> Result<(), String> {
        match cmd {
            Command::SwitchView(kind) => {
                self.kind = kind;
                Ok(())
            }
            Command::Expand(n) => {
                if !self.is_visible(n) {
                    return Err(format!(
                        "scope {n} is not visible; expand its parents first"
                    ));
                }
                if self.view().children(n).is_empty() {
                    return Err(format!("scope {n} has no children"));
                }
                self.states[idx(self.kind)].expanded.insert(n);
                Ok(())
            }
            Command::Collapse(n) => {
                self.states[idx(self.kind)].expanded.remove(&n);
                Ok(())
            }
            Command::Select(n) => {
                if !self.is_visible(n) {
                    return Err(format!("scope {n} is not visible"));
                }
                self.states[idx(self.kind)].selected = Some(n);
                Ok(())
            }
            Command::SortBy(c) => {
                if c.index() >= self.exp.columns.column_count() {
                    return Err(format!("no column {c:?}"));
                }
                self.sort = c;
                Ok(())
            }
            Command::SetThreshold(t) => {
                if !(t > 0.0 && t <= 1.0) {
                    return Err("threshold must be in (0, 1]".into());
                }
                self.threshold = t;
                Ok(())
            }
            Command::HotPath => {
                let _span = obs::span("viewer.hot_path");
                let start = match self.selected() {
                    Some(s) => s,
                    None => {
                        let tops = self.top_level();
                        if tops.is_empty() {
                            return Err("empty view".into());
                        }
                        let sort = self.sort;
                        // Top-1 selection: a single max scan in the pane's
                        // ranking (NaN last; first-max on ties, like the
                        // stable descending sort it replaced) instead of
                        // sorting the whole top level.
                        let view = self.view();
                        let mut best = tops[0];
                        let mut best_v = view.value(sort, best);
                        for &t in &tops[1..] {
                            let v = view.value(sort, t);
                            if SortDir::Descending.cmp_values(v, best_v).is_lt() {
                                best = t;
                                best_v = v;
                            }
                        }
                        best
                    }
                };
                let cfg = HotPathConfig {
                    threshold: self.threshold,
                    ..Default::default()
                };
                let sort = self.sort;
                let path = self.view().hot_path(start, sort, cfg);
                let state = &mut self.states[idx(self.kind)];
                for &n in &path {
                    state.expanded.insert(n);
                }
                state.selected = path.last().copied();
                state.hot = path.into_iter().collect();
                Ok(())
            }
            Command::Zoom(n) => {
                if !self.is_visible(n) {
                    return Err(format!("scope {n} is not visible"));
                }
                self.states[idx(self.kind)].zoom = Some(n);
                Ok(())
            }
            Command::Unzoom => {
                self.states[idx(self.kind)].zoom = None;
                Ok(())
            }
            Command::Flatten => {
                if self.kind != ViewKind::Flat {
                    return Err("flattening applies to the Flat View".into());
                }
                self.states[idx(self.kind)].flatten_level += 1;
                Ok(())
            }
            Command::Unflatten => {
                if self.kind != ViewKind::Flat {
                    return Err("flattening applies to the Flat View".into());
                }
                let s = &mut self.states[idx(self.kind)];
                if s.flatten_level == 0 {
                    return Err("not flattened".into());
                }
                s.flatten_level -= 1;
                Ok(())
            }
            Command::HideColumn(c) => {
                if c.index() >= self.exp.columns.column_count() {
                    return Err(format!("no column {c:?}"));
                }
                self.hidden.insert(c.0);
                Ok(())
            }
            Command::ShowColumn(c) => {
                if c.index() >= self.exp.columns.column_count() {
                    return Err(format!("no column {c:?}"));
                }
                self.hidden.remove(&c.0);
                Ok(())
            }
            Command::SortByName(on) => {
                self.sort_by_name = on;
                Ok(())
            }
            Command::Find(needle) => {
                // BFS from the top level so the shallowest match wins.
                // `queue` is never popped: each entry keeps the index of
                // its parent's entry, and only the match's path is rebuilt.
                let tops = self.top_level();
                let mut queue: Vec<(u32, Option<usize>)> =
                    tops.into_iter().map(|t| (t, None)).collect();
                let mut seen = HashSet::new();
                let mut label_buf = String::new();
                for at in 0.. {
                    let Some(&(n, mut parent)) = queue.get(at) else {
                        break;
                    };
                    if !seen.insert(n) {
                        continue;
                    }
                    label_buf.clear();
                    self.view().write_label(n, &mut label_buf);
                    if label_buf.contains(&needle) {
                        let state = &mut self.states[idx(self.kind)];
                        while let Some(p) = parent {
                            state.expanded.insert(queue[p].0);
                            parent = queue[p].1;
                        }
                        state.selected = Some(n);
                        return Ok(());
                    }
                    let children = self.view().children(n);
                    queue.extend(children.into_iter().map(|c| (c, Some(at))));
                }
                Err(format!("no scope matching '{needle}'"))
            }
        }
    }

    /// Render the current view: only expanded scopes show children; the
    /// selection is marked with `»` and the last hot path with flames.
    pub fn render(&mut self) -> String {
        self.render_impl(false).0
    }

    /// Render with a `[row]` prefix on every scope line and return the
    /// node id of each row, so an interactive shell can address scopes by
    /// row number (`expand 3`, `select 0`, ...).
    pub fn render_numbered(&mut self) -> (String, Vec<u32>) {
        self.render_impl(true)
    }

    fn render_impl(&mut self, numbered: bool) -> (String, Vec<u32>) {
        let _span = obs::span("viewer.render");
        let tops = self.top_level();
        // Field-by-field borrows: the view, its caches and its interaction
        // state are read in place, nothing is copied per render.
        let i = idx(self.kind);
        let view = view_slot(&mut self.views[i], self.kind, self.exp);
        let state = &self.states[i];
        let hidden = &self.hidden;
        let cols: Vec<ColumnId> = view
            .visible_columns()
            .filter(|c| !hidden.contains(&c.0))
            .collect();
        let repeat = self.frame.begin(i, &cols);
        // A render of new columns checksums their unread cost blocks
        // together, so the faults its rows make hash nothing; a repeat
        // render's blocks were all read by the previous one.
        if !repeat {
            self.exp.columns.precheck(&cols);
        }
        let mut w = Walker {
            r: Renderer::new(view, &self.cfg, &mut self.label_caches[i], cols),
            sort_cache: &mut self.sort_caches[i],
            state,
            key: if self.sort_by_name {
                SortKey::Name
            } else {
                SortKey::Column {
                    column: self.sort,
                    dir: SortDir::Descending,
                }
            },
            numbered,
            rows: Vec::new(),
            pending: Vec::new(),
        };
        w.r.frame = repeat.then_some(&mut self.frame);
        let _ = writeln!(w.r.out, "[{}]", self.kind.title());
        w.r.name_line();
        // Top-level ordering goes through the same cache under a synthetic slot
        // (per flatten level); a zoom target, which no slot names, bypasses it.
        match state.zoom {
            Some(z) => w.pending.push((z, 0)),
            None => w.queue(TOP_SLOT_BASE + state.flatten_level as u64, 0, |_| tops),
        }
        w.walk();
        // Source pane for the selection.
        if let Some(sel) = state.selected {
            let pane = render_selection_filtered(w.r.view, sel, &self.store, 2, hidden);
            w.r.out.push('\n');
            w.r.out.push_str(&pane);
        }
        let (out, rows) = (w.r.out, w.rows);
        let reused = self.frame.reused as u64;
        let formatted = rows.len() as u64 - reused;
        obs::count("viewer.cells.reused", reused);
        obs::count("viewer.cells.formatted", formatted);
        self.cell_stats = (self.cell_stats.0 + reused, self.cell_stats.1 + formatted);
        (out, rows)
    }
}

/// Materialize-on-first-use access to one view slot, as a free function so
/// callers can hold it next to borrows of the session's other fields.
fn view_slot<'v, 'e>(
    slot: &'v mut Option<View<'e>>,
    kind: ViewKind,
    exp: &'e Experiment,
) -> &'v mut View<'e> {
    slot.get_or_insert_with(|| match kind {
        ViewKind::CallingContext => View::calling_context(exp),
        ViewKind::Callers => View::callers(exp),
        ViewKind::Flat => View::flat(exp),
    })
}

/// The interactive walker: which rows the shared [`Renderer`] writes for a
/// session — top level, then the children of expanded scopes, each level
/// in its cached sort order — and the marks that precede each label.
struct Walker<'a, 'e> {
    r: Renderer<'a, 'e>,
    sort_cache: &'a mut SortCache,
    state: &'a ViewState,
    key: SortKey,
    numbered: bool,
    rows: Vec<u32>,
    /// The explicit stack: `(scope, depth)` rows still to write, next on
    /// top. Depth costs heap here, never call stack.
    pending: Vec<(u32, usize)>,
}

impl Walker<'_, '_> {
    /// Write every queued row; an expanded scope queues its children.
    fn walk(&mut self) {
        while let Some((n, depth)) = self.pending.pop() {
            if self.numbered {
                let _ = write!(self.r.out, "[{:>3}] ", self.rows.len());
            }
            self.rows.push(n);
            let state = self.state;
            let expanded = state.expanded.contains(&n);
            let row = self.r.view.row(n);
            let marker = if expanded {
                "▼ "
            } else if row.may_expand {
                "▶ "
            } else {
                "  "
            };
            let selected = if state.selected == Some(n) { "»" } else { "" };
            let flame = if state.hot.contains(&n) { HOT_ICON } else { "" };
            self.r
                .emit_row(n, row, depth, &[selected, flame, marker], true);
            if expanded {
                self.queue(n as u64, depth + 1, |v| v.children(n));
            }
        }
    }

    /// Queue `slot`'s scopes at `depth` in `self.key` order, first on top.
    /// Two or more go through the per-view [`SortCache`]: a valid cached
    /// ordering is read in place; a miss sorts via the interned
    /// [`LabelCache`] and hands the vector over, stamped with the
    /// generation observed *after* computing (lazy views may materialize
    /// children — and bump the generation — inside `nodes`). A shorter
    /// list has one order: no sort, no span, no entry. Invariant: `nodes`'
    /// list is a function of `(slot, generation)` alone, because the cache
    /// answers first; a list that also depends on zoom must not come here.
    fn queue(&mut self, slot: u64, depth: usize, nodes: impl FnOnce(&mut View<'_>) -> Vec<u32>) {
        let view = &mut *self.r.view;
        fn rows(order: &[u32], depth: usize) -> impl Iterator<Item = (u32, usize)> + '_ {
            order.iter().rev().map(move |&n| (n, depth))
        }
        if let Some(order) = self.sort_cache.lookup(slot, self.key, view.generation()) {
            obs::count("viewer.sort_cache.hit", 1);
            self.pending.extend(rows(order, depth));
            return;
        }
        let mut out = nodes(view);
        if out.len() < 2 {
            self.pending.extend(rows(&out, depth));
            return;
        }
        obs::count("viewer.sort_cache.miss", 1);
        let _span = obs::span("viewer.full_sort");
        sort_nodes_with(view, self.r.labels, &mut out, self.key);
        self.pending.extend(rows(&out, depth));
        self.sort_cache
            .insert(slot, self.key, view.generation(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use callpath_profiler::{generate_listings, Costs, ExecConfig, Op, ProgramBuilder};
    use callpath_workloads::pipeline;

    fn experiment() -> (Experiment, SourceStore) {
        let mut b = ProgramBuilder::new("app");
        let f = b.file("app.c");
        let hot = b.declare("hot", f, 10);
        let cold = b.declare("cold", f, 20);
        let main = b.declare("main", f, 1);
        b.body(hot, vec![Op::work(11, Costs::cycles(90_000))]);
        b.body(cold, vec![Op::work(21, Costs::cycles(10_000))]);
        b.body(main, vec![Op::call(3, hot), Op::call(4, cold)]);
        b.entry(main);
        let program = b.build();
        let listings = generate_listings(&program);
        let exp = pipeline::build_experiment(&program, &ExecConfig::default());
        let store = SourceStore::from_texts(
            &exp.cct.names,
            listings.iter().map(|(n, t)| (n.as_str(), t.as_str())),
        );
        (exp, store)
    }

    #[test]
    fn starts_collapsed_at_top_level() {
        let (exp, store) = experiment();
        let mut s = Session::new(&exp, store);
        let text = s.render();
        assert!(text.contains("main"));
        assert!(
            !text.contains("hot\n"),
            "children hidden until expanded:\n{text}"
        );
        assert!(text.contains("▶"), "expandable marker");
    }

    #[test]
    fn top_down_discipline_rejects_deep_access() {
        let (exp, store) = experiment();
        let mut s = Session::new(&exp, store);
        // Find main's id and a grandchild id.
        let main = {
            let v = View::calling_context(&exp);
            v.roots()[0]
        };
        let grandchild = {
            let mut v = View::calling_context(&exp);
            let kid = v.children(main)[0];
            v.children(kid)[0]
        };
        assert!(s.apply(Command::Select(grandchild)).is_err());
        assert!(s.apply(Command::Expand(main)).is_ok());
        // Grandchild still invisible (its parent not expanded).
        assert!(s.apply(Command::Select(grandchild)).is_err());
        let child = {
            let mut v = View::calling_context(&exp);
            v.children(main)[0]
        };
        assert!(s.apply(Command::Expand(child)).is_ok());
        assert!(s.apply(Command::Select(grandchild)).is_ok());
    }

    #[test]
    fn hot_path_expands_and_selects() {
        let (exp, store) = experiment();
        let mut s = Session::new(&exp, store);
        s.apply(Command::HotPath).unwrap();
        let text = s.render();
        assert!(text.contains("🔥"), "{text}");
        assert!(text.contains("hot"), "hot subtree expanded:\n{text}");
        assert!(s.selected().is_some());
        // The selection's source shows in the pane.
        assert!(text.contains("--- app.c:"), "{text}");
    }

    #[test]
    fn threshold_preference_changes_hot_path() {
        let (exp, store) = experiment();
        let mut s = Session::new(&exp, store);
        assert!(s.apply(Command::SetThreshold(1.5)).is_err());
        s.apply(Command::SetThreshold(0.95)).unwrap();
        s.apply(Command::HotPath).unwrap();
        // With t=0.95, main(100%) -> hot(90%) fails the threshold: path
        // stops at main.
        let text = s.render();
        let flames = text.matches("🔥").count();
        assert_eq!(flames, 1, "{text}");
    }

    #[test]
    fn zoom_and_unzoom() {
        let (exp, store) = experiment();
        let mut s = Session::new(&exp, store);
        let main = {
            let v = View::calling_context(&exp);
            v.roots()[0]
        };
        let hot_frame = {
            let mut v = View::calling_context(&exp);
            v.children(main)[0]
        };
        s.apply(Command::Expand(main)).unwrap();
        s.apply(Command::Zoom(hot_frame)).unwrap();
        let text = s.render();
        assert!(
            !text.lines().any(|l| l.trim_start().starts_with("▶ main")),
            "{text}"
        );
        s.apply(Command::Unzoom).unwrap();
        assert!(s.render().contains("main"));
    }

    /// With several top-level scopes the unzoomed ordering is cached; a
    /// zoom changes neither the generation nor the sort key and must still
    /// show the zoom target alone.
    #[test]
    fn zoom_among_several_roots_shows_only_the_target() {
        let (exp, store) = experiment();
        // Flat flattened twice: module and file stripped, procedures on top.
        for (kind, flattens) in [(ViewKind::Callers, 0), (ViewKind::Flat, 2)] {
            let open = || {
                let mut s = Session::new(&exp, store.clone());
                s.apply(Command::SwitchView(kind)).unwrap();
                for _ in 0..flattens {
                    s.apply(Command::Flatten).unwrap();
                }
                s
            };
            let mut s = open();
            let (before, roots) = s.render_numbered();
            assert!(roots.len() >= 2, "{kind:?} needs several roots:\n{before}");
            let target = roots[1];
            s.apply(Command::Zoom(target)).unwrap();
            let (zoomed, rows) = s.render_numbered();
            assert_eq!(rows, [target], "{kind:?}:\n{zoomed}");
            s.apply(Command::Unzoom).unwrap();
            assert_eq!(s.render_numbered(), open().render_numbered());
            assert_eq!(s.render_numbered().0, before);
        }
    }

    #[test]
    fn flatten_only_in_flat_view() {
        let (exp, store) = experiment();
        let mut s = Session::new(&exp, store);
        assert!(s.apply(Command::Flatten).is_err());
        s.apply(Command::SwitchView(ViewKind::Flat)).unwrap();
        s.apply(Command::Flatten).unwrap();
        let text = s.render();
        // One flatten strips the module: files at top level.
        assert!(text.lines().nth(2).unwrap().contains("app.c"), "{text}");
        s.apply(Command::Unflatten).unwrap();
        assert!(s.apply(Command::Unflatten).is_err());
    }

    #[test]
    fn view_state_is_independent_per_view() {
        let (exp, store) = experiment();
        let mut s = Session::new(&exp, store);
        s.apply(Command::HotPath).unwrap();
        assert!(s.selected().is_some());
        s.apply(Command::SwitchView(ViewKind::Callers)).unwrap();
        assert!(s.selected().is_none(), "fresh state in the callers view");
        s.apply(Command::SwitchView(ViewKind::CallingContext))
            .unwrap();
        assert!(s.selected().is_some(), "CCV state preserved");
    }

    #[test]
    fn collapse_hides_subtree_again() {
        let (exp, store) = experiment();
        let mut s = Session::new(&exp, store);
        let main = {
            let v = View::calling_context(&exp);
            v.roots()[0]
        };
        s.apply(Command::Expand(main)).unwrap();
        assert!(s.render().contains("hot"));
        s.apply(Command::Collapse(main)).unwrap();
        assert!(!s.render().contains("hot"));
    }

    #[test]
    fn sort_by_invalid_column_is_rejected() {
        let (exp, store) = experiment();
        let mut s = Session::new(&exp, store);
        assert!(s.apply(Command::SortBy(ColumnId(999))).is_err());
        assert!(s.apply(Command::SortBy(ColumnId(1))).is_ok());
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;
    use callpath_profiler::{Costs, ExecConfig, Op, ProgramBuilder};
    use callpath_workloads::pipeline;

    fn experiment() -> Experiment {
        let mut b = ProgramBuilder::new("app");
        let f = b.file("app.c");
        let alpha = b.declare("alpha", f, 10);
        let beta = b.declare("beta", f, 20);
        let main = b.declare("main", f, 1);
        b.body(alpha, vec![Op::work(11, Costs::cycles(10_000))]);
        b.body(beta, vec![Op::work(21, Costs::cycles(90_000))]);
        b.body(main, vec![Op::call(3, beta), Op::call(4, alpha)]);
        b.entry(main);
        pipeline::build_experiment(&b.build(), &ExecConfig::default())
    }

    #[test]
    fn hidden_columns_disappear_from_the_pane() {
        let exp = experiment();
        let mut s = Session::new(&exp, callpath_core::source::SourceStore::new());
        assert!(s.render().contains("PAPI_TOT_CYC (E)"));
        s.apply(Command::HideColumn(ColumnId(1))).unwrap();
        let text = s.render();
        assert!(!text.contains("PAPI_TOT_CYC (E)"), "{text}");
        assert!(text.contains("PAPI_TOT_CYC (I)"));
        s.apply(Command::ShowColumn(ColumnId(1))).unwrap();
        assert!(s.render().contains("PAPI_TOT_CYC (E)"));
        assert!(s.apply(Command::HideColumn(ColumnId(99))).is_err());
        assert!(s.apply(Command::ShowColumn(ColumnId(99))).is_err());
    }

    #[test]
    fn name_sorting_orders_alphabetically() {
        let exp = experiment();
        let mut s = Session::new(&exp, callpath_core::source::SourceStore::new());
        let main = {
            let v = View::calling_context(&exp);
            v.roots()[0]
        };
        s.apply(Command::Expand(main)).unwrap();
        // Metric sort: beta (90%) before alpha (10%).
        let text = s.render();
        assert!(text.find("beta").unwrap() < text.find("alpha").unwrap());
        // Name sort: alpha before beta.
        s.apply(Command::SortByName(true)).unwrap();
        let text = s.render();
        assert!(
            text.find("alpha").unwrap() < text.find("beta").unwrap(),
            "{text}"
        );
    }
}

#[cfg(test)]
mod find_tests {
    use super::*;
    use callpath_profiler::{Costs, ExecConfig, Op, ProgramBuilder};
    use callpath_workloads::pipeline;

    fn experiment() -> Experiment {
        let mut b = ProgramBuilder::new("app");
        let f = b.file("app.c");
        let inner = b.declare("deeply_nested_target", f, 30);
        let mid = b.declare("mid", f, 20);
        let main = b.declare("main", f, 1);
        b.body(inner, vec![Op::work(31, Costs::cycles(1_000))]);
        b.body(mid, vec![Op::call(21, inner)]);
        b.body(main, vec![Op::call(3, mid)]);
        b.entry(main);
        pipeline::build_experiment(&b.build(), &ExecConfig::default())
    }

    #[test]
    fn find_expands_ancestors_and_selects() {
        let exp = experiment();
        let mut s = Session::new(&exp, callpath_core::source::SourceStore::new());
        assert!(!s.render().contains("deeply_nested_target"));
        s.apply(Command::Find("nested_target".into())).unwrap();
        let text = s.render();
        assert!(text.contains("deeply_nested_target"), "{text}");
        assert!(text.contains("»"), "selection marker: {text}");
        assert!(s.selected().is_some());
    }

    #[test]
    fn find_misses_report_an_error() {
        let exp = experiment();
        let mut s = Session::new(&exp, callpath_core::source::SourceStore::new());
        let err = s.apply(Command::Find("no_such_scope".into())).unwrap_err();
        assert!(err.contains("no_such_scope"));
        assert!(s.selected().is_none());
    }

    #[test]
    fn find_works_in_the_callers_view_too() {
        let exp = experiment();
        let mut s = Session::new(&exp, callpath_core::source::SourceStore::new());
        s.apply(Command::SwitchView(ViewKind::Callers)).unwrap();
        s.apply(Command::Find("deeply".into())).unwrap();
        assert!(s.render().contains("deeply_nested_target"));
    }
}
