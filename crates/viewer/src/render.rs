//! The tree-table renderer: navigation pane + metric pane as plain text.

use callpath_core::hash::MixState;
use callpath_core::prelude::*;
use callpath_core::view::Row;
use std::collections::HashMap;

/// How far to expand the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpandMode {
    /// Expand everything to `max_depth`.
    All,
    /// Expand only the top `n` levels.
    Levels(usize),
}

/// Rendering options.
#[derive(Debug, Clone)]
pub struct RenderConfig {
    /// Column to sort scopes by at every level (descending). `None` keeps
    /// tree order.
    pub sort: Option<ColumnId>,
    /// Sort by scope name instead of a metric (the paper's footnote 2:
    /// "the user can sort according to the source scopes in the
    /// navigation pane itself"). Overrides `sort`.
    pub sort_by_name: bool,
    /// Columns to show, in order. Empty = all visible columns.
    pub columns: Vec<ColumnId>,
    /// Grouped-column header: `(label, span)` pairs rendered as an
    /// extra line above the metric names, each label centered over the
    /// next `span` shown columns. The ensemble views use one group per
    /// base metric over its statistic columns, plus a `runs` group
    /// over per-run drill-down columns. Spans beyond the shown column
    /// count are clipped; empty means no group line.
    pub groups: Vec<(String, usize)>,
    /// How deep the tree expands.
    pub expand: ExpandMode,
    /// Hard depth cap.
    pub max_depth: usize,
    /// Show at most this many children per scope (the rest summarized as
    /// `… k more`). Keeps huge fan-outs readable.
    pub max_children: usize,
    /// Label column width.
    pub label_width: usize,
    /// Fused call-site/callee lines (Section V-B). With `false`, each
    /// called frame is preceded by a separate `called from <loc>` line —
    /// the paper's earlier design, kept for the ablation.
    pub fused: bool,
    /// Append `value%-of-aggregate` to each metric cell.
    pub show_percent: bool,
}

impl Default for RenderConfig {
    fn default() -> Self {
        RenderConfig {
            sort: Some(ColumnId(0)),
            sort_by_name: false,
            columns: Vec::new(),
            groups: Vec::new(),
            expand: ExpandMode::All,
            max_depth: 64,
            max_children: 100,
            label_width: 44,
            fused: true,
            show_percent: true,
        }
    }
}

/// The call-site icon: the paper uses a box with a right-facing arrow;
/// we use a two-character arrow marker.
const CALL_ICON: &str = "↪ ";
/// Marker for scopes on a rendered hot path.
pub(crate) const HOT_ICON: &str = "🔥";
/// Marker for binary-only scopes (no source: rendered "in plain black").
const NO_SOURCE_MARK: &str = " †";
/// Levels that indent by two columns each. Deeper rows stop moving right:
/// the `2 * GUTTER_LEVELS` gutter columns carry the row's absolute depth
/// (`⋯4612`; consecutive numbers read as parent and child) and the label
/// keeps a field of `label_width - 2 * GUTTER_LEVELS`, so a row costs the
/// same bytes and its cells sit under their headers at any depth.
const GUTTER_LEVELS: usize = 12;

/// The one indentation rule: append the gutter of a row at `depth` and
/// return its display width.
fn write_indent(depth: usize, out: &mut String) -> usize {
    use std::fmt::Write as _;
    if depth <= GUTTER_LEVELS {
        out.extend(std::iter::repeat_n("  ", depth));
        return 2 * depth;
    }
    let _ = write!(out, "⋯{depth:<width$}", width = 2 * GUTTER_LEVELS - 1);
    2 * GUTTER_LEVELS
}

/// Truncate a column/metric name longer than 18 characters to
/// `{first 9}…{last 8}` — the tail usually carries the distinguishing
/// part (metric flavor, summary statistic). Single pass over the char
/// boundaries, no intermediate allocations; appends to `out`.
fn write_truncated_name(name: &str, out: &mut String) {
    let n_chars = name.chars().count();
    if n_chars <= 18 {
        out.push_str(name);
        return;
    }
    let head_end = name
        .char_indices()
        .nth(9)
        .map(|(i, _)| i)
        .unwrap_or(name.len());
    let tail_start = name
        .char_indices()
        .nth(n_chars - 8)
        .map(|(i, _)| i)
        .unwrap_or(name.len());
    out.push_str(&name[..head_end]);
    out.push('…');
    out.push_str(&name[tail_start..]);
}

/// The one tree-table writer: column-name line, metric cells and
/// `indent label    cells` rows, appended to `out`. Two walkers decide
/// which rows to write — the static one below ([`Renderer::run`]) and the
/// session's interactive one (`session.rs`).
pub(crate) struct Renderer<'a, 'e> {
    pub(crate) view: &'a mut View<'e>,
    cfg: &'a RenderConfig,
    cols: Vec<ColumnId>,
    aggregates: Vec<f64>,
    pub(crate) out: String,
    // Scratch buffers reused across rows: the row loop is the renderer's
    // hot path, and per-row `format!`/label clones dominated it before.
    label_buf: String,
    cells_buf: String,
    cell_buf: String,
    // Interned per-node labels: sort comparisons, tie-breaks and rows share
    // one rendered label per node instead of allocating per use. Borrowed,
    // so a session keeps them across renders.
    pub(crate) labels: &'a mut LabelCache,
    /// A session's last frame, when this render repeats its key.
    pub(crate) frame: Option<&'a mut Frame>,
}

/// What a cell's padding is sliced from: the widest pad, 19 blanks.
const BLANKS: &str = "                   ";

/// The metric cells of the rows a session's last render wrote, so that
/// a render of the same view and shown columns copies a row instead of
/// formatting it (DESIGN.md §12). A cell depends on the node, the shown
/// columns, their aggregates and `show_percent`: the maps are by node,
/// the key is the view and the columns, and the view's experiment and
/// the session's `RenderConfig` cannot change while it holds.
#[derive(Default)]
pub(crate) struct Frame {
    key: Option<(usize, Vec<ColumnId>)>,
    /// Trimmed cells by node: what the previous render recorded, and
    /// what this one records.
    last: HashMap<u32, String, MixState>,
    next: HashMap<u32, String, MixState>,
    /// Rows this render copied from `last`.
    pub(crate) reused: usize,
}

impl Frame {
    /// Start a render of `cols` in view `view`. A repeat of the previous
    /// render's key reads what that render recorded and records its own
    /// rows; any other render is a miss: it empties the frame, and its
    /// caller formats every row and records none. Returns whether it
    /// repeats.
    pub(crate) fn begin(&mut self, view: usize, cols: &[ColumnId]) -> bool {
        self.reused = 0;
        let repeat = self
            .key
            .as_ref()
            .is_some_and(|(v, c)| *v == view && c == cols);
        if !repeat {
            self.key = Some((view, cols.to_vec()));
            self.next.clear();
        }
        std::mem::swap(&mut self.last, &mut self.next);
        self.next.clear();
        repeat
    }
}

impl<'a, 'e> Renderer<'a, 'e> {
    /// A writer over `view` showing `cols`, in order.
    pub(crate) fn new(
        view: &'a mut View<'e>,
        cfg: &'a RenderConfig,
        labels: &'a mut LabelCache,
        cols: Vec<ColumnId>,
    ) -> Self {
        let aggregates = cols
            .iter()
            .map(|&c| view.experiment().aggregate(c))
            .collect();
        Renderer {
            view,
            cfg,
            cols,
            aggregates,
            out: String::new(),
            label_buf: String::new(),
            cells_buf: String::new(),
            cell_buf: String::new(),
            labels,
            frame: None,
        }
    }

    /// Extra header line over grouped columns: each `(label, span)` in
    /// `cfg.groups` is centered over the next `span` column cells (19
    /// display chars each). Spans past the shown columns are clipped.
    fn group_line(&mut self) {
        if self.cfg.groups.is_empty() {
            return;
        }
        let mut line = " ".repeat(self.cfg.label_width + 4);
        let mut used = 0usize;
        let mut shown = String::new();
        for (label, span) in &self.cfg.groups {
            let span = (*span).min(self.cols.len().saturating_sub(used));
            if span == 0 {
                break;
            }
            used += span;
            let width = span * 19;
            shown.clear();
            write_truncated_name(label, &mut shown);
            while shown.chars().count() > width.saturating_sub(2) {
                shown.pop();
            }
            let pad = width - shown.chars().count();
            for _ in 0..pad / 2 {
                line.push(' ');
            }
            line.push_str(&shown);
            for _ in 0..pad - pad / 2 {
                line.push(' ');
            }
        }
        self.out.push_str(line.trim_end());
        self.out.push('\n');
    }

    /// The `scope  <column names>` line, each name right-aligned over its
    /// 18-character cell.
    pub(crate) fn name_line(&mut self) {
        use std::fmt::Write as _;
        let mut line = format!("{:width$}", "scope", width = self.cfg.label_width + 4);
        let descs = self.view.column_descs();
        let mut shown = String::new();
        for &c in &self.cols {
            // Long derived-metric names are truncated so the table stays
            // aligned; the full name is available via --list-columns /
            // the column descriptor.
            shown.clear();
            write_truncated_name(&descs[c.index()].name, &mut shown);
            let _ = write!(line, " {shown:>18}");
        }
        self.out.push_str(line.trim_end());
        self.out.push('\n');
    }

    fn header(&mut self) {
        self.group_line();
        self.name_line();
        self.out
            .push_str(&"-".repeat(self.cfg.label_width + 4 + self.cols.len() * 19));
        self.out.push('\n');
    }

    /// Append `n`'s metric cells, each right-aligned to 18 display
    /// characters, trailing blanks trimmed, to `out`: copied from the
    /// frame when it holds `n`, formatted (and recorded, when there is a
    /// frame) otherwise.
    fn write_cells(&mut self, n: u32) {
        if let Some(f) = self.frame.as_deref_mut() {
            if let Some(cells) = f.last.remove(&n) {
                f.reused += 1;
                self.out.push_str(&cells);
                f.next.insert(n, cells);
                return;
            }
        }
        self.cells_buf.clear();
        for (i, &c) in self.cols.iter().enumerate() {
            let v = self.view.value(c, n);
            self.cell_buf.clear();
            if self.cfg.show_percent {
                format::write_metric_with_percent(v, self.aggregates[i], &mut self.cell_buf);
            } else {
                format::write_metric_value(v, &mut self.cell_buf);
            }
            // A cell is ASCII, so its length is its display width.
            let pad = 19usize.saturating_sub(self.cell_buf.len()).max(1);
            self.cells_buf.push_str(&BLANKS[..pad]);
            self.cells_buf.push_str(&self.cell_buf);
        }
        let cells = self.cells_buf.trim_end();
        if let Some(f) = self.frame.as_deref_mut() {
            f.next.insert(n, cells.to_owned());
        }
        self.out.push_str(cells);
    }

    /// Emit one `indent label    cells` row for `n` straight into `out`.
    /// `marks` (selection, flame, expansion state — whatever the walker
    /// decorates rows with) precede the call icon and the label; `row` is
    /// what [`View::row`] said about `n`.
    pub(crate) fn emit_row(
        &mut self,
        n: u32,
        row: Row,
        depth: usize,
        marks: &[&str],
        mark_no_source: bool,
    ) {
        self.label_buf.clear();
        for mark in marks {
            self.label_buf.push_str(mark);
        }
        if row.is_call && self.cfg.fused {
            self.label_buf.push_str(CALL_ICON);
        }
        let view = &*self.view;
        self.label_buf
            .push_str(self.labels.get(n, |buf| view.write_label(n, buf)));
        if mark_no_source && !row.has_source {
            self.label_buf.push_str(NO_SOURCE_MARK);
        }
        let gutter = write_indent(depth, &mut self.out);
        let width = self.cfg.label_width.saturating_sub(gutter);
        format::write_fit(&self.label_buf, width, &mut self.out);
        self.out.push_str("    ");
        self.write_cells(n);
        self.out.push('\n');
    }

    /// One static row: in separate-lines mode a called frame is preceded
    /// by its call site's own row.
    fn static_row(&mut self, n: u32, depth: usize) {
        let row = self.view.row(n);
        if !self.cfg.fused && row.is_call {
            if let Some(cs) = self.view.call_site(n) {
                use std::fmt::Write as _;
                self.label_buf.clear();
                let names = &self.view.experiment().cct.names;
                let _ = write!(
                    self.label_buf,
                    "call at {}:{}",
                    names.file_name(cs.file),
                    cs.line
                );
                write_indent(depth, &mut self.out);
                format::write_fit(&self.label_buf, self.cfg.label_width, &mut self.out);
                self.out.push('\n');
            }
        }
        self.emit_row(n, row, depth, &[], true);
    }

    /// Queue the visible window of `nodes` at `depth`, first on top, over
    /// a `… k more` line for the rest.
    fn queue(&mut self, mut nodes: Vec<u32>, depth: usize, pending: &mut Vec<(Line, usize)>) {
        let total = nodes.len();
        let shown = total.min(self.cfg.max_children);
        self.sort_visible(&mut nodes, shown);
        if total > shown {
            pending.push((Line::More(total - shown), depth));
        }
        pending.extend(nodes[..shown].iter().rev().map(|&n| (Line::Row(n), depth)));
    }

    /// Order `nodes` so the first `shown` are what the pane displays.
    /// Metric sorts over a truncated fan-out use top-k partial selection
    /// (only the visible window is fully ordered — identical prefix to a
    /// stable full sort); full expansion falls back to a full stable sort.
    fn sort_visible(&mut self, nodes: &mut Vec<u32>, shown: usize) {
        if self.cfg.sort_by_name {
            callpath_obs::count("viewer.sort.name", 1);
            sort_nodes_with(self.view, self.labels, nodes, SortKey::Name);
        } else if let Some(c) = self.cfg.sort {
            if shown < nodes.len() {
                callpath_obs::count("viewer.sort.topk", 1);
                top_k_by_column(self.view, self.labels, nodes, c, SortDir::Descending, shown);
            } else {
                callpath_obs::count("viewer.sort.full", 1);
                sort_nodes_with(
                    self.view,
                    self.labels,
                    nodes,
                    SortKey::Column {
                        column: c,
                        dir: SortDir::Descending,
                    },
                );
            }
        }
    }

    /// The static walker: header, then `roots` expanded per `cfg.expand`,
    /// over an explicit stack of lines still to write (next on top), so a
    /// deep tree costs heap, not call stack.
    fn run(&mut self, roots: &[u32]) {
        use std::fmt::Write as _;
        self.header();
        let levels = match self.cfg.expand {
            ExpandMode::All => usize::MAX,
            ExpandMode::Levels(n) => n,
        };
        let mut pending = Vec::new();
        self.queue(roots.to_vec(), 0, &mut pending);
        while let Some((line, depth)) = pending.pop() {
            match line {
                Line::More(hidden) => {
                    write_indent(depth, &mut self.out);
                    let _ = writeln!(self.out, "… {hidden} more");
                }
                Line::Row(n) if depth < self.cfg.max_depth => {
                    self.static_row(n, depth);
                    if depth + 1 < levels {
                        let kids = self.view.children(n);
                        self.queue(kids, depth + 1, &mut pending);
                    }
                }
                Line::Row(_) => {}
            }
        }
    }
}

/// What the static walker's stack holds beside a depth.
enum Line {
    /// A scope's row.
    Row(u32),
    /// The `… k more` line closing a truncated child list.
    More(usize),
}

/// The columns a static render shows: `cfg.columns`, or every visible one.
fn configured_columns(view: &View<'_>, cfg: &RenderConfig) -> Vec<ColumnId> {
    if cfg.columns.is_empty() {
        return view.visible_columns().collect();
    }
    // Out-of-range requests are dropped rather than panicking; the
    // header simply omits them.
    let available = view.column_descs().len();
    cfg.columns
        .iter()
        .copied()
        .filter(|c| c.index() < available)
        .collect()
}

/// Render a whole view.
pub fn render(view: &mut View<'_>, cfg: &RenderConfig) -> String {
    let roots = view.roots();
    render_flattened(view, &roots, cfg)
}

/// Render a zoomed subtree rooted at `start`.
pub fn render_subtree(view: &mut View<'_>, start: u32, cfg: &RenderConfig) -> String {
    render_flattened(view, &[start], cfg)
}

/// Render starting from an explicit root list — used with
/// [`FlatView::flatten`] to present a flattened Flat View.
pub fn render_flattened(view: &mut View<'_>, roots: &[u32], cfg: &RenderConfig) -> String {
    let cols = configured_columns(view, cfg);
    let mut labels = LabelCache::new();
    let mut r = Renderer::new(view, cfg, &mut labels, cols);
    r.run(roots);
    r.out
}

/// Run hot-path analysis from `start` on column `col` and render only the
/// path (plus each path scope's immediate children for context), marking
/// path members with the flame icon.
pub fn render_hot_path(
    view: &mut View<'_>,
    start: u32,
    col: ColumnId,
    hot_cfg: HotPathConfig,
    cfg: &RenderConfig,
) -> String {
    let path = view.hot_path(start, col, hot_cfg);
    let cols = configured_columns(view, cfg);
    let mut labels = LabelCache::new();
    let mut r = Renderer::new(view, cfg, &mut labels, cols);
    r.header();
    for (depth, &n) in path.iter().enumerate() {
        // Render the path node, then (unless it continues) stop.
        let is_last = depth + 1 == path.len();
        let row = r.view.row(n);
        r.emit_row(n, row, depth, &[HOT_ICON], true);
        if is_last {
            // Show where the path went cold: the children that each fell
            // below the threshold. Only the shown window needs ordering.
            let mut kids = r.view.children(n);
            let shown = kids.len().min(r.cfg.max_children.min(5));
            if let Some(c) = r.cfg.sort {
                top_k_by_column(r.view, r.labels, &mut kids, c, SortDir::Descending, shown);
            }
            for k in kids.into_iter().take(shown) {
                let row = r.view.row(k);
                r.emit_row(k, row, depth + 1, &[], false);
            }
        }
    }
    r.out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny experiment: main -> {hot (90), cold (10)}.
    fn sample() -> Experiment {
        let mut names = NameTable::new();
        let file = names.file("app.c");
        let module = names.module("app");
        let p_main = names.proc("main");
        let p_hot = names.proc("hot");
        let p_cold = names.proc("cold");
        let mut cct = Cct::new(names);
        let root = cct.root();
        let fr = |proc, line, cs: Option<u32>| ScopeKind::Frame {
            proc,
            module,
            def: SourceLoc::new(file, line),
            call_site: cs.map(|l| SourceLoc::new(file, l)),
        };
        let main = cct.add_child(root, fr(p_main, 1, None));
        let hot = cct.add_child(main, fr(p_hot, 10, Some(2)));
        let cold = cct.add_child(main, fr(p_cold, 20, Some(3)));
        let sh = cct.add_child(
            hot,
            ScopeKind::Stmt {
                loc: SourceLoc::new(file, 11),
            },
        );
        let sc = cct.add_child(
            cold,
            ScopeKind::Stmt {
                loc: SourceLoc::new(file, 21),
            },
        );
        let mut raw = RawMetrics::new(StorageKind::Csr);
        let cyc = raw.add_metric(MetricDesc::new("cycles", "cycles", 1.0));
        raw.add_cost(cyc, sh, 90.0);
        raw.add_cost(cyc, sc, 10.0);
        Experiment::build(cct, raw, StorageKind::Csr)
    }

    #[test]
    fn group_line_spans_and_clips_columns() {
        let exp = sample();
        let mut view = View::calling_context(&exp);
        let cfg = RenderConfig {
            // Three groups over two shown columns: the second is clipped
            // to one column, the third dropped entirely.
            groups: vec![("cycles".into(), 1), ("runs".into(), 4), ("gone".into(), 2)],
            ..RenderConfig::default()
        };
        let text = render(&mut view, &cfg);
        let group = text.lines().next().unwrap();
        assert!(group.contains("cycles"), "{text}");
        assert!(group.contains("runs"), "{text}");
        assert!(!group.contains("gone"), "{text}");
        assert!(group.find("cycles").unwrap() < group.find("runs").unwrap());
        // Without groups the first line is the plain column header.
        let plain = render(&mut view, &RenderConfig::default());
        assert!(plain.lines().next().unwrap().starts_with("scope"));
    }

    #[test]
    fn renders_sorted_tree_with_columns() {
        let exp = sample();
        let mut view = View::calling_context(&exp);
        let text = render(&mut view, &RenderConfig::default());
        assert!(text.contains("cycles (I)"));
        let hot_pos = text.find("hot").unwrap();
        let cold_pos = text.find("cold").unwrap();
        assert!(hot_pos < cold_pos, "sorted descending:\n{text}");
        // Percentages of the aggregate appear.
        assert!(text.contains("90.0%"), "{text}");
    }

    #[test]
    fn zero_cells_are_blank() {
        let exp = sample();
        let mut view = View::calling_context(&exp);
        let text = render(&mut view, &RenderConfig::default());
        // main's exclusive is zero: its row must contain exactly one
        // numeric cell (the inclusive one).
        let main_line = text
            .lines()
            .find(|l| l.trim_start().starts_with("main"))
            .unwrap();
        let numbers = main_line.matches("e").count();
        // "1.00e2" appears once for the inclusive column only.
        assert_eq!(main_line.matches("1.00e2").count(), 1);
        assert!(numbers >= 1);
        assert!(
            !main_line.contains("0.00e0"),
            "zeros must be blank: {main_line}"
        );
    }

    #[test]
    fn call_icon_marks_called_frames() {
        let exp = sample();
        let mut view = View::calling_context(&exp);
        let text = render(&mut view, &RenderConfig::default());
        let hot_line = text.lines().find(|l| l.contains("hot")).unwrap();
        assert!(hot_line.contains("↪"), "{hot_line}");
        let main_line = text
            .lines()
            .find(|l| l.trim_start().starts_with("main"))
            .unwrap();
        assert!(!main_line.contains("↪"));
    }

    #[test]
    fn separate_lines_mode_doubles_call_rows() {
        let exp = sample();
        let mut view = View::calling_context(&exp);
        let fused = render(&mut view, &RenderConfig::default());
        let mut view2 = View::calling_context(&exp);
        let separate = render(
            &mut view2,
            &RenderConfig {
                fused: false,
                ..Default::default()
            },
        );
        let fused_rows = fused.lines().count();
        let separate_rows = separate.lines().count();
        // Two called frames => two extra "call at" rows.
        assert_eq!(separate_rows, fused_rows + 2, "{separate}");
        assert!(separate.contains("call at app.c:2"));
    }

    #[test]
    fn expansion_levels_limit_depth() {
        let exp = sample();
        let mut view = View::calling_context(&exp);
        let text = render(
            &mut view,
            &RenderConfig {
                expand: ExpandMode::Levels(1),
                ..Default::default()
            },
        );
        assert!(text.contains("main"));
        assert!(
            !text.contains("hot"),
            "children must stay collapsed:\n{text}"
        );
    }

    #[test]
    fn hot_path_rendering_marks_the_path() {
        let exp = sample();
        let mut view = View::calling_context(&exp);
        let roots = view.roots();
        let text = render_hot_path(
            &mut view,
            roots[0],
            ColumnId(0),
            HotPathConfig::default(),
            &RenderConfig::default(),
        );
        assert!(text.contains("🔥"));
        let flames = text.matches("🔥").count();
        assert_eq!(flames, 3, "main -> hot -> stmt:\n{text}");
        assert!(!text.lines().any(|l| l.contains("cold") && l.contains("🔥")));
    }

    #[test]
    fn max_children_truncates_fanout() {
        // Build a root with many children.
        let mut names = NameTable::new();
        let file = names.file("x.c");
        let module = names.module("x");
        let procs: Vec<ProcId> = (0..30).map(|i| names.proc(&std::format!("p{i}"))).collect();
        let p_main = names.proc("main");
        let mut cct = Cct::new(names);
        let root = cct.root();
        let main = cct.add_child(
            root,
            ScopeKind::Frame {
                proc: p_main,
                module,
                def: SourceLoc::new(file, 1),
                call_site: None,
            },
        );
        let mut raw = RawMetrics::new(StorageKind::Csr);
        let cyc = raw.add_metric(MetricDesc::new("cycles", "cycles", 1.0));
        for (i, &p) in procs.iter().enumerate() {
            let f = cct.add_child(
                main,
                ScopeKind::Frame {
                    proc: p,
                    module,
                    def: SourceLoc::new(file, 10 + i as u32),
                    call_site: Some(SourceLoc::new(file, 2)),
                },
            );
            let s = cct.add_child(
                f,
                ScopeKind::Stmt {
                    loc: SourceLoc::new(file, 100 + i as u32),
                },
            );
            raw.add_cost(cyc, s, 1.0 + i as f64);
        }
        let exp = Experiment::build(cct, raw, StorageKind::Csr);
        let mut view = View::calling_context(&exp);
        let text = render(
            &mut view,
            &RenderConfig {
                max_children: 5,
                expand: ExpandMode::Levels(2),
                ..Default::default()
            },
        );
        assert!(text.contains("… 25 more"), "{text}");
    }

    #[test]
    fn flattened_render_uses_custom_roots() {
        let exp = sample();
        let mut flat = FlatView::build(&exp);
        let roots = flat.tree.roots();
        let once = flat.flatten_once(&exp, &roots);
        let ids: Vec<u32> = once.iter().map(|n| n.0).collect();
        let mut view = View::Flat {
            exp: &exp,
            view: flat,
        };
        let text = render_flattened(&mut view, &ids, &RenderConfig::default());
        // Flattening the module level exposes the file directly.
        assert!(text.starts_with("scope"));
        assert!(text.contains("app.c"));
        assert!(
            !text.lines().nth(2).unwrap().contains("app "),
            "module row elided"
        );
    }

    #[test]
    fn binary_only_scopes_are_marked() {
        let mut names = NameTable::new();
        let file = names.file("<unknown>");
        let module = names.module("rt");
        let p = names.proc("__libc_start_main");
        let mut cct = Cct::new(names);
        let root = cct.root();
        let f = cct.add_child(
            root,
            ScopeKind::Frame {
                proc: p,
                module,
                def: SourceLoc::new(file, 0), // line 0 = no source
                call_site: None,
            },
        );
        let s = cct.add_child(
            f,
            ScopeKind::Stmt {
                loc: SourceLoc::new(file, 0),
            },
        );
        let mut raw = RawMetrics::new(StorageKind::Csr);
        let cyc = raw.add_metric(MetricDesc::new("cycles", "cycles", 1.0));
        raw.add_cost(cyc, s, 5.0);
        let exp = Experiment::build(cct, raw, StorageKind::Csr);
        let mut view = View::calling_context(&exp);
        let text = render(&mut view, &RenderConfig::default());
        assert!(text.contains("__libc_start_main †"), "{text}");
    }

    #[test]
    fn rendering_is_deterministic() {
        let exp = sample();
        let a = render(&mut View::calling_context(&exp), &RenderConfig::default());
        let b = render(&mut View::calling_context(&exp), &RenderConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn truncated_names_keep_head_and_tail() {
        let shown = |name: &str| {
            let mut out = String::new();
            write_truncated_name(name, &mut out);
            out
        };
        // At or under 18 chars: untouched.
        assert_eq!(shown(""), "");
        assert_eq!(shown("PAPI_TOT_CYC (I)"), "PAPI_TOT_CYC (I)");
        assert_eq!(shown("exactly_18_chars__"), "exactly_18_chars__");
        // Over 18: first 9 + ellipsis + last 8, counted in chars.
        assert_eq!(shown("PAPI_TOT_CYC (I) mean"), "PAPI_TOT_…(I) mean");
        assert_eq!(shown("PAPI_TOT_CYC (I) mean").chars().count(), 18);
        // Multi-byte chars truncate on char boundaries, not bytes.
        let cyrillic = "цццццццццц_metric_(E)_stddev";
        let t = shown(cyrillic);
        assert_eq!(t.chars().count(), 18);
        assert!(t.starts_with("ццццццццц"));
        assert!(t.ends_with(")_stddev"));
    }
}
