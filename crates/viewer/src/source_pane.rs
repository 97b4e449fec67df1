//! The source pane: navigate from a navigation-pane scope to its source
//! code (Section V-B).
//!
//! Two navigations exist per line, mirroring hpcviewer's fused
//! presentation: selecting the scope name goes to the *callee/scope*
//! definition; clicking the call-site icon goes to the *call site* in the
//! caller. Access to source is exclusively through the navigation pane —
//! the paper removed direct metric access from the source pane because it
//! "encouraged users to inspect performance data that was often of little
//! or no importance" (Section V-A).

use callpath_core::prelude::*;
use callpath_core::source::SourceStore;

/// Where a navigation lands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceHit {
    /// File the navigation landed in.
    pub file_name: String,
    /// 1-based line.
    pub line: u32,
    /// Numbered excerpt with the focus line marked, if the store has the
    /// file.
    pub excerpt: Option<String>,
}

fn hit(view: &View<'_>, store: &SourceStore, loc: SourceLoc, context: u32) -> SourceHit {
    let names = &view.experiment().cct.names;
    SourceHit {
        file_name: names.file_name(loc.file).to_owned(),
        line: loc.line,
        excerpt: store.excerpt(loc.file, loc.line, context),
    }
}

/// Navigate to the scope itself (procedure definition, loop header,
/// statement). Returns `None` for scopes without source (binary-only
/// routines render in plain black and are not navigable).
pub fn navigate_to_scope(
    view: &View<'_>,
    node: u32,
    store: &SourceStore,
    context: u32,
) -> Option<SourceHit> {
    let loc = view.source_of(node)?;
    Some(hit(view, store, loc, context))
}

/// Navigate to the call site in the caller (the call-site icon's action).
pub fn navigate_to_call_site(
    view: &View<'_>,
    node: u32,
    store: &SourceStore,
    context: u32,
) -> Option<SourceHit> {
    let loc = view.call_site(node)?;
    Some(hit(view, store, loc, context))
}

/// Render a two-pane presentation for one selected scope: its navigation
/// row (label + metrics) above its source excerpt.
pub fn render_selection(view: &View<'_>, node: u32, store: &SourceStore, context: u32) -> String {
    render_selection_filtered(
        view,
        node,
        store,
        context,
        &std::collections::HashSet::new(),
    )
}

/// [`render_selection`], additionally skipping columns the session's
/// metric-properties dialog has hidden. The pane honoring the hidden set
/// matters beyond consistency: on a lazily opened database, rendering a
/// hidden column's value here would fault its block in from disk.
pub fn render_selection_filtered(
    view: &View<'_>,
    node: u32,
    store: &SourceStore,
    context: u32,
    hidden: &std::collections::HashSet<u32>,
) -> String {
    let mut out = String::new();
    let label = view.label(node);
    out.push_str(&format!("selected: {label}\n"));
    let cols: Vec<ColumnId> = view
        .visible_columns()
        .filter(|c| !hidden.contains(&c.0))
        .collect();
    for c in cols {
        let v = view.value(c, node);
        if v != 0.0 {
            out.push_str(&format!(
                "  {} = {}\n",
                view.column_descs()[c.index()].name,
                format::metric_value(v)
            ));
        }
    }
    match navigate_to_scope(view, node, store, context) {
        Some(h) => {
            out.push_str(&format!("--- {}:{} ---\n", h.file_name, h.line));
            match h.excerpt {
                Some(e) => out.push_str(&e),
                None => out.push_str("(source file not available)\n"),
            }
        }
        None => out.push_str("(no source: binary-only scope)\n"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use callpath_profiler::{generate_listings, Costs, ExecConfig, Op, ProgramBuilder};
    use callpath_workloads::pipeline;

    fn setup() -> (Experiment, Vec<(String, String)>) {
        let mut b = ProgramBuilder::new("app");
        let f = b.file("app.c");
        let work = b.declare("work", f, 10);
        let main = b.declare("main", f, 1);
        b.body(
            work,
            vec![Op::looped(11, 4, vec![Op::work(12, Costs::cycles(10_000))])],
        );
        b.body(main, vec![Op::call(3, work)]);
        b.entry(main);
        let program = b.build();
        let listings = generate_listings(&program);
        let exp = pipeline::build_experiment(&program, &ExecConfig::default());
        (exp, listings)
    }

    fn store_for(exp: &Experiment, listings: &[(String, String)]) -> SourceStore {
        SourceStore::from_texts(
            &exp.cct.names,
            listings.iter().map(|(n, t)| (n.as_str(), t.as_str())),
        )
    }

    #[test]
    fn scope_navigation_reaches_the_definition() {
        let (exp, listings) = setup();
        let store = store_for(&exp, &listings);
        let mut view = View::calling_context(&exp);
        let roots = view.roots();
        let main = roots[0];
        let hit = navigate_to_scope(&view, main, &store, 1).unwrap();
        assert_eq!(hit.file_name, "app.c");
        assert_eq!(hit.line, 1);
        assert!(hit.excerpt.unwrap().contains("void main() {"));
        let work = view.children(main)[0];
        let hit = navigate_to_scope(&view, work, &store, 0).unwrap();
        assert_eq!(hit.line, 10);
    }

    #[test]
    fn call_site_navigation_reaches_the_caller_line() {
        let (exp, listings) = setup();
        let store = store_for(&exp, &listings);
        let mut view = View::calling_context(&exp);
        let roots = view.roots();
        let work = view.children(roots[0])[0];
        let hit = navigate_to_call_site(&view, work, &store, 0).unwrap();
        assert_eq!(hit.line, 3, "the call in main");
        assert!(hit.excerpt.unwrap().contains("work();"));
        // main itself has no call site.
        assert!(navigate_to_call_site(&view, roots[0], &store, 0).is_none());
    }

    #[test]
    fn loop_scopes_navigate_to_their_header() {
        let (exp, listings) = setup();
        let store = store_for(&exp, &listings);
        let mut view = View::calling_context(&exp);
        let roots = view.roots();
        let work = view.children(roots[0])[0];
        let lp = view.children(work)[0];
        assert!(view.label(lp).starts_with("loop at"));
        let hit = navigate_to_scope(&view, lp, &store, 0).unwrap();
        assert_eq!(hit.line, 11);
        assert!(hit.excerpt.unwrap().contains("for (i = 0; i < 4;"));
    }

    #[test]
    fn selection_rendering_combines_metrics_and_source() {
        let (exp, listings) = setup();
        let store = store_for(&exp, &listings);
        let mut view = View::calling_context(&exp);
        let roots = view.roots();
        let text = render_selection(&view, roots[0], &store, 1);
        assert!(text.contains("selected: main"));
        assert!(text.contains("PAPI_TOT_CYC (I) ="));
        assert!(text.contains("void main() {"));
        let _ = view.children(roots[0]);
    }

    #[test]
    fn missing_source_degrades_gracefully() {
        let (exp, _) = setup();
        let empty = SourceStore::new();
        let view = View::calling_context(&exp);
        let roots = view.roots();
        let hit = navigate_to_scope(&view, roots[0], &empty, 1).unwrap();
        assert!(hit.excerpt.is_none());
        let text = render_selection(&view, roots[0], &empty, 1);
        assert!(text.contains("not available"));
    }
}
