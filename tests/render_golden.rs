//! Byte-exact golden snapshot of the rendered Calling Context View for the
//! Fig. 1 experiment: pins the whole presentation stack — sorting, fused
//! call-site lines, scientific notation, blank zero cells, percentage
//! formatting — in one assertion.

use callpath_core::prelude::*;
use callpath_core::source::SourceStore;
use callpath_viewer::{render, Command, RenderConfig, Session};
use callpath_workloads::fig1;

const EXPECTED_CCV: &str = include_str!("data/fig1_ccv.golden");
const EXPECTED_CALLERS: &str = include_str!("data/fig1_callers.golden");
const EXPECTED_FLAT: &str = include_str!("data/fig1_flat.golden");
const EXPECTED_SESSION: &str = include_str!("data/fig1_session.golden");

/// Fig. 1's `file1.c`, so the source pane prints an excerpt.
const FILE1_C: &str = "f() {\n  g();\n}\n\n// m is the main routine\nm() {\n  f();\n  g();\n}\n";

#[test]
fn fig1_calling_context_renders_byte_exact() {
    let (exp, _) = fig1::experiment();
    let mut view = View::calling_context(&exp);
    let text = render(&mut view, &RenderConfig::default());
    // Normalize: the header's separator width depends on column count
    // only, so compare the whole thing directly.
    assert_eq!(text, EXPECTED_CCV, "rendered:\n{text}");
}

#[test]
fn fig1_callers_view_renders_byte_exact() {
    let (exp, _) = fig1::experiment();
    let mut view = View::callers(&exp);
    let text = render(&mut view, &RenderConfig::default());
    assert_eq!(text, EXPECTED_CALLERS, "rendered:\n{text}");
}

#[test]
fn fig1_flat_view_renders_byte_exact() {
    let (exp, _) = fig1::experiment();
    let mut view = View::flat(&exp);
    let text = render(&mut view, &RenderConfig::default());
    assert_eq!(text, EXPECTED_FLAT, "rendered:\n{text}");
}

/// One scripted interactive session touching every row decoration the
/// session walker adds (selection, flames, expansion marks, `[row]`
/// prefixes, hidden columns, source pane), the numbered render after each
/// step concatenated.
fn fig1_session_script() -> String {
    let (exp, _) = fig1::experiment();
    let store = SourceStore::from_texts(&exp.cct.names, [("file1.c", FILE1_C)]);
    let mut s = Session::new(&exp, store);
    let mut text = String::new();
    let mut step = |s: &mut Session<'_>, cmds: &[Command]| {
        for c in cmds {
            s.apply(c.clone()).unwrap();
        }
        let (page, rows) = s.render_numbered();
        text.push_str(&page);
        text.push_str("=====\n");
        rows
    };
    let rows = step(&mut s, &[]);
    let rows = step(&mut s, &[Command::Expand(rows[0])]);
    step(&mut s, &[Command::Select(rows[1])]);
    step(&mut s, &[Command::HotPath]);
    step(&mut s, &[Command::SortByName(true)]);
    step(&mut s, &[Command::HideColumn(ColumnId(1))]);
    step(&mut s, &[Command::Find("loop".into())]);
    let zoom = s.selected().unwrap();
    step(&mut s, &[Command::Zoom(zoom)]);
    step(&mut s, &[Command::Unzoom]);
    let rows = step(&mut s, &[Command::SwitchView(ViewKind::Callers)]);
    step(
        &mut s,
        &[Command::Expand(rows[0]), Command::Select(rows[0])],
    );
    step(
        &mut s,
        &[Command::SwitchView(ViewKind::Flat), Command::Flatten],
    );
    step(&mut s, &[Command::SortByName(false), Command::HotPath]);
    text
}

#[test]
fn fig1_session_script_renders_byte_exact() {
    let text = fig1_session_script();
    assert_eq!(text, EXPECTED_SESSION, "rendered:\n{text}");
}

#[test]
fn rendering_the_same_view_twice_is_identical() {
    let (exp, _) = fig1::experiment();
    let a = render(&mut View::callers(&exp), &RenderConfig::default());
    let b = render(&mut View::callers(&exp), &RenderConfig::default());
    assert_eq!(a, b);
    let fa = render(&mut View::flat(&exp), &RenderConfig::default());
    let fb = render(&mut View::flat(&exp), &RenderConfig::default());
    assert_eq!(fa, fb);
}
