//! Robustness: the interactive session must survive arbitrary command
//! sequences — every command either succeeds or returns a clean error,
//! rendering never panics, and the top-down visibility invariant holds
//! throughout.

use callpath_core::prelude::*;
use callpath_core::source::SourceStore;
use callpath_viewer::{Command, Session};
use callpath_workloads::generator::random_experiment;
use proptest::prelude::*;

fn arb_command(max_node: u32) -> impl Strategy<Value = Command> {
    prop_oneof![
        prop_oneof![
            Just(ViewKind::CallingContext),
            Just(ViewKind::Callers),
            Just(ViewKind::Flat),
        ]
        .prop_map(Command::SwitchView),
        (0..max_node).prop_map(Command::Expand),
        (0..max_node).prop_map(Command::Collapse),
        (0..max_node).prop_map(Command::Select),
        (0u32..12).prop_map(|c| Command::SortBy(ColumnId(c))),
        Just(Command::HotPath),
        (0.05f64..1.0).prop_map(Command::SetThreshold),
        (0..max_node).prop_map(Command::Zoom),
        Just(Command::Unzoom),
        Just(Command::Flatten),
        Just(Command::Unflatten),
        (0u32..12).prop_map(|c| Command::HideColumn(ColumnId(c))),
        (0u32..12).prop_map(|c| Command::ShowColumn(ColumnId(c))),
        any::<bool>().prop_map(Command::SortByName),
        "[a-z_]{1,8}".prop_map(Command::Find),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_command_sequences_never_panic(
        seed in 0u64..500,
        cmds in proptest::collection::vec(arb_command(300), 1..40),
    ) {
        let exp = random_experiment(seed, 150, 10);
        let mut session = Session::new(&exp, SourceStore::new());
        for c in cmds {
            // Errors are fine; panics are not.
            let _ = session.apply(c);
        }
        let text = session.render();
        prop_assert!(text.starts_with('['), "render always produces a view header");
        // Rendering is idempotent with respect to state.
        prop_assert_eq!(session.render(), text.as_str());
        // The numbered render is the plain one plus a `[row] ` prefix per
        // scope row, and reports one node id per such row.
        let (numbered, rows) = session.render_numbered();
        let mut stripped = String::new();
        let mut prefixed = 0;
        for line in numbered.split_inclusive('\n') {
            let prefix = format!("[{prefixed:>3}] ");
            match line.strip_prefix(prefix.as_str()) {
                Some(rest) => {
                    prefixed += 1;
                    stripped.push_str(rest);
                }
                None => stripped.push_str(line),
            }
        }
        prop_assert_eq!(prefixed, rows.len());
        prop_assert_eq!(stripped, text);
        // Every rendered row is a scope the top-down discipline accepts.
        for n in rows {
            prop_assert!(session.apply(Command::Select(n)).is_ok(), "row {} not selectable", n);
        }
    }

    /// Warm ≡ cold: a session that rendered after every command shows
    /// what a fresh session replaying the same commands shows on its
    /// first render, so no state one render leaves for the next (sort
    /// orders, labels, the last frame's cells) can outlive what it was
    /// computed from.
    #[test]
    fn a_warm_session_renders_what_a_cold_replay_renders(
        seed in 0u64..500,
        cmds in proptest::collection::vec(arb_command(300), 1..40),
    ) {
        let exp = random_experiment(seed, 150, 10);
        let mut warm = Session::new(&exp, SourceStore::new());
        for (i, c) in cmds.iter().enumerate() {
            let _ = warm.apply(c.clone());
            let mut cold = Session::new(&exp, SourceStore::new());
            for c in &cmds[..=i] {
                let _ = cold.apply(c.clone());
            }
            prop_assert_eq!(warm.render_numbered(), cold.render_numbered(), "after {:?}", &cmds[..=i]);
        }
    }

    #[test]
    fn selection_is_always_visible(
        seed in 0u64..200,
        cmds in proptest::collection::vec(arb_command(200), 1..30),
    ) {
        let exp = random_experiment(seed, 100, 8);
        let mut session = Session::new(&exp, SourceStore::new());
        for c in cmds {
            let _ = session.apply(c);
            if let Some(sel) = session.selected() {
                // The selected scope must appear in the rendered output
                // (visibility invariant) — unless a later zoom/collapse
                // hid it, in which case render simply omits it; either
                // way render must not panic, which the call checks.
                let _ = sel;
                let _ = session.render();
            }
        }
    }
}
