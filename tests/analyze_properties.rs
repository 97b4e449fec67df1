//! Query-evaluation invariants on randomly generated CCTs:
//!
//! * **composition** — a composite predicate's mask equals the
//!   node-by-node boolean combination of its leaves' masks, and
//!   `subtree(p)` equals the quadratic any-descendant-matches
//!   definition;
//! * **storage** — an eager in-memory experiment, its eagerly decoded
//!   database round-trip and its lazily opened form all answer a query
//!   identically;
//! * **names** — a `proc` / `module` / `file` / `label` atom, which asks
//!   the matcher once per distinct name, answers every node as
//!   `Rex::is_match` on that node's own name does.

use callpath_analyze::query::{eval_mask, run_query, Field, Query};
use callpath_analyze::Rex;
use callpath_core::prelude::*;
use callpath_workloads::generator::random_experiment;
use proptest::prelude::*;

/// Leaf predicates that exercise every leaf kind on the generator's
/// naming scheme ("proc_NNNN", module "synth", files "synth_N.c",
/// metric "cycles").
const LEAVES: [&str; 4] = [
    r#"proc ~ "proc_00[0-4]""#,
    r#"incl("cycles") > 2%"#,
    r#"excl("cycles") > 0"#,
    r#"file ~ "synth_0\.c""#,
];

fn mask_of(exp: &Experiment, text: &str) -> Vec<bool> {
    let q = Query::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
    eval_mask(exp, &q.pred).unwrap_or_else(|e| panic!("{text}: {e}"))
}

/// Name pools of [`named_experiment`]. A spelling appears in several
/// namespaces but never under the same id in two of them, so a verdict
/// looked up in the wrong namespace's table is a wrong answer here.
/// `(a*)*b` exhausts the matcher's step budget on the run of `a`s.
const PROCS: [&str; 8] = [
    "main",
    "x.c",
    "naïve_φ",
    "libm.so",
    "solve_α",
    "aaab",
    "shared",
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
];
const FILES: [&str; 6] = [
    "shared",
    "main",
    "x.c",
    "δ/solve_α.f90",
    "lib.h",
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
];
const MODULES: [&str; 4] = ["x.c", "shared", "libm.so", "main"];
const FIELDS: [(&str, Field); 4] = [
    ("proc", Field::Proc),
    ("module", Field::Module),
    ("file", Field::File),
    ("label", Field::Label),
];
const PATTERNS: [&str; 11] = [
    "^main$",
    "shared",
    r"x\.c",
    "φ|α|δ",
    "^.",
    "(a*)*b",
    "lib",
    "[a-m]+_",
    ":[12]$",
    "^loop at",
    "inlined from [a-z]",
];

/// A random tree of every scope kind over the pools above, in a name
/// table that also holds names no node refers to (every even id, and a
/// tail longer than the tree).
fn named_experiment(seed: u64, nodes: usize) -> Experiment {
    let state = std::cell::Cell::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let below = |n: usize| {
        let mut x = state.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        state.set(x);
        (x >> 11) as usize % n
    };
    let mut names = NameTable::new();
    let procs: Vec<ProcId> = PROCS
        .iter()
        .map(|p| {
            names.proc(&format!("{p} (unreferenced)"));
            names.proc(p)
        })
        .collect();
    let files: Vec<FileId> = FILES
        .iter()
        .map(|f| {
            names.file(&format!("{f} (unreferenced)"));
            names.file(f)
        })
        .collect();
    let modules: Vec<LoadModuleId> = MODULES
        .iter()
        .map(|m| {
            names.module(&format!("{m} (unreferenced)"));
            names.module(m)
        })
        .collect();
    for i in 0..2 * nodes {
        names.proc(&format!("main_{i}"));
        names.file(&format!("x.c.{i}"));
    }
    let mut cct = Cct::new(names);
    let mut parents = vec![cct.root()];
    for _ in 0..nodes {
        let parent = parents[below(parents.len())];
        // The budget-exhausting names are the last of their pools and
        // rare: a reference evaluation pays for them node by node.
        let rare_last = |n: usize| below(n).min(below(n)).min(below(n));
        let proc = procs[rare_last(procs.len())];
        let loc = || SourceLoc::new(files[rare_last(files.len())], below(3) as u32);
        let kind = match below(5) {
            0 => ScopeKind::Frame {
                proc,
                module: modules[below(modules.len())],
                def: loc(),
                call_site: None,
            },
            1 => ScopeKind::Frame {
                proc,
                module: modules[below(modules.len())],
                def: loc(),
                call_site: Some(loc()),
            },
            2 => ScopeKind::InlinedFrame {
                proc,
                def: loc(),
                call_site: loc(),
            },
            3 => ScopeKind::Loop { header: loc() },
            _ => ScopeKind::Stmt { loc: loc() },
        };
        let child = cct.find_or_add_child(parent, kind);
        if !kind.is_stmt() && !parents.contains(&child) {
            parents.push(child);
        }
    }
    Experiment::build(cct, RawMetrics::new(StorageKind::Csr), StorageKind::Csr)
}

/// What a `~` atom means: the matcher's verdict on the node's own name.
fn own_name_matches(cct: &Cct, field: Field, rex: &Rex, n: NodeId) -> bool {
    let names = &cct.names;
    match (field, cct.kind(n)) {
        (Field::Proc, ScopeKind::Frame { proc, .. })
        | (Field::Proc, ScopeKind::InlinedFrame { proc, .. }) => {
            rex.is_match(names.proc_name(proc))
        }
        (Field::Module, ScopeKind::Frame { module, .. }) => rex.is_match(names.module_name(module)),
        (Field::File, ScopeKind::Frame { def: loc, .. })
        | (Field::File, ScopeKind::InlinedFrame { def: loc, .. })
        | (Field::File, ScopeKind::Loop { header: loc })
        | (Field::File, ScopeKind::Stmt { loc }) => rex.is_match(names.file_name(loc.file)),
        (Field::Label, kind) => rex.is_match(&kind.label(names)),
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Three random name atoms and their compositions against the
    /// per-node definition.
    #[test]
    fn name_atoms_match_each_nodes_own_name(
        seed in 0u64..1000,
        atoms in proptest::collection::vec((0usize..4, 0usize..11), 3),
    ) {
        let exp = named_experiment(seed.wrapping_add(28000), 160);
        let cct = &exp.cct;
        let mut texts = Vec::new();
        let mut masks = Vec::new();
        for &(f, p) in &atoms {
            let (field_name, field) = FIELDS[f];
            let rex = Rex::compile(PATTERNS[p]).unwrap();
            texts.push(format!("{field_name} ~ \"{}\"", PATTERNS[p]));
            masks.push(
                cct.all_nodes()
                    .map(|n| own_name_matches(cct, field, &rex, n))
                    .collect::<Vec<bool>>(),
            );
        }
        let (a, b, c) = (&masks[0], &masks[1], &masks[2]);
        let (ta, tb, tc) = (&texts[0], &texts[1], &texts[2]);
        let subtree = |inner: &dyn Fn(usize) -> bool| -> Vec<bool> {
            cct.all_nodes()
                .map(|n| cct.preorder(n).any(|d| inner(d.index())))
                .collect()
        };
        let either = subtree(&|n| a[n] || b[n]);
        let cases: Vec<(String, Vec<bool>)> = vec![
            (ta.clone(), a.clone()),
            (tb.clone(), b.clone()),
            (tc.clone(), c.clone()),
            (
                format!("({ta} and {tb}) or not {tc}"),
                (0..cct.len()).map(|n| (a[n] && b[n]) || !c[n]).collect(),
            ),
            (
                format!("subtree({ta} or {tb}) and not {tc}"),
                (0..cct.len()).map(|n| either[n] && !c[n]).collect(),
            ),
            (
                format!("not subtree({tc})"),
                subtree(&|n| c[n]).iter().map(|&m| !m).collect(),
            ),
        ];
        for (text, want) in &cases {
            prop_assert_eq!(&mask_of(&exp, text), want, "query={}", text);
        }
    }

    /// `(A and B) or not C` == the same formula applied node-wise to
    /// the leaf masks.
    #[test]
    fn composition_matches_nodewise_boolean_algebra(seed in 0u64..1000) {
        let exp = random_experiment(seed, 250, 24);
        let a = mask_of(&exp, LEAVES[0]);
        let b = mask_of(&exp, LEAVES[1]);
        let c = mask_of(&exp, LEAVES[2]);
        let composite = format!("({} and {}) or not {}", LEAVES[0], LEAVES[1], LEAVES[2]);
        let got = mask_of(&exp, &composite);
        for n in 0..exp.cct.len() {
            prop_assert_eq!(got[n], (a[n] && b[n]) || !c[n], "node {}", n);
        }
    }

    /// `subtree(p)` == "some node in my subtree (me included) matches
    /// p", checked against the quadratic ancestors-based definition.
    #[test]
    fn subtree_matches_the_quadratic_definition(seed in 0u64..1000) {
        let exp = random_experiment(seed.wrapping_add(7000), 200, 16);
        for leaf in [LEAVES[0], LEAVES[1]] {
            let inner = mask_of(&exp, leaf);
            let got = mask_of(&exp, &format!("subtree({leaf})"));
            for n in exp.cct.all_nodes() {
                let want = inner[n.0 as usize]
                    || exp
                        .cct
                        .preorder(n)
                        .any(|d| inner[d.0 as usize]);
                prop_assert_eq!(got[n.0 as usize], want, "node {} of {}", n.0, leaf);
            }
        }
    }

    /// Eager in-memory, eagerly decoded and lazily opened storage
    /// answer identically — same matches, same scores, same paths.
    #[test]
    fn eager_and_lazy_storage_agree(seed in 0u64..1000) {
        let exp = random_experiment(seed.wrapping_add(21000), 220, 20);
        let bytes = callpath_expdb::to_binary_v21(&exp);
        let decoded = callpath_expdb::from_binary(&bytes).unwrap();
        let lazy = callpath_expdb::open_lazy(bytes).unwrap();
        let composite = format!("({} or {}) and not {}", LEAVES[0], LEAVES[3], LEAVES[2]);
        for text in LEAVES.iter().copied().chain([composite.as_str()]) {
            let want = run_query(&exp, text, None, 25, 1).unwrap();
            let got_decoded = run_query(&decoded, text, None, 25, 1).unwrap();
            let got_lazy = run_query(&lazy, text, None, 25, 1).unwrap();
            prop_assert_eq!(&got_decoded, &want, "decoded diverged on {}", text);
            prop_assert_eq!(&got_lazy, &want, "lazy diverged on {}", text);
        }
    }
}
