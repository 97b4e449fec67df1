//! Query-evaluation invariants on randomly generated CCTs:
//!
//! * **composition** — a composite predicate's mask equals the
//!   node-by-node boolean combination of its leaves' masks, and
//!   `subtree(p)` equals the quadratic any-descendant-matches
//!   definition;
//! * **threads** — the mask is identical at 1, 2, 4 and 8 worker
//!   threads (the chunk-parallel leaf evaluation is position-stable);
//! * **storage** — an eager in-memory experiment, its eagerly decoded
//!   database round-trip and its lazily opened form all answer a query
//!   identically.
//!
//! `scripts/ci.sh` reruns this file with `CALLPATH_THREADS` pinned to 1
//! and 4, so the auto-resolved thread count is covered at both
//! degenerate and fanned-out settings.

use callpath_analyze::query::{eval_mask, run_query, Query};
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

fn mask_of(exp: &Experiment, text: &str, threads: usize) -> Vec<bool> {
    let q = Query::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
    eval_mask(exp, &q.pred, threads).unwrap_or_else(|e| panic!("{text}: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `(A and B) or not C` == the same formula applied node-wise to
    /// the leaf masks.
    #[test]
    fn composition_matches_nodewise_boolean_algebra(seed in 0u64..1000) {
        let exp = random_experiment(seed, 250, 24);
        let a = mask_of(&exp, LEAVES[0], 1);
        let b = mask_of(&exp, LEAVES[1], 1);
        let c = mask_of(&exp, LEAVES[2], 1);
        let composite = format!("({} and {}) or not {}", LEAVES[0], LEAVES[1], LEAVES[2]);
        let got = mask_of(&exp, &composite, 1);
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
            let inner = mask_of(&exp, leaf, 1);
            let got = mask_of(&exp, &format!("subtree({leaf})"), 1);
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

    /// The mask never depends on the worker-thread count.
    #[test]
    fn thread_count_never_changes_a_query(seed in 0u64..1000) {
        let exp = random_experiment(seed.wrapping_add(14000), 300, 24);
        let composite = format!(
            "subtree({} and {}) or ({} and not {})",
            LEAVES[0], LEAVES[1], LEAVES[2], LEAVES[3]
        );
        for text in LEAVES.iter().copied().chain([composite.as_str()]) {
            let base = mask_of(&exp, text, 1);
            for threads in [2usize, 4, 8] {
                prop_assert_eq!(
                    &mask_of(&exp, text, threads),
                    &base,
                    "threads={} query={}",
                    threads,
                    text
                );
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
