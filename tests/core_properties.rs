//! Property-based tests of the core invariants, over randomly generated
//! experiments (recursion, loops, arbitrary fan-out).
//!
//! These pin down the algebra the paper relies on:
//!
//! * conservation: the root's inclusive cost equals the sum of all direct
//!   (sample) costs — nothing is lost or double-counted by attribution;
//! * exclusive costs partition inclusive cost at statement level;
//! * exposure filtering is idempotent and order-insensitive.
//!
//! The views' values and the Eq. 3 hot path are held to their
//! definitions by `tests/view_oracle.rs` and `tests/attribution_oracle.rs`.

use callpath_core::prelude::*;
use callpath_workloads::generator::random_experiment;
use proptest::prelude::*;
use std::collections::HashMap;

const CYC: ColumnId = ColumnId(0);

fn total_direct(exp: &Experiment) -> f64 {
    exp.raw.total(MetricId(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn root_inclusive_conserves_all_samples(seed in 0u64..10_000, size in 5usize..600) {
        let exp = random_experiment(seed, size, 15);
        let root = exp.cct.root();
        let incl = exp.columns.get(CYC, root.0);
        let direct = total_direct(&exp);
        prop_assert!((incl - direct).abs() < 1e-6 * direct.max(1.0));
    }

    #[test]
    fn inclusive_is_monotone_down_paths(seed in 0u64..10_000, size in 5usize..400) {
        let exp = random_experiment(seed, size, 15);
        for n in exp.cct.all_nodes() {
            if let Some(p) = exp.cct.parent(n) {
                prop_assert!(
                    exp.columns.get(CYC, p.0) >= exp.columns.get(CYC, n.0) - 1e-9,
                    "parent inclusive >= child inclusive"
                );
            }
        }
    }

    #[test]
    fn statement_exclusives_partition_the_total(seed in 0u64..10_000, size in 5usize..400) {
        let exp = random_experiment(seed, size, 15);
        let excl = ColumnId(1);
        let stmt_sum: f64 = exp
            .cct
            .all_nodes()
            .filter(|&n| exp.cct.kind(n).is_stmt())
            .map(|n| exp.columns.get(excl, n.0))
            .sum();
        let direct = total_direct(&exp);
        prop_assert!((stmt_sum - direct).abs() < 1e-6 * direct.max(1.0));
    }

    #[test]
    fn exposure_is_idempotent_and_order_insensitive(seed in 0u64..10_000, size in 5usize..300) {
        let exp = random_experiment(seed, size, 6);
        // Gather all frames of the most common procedure.
        let mut by_proc: HashMap<ProcId, Vec<NodeId>> = HashMap::new();
        for n in exp.cct.all_nodes() {
            if let ScopeKind::Frame { proc, .. } = exp.cct.kind(n) {
                by_proc.entry(proc).or_default().push(n);
            }
        }
        let Some((_, instances)) = by_proc.iter().max_by_key(|(_, v)| v.len()) else {
            return Ok(());
        };
        let once = exposed(&exp.cct, instances);
        let twice = exposed(&exp.cct, &once);
        prop_assert_eq!(&once, &twice, "idempotent");
        let mut reversed: Vec<NodeId> = instances.iter().rev().copied().collect();
        let mut exp_rev = exposed(&exp.cct, &reversed);
        exp_rev.sort_unstable();
        let mut exp_fwd = once.clone();
        exp_fwd.sort_unstable();
        prop_assert_eq!(exp_fwd, exp_rev, "order-insensitive as a set");
        reversed.clear();
    }

    #[test]
    fn lazy_and_eager_callers_views_agree(seed in 0u64..10_000, size in 5usize..250) {
        let exp = random_experiment(seed, size, 8);
        // On demand, level by level — the order a user would expand in —
        // against everything at once (depth first): node ids differ, the
        // forest and its numbers must not.
        let mut lazy = CallersView::build(&exp);
        let mut level = lazy.tree.roots();
        while !level.is_empty() {
            level = level.iter().flat_map(|&n| lazy.children_of(&exp, n)).collect();
        }
        let mut eager = CallersView::build(&exp);
        eager.fully_expand(&exp);
        prop_assert_eq!(lazy.tree.len(), eager.tree.len());
        let mut pairs: Vec<_> = lazy.tree.roots().into_iter().zip(eager.tree.roots()).collect();
        while let Some((a, b)) = pairs.pop() {
            prop_assert_eq!(lazy.tree.scope(a), eager.tree.scope(b));
            prop_assert_eq!(
                lazy.tree.value(&exp, CYC, a),
                eager.tree.value(&exp, CYC, b)
            );
            let (ca, cb) = (lazy.tree.children(a), eager.tree.children(b));
            prop_assert_eq!(ca.len(), cb.len());
            pairs.extend(ca.into_iter().zip(cb));
        }
    }

    #[test]
    fn derived_formula_algebra(seed in 0u64..10_000, size in 5usize..200, k in 1.0f64..16.0) {
        let mut exp = random_experiment(seed, size, 8);
        let scaled = exp.add_derived("scaled", &format!("$0 * {k}")).unwrap();
        let identity = exp.add_derived("identity", &format!("${} / {k}", scaled.0)).unwrap();
        for n in exp.cct.all_nodes() {
            let orig = exp.columns.get(CYC, n.0);
            let back = exp.columns.get(identity, n.0);
            prop_assert!((orig - back).abs() < 1e-9 * orig.abs().max(1.0));
        }
    }
}

// ---------------------------------------------------------------------
// Formula pretty-printer: parse ∘ to_string is the identity on the AST.
// ---------------------------------------------------------------------

fn arb_expr() -> impl Strategy<Value = Expr> {
    use callpath_core::derived::Func;
    let leaf = prop_oneof![
        // Non-negative finite literals: a leading '-' re-parses as Neg.
        (0.0f64..1e6).prop_map(Expr::Num),
        (0u32..16).prop_map(Expr::Col),
        (0u32..16).prop_map(Expr::Agg),
    ];
    leaf.prop_recursive(5, 64, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Neg(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Div(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Pow(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|e| Expr::Call(Func::Sqrt, vec![e])),
            inner.clone().prop_map(|e| Expr::Call(Func::Abs, vec![e])),
            proptest::collection::vec(inner.clone(), 1..4)
                .prop_map(|args| Expr::Call(Func::Min, args)),
            proptest::collection::vec(inner, 1..4).prop_map(|args| Expr::Call(Func::Max, args)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn formula_print_parse_roundtrip(e in arb_expr()) {
        let printed = e.to_string();
        let reparsed = Expr::parse(&printed)
            .unwrap_or_else(|err| panic!("printed '{printed}' failed to parse: {err}"));
        prop_assert_eq!(reparsed, e, "{}", printed);
    }

    #[test]
    fn formula_eval_is_total(e in arb_expr(), cols in proptest::collection::vec(-1e6f64..1e6, 16)) {
        // No panics, whatever the inputs; NaN can arise from pow of
        // negatives, but evaluation itself must always return.
        let ctx = SliceContext { columns: &cols, aggregates: &cols };
        let _ = e.eval(&ctx);
    }
}
