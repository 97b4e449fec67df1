//! Property tests for the interactive read path: the generation-stamped
//! [`SortCache`] and the top-k window selection must be *observably
//! identical* to naively re-sorting every child list with a full
//! `sort_by` on every query — under random metric mutations, random
//! column/direction choices, and structural growth (lazy Flat-View
//! fills, appended summary columns).

use callpath_core::prelude::*;
use callpath_parallel::{run_spmd, summarize_view_nodes, SpmdConfig};
use callpath_profiler::{Costs, ExecConfig, Op, ProgramBuilder};
use callpath_workloads::generator::random_experiment;
use proptest::prelude::*;

/// The reference implementation: fresh labels, full stable `sort_by`,
/// exactly the comparator contract the viewer promises (metric order
/// per direction with every NaN after every number, label ascending on
/// ties; name sort is label ascending).
fn naive_sorted(view: &View<'_>, nodes: &[u32], key: SortKey) -> Vec<u32> {
    let mut out = nodes.to_vec();
    let label = |n: u32| view.label(n);
    match key {
        SortKey::Name => out.sort_by_key(|&a| label(a)),
        SortKey::Column { column, dir } => out.sort_by(|&a, &b| {
            let va = view.value(column, a);
            let vb = view.value(column, b);
            let by_value = match (va.is_nan(), vb.is_nan(), dir) {
                (false, false, SortDir::Descending) => vb.partial_cmp(&va).unwrap(),
                (false, false, SortDir::Ascending) => va.partial_cmp(&vb).unwrap(),
                (a_nan, b_nan, _) => a_nan.cmp(&b_nan),
            };
            by_value.then_with(|| label(a).cmp(&label(b)))
        }),
    }
    out
}

/// The session's caching discipline, reproduced here so the property
/// holds for the exact lookup/insert protocol the viewer uses (stamp at
/// the generation observed *after* computing, so lazy fills that run
/// during the compute don't invalidate the fresh entry).
fn cached(
    view: &mut View<'_>,
    cache: &mut SortCache,
    labels: &mut LabelCache,
    slot: u64,
    key: SortKey,
    nodes: &[u32],
) -> Vec<u32> {
    let generation = view.generation();
    if let Some(order) = cache.lookup(slot, key, generation) {
        return order.to_vec();
    }
    let mut out = nodes.to_vec();
    sort_nodes_with(view, labels, &mut out, key);
    cache.insert(slot, key, view.generation(), out.clone());
    out
}

fn pick_key(op: u8) -> SortKey {
    match op % 5 {
        0 => SortKey::Name,
        1 => SortKey::Column {
            column: ColumnId(0),
            dir: SortDir::Descending,
        },
        2 => SortKey::Column {
            column: ColumnId(0),
            dir: SortDir::Ascending,
        },
        3 => SortKey::Column {
            column: ColumnId(1),
            dir: SortDir::Descending,
        },
        _ => SortKey::Column {
            column: ColumnId(1),
            dir: SortDir::Ascending,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under an interleaving of queries and metric mutations, every
    /// cached order — hit or recompute — equals the naive full re-sort.
    #[test]
    fn cached_orders_match_naive_recomputation(
        seed in 0u64..5_000,
        size in 5usize..200,
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u16>(), any::<u16>(), -1_000i32..1_000),
            4..14,
        ),
    ) {
        let exp = random_experiment(seed, size, 10);
        let mut view = View::flat(&exp);
        let mut cache = SortCache::new();
        let mut labels = LabelCache::new();
        for (op, a, b, delta) in ops {
            let key = pick_key(op);
            // Alternate between the top-level list and a child list
            // (forcing a lazy fill on first touch).
            let roots = view.roots();
            prop_assert!(!roots.is_empty());
            let (slot, nodes) = if a % 2 == 0 {
                (TOP_SLOT_BASE, roots)
            } else {
                let p = roots[a as usize % roots.len()];
                (p as u64, view.children(p))
            };

            let got = cached(&mut view, &mut cache, &mut labels, slot, key, &nodes);
            prop_assert_eq!(&got, &naive_sorted(&view, &nodes, key));

            // A second identical query must be served by the cache and
            // still agree with the reference.
            let (hits_before, sorts_before) = cache.stats();
            let again = cached(&mut view, &mut cache, &mut labels, slot, key, &nodes);
            let (hits_after, sorts_after) = cache.stats();
            prop_assert_eq!(&again, &got);
            prop_assert_eq!(hits_after, hits_before + 1);
            prop_assert_eq!(sorts_after, sorts_before);

            // Mutate a metric value; the next query must reflect it.
            if let View::Flat { exp, view: flat } = &mut view {
                let node = ViewNodeId(b as u32 % flat.tree.len() as u32);
                let col = ColumnId(u32::from(b % 2 == 0));
                flat.tree.add(exp, col, node, f64::from(delta));
            }
            let after = cached(&mut view, &mut cache, &mut labels, slot, key, &nodes);
            prop_assert_eq!(&after, &naive_sorted(&view, &nodes, key));
        }
    }

    /// The top-k partial selection produces exactly the first k entries
    /// of the full stable sort, for every direction and window size —
    /// also when every `nan_stride`-th candidate's value is NaN (0: none).
    #[test]
    fn top_k_window_matches_full_sort_prefix(
        seed in 0u64..5_000,
        size in 5usize..200,
        k in 0usize..12,
        col in 0u32..2,
        ascending in any::<bool>(),
        from_children in any::<bool>(),
        nan_stride in 0usize..4,
    ) {
        let exp = random_experiment(seed, size, 10);
        let mut view = View::flat(&exp);
        let mut labels = LabelCache::new();
        let dir = if ascending { SortDir::Ascending } else { SortDir::Descending };
        let roots = view.roots();
        let nodes = if from_children && !roots.is_empty() {
            view.children(roots[seed as usize % roots.len()])
        } else {
            roots
        };
        if let (View::Flat { exp, view: flat }, true) = (&mut view, nan_stride > 0) {
            for &n in nodes.iter().step_by(nan_stride) {
                flat.tree.add(exp, ColumnId(col), ViewNodeId(n), f64::NAN);
            }
        }
        let key = SortKey::Column { column: ColumnId(col), dir };
        let want = naive_sorted(&view, &nodes, key);
        let mut got = nodes.clone();
        top_k_by_column(&view, &mut labels, &mut got, ColumnId(col), dir, k);
        prop_assert_eq!(got.as_slice(), &want[..k.min(want.len())]);
    }
}

/// Appending summary columns to a view tree (the `hpcprof` finalization
/// step in `callpath-parallel`) bumps the tree's column generation, so
/// stale cached orders die and the new column sorts correctly.
#[test]
fn append_view_columns_invalidates_cached_orders() {
    let mut b = ProgramBuilder::new("x");
    let f = b.file("x.c");
    let g = b.declare("g", f, 10);
    let h = b.declare("h", f, 30);
    let main = b.declare("main", f, 1);
    b.body(g, vec![Op::work(11, Costs::cycles(1_000))]);
    b.body(h, vec![Op::work(31, Costs::cycles(500))]);
    b.body(main, vec![Op::call(2, g), Op::call(3, h)]);
    b.entry(main);
    let program = b.build();
    let run = run_spmd(
        &program,
        &SpmdConfig::new(vec![1.0, 3.0], ExecConfig::default()),
    );
    let exp = &run.experiment;

    let mut view = View::flat(exp);
    let mut cache = SortCache::new();
    let mut labels = LabelCache::new();
    let key = SortKey::Column {
        column: ColumnId(0),
        dir: SortDir::Descending,
    };

    let roots = view.roots();
    let first = cached(
        &mut view,
        &mut cache,
        &mut labels,
        TOP_SLOT_BASE,
        key,
        &roots,
    );
    assert_eq!(cache.stats(), (0, 1), "first query computes");
    let again = cached(
        &mut view,
        &mut cache,
        &mut labels,
        TOP_SLOT_BASE,
        key,
        &roots,
    );
    assert_eq!(again, first);
    assert_eq!(cache.stats(), (1, 1), "second query hits");

    // Append mean/max summary columns directly onto the flat tree.
    let gen_before = view.generation();
    let new_cols = {
        let View::Flat { exp, view: flat } = &mut view else {
            unreachable!()
        };
        let s = summarize_view_nodes(
            exp,
            &flat.tree,
            &[callpath_profiler::Counter::Cycles],
            &run.rank_direct,
        );
        s.append_view_columns(exp, &mut flat.tree, &[Stat::Mean, Stat::Max])
    };
    assert!(
        view.generation() > gen_before,
        "append bumps the generation"
    );

    // The old entry is stale: the same query recomputes (no false hit)...
    let recomputed = cached(
        &mut view,
        &mut cache,
        &mut labels,
        TOP_SLOT_BASE,
        key,
        &roots,
    );
    assert_eq!(cache.stats(), (1, 2), "stale entry forces a recompute");
    assert_eq!(recomputed, naive_sorted(&view, &roots, key));

    // ...and sorting by a freshly appended column matches the reference.
    let mean_key = SortKey::Column {
        column: new_cols[0],
        dir: SortDir::Descending,
    };
    let by_mean = cached(
        &mut view,
        &mut cache,
        &mut labels,
        TOP_SLOT_BASE,
        mean_key,
        &roots,
    );
    assert_eq!(by_mean, naive_sorted(&view, &roots, mean_key));
}
