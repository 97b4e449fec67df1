//! Property tests for the interactive read path: the generation-stamped
//! [`SortCache`] and the top-k window selection must be *observably
//! identical* to naively re-sorting every child list with a full
//! `sort_by` on every query — under random column/direction choices,
//! NaN values, and structural growth (lazy Flat-View fills).

use callpath_core::prelude::*;
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
    sort_nodes_with(view, labels, &mut out, key, &mut 0);
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

    /// Under an interleaving of queries and lazy fills, every cached
    /// order — hit or recompute — equals the naive full re-sort.
    #[test]
    fn cached_orders_match_naive_recomputation(
        seed in 0u64..5_000,
        size in 5usize..200,
        ops in proptest::collection::vec((any::<u8>(), any::<u16>()), 4..14),
    ) {
        let exp = random_experiment(seed, size, 10);
        let mut view = View::flat(&exp);
        let mut cache = SortCache::new();
        let mut labels = LabelCache::new();
        for (op, a) in ops {
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
        let candidates = |view: &mut View<'_>| {
            let roots = view.roots();
            if from_children && !roots.is_empty() {
                view.children(roots[seed as usize % roots.len()])
            } else {
                roots
            }
        };
        let exp = random_experiment(seed, size, 10);
        // NaN goes into the costs of every kept instance of every
        // `nan_stride`-th candidate, so both columns read NaN there.
        let exp = if nan_stride == 0 {
            exp
        } else {
            let mut view = View::flat(&exp);
            let nodes = candidates(&mut view);
            let View::Flat { view: flat, .. } = &view else { unreachable!() };
            let mut raw = exp.raw.clone();
            for &n in nodes.iter().step_by(nan_stride) {
                for &i in flat.tree.kept(ViewNodeId(n)) {
                    raw.add_cost(MetricId(0), i, f64::NAN);
                }
            }
            Experiment::build(exp.cct.clone(), raw, StorageKind::Csr)
        };
        let mut view = View::flat(&exp);
        let mut labels = LabelCache::new();
        let dir = if ascending { SortDir::Ascending } else { SortDir::Descending };
        let nodes = candidates(&mut view);
        if nan_stride > 0 {
            for &n in nodes.iter().step_by(nan_stride) {
                prop_assert!(view.value(ColumnId(col), n).is_nan());
            }
        }
        let key = SortKey::Column { column: ColumnId(col), dir };
        let want = naive_sorted(&view, &nodes, key);
        let mut got = nodes.clone();
        top_k_by_column(&view, &mut labels, &mut got, ColumnId(col), dir, k);
        prop_assert_eq!(got.as_slice(), &want[..k.min(want.len())]);
    }
}
