//! The attribution kernel against one obviously-right oracle.
//!
//! The oracle restates Section IV-A over a plain parent array, with no
//! cleverness to get wrong: Eq. 2 by definition — a node's inclusive
//! cost is the sum of the direct costs in its subtree, so every direct
//! cost is added to each of its ancestors in turn, nnz × depth steps —
//! and Eq. 1 by the four rules of `core::attribution`'s module doc.
//! Generated costs are multiples of 1/64 of bounded size, so every sum
//! is exact in any order and "equal" means equal bits; a separate
//! property pins the *order* of the kernel's additions for arbitrary
//! finite values. The kernel has two branches — the walk over marked
//! ancestor chains, and a sweep of node-indexed vectors for a column
//! that touches a quarter of the tree or more — and every property runs
//! on trees padded with idle frames (the walk, asserted) and without.
//!
//! Every case is checked on the owned arena and on the topology borrowed
//! from both file images in the same process — a database file mapped by
//! path (`open_lazy_path`) and its bytes read into memory (`open_lazy`)
//! — and through the lazy column-fault path. Results are read through
//! `nonzero_sorted()` and `get`, which give the same entries whether the
//! kernel handed over sorted arrays (the walk) or vectors (the sweep).
//! Frame-direct cost is not a kernel output: `frame_direct` sums it from
//! the raw column on demand, and is held to the oracle over the same
//! matrix. Eq. 3, the hot path from the root of the Calling Context
//! View, is held through every opener to its definition over the
//! oracle's inclusive values.

use callpath_core::attribution::{attribute, attribute_sorted, frame_direct, Attribution};
use callpath_core::prelude::*;
use callpath_expdb::model::{DbMetric, DbModel, DbNode};
use callpath_expdb::{bin2, open_lazy, open_lazy_path};
use callpath_workloads::synth::{synth_model, SynthConfig};
use proptest::prelude::*;
use std::collections::HashSet;

/// splitmix64: models are a pure function of the proptest scalars.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A non-zero multiple of 1/64 in ±32, either sign.
fn dyadic(r: u64) -> f64 {
    let q = (r % 4096) as f64 - 2048.0;
    (if q == 0.0 { 1.0 } else { q }) / 64.0
}

/// Line `line` of the one source file.
fn at(line: u32) -> SourceLoc {
    SourceLoc::new(FileId(0), line)
}

fn frame(r: u64) -> ScopeKind {
    ScopeKind::Frame {
        // Three procedures over a long chain: every one of them recurs.
        proc: ProcId((r >> 8) as u32 % 3),
        module: LoadModuleId((r >> 16) as u32 % 2),
        def: at(1 + (r >> 24) as u32 % 50),
        call_site: (r & 1 == 0).then_some(at((r >> 32) as u32 % 400)),
    }
}

fn inlined(r: u64) -> ScopeKind {
    ScopeKind::InlinedFrame {
        proc: ProcId((r >> 8) as u32 % 3),
        def: at(1 + (r >> 24) as u32 % 50),
        call_site: at((r >> 32) as u32 % 400),
    }
}

/// A random CCT: a call chain `chain` scopes deep (recursive frames,
/// inlined frames and loops), then `bushy` scopes hung off random
/// earlier ones, statements as leaves, then `idle` more frames in
/// chains off the root. One metric with `nnz` costs at random nodes of
/// the first two parts — the root, frames and loops included. The idle
/// part decides the kernel's branch: with none of it a deep chain's costs
/// touch most of the tree (the sweep), with four times the rest they
/// touch under a quarter (the marked walk).
fn random_model(seed: u64, chain: usize, bushy: usize, nnz: usize, idle: usize) -> DbModel {
    let mut nodes: Vec<DbNode> = Vec::with_capacity(chain + bushy + idle);
    // Scopes that may have children, and whether a frame encloses them.
    let mut hosts: Vec<u32> = vec![0];
    let mut framed = vec![false];
    for i in 0..chain + bushy {
        let id = i as u32 + 1;
        let r = mix(seed, i as u64);
        let parent = if i < chain {
            id - 1
        } else {
            hosts[(r >> 40) as usize % hosts.len()]
        };
        let pick = if !framed[parent as usize] {
            0
        } else if i < chain {
            r % 6
        } else {
            r % 10
        };
        let line = 2 + (r >> 48) as u32 % 300;
        let scope = match pick {
            0..=3 => frame(r),
            4 => inlined(r),
            5 | 6 => ScopeKind::Loop { header: at(line) },
            _ => ScopeKind::Stmt { loc: at(line) },
        };
        if pick < 7 {
            hosts.push(id);
        }
        framed.push(framed[parent as usize] || pick <= 4);
        nodes.push(DbNode { parent, scope });
    }
    let n_active = nodes.len() as u64 + 1;
    for j in 0..idle {
        let id = nodes.len() as u32 + 1;
        let parent = if j % 64 == 0 { 0 } else { id - 1 };
        let scope = frame(mix(seed ^ 0x1d1e, j as u64));
        nodes.push(DbNode { parent, scope });
    }
    let mut at: Vec<u32> = (0..nnz as u64)
        .map(|k| (mix(seed ^ 0xc057, k) % n_active) as u32)
        .collect();
    at.sort_unstable();
    at.dedup();
    let costs = at
        .into_iter()
        .map(|node| (node, dyadic(mix(seed ^ 0xda7a, node as u64))))
        .collect();
    DbModel {
        procs: (0..3).map(|i| format!("p{i}")).collect(),
        files: vec!["f.c".into()],
        modules: vec!["app".into(), "libm.so".into()],
        nodes,
        metrics: vec![DbMetric {
            name: "M".into(),
            unit: "ev".into(),
            period: 1.0,
            costs,
        }],
        derived: vec![],
    }
}

/// Dense per-node results of the reference definition.
struct Oracle {
    inclusive: Vec<f64>,
    exclusive: Vec<f64>,
    frame_direct: Vec<f64>,
}

fn oracle(model: &DbModel, costs: &[(u32, f64)]) -> Oracle {
    let n = model.nodes.len() + 1;
    let parent = |x: u32| (x != 0).then(|| model.nodes[x as usize - 1].parent);
    let scope = |x: u32| (x != 0).then(|| &model.nodes[x as usize - 1].scope);
    let is_frame = |x: u32| {
        matches!(
            scope(x),
            Some(ScopeKind::Frame { .. } | ScopeKind::InlinedFrame { .. })
        )
    };
    let mut o = Oracle {
        inclusive: vec![0.0; n],
        exclusive: vec![0.0; n],
        frame_direct: vec![0.0; n],
    };
    for &(y, d) in costs {
        if y as usize >= n {
            continue;
        }
        // Eq. 2: y lies in the subtree of y and of each of its ancestors.
        let mut x = Some(y);
        while let Some(a) = x {
            o.inclusive[a as usize] += d;
            x = parent(a);
        }
        // Eq. 1.
        match scope(y) {
            // The root displays no exclusive cost.
            None | Some(ScopeKind::Root) => {}
            Some(ScopeKind::Frame { .. } | ScopeKind::InlinedFrame { .. }) => {
                o.exclusive[y as usize] += d;
                o.frame_direct[y as usize] += d;
            }
            Some(s @ (ScopeKind::Loop { .. } | ScopeKind::Stmt { .. })) => {
                o.exclusive[y as usize] += d;
                let p = parent(y).expect("a static scope has a parent");
                // Rule 2: a loop sums its direct child statements.
                if matches!(s, ScopeKind::Stmt { .. })
                    && matches!(scope(p), Some(ScopeKind::Loop { .. }))
                {
                    o.exclusive[p as usize] += d;
                }
                // Rule 1: the innermost frame at or above the parent.
                let mut f = Some(p);
                while f.is_some_and(|a| !is_frame(a)) {
                    f = parent(f.unwrap());
                }
                if let Some(f) = f {
                    o.exclusive[f as usize] += d;
                    if f == p {
                        o.frame_direct[f as usize] += d;
                    }
                }
            }
        }
    }
    o
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn column_bits(v: &MetricVec, n: usize) -> Vec<u64> {
    (0..n as u32).map(|i| v.get(i).to_bits()).collect()
}

/// Frame-direct cost at every node, from the raw column `direct`.
fn frame_direct_bits(cct: &Cct, direct: &MetricVec) -> Vec<u64> {
    cct.all_nodes()
        .map(|n| frame_direct(cct, direct, n).to_bits())
        .collect()
}

/// A column's non-zero entries, the same from either shape.
fn entries(v: &MetricVec) -> Vec<(u32, f64)> {
    v.nonzero_sorted().collect()
}

/// `attribute` over `cct`, from an ingested column, against the oracle.
fn check_attribute(cct: &Cct, costs: &[(u32, f64)], want: &Oracle) {
    let n = cct.len();
    let mut raw = RawMetrics::new(StorageKind::Csr);
    let m = raw.add_metric(MetricDesc::new("M", "ev", 1.0));
    for &(node, v) in costs {
        raw.add_cost(m, NodeId(node), v);
    }
    let got = attribute(cct, &raw, m, StorageKind::Csr);
    let tag = format!("mapped {}", cct.is_mapped());
    assert_eq!(
        column_bits(&got.inclusive, n),
        bits(&want.inclusive),
        "inclusive, {tag}"
    );
    assert_eq!(
        column_bits(&got.exclusive, n),
        bits(&want.exclusive),
        "exclusive, {tag}"
    );
    assert_eq!(
        frame_direct_bits(cct, raw.column(m)),
        bits(&want.frame_direct),
        "frame-direct, {tag}"
    );
}

/// The database of `model` through both file images: written to a
/// scratch file and mapped by path, and read from its bytes. Either way
/// the CCT's topology is borrowed from the image.
fn opened(model: &DbModel, tag: &str) -> [(&'static str, Experiment); 2] {
    let bytes = bin2::write_v21(model);
    let path =
        std::env::temp_dir().join(format!("callpath-oracle-{}-{tag}.cpdb", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let mapped = open_lazy_path(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let opened = [("mapped", mapped), ("read", open_lazy(bytes).unwrap())];
    for (how, exp) in &opened {
        assert!(
            exp.cct.is_mapped(),
            "{how}: an opened database borrows its topology"
        );
    }
    opened
}

/// Eq. 3 from the root by definition: descend to the first child, in
/// tree order, of the largest inclusive value, while the parent's value
/// is above zero and that child holds at least `t` of it — at most 512
/// steps.
fn hot_path_by_definition(model: &DbModel, inclusive: &[f64], t: f64) -> Vec<u32> {
    let mut children = vec![Vec::new(); inclusive.len()];
    for (i, node) in model.nodes.iter().enumerate() {
        children[node.parent as usize].push(i + 1);
    }
    let mut path = vec![0];
    while path.len() <= 512 && inclusive[*path.last().unwrap()] > 0.0 {
        let x = *path.last().unwrap();
        let first_max =
            children[x]
                .iter()
                .copied()
                .reduce(|a, b| if inclusive[b] > inclusive[a] { b } else { a });
        match first_max {
            Some(c) if inclusive[c] >= t * inclusive[x] => path.push(c),
            _ => break,
        }
    }
    path.into_iter().map(|x| x as u32).collect()
}

/// Owned and borrowed topology through both file images, the lazy fault
/// path and the hot path, all against the oracle.
fn check_model(model: &DbModel, tag: &str) {
    let costs = &model.metrics[0].costs;
    let want = oracle(model, costs);
    let hot_paths =
        [0.05, 0.5, 1.0].map(|t| (t, hot_path_by_definition(model, &want.inclusive, t)));
    let built = model.clone().into_experiment().unwrap();
    let [mapped, read] = opened(model, tag);
    for (how, exp) in [("built", built), mapped, read] {
        let n = exp.cct.len();
        check_attribute(&exp.cct, costs, &want);
        assert_eq!(
            frame_direct_bits(&exp.cct, exp.raw.column(MetricId(0))),
            bits(&want.frame_direct),
            "{how}"
        );
        assert_eq!(
            column_bits(exp.columns.vec(ColumnId(0)), n),
            bits(&want.inclusive),
            "{how}"
        );
        assert_eq!(
            column_bits(exp.columns.vec(ColumnId(1)), n),
            bits(&want.exclusive),
            "{how}"
        );
        for (t, want) in &hot_paths {
            let config = HotPathConfig::with_threshold(*t);
            let got = View::calling_context(&exp).hot_path(0, ColumnId(0), config);
            assert_eq!(&got, want, "{how}: hot path at t = {t}");
        }
        assert!(exp.columns.lazy_errors().is_empty());
        assert!(exp.raw.lazy_errors().is_empty());
    }
}

/// Idle frames enough that the other `active` scopes are under a quarter
/// of the tree — the kernel's marked walk — or none at all.
fn idle_nodes(quiet: bool, active: usize) -> usize {
    if quiet {
        4 * (active + 1)
    } else {
        0
    }
}

/// Did the kernel walk the marked chains (rather than sweep the tree)?
fn walked(model: &DbModel) -> bool {
    let (keys, vals): (Vec<u32>, Vec<f64>) = model.metrics[0].costs.iter().copied().unzip();
    let visited = attribute_sorted(&model.build_cct().unwrap(), &keys, &vals).visited;
    visited * 4 < model.nodes.len() + 1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn attribution_matches_the_definition_on_random_ccts(
        seed in 0u64..100_000, bushy in 0usize..400, nnz in 0usize..80, quiet in 0usize..2
    ) {
        let model = random_model(seed, 0, bushy, nnz, idle_nodes(quiet == 1, bushy));
        prop_assert!(quiet == 0 || walked(&model));
        check_model(&model, &format!("bushy-{seed}"));
    }

    #[test]
    fn attribution_matches_the_definition_under_deep_chains(
        seed in 0u64..100_000, extra in 0usize..2_000, bushy in 0usize..300, nnz in 1usize..60,
        quiet in 0usize..2
    ) {
        let chain = 10_000 + extra;
        let model = random_model(seed, chain, bushy, nnz, idle_nodes(quiet == 1, chain + bushy));
        prop_assert!(quiet == 0 || walked(&model));
        check_model(&model, &format!("deep-{seed}"));
    }

    /// The kernel's sums are those of the sweep over node-indexed
    /// vectors: every parent adds its children's finished sums in
    /// descending child order, every Eq. 1 target its costs in ascending
    /// source order — and so does `frame_direct`. With arbitrary finite
    /// values that order shows in the last bit, so Eq. 2 is compared
    /// against the reverse sweep itself (the oracle, which adds in that
    /// order for Eq. 1 only, gives the other two).
    #[test]
    fn sums_add_in_sweep_order_for_any_finite_values(
        seed in 0u64..100_000, chain in 0usize..200, bushy in 1usize..300, nnz in 1usize..120,
        quiet in 0usize..2
    ) {
        let mut model = random_model(seed, chain, bushy, nnz, idle_nodes(quiet == 1, chain + bushy));
        for (k, c) in model.metrics[0].costs.iter_mut().enumerate() {
            c.1 = f64::from_bits(mix(seed ^ 0xf17e, k as u64) & 0xffef_ffff_ffff_ffff);
        }
        prop_assert!(quiet == 0 || walked(&model));
        let costs = &model.metrics[0].costs;
        let n = model.nodes.len() + 1;
        let mut want = oracle(&model, costs);
        want.inclusive = vec![0.0; n];
        for &(node, v) in costs {
            want.inclusive[node as usize] = v;
        }
        for i in (1..n).rev() {
            let v = want.inclusive[i];
            if v != 0.0 {
                want.inclusive[model.nodes[i - 1].parent as usize] += v;
            }
        }
        let (keys, vals): (Vec<u32>, Vec<f64>) = costs.iter().copied().unzip();
        let cct = model.build_cct().unwrap();
        let got = attribute_sorted(&cct, &keys, &vals);
        let direct = MetricVec::from_sorted(costs.clone(), n);
        let by_definition: Vec<(u32, f64)> = cct
            .all_nodes()
            .map(|node| (node.0, frame_direct(&cct, &direct, node)))
            .collect();
        for (name, got, want) in [
            ("inclusive", &entries(&got.inclusive), &want.inclusive),
            ("exclusive", &entries(&got.exclusive), &want.exclusive),
            ("frame-direct", &by_definition, &want.frame_direct),
        ] {
            let mut dense = vec![0.0f64; n];
            for &(node, v) in got {
                dense[node as usize] = v;
            }
            for i in 0..n {
                // A sum that cancels (or a -0.0 cost) reads +0.0 from a
                // sorted column.
                let want = if want[i] == 0.0 { 0.0 } else { want[i] };
                prop_assert_eq!(dense[i].to_bits(), want.to_bits(), "{} at node {}", name, i);
            }
        }
    }
}

/// main → loop → {s1, s2}; main → callee → s3 (nodes 1 to 6), then
/// `idle` frames nothing has a cost at.
fn small_model(costs: Vec<(u32, f64)>, idle: usize) -> DbModel {
    let mut model = random_model(1, 0, 0, 0, idle);
    let top = ScopeKind::Frame {
        proc: ProcId(0),
        module: LoadModuleId(0),
        def: at(1),
        call_site: None,
    };
    let callee = ScopeKind::Frame {
        proc: ProcId(1),
        module: LoadModuleId(0),
        def: at(20),
        call_site: Some(at(5)),
    };
    let node = |parent, scope| DbNode { parent, scope };
    let stmt = |line| ScopeKind::Stmt { loc: at(line) };
    let active = vec![
        node(0, top),
        node(1, ScopeKind::Loop { header: at(3) }),
        node(2, stmt(4)),
        node(2, stmt(5)),
        node(1, callee),
        node(5, stmt(21)),
    ];
    // The idle frames move up by six ids, and so do the links among them.
    for n in &mut model.nodes {
        if n.parent != 0 {
            n.parent += active.len() as u32;
        }
    }
    model.nodes.splice(0..0, active);
    model.metrics[0].costs = costs;
    model
}

/// Each special case on the seven-node tree alone (the sweep) and with
/// 28 idle frames beside it (the marked walk).
fn on_both_branches(costs: &[(u32, f64)], tag: &str, check: impl Fn(&Cct, Attribution)) {
    for idle in [0, 28] {
        let model = small_model(costs.to_vec(), idle);
        assert_eq!(walked(&model), idle > 0 || costs.is_empty());
        check_model(&model, &format!("{tag}-{idle}"));
        let (keys, vals): (Vec<u32>, Vec<f64>) = costs.iter().copied().unzip();
        let cct = model.build_cct().unwrap();
        let got = attribute_sorted(&cct, &keys, &vals);
        check(&cct, got);
    }
}

#[test]
fn an_empty_column_attributes_to_nothing() {
    on_both_branches(&[], "empty", |_, got| {
        let nonzeros = got.inclusive.nonzero_count() + got.exclusive.nonzero_count();
        assert_eq!((nonzeros, got.visited), (0, 0));
    });
}

#[test]
fn cost_at_the_root_is_inclusive_only() {
    on_both_branches(&[(0, 2.5), (6, 1.0)], "root", |_, got| {
        assert_eq!(got.inclusive.nonzero_sorted().next(), Some((0, 3.5)));
        assert!(got.exclusive.nonzero_sorted().all(|(node, _)| node != 0));
    });
}

#[test]
fn keys_beyond_the_tree_are_dropped() {
    for idle in [0, 28] {
        let model = small_model(vec![(3, 4.0)], idle);
        let cct = model.build_cct().unwrap();
        let all = |a: Attribution| (entries(&a.inclusive), entries(&a.exclusive), a.visited);
        let got = attribute_sorted(&cct, &[3, 35, 900], &[4.0, 1.0, 1.0]);
        assert_eq!(all(got), all(attribute_sorted(&cct, &[3], &[4.0])));
        // And through the public entry point, where a column can carry them.
        let costs = [(3, 4.0), (35, 1.0)];
        check_attribute(&cct, &costs, &oracle(&model, &costs));
    }
}

/// s1 and s2 hold half of their loop each, so at t = 0.5 both qualify and
/// the hot path takes the first of them (checked in `check_model`).
#[test]
fn the_hot_path_breaks_ties_toward_the_first_child() {
    on_both_branches(&[(3, 2.0), (4, 2.0)], "tie", |_, _| {});
}

#[test]
fn values_that_cancel_leave_no_entry() {
    // s1 and s2 cancel in their loop and in everything above it; s3
    // keeps the frames' inclusive non-zero.
    on_both_branches(&[(3, 4.0), (4, -4.0), (6, 1.5)], "cancel", |_, got| {
        let nodes = |v: &MetricVec| v.nonzero_sorted().map(|e| e.0).collect::<Vec<_>>();
        assert_eq!(
            nodes(&got.inclusive),
            [0, 1, 3, 4, 5, 6],
            "the loop (2) cancels"
        );
        assert_eq!(nodes(&got.exclusive), [3, 4, 5, 6], "loop and main cancel");
        assert_eq!(got.visited, 7);
    });
}

/// Work, not time: on a deep tree the kernel visits exactly the union
/// of the non-zeros' ancestor chains — counted here the slow way, every
/// chain walked to the root — and that is a small part of the tree.
#[test]
fn the_kernel_visits_only_the_union_of_ancestor_chains() {
    let model = synth_model(&SynthConfig {
        seed: 0x5eed,
        n_nodes: 200_000,
        n_metrics: 1,
        nnz_per_metric: 256,
        n_procs: 500,
    });
    let (keys, vals): (Vec<u32>, Vec<f64>) = model.metrics[0].costs.iter().copied().unzip();
    let mut chains = HashSet::new();
    for &k in &keys {
        let mut x = k;
        chains.insert(x);
        while x != 0 {
            x = model.nodes[x as usize - 1].parent;
            chains.insert(x);
        }
    }
    let n = model.nodes.len() + 1;
    let [(_, mapped), (_, read)] = opened(&model, "work");
    for cct in [&model.build_cct().unwrap(), &mapped.cct, &read.cct] {
        let got = attribute_sorted(cct, &keys, &vals);
        assert_eq!(got.visited, chains.len(), "mapped {}", cct.is_mapped());
        assert!(
            got.visited < n / 4,
            "visited {} of {n} nodes for {} non-zeros",
            got.visited,
            keys.len()
        );
        // Costs here are positive, so every visited node has a sum.
        assert_eq!(got.inclusive.nonzero_count(), got.visited);
    }
}
