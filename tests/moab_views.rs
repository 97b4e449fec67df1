//! E3 + E4 — Figs. 4 and 5: the MOAB mesh benchmark.
//!
//! Fig. 4 (Callers View): `_intel_fast_memset.A` accounts for ≈9.7% of
//! all L1 data-cache misses, ≈9.6% through `Sequence_data::create`.
//!
//! Fig. 5 (Flat View): all ≈18.9% of `MBCore::get_coords`'s cycles sit in
//! one loop; inside it an inlined red-black-tree search contains an
//! inlined `SequenceCompare` accounting for ≈19.8% of L1 misses. The
//! whole hierarchy — loop, inlined find, inlined search loop, inlined
//! compare — must be recovered from the binary image and presented.

use callpath_core::prelude::*;
use callpath_profiler::ExecConfig;
use callpath_workloads::{moab, pipeline};

fn build() -> Experiment {
    pipeline::build_experiment(&moab::program(), &ExecConfig::default())
}

fn l1_incl(exp: &Experiment) -> ColumnId {
    exp.inclusive_col(exp.raw.find("PAPI_L1_DCM").unwrap())
}

fn cyc_incl(exp: &Experiment) -> ColumnId {
    exp.inclusive_col(exp.raw.find("PAPI_TOT_CYC").unwrap())
}

fn child_by_label(view: &mut View<'_>, parent: Option<u32>, label: &str) -> u32 {
    let candidates = match parent {
        Some(p) => view.children(p),
        None => view.roots(),
    };
    candidates
        .into_iter()
        .find(|&n| view.label(n) == label)
        .unwrap_or_else(|| panic!("no '{label}' under {parent:?}"))
}

#[test]
fn callers_view_attributes_memset_misses() {
    let exp = build();
    let col = l1_incl(&exp);
    let total = exp.aggregate(col);
    let mut view = View::callers(&exp);

    let memset = child_by_label(&mut view, None, "_intel_fast_memset.A");
    let share = 100.0 * view.value(col, memset) / total;
    assert!((share - 9.7).abs() < 0.7, "memset total share {share:.2}%");

    // Expanding shows two callers; create dominates at ≈9.6%.
    let callers = view.children(memset);
    assert_eq!(callers.len(), 2, "two calling contexts");
    let create = callers
        .iter()
        .copied()
        .find(|&c| view.label(c) == "Sequence_data::create")
        .expect("create is a caller");
    let other = callers
        .iter()
        .copied()
        .find(|&c| view.label(c) == "init_buffers")
        .expect("init_buffers is the other caller");
    let create_share = 100.0 * view.value(col, create) / total;
    let other_share = 100.0 * view.value(col, other) / total;
    assert!(
        (create_share - 9.6).abs() < 0.7,
        "create share {create_share:.2}%"
    );
    assert!(other_share < 0.5, "other share {other_share:.2}%");
    assert!(create_share > 10.0 * other_share, "create dominates");
}

#[test]
fn callers_view_is_lazy_until_expanded() {
    let exp = build();
    let view = View::callers(&exp);
    let top_level = view.roots().len();
    assert_eq!(
        view.node_count(),
        top_level,
        "no caller chains materialized before expansion"
    );
}

#[test]
fn flat_view_get_coords_loop_holds_all_its_cycles() {
    let exp = build();
    let cyc = cyc_incl(&exp);
    let total = exp.aggregate(cyc);
    let mut view = View::flat(&exp);

    let module = child_by_label(&mut view, None, "mbperf_IMesh");
    let core_cpp = child_by_label(&mut view, Some(module), "MBCore.cpp");
    let get_coords = child_by_label(&mut view, Some(core_cpp), "MBCore::get_coords");
    let gc_share = 100.0 * view.value(cyc, get_coords) / total;
    assert!((gc_share - 18.9).abs() < 1.0, "get_coords {gc_share:.2}%");

    // One loop under it carrying all of its cost.
    let lp = child_by_label(&mut view, Some(get_coords), "loop at MBCore.cpp:685");
    assert!(
        (view.value(cyc, lp) - view.value(cyc, get_coords)).abs()
            < 0.01 * view.value(cyc, get_coords),
        "the loop holds all of get_coords' cycles"
    );
}

#[test]
fn flat_view_recovers_the_inline_hierarchy() {
    let exp = build();
    let l1 = l1_incl(&exp);
    let total = exp.aggregate(l1);
    let mut view = View::flat(&exp);

    let module = child_by_label(&mut view, None, "mbperf_IMesh");
    let core_cpp = child_by_label(&mut view, Some(module), "MBCore.cpp");
    let get_coords = child_by_label(&mut view, Some(core_cpp), "MBCore::get_coords");
    let lp = child_by_label(&mut view, Some(get_coords), "loop at MBCore.cpp:685");
    // loop -> inlined find -> inlined search loop -> inlined compare.
    let find = child_by_label(&mut view, Some(lp), "inlined from _Rb_tree::find");
    let search = child_by_label(&mut view, Some(find), "loop at stl_tree.h:201");
    let compare = child_by_label(&mut view, Some(search), "inlined from SequenceCompare");
    let cmp_share = 100.0 * view.value(l1, compare) / total;
    assert!(
        (cmp_share - 19.8).abs() < 1.0,
        "SequenceCompare misses {cmp_share:.2}%"
    );
}

#[test]
fn flattening_exposes_loops_for_cross_routine_comparison() {
    // Fig. 6's flattening use-case: strip modules/files/procedures so
    // loops in different routines can be compared side by side.
    let exp = build();
    let mut flat = FlatView::build(&exp);
    let start = flat.tree.roots();
    // Three flattening steps strip module -> file -> procedure, leaving
    // loops (and call sites) side by side. The forcing variant fills the
    // lazy shell as it descends.
    let roots = flat.flatten(&exp, &start, 3);
    let labels: Vec<String> = roots
        .iter()
        .map(|&n| flat.tree.label(n, &exp.cct.names))
        .collect();
    let loops = labels.iter().filter(|l| l.starts_with("loop at")).count();
    assert!(loops >= 2, "several loops side by side: {labels:?}");
}

#[test]
fn cct_separates_what_flat_merges() {
    // The memset cost is one node in the Flat View's procedure list but
    // two distinct contexts in the CCT.
    let exp = build();
    let mut count = 0;
    for n in exp.cct.all_nodes() {
        if let ScopeKind::Frame { proc, .. } = exp.cct.kind(n) {
            if exp.cct.names.proc_name(proc) == "_intel_fast_memset.A" {
                count += 1;
            }
        }
    }
    assert_eq!(count, 2, "two dynamic memset contexts in the CCT");
}

#[test]
fn library_routines_live_in_their_own_load_module() {
    // memset ships in libirc: the Flat View shows a second load module
    // (real profiles always span several; Fig. 5's first hierarchy level
    // is the load module).
    let exp = build();
    let mut view = View::flat(&exp);
    let roots = view.roots();
    let labels: Vec<String> = roots.iter().map(|&r| view.label(r)).collect();
    assert!(labels.contains(&"mbperf_IMesh".to_owned()), "{labels:?}");
    assert!(labels.contains(&"libirc.so".to_owned()), "{labels:?}");
    let libirc = child_by_label(&mut view, None, "libirc.so");
    // All of libirc's cost is the memset routine's.
    let l1 = l1_incl(&exp);
    let total = exp.aggregate(l1);
    let share = 100.0 * view.value(l1, libirc) / total;
    assert!((share - 9.7).abs() < 0.7, "libirc module share {share:.2}%");
    // Module inclusive == its single procedure's inclusive.
    let file = view.children(libirc)[0];
    let proc = child_by_label(&mut view, Some(file), "_intel_fast_memset.A");
    assert_eq!(view.value(l1, proc), view.value(l1, libirc));
}
