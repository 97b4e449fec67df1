//! NaN scores rank last and never panic a sort. A synthetic v2.1
//! database has NaN in every fifth stored cost; a query, a detector, the
//! core sort and a sorted render of all three views run over it. Each
//! ranking keeps its finite rows in their order — descending, ties by
//! the caller's key — and puts every NaN row after them. (A comparator
//! that calls NaN equal to everything is not a total order, and the
//! standard sorts may panic on one.) Eq. 3's hot path ranks the same way:
//! a NaN scope is never Cmax over a number, nor a session's start.

use callpath_analyze::detectors::{load_imbalance, ImbalanceConfig};
use callpath_analyze::run_query;
use callpath_core::prelude::*;
use callpath_core::source::SourceStore;
use callpath_expdb::{bin2, open_lazy};
use callpath_viewer::{render, Command, ExpandMode, RenderConfig, Session};
use callpath_workloads::synth::{synth_model, SynthConfig};

/// The synthetic database, with NaN at every fifth stored cost.
fn nan_database() -> Experiment {
    let mut model = synth_model(&SynthConfig {
        seed: 7,
        n_nodes: 2_000,
        n_metrics: 2,
        nnz_per_metric: 400,
        n_procs: 60,
    });
    for metric in &mut model.metrics {
        for (_, v) in metric.costs.iter_mut().step_by(5) {
            *v = f64::NAN;
        }
    }
    open_lazy(bin2::write_v21(&model)).unwrap()
}

/// `rows` as `(tie key, score)` is ranked as the contract says: finite
/// scores descending, equal scores by ascending key, then the NaNs by
/// ascending key. Returns how many rows were finite and NaN.
fn assert_ranked<K: Ord + std::fmt::Debug>(what: &str, rows: &[(K, f64)]) -> (usize, usize) {
    let finite = rows.iter().take_while(|r| !r.1.is_nan()).count();
    assert!(
        rows[finite..].iter().all(|r| r.1.is_nan()),
        "{what}: a number after a NaN"
    );
    for w in rows[..finite].windows(2) {
        let in_order = w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 <= w[1].0);
        assert!(in_order, "{what}: {:?} before {:?}", w[0], w[1]);
    }
    for w in rows[finite..].windows(2) {
        assert!(w[0].0 <= w[1].0, "{what}: NaN rows out of key order");
    }
    (finite, rows.len() - finite)
}

#[test]
fn a_query_ranks_nan_scores_last() {
    let exp = nan_database();
    let score = format!("{} (E)", exp.raw.desc(MetricId(0)).name);
    run_query(&exp, r#"proc ~ "proc""#, Some(&score), 25, 0).expect("the query runs");
    let all = run_query(&exp, r#"proc ~ "proc""#, Some(&score), usize::MAX, 0).unwrap();
    let rows: Vec<(u32, f64)> = all.hits.iter().map(|h| (h.node, h.score)).collect();
    let (finite, nan) = assert_ranked("query", &rows);
    assert!(finite > 0 && nan > 0, "{finite} finite and {nan} NaN hits");
}

#[test]
fn a_detector_ranks_nan_values_last() {
    let series: Vec<f64> = (0..200)
        .map(|i| {
            if i % 5 == 0 {
                f64::NAN
            } else {
                (i % 17) as f64
            }
        })
        .collect();
    let cfg = ImbalanceConfig {
        top: series.len(),
        ..ImbalanceConfig::default()
    };
    let verdict = load_imbalance(&series, "ranks", &cfg);
    let rows: Vec<(usize, f64)> = verdict.evidence[1..]
        .iter()
        .map(|e| {
            let rank = e.path[0].strip_prefix("rank ").unwrap().parse().unwrap();
            (rank, e.values[0].1)
        })
        .collect();
    assert_eq!(assert_ranked("load imbalance", &rows), (160, 40));
}

#[test]
fn sorted_views_rank_nan_values_last_and_render() {
    let exp = nan_database();
    let column = ColumnId(1);
    let mut ranked = 0;
    for mut view in [
        View::calling_context(&exp),
        View::callers(&exp),
        View::flat(&exp),
    ] {
        let mut lists = vec![view.roots()];
        for r in lists[0].clone().into_iter().take(8) {
            lists.push(view.children(r));
        }
        for mut nodes in lists {
            sort_by_column(&view, &mut nodes, column);
            let rows: Vec<(String, f64)> = nodes
                .iter()
                .map(|&n| (view.label(n), view.value(column, n)))
                .collect();
            let (_, nan) = assert_ranked("sort_by_column", &rows);
            ranked += nan;
        }
        let cfg = RenderConfig {
            sort: Some(column),
            expand: ExpandMode::Levels(3),
            max_children: 5,
            ..RenderConfig::default()
        };
        assert!(!render(&mut view, &cfg).is_empty());
    }
    assert!(ranked > 0, "no list held a NaN");
}

/// Two top-level frames: `nanmain`, whose one statement costs NaN, then
/// `main`, whose own statement costs 60 and whose callees are `hot` (90
/// in its statement) and, after it, `cold` (NaN in its statement).
/// Exclusive values: `nanmain` NaN, `main` 60, `hot` 90, `cold` NaN.
fn nan_siblings() -> Experiment {
    let mut names = NameTable::new();
    let (file, module) = (names.file("nan.c"), names.module("app"));
    let procs = ["nanmain", "main", "hot", "cold"].map(|p| names.proc(p));
    let at = |line| SourceLoc::new(file, line);
    let frame = |p: usize, call_site: Option<u32>| ScopeKind::Frame {
        proc: procs[p],
        module,
        def: at(10 * p as u32 + 1),
        call_site: call_site.map(at),
    };
    let stmt = |line| ScopeKind::Stmt { loc: at(line) };
    let mut cct = Cct::new(names);
    let root = cct.root();
    let nanmain = cct.add_child(root, frame(0, None));
    let s_nan = cct.add_child(nanmain, stmt(2));
    let main = cct.add_child(root, frame(1, None));
    let s_main = cct.add_child(main, stmt(11));
    let hot = cct.add_child(main, frame(2, Some(12)));
    let s_hot = cct.add_child(hot, stmt(21));
    let cold = cct.add_child(main, frame(3, Some(13)));
    let s_cold = cct.add_child(cold, stmt(31));
    assert_eq!([main.0, hot.0, s_hot.0], [3, 5, 6]);
    let mut raw = RawMetrics::new(StorageKind::Csr);
    let m = raw.add_metric(MetricDesc::new("M", "ev", 1.0));
    let costs = [
        (s_nan, f64::NAN),
        (s_main, 60.0),
        (s_hot, 90.0),
        (s_cold, f64::NAN),
    ];
    raw.add_costs(m, &costs);
    Experiment::build(cct, raw, StorageKind::Csr)
}

#[test]
fn the_hot_path_passes_a_nan_sibling_and_a_nan_top_level_scope() {
    let exp = nan_siblings();
    let exclusive = ColumnId(1);
    let cfg = HotPathConfig::default();
    // From `main`: `hot` is Cmax although the NaN `cold` comes after it.
    let path = View::calling_context(&exp).hot_path(3, exclusive, cfg);
    assert_eq!(path, [3, 5, 6]);
    // Nothing selected: the start is the top-level scope the pane ranks
    // first, `main`, not the NaN `nanmain` listed before it.
    let mut session = Session::new(&exp, SourceStore::new());
    session.apply(Command::SortBy(exclusive)).unwrap();
    session.apply(Command::HotPath).unwrap();
    assert_eq!(session.selected(), Some(6));
}
