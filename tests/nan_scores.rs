//! NaN scores rank last and never panic a sort. A synthetic v2.1
//! database has NaN in every fifth stored cost; a query, a detector, the
//! core sort and a sorted render of all three views run over it. Each
//! ranking keeps its finite rows in their order — descending, ties by
//! the caller's key — and puts every NaN row after them. (A comparator
//! that calls NaN equal to everything is not a total order, and the
//! standard sorts may panic on one.)

use callpath_analyze::detectors::{load_imbalance, ImbalanceConfig};
use callpath_analyze::run_query;
use callpath_core::prelude::*;
use callpath_expdb::{bin2, open_lazy};
use callpath_viewer::{render, ExpandMode, RenderConfig};
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
