//! Exact lazy-fault accounting for query evaluation: a query over a
//! lazily opened `.cpens` ensemble (or v2.1 database) materializes
//! exactly the columns it names — resolving names does not fault,
//! percent-of-program thresholds read the stored aggregates without
//! faulting, structural (regex) predicates fault nothing at all, and
//! the raw attribution columns are never touched.

use callpath_analyze::query::{eval_mask, run_query, Query};
use callpath_ensemble::RunData;
use callpath_expdb::ens;
use callpath_workloads::synth::{ensemble_run, EnsembleConfig};
use std::sync::OnceLock;

/// Built once per test process: the tests run on parallel threads and
/// each maps the file, so a second writer would truncate it under a
/// sibling's mapping (SIGBUS).
fn small_ensemble() -> &'static std::path::Path {
    static PATH: OnceLock<std::path::PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "callpath-analyze-fault-{}-runs.cpens",
            std::process::id()
        ));
        let cfg = EnsembleConfig {
            n_runs: 12,
            base_nodes: 300,
            tail_nodes: 10,
            nnz_per_metric: 96,
            outlier_every: 5,
            ..Default::default()
        };
        let runs: Vec<RunData> = (0..cfg.n_runs)
            .map(|r| RunData::from_model(format!("run-{r:03}"), &ensemble_run(&cfg, r)).unwrap())
            .collect();
        std::fs::write(&p, callpath_ensemble::build(&runs, 2).to_bytes()).unwrap();
        p
    })
}

#[test]
fn a_sorted_query_faults_exactly_the_named_columns() {
    let e = ens::open(small_ensemble()).unwrap();
    let exp = &e.exp;
    assert_eq!(exp.columns.materialized_columns(), 0, "open faults nothing");

    let mean = format!("{} mean (I)", e.dir.metric_names[0]);
    let stddev = format!("{} stddev (I)", e.dir.metric_names[0]);
    let query = format!(r#"col("{mean}") > 0 and col("{stddev}") >= 0"#);
    // Score by one of the columns the predicate already names, so the
    // whole sorted query touches exactly two columns.
    let report = run_query(exp, &query, Some(&mean), 10, 1).unwrap();
    assert!(report.matched > 0, "query must match something");

    assert_eq!(
        exp.columns.materialized_columns(),
        2,
        "exactly the two named stat columns fault"
    );
    let named = [
        exp.columns.find(&mean).unwrap(),
        exp.columns.find(&stddev).unwrap(),
    ];
    for c in named {
        assert!(
            exp.columns.fault_count(c) > 0,
            "{c:?} was named, must fault"
        );
    }
    for c in exp.columns.columns() {
        if !named.contains(&c) {
            assert_eq!(
                exp.columns.fault_count(c),
                0,
                "column '{}' was not named by the query",
                exp.columns.desc(c).name
            );
        }
    }
    assert_eq!(
        exp.raw.materialized_metrics(),
        0,
        "query evaluation must never touch the raw attribution columns"
    );
}

#[test]
fn percent_thresholds_read_stored_aggregates_without_faulting() {
    let e = ens::open(small_ensemble()).unwrap();
    let exp = &e.exp;
    let max = format!("{} max (I)", e.dir.metric_names[1]);
    // `> 5%` needs the column's program total: that comes from the
    // stored aggregates, not from decoding the column.
    let q = Query::parse(&format!(r#"col("{max}") > 5%"#)).unwrap();
    let mask = eval_mask(exp, &q.pred).unwrap();
    assert!(mask.iter().any(|&m| m), "something exceeds 5% of total");
    assert_eq!(
        exp.columns.materialized_columns(),
        1,
        "only the compared column faults; its aggregate is stored"
    );
}

#[test]
fn structural_queries_fault_no_columns_at_all() {
    let e = ens::open(small_ensemble()).unwrap();
    let exp = &e.exp;
    let q = Query::parse(r#"subtree(proc ~ "proc_00") or label ~ "loop""#).unwrap();
    let mask = eval_mask(exp, &q.pred).unwrap();
    assert!(mask.iter().any(|&m| m), "structural query must match");
    assert_eq!(
        exp.columns.materialized_columns(),
        0,
        "regex predicates read the CCT, never the columns"
    );
    assert_eq!(exp.raw.materialized_metrics(), 0);
}
