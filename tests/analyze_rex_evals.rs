//! What a query's `~` atoms cost, as a count: the matcher runs once per
//! distinct name an atom's nodes refer to, not once per node.
//!
//! Alone in its file: `analyze.rex_evals` is a process-wide counter, and
//! any other test evaluating a query in this process would add to it.

use callpath_analyze::run_query;
use callpath_expdb::{bin2, open_lazy};
use callpath_workloads::synth::{synth_model, SynthConfig};

/// The benchmark's eight queries (`examples/bench_e2e/src/batch.rs`):
/// four `proc` atoms and two `file` atoms among them.
const QUERIES: [&str; 8] = [
    r#"proc ~ "proc_000[0-7].""#,
    r#"incl("PAPI_SYNTH_0000") > 1%"#,
    r#"excl("PAPI_SYNTH_0001") > 0"#,
    r#"subtree(proc ~ "proc_001..") and incl("PAPI_SYNTH_0002") > 0"#,
    r#"file ~ "synth_01.\.f90" and excl("PAPI_SYNTH_0003") > 0"#,
    r#"incl("PAPI_SYNTH_0004") > 0.5% or incl("PAPI_SYNTH_0005") > 0.5%"#,
    r#"col("PAPI_SYNTH_0006 (I)") > 100 and not proc ~ "proc_0000.""#,
    r#"subtree(proc ~ "proc_00[0-3]..") and incl("PAPI_SYNTH_0000") > 1% or (excl("PAPI_SYNTH_0001") > 0 and file ~ "synth_01.\.f90")"#,
];

#[test]
fn the_bench_queries_match_each_name_once() {
    if !callpath_obs::enabled() {
        return;
    }
    // The benchmark's database: 8 001 contexts over 500 procedures in
    // 62 files.
    let model = synth_model(&SynthConfig {
        seed: 23,
        n_nodes: 8000,
        n_metrics: 16,
        nnz_per_metric: 2048,
        n_procs: 500,
    });
    assert_eq!((model.procs.len(), model.files.len()), (500, 62));
    let exp = open_lazy(bin2::write_v21(&model)).unwrap();
    assert_eq!(exp.cct.len(), 8001);

    // `run_query`'s last argument was a thread count and selects
    // nothing now: the count is the same whatever it says.
    for last_argument in [1, 8] {
        let before = callpath_obs::counter_value("analyze.rex_evals");
        for q in QUERIES {
            let report =
                run_query(&exp, q, Some("PAPI_SYNTH_0000 (I)"), 25, last_argument).unwrap();
            assert!(report.matched > 0, "{q} matched nothing");
        }
        let evals = callpath_obs::counter_value("analyze.rex_evals") - before;
        // 4 × 500 procedures + 2 × 62 files; per node it was 6 × 8 001.
        assert!(
            (1..=2124).contains(&evals),
            "{evals} matcher calls for the eight queries"
        );
    }
}
