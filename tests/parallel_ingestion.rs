//! Property tests for the sharded parallel ingestion path: for random
//! workloads and every worker count, [`ParallelCorrelator`] must produce
//! output *identical* to the sequential [`Correlator`] — same CCT shape,
//! same node ids, same metric columns, same totals, same per-rank
//! costs. Plus the contract for costs that arrive after the build: they
//! are folded in by building again.

use callpath_core::prelude::*;
use callpath_prof::{Correlator, ParallelCorrelator, PerNodeCosts};
use callpath_profiler::{execute, lower, Counter, ExecConfig, RawProfile};
use callpath_structure::{recover, Structure};
use callpath_workloads::generator::{random_program, GenConfig};
use proptest::prelude::*;

/// Simulate `n_ranks` ranks of a random program with rank-dependent work
/// scales and jitter seeds.
fn random_workload(
    seed: u64,
    n_procs: usize,
    n_ranks: usize,
) -> (Structure, Vec<RawProfile>, ExecConfig) {
    let program = random_program(GenConfig {
        seed,
        n_procs,
        calls_per_proc: 2,
        loop_probability: 0.4,
        work_cycles: 5_000,
    });
    let bin = lower(&program);
    let base = ExecConfig {
        jitter_seed: Some(seed ^ 0x9e37),
        ..ExecConfig::single(Counter::Cycles, 509)
    };
    let profiles = (0..n_ranks)
        .map(|r| {
            let cfg = ExecConfig {
                work_scale: 1.0 + (r % 5) as f64 * 0.4,
                jitter_seed: base.jitter_seed.map(|s| s.wrapping_add(r as u64)),
                ..base.clone()
            };
            execute(&bin, &cfg).unwrap().profile
        })
        .collect();
    (recover(&bin).unwrap(), profiles, base)
}

/// Assert the two experiments are identical: tree shape, node ids (via
/// kind+parent at every id), and every metric column entry-for-entry.
fn assert_identical(seq: &Experiment, par: &Experiment, ctx: &str) {
    assert_eq!(seq.cct.len(), par.cct.len(), "{ctx}: node count");
    for n in seq.cct.all_nodes() {
        assert_eq!(seq.cct.kind(n), par.cct.kind(n), "{ctx}: kind of {n:?}");
        assert_eq!(
            seq.cct.parent(n),
            par.cct.parent(n),
            "{ctx}: parent of {n:?}"
        );
    }
    assert_eq!(
        seq.raw.metric_count(),
        par.raw.metric_count(),
        "{ctx}: metric count"
    );
    for mi in 0..seq.raw.metric_count() {
        let m = MetricId::from_usize(mi);
        let a: Vec<(u32, f64)> = seq.raw.column(m).nonzero_sorted().collect();
        let b: Vec<(u32, f64)> = par.raw.column(m).nonzero_sorted().collect();
        assert_eq!(a, b, "{ctx}: raw column {mi}");
        assert_eq!(seq.raw.total(m), par.raw.total(m), "{ctx}: total {mi}");
    }
    for c in seq.columns.columns() {
        let a: Vec<(u32, f64)> = seq.columns.vec(c).nonzero_sorted().collect();
        let b: Vec<(u32, f64)> = par.columns.vec(c).nonzero_sorted().collect();
        assert_eq!(a, b, "{ctx}: presentation column {c:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn parallel_ingestion_is_byte_identical_to_sequential(
        seed in 0u64..1_000,
        n_procs in 4usize..24,
        n_ranks in 1usize..12,
    ) {
        let (structure, profiles, cfg) = random_workload(seed, n_procs, n_ranks);
        let mut seq = Correlator::new(&structure, cfg.periods);
        let seq_costs: Vec<PerNodeCosts> = profiles.iter().map(|p| seq.add(p)).collect();
        let seq_exp = seq.finish(StorageKind::Csr);

        for threads in [1usize, 2, 4, 8] {
            let (par_exp, par_costs) = ParallelCorrelator::new(&structure, cfg.periods)
                .with_threads(threads)
                .correlate(&profiles, StorageKind::Csr);
            let ctx = format!("seed={seed} procs={n_procs} ranks={n_ranks} threads={threads}");
            assert_identical(&seq_exp, &par_exp, &ctx);
            prop_assert_eq!(&par_costs, &seq_costs, "{}: per-rank costs", ctx);
        }
    }
}

/// An experiment is attributed when it is built. A late cost is folded
/// in by taking the tree and the raw metrics back out, adding it and
/// building again — after which the whole ancestor chain carries the
/// delta wherever attributed values are read: `exp.inclusive`,
/// `exp.columns`, and a Callers View built from the new experiment.
#[test]
fn late_cost_is_folded_in_by_rebuild() {
    let (structure, profiles, cfg) = random_workload(3, 8, 4);
    let (exp, _) = ParallelCorrelator::new(&structure, cfg.periods)
        .with_threads(2)
        .correlate(&profiles, StorageKind::Csr);
    let m = MetricId(0);
    let stmt = exp
        .cct
        .all_nodes()
        .find(|&n| exp.cct.kind(n).is_stmt())
        .expect("workload has statements");
    let chain: Vec<NodeId> = std::iter::once(stmt)
        .chain(exp.cct.ancestors(stmt))
        .collect();
    assert_eq!(chain.last(), Some(&exp.cct.root()));
    let before: Vec<f64> = chain.iter().map(|&n| exp.inclusive(m, n)).collect();
    // The Callers entry of the procedure the statement runs in.
    let frame = exp
        .cct
        .enclosing_frame(stmt)
        .expect("a statement is framed");
    let proc = exp.cct.kind(frame).frame_proc().unwrap();
    let callers_root = |exp: &Experiment| {
        let view = CallersView::build(exp);
        let top = view
            .tree
            .roots()
            .into_iter()
            .find(|&r| *view.tree.scope(r) == ViewScope::ProcTop { proc })
            .expect("every frame's procedure has an entry");
        view.tree.value(exp, exp.inclusive_col(m), top)
    };
    let callers_before = callers_root(&exp);

    let Experiment { cct, mut raw, .. } = exp;
    raw.add_cost(m, stmt, 12_345.0);
    let exp = Experiment::build(cct, raw, StorageKind::Csr);
    for (&n, &old) in chain.iter().zip(&before) {
        assert_eq!(exp.inclusive(m, n), old + 12_345.0, "node {n:?}");
        assert_eq!(exp.columns.get(exp.inclusive_col(m), n.0), old + 12_345.0);
    }
    assert_eq!(callers_root(&exp), callers_before + 12_345.0);
}
