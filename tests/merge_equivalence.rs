//! Property tests for the pruned-journal pairwise merge: across worker
//! counts and adversarial profile mixes — empty ranks, shards holding a
//! single rank, duplicate call paths from cloned profiles — the
//! parallel reduction must produce an `Experiment` and per-rank costs
//! byte/ID-identical to the sequential correlator. This is the
//! equivalence contract the tree merge's determinism argument
//! (DESIGN.md §13) is on the hook for.

use callpath_core::prelude::*;
use callpath_prof::{Correlator, ParallelCorrelator, PerNodeCosts};
use callpath_profiler::{execute, lower, Counter, ExecConfig, RawProfile};
use callpath_structure::{recover, Structure};
use callpath_workloads::generator::{random_program, GenConfig};
use proptest::prelude::*;

const THREAD_POINTS: [usize; 4] = [1, 2, 3, 8];

fn base_workload(seed: u64, n_procs: usize) -> (Structure, callpath_profiler::Binary, ExecConfig) {
    let program = random_program(GenConfig {
        seed,
        n_procs,
        calls_per_proc: 2,
        loop_probability: 0.4,
        work_cycles: 5_000,
    });
    let bin = lower(&program);
    let cfg = ExecConfig {
        jitter_seed: Some(seed ^ 0x51c2),
        ..ExecConfig::single(Counter::Cycles, 509)
    };
    (recover(&bin).unwrap(), bin, cfg)
}

/// Build an adversarial rank mix: `empty_mask` bit r makes rank r an
/// empty profile (a rank that recorded no samples at all), `dup_mask`
/// bit r makes rank r a byte-for-byte clone of rank 0's profile, so
/// identical call paths arrive from multiple shards.
fn rank_mix(
    bin: &callpath_profiler::Binary,
    cfg: &ExecConfig,
    n_ranks: usize,
    empty_mask: u16,
    dup_mask: u16,
) -> Vec<RawProfile> {
    let first = execute(bin, cfg).unwrap().profile;
    (0..n_ranks)
        .map(|r| {
            if empty_mask & (1 << r) != 0 {
                RawProfile::new()
            } else if r == 0 || dup_mask & (1 << r) != 0 {
                first.clone()
            } else {
                let rank_cfg = ExecConfig {
                    work_scale: 1.0 + (r % 5) as f64 * 0.4,
                    jitter_seed: cfg.jitter_seed.map(|s| s.wrapping_add(r as u64)),
                    ..cfg.clone()
                };
                execute(bin, &rank_cfg).unwrap().profile
            }
        })
        .collect()
}

fn sequential_reference(
    structure: &Structure,
    cfg: &ExecConfig,
    profiles: &[RawProfile],
) -> (Experiment, Vec<PerNodeCosts>) {
    let mut seq = Correlator::new(structure, cfg.periods);
    let costs: Vec<PerNodeCosts> = profiles.iter().map(|p| seq.add(p)).collect();
    (seq.finish(StorageKind::Csr), costs)
}

/// Full identity check: tree shape and ids, raw columns bit-for-bit,
/// presentation columns bit-for-bit, per-rank costs entry-for-entry.
fn assert_equivalent(structure: &Structure, cfg: &ExecConfig, profiles: &[RawProfile], ctx: &str) {
    let (seq_exp, seq_costs) = sequential_reference(structure, cfg, profiles);
    for threads in THREAD_POINTS {
        let (par_exp, par_costs) = ParallelCorrelator::new(structure, cfg.periods)
            .with_threads(threads)
            .correlate(profiles, StorageKind::Csr);
        assert_eq!(
            seq_exp.cct.len(),
            par_exp.cct.len(),
            "{ctx} t={threads}: node count"
        );
        for n in seq_exp.cct.all_nodes() {
            assert_eq!(
                seq_exp.cct.kind(n),
                par_exp.cct.kind(n),
                "{ctx} t={threads}: kind of {n:?}"
            );
            assert_eq!(
                seq_exp.cct.parent(n),
                par_exp.cct.parent(n),
                "{ctx} t={threads}: parent of {n:?}"
            );
        }
        assert_eq!(par_costs, seq_costs, "{ctx} t={threads}: per-rank costs");
        for mi in 0..seq_exp.raw.metric_count() {
            let m = MetricId::from_usize(mi);
            let a: Vec<(u32, f64)> = seq_exp.raw.column(m).nonzero_sorted().collect();
            let b: Vec<(u32, f64)> = par_exp.raw.column(m).nonzero_sorted().collect();
            assert_eq!(a, b, "{ctx} t={threads}: raw column {mi}");
        }
        for c in seq_exp.columns.columns() {
            let a: Vec<(u32, f64)> = seq_exp.columns.vec(c).nonzero_sorted().collect();
            let b: Vec<(u32, f64)> = par_exp.columns.vec(c).nonzero_sorted().collect();
            assert_eq!(a, b, "{ctx} t={threads}: column {c:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pairwise_merge_is_identical_to_sequential_under_adversarial_mixes(
        seed in 0u64..1_000,
        n_procs in 4usize..20,
        n_ranks in 4usize..13,
        empty_mask in 0u16..8192,
        dup_mask in 0u16..8192,
    ) {
        let (structure, bin, cfg) = base_workload(seed, n_procs);
        let profiles = rank_mix(&bin, &cfg, n_ranks, empty_mask, dup_mask);
        let ctx = format!(
            "seed={seed} procs={n_procs} ranks={n_ranks} empty={empty_mask:b} dup={dup_mask:b}"
        );
        assert_equivalent(&structure, &cfg, &profiles, &ctx);
    }
}

#[test]
fn single_rank_shards_merge_correctly() {
    // More workers than ranks: every shard holds exactly one rank, so
    // the merge tree is as deep as it gets relative to the input.
    let (structure, bin, cfg) = base_workload(7, 10);
    let profiles = rank_mix(&bin, &cfg, 8, 0, 0);
    let (seq_exp, seq_costs) = sequential_reference(&structure, &cfg, &profiles);
    let (par_exp, par_costs) = ParallelCorrelator::new(&structure, cfg.periods)
        .with_threads(8)
        .correlate(&profiles, StorageKind::Csr);
    assert_eq!(par_exp.cct.len(), seq_exp.cct.len());
    assert_eq!(par_costs, seq_costs);
}

#[test]
fn all_empty_ranks_reduce_to_a_bare_root() {
    let (structure, _bin, cfg) = base_workload(3, 6);
    let profiles: Vec<RawProfile> = (0..6).map(|_| RawProfile::new()).collect();
    let (par_exp, par_costs) = ParallelCorrelator::new(&structure, cfg.periods)
        .with_threads(3)
        .correlate(&profiles, StorageKind::Csr);
    assert_eq!(par_exp.cct.len(), 1, "only the root survives");
    assert!(par_costs.iter().all(|c| c.is_empty()));
}

#[test]
fn odd_shard_counts_preserve_rank_order() {
    // Seven single-rank shards force a pass-through shard at every
    // level of the merge tree; rank order must still come out global.
    let (structure, bin, cfg) = base_workload(11, 12);
    let profiles = rank_mix(&bin, &cfg, 7, 0b0010010, 0);
    assert_equivalent(&structure, &cfg, &profiles, "odd-shards");
}
