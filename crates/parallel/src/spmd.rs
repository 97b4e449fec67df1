//! SPMD execution harness: N ranks, barrier semantics, idleness
//! attribution, shared-CCT correlation.

use callpath_core::prelude::{chunked_map, Experiment, NodeId, StorageKind};
use callpath_prof::{ParallelCorrelator, PerNodeCosts};
use callpath_profiler::{execute, lower, Counter, ExecConfig, ExecResult, Program, RawProfile};
use callpath_structure::recover;

/// Configuration of an SPMD run.
#[derive(Debug, Clone)]
pub struct SpmdConfig {
    /// Per-rank work multipliers; `scales.len()` is the rank count.
    pub scales: Vec<f64>,
    /// Base execution config (per-rank jitter seeds are derived from
    /// `jitter_seed + rank`).
    pub exec: ExecConfig,
    /// Worker threads for rank simulation (0 = one per available core,
    /// capped at 8).
    pub threads: usize,
    /// Keep each rank's per-node direct costs (needed for per-rank series
    /// in Fig. 7-style charts; disable for huge rank counts).
    pub keep_rank_data: bool,
}

impl SpmdConfig {
    /// A config with default worker threads and rank data kept.
    pub fn new(scales: Vec<f64>, exec: ExecConfig) -> Self {
        SpmdConfig {
            scales,
            exec,
            threads: 0,
            keep_rank_data: true,
        }
    }
}

/// Result of an SPMD run.
pub struct SpmdRun {
    /// Merged experiment over all ranks (cost columns are sums over
    /// ranks, so the `IDLENESS (I)` column is exactly the paper's "total
    /// inclusive idleness summed over all MPI processes").
    pub experiment: Experiment,
    /// Per-rank direct costs on the shared CCT (empty when
    /// `keep_rank_data` is off).
    pub rank_direct: Vec<PerNodeCosts>,
    /// Per-rank ground-truth cycle totals (for tests and charts).
    pub rank_cycles: Vec<u64>,
}

impl SpmdRun {
    /// Number of simulated ranks.
    pub fn n_ranks(&self) -> usize {
        self.rank_cycles.len()
    }

    /// Per-rank inclusive value of `counter` at CCT node `node`: the sum
    /// of the rank's direct costs attributed within the node's subtree.
    /// This is what Fig. 7's charts plot. The subtree is marked once, in
    /// one pass over the nodes after `node` (a parent precedes its
    /// children), and every rank's costs are filtered by the mark.
    pub fn rank_inclusive_series(&self, node: NodeId, counter: Counter) -> Vec<f64> {
        let topo = self.experiment.cct.topo();
        let mut inside = vec![false; topo.len()];
        inside[node.index()] = true;
        for i in node.index() + 1..topo.len() {
            inside[i] = topo
                .parent(NodeId(i as u32))
                .is_some_and(|p| inside[p.index()]);
        }
        self.rank_direct
            .iter()
            .map(|costs| {
                costs
                    .iter()
                    .filter(|(n, _)| inside[n.index()])
                    .map(|(_, c)| c[counter as usize])
                    .sum()
            })
            .collect()
    }
}

/// Execute `program` on every rank, inject barrier idleness, and correlate
/// everything into one canonical CCT.
///
/// Barrier semantics: ranks synchronize at each `(barrier id, occurrence)`
/// pair; the last arrival's virtual time defines the release time, and
/// every earlier rank accrues `release - arrival` cycles of `IDLENESS`,
/// attributed to its own calling context at the barrier (so imbalance is
/// visible *in context*, the point of Section VI-C).
pub fn run_spmd(program: &Program, cfg: &SpmdConfig) -> SpmdRun {
    let binary = lower(program);
    let n_ranks = cfg.scales.len();
    assert!(n_ranks > 0, "need at least one rank");

    // --- Phase 1: simulate all ranks (parallel, deterministic results).
    let ranks: Vec<usize> = (0..n_ranks).collect();
    let mut results: Vec<ExecResult> = chunked_map(&ranks, cfg.threads, |_ci, batch| {
        batch
            .iter()
            .map(|&rank| {
                let rank_cfg = ExecConfig {
                    work_scale: cfg.scales[rank],
                    jitter_seed: cfg.exec.jitter_seed.map(|sd| sd.wrapping_add(rank as u64)),
                    ..cfg.exec.clone()
                };
                execute(&binary, &rank_cfg).expect("rank execution failed")
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();

    // --- Phases 2+3: barrier wall-clock reconciliation and idleness
    // injection. A rank's virtual clock only counts its own work, but
    // after a barrier releases, *all* ranks resume together; so each
    // rank's effective arrival time at barrier k is its raw arrival plus
    // all the idle time it accumulated at earlier barriers. Without this
    // offset, imbalance would compound across steps and idleness would be
    // overstated.
    let seq_len = results[0].barrier_arrivals.len();
    for res in &results {
        assert_eq!(
            res.barrier_arrivals.len(),
            seq_len,
            "SPMD ranks must execute the same barrier sequence"
        );
    }
    let mut offset = vec![0u64; n_ranks];
    for k in 0..seq_len {
        let key = {
            let a = &results[0].barrier_arrivals[k];
            (a.id, a.occurrence)
        };
        let mut release = 0u64;
        for (r, res) in results.iter().enumerate() {
            let a = &res.barrier_arrivals[k];
            assert_eq!((a.id, a.occurrence), key, "barrier sequences diverge");
            release = release.max(a.time_cycles + offset[r]);
        }
        for (r, res) in results.iter_mut().enumerate() {
            let arr = res.barrier_arrivals[k].clone();
            let idle = release - (arr.time_cycles + offset[r]);
            if idle > 0 {
                res.profile
                    .add_path(&arr.path, arr.addr, Counter::Idleness, idle as f64);
                res.totals[Counter::Idleness] += idle;
                offset[r] += idle;
            }
        }
    }

    // --- Phase 4: correlate every rank into one canonical CCT, in rank
    // order on this thread: ranks repeat each other's contexts, which
    // the correlator resolves once (`callpath_prof::correlate`).
    let structure = recover(&binary).expect("structure recovery failed");
    let mut periods = cfg.exec.periods;
    periods[Counter::Idleness as usize] = 1; // injected as raw cycles
    let rank_cycles: Vec<u64> = results.iter().map(|r| r.totals[Counter::Cycles]).collect();
    let profiles: Vec<RawProfile> = results.into_iter().map(|r| r.profile).collect();
    let (experiment, costs) =
        ParallelCorrelator::new(&structure, periods).correlate(&profiles, StorageKind::Csr);
    let rank_direct = if cfg.keep_rank_data {
        costs
    } else {
        Vec::new()
    };

    SpmdRun {
        experiment,
        rank_direct,
        rank_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use callpath_core::prelude::*;
    use callpath_profiler::{Costs, Op, ProgramBuilder};

    fn barrier_program() -> Program {
        let mut b = ProgramBuilder::new("spmd");
        let f = b.file("spmd.c");
        let work = b.declare("do_work", f, 10);
        let main = b.declare("main", f, 1);
        b.body(work, vec![Op::work(11, Costs::cycles(100_000))]);
        b.body(
            main,
            vec![Op::looped(
                3,
                4,
                vec![Op::call(4, work), Op::Barrier { line: 5, id: 0 }],
            )],
        );
        b.entry(main);
        b.build()
    }

    fn idleness_col(exp: &Experiment) -> ColumnId {
        let m = exp.raw.find("IDLENESS").expect("idleness metric");
        exp.inclusive_col(m)
    }

    #[test]
    fn balanced_ranks_have_no_idleness() {
        let cfg = SpmdConfig::new(vec![1.0; 4], ExecConfig::default());
        let run = run_spmd(&barrier_program(), &cfg);
        let col = idleness_col(&run.experiment);
        let root = run.experiment.cct.root();
        assert_eq!(run.experiment.columns.get(col, root.0), 0.0);
    }

    #[test]
    fn imbalanced_ranks_accrue_idleness_in_context() {
        let cfg = SpmdConfig::new(vec![1.0, 1.0, 1.0, 2.0], ExecConfig::default());
        let run = run_spmd(&barrier_program(), &cfg);
        let exp = &run.experiment;
        let col = idleness_col(exp);
        let root = exp.cct.root();
        // Three light ranks wait 100k cycles per step for 4 steps each.
        let total_idle = exp.columns.get(col, root.0);
        assert_eq!(total_idle, 3.0 * 4.0 * 100_000.0);
        // Idleness is attributed inside main's loop, not at the root only.
        let main = exp.cct.children(root).next().unwrap();
        let lp = exp
            .cct
            .children(main)
            .find(|&n| exp.cct.kind(n).is_loop())
            .expect("barrier context includes the loop");
        assert_eq!(exp.columns.get(col, lp.0), total_idle);
    }

    #[test]
    fn hot_path_on_idleness_lands_in_the_loop() {
        let cfg = SpmdConfig::new(vec![1.0, 1.0, 1.0, 2.0], ExecConfig::default());
        let run = run_spmd(&barrier_program(), &cfg);
        let exp = &run.experiment;
        let col = idleness_col(exp);
        let mut view = View::calling_context(exp);
        let roots = view.roots();
        let path = view.hot_path(roots[0], col, HotPathConfig::default());
        let labels: Vec<String> = path.iter().map(|&n| view.label(n)).collect();
        assert!(
            labels.iter().any(|l| l.starts_with("loop at spmd.c:3")),
            "{labels:?}"
        );
    }

    #[test]
    fn rank_series_reflects_partition() {
        let cfg = SpmdConfig::new(vec![1.0, 2.0, 1.0, 2.0], ExecConfig::default());
        let run = run_spmd(&barrier_program(), &cfg);
        let root = run.experiment.cct.root();
        let series = run.rank_inclusive_series(root, Counter::Cycles);
        assert_eq!(series.len(), 4);
        assert!(series[1] > series[0] * 1.8, "{series:?}");
        assert!(series[3] > series[2] * 1.8, "{series:?}");
    }

    #[test]
    fn rank_cycles_scale_with_work() {
        let cfg = SpmdConfig::new(vec![1.0, 3.0], ExecConfig::default());
        let run = run_spmd(&barrier_program(), &cfg);
        assert_eq!(run.rank_cycles.len(), 2);
        assert_eq!(run.rank_cycles[1], 3 * run.rank_cycles[0]);
    }

    #[test]
    fn keep_rank_data_can_be_disabled() {
        let mut cfg = SpmdConfig::new(vec![1.0; 3], ExecConfig::default());
        cfg.keep_rank_data = false;
        let run = run_spmd(&barrier_program(), &cfg);
        assert!(run.rank_direct.is_empty());
        assert_eq!(run.rank_cycles.len(), 3);
    }

    #[test]
    fn parallel_and_serial_simulation_agree() {
        let mut cfg = SpmdConfig::new(vec![1.0, 1.5, 2.0, 2.5], ExecConfig::default());
        cfg.threads = 1;
        let serial = run_spmd(&barrier_program(), &cfg);
        cfg.threads = 4;
        let parallel = run_spmd(&barrier_program(), &cfg);
        assert_eq!(serial.rank_cycles, parallel.rank_cycles);
        let c = ColumnId(0);
        let root = serial.experiment.cct.root();
        assert_eq!(
            serial.experiment.columns.get(c, root.0),
            parallel.experiment.columns.get(c, root.0),
        );
    }
}
