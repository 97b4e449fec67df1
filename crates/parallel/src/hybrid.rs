//! Hybrid MPI + threads executions (the paper's recurring
//! "processes/threads": `hpcrun` profiles every *thread*, and the
//! summarization of Section VII runs over all of them).
//!
//! Model: each rank runs `threads_per_rank` worker threads that partition
//! the rank's domain work; OpenMP-style chunk skew gives the threads of a
//! rank slightly uneven shares. Every (rank, thread) unit is profiled
//! separately — exactly one simulated execution each — and synchronizes
//! at program barriers (an `MPI_THREAD_MULTIPLE`-style model where the
//! end-of-step barrier joins all workers). All unit profiles correlate
//! into one canonical CCT; per-rank series are recovered by summing a
//! rank's thread units.

use crate::spmd::{run_spmd, SpmdConfig, SpmdRun};
use callpath_core::prelude::NodeId;
use callpath_profiler::{Counter, ExecConfig, Program};

/// Configuration of a hybrid run.
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Per-rank work multipliers (the domain partition).
    pub rank_scales: Vec<f64>,
    /// Worker threads per rank.
    pub threads_per_rank: usize,
    /// Thread-level imbalance within each rank: thread `t` of `T` gets a
    /// share multiplier `1 + skew × (t − (T−1)/2) / T`. 0.0 = perfectly
    /// even chunks.
    pub thread_skew: f64,
    /// Base execution configuration.
    pub exec: ExecConfig,
}

impl HybridConfig {
    /// Flatten to the per-unit scale vector (unit = rank-major order:
    /// rank 0's threads first).
    pub fn unit_scales(&self) -> Vec<f64> {
        let t = self.threads_per_rank.max(1);
        let mut out = Vec::with_capacity(self.rank_scales.len() * t);
        for &rs in &self.rank_scales {
            for ti in 0..t {
                let centered = ti as f64 - (t as f64 - 1.0) / 2.0;
                let share = (1.0 + self.thread_skew * centered / t as f64).max(0.05);
                out.push(rs * share / t as f64);
            }
        }
        out
    }
}

/// Result of a hybrid run: an SPMD run over rank×thread units plus the
/// grouping information.
pub struct HybridRun {
    /// The underlying per-unit SPMD run.
    pub spmd: SpmdRun,
    /// Number of MPI ranks.
    pub n_ranks: usize,
    /// Worker threads per rank.
    pub threads_per_rank: usize,
}

impl HybridRun {
    /// Per-*unit* inclusive series at a node (threads are the atoms).
    pub fn unit_series(&self, node: NodeId, counter: Counter) -> Vec<f64> {
        self.spmd.rank_inclusive_series(node, counter)
    }

    /// Per-*rank* series: each rank's threads summed.
    pub fn rank_series(&self, node: NodeId, counter: Counter) -> Vec<f64> {
        let units = self.unit_series(node, counter);
        units
            .chunks(self.threads_per_rank)
            .map(|c| c.iter().sum())
            .collect()
    }

    /// The thread series of one rank.
    pub fn thread_series(&self, rank: usize, node: NodeId, counter: Counter) -> Vec<f64> {
        let units = self.unit_series(node, counter);
        units[rank * self.threads_per_rank..(rank + 1) * self.threads_per_rank].to_vec()
    }
}

/// Run `program` on `rank_scales.len()` ranks × `threads_per_rank`
/// threads.
pub fn run_hybrid(program: &Program, cfg: &HybridConfig) -> HybridRun {
    assert!(cfg.threads_per_rank >= 1);
    let scales = cfg.unit_scales();
    let spmd = run_spmd(program, &SpmdConfig::new(scales, cfg.exec.clone()));
    HybridRun {
        spmd,
        n_ranks: cfg.rank_scales.len(),
        threads_per_rank: cfg.threads_per_rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imbalance::ImbalanceStats;
    use callpath_profiler::{Costs, Op, ProgramBuilder};

    fn exact_exec() -> ExecConfig {
        ExecConfig {
            jitter_seed: None,
            ..ExecConfig::single(Counter::Cycles, 1)
        }
    }

    fn program() -> Program {
        let mut b = ProgramBuilder::new("h");
        let f = b.file("h.c");
        let main = b.declare("main", f, 1);
        b.body(main, vec![Op::work(2, Costs::cycles(120_000))]);
        b.entry(main);
        b.build()
    }

    #[test]
    fn threads_partition_their_ranks_work() {
        let cfg = HybridConfig {
            rank_scales: vec![1.0, 2.0],
            threads_per_rank: 4,
            thread_skew: 0.0,
            exec: exact_exec(),
        };
        let run = run_hybrid(&program(), &cfg);
        assert_eq!(run.spmd.n_ranks(), 8, "8 units");
        let root = run.spmd.experiment.cct.root();
        let ranks = run.rank_series(root, Counter::Cycles);
        assert_eq!(ranks.len(), 2);
        // Each rank's threads sum back to the rank's work.
        assert_eq!(ranks[0], 120_000.0);
        assert_eq!(ranks[1], 240_000.0);
        // Even chunks: every thread of rank 0 does 30k.
        let t0 = run.thread_series(0, root, Counter::Cycles);
        assert_eq!(t0, vec![30_000.0; 4]);
    }

    #[test]
    fn thread_skew_creates_intra_rank_imbalance() {
        let cfg = HybridConfig {
            rank_scales: vec![1.0],
            threads_per_rank: 8,
            thread_skew: 0.5,
            exec: exact_exec(),
        };
        let run = run_hybrid(&program(), &cfg);
        let root = run.spmd.experiment.cct.root();
        let threads = run.thread_series(0, root, Counter::Cycles);
        let stats = ImbalanceStats::of(&threads);
        assert!(stats.cov > 0.05, "skewed chunks: cov {}", stats.cov);
        assert!(threads[7] > threads[0], "monotone skew: {threads:?}");
        // Total work is preserved (shares sum to ~1 per rank).
        let total: f64 = threads.iter().sum();
        assert!((total - 120_000.0).abs() / 120_000.0 < 0.01, "{total}");
    }

    #[test]
    fn unit_scales_sum_to_rank_scales() {
        let cfg = HybridConfig {
            rank_scales: vec![1.0, 1.5],
            threads_per_rank: 3,
            thread_skew: 0.3,
            exec: exact_exec(),
        };
        let scales = cfg.unit_scales();
        assert_eq!(scales.len(), 6);
        let r0: f64 = scales[..3].iter().sum();
        let r1: f64 = scales[3..].iter().sum();
        assert!((r0 - 1.0).abs() < 1e-12);
        assert!((r1 - 1.5).abs() < 1e-12);
    }

    #[test]
    fn summaries_cover_all_threads() {
        let cfg = HybridConfig {
            rank_scales: vec![1.0; 4],
            threads_per_rank: 4,
            thread_skew: 0.2,
            exec: exact_exec(),
        };
        let run = run_hybrid(&program(), &cfg);
        let s = crate::summarize_ranks(
            &run.spmd.experiment,
            &[Counter::Cycles],
            &run.spmd.rank_direct,
        );
        let root = run.spmd.experiment.cct.root();
        let w = s.get(root, callpath_core::prelude::MetricId(0));
        assert_eq!(w.count(), 16, "one observation per thread");
    }
}
