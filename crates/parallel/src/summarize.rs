//! Streaming summarization of per-rank metrics (the `hpcprof` finalization
//! step, Section IV, and the scalability requirement of Section VII).
//!
//! For every CCT node and metric, the summarizer folds each rank's
//! *inclusive* value into a [`Welford`] accumulator. Ranks stream through
//! one at a time, so memory is O(nodes × metrics), not
//! O(nodes × metrics × ranks) — the paper's "assembles intermediate
//! summary metric values into final values".

use callpath_core::attribution::attribute;
use callpath_core::prelude::*;
use callpath_prof::PerNodeCosts;
use callpath_profiler::Counter;

/// Per-node, per-metric summary statistics across ranks.
pub struct Summaries {
    /// `stats[node * n_metrics + metric]`.
    stats: Vec<Welford>,
    n_metrics: usize,
}

impl Summaries {
    /// Statistics of `metric` at CCT node `node`.
    pub fn get(&self, node: NodeId, metric: MetricId) -> &Welford {
        &self.stats[node.index() * self.n_metrics + metric.index()]
    }

    /// Number of summarized metrics.
    pub fn n_metrics(&self) -> usize {
        self.n_metrics
    }

    /// Append chosen statistics as new columns on the experiment's CCT
    /// metric table (named e.g. `PAPI_TOT_CYC (I) mean`).
    pub fn append_columns(&self, exp: &mut Experiment, stats: &[Stat]) -> Vec<ColumnId> {
        let mut out = Vec::new();
        for mi in 0..self.n_metrics {
            let m = MetricId::from_usize(mi);
            let base = exp.raw.desc(m).name.clone();
            for &st in stats {
                let col = exp.columns.add_column(ColumnDesc {
                    name: format!("{} (I) {}", base, st.label()),
                    flavor: ColumnFlavor::Summary { base: m, stat: st },
                    visible: true,
                });
                for n in exp.cct.all_nodes() {
                    let v = self.get(n, m).stat(st);
                    if v != 0.0 {
                        exp.columns.set(col, n.0, v);
                    }
                }
                out.push(col);
            }
        }
        out
    }
}

/// Build a temporary [`RawMetrics`] carrying one rank's direct costs,
/// freed right after use.
fn rank_raw(counters: &[Counter], costs: &PerNodeCosts) -> (RawMetrics, Vec<MetricId>) {
    let mut raw = RawMetrics::new(StorageKind::Csr);
    let ids: Vec<MetricId> = counters
        .iter()
        .map(|c| raw.add_metric(MetricDesc::new(c.papi_name(), c.unit(), 1.0)))
        .collect();
    for (node, per_counter) in costs {
        for (mi, &c) in counters.iter().enumerate() {
            let v = per_counter[c as usize];
            if v != 0.0 {
                raw.add_cost(ids[mi], *node, v);
            }
        }
    }
    (raw, ids)
}

/// Map a rank's sparse direct costs to per-node inclusive values and fold
/// them into `into`.
fn fold_rank(exp: &Experiment, counters: &[Counter], costs: &PerNodeCosts, into: &mut [Welford]) {
    let n_metrics = counters.len();
    let (raw, ids) = rank_raw(counters, costs);
    for (mi, &id) in ids.iter().enumerate() {
        let attr = attribute(&exp.cct, &raw, id, StorageKind::Csr);
        // One ordered scan, whichever shape the kernel handed over.
        let mut inclusive = attr.inclusive.nonzero_sorted().peekable();
        for n in exp.cct.all_nodes() {
            let v = inclusive.next_if(|&(k, _)| k == n.0).map_or(0.0, |e| e.1);
            into[n.index() * n_metrics + mi].push(v);
        }
    }
}

/// Summarize per-rank inclusive values over the shared CCT.
///
/// `rank_costs[r]` is rank r's sparse per-node direct costs (from
/// [`callpath_prof::Correlator::add`]); `counters` selects and orders the
/// metrics (matching the experiment's metric ids).
pub fn summarize_ranks(
    exp: &Experiment,
    counters: &[Counter],
    rank_costs: &[PerNodeCosts],
) -> Summaries {
    let n_metrics = counters.len();
    let mut stats = vec![Welford::new(); exp.cct.len() * n_metrics];
    for costs in rank_costs {
        fold_rank(exp, counters, costs, &mut stats);
    }
    Summaries { stats, n_metrics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmd::{run_spmd, SpmdConfig};
    use callpath_profiler::{Costs, ExecConfig, Op, ProgramBuilder};

    /// Exact sampling (period 1, no jitter) so assertions are integral.
    fn exact_cfg() -> ExecConfig {
        ExecConfig {
            jitter_seed: None,
            ..ExecConfig::single(callpath_profiler::Counter::Cycles, 1)
        }
    }

    fn simple_run(scales: Vec<f64>) -> crate::spmd::SpmdRun {
        let mut b = ProgramBuilder::new("x");
        let f = b.file("x.c");
        let main = b.declare("main", f, 1);
        b.body(main, vec![Op::work(2, Costs::cycles(10_000))]);
        b.entry(main);
        run_spmd(&b.build(), &SpmdConfig::new(scales, exact_cfg()))
    }

    #[test]
    fn mean_min_max_match_partition() {
        let run = simple_run(vec![1.0, 1.0, 2.0, 2.0]);
        let s = summarize_ranks(&run.experiment, &[Counter::Cycles], &run.rank_direct);
        let root = run.experiment.cct.root();
        let w = s.get(root, MetricId(0));
        assert_eq!(w.count(), 4);
        assert_eq!(w.min(), 10_000.0);
        assert_eq!(w.max(), 20_000.0);
        assert_eq!(w.mean(), 15_000.0);
        assert!(w.std_dev() > 0.0);
    }

    #[test]
    fn summary_columns_append_and_fill() {
        let run = simple_run(vec![1.0, 3.0]);
        let s = summarize_ranks(&run.experiment, &[Counter::Cycles], &run.rank_direct);
        let mut exp = run.experiment;
        let before = exp.columns.column_count();
        let cols = s.append_columns(&mut exp, &[Stat::Mean, Stat::Max, Stat::StdDev]);
        assert_eq!(exp.columns.column_count(), before + 3);
        let root = exp.cct.root();
        assert_eq!(exp.columns.get(cols[0], root.0), 20_000.0, "mean");
        assert_eq!(exp.columns.get(cols[1], root.0), 30_000.0, "max");
        assert!(exp.columns.desc(cols[2]).name.ends_with("stddev"));
    }

    #[test]
    fn interior_nodes_summarize_inclusively() {
        // main -> work: the summary at `main` must reflect inclusive
        // per-rank values, not just direct ones.
        let mut b = ProgramBuilder::new("x");
        let f = b.file("x.c");
        let work = b.declare("work", f, 10);
        let main = b.declare("main", f, 1);
        b.body(work, vec![Op::work(11, Costs::cycles(10_000))]);
        b.body(main, vec![Op::call(2, work)]);
        b.entry(main);
        let run = run_spmd(&b.build(), &SpmdConfig::new(vec![1.0, 2.0], exact_cfg()));
        let s = summarize_ranks(&run.experiment, &[Counter::Cycles], &run.rank_direct);
        let root = run.experiment.cct.root();
        let main_node = run.experiment.cct.children(root).next().unwrap();
        let w = s.get(main_node, MetricId(0));
        assert_eq!(w.mean(), 15_000.0);
        assert_eq!(w.max(), 20_000.0);
    }
}
