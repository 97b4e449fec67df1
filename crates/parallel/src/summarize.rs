//! Streaming summarization of per-rank metrics (the `hpcprof` finalization
//! step, Section IV, and the scalability requirement of Section VII).
//!
//! Each rank's inclusive and exclusive values over the shared CCT go
//! through the summary kernel, [`Summarizer`], one rank at a time, so
//! memory is O(nodes × metrics), not O(nodes × metrics × ranks) — the
//! paper's "assembles intermediate summary metric values into final
//! values".

use callpath_core::attribution::attribute_sorted;
use callpath_core::prelude::*;
use callpath_core::summary::{stat_columns, Summarizer};
use callpath_prof::PerNodeCosts;
use callpath_profiler::Counter;

/// Per-node, per-metric summary statistics across ranks.
pub struct Summaries {
    /// Per metric, [`Summarizer::finish`]'s inclusive, then exclusive,
    /// accumulators.
    stats: Vec<Vec<Welford>>,
}

impl Summaries {
    /// Statistics of `metric`'s inclusive values at CCT node `node`.
    pub fn get(&self, node: NodeId, metric: MetricId) -> &Welford {
        &self.stats[metric.index()][node.index()]
    }

    /// Statistics of `metric`'s exclusive values at CCT node `node`.
    pub fn exclusive(&self, node: NodeId, metric: MetricId) -> &Welford {
        let stats = &self.stats[metric.index()];
        &stats[stats.len() / 2 + node.index()]
    }

    /// Append chosen statistics of the inclusive values as new columns
    /// on the experiment's CCT metric table (named e.g.
    /// `PAPI_TOT_CYC (I) mean`).
    pub fn append_columns(&self, exp: &mut Experiment, stats: &[Stat]) -> Vec<ColumnId> {
        let mut out = Vec::new();
        for (mi, both) in self.stats.iter().enumerate() {
            let (m, nodes) = (MetricId::from_usize(mi), &both[..both.len() / 2]);
            let base = exp.raw.desc(m).name.clone();
            let columns = stat_columns(nodes);
            for &st in stats {
                let desc = ColumnDesc {
                    name: format!("{} (I) {}", base, st.label()),
                    flavor: ColumnFlavor::Summary { base: m, stat: st },
                    visible: true,
                };
                let values = MetricVec::from_sorted(columns[st as usize].clone(), nodes.len());
                out.push(exp.columns.add_column_with(desc, values));
            }
        }
        out
    }
}

/// Summarize per-rank inclusive and exclusive values over the shared
/// CCT.
///
/// `rank_costs[r]` is rank r's sparse per-node direct costs (from
/// [`callpath_prof::Correlator::add`]); `counters` selects and orders the
/// metrics (matching the experiment's metric ids).
pub fn summarize_ranks(
    exp: &Experiment,
    counters: &[Counter],
    rank_costs: &[PerNodeCosts],
) -> Summaries {
    let mut kernels = vec![Summarizer::new(exp.cct.len()); counters.len()];
    for costs in rank_costs {
        for (&c, kernel) in counters.iter().zip(&mut kernels) {
            let mut direct = CsrColumn::new();
            costs
                .iter()
                .for_each(|(node, per)| direct.add(node.0, per[c as usize]));
            let direct = MetricVec::Csr(direct);
            let (keys, vals) = direct.sorted_parts();
            let attr = attribute_sorted(&exp.cct, &keys, &vals);
            kernel.add(
                attr.inclusive.nonzero_sorted(),
                attr.exclusive.nonzero_sorted(),
            );
        }
    }
    let stats = kernels.into_iter().map(Summarizer::finish).collect();
    Summaries { stats }
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
}
