//! Streaming summary statistics for large-scale parallel executions
//! (Section IV finalization step and Section VII).
//!
//! For executions with thousands of MPI processes it is not scalable to
//! keep every process's metrics in memory; HPCToolkit instead summarizes
//! per-node metrics into mean, min, max and standard deviation. The
//! `Welford` accumulator here implements the numerically stable streaming
//! algorithm, one `push` per value, and [`Summarizer`] is the one kernel
//! that applies it per node of a tree to N members' attributed values.

/// A summary statistic over per-process metric values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stat {
    /// Arithmetic mean over processes.
    Mean,
    /// Minimum over processes.
    Min,
    /// Maximum over processes.
    Max,
    /// Population standard deviation.
    StdDev,
}

impl Stat {
    /// Every statistic, in declaration order: `stat as usize` indexes it.
    pub const ALL: [Stat; 4] = [Stat::Mean, Stat::Min, Stat::Max, Stat::StdDev];

    /// Column-suffix label.
    pub fn label(self) -> &'static str {
        match self {
            Stat::Mean => "mean",
            Stat::Min => "min",
            Stat::Max => "max",
            Stat::StdDev => "stddev",
        }
    }
}

/// Numerically stable streaming accumulator (Welford's algorithm) with
/// min/max tracking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Welford {
    fn default() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// `count` observations of 0: what `count` calls of `push(0.0)` leave.
    fn zeros(count: u64) -> Self {
        Welford {
            count,
            min: 0.0,
            max: 0.0,
            ..Welford::default()
        }
    }

    /// Observe one value.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Fold in everything `other` observed, as if pushed after this
    /// one's values (Chan et al.'s pairwise update).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        let count = self.count + other.count;
        let (delta, share) = (other.mean - self.mean, other.count as f64 / count as f64);
        self.mean += delta * share;
        self.m2 += other.m2 + delta * delta * self.count as f64 * share;
        self.count = count;
        (self.min, self.max) = (self.min.min(other.min), self.max.max(other.max));
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance.
    fn variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Evaluate one statistic.
    pub fn stat(&self, s: Stat) -> f64 {
        match s {
            Stat::Mean => self.mean(),
            Stat::Min => self.min(),
            Stat::Max => self.max(),
            Stat::StdDev => self.std_dev(),
        }
    }

    /// Coefficient of variation (stddev / mean); a standard scalar signal of
    /// load imbalance across processes.
    pub fn coeff_of_variation(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m
        }
    }
}

/// Per-node statistics of N members' attributed inclusive and exclusive
/// values over one tree: ranks over their CCT, or runs remapped into a
/// union. A member's non-zeros are pushed in member order (a node at most
/// once a half); [`Summarizer::finish`] merges each node's absent members
/// in as one group of zeros, so a member costs what it holds.
#[derive(Clone)]
pub struct Summarizer {
    /// Every node's inclusive accumulator, then every node's exclusive
    /// one, in one allocation: two measured slower, the fresh pages
    /// being a share of a small ensemble's cost (EXPERIMENTS.md,
    /// "Ensemble statistics").
    stats: Vec<Welford>,
    members: u64,
}

impl Summarizer {
    /// No members yet, over a tree of `n_nodes` nodes.
    pub fn new(n_nodes: usize) -> Self {
        let stats = vec![Welford::new(); 2 * n_nodes];
        Summarizer { stats, members: 0 }
    }

    /// Fold in the next member's attributed values.
    pub fn add<I: IntoIterator<Item = (u32, f64)>>(&mut self, inclusive: I, exclusive: I) {
        self.members += 1;
        let n_nodes = self.stats.len() / 2;
        let (incl, excl) = self.stats.split_at_mut(n_nodes);
        for (stats, column) in [incl, excl].into_iter().zip([inclusive, exclusive]) {
            let nonzero = column.into_iter().filter(|e| e.1 != 0.0);
            nonzero.for_each(|(node, v)| stats[node as usize].push(v));
        }
    }

    /// Per node, the statistics over every member added: the inclusive
    /// ones of all nodes, then the exclusive ones.
    pub fn finish(mut self) -> Vec<Welford> {
        for w in &mut self.stats {
            w.merge(&Welford::zeros(self.members - w.count));
        }
        self.stats
    }
}

/// The statistic columns of per-node accumulators, in [`Stat::ALL`]
/// order: each statistic's non-zero values, ascending by node.
pub fn stat_columns(stats: &[Welford]) -> [Vec<(u32, f64)>; 4] {
    let mut columns = [(); 4].map(|_| Vec::new());
    for (node, w) in (0u32..).zip(stats) {
        for (column, stat) in columns.iter_mut().zip(Stat::ALL) {
            let v = w.stat(stat);
            if v != 0.0 {
                column.push((node, v));
            }
        }
    }
    columns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_stats(xs: &[f64]) -> (f64, f64, f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        (mean, var, min, max)
    }

    #[test]
    fn matches_two_pass_reference() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let (mean, var, min, max) = reference_stats(&xs);
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert_eq!(w.min(), min);
        assert_eq!(w.max(), max);
        assert_eq!(w.count(), 8);
    }

    #[test]
    fn empty_accumulator_is_all_zero() {
        let w = Welford::new();
        for s in Stat::ALL {
            assert_eq!(w.stat(s), 0.0, "{}", s.label());
        }
    }

    #[test]
    fn constant_stream_has_zero_variance() {
        let mut w = Welford::new();
        for _ in 0..1000 {
            w.push(7.5);
        }
        assert!(w.std_dev() < 1e-12);
        assert_eq!(w.coeff_of_variation(), w.std_dev() / 7.5);
    }

    #[test]
    fn large_nearly_equal_values_keep_their_spread() {
        // sumsq/n - mean^2 cancels to 0 here; the streaming update does not.
        let mut w = Welford::new();
        for d in [0.0, 1.0, 2.0] {
            w.push(1e9 + d);
        }
        assert_eq!(w.std_dev(), (2.0f64 / 3.0).sqrt(), "{}", w.std_dev());
    }

    #[test]
    fn merging_a_zero_group_equals_pushing_the_zeros() {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
        for (xs, k) in [
            (&[3.0, -1.5, 8.25][..], 5),
            (&[1e9 + 1.0, 1e9][..], 1),
            (&[][..], 3),
        ] {
            let mut merged = Welford::new();
            xs.iter().for_each(|&x| merged.push(x));
            let mut pushed = merged;
            merged.merge(&Welford::zeros(k));
            (0..k).for_each(|_| pushed.push(0.0));
            assert_eq!(merged.count, pushed.count);
            assert_eq!((merged.min, merged.max), (pushed.min, pushed.max));
            assert!(close(merged.mean, pushed.mean), "{merged:?} {pushed:?}");
            assert!(close(merged.m2, pushed.m2), "{merged:?} {pushed:?}");
        }
    }

    #[test]
    fn imbalance_signal() {
        // Half the ranks do double work: a clearly bimodal distribution.
        let mut w = Welford::new();
        for i in 0..64 {
            w.push(if i < 32 { 100.0 } else { 200.0 });
        }
        assert!(w.coeff_of_variation() > 0.3);
        assert_eq!(w.min(), 100.0);
        assert_eq!(w.max(), 200.0);
    }
}
