//! Streaming summary statistics for large-scale parallel executions
//! (Section IV finalization step and Section VII).
//!
//! For executions with thousands of MPI processes it is not scalable to
//! keep every process's metrics in memory; HPCToolkit instead summarizes
//! per-node metrics into mean, min, max and standard deviation. The
//! `Welford` accumulator here implements the numerically stable streaming
//! algorithm: one `push` per process, nothing kept but the moments.

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
    /// Sum over all processes (used for "total inclusive idleness summed
    /// over all MPI processes" in the load-imbalance case study).
    Sum,
}

impl Stat {
    /// Every statistic.
    pub const ALL: [Stat; 5] = [Stat::Mean, Stat::Min, Stat::Max, Stat::StdDev, Stat::Sum];

    /// Column-suffix label.
    pub fn label(self) -> &'static str {
        match self {
            Stat::Mean => "mean",
            Stat::Min => "min",
            Stat::Max => "max",
            Stat::StdDev => "stddev",
            Stat::Sum => "sum",
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
    sum: f64,
}

impl Default for Welford {
    fn default() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe one value.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.sum += x;
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

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Evaluate one statistic.
    pub fn stat(&self, s: Stat) -> f64 {
        match s {
            Stat::Mean => self.mean(),
            Stat::Min => self.min(),
            Stat::Max => self.max(),
            Stat::StdDev => self.std_dev(),
            Stat::Sum => self.sum(),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_stats(xs: &[f64]) -> (f64, f64, f64, f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        (mean, var, min, max, xs.iter().sum())
    }

    #[test]
    fn matches_two_pass_reference() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let (mean, var, min, max, sum) = reference_stats(&xs);
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert_eq!(w.min(), min);
        assert_eq!(w.max(), max);
        assert_eq!(w.sum(), sum);
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
