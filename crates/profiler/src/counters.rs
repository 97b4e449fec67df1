//! The simulated machine's hardware performance counters.
//!
//! The paper's case studies use PAPI counters (`PAPI_TOT_CYC`,
//! `PAPI_L1_DCM`, `PAPI_FP_OPS`); our simulated CPU exposes the same set,
//! plus an instruction counter and an `IDLENESS` counter that the SPMD
//! harness uses for load-imbalance analysis (Section VI-C).

use callpath_core::prelude::MetricDesc;
use std::ops::{Add, AddAssign, Index, IndexMut};

/// Counter indices. Fixed at compile time: the cost model is a dense array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Total cycles (`PAPI_TOT_CYC`).
    Cycles = 0,
    /// Retired instructions (`PAPI_TOT_INS`).
    Instructions = 1,
    /// Floating-point operations (`PAPI_FP_OPS`).
    FpOps = 2,
    /// L1 data-cache misses (`PAPI_L1_DCM`).
    L1DcMisses = 3,
    /// Synchronization waiting time (injected, not sampled).
    Idleness = 4,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 5;
    /// Every counter, in index order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::Cycles,
        Counter::Instructions,
        Counter::FpOps,
        Counter::L1DcMisses,
        Counter::Idleness,
    ];

    /// The PAPI-style event name.
    pub fn papi_name(self) -> &'static str {
        match self {
            Counter::Cycles => "PAPI_TOT_CYC",
            Counter::Instructions => "PAPI_TOT_INS",
            Counter::FpOps => "PAPI_FP_OPS",
            Counter::L1DcMisses => "PAPI_L1_DCM",
            Counter::Idleness => "IDLENESS",
        }
    }

    /// Display unit.
    pub fn unit(self) -> &'static str {
        match self {
            Counter::Cycles => "cycles",
            Counter::Instructions => "instructions",
            Counter::FpOps => "ops",
            Counter::L1DcMisses => "misses",
            Counter::Idleness => "cycles",
        }
    }
}

/// Event counts per counter: the cost of a work chunk, or an accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Costs(pub [u64; Counter::COUNT]);

impl Costs {
    /// All-zero costs.
    pub const ZERO: Costs = Costs([0; Counter::COUNT]);

    /// A typical "balanced" instruction mix for `cycles` cycles of work:
    /// roughly one instruction per cycle and no FP or cache traffic.
    pub fn cycles(cycles: u64) -> Costs {
        let mut c = Costs::ZERO;
        c[Counter::Cycles] = cycles;
        c[Counter::Instructions] = cycles;
        c
    }

    /// Compute-bound work: `flops` floating-point ops at the given
    /// efficiency relative to a `peak` FLOPs/cycle machine.
    ///
    /// `efficiency` ∈ (0, 1]: cycles = flops / (peak × efficiency).
    pub fn compute(flops: u64, peak: f64, efficiency: f64) -> Costs {
        assert!(efficiency > 0.0 && efficiency <= 1.0);
        assert!(peak > 0.0);
        let cycles = (flops as f64 / (peak * efficiency)).ceil() as u64;
        let mut c = Costs::ZERO;
        c[Counter::Cycles] = cycles.max(1);
        c[Counter::Instructions] = cycles.max(1);
        c[Counter::FpOps] = flops;
        c
    }

    /// Memory-bound streaming work: cycles dominated by cache misses.
    pub fn memory(cycles: u64, l1_misses: u64) -> Costs {
        let mut c = Costs::ZERO;
        c[Counter::Cycles] = cycles;
        c[Counter::Instructions] = cycles / 4 + 1;
        c[Counter::L1DcMisses] = l1_misses;
        c
    }

    /// Pure idleness (waiting at a synchronization point).
    pub fn idle(cycles: u64) -> Costs {
        let mut c = Costs::ZERO;
        c[Counter::Cycles] = cycles;
        c[Counter::Idleness] = cycles;
        c
    }

    /// Builder-style override of one counter.
    pub fn with(mut self, counter: Counter, value: u64) -> Costs {
        self[counter] = value;
        self
    }

    /// Scale every component (used for per-rank imbalance). Rounds to
    /// nearest, never below 1 for non-zero inputs so scaled work remains
    /// observable.
    pub fn scaled(self, factor: f64) -> Costs {
        assert!(factor >= 0.0);
        let mut out = Costs::ZERO;
        for i in 0..Counter::COUNT {
            if self.0[i] > 0 {
                out.0[i] = ((self.0[i] as f64 * factor).round() as u64).max(1);
            }
        }
        out
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&x| x == 0)
    }

    /// Events of one counter.
    pub fn total(&self, counter: Counter) -> u64 {
        self[counter]
    }
}

impl Index<Counter> for Costs {
    type Output = u64;

    fn index(&self, c: Counter) -> &u64 {
        &self.0[c as usize]
    }
}

impl IndexMut<Counter> for Costs {
    fn index_mut(&mut self, c: Counter) -> &mut u64 {
        &mut self.0[c as usize]
    }
}

impl Add for Costs {
    type Output = Costs;

    fn add(mut self, rhs: Costs) -> Costs {
        self += rhs;
        self
    }
}

impl AddAssign for Costs {
    fn add_assign(&mut self, rhs: Costs) {
        for i in 0..Counter::COUNT {
            self.0[i] += rhs.0[i];
        }
    }
}

/// Metric descriptors for a sampling configuration, in counter order, with
/// the sampling period recorded so attributed costs are in event units.
pub fn metric_descs(periods: &[u64; Counter::COUNT]) -> Vec<MetricDesc> {
    Counter::ALL
        .iter()
        .map(|&c| MetricDesc::new(c.papi_name(), c.unit(), periods[c as usize] as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_roundtrip() {
        let mut c = Costs::ZERO;
        c[Counter::FpOps] = 42;
        assert_eq!(c[Counter::FpOps], 42);
        assert_eq!(c[Counter::Cycles], 0);
    }

    #[test]
    fn compute_costs_respect_efficiency() {
        // 4 flops/cycle peak at 100% efficiency: 1000 flops in 250 cycles.
        let c = Costs::compute(1000, 4.0, 1.0);
        assert_eq!(c[Counter::Cycles], 250);
        assert_eq!(c[Counter::FpOps], 1000);
        // 6% efficiency needs ~16.7x the cycles.
        let slow = Costs::compute(1000, 4.0, 0.06);
        assert!(slow[Counter::Cycles] > 4000);
    }

    #[test]
    fn memory_costs_carry_misses() {
        let c = Costs::memory(1000, 50);
        assert_eq!(c[Counter::L1DcMisses], 50);
        assert_eq!(c[Counter::Cycles], 1000);
        assert_eq!(c[Counter::FpOps], 0);
    }

    #[test]
    fn idle_is_cycles_plus_idleness() {
        let c = Costs::idle(10);
        assert_eq!(c[Counter::Cycles], 10);
        assert_eq!(c[Counter::Idleness], 10);
        assert_eq!(c[Counter::Instructions], 0);
    }

    #[test]
    fn add_is_componentwise() {
        let a = Costs::cycles(10) + Costs::memory(5, 2);
        assert_eq!(a[Counter::Cycles], 15);
        assert_eq!(a[Counter::L1DcMisses], 2);
    }

    #[test]
    fn scaling_preserves_nonzero() {
        let c = Costs::cycles(10).scaled(0.01);
        assert_eq!(c[Counter::Cycles], 1, "scaled work stays observable");
        let z = Costs::ZERO.scaled(3.0);
        assert!(z.is_zero());
    }

    #[test]
    fn descs_carry_periods() {
        let periods = [1000, 1000, 500, 100, 1000];
        let descs = metric_descs(&periods);
        assert_eq!(descs.len(), Counter::COUNT);
        assert_eq!(descs[0].name, "PAPI_TOT_CYC");
        assert_eq!(descs[3].period, 100.0);
    }
}
