//! Every call whose signature carries a `StorageKind` lives here, so
//! that when ROADMAP item 2 drops the parameter the harness changes in
//! this one file. The benchmark always runs the `Csr` flavour: it is
//! the one the lazy reader produces and the one that stays.

use callpath_core::attribution::{attribute, Attribution};
use callpath_core::prelude::*;
use callpath_prof::{Correlator, ParallelCorrelator};
use callpath_profiler::{Counter, RawProfile};
use callpath_structure::Structure;

const STORAGE: StorageKind = StorageKind::Csr;

/// Copy each raw metric of `base` once per entry of `scales`, scaled by
/// it — the per-rank database shape of `tests/expdb_open_smoke.rs` — so
/// a small topology carries `2 × scales × metrics` presentation columns.
pub fn widen(base: &Experiment, scales: &[f64]) -> Experiment {
    let n_nodes = base.cct.len() as u32;
    let mut raw = RawMetrics::new(STORAGE);
    for (r, scale) in scales.iter().enumerate() {
        for m in 0..base.raw.metric_count() as u32 {
            let desc = base.raw.desc(MetricId(m));
            let id = raw.add_metric(MetricDesc::new(
                &format!("{}@{r:03}", desc.name),
                &desc.unit,
                desc.period,
            ));
            let costs: Vec<(NodeId, f64)> = (0..n_nodes)
                .filter_map(|n| {
                    let v = base.raw.direct(MetricId(m), NodeId(n));
                    (v != 0.0).then_some((NodeId(n), v * scale))
                })
                .collect();
            raw.add_costs(id, &costs);
        }
    }
    Experiment::build(base.cct.clone(), raw, STORAGE)
}

/// Eq. 1/2 attribution of one raw metric of an opened experiment.
pub fn attribute_one(exp: &Experiment, m: MetricId) -> Attribution {
    attribute(&exp.cct, &exp.raw, m, exp.storage())
}

/// Sequential correlation: `add` per profile, then `finish`.
pub fn correlate(
    structure: &Structure,
    periods: [u64; Counter::COUNT],
    profiles: &[RawProfile],
) -> Experiment {
    let mut correlator = Correlator::new(structure, periods);
    for p in profiles {
        correlator.add(p);
    }
    correlator.finish(STORAGE)
}

/// The sharded correlator on the same input (automatic thread count).
pub fn correlate_parallel(
    structure: &Structure,
    periods: [u64; Counter::COUNT],
    profiles: &[RawProfile],
) -> Experiment {
    ParallelCorrelator::new(structure, periods)
        .correlate(profiles, STORAGE)
        .0
}
