//! Snapshot and replay of SPMD runs through the experiment database:
//! persist a merged run as a CPDB container, reload it later for
//! re-analysis without re-simulating the ranks.
//!
//! Replay is the canonical *batch* consumer of the format: unlike an
//! interactive viewer session (which faults in the two or three columns
//! it sorts and renders), replay re-derives summaries over **every**
//! metric, so [`replay`] opens lazily and immediately calls
//! `decode_all`, fanning per-column block decode and attribution out
//! as the rank simulation was (`core::pool::chunked_map`).

use crate::spmd::SpmdRun;
use callpath_core::prelude::Experiment;
use callpath_expdb::{decode_all, open_lazy, DbError};

/// Serialize a finished run's merged experiment as a CPDB container
/// (topology, metric descriptors, one cost block per metric,
/// derived definitions — see `callpath-expdb`). Per-rank series data is
/// not part of the database; persist it separately if Fig. 7-style
/// charts must survive the snapshot.
pub fn snapshot(run: &SpmdRun) -> Vec<u8> {
    callpath_expdb::to_binary_v21(&run.experiment)
}

/// Reload a snapshot for batch re-analysis: open the container
/// lazily (topology only), then materialize every metric column across
/// `threads` threads (0 = automatic). The returned experiment is fully
/// resident — summarization, imbalance charts and diffing can hit any
/// column without further decoding.
pub fn replay(bytes: Vec<u8>, threads: usize) -> Result<Experiment, DbError> {
    let exp = open_lazy(bytes)?;
    decode_all(&exp, threads);
    Ok(exp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmd::{run_spmd, SpmdConfig};
    use callpath_profiler::{Counter, ExecConfig};

    #[test]
    fn replayed_run_matches_the_original() {
        let program = callpath_workloads::fig1::program(40);
        let exec = ExecConfig {
            jitter_seed: Some(7),
            ..ExecConfig::single(Counter::Cycles, 97)
        };
        let run = run_spmd(&program, &SpmdConfig::new(vec![1.0, 1.4, 0.8], exec));
        let replayed = replay(snapshot(&run), 0).unwrap();
        let original = &run.experiment;

        assert_eq!(replayed.cct.len(), original.cct.len());
        assert_eq!(
            replayed.raw.materialized_metrics(),
            replayed.raw.metric_count(),
            "replay materializes everything up front"
        );
        for c in original.columns.columns() {
            for n in 0..original.cct.len() as u32 {
                let a = original.columns.get(c, n);
                let b = replayed.columns.get(c, n);
                assert!(
                    (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                    "column {c:?} node {n}: {a} vs {b}"
                );
            }
        }
        // And the snapshot of the replay is byte-identical: the
        // encoding is canonical.
        assert_eq!(callpath_expdb::to_binary_v21(&replayed), snapshot(&run));
    }
}
