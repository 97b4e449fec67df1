//! Convenience driver for the full measurement-to-presentation pipeline:
//! program → binary → simulated execution → structure recovery →
//! correlation → attributed experiment.

use callpath_core::prelude::Experiment;
use callpath_prof::correlate;
use callpath_profiler::{execute, lower, ExecConfig, ExecResult, Program};
use callpath_structure::recover;

/// Everything the pipeline produced, for tests and benches that need the
/// intermediate artifacts too.
pub struct PipelineOutput {
    /// The lowered binary image.
    pub binary: callpath_profiler::Binary,
    /// Recovered static structure.
    pub structure: callpath_structure::Structure,
    /// Execution result (profile, ground truth, barrier arrivals).
    pub exec: ExecResult,
    /// The attributed experiment.
    pub experiment: Experiment,
}

/// Run the full pipeline on `program` under `config`.
pub fn run(program: &Program, config: &ExecConfig) -> PipelineOutput {
    let binary = lower(program);
    let exec = execute(&binary, config).expect("simulated execution failed");
    let structure = recover(&binary).expect("structure recovery failed");
    let experiment = correlate(&structure, &exec.profile, config.periods);
    PipelineOutput {
        binary,
        structure,
        exec,
        experiment,
    }
}

/// Run the pipeline and return only the experiment.
pub fn build_experiment(program: &Program, config: &ExecConfig) -> Experiment {
    run(program, config).experiment
}

#[cfg(test)]
mod tests {
    use super::*;
    use callpath_profiler::{Costs, Counter, Op, ProgramBuilder};

    #[test]
    fn pipeline_round_trips_total_cost() {
        let mut b = ProgramBuilder::new("t");
        let f = b.file("t.c");
        let main = b.declare("main", f, 1);
        b.body(main, vec![Op::work(2, Costs::cycles(100_000))]);
        b.entry(main);
        let cfg = ExecConfig {
            jitter_seed: None,
            ..ExecConfig::single(Counter::Cycles, 100)
        };
        let out = run(&b.build(), &cfg);
        let incl = out
            .experiment
            .inclusive_col(callpath_core::prelude::MetricId(0));
        assert_eq!(
            out.experiment
                .columns
                .get(incl, out.experiment.cct.root().0),
            100_000.0
        );
        assert_eq!(out.exec.totals[Counter::Cycles], 100_000);
    }
}
