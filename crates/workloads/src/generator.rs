//! Random workload generators for the scalability experiments
//! (Section VII): arbitrary-size programs for the full pipeline, and
//! arbitrary-size ready-made experiments for view-construction tests
//! and the benchmark, which don't need the simulator in the loop.

use callpath_core::prelude::*;
use callpath_profiler::{Costs, Op, Program, ProgramBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for random program generation.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// RNG seed (same seed, same program).
    pub seed: u64,
    /// Number of procedures.
    pub n_procs: usize,
    /// Calls per procedure body (to strictly-later procedures, so the call
    /// graph is a DAG and needs no recursion guards).
    pub calls_per_proc: usize,
    /// Probability that a call site sits inside a loop.
    pub loop_probability: f64,
    /// Cycles of work per procedure body.
    pub work_cycles: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            seed: 42,
            n_procs: 100,
            calls_per_proc: 3,
            loop_probability: 0.3,
            work_cycles: 10_000,
        }
    }
}

/// Generate a random layered program: procedure `i` calls only procedures
/// `> i`, keeping the call graph acyclic while producing deep, bushy CCTs.
pub fn random_program(cfg: GenConfig) -> Program {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut b = ProgramBuilder::new("synth");
    let n_files = (cfg.n_procs / 10).max(1);
    let files: Vec<usize> = (0..n_files)
        .map(|i| b.file(&format!("synth_{i}.c")))
        .collect();
    let procs: Vec<usize> = (0..cfg.n_procs)
        .map(|i| {
            let f = files[i % n_files];
            b.declare(&format!("proc_{i:04}"), f, (i as u32) * 100 + 1)
        })
        .collect();
    for i in 0..cfg.n_procs {
        let base_line = (i as u32) * 100 + 2;
        let mut body = vec![Op::work(base_line, Costs::cycles(cfg.work_cycles.max(1)))];
        if i + 1 < cfg.n_procs {
            for k in 0..cfg.calls_per_proc {
                let callee = procs[rng.gen_range(i + 1..cfg.n_procs)];
                let line = base_line + 1 + k as u32;
                let call = Op::call(line, callee);
                if rng.gen_bool(cfg.loop_probability) {
                    body.push(Op::looped(line, rng.gen_range(2..5), vec![call]));
                } else {
                    body.push(call);
                }
            }
        }
        b.body(procs[i], body);
    }
    b.entry(procs[0]);
    b.build()
}

/// Generate a ready-made experiment with approximately `target_nodes` CCT
/// nodes: a random tree of frames with statements carrying random costs.
/// Bypasses the simulator so view tests isolate view construction.
pub fn random_experiment(seed: u64, target_nodes: usize, n_procs: usize) -> Experiment {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut names = NameTable::new();
    let module = names.module("synth");
    let files: Vec<FileId> = (0..(n_procs / 8).max(1))
        .map(|i| names.file(&format!("synth_{i}.c")))
        .collect();
    let procs: Vec<ProcId> = (0..n_procs)
        .map(|i| names.proc(&format!("proc_{i:04}")))
        .collect();
    let proc_file: Vec<FileId> = (0..n_procs).map(|i| files[i % files.len()]).collect();

    let mut cct = Cct::new(names);
    let root = cct.root();
    let main = cct.add_child(
        root,
        ScopeKind::Frame {
            proc: procs[0],
            module,
            def: SourceLoc::new(proc_file[0], 1),
            call_site: None,
        },
    );
    let mut frames = vec![main];
    let mut raw = RawMetrics::new(StorageKind::Csr);
    let cyc = raw.add_metric(MetricDesc::new("cycles", "cycles", 1.0));

    while cct.len() < target_nodes {
        // Pick a random existing frame and grow under it: either a callee
        // frame (possibly through a loop) or a costed statement.
        let parent = frames[rng.gen_range(0..frames.len())];
        if rng.gen_bool(0.6) {
            let p = rng.gen_range(0..n_procs);
            let anchor = if rng.gen_bool(0.25) {
                cct.add_child(
                    parent,
                    ScopeKind::Loop {
                        header: SourceLoc::new(proc_file[p], rng.gen_range(2..1000)),
                    },
                )
            } else {
                parent
            };
            let frame = cct.add_child(
                anchor,
                ScopeKind::Frame {
                    proc: procs[p],
                    module,
                    def: SourceLoc::new(proc_file[p], 1),
                    call_site: Some(SourceLoc::new(proc_file[p], rng.gen_range(2..1000))),
                },
            );
            frames.push(frame);
        } else {
            let stmt = cct.add_child(
                parent,
                ScopeKind::Stmt {
                    loc: SourceLoc::new(
                        files[rng.gen_range(0..files.len())],
                        rng.gen_range(2..1000),
                    ),
                },
            );
            raw.add_cost(cyc, stmt, rng.gen_range(1..1000) as f64);
        }
    }
    Experiment::build(cct, raw, StorageKind::Csr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use callpath_profiler::{execute, lower, ExecConfig};

    #[test]
    fn random_program_is_valid_and_runs() {
        let p = random_program(GenConfig {
            n_procs: 30,
            ..Default::default()
        });
        assert!(p.validate().is_ok());
        let bin = lower(&p);
        let res = execute(&bin, &ExecConfig::default()).unwrap();
        assert!(res.totals[callpath_profiler::Counter::Cycles] > 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = random_program(GenConfig::default());
        let b = random_program(GenConfig::default());
        assert_eq!(a, b);
        let e1 = random_experiment(7, 500, 20);
        let e2 = random_experiment(7, 500, 20);
        assert_eq!(e1.cct.len(), e2.cct.len());
    }

    #[test]
    fn random_experiment_hits_target_size() {
        let e = random_experiment(1, 2000, 50);
        assert!(e.cct.len() >= 2000);
        assert!(e.cct.len() < 2100, "overshoot is bounded");
        assert!(e.cct.validate().is_ok());
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_experiment(1, 300, 20);
        let b = random_experiment(2, 300, 20);
        // Extremely unlikely to coincide: compare total cost.
        let ca = a.aggregate(ColumnId(0));
        let cb = b.aggregate(ColumnId(0));
        assert_ne!(ca, cb);
    }
}
