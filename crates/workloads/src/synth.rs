//! Million-node synthetic databases for the zero-copy scaling bench.
//!
//! The other generators in this crate produce [`Experiment`]s — fine at
//! view-bench sizes, but building (and attributing) a 10⁶-node,
//! 10³-column experiment in memory just to serialize it again is
//! exactly the cost the lazy reader exists to avoid. This generator
//! therefore emits a [`DbModel`] directly: node records and sparse cost
//! lists, ready for `callpath_expdb::bin2::write_v21`, with nothing
//! attributed and nothing interned twice.
//!
//! Shapes are deterministic in the seed (a splitmix64 stream, so the
//! generator needs no RNG state beyond one `u64`) and loosely modeled
//! on large HPC profiles: a few load modules, thousands of procedures,
//! call chains tens of frames deep with loops and statements at the
//! fringe, and metric columns that each touch a sparse, ascending
//! subset of the tree.
//!
//! [`Experiment`]: callpath_core::prelude::Experiment

use callpath_core::prelude::{FileId, LoadModuleId, ProcId, ScopeKind, SourceLoc};
use callpath_expdb::model::{DbMetric, DbModel, DbNode};

/// Parameters for [`synth_model`]. All sizes are exact, not targets.
#[derive(Debug, Clone, Copy)]
pub struct SynthConfig {
    /// Seed for the deterministic stream (same seed, same model).
    pub seed: u64,
    /// Non-root CCT nodes.
    pub n_nodes: usize,
    /// Metric columns.
    pub n_metrics: usize,
    /// Non-zero entries per metric column (capped at `n_nodes`).
    pub nnz_per_metric: usize,
    /// Procedure-name table size.
    pub n_procs: usize,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            seed: 0x5eed,
            n_nodes: 100_000,
            n_metrics: 64,
            nnz_per_metric: 256,
            n_procs: 500,
        }
    }
}

impl SynthConfig {
    /// The scale the zero-copy bench runs at: a ~10⁶-node CCT with
    /// 1024 sparse columns — far past what an eager open can absorb.
    pub fn million() -> Self {
        SynthConfig {
            seed: 0x5eed,
            n_nodes: 1_000_000,
            n_metrics: 1024,
            nnz_per_metric: 1024,
            n_procs: 2000,
        }
    }
}

/// splitmix64: tiny, statistically fine for shaping test data, and
/// stateless per call — the stream is a pure function of (seed, i).
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Build a synthetic database model of the exact configured size.
pub fn synth_model(cfg: &SynthConfig) -> DbModel {
    let n_procs = cfg.n_procs.max(1);
    let n_files = (n_procs / 8).max(1);
    let procs: Vec<String> = (0..n_procs).map(|i| format!("proc_{i:05}")).collect();
    let files: Vec<String> = (0..n_files).map(|i| format!("synth_{i:03}.f90")).collect();
    let modules = vec![
        "app".to_string(),
        "libmath.so".to_string(),
        "libmpi.so".to_string(),
        "libc.so".to_string(),
    ];

    // Nodes, parents strictly preceding children. Each node attaches to
    // a recent ancestor (geometric-ish window keeps chains tens deep)
    // and is a frame, loop, or statement by a fixed mix.
    let mut nodes = Vec::with_capacity(cfg.n_nodes);
    // framed[id]: does node `id` have a frame (or inlined frame) on its
    // path to the root? Loops and statements are only legal under one.
    let mut framed = vec![false; cfg.n_nodes + 1];
    for i in 0..cfg.n_nodes {
        let id = i as u32 + 1;
        let r = mix(cfg.seed, i as u64);
        // Window back over up to 64 predecessors; skewing the window
        // toward small distances yields deep call chains.
        let window = (id).min(1 + (r % 64) as u32 * ((r >> 8) & 0x3) as u32 / 3);
        let parent = id - 1 - (r >> 32) as u32 % window.max(1);
        let p = (r >> 16) as usize % n_procs;
        let f = p % n_files;
        let line = 2 + (r >> 48) as u32 % 997;
        let pick = if framed[parent as usize] { r % 10 } else { 0 };
        let (f, def_line) = (FileId(f as u32), 1 + p as u32 % 100);
        let scope = match pick {
            0..=3 => ScopeKind::Frame {
                proc: ProcId(p as u32),
                module: LoadModuleId((r >> 24) as u32 % modules.len() as u32),
                def: SourceLoc::new(f, def_line),
                call_site: (r & 0x400 == 0).then(|| SourceLoc::new(f, line)),
            },
            4 => ScopeKind::InlinedFrame {
                proc: ProcId(p as u32),
                def: SourceLoc::new(f, def_line),
                call_site: SourceLoc::new(f, line),
            },
            5 => ScopeKind::Loop {
                header: SourceLoc::new(f, line),
            },
            _ => ScopeKind::Stmt {
                loc: SourceLoc::new(f, line),
            },
        };
        framed[id as usize] = framed[parent as usize] || pick <= 4;
        nodes.push(DbNode { parent, scope });
    }

    let n_total = cfg.n_nodes as u64 + 1;
    let nnz = cfg.nnz_per_metric.min(cfg.n_nodes).max(1) as u64;
    let metrics = (0..cfg.n_metrics)
        .map(|m| {
            // Ascending distinct node ids: walk the id space in nnz
            // strides with per-metric jitter inside each stride.
            let stride = (n_total - 1) / nnz;
            let costs: Vec<(u32, f64)> = (0..nnz)
                .map(|k| {
                    let r = mix(cfg.seed ^ (m as u64).rotate_left(17), k);
                    let lo = 1 + k * stride;
                    let node = if stride > 1 { lo + r % stride } else { lo };
                    let v = 1.0 + (r >> 11) as f64 / (1u64 << 53) as f64 * 999.0;
                    (node as u32, (v * 64.0).round() / 64.0)
                })
                .collect();
            DbMetric {
                name: format!("PAPI_SYNTH_{m:04}"),
                unit: "events".into(),
                period: 1.0,
                costs,
            }
        })
        .collect();

    DbModel {
        procs,
        files,
        modules,
        nodes,
        metrics,
        derived: vec![("waste".into(), "$0 * 2 - $1".into())],
    }
}

/// Parameters for [`ensemble_run`]: a family of related synthetic runs
/// sharing one base topology, for the ensemble-supergraph bench.
#[derive(Debug, Clone, Copy)]
pub struct EnsembleConfig {
    /// Seed shared by the whole family.
    pub seed: u64,
    /// Runs in the family (bounds the valid `r` of [`ensemble_run`]).
    pub n_runs: usize,
    /// Non-root nodes of the shared base topology (identical in every
    /// run — this is what the union deduplicates).
    pub base_nodes: usize,
    /// Run-specific tail nodes appended after the base (what makes the
    /// union strictly larger than any single run).
    pub tail_nodes: usize,
    /// Metric columns per run.
    pub n_metrics: usize,
    /// Non-zero entries per metric column.
    pub nnz_per_metric: usize,
    /// Every `outlier_every`-th run has metric 0 inflated 8× so
    /// outlier scoring has designated ground truth; 0 disables.
    pub outlier_every: usize,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        EnsembleConfig {
            seed: 0xe45e,
            n_runs: 1000,
            base_nodes: 5000,
            tail_nodes: 40,
            n_metrics: 2,
            nnz_per_metric: 800,
            outlier_every: 97,
        }
    }
}

/// Whether run `r` is a designated outlier under `cfg`.
pub fn is_outlier_run(cfg: &EnsembleConfig, r: usize) -> bool {
    cfg.outlier_every > 0 && r % cfg.outlier_every == cfg.outlier_every - 1
}

/// Build run `r` of a synthetic ensemble family: the shared base
/// topology (a pure function of `cfg.seed`), a run-specific tail of
/// frame chains, and per-run jittered costs. Deterministic in
/// `(cfg, r)`.
pub fn ensemble_run(cfg: &EnsembleConfig, r: usize) -> DbModel {
    let mut model = synth_model(&SynthConfig {
        seed: cfg.seed,
        n_nodes: cfg.base_nodes,
        n_metrics: 0,
        nnz_per_metric: 0,
        n_procs: 200,
    });
    model.derived.clear();

    // Run-specific tail: short chains of frames hung off random base
    // nodes. Frames are legal anywhere, so no framed-path bookkeeping.
    let run_seed = cfg.seed ^ (r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let n_procs = model.procs.len() as u32;
    let n_files = model.files.len() as u32;
    for i in 0..cfg.tail_nodes {
        let id = (cfg.base_nodes + i) as u32 + 1;
        let t = mix(run_seed, i as u64);
        let parent = if i > 0 && !t.is_multiple_of(4) {
            id - 1
        } else {
            (t >> 32) as u32 % (cfg.base_nodes as u32 + 1)
        };
        let p = (t >> 8) as u32 % n_procs;
        model.nodes.push(DbNode {
            parent,
            scope: ScopeKind::Frame {
                proc: ProcId(p),
                module: LoadModuleId((t >> 24) as u32 % model.modules.len() as u32),
                def: SourceLoc::new(FileId(p % n_files), 1 + p % 100),
                call_site: Some(SourceLoc::new(
                    FileId(p % n_files),
                    2 + (t >> 48) as u32 % 997,
                )),
            },
        });
    }

    let n_total = model.nodes.len() as u64 + 1;
    let nnz = cfg.nnz_per_metric.min(model.nodes.len()).max(1) as u64;
    let inflate = if is_outlier_run(cfg, r) { 8.0 } else { 1.0 };
    model.metrics = (0..cfg.n_metrics)
        .map(|m| {
            let stride = (n_total - 1) / nnz;
            let costs: Vec<(u32, f64)> = (0..nnz)
                .map(|k| {
                    let t = mix(run_seed ^ (m as u64).rotate_left(17), k);
                    let lo = 1 + k * stride;
                    let node = if stride > 1 { lo + t % stride } else { lo };
                    let v = 1.0 + (t >> 11) as f64 / (1u64 << 53) as f64 * 999.0;
                    let v = if m == 0 { v * inflate } else { v };
                    (node as u32, (v * 64.0).round() / 64.0)
                })
                .collect();
            DbMetric {
                name: format!("PAPI_ENS_{m:02}"),
                unit: "events".into(),
                period: 1.0,
                costs,
            }
        })
        .collect();
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_is_deterministic_and_well_formed() {
        let cfg = SynthConfig {
            n_nodes: 5000,
            n_metrics: 8,
            nnz_per_metric: 64,
            ..Default::default()
        };
        let a = synth_model(&cfg);
        let b = synth_model(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.nodes.len(), 5000);
        assert_eq!(a.metrics.len(), 8);
        for (i, n) in a.nodes.iter().enumerate() {
            assert!(
                n.parent < i as u32 + 1,
                "node {}: parent after child",
                i + 1
            );
        }
        for m in &a.metrics {
            assert_eq!(m.costs.len(), 64);
            assert!(m.costs.windows(2).all(|w| w[0].0 < w[1].0), "{}", m.name);
            assert!(m.costs.last().unwrap().0 <= a.nodes.len() as u32);
        }
    }

    #[test]
    fn ensemble_runs_share_the_base_and_differ_in_the_tail() {
        let cfg = EnsembleConfig {
            n_runs: 4,
            base_nodes: 300,
            tail_nodes: 10,
            nnz_per_metric: 50,
            outlier_every: 3,
            ..Default::default()
        };
        let a = ensemble_run(&cfg, 0);
        let b = ensemble_run(&cfg, 1);
        assert_eq!(ensemble_run(&cfg, 0), a, "deterministic");
        assert_eq!(a.nodes[..300], b.nodes[..300], "shared base");
        assert_ne!(a.nodes[300..], b.nodes[300..], "distinct tails");
        assert_eq!(a.nodes.len(), 310);
        for (i, n) in a.nodes.iter().enumerate() {
            assert!(n.parent < i as u32 + 1);
        }
        for m in &a.metrics {
            assert!(m.costs.windows(2).all(|w| w[0].0 < w[1].0));
        }
        // Run 2 is the designated outlier (every 3rd): metric 0 is
        // inflated relative to run 0, metric 1 is not.
        assert!(is_outlier_run(&cfg, 2) && !is_outlier_run(&cfg, 0));
        let total = |m: &DbMetric| m.costs.iter().map(|&(_, v)| v).sum::<f64>();
        let c = ensemble_run(&cfg, 2);
        assert!(total(&c.metrics[0]) > 4.0 * total(&a.metrics[0]));
        assert!(total(&c.metrics[1]) < 2.0 * total(&a.metrics[1]));
        // Every run must open as a valid experiment.
        a.into_experiment().unwrap();
        c.into_experiment().unwrap();
    }

    #[test]
    fn synth_model_opens_as_an_experiment() {
        let cfg = SynthConfig {
            n_nodes: 2000,
            n_metrics: 4,
            nnz_per_metric: 128,
            ..Default::default()
        };
        let model = synth_model(&cfg);
        let exp = model.clone().into_experiment().unwrap();
        assert_eq!(exp.cct.len(), 2001);
        // And round-trips through the database format.
        let v21 = callpath_expdb::bin2::write_v21(&model);
        assert_eq!(callpath_expdb::bin2::read(&v21).unwrap(), model);
    }
}
