//! The `.cpens` ensemble container: one union supergraph CCT over N
//! runs, cross-run statistic columns, and every run's own costs — all
//! in a single file the lazy reader opens in milliseconds (DESIGN.md
//! §15).
//!
//! A `.cpens` file **is** a valid v2.1 database: its name tables and
//! topology describe the union CCT, and its metrics are the cross-run
//! statistics, metric-major — for each base metric, one metric per
//! entry of [`STAT_NAMES`] (`"cycles mean"`, `"cycles min"`, ...). A
//! statistic is of each run's *attributed* values, so it is not the
//! attribution of anything: both of its columns, `"cycles max (I)"` and
//! `"cycles max (E)"`, are stored as they are shown, one block each,
//! and the `SEC_ATTRIBUTED` marker section tells the lazy open to read
//! them into their slots instead of running the attribution kernel.
//! Both descriptors of a statistic carry its aggregate (the percent
//! base): the inclusive column's value at the root. A statistic has no
//! direct costs, so its raw column is empty; the eager decode
//! ([`crate::bin2::read`]) refuses the file, since a model of direct
//! costs cannot hold it. `callpath-view` and `callpath-serve` open an
//! ensemble through [`crate::open_path`], topology-only, and fault
//! exactly the stat columns a sorted view needs.
//!
//! On top of that base the container carries sections a plain v2.1
//! reader skips by id (section ids are a namespace, not positions —
//! see [`crate::toc`]):
//!
//! * [`SEC_ENSEMBLE`] — the **directory**: base metric names, then per
//!   run its label, content fingerprint, and per-metric `(nnz, total)`
//!   summary. Small and always resident; outlier scoring needs nothing
//!   else.
//! * One cost block per `(run, metric)` pair at id `RUN_BLOCK_BASE +
//!   run * n_metrics + metric`, in the standard v2.1 block encoding
//!   over union node ids. [`open_with_runs`] grafts any selection of
//!   them onto the experiment as ordinary lazy columns (named
//!   `"metric@label"`), so per-run drill-down faults only the runs the
//!   user asks for — never all N.
//!
//! Integrity is inherited: the TOC tiles and checksums every section,
//! run blocks included, so [`crate::verify_container`] covers `.cpens`
//! truncation and bit flips with no ensemble-specific code.

use crate::bin::{get_f64, get_string, get_varint, put_f64, put_string, put_varint};
use crate::bin2::{self, MetricInfo};
use crate::image::FileImage;
use crate::lazy::open_image_with;
use crate::model::{topology_parts, DbError, DbMetric, DbModel};
use crate::toc::{Toc, TocBuilder, SEC_ATTRIBUTED, SEC_ENSEMBLE, SEC_METRICS};
use callpath_core::prelude::*;
use std::path::Path;
use std::sync::Arc;

/// First section id of the per-run cost blocks: run `r`'s block for
/// base metric `m` has id `RUN_BLOCK_BASE + r * n_metrics + m`. Far
/// above any [`crate::toc::SEC_BLOCK_BASE`] stat column id in
/// practice, and collisions are checked at write time regardless.
pub(crate) const RUN_BLOCK_BASE: u32 = 1 << 20;

/// The cross-run statistics stored per base metric, in column order.
/// The stat metrics of the base database are metric-major: base metric
/// `m`'s statistic `s` is metric `m * STAT_NAMES.len() + s`.
pub const STAT_NAMES: [&str; 4] = ["mean", "min", "max", "stddev"];

/// Hostile-input bounds for the directory decoder.
const MAX_RUNS: u64 = 1 << 20;
const MAX_METRICS: u64 = 1 << 12;

/// One run's row in the ensemble directory.
#[derive(Debug, Clone, PartialEq)]
pub struct RunEntry {
    /// Display label (source file name, rank, ...). Need not be unique.
    pub label: String,
    /// 64-bit fingerprint of the run's content (topology with names
    /// resolved to strings, metric descriptors, cost bits; label, intern
    /// order and unreferenced names excluded), fixed by the builder:
    /// `callpath_ensemble::fingerprint`, a word-wise mixer over per-name
    /// string hashes.
    pub fingerprint: u64,
    /// Per base metric: `(nnz, total direct cost)` of this run's block
    /// — enough for outlier scoring without faulting any block.
    pub stats: Vec<(u64, f64)>,
}

/// The decoded [`SEC_ENSEMBLE`] directory.
#[derive(Debug, Clone, PartialEq)]
pub struct Directory {
    /// Base metric names (`"cycles"`, not `"cycles mean"`), index = m.
    pub metric_names: Vec<String>,
    /// One entry per run, in the builder's canonical order (index = r).
    pub runs: Vec<RunEntry>,
}

/// One run's contribution to a `.cpens` file, already remapped into
/// union node ids by the ensemble builder.
#[derive(Debug, Clone)]
pub struct EnsembleRun {
    /// Display label.
    pub label: String,
    /// Content fingerprint, written into the run's directory record
    /// as is (see [`RunEntry::fingerprint`] for what it covers).
    pub fingerprint: u64,
    /// Per base metric: sparse `(union node, value)`, ascending by node.
    pub costs: Vec<Vec<(u32, f64)>>,
}

/// An opened ensemble: the lazily opened stats experiment (plus any
/// grafted per-run columns) and the always-resident directory.
pub struct Ensemble {
    /// The union-CCT experiment. Columns `0..metrics*8` are the stat
    /// columns' (I)/(E) pairs; drill-down columns follow.
    pub exp: Experiment,
    /// The decoded directory.
    pub dir: Directory,
}

fn run_block_section(r: u64, m: u64, n_metrics: u64) -> Result<u32, DbError> {
    let id = (RUN_BLOCK_BASE as u64)
        .checked_add(
            r.checked_mul(n_metrics)
                .and_then(|x| x.checked_add(m))
                .ok_or_else(err)?,
        )
        .ok_or_else(err)?;
    return u32::try_from(id).map_err(|_| err());
    fn err() -> DbError {
        DbError::new("run block section id overflow")
    }
}

/// Encode a `.cpens` container: the union CCT, `metric_names.len() *
/// STAT_NAMES.len()` statistics as the base database's metrics, stored
/// attributed, the directory, and one block per `(run, metric)`.
///
/// `stat_metrics` holds each statistic's inclusive column, then its
/// exclusive one, under the statistic's name, metric-major
/// ([`STAT_NAMES`] order within each base metric), and every run must
/// carry `metric_names.len()` cost lists — builder invariants, checked
/// by assertion.
pub fn write_cpens(
    cct: &Cct,
    stat_metrics: Vec<DbMetric>,
    metric_names: &[String],
    runs: &[EnsembleRun],
) -> Vec<u8> {
    assert_eq!(
        stat_metrics.len(),
        metric_names.len() * STAT_NAMES.len() * 2,
        "two stat columns per (metric, statistic)"
    );
    let (procs, files, modules, nodes) = topology_parts(cct);
    let base = DbModel {
        procs,
        files,
        modules,
        nodes,
        metrics: stat_metrics,
        derived: Vec::new(),
    };
    let mut b = TocBuilder::new_aligned();
    bin2::add_v21_sections(&mut b, &base, true);

    let mut dir = Vec::new();
    put_varint(&mut dir, metric_names.len() as u64);
    for name in metric_names {
        put_string(&mut dir, name);
    }
    put_varint(&mut dir, runs.len() as u64);
    for r in runs {
        assert_eq!(
            r.costs.len(),
            metric_names.len(),
            "one cost list per metric"
        );
        put_string(&mut dir, &r.label);
        dir.extend_from_slice(&r.fingerprint.to_le_bytes());
        for costs in &r.costs {
            put_varint(&mut dir, costs.len() as u64);
            put_f64(&mut dir, costs.iter().map(|&(_, v)| v).sum());
        }
    }
    b.add(SEC_ENSEMBLE, dir);

    let nm = metric_names.len() as u64;
    for (ri, r) in runs.iter().enumerate() {
        for (mi, costs) in r.costs.iter().enumerate() {
            let sec =
                run_block_section(ri as u64, mi as u64, nm).expect("section id space exceeded");
            b.add(sec, bin2::encode_block_v21(costs));
        }
    }
    b.finish()
}

/// Decode and bound-check a directory payload.
fn parse_directory(payload: &[u8]) -> Result<Directory, DbError> {
    let mut buf = payload;
    let nm = get_varint(&mut buf)?;
    if nm == 0 || nm > MAX_METRICS {
        return Err(DbError::new(format!(
            "ensemble metric count {nm} out of range"
        )));
    }
    let metric_names = (0..nm)
        .map(|_| get_string(&mut buf))
        .collect::<Result<Vec<_>, _>>()?;
    let nr = get_varint(&mut buf)?;
    if nr == 0 || nr > MAX_RUNS {
        return Err(DbError::new(format!(
            "ensemble run count {nr} out of range"
        )));
    }
    // Every (run, metric) block must have a representable section id.
    run_block_section(nr - 1, nm - 1, nm)?;
    let mut runs = Vec::with_capacity(nr as usize);
    for _ in 0..nr {
        let label = get_string(&mut buf)?;
        if buf.len() < 8 {
            return Err(DbError::new("truncated ensemble directory"));
        }
        let fingerprint = u64::from_le_bytes(buf[..8].try_into().unwrap());
        buf = &buf[8..];
        let mut stats = Vec::with_capacity(nm as usize);
        for _ in 0..nm {
            let nnz = get_varint(&mut buf)?;
            if nnz > u32::MAX as u64 {
                return Err(DbError::new(format!("run block nnz {nnz} out of range")));
            }
            let total = get_f64(&mut buf)?;
            stats.push((nnz, total));
        }
        runs.push(RunEntry {
            label,
            fingerprint,
            stats,
        });
    }
    bin2::expect_consumed(buf, "ensemble directory")?;
    Ok(Directory { metric_names, runs })
}

/// Decode just the directory of a `.cpens` byte image (checksum
/// verified). The resident server uses this for outlier queries that
/// never need the experiment at all.
pub fn read_directory(data: &[u8]) -> Result<Directory, DbError> {
    let toc = Toc::parse(data)?;
    parse_directory(toc.section(data, SEC_ENSEMBLE)?)
}

/// Open a `.cpens` file topology-only: stat columns stay on disk until
/// a view faults them, run blocks are never touched.
pub fn open(path: &Path) -> Result<Ensemble, DbError> {
    open_with_runs(path, &[])
}

/// Open a `.cpens` file with per-run drill-down columns appended: each
/// `(run, base metric)` selection grafts that run's cost block onto
/// the experiment as a lazy metric named `"metric@label"`, after the
/// stat columns. Only the selected blocks can ever be faulted.
pub fn open_with_runs(path: &Path, selections: &[(u32, u32)]) -> Result<Ensemble, DbError> {
    let image = FileImage::open(path).map_err(|e| DbError::new(format!("open failed: {e}")))?;
    let image = ByteImage::new(Arc::new(image));
    let data = image.bytes();
    let toc = Toc::parse(data)?;
    let dir = parse_directory(toc.section(data, SEC_ENSEMBLE)?)?;
    let infos = bin2::read_metric_infos(toc.section(data, SEC_METRICS)?)?;
    let n_cols = STAT_NAMES.len() * 2;
    if !toc.contains(SEC_ATTRIBUTED) || infos.len() != dir.metric_names.len() * n_cols {
        return Err(DbError::new(format!(
            "ensemble has {} stat columns for {} metrics, expected {n_cols} per metric \
             stored attributed (a .cpens from an older build: build it again)",
            infos.len(),
            dir.metric_names.len(),
        )));
    }
    let nm = dir.metric_names.len() as u64;
    let mut extra = Vec::with_capacity(selections.len());
    for &(r, m) in selections {
        let run = dir
            .runs
            .get(r as usize)
            .ok_or_else(|| DbError::new(format!("no run {r} in this ensemble")))?;
        let name = dir
            .metric_names
            .get(m as usize)
            .ok_or_else(|| DbError::new(format!("no metric {m} in this ensemble")))?;
        let (nnz, total) = run.stats[m as usize];
        // Unit and period are not repeated in the directory; the
        // metric's stat columns carry them.
        let stat0 = &infos[m as usize * n_cols];
        let info = MetricInfo {
            name: format!("{name}@{}", run.label),
            unit: stat0.unit.clone(),
            period: stat0.period,
            nnz,
            total,
        };
        extra.push((info, run_block_section(r as u64, m as u64, nm)?));
    }
    let (exp, _) = open_image_with(image, extra)?;
    Ok(Ensemble { exp, dir })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny two-metric, three-run ensemble over a hand-built union
    /// CCT: root → main → {fast, slow}.
    fn sample() -> (Cct, Vec<DbMetric>, Vec<String>, Vec<EnsembleRun>) {
        let mut names = NameTable::new();
        let file = names.file("a.c");
        let module = names.module("a");
        let procs: Vec<ProcId> = ["main", "fast", "slow"]
            .iter()
            .map(|p| names.proc(p))
            .collect();
        let mut cct = Cct::new(names);
        let root = cct.root();
        let main = cct.add_child(
            root,
            ScopeKind::Frame {
                proc: procs[0],
                module,
                def: SourceLoc::new(file, 1),
                call_site: None,
            },
        );
        for (i, &p) in procs[1..].iter().enumerate() {
            cct.add_child(
                main,
                ScopeKind::Frame {
                    proc: p,
                    module,
                    def: SourceLoc::new(file, 10 * (i as u32 + 1)),
                    call_site: Some(SourceLoc::new(file, 2 + i as u32)),
                },
            );
        }
        let metric_names = vec!["cycles".to_string(), "insns".to_string()];
        let runs: Vec<EnsembleRun> = (0..3u64)
            .map(|r| EnsembleRun {
                label: format!("run{r}"),
                fingerprint: 0x1000 + r,
                costs: vec![vec![(2, 10.0 * (r + 1) as f64), (3, 5.0)], vec![(2, 1.0)]],
            })
            .collect();
        // Stats here are hand-rolled placeholders, one (I, E) pair each;
        // the builder crate computes real ones. Inclusive values at the
        // root and `main`, exclusive ones at the leaves.
        let stat = |name: &str, root: f64, leaves: [f64; 2]| {
            let leaves = [(2, leaves[0]), (3, leaves[1])].into_iter();
            let exclusive: Vec<(u32, f64)> = leaves.filter(|e| e.1 != 0.0).collect();
            let inclusive = [(0, root), (1, root)].into_iter().chain(exclusive.clone());
            [inclusive.collect(), exclusive].map(|costs| DbMetric {
                name: name.into(),
                unit: "ev".into(),
                period: 1.0,
                costs,
            })
        };
        let stats = [
            stat("cycles mean", 25.0, [20.0, 5.0]),
            stat("cycles min", 15.0, [10.0, 5.0]),
            stat("cycles max", 35.0, [30.0, 5.0]),
            stat("cycles stddev", 8.16496580927726, [8.16496580927726, 0.0]),
            stat("insns mean", 1.0, [1.0, 0.0]),
            stat("insns min", 1.0, [1.0, 0.0]),
            stat("insns max", 1.0, [1.0, 0.0]),
            stat("insns stddev", 0.0, [0.0, 0.0]),
        ]
        .into_iter()
        .flatten()
        .collect();
        (cct, stats, metric_names, runs)
    }

    fn write_sample_to(path: &std::path::Path) -> Vec<u8> {
        let (cct, stats, metric_names, runs) = sample();
        let bytes = write_cpens(&cct, stats, &metric_names, &runs);
        std::fs::write(path, &bytes).unwrap();
        bytes
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cpens-{}-{name}", std::process::id()))
    }

    #[test]
    fn cpens_is_a_valid_v21_database_with_stat_columns() {
        let (cct, stats, metric_names, runs) = sample();
        let bytes = write_cpens(&cct, stats, &metric_names, &runs);
        crate::verify_container(&bytes).unwrap();
        // A plain v2.1 lazy open sees only the stat columns, as stored.
        let exp = crate::open_lazy(bytes.clone()).unwrap();
        assert_eq!(exp.cct.len(), cct.len());
        assert_eq!(exp.raw.metric_count(), 8);
        assert_eq!(exp.raw.desc(MetricId(0)).name, "cycles mean");
        let max = MetricId(2);
        assert_eq!(exp.inclusive(max, exp.cct.root()), 35.0);
        assert_eq!(exp.inclusive(max, NodeId(1)), 35.0, "not re-attributed");
        assert_eq!(exp.exclusive(max, NodeId(2)), 30.0);
        // The percent base is the root value, not the stored entries' sum.
        assert_eq!(exp.aggregates()[exp.exclusive_col(max).index()], 35.0);
        assert_eq!(exp.raw.column(max).nonzero_count(), 0, "no direct costs");
        assert!(crate::bin2::read(&bytes).is_err(), "no model holds it");
    }

    #[test]
    fn directory_round_trips() {
        let (cct, stats, metric_names, runs) = sample();
        let bytes = write_cpens(&cct, stats, &metric_names, &runs);
        let dir = read_directory(&bytes).unwrap();
        assert_eq!(dir.metric_names, metric_names);
        assert_eq!(dir.runs.len(), 3);
        assert_eq!(dir.runs[1].label, "run1");
        assert_eq!(dir.runs[1].fingerprint, 0x1001);
        assert_eq!(dir.runs[1].stats, vec![(2, 25.0), (1, 1.0)]);
    }

    #[test]
    fn open_grafts_selected_run_columns_only() {
        let path = tmp("graft.cpens");
        write_sample_to(&path);
        let ens = open_with_runs(&path, &[(2, 0)]).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(ens.exp.raw.metric_count(), 9);
        let m = MetricId(8);
        assert_eq!(ens.exp.raw.desc(m).name, "cycles@run2");
        // run2's metric-0 costs: 30 at node 2, 5 at node 3.
        assert_eq!(ens.exp.raw.column(m).get(2), 30.0);
        assert_eq!(ens.exp.raw.column(m).get(3), 5.0);
        assert_eq!(ens.exp.inclusive(m, ens.exp.cct.root()), 35.0);
    }

    #[test]
    fn topology_only_open_faults_nothing() {
        let path = tmp("cold.cpens");
        write_sample_to(&path);
        let ens = open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(ens.exp.columns.materialized_columns(), 0);
        assert_eq!(ens.exp.raw.materialized_metrics(), 0);
        assert_eq!(ens.dir.runs.len(), 3);
    }

    #[test]
    fn out_of_range_selections_are_rejected() {
        let path = tmp("range.cpens");
        write_sample_to(&path);
        assert!(open_with_runs(&path, &[(3, 0)]).is_err(), "no run 3");
        assert!(open_with_runs(&path, &[(0, 2)]).is_err(), "no metric 2");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_truncation_and_bit_flip_is_rejected() {
        let (cct, stats, metric_names, runs) = sample();
        let bytes = write_cpens(&cct, stats, &metric_names, &runs);
        for len in 0..bytes.len() {
            assert!(
                crate::verify_container(&bytes[..len]).is_err(),
                "prefix of {len} bytes"
            );
        }
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(
                crate::verify_container(&bad).is_err(),
                "flip at byte {i} verified successfully"
            );
        }
    }

    #[test]
    fn hostile_directory_counts_are_bounded() {
        let (cct, stats, metric_names, runs) = sample();
        let bytes = write_cpens(&cct, stats, &metric_names, &runs);
        let toc = Toc::parse(&bytes).unwrap();
        let payload = toc.section(&bytes, SEC_ENSEMBLE).unwrap();
        // Patch the metric count varint to an absurd value: the parser
        // must fail on the bound, not allocate.
        let mut huge = Vec::new();
        put_varint(&mut huge, u64::MAX);
        huge.extend_from_slice(&payload[1..]);
        assert!(parse_directory(&huge).is_err());
        let mut zero = payload.to_vec();
        zero[0] = 0;
        assert!(parse_directory(&zero).is_err());
    }
}
