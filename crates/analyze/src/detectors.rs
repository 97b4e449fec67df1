//! Canned detectors: pure functions that turn profiles into structured
//! [`Verdict`]s with evidence call paths.
//!
//! Each detector composes primitives the repo already has — per-rank
//! statistics from `parallel::imbalance`, scale-and-difference from
//! `core::diff`, derived waste/efficiency formulas from `core::derived`
//! semantics, ensemble z-scores from the `.cpens` directory — and
//! reduces them to one deterministic, comparison-friendly verdict:
//! a status, a scalar score, the threshold it was judged against, and
//! the call paths (or runs/ranks) that carry the blame. Rendering is
//! byte-stable and pinned by golden tests on the three paper workloads.

use crate::query::path_labels;
use crate::{finite, fmt_num};
use callpath_core::experiment::Experiment;
use callpath_core::hotpath::HotPathConfig;
use callpath_core::jsonval::{obj, Json};
use callpath_core::view::View;
use callpath_core::viewtree::SortDir;
use callpath_expdb::ens::Directory;
use callpath_parallel::imbalance::ImbalanceStats;

/// Outcome of a detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Below the warn threshold.
    Pass,
    /// Crossed the warn threshold.
    Warn,
    /// Crossed the fail threshold.
    Fail,
}

impl Status {
    /// Judge `score` against a warn/fail threshold pair (higher is
    /// worse).
    fn judge(score: f64, warn: f64, fail: f64) -> Status {
        if score >= fail {
            Status::Fail
        } else if score >= warn {
            Status::Warn
        } else {
            Status::Pass
        }
    }

    /// Stable uppercase name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Status::Pass => "PASS",
            Status::Warn => "WARN",
            Status::Fail => "FAIL",
        }
    }
}

/// One piece of evidence: a path (call path, rank, or run label) and
/// named values measured there.
#[derive(Debug, Clone, PartialEq)]
pub struct Evidence {
    /// Call-path labels root-down, or a single rank/run label.
    pub path: Vec<String>,
    /// Named values, in a fixed detector-chosen order.
    pub values: Vec<(String, f64)>,
}

/// A structured detector verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Detector name (stable, kebab-case).
    pub detector: String,
    /// Pass / warn / fail.
    pub status: Status,
    /// The scalar the thresholds judge (higher is worse).
    pub score: f64,
    /// The warn threshold the score was judged against.
    pub threshold: f64,
    /// One-line human summary.
    pub summary: String,
    /// Blame-carrying paths.
    pub evidence: Vec<Evidence>,
}

impl Verdict {
    /// Deterministic human-readable rendering (golden-pinned).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: {} score={} warn_at={}",
            self.detector,
            self.status.as_str(),
            fmt_num(self.score),
            fmt_num(self.threshold)
        );
        let _ = writeln!(out, "  {}", self.summary);
        for e in &self.evidence {
            let _ = writeln!(out, "  - {}", e.path.join(" > "));
            let vals: Vec<String> = e
                .values
                .iter()
                .map(|(k, v)| format!("{k}={}", fmt_num(*v)))
                .collect();
            let _ = writeln!(out, "      {}", vals.join(" "));
        }
        out
    }

    /// Machine-readable form.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("detector", Json::Str(self.detector.clone())),
            ("status", Json::Str(self.status.as_str().to_owned())),
            ("score", Json::Num(finite(self.score))),
            ("threshold", Json::Num(finite(self.threshold))),
            ("summary", Json::Str(self.summary.clone())),
            (
                "evidence",
                Json::Arr(
                    self.evidence
                        .iter()
                        .map(|e| {
                            obj(vec![
                                (
                                    "path",
                                    Json::Arr(e.path.iter().cloned().map(Json::Str).collect()),
                                ),
                                (
                                    "values",
                                    Json::Obj(
                                        e.values
                                            .iter()
                                            .map(|(k, v)| (k.clone(), Json::Num(finite(*v))))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

// ------------------------------------------------------- load imbalance

/// Thresholds for [`load_imbalance`].
#[derive(Debug, Clone, Copy)]
pub struct ImbalanceConfig {
    /// Warn when `max/mean - 1` reaches this.
    pub warn_factor: f64,
    /// Fail when it reaches this.
    pub fail_factor: f64,
    /// How many worst ranks to cite.
    pub top: usize,
}

impl Default for ImbalanceConfig {
    fn default() -> Self {
        ImbalanceConfig {
            warn_factor: 0.15,
            fail_factor: 0.5,
            top: 3,
        }
    }
}

/// Judge a per-rank value series (Fig. 7's scattered totals reduced to
/// scalars): score is the classic imbalance factor `max/mean - 1`.
pub fn load_imbalance(series: &[f64], what: &str, cfg: &ImbalanceConfig) -> Verdict {
    let stats = ImbalanceStats::of(series);
    let score = finite(stats.imbalance_factor);
    let mut evidence = vec![Evidence {
        path: vec![what.to_owned()],
        values: vec![
            ("mean".to_owned(), stats.mean),
            ("min".to_owned(), stats.min),
            ("max".to_owned(), stats.max),
            ("stddev".to_owned(), stats.std_dev),
            ("cov".to_owned(), finite(stats.cov)),
        ],
    }];
    let mut worst: Vec<(usize, f64)> = series.iter().copied().enumerate().collect();
    worst.sort_by(|a, b| SortDir::Descending.cmp_values(a.1, b.1).then(a.0.cmp(&b.0)));
    for (rank, v) in worst.into_iter().take(cfg.top) {
        evidence.push(Evidence {
            path: vec![format!("rank {rank}")],
            values: vec![
                ("value".to_owned(), v),
                (
                    "vs_mean".to_owned(),
                    finite(if stats.mean != 0.0 {
                        v / stats.mean
                    } else {
                        0.0
                    }),
                ),
            ],
        });
    }
    Verdict {
        detector: "load-imbalance".to_owned(),
        status: Status::judge(score, cfg.warn_factor, cfg.fail_factor),
        score,
        threshold: cfg.warn_factor,
        summary: format!(
            "imbalance factor {} over {} ranks of {what} (mean {}, max {})",
            fmt_num(score),
            series.len(),
            fmt_num(stats.mean),
            fmt_num(stats.max)
        ),
        evidence,
    }
}

/// [`load_imbalance`] plus a hot-path evidence entry: the dominant call
/// path of `col_name` in `exp` (typically the mean profile the ranks
/// diverge around), so the verdict points *where* the imbalanced time
/// goes, not just which ranks carry it.
pub fn load_imbalance_with_context(
    series: &[f64],
    what: &str,
    cfg: &ImbalanceConfig,
    exp: &Experiment,
    col_name: &str,
) -> Result<Verdict, String> {
    let col = exp
        .columns
        .find(col_name)
        .ok_or_else(|| format!("unknown column '{col_name}'"))?;
    let mut verdict = load_imbalance(series, what, cfg);
    let mut view = View::calling_context(exp);
    let roots = view.roots();
    if let Some(&start) = roots.first() {
        let path = view.hot_path(start, col, HotPathConfig::default());
        let labels: Vec<String> = path.iter().map(|&n| view.label(n)).collect();
        if let Some(&leaf) = path.last() {
            verdict.evidence.push(Evidence {
                path: labels,
                values: vec![(format!("{col_name} at leaf"), view.value(col, leaf))],
            });
        }
    }
    Ok(verdict)
}

// --------------------------------------------------------- scaling loss

/// Thresholds for [`scaling_loss_verdict`].
#[derive(Debug, Clone, Copy)]
pub struct ScalingConfig {
    /// Factor by which base costs should grow in the peer run (see
    /// [`callpath_core::diff::scaling_loss`]).
    pub expected_scale: f64,
    /// Warn when the lost fraction of the peer run reaches this.
    pub warn_frac: f64,
    /// Fail when it reaches this.
    pub fail_frac: f64,
    /// How many loss-carrying frames to cite.
    pub top: usize,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        ScalingConfig {
            expected_scale: 1.0,
            warn_frac: 0.05,
            fail_frac: 0.25,
            top: 3,
        }
    }
}

/// Scale-and-difference two runs (Section VI-A) and judge the lost
/// fraction: score is `loss@root / peer_total`.
pub fn scaling_loss_verdict(
    base: &Experiment,
    label_base: &str,
    peer: &Experiment,
    label_peer: &str,
    metric: &str,
    cfg: &ScalingConfig,
) -> Result<Verdict, String> {
    let analysis = callpath_core::diff::scaling_loss(
        base,
        label_base,
        peer,
        label_peer,
        metric,
        cfg.expected_scale,
    )?;
    let exp = &analysis.experiment;
    let root = exp.cct.root();
    let peer_total = exp.aggregate(analysis.peer_incl);
    let loss_root = exp.columns.get(analysis.loss_incl, root.0);
    let score = finite(if peer_total > 0.0 {
        loss_root / peer_total
    } else {
        0.0
    });
    let topo = exp.cct.topo();
    let mut frames: Vec<(u32, f64)> = exp
        .cct
        .all_nodes()
        .filter(|&n| topo.is_frame(n))
        .map(|n| (n.0, exp.columns.get(analysis.loss_incl, n.0)))
        .filter(|&(_, v)| v > 0.0)
        .collect();
    frames.sort_by(|a, b| SortDir::Descending.cmp_values(a.1, b.1).then(a.0.cmp(&b.0)));
    let evidence = frames
        .into_iter()
        .take(cfg.top)
        .map(|(n, v)| Evidence {
            path: path_labels(exp, callpath_core::ids::NodeId(n)),
            values: vec![
                ("loss".to_owned(), v),
                (
                    "share".to_owned(),
                    finite(if loss_root != 0.0 { v / loss_root } else { 0.0 }),
                ),
            ],
        })
        .collect();
    Ok(Verdict {
        detector: "scaling-loss".to_owned(),
        status: Status::judge(score, cfg.warn_frac, cfg.fail_frac),
        score,
        threshold: cfg.warn_frac,
        summary: format!(
            "{} of {label_peer} is scaling loss vs {label_base} on {metric} (loss {}, peer total {})",
            fmt_num(score),
            fmt_num(loss_root),
            fmt_num(peer_total)
        ),
        evidence,
    })
}

// -------------------------------------------------------- derived waste

/// Thresholds for [`derived_waste`].
#[derive(Debug, Clone, Copy)]
pub struct WasteConfig {
    /// Machine peak, in flops per cycle.
    pub peak_flops_per_cycle: f64,
    /// Warn when the wasted fraction of peak reaches this.
    pub warn_frac: f64,
    /// Fail when it reaches this.
    pub fail_frac: f64,
    /// How many waste-carrying frames to cite.
    pub top: usize,
}

impl Default for WasteConfig {
    fn default() -> Self {
        WasteConfig {
            peak_flops_per_cycle: 4.0,
            warn_frac: 0.5,
            fail_frac: 0.9,
            top: 3,
        }
    }
}

/// The paper's Section V-D waste/efficiency derived metrics as a
/// verdict: `waste = cycles × peak − flops`, score is the wasted
/// fraction of peak (`1 − flops/(cycles × peak)`). Reads only the four
/// presentation columns it names; `exp` is not mutated.
pub fn derived_waste(
    exp: &Experiment,
    cycles: &str,
    flops: &str,
    cfg: &WasteConfig,
) -> Result<Verdict, String> {
    let ci = exp
        .columns
        .find(&format!("{cycles} (I)"))
        .ok_or_else(|| format!("unknown metric '{cycles}'"))?;
    let fi = exp
        .columns
        .find(&format!("{flops} (I)"))
        .ok_or_else(|| format!("unknown metric '{flops}'"))?;
    let ce = exp
        .columns
        .find(&format!("{cycles} (E)"))
        .ok_or_else(|| format!("unknown metric '{cycles}'"))?;
    let fe = exp
        .columns
        .find(&format!("{flops} (E)"))
        .ok_or_else(|| format!("unknown metric '{flops}'"))?;
    let cyc_total = exp.aggregate(ci);
    let flop_total = exp.aggregate(fi);
    let peak_total = cyc_total * cfg.peak_flops_per_cycle;
    let efficiency = if peak_total > 0.0 {
        flop_total / peak_total
    } else {
        0.0
    };
    let score = finite((1.0 - efficiency).clamp(0.0, 1.0));
    let total_waste = peak_total - flop_total;
    let topo = exp.cct.topo();
    let mut frames: Vec<(u32, f64)> = exp
        .cct
        .all_nodes()
        .filter(|&n| topo.is_frame(n))
        .map(|n| {
            let w = exp.columns.get(ce, n.0) * cfg.peak_flops_per_cycle - exp.columns.get(fe, n.0);
            (n.0, w)
        })
        .filter(|&(_, w)| w > 0.0)
        .collect();
    frames.sort_by(|a, b| SortDir::Descending.cmp_values(a.1, b.1).then(a.0.cmp(&b.0)));
    let evidence = frames
        .into_iter()
        .take(cfg.top)
        .map(|(n, w)| Evidence {
            path: path_labels(exp, callpath_core::ids::NodeId(n)),
            values: vec![
                ("waste".to_owned(), w),
                (
                    "share".to_owned(),
                    finite(if total_waste > 0.0 {
                        w / total_waste
                    } else {
                        0.0
                    }),
                ),
            ],
        })
        .collect();
    Ok(Verdict {
        detector: "derived-waste".to_owned(),
        status: Status::judge(score, cfg.warn_frac, cfg.fail_frac),
        score,
        threshold: cfg.warn_frac,
        summary: format!(
            "{} of peak wasted: {flops} {} vs {cycles} {} at peak {}/cycle",
            fmt_num(score),
            fmt_num(flop_total),
            fmt_num(cyc_total),
            fmt_num(cfg.peak_flops_per_cycle)
        ),
        evidence,
    })
}

// ----------------------------------------------------- ensemble outliers

/// Thresholds for [`ensemble_outliers`].
#[derive(Debug, Clone, Copy)]
pub struct OutlierConfig {
    /// Warn when any run's max z-score reaches this.
    pub z_warn: f64,
    /// Fail when it reaches this.
    pub z_fail: f64,
    /// How many outlier runs to cite.
    pub top: usize,
}

impl Default for OutlierConfig {
    fn default() -> Self {
        OutlierConfig {
            z_warn: 2.0,
            z_fail: 4.0,
            top: 3,
        }
    }
}

/// Judge an ensemble directory by its per-run total z-scores (computed
/// from the directory alone — no run block is ever faulted): score is
/// the worst run's max z.
pub fn ensemble_outliers(dir: &Directory, cfg: &OutlierConfig) -> Verdict {
    let scores = callpath_ensemble::outlier_scores(dir);
    let score = finite(scores.first().map(|&(_, z)| z).unwrap_or(0.0));
    let flagged = scores.iter().filter(|&&(_, z)| z >= cfg.z_warn).count();
    let evidence = scores
        .iter()
        .take(cfg.top)
        .filter(|&&(_, z)| z >= cfg.z_warn)
        .map(|&(r, z)| {
            let run = &dir.runs[r];
            let mut values = vec![("z".to_owned(), z)];
            for (m, name) in dir.metric_names.iter().enumerate() {
                values.push((format!("{name} total"), run.stats[m].1));
            }
            Evidence {
                path: vec![run.label.clone()],
                values,
            }
        })
        .collect();
    Verdict {
        detector: "ensemble-outliers".to_owned(),
        status: Status::judge(score, cfg.z_warn, cfg.z_fail),
        score,
        threshold: cfg.z_warn,
        summary: format!(
            "{flagged} of {} runs exceed z >= {} (worst z {})",
            dir.runs.len(),
            fmt_num(cfg.z_warn),
            fmt_num(score)
        ),
        evidence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use callpath_expdb::ens::RunEntry;

    #[test]
    fn status_judging() {
        assert_eq!(Status::judge(0.0, 0.1, 0.5), Status::Pass);
        assert_eq!(Status::judge(0.1, 0.1, 0.5), Status::Warn);
        assert_eq!(Status::judge(0.7, 0.1, 0.5), Status::Fail);
    }

    #[test]
    fn balanced_series_passes() {
        let v = load_imbalance(
            &[10.0, 10.0, 10.0, 10.0],
            "cycles",
            &ImbalanceConfig::default(),
        );
        assert_eq!(v.status, Status::Pass);
        assert_eq!(v.score, 0.0);
        // One stats entry + top ranks.
        assert!(v.evidence.len() >= 2);
        assert_eq!(v.evidence[0].path, vec!["cycles".to_owned()]);
    }

    #[test]
    fn skewed_series_fails_and_blames_the_slow_rank() {
        let mut series = vec![10.0; 16];
        series[7] = 30.0;
        let v = load_imbalance(&series, "cycles", &ImbalanceConfig::default());
        assert_eq!(v.status, Status::Fail);
        assert_eq!(v.evidence[1].path, vec!["rank 7".to_owned()]);
        let json = v.to_json().to_json();
        assert!(json.contains("\"status\":\"FAIL\""), "{json}");
    }

    #[test]
    fn outlier_directory_verdict() {
        let run = |label: &str, total: f64| RunEntry {
            label: label.to_owned(),
            fingerprint: 0,
            stats: vec![(4, total)],
        };
        let mut runs: Vec<RunEntry> = (0..20).map(|i| run(&format!("r{i:02}"), 100.0)).collect();
        runs[13] = run("r13", 5000.0);
        let dir = Directory {
            metric_names: vec!["cycles".to_owned()],
            runs,
        };
        let v = ensemble_outliers(&dir, &OutlierConfig::default());
        assert_eq!(v.status, Status::Fail);
        assert_eq!(v.evidence.len(), 1);
        assert_eq!(v.evidence[0].path, vec!["r13".to_owned()]);
    }

    #[test]
    fn render_is_stable() {
        let v = load_imbalance(&[1.0, 3.0], "t", &ImbalanceConfig::default());
        let a = v.render();
        let b = v.render();
        assert_eq!(a, b);
        assert!(
            a.starts_with("load-imbalance: FAIL score=0.5000 warn_at=0.1500"),
            "{a}"
        );
    }
}
