//! The perf gate: candidate-vs-baseline comparison of bench records (or
//! whole profiles reduced to per-metric totals) under a declarative
//! tolerance policy.
//!
//! ## Policy files
//!
//! A small TOML subset, parsed by a hostile-input-safe hand parser
//! (truncated, oversized, or malformed files are errors, never panics):
//!
//! ```toml
//! [defaults]
//! tolerance_pct = 10.0      # allowed regression per gated field
//! fields = "_(ms|ns)$"      # which numeric fields are gated
//!
//! [[rule]]                  # later rules override earlier ones
//! bench = "session_nav"     # regex over the record name
//! field = "p95_ms"          # regex over the field name
//! tolerance_pct = 25.0
//! hard = true               # regression past tolerance fails the gate
//! ```
//!
//! Gated fields are **lower-is-better** (they are timings); a field is
//! a *regression* when `candidate > baseline × (1 + tolerance/100)`.
//! Rules are matched last-to-first: the last rule whose `bench` and
//! `field` patterns both match wins; with no match the defaults apply
//! (and defaults are advisory — `hard = false`).
//!
//! ## Records
//!
//! A bench record is the repo's `BENCH_*.json` shape: a flat JSON
//! object whose `"bench"` string names it and whose top-level finite
//! numeric fields are candidates for gating. Profiles gate through
//! [`record_from_experiment`], which reduces an experiment to its
//! per-metric program totals — stored aggregates, so building the
//! record faults nothing on a lazily opened database.

use callpath_core::experiment::Experiment;
use callpath_core::jsonval::{self, obj, Json};
use callpath_core::metrics::ColumnFlavor;

use crate::rex::Rex;
use crate::{finite, fmt_num};
use std::path::Path;

/// Longest accepted policy file, in bytes.
pub const MAX_POLICY: usize = 64 * 1024;
/// Longest accepted bench record file, in bytes.
const MAX_RECORD: usize = 4 * 1024 * 1024;

/// One policy rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Regex over record names.
    pub bench: Rex,
    /// Regex over field names.
    pub field: Rex,
    /// Allowed regression, percent.
    pub tolerance_pct: f64,
    /// Regression past tolerance fails the gate (vs advisory).
    pub hard: bool,
}

/// A parsed gate policy.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Default allowed regression, percent.
    pub default_tolerance_pct: f64,
    /// Which numeric fields are gated at all.
    pub fields: Rex,
    /// Override rules, in file order.
    pub rules: Vec<Rule>,
}

impl Default for Policy {
    fn default() -> Self {
        Policy {
            default_tolerance_pct: 10.0,
            // Timing fields of a BENCH record, and the "<metric> total"
            // fields a profile database reduces to.
            fields: Rex::compile("_(ms|ns)$| total$").expect("default field pattern"),
            rules: Vec::new(),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum TomlVal {
    Num(f64),
    Str(String),
    Bool(bool),
}

fn parse_toml_value(raw: &str, line_no: usize) -> Result<TomlVal, String> {
    let raw = raw.trim();
    if raw == "true" {
        return Ok(TomlVal::Bool(true));
    }
    if raw == "false" {
        return Ok(TomlVal::Bool(false));
    }
    if let Some(rest) = raw.strip_prefix('"') {
        // A simple quoted string: backslash escapes for `\"` and `\\`.
        let mut out = String::new();
        let mut chars = rest.chars();
        loop {
            match chars.next() {
                None => return Err(format!("line {line_no}: unterminated string")),
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    _ => return Err(format!("line {line_no}: invalid escape")),
                },
                Some(c) => out.push(c),
            }
        }
        let rest: String = chars.collect();
        if !rest.trim().is_empty() && !rest.trim_start().starts_with('#') {
            return Err(format!("line {line_no}: trailing data after string"));
        }
        return Ok(TomlVal::Str(out));
    }
    // A number; strip a trailing comment first.
    let raw = raw.split('#').next().unwrap_or("").trim();
    match raw.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(TomlVal::Num(n)),
        _ => Err(format!("line {line_no}: invalid value '{raw}'")),
    }
}

/// Parse a policy file (the TOML subset described in the module docs).
/// Unknown tables and keys are errors — a typo in a policy must not
/// silently disable a gate.
pub fn parse_policy(text: &str) -> Result<Policy, String> {
    if text.len() > MAX_POLICY {
        return Err(format!(
            "policy longer than {MAX_POLICY} bytes ({})",
            text.len()
        ));
    }
    #[derive(PartialEq)]
    enum Section {
        None,
        Defaults,
        Rule,
    }
    struct PendingRule {
        bench: Option<Rex>,
        field: Option<Rex>,
        tolerance_pct: Option<f64>,
        hard: bool,
        line: usize,
    }
    let mut policy = Policy::default();
    let mut section = Section::None;
    let mut pending: Option<PendingRule> = None;
    let finish = |pending: &mut Option<PendingRule>, policy: &mut Policy| -> Result<(), String> {
        if let Some(p) = pending.take() {
            policy.rules.push(Rule {
                bench: p
                    .bench
                    .ok_or_else(|| format!("line {}: [[rule]] missing 'bench'", p.line))?,
                field: p
                    .field
                    .ok_or_else(|| format!("line {}: [[rule]] missing 'field'", p.line))?,
                tolerance_pct: p.tolerance_pct.unwrap_or(policy.default_tolerance_pct),
                hard: p.hard,
            });
        }
        Ok(())
    };
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[defaults]" {
            finish(&mut pending, &mut policy)?;
            section = Section::Defaults;
            continue;
        }
        if line == "[[rule]]" {
            finish(&mut pending, &mut policy)?;
            section = Section::Rule;
            pending = Some(PendingRule {
                bench: None,
                field: None,
                tolerance_pct: None,
                hard: false,
                line: line_no,
            });
            continue;
        }
        if line.starts_with('[') {
            return Err(format!("line {line_no}: unknown table {line}"));
        }
        let Some((key, raw)) = line.split_once('=') else {
            return Err(format!("line {line_no}: expected 'key = value'"));
        };
        let key = key.trim();
        let val = parse_toml_value(raw, line_no)?;
        let compile = |v: &TomlVal| -> Result<Rex, String> {
            match v {
                TomlVal::Str(s) => {
                    Rex::compile(s).map_err(|e| format!("line {line_no}: bad pattern: {e}"))
                }
                _ => Err(format!("line {line_no}: '{key}' must be a string")),
            }
        };
        let as_num = |v: &TomlVal| -> Result<f64, String> {
            match v {
                TomlVal::Num(n) => Ok(*n),
                _ => Err(format!("line {line_no}: '{key}' must be a number")),
            }
        };
        match (&section, key) {
            (Section::Defaults, "tolerance_pct") => policy.default_tolerance_pct = as_num(&val)?,
            (Section::Defaults, "fields") => policy.fields = compile(&val)?,
            (Section::Rule, "bench") => {
                pending.as_mut().expect("in rule").bench = Some(compile(&val)?)
            }
            (Section::Rule, "field") => {
                pending.as_mut().expect("in rule").field = Some(compile(&val)?)
            }
            (Section::Rule, "tolerance_pct") => {
                pending.as_mut().expect("in rule").tolerance_pct = Some(as_num(&val)?)
            }
            (Section::Rule, "hard") => match val {
                TomlVal::Bool(b) => pending.as_mut().expect("in rule").hard = b,
                _ => return Err(format!("line {line_no}: 'hard' must be a boolean")),
            },
            (Section::None, _) => {
                return Err(format!("line {line_no}: key outside any table"));
            }
            (_, other) => return Err(format!("line {line_no}: unknown key '{other}'")),
        }
    }
    finish(&mut pending, &mut policy)?;
    Ok(policy)
}

/// One named record: a flat list of numeric fields.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Record name (the `"bench"` field, or the file stem).
    pub name: String,
    /// Top-level finite numeric fields, in source order.
    pub fields: Vec<(String, f64)>,
}

fn record_from_json(name_fallback: &str, text: &str) -> Result<BenchRecord, String> {
    let v = jsonval::parse(text)?;
    let Json::Obj(members) = &v else {
        return Err("bench record is not a JSON object".into());
    };
    let name = v
        .get("bench")
        .and_then(Json::as_str)
        .unwrap_or(name_fallback)
        .to_owned();
    let fields = members
        .iter()
        .filter_map(|(k, val)| match val {
            Json::Num(n) if n.is_finite() => Some((k.clone(), *n)),
            _ => None,
        })
        .collect();
    Ok(BenchRecord { name, fields })
}

/// Load bench records from `path`: either one `*.json` file or a
/// directory scanned for `BENCH_*.json` (sorted by file name for
/// determinism).
pub fn load_bench_records(path: &Path) -> Result<Vec<BenchRecord>, String> {
    let read = |p: &Path| -> Result<String, String> {
        let meta = std::fs::metadata(p).map_err(|e| format!("{}: {e}", p.display()))?;
        if meta.len() > MAX_RECORD as u64 {
            return Err(format!(
                "{}: record larger than {MAX_RECORD} bytes",
                p.display()
            ));
        }
        std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))
    };
    let stem = |p: &Path| {
        p.file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "unnamed".to_owned())
    };
    if path.is_dir() {
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .map(|n| {
                        let n = n.to_string_lossy();
                        n.starts_with("BENCH_") && n.ends_with(".json")
                    })
                    .unwrap_or(false)
            })
            .collect();
        files.sort();
        let mut out = Vec::new();
        for f in files {
            out.push(
                record_from_json(&stem(&f), &read(&f)?)
                    .map_err(|e| format!("{}: {e}", f.display()))?,
            );
        }
        Ok(out)
    } else {
        Ok(vec![record_from_json(&stem(path), &read(path)?)
            .map_err(|e| format!("{}: {e}", path.display()))?])
    }
}

/// Reduce an experiment to a gateable record: one `"<metric> total"`
/// field per raw metric, from the stored per-column aggregates (no
/// column is faulted on a lazily opened database).
pub fn record_from_experiment(name: &str, exp: &Experiment) -> BenchRecord {
    let mut fields = Vec::new();
    for c in exp.columns.columns() {
        let desc = exp.columns.desc(c);
        if let ColumnFlavor::Inclusive(m) = desc.flavor {
            fields.push((format!("{} total", exp.raw.desc(m).name), exp.aggregate(c)));
        }
    }
    BenchRecord {
        name: name.to_owned(),
        fields,
    }
}

/// Per-row outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowVerdict {
    /// Within tolerance.
    Pass,
    /// Past tolerance on an advisory rule.
    Advisory,
    /// Past tolerance on a hard rule.
    Fail,
}

impl RowVerdict {
    /// Stable uppercase name.
    pub fn as_str(&self) -> &'static str {
        match self {
            RowVerdict::Pass => "PASS",
            RowVerdict::Advisory => "ADVISORY",
            RowVerdict::Fail => "FAIL",
        }
    }
}

/// One gated field.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRow {
    /// Record name.
    pub bench: String,
    /// Field name.
    pub field: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// `(candidate - baseline) / baseline`, percent (capped when the
    /// baseline is zero).
    pub delta_pct: f64,
    /// Tolerance applied.
    pub tolerance_pct: f64,
    /// Whether a hard rule governed this row.
    pub hard: bool,
    /// Outcome.
    pub verdict: RowVerdict,
}

/// The gate report.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// All gated rows, record order then field order.
    pub rows: Vec<GateRow>,
    /// Records present on only one side (informational).
    pub missing: Vec<String>,
    /// True when any row failed hard.
    pub failed: bool,
}

impl GateReport {
    /// Count rows with the given verdict.
    pub fn count(&self, v: RowVerdict) -> usize {
        self.rows.iter().filter(|r| r.verdict == v).count()
    }

    /// Deterministic human-readable table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:<20} {:>12} {:>12} {:>9} {:>7}  verdict",
            "bench", "field", "baseline", "candidate", "delta", "tol"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<24} {:<20} {:>12} {:>12} {:>8}% {:>6}%  {}{}",
                r.bench,
                r.field,
                fmt_num(r.baseline),
                fmt_num(r.candidate),
                fmt_num(r.delta_pct),
                fmt_num(r.tolerance_pct),
                r.verdict.as_str(),
                if r.hard && r.verdict != RowVerdict::Pass {
                    " (hard)"
                } else {
                    ""
                }
            );
        }
        for m in &self.missing {
            let _ = writeln!(out, "note: {m}");
        }
        let _ = writeln!(
            out,
            "gate: {} rows, {} pass, {} advisory, {} fail -> {}",
            self.rows.len(),
            self.count(RowVerdict::Pass),
            self.count(RowVerdict::Advisory),
            self.count(RowVerdict::Fail),
            if self.failed { "FAIL" } else { "PASS" }
        );
        out
    }

    /// Machine-readable form.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("failed", Json::Bool(self.failed)),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            obj(vec![
                                ("bench", Json::Str(r.bench.clone())),
                                ("field", Json::Str(r.field.clone())),
                                ("baseline", Json::Num(finite(r.baseline))),
                                ("candidate", Json::Num(finite(r.candidate))),
                                ("delta_pct", Json::Num(finite(r.delta_pct))),
                                ("tolerance_pct", Json::Num(finite(r.tolerance_pct))),
                                ("hard", Json::Bool(r.hard)),
                                ("verdict", Json::Str(r.verdict.as_str().to_owned())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "missing",
                Json::Arr(self.missing.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }
}

/// Gate `candidate` against `baseline` under `policy`. Records pair by
/// name; fields pair by name within a pair and gate only if the policy
/// `fields` pattern matches. Deterministic: rows appear in candidate
/// record order, then baseline field order.
pub fn gate_records(
    baseline: &[BenchRecord],
    candidate: &[BenchRecord],
    policy: &Policy,
) -> GateReport {
    let _span = callpath_obs::span("analyze.gate");
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for cand in candidate {
        let Some(base) = baseline.iter().find(|b| b.name == cand.name) else {
            missing.push(format!("'{}' has no baseline record", cand.name));
            continue;
        };
        for (field, bval) in &base.fields {
            if !policy.fields.is_match(field) {
                continue;
            }
            let Some(&(_, cval)) = cand.fields.iter().find(|(f, _)| f == field) else {
                missing.push(format!("'{}' lost field '{}'", cand.name, field));
                continue;
            };
            // Last matching rule wins; defaults otherwise.
            let rule = policy
                .rules
                .iter()
                .rev()
                .find(|r| r.bench.is_match(&cand.name) && r.field.is_match(field));
            let (tolerance_pct, hard) = rule
                .map(|r| (r.tolerance_pct, r.hard))
                .unwrap_or((policy.default_tolerance_pct, false));
            let delta_pct = if *bval != 0.0 {
                (cval - bval) / bval * 100.0
            } else if cval == 0.0 {
                0.0
            } else {
                1e6
            };
            let regressed = delta_pct > tolerance_pct;
            let verdict = if !regressed {
                RowVerdict::Pass
            } else if hard {
                RowVerdict::Fail
            } else {
                RowVerdict::Advisory
            };
            rows.push(GateRow {
                bench: cand.name.clone(),
                field: field.clone(),
                baseline: *bval,
                candidate: cval,
                delta_pct,
                tolerance_pct,
                hard,
                verdict,
            });
        }
    }
    for base in baseline {
        if !candidate.iter().any(|c| c.name == base.name) {
            missing.push(format!("'{}' has no candidate record", base.name));
        }
    }
    let failed = rows.iter().any(|r| r.verdict == RowVerdict::Fail);
    GateReport {
        rows,
        missing,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICY: &str = r#"
# comment
[defaults]
tolerance_pct = 10.0
fields = "_(ms|ns)$"

[[rule]]
bench = "nav"
field = "^p95_ms$"
tolerance_pct = 25.0
hard = true
"#;

    fn rec(name: &str, fields: &[(&str, f64)]) -> BenchRecord {
        BenchRecord {
            name: name.to_owned(),
            fields: fields.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn policy_parses() {
        let p = parse_policy(POLICY).unwrap();
        assert_eq!(p.default_tolerance_pct, 10.0);
        assert_eq!(p.rules.len(), 1);
        assert!(p.rules[0].hard);
        assert_eq!(p.rules[0].tolerance_pct, 25.0);
        assert!(p.fields.is_match("open_ms"));
        assert!(!p.fields.is_match("cores"));
    }

    #[test]
    fn hostile_policies_are_errors() {
        for bad in [
            "tolerance_pct = 1",          // key outside a table
            "[defaults]\nnope = 1",       // unknown key
            "[weird]",                    // unknown table
            "[defaults]\nfields = 5",     // wrong type
            "[defaults]\nfields = \"(\"", // bad pattern
            "[[rule]]\nhard = true",      // missing bench/field
            "[[rule]]\nbench = \"a",      // unterminated string
            "[defaults]\ntolerance_pct = inf",
            "[defaults]\ntolerance_pct",
        ] {
            assert!(parse_policy(bad).is_err(), "{bad:?} must not parse");
        }
        let long = "#".repeat(MAX_POLICY + 1);
        assert!(parse_policy(&long).is_err());
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_past_a_hard_rule() {
        let p = parse_policy(POLICY).unwrap();
        let base = vec![rec(
            "nav",
            &[("p95_ms", 10.0), ("open_ms", 5.0), ("cores", 1.0)],
        )];
        // p95 +20% (within the 25% hard rule), open +50% (advisory).
        let cand_ok = vec![rec(
            "nav",
            &[("p95_ms", 12.0), ("open_ms", 7.5), ("cores", 1.0)],
        )];
        let report = gate_records(&base, &cand_ok, &p);
        assert!(!report.failed, "{}", report.render());
        assert_eq!(report.count(RowVerdict::Advisory), 1);
        assert_eq!(report.rows.len(), 2, "cores is not a gated field");

        // p95 +30%: past the hard rule.
        let cand_bad = vec![rec(
            "nav",
            &[("p95_ms", 13.0), ("open_ms", 5.0), ("cores", 1.0)],
        )];
        let report = gate_records(&base, &cand_bad, &p);
        assert!(report.failed);
        assert_eq!(report.count(RowVerdict::Fail), 1);
        let json = report.to_json().to_json();
        assert!(json.contains("\"failed\":true"), "{json}");
    }

    #[test]
    fn improvements_always_pass() {
        let p = Policy::default();
        let base = vec![rec("b", &[("t_ms", 10.0)])];
        let cand = vec![rec("b", &[("t_ms", 1.0)])];
        let report = gate_records(&base, &cand, &p);
        assert!(!report.failed);
        assert_eq!(report.rows[0].verdict, RowVerdict::Pass);
        assert_eq!(report.rows[0].delta_pct, -90.0);
    }

    #[test]
    fn missing_counterparts_are_noted_not_fatal() {
        let p = Policy::default();
        let base = vec![rec("only_base", &[("t_ms", 1.0)])];
        let cand = vec![rec("only_cand", &[("t_ms", 1.0)])];
        let report = gate_records(&base, &cand, &p);
        assert!(!report.failed);
        assert_eq!(report.rows.len(), 0);
        assert_eq!(report.missing.len(), 2);
    }

    #[test]
    fn zero_baseline_regression_is_capped_not_infinite() {
        let p = Policy::default();
        let base = vec![rec("b", &[("t_ms", 0.0)])];
        let cand = vec![rec("b", &[("t_ms", 3.0)])];
        let report = gate_records(&base, &cand, &p);
        assert_eq!(report.rows[0].delta_pct, 1e6);
        assert_eq!(report.rows[0].verdict, RowVerdict::Advisory);
    }

    #[test]
    fn bench_records_parse_the_repo_shape() {
        let r = record_from_json(
            "fallback",
            r#"{"bench":"session_nav","cores":1,"p50_ms":0.5,"p95_ms":1.25,"mode":"seq","speedup":null}"#,
        )
        .unwrap();
        assert_eq!(r.name, "session_nav");
        assert_eq!(
            r.fields,
            vec![
                ("cores".to_owned(), 1.0),
                ("p50_ms".to_owned(), 0.5),
                ("p95_ms".to_owned(), 1.25)
            ]
        );
        assert!(record_from_json("x", "[1,2]").is_err());
        assert!(record_from_json("x", "{").is_err());
    }
}
