//! Hostile-input robustness for the `analyze` RPC: whatever query text
//! a client sends — malformed predicates, pathological regexes, deeply
//! nested parentheses, oversized strings, control characters — the
//! engine answers with a structured reply and never panics. The
//! companion property tests drive the analysis-layer parsers
//! (`Query::parse`, `parse_policy`) directly with arbitrary and
//! truncated input, since the gate policy never crosses the wire.

use callpath_analyze::{gate::parse_policy, query::MAX_QUERY, run_query, Query};
use callpath_profiler::ExecConfig;
use callpath_serve::json::{self, Json};
use callpath_serve::{Engine, ServeConfig};
use callpath_workloads::{pipeline, s3d};
use proptest::prelude::*;
use std::sync::OnceLock;

fn s3d_db() -> std::path::PathBuf {
    // Built once per process: sibling tests map this file, and a
    // second writer would truncate it under them.
    static S3D: OnceLock<std::path::PathBuf> = OnceLock::new();
    S3D.get_or_init(|| {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "callpath-analyze-fuzz-{}-s3d.cpdb",
            std::process::id()
        ));
        let exp = pipeline::build_experiment(
            &s3d::program(s3d::S3dConfig::default()),
            &ExecConfig::default(),
        );
        std::fs::write(&p, callpath_expdb::to_binary_v21(&exp)).unwrap();
        p
    })
    .clone()
}

/// A small on-disk ensemble, to prove `analyze` works over `.cpens`.
fn ens_db() -> std::path::PathBuf {
    // Built once per process: sibling tests map this file, and a
    // second writer would truncate it under them.
    static ENS: OnceLock<std::path::PathBuf> = OnceLock::new();
    ENS.get_or_init(|| {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "callpath-analyze-fuzz-{}-runs.cpens",
            std::process::id()
        ));
        let cfg = callpath_workloads::synth::EnsembleConfig {
            n_runs: 6,
            base_nodes: 200,
            tail_nodes: 8,
            nnz_per_metric: 64,
            outlier_every: 5,
            ..Default::default()
        };
        let runs: Vec<_> = (0..cfg.n_runs)
            .map(|r| {
                callpath_ensemble::RunData::from_model(
                    format!("run-{r}"),
                    &callpath_workloads::synth::ensemble_run(&cfg, r),
                )
                .unwrap()
            })
            .collect();
        std::fs::write(&p, callpath_ensemble::build(&runs, 2).to_bytes()).unwrap();
        p
    })
    .clone()
}

/// Every reply must parse as JSON and carry `ok`.
fn reply(engine: &Engine, line: &str) -> Json {
    let text = engine.handle_line(line);
    let v = json::parse(&text).unwrap_or_else(|e| panic!("unparseable reply {text:?}: {e}"));
    assert!(
        v.get("ok").and_then(Json::as_bool).is_some(),
        "reply without ok: {text}"
    );
    v
}

fn analyze_line(path: &std::path::Path, query: &str) -> String {
    let params = json::obj(vec![
        ("path", Json::Str(path.display().to_string())),
        ("query", Json::Str(query.to_owned())),
    ]);
    format!(
        r#"{{"id":1,"method":"analyze","params":{}}}"#,
        params.to_json()
    )
}

fn error_code(v: &Json) -> Option<&str> {
    v.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
}

#[test]
fn analyze_over_rpc_matches_a_direct_run_query() {
    let db = s3d_db();
    let engine = Engine::new(ServeConfig::default());
    let query = r#"proc ~ "solve|flux" and incl("PAPI_TOT_CYC") > 1%"#;
    let v = reply(&engine, &analyze_line(&db, query));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let result = v.get("result").unwrap();

    let exp = callpath_expdb::open_lazy(std::fs::read(&db).unwrap()).unwrap();
    let direct = run_query(&exp, query, None, 20, 1).unwrap();
    assert_eq!(
        result.get("matched").and_then(Json::as_u64),
        Some(direct.matched as u64)
    );
    assert_eq!(
        result.get("hits").and_then(Json::as_arr).map(|a| a.len()),
        Some(direct.hits.len())
    );
    // The whole report round-trips: the RPC result is exactly the
    // report's own JSON form.
    assert_eq!(result.to_json(), direct.to_json().to_json());
}

#[test]
fn analyze_works_over_a_cpens_ensemble() {
    let db = ens_db();
    let engine = Engine::new(ServeConfig::default());
    // Stat columns of the ensemble are ordinary named columns.
    let query = r#"col("PAPI_ENS_00 mean (I)") > 0"#;
    let v = reply(&engine, &analyze_line(&db, query));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    let matched = v
        .get("result")
        .and_then(|r| r.get("matched"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(matched > 0, "ensemble stat query must match something");
}

#[test]
fn hostile_queries_get_structured_command_errors() {
    let db = s3d_db();
    let engine = Engine::new(ServeConfig::default());
    let hostile = [
        "",
        "   ",
        "proc ~",
        r#"proc ~ "unclosed"#,
        r#"proc ~ "(""#,
        r#"proc ~ "a**""#,
        r#"proc ~ "[z-a]""#,
        "incl(\"PAPI_TOT_CYC\") >",
        "incl(\"no such metric\") > 5",
        "not not not",
        "and and and",
        "subtree(",
        "label ~ \"\\x00\\x01\"",
        "incl(\"PAPI_TOT_CYC\") > nan",
        "incl(\"PAPI_TOT_CYC\") > 1e309",
        "proc = \"equals is not an operator\"",
        "🦀 ~ \"ferris\"",
    ];
    for q in hostile {
        let v = reply(&engine, &analyze_line(&db, q));
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(false),
            "hostile query {q:?} was accepted"
        );
        assert_eq!(error_code(&v), Some("command"), "{q:?}");
    }
    // A deeply nested predicate trips the parser's depth cap, not the
    // stack.
    let deep = format!("{}label ~ \"x\"{}", "(".repeat(200), ")".repeat(200));
    let v = reply(&engine, &analyze_line(&db, &deep));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_code(&v), Some("command"));
}

#[test]
fn oversized_predicates_are_rejected_at_the_protocol_layer() {
    let db = s3d_db();
    let engine = Engine::new(ServeConfig::default());
    let huge = format!("label ~ \"{}\"", "a".repeat(MAX_QUERY));
    let v = reply(&engine, &analyze_line(&db, &huge));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    // Rejected before the query parser ever sees it.
    assert_eq!(error_code(&v), Some("invalid"));
    let msg = v
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap();
    assert!(msg.contains("oversized predicate"), "{msg}");
}

#[test]
fn analyze_on_a_missing_file_is_an_open_error() {
    let engine = Engine::new(ServeConfig::default());
    let v = reply(
        &engine,
        &analyze_line(std::path::Path::new("/nonexistent/x.cpdb"), "label ~ \"x\""),
    );
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_code(&v), Some("open"));
}

#[test]
fn analyze_bounds_top_and_requires_its_fields() {
    let db = s3d_db();
    let engine = Engine::new(ServeConfig::default());
    for (params, expect) in [
        (r#"{"query":"label ~ \"x\""}"#.to_owned(), "invalid"),
        (format!(r#"{{"path":"{}"}}"#, db.display()), "invalid"),
        (
            format!(
                r#"{{"path":"{}","query":"label ~ \"x\"","top":1001}}"#,
                db.display()
            ),
            "invalid",
        ),
        (
            format!(
                r#"{{"path":"{}","query":"label ~ \"x\"","score":7}}"#,
                db.display()
            ),
            "invalid",
        ),
    ] {
        let line = format!(r#"{{"method":"analyze","params":{params}}}"#);
        let v = reply(&engine, &line);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{line}");
        assert_eq!(error_code(&v), Some(expect), "{line}");
    }
}

const POLICY: &str = r#"
[defaults]
tolerance_pct = 10.0
fields = "_(ms|ns)$"

[[rule]]
bench = "nav"
field = "open_ms"
tolerance_pct = 25.0
hard = true
"#;

proptest! {
    /// Arbitrary bytes as query text: the reply is always structured
    /// (the engine catches panics, but the assertion here is stronger —
    /// parse errors surface as `command`, never as `internal`).
    #[test]
    fn arbitrary_query_text_never_panics_the_engine(q in "\\PC{0,120}") {
        let db = s3d_db();
        let engine = Engine::new(ServeConfig::default());
        let v = reply(&engine, &analyze_line(&db, &q));
        if v.get("ok").and_then(Json::as_bool) == Some(false) {
            prop_assert!(error_code(&v) != Some("internal"), "query {:?}", q);
        }
    }

    /// `Query::parse` totals: arbitrary input is either accepted or
    /// rejected with a positioned error — no panic, no hang.
    #[test]
    fn query_parse_is_total(q in "\\PC{0,200}") {
        let _ = Query::parse(&q);
    }

    /// Truncating a valid policy at any byte boundary never panics the
    /// policy parser.
    #[test]
    fn truncated_policies_never_panic(cut in 0usize..235) {
        let cut = cut.min(POLICY.len());
        if POLICY.is_char_boundary(cut) {
            let _ = parse_policy(&POLICY[..cut]);
        }
    }

    /// Arbitrary text as a policy file parses or errors, never panics.
    #[test]
    fn arbitrary_policy_text_is_total(p in "\\PC{0,200}") {
        let _ = parse_policy(&p);
    }
}
