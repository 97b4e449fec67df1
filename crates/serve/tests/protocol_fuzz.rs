//! Malformed-protocol robustness: whatever bytes a client sends, the
//! engine answers with a structured reply and never panics — truncated
//! JSON, unknown methods, out-of-range node ids, wrong parameter types,
//! and requests against sessions the LRU has already evicted.
//!
//! Engine-level behavior (eviction, byte-identical renders versus a
//! direct `Session`, shutdown RPC gating) is covered here too: these
//! tests drive `Engine::handle_line` without sockets, which is exactly
//! what makes the fuzz cheap enough to run thousands of cases.

use callpath_core::prelude::SourceStore;
use callpath_expdb::{open_lazy, to_binary_v21};
use callpath_profiler::ExecConfig;
use callpath_serve::json::{self, Json};
use callpath_serve::{Engine, ServeConfig};
use callpath_viewer::{Command, Session};
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
            "callpath-serve-fuzz-{}-s3d.cpdb",
            std::process::id()
        ));
        let exp = pipeline::build_experiment(
            &s3d::program(s3d::S3dConfig::default()),
            &ExecConfig::default(),
        );
        std::fs::write(&p, to_binary_v21(&exp)).unwrap();
        p
    })
    .clone()
}

fn engine() -> Engine {
    Engine::new(ServeConfig::default())
}

/// A small on-disk ensemble: 6 synthetic runs, run 4 inflated.
fn ens_db() -> std::path::PathBuf {
    // Built once per process: sibling tests map this file, and a
    // second writer would truncate it under them.
    static ENS: OnceLock<std::path::PathBuf> = OnceLock::new();
    ENS.get_or_init(|| {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "callpath-serve-fuzz-{}-runs.cpens",
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

fn open_session(engine: &Engine, path: &std::path::Path) -> u64 {
    let line = format!(
        r#"{{"id":1,"method":"open","params":{{"path":"{}"}}}}"#,
        path.display()
    );
    let v = reply(engine, &line);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{line}");
    v.get("result")
        .and_then(|r| r.get("session"))
        .and_then(Json::as_u64)
        .expect("open returns a session id")
}

fn error_code(v: &Json) -> Option<&str> {
    v.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
}

#[test]
fn engine_render_is_byte_identical_to_a_direct_session() {
    let db = s3d_db();
    let engine = engine();
    let id = open_session(&engine, &db);

    // A navigation script touching find, sort, hot-path, view
    // switching and flatten — mirrored against a direct Session.
    let script: &[(&str, Command)] = &[
        (
            r#"{"method":"find","params":{"session":SID,"needle":"transport"}}"#,
            Command::Find("transport".into()),
        ),
        (
            r#"{"method":"sort","params":{"session":SID,"column":1}}"#,
            Command::SortBy(callpath_core::prelude::ColumnId(1)),
        ),
        (
            r#"{"method":"hot-path","params":{"session":SID}}"#,
            Command::HotPath,
        ),
        (
            r#"{"method":"view","params":{"session":SID,"view":"flat"}}"#,
            Command::SwitchView(callpath_core::prelude::ViewKind::Flat),
        ),
        (
            r#"{"method":"flatten","params":{"session":SID}}"#,
            Command::Flatten,
        ),
        (
            r#"{"method":"view","params":{"session":SID,"view":"callers"}}"#,
            Command::SwitchView(callpath_core::prelude::ViewKind::Callers),
        ),
    ];

    let bytes = std::fs::read(&db).unwrap();
    let exp = open_lazy(bytes).unwrap();
    let mut direct = Session::new(&exp, SourceStore::new());

    for (template, cmd) in script {
        let line = template.replace("SID", &id.to_string());
        let v = reply(&engine, &line);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{line}");
        direct.apply(cmd.clone()).unwrap();
        let (want, want_rows) = direct.render_numbered();
        let got = v
            .get("result")
            .and_then(|r| r.get("render"))
            .and_then(Json::as_str)
            .unwrap();
        assert_eq!(got, want, "server render diverged after {line}");
        let got_rows: Vec<u64> = v
            .get("result")
            .and_then(|r| r.get("rows"))
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|n| n.as_u64().unwrap())
            .collect();
        let want_rows: Vec<u64> = want_rows.iter().map(|&n| n as u64).collect();
        assert_eq!(got_rows, want_rows);
    }

    // Expand is data-driven: pick the first visible row the direct
    // session can expand, mirror it over the wire, compare bytes.
    let (_, rows) = direct.render_numbered();
    let node = rows
        .iter()
        .copied()
        .find(|&n| direct.apply(Command::Expand(n)).is_ok())
        .expect("some visible row is expandable");
    let line = format!(r#"{{"method":"expand","params":{{"session":{id},"node":{node}}}}}"#);
    let v = reply(&engine, &line);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{line}");
    let (want, _) = direct.render_numbered();
    let got = v
        .get("result")
        .and_then(|r| r.get("render"))
        .and_then(Json::as_str)
        .unwrap();
    assert_eq!(got, want, "server render diverged after {line}");
}

#[test]
fn lru_eviction_reclaims_the_oldest_session_and_errors_are_structured() {
    let db = s3d_db();
    let engine = Engine::new(ServeConfig {
        max_sessions: 2,
        ..ServeConfig::default()
    });
    let first = open_session(&engine, &db);
    let second = open_session(&engine, &db);
    // Touch `first` so `second` becomes the LRU victim.
    let line = format!(r#"{{"method":"render","params":{{"session":{first}}}}}"#);
    assert_eq!(
        reply(&engine, &line).get("ok").and_then(Json::as_bool),
        Some(true)
    );
    let third = open_session(&engine, &db);
    assert_ne!(third, second);

    // The evicted session answers with a structured unknown-session
    // error; the survivor still works.
    let line = format!(r#"{{"method":"render","params":{{"session":{second}}}}}"#);
    let v = reply(&engine, &line);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_code(&v), Some("unknown-session"));
    for live in [first, third] {
        let line = format!(r#"{{"method":"render","params":{{"session":{live}}}}}"#);
        let v = reply(&engine, &line);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    }

    // stats reflects the eviction.
    let v = reply(&engine, r#"{"method":"stats"}"#);
    let result = v.get("result").unwrap();
    assert_eq!(result.get("sessions").and_then(Json::as_u64), Some(2));
    assert_eq!(result.get("evictions").and_then(Json::as_u64), Some(1));
    assert_eq!(
        result.get("sessions_opened").and_then(Json::as_u64),
        Some(3)
    );
}

#[test]
fn shutdown_rpc_is_honored_only_when_allowed() {
    let engine = Engine::new(ServeConfig {
        allow_shutdown_rpc: false,
        ..ServeConfig::default()
    });
    let v = reply(&engine, r#"{"method":"shutdown"}"#);
    assert_eq!(error_code(&v), Some("forbidden"));
    assert!(!engine.is_shutting_down());

    let engine = engine_default_with_shutdown();
    assert!(engine.is_shutting_down());
}

fn engine_default_with_shutdown() -> Engine {
    let engine = engine();
    let v = reply(&engine, r#"{"method":"shutdown"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    engine
}

#[test]
fn ensemble_stats_answers_from_the_directory_and_rejects_malice() {
    let db = ens_db();
    let engine = engine();
    let path = db.display().to_string();

    // Happy path: run count, metric names, ranked outliers.
    let line = format!(r#"{{"method":"ensemble-stats","params":{{"path":"{path}"}}}}"#);
    let v = reply(&engine, &line);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{line}");
    let result = v.get("result").unwrap();
    assert_eq!(result.get("runs").and_then(Json::as_u64), Some(6));
    let metrics = result.get("metrics").and_then(Json::as_arr).unwrap();
    assert_eq!(metrics.len(), 2);
    let outliers = result.get("outliers").and_then(Json::as_arr).unwrap();
    assert_eq!(outliers.len(), 6, "default top covers all 6 runs");
    let scores: Vec<f64> = outliers
        .iter()
        .map(|o| o.get("score").and_then(Json::as_f64).unwrap())
        .collect();
    assert!(
        scores.windows(2).all(|w| w[0] >= w[1]),
        "sorted: {scores:?}"
    );
    // Run 4 has metric 0 inflated 8x; it must rank first.
    let top_run = outliers[0].get("run").and_then(Json::as_u64).unwrap();
    assert_eq!(top_run, 4, "the inflated run ranks first");

    // `top` bounds the reply; a second request hits the cache.
    let line = format!(r#"{{"method":"ensemble-stats","params":{{"path":"{path}","top":2}}}}"#);
    let v = reply(&engine, &line);
    let outliers = v
        .get("result")
        .and_then(|r| r.get("outliers"))
        .and_then(Json::as_arr)
        .unwrap();
    assert_eq!(outliers.len(), 2);

    // Hostile parameters come back as structured errors.
    let plain = s3d_db();
    let cases: Vec<(String, &str)> = vec![
        (r#"{"method":"ensemble-stats"}"#.into(), "invalid"),
        (
            r#"{"method":"ensemble-stats","params":{"path":7}}"#.into(),
            "invalid",
        ),
        (
            format!(r#"{{"method":"ensemble-stats","params":{{"path":"{path}","top":1001}}}}"#),
            "invalid",
        ),
        (
            format!(r#"{{"method":"ensemble-stats","params":{{"path":"{path}","top":-1}}}}"#),
            "invalid",
        ),
        (
            format!(r#"{{"method":"ensemble-stats","params":{{"path":"{path}","top":1.5}}}}"#),
            "invalid",
        ),
        (
            r#"{"method":"ensemble-stats","params":{"path":"/nonexistent/x.cpens"}}"#.into(),
            "open",
        ),
        // A plain v2.1 database has no ensemble directory.
        (
            format!(
                r#"{{"method":"ensemble-stats","params":{{"path":"{}"}}}}"#,
                plain.display()
            ),
            "open",
        ),
    ];
    for (line, want) in cases {
        let v = reply(&engine, &line);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{line}");
        assert_eq!(error_code(&v), Some(want), "{line}");
    }
}

#[test]
fn handcrafted_malice_gets_structured_replies() {
    let db = s3d_db();
    let engine = engine();
    let id = open_session(&engine, &db);
    let cases: Vec<(String, &str)> = vec![
        (r#"{"id":1,"met"#.into(), "parse"),
        ("not json at all".into(), "parse"),
        ("\u{fffd}".into(), "parse"),
        (
            format!(r#"{{"method":"expand","params":{{"session":{id}}}}}"#),
            "invalid",
        ),
        (
            format!(r#"{{"method":"expand","params":{{"session":{id},"node":999999}}}}"#),
            "command",
        ),
        (
            format!(r#"{{"method":"sort","params":{{"session":{id},"column":4096}}}}"#),
            "command",
        ),
        (
            format!(r#"{{"method":"hot-path","params":{{"session":{id},"threshold":7.5}}}}"#),
            "command",
        ),
        // u64::MAX is not exactly representable in a JSON number, so it
        // is rejected at the type boundary rather than looked up.
        (
            r#"{"method":"render","params":{"session":18446744073709551615}}"#.into(),
            "invalid",
        ),
        (
            r#"{"method":"render","params":{"session":987654321}}"#.into(),
            "unknown-session",
        ),
        (
            r#"{"method":"open","params":{"path":"/nonexistent/nope.cpdb"}}"#.into(),
            "open",
        ),
        (r#"{"method":"frobnicate"}"#.into(), "unknown-method"),
        (
            format!("{}{}", r#"{"method":"ping","depth":"#, "[".repeat(200)),
            "parse",
        ),
    ];
    for (line, want) in cases {
        let v = reply(&engine, &line);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{line}");
        assert_eq!(error_code(&v), Some(want), "{line}");
    }
    // The session is still healthy afterwards.
    let line = format!(r#"{{"method":"render","params":{{"session":{id}}}}}"#);
    assert_eq!(
        reply(&engine, &line).get("ok").and_then(Json::as_bool),
        Some(true)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary junk never panics and always yields a structured reply.
    #[test]
    fn arbitrary_lines_get_structured_replies(line in "[ -~]{0,200}") {
        let engine = engine();
        let text = engine.handle_line(&line);
        let v = json::parse(&text).unwrap();
        prop_assert!(v.get("ok").and_then(Json::as_bool).is_some());
    }

    /// Structurally valid requests with fuzzed methods/ids/params are
    /// answered, and `ok:true` can only come from the known methods
    /// that need no session (nothing here opens one).
    #[test]
    fn fuzzed_requests_never_succeed_without_a_session(
        method in "[a-z-]{1,12}",
        session in any::<u64>(),
        node in any::<i64>(),
    ) {
        let engine = engine();
        let line = format!(
            r#"{{"id":9,"method":"{method}","params":{{"session":{session},"node":{node},"path":"/dev/null/x"}}}}"#
        );
        let text = engine.handle_line(&line);
        let v = json::parse(&text).unwrap();
        let ok = v.get("ok").and_then(Json::as_bool).unwrap();
        if ok {
            prop_assert!(
                matches!(method.as_str(), "stats" | "ping" | "shutdown"),
                "unexpected success for method {method}"
            );
        }
    }

    /// Truncating a valid request at any byte boundary still yields a
    /// structured reply (parse or invalid, never a panic or hang).
    #[test]
    fn truncations_of_a_valid_request_are_safe(cut in 0usize..66) {
        let engine = engine();
        let full = r#"{"id":3,"method":"expand","params":{"session":1,"node":2}}"#;
        let line = &full[..cut.min(full.len())];
        let text = engine.handle_line(line);
        let v = json::parse(&text).unwrap();
        prop_assert!(v.get("ok").and_then(Json::as_bool).is_some());
    }
}
