//! `stats` says which requests are slow: one latency histogram per
//! request method. Every request that parses is counted under exactly
//! one method — whether it then succeeds or not — and a request that
//! does not parse is counted under none, so the per-method counts add
//! up to `requests` minus the parse failures.

use callpath_serve::json::{self, Json};
use callpath_serve::{Engine, ServeConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Request lines and the method each is counted under (`None`: the
/// line fails `parse_request`). None of them needs a database.
const MENU: [(&str, Option<&str>); 12] = [
    (r#"{"method":"ping"}"#, Some("ping")),
    (r#"{"id":7,"method":"stats"}"#, Some("stats")),
    (
        r#"{"method":"render","params":{"session":9}}"#,
        Some("render"),
    ),
    (
        r#"{"method":"close","params":{"session":9}}"#,
        Some("close"),
    ),
    (
        r#"{"method":"view","params":{"session":9,"view":"flat"}}"#,
        Some("view"),
    ),
    (
        r#"{"method":"hot-path","params":{"session":9}}"#,
        Some("hot-path"),
    ),
    (
        r#"{"method":"open","params":{"path":"/nonexistent.cpdb"}}"#,
        Some("open"),
    ),
    (r#"{"method":"frobnicate"}"#, None),
    (r#"{"method":"render"}"#, None),
    (r#"{"method":"view","params":{"session":9}}"#, None),
    ("not json", None),
    (r#"{"id":1,"met"#, None),
];

proptest! {
    #[test]
    fn per_method_counts_add_up_to_the_requests_that_parsed(
        picks in proptest::collection::vec(0..MENU.len(), 0..80)
    ) {
        let engine = Engine::new(ServeConfig::default());
        let mut expected: BTreeMap<&str, u64> = BTreeMap::new();
        let mut parse_failures = 0;
        for &pick in &picks {
            let (line, method) = MENU[pick];
            engine.handle_line(line);
            match method {
                Some(m) => *expected.entry(m).or_default() += 1,
                None => parse_failures += 1,
            }
        }

        let reply = json::parse(&engine.handle_line(r#"{"method":"stats"}"#)).unwrap();
        let stats = reply.get("result").expect("stats succeeds");
        let requests = stats.get("requests").and_then(Json::as_u64).unwrap();
        prop_assert_eq!(requests, picks.len() as u64 + 1);
        let Some(Json::Obj(methods)) = stats.get("methods") else {
            panic!("stats without a methods object: {}", reply.to_json());
        };

        // Exactly the methods seen, each with its own count.
        let mut reported: BTreeMap<&str, u64> = BTreeMap::new();
        for (method, summary) in methods {
            let field = |key| summary.get(key).and_then(Json::as_u64).unwrap();
            prop_assert!(field("p50_ns") <= field("p95_ns"));
            reported.insert(method.as_str(), field("count"));
        }
        prop_assert_eq!(&reported, &expected);
        // The `stats` request being answered is in `requests` already
        // and in its histogram only once it has been answered.
        let counted: u64 = reported.values().sum();
        prop_assert_eq!(counted, requests - parse_failures - 1);
    }
}
