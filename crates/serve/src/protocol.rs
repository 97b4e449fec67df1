//! The wire protocol: line-delimited JSON requests and replies.
//!
//! One request per line:
//!
//! ```text
//! {"id": 1, "method": "open",   "params": {"path": "s3d.cpdb"}}
//! {"id": 2, "method": "expand", "params": {"session": 1, "node": 4}}
//! ```
//!
//! One reply per line, echoing `id` (or `null` when the request was
//! too malformed to carry one):
//!
//! ```text
//! {"id":1,"ok":true,"result":{"session":1,"nodes":120,"columns":[…]}}
//! {"id":2,"ok":false,"error":{"code":"command","message":"scope 4 is not visible…"}}
//! ```
//!
//! Every failure — truncated JSON, unknown methods, wrong parameter
//! types, out-of-range ids, commands the session rejects — comes back
//! as a structured `ok:false` reply; nothing a client sends can panic
//! the server (see `tests/protocol_fuzz.rs`).

use crate::json::{self, obj, Json};
use callpath_core::prelude::ViewKind;

/// A structured request failure: `code` is a small machine-readable
/// vocabulary, `message` is for humans.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// One of: `parse`, `invalid`, `unknown-method`, `unknown-session`,
    /// `open`, `command`, `forbidden`, `internal`.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl RequestError {
    pub(crate) fn new(code: &'static str, message: impl Into<String>) -> Self {
        RequestError {
            code,
            message: message.into(),
        }
    }

    pub(crate) fn invalid(message: impl Into<String>) -> Self {
        RequestError::new("invalid", message)
    }
}

/// A validated protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a database and start a fresh session on it.
    Open {
        /// Filesystem path of the database (`.cpdb`, `.cpens` or XML).
        path: String,
    },
    /// Drop a session explicitly (instead of waiting for eviction).
    Close {
        /// Session to drop.
        session: u64,
    },
    /// Render the session's current view.
    Render {
        /// Target session.
        session: u64,
    },
    /// Expand a visible scope.
    Expand {
        /// Target session.
        session: u64,
        /// Scope (node id from a previous reply's `rows`).
        node: u32,
    },
    /// Collapse a scope.
    Collapse {
        /// Target session.
        session: u64,
        /// Scope to collapse.
        node: u32,
    },
    /// Select a visible scope (shows its source pane).
    Select {
        /// Target session.
        session: u64,
        /// Scope to select.
        node: u32,
    },
    /// Zoom into a subtree.
    Zoom {
        /// Target session.
        session: u64,
        /// Subtree root.
        node: u32,
    },
    /// Undo a zoom.
    Unzoom {
        /// Target session.
        session: u64,
    },
    /// Sort by a metric column.
    Sort {
        /// Target session.
        session: u64,
        /// Column index.
        column: u32,
    },
    /// Toggle alphabetical sorting.
    SortName {
        /// Target session.
        session: u64,
        /// `true` = sort by name, `false` = back to the metric column.
        on: bool,
    },
    /// Switch between the three views.
    SwitchView {
        /// Target session.
        session: u64,
        /// Which view.
        view: ViewKind,
    },
    /// Run hot-path analysis from the selection (or the top).
    HotPath {
        /// Target session.
        session: u64,
        /// Optional threshold override in (0, 1].
        threshold: Option<f64>,
    },
    /// Flat View: strip one hierarchy layer.
    Flatten {
        /// Target session.
        session: u64,
    },
    /// Flat View: restore one hierarchy layer.
    Unflatten {
        /// Target session.
        session: u64,
    },
    /// Search by name, expand ancestors, select the first match.
    Find {
        /// Target session.
        session: u64,
        /// Substring to look for (case-sensitive).
        needle: String,
    },
    /// Cross-run statistics of a `.cpens` ensemble database: run
    /// count, metric names and the top outlier runs. Served from the
    /// ensemble directory alone — no metric columns are faulted.
    EnsembleStats {
        /// Filesystem path of the ensemble database.
        path: String,
        /// How many outlier runs to return (bounded at 1000).
        top: u32,
    },
    /// Evaluate an analysis query (the `callpath-analyze` predicate
    /// language) over a database and return the matching call paths.
    /// Only the columns the query names are faulted.
    Analyze {
        /// Filesystem path of the database (v2.1 or `.cpens`).
        path: String,
        /// Query text, e.g. `proc ~ "^MPI_" and incl("cycles") > 5%`.
        query: String,
        /// Optional exact score column name (defaults to the first).
        score: Option<String>,
        /// How many hits to return (bounded at 1000).
        top: u32,
    },
    /// Server statistics (sessions, requests, latency quantiles).
    Stats,
    /// Liveness probe.
    Ping,
    /// Ask the server to drain and exit.
    Shutdown,
}

impl Request {
    /// The wire name of the request's method: the inverse of the match
    /// in `validate`, and the key of the per-method latency histograms.
    pub fn method(&self) -> &'static str {
        match self {
            Request::Open { .. } => "open",
            Request::Close { .. } => "close",
            Request::Render { .. } => "render",
            Request::Expand { .. } => "expand",
            Request::Collapse { .. } => "collapse",
            Request::Select { .. } => "select",
            Request::Zoom { .. } => "zoom",
            Request::Unzoom { .. } => "unzoom",
            Request::Sort { .. } => "sort",
            Request::SortName { .. } => "sort-name",
            Request::SwitchView { .. } => "view",
            Request::HotPath { .. } => "hot-path",
            Request::Flatten { .. } => "flatten",
            Request::Unflatten { .. } => "unflatten",
            Request::Find { .. } => "find",
            Request::EnsembleStats { .. } => "ensemble-stats",
            Request::Analyze { .. } => "analyze",
            Request::Stats => "stats",
            Request::Ping => "ping",
            Request::Shutdown => "shutdown",
        }
    }
}

/// Parse one request line. Always returns the echoable `id` (possibly
/// `Json::Null`) alongside the parse outcome, so even a reply to a
/// broken request can carry the client's correlation id when one was
/// readable.
pub fn parse_request(line: &str) -> (Json, Result<Request, RequestError>) {
    let value = match json::parse(line.trim()) {
        Ok(v) => v,
        Err(e) => return (Json::Null, Err(RequestError::new("parse", e))),
    };
    let id = value.get("id").cloned().unwrap_or(Json::Null);
    let request = validate(&value);
    (id, request)
}

fn validate(value: &Json) -> Result<Request, RequestError> {
    if !matches!(value, Json::Obj(_)) {
        return Err(RequestError::invalid("request must be a JSON object"));
    }
    let method = value
        .get("method")
        .and_then(Json::as_str)
        .ok_or_else(|| RequestError::invalid("missing string field 'method'"))?;
    let empty = Json::Obj(Vec::new());
    let params = match value.get("params") {
        None => &empty,
        Some(p @ Json::Obj(_)) => p,
        Some(_) => return Err(RequestError::invalid("'params' must be an object")),
    };

    let session = || -> Result<u64, RequestError> {
        params
            .get("session")
            .and_then(Json::as_u64)
            .ok_or_else(|| RequestError::invalid("missing integer field 'session'"))
    };
    let node = || -> Result<u32, RequestError> {
        let n = params
            .get("node")
            .and_then(Json::as_u64)
            .ok_or_else(|| RequestError::invalid("missing integer field 'node'"))?;
        u32::try_from(n).map_err(|_| RequestError::invalid(format!("node {n} out of range")))
    };

    match method {
        "open" => Ok(Request::Open {
            path: params
                .get("path")
                .and_then(Json::as_str)
                .ok_or_else(|| RequestError::invalid("missing string field 'path'"))?
                .to_owned(),
        }),
        "close" => Ok(Request::Close {
            session: session()?,
        }),
        "render" => Ok(Request::Render {
            session: session()?,
        }),
        "expand" => Ok(Request::Expand {
            session: session()?,
            node: node()?,
        }),
        "collapse" => Ok(Request::Collapse {
            session: session()?,
            node: node()?,
        }),
        "select" => Ok(Request::Select {
            session: session()?,
            node: node()?,
        }),
        "zoom" => Ok(Request::Zoom {
            session: session()?,
            node: node()?,
        }),
        "unzoom" => Ok(Request::Unzoom {
            session: session()?,
        }),
        "sort" => {
            let column = params
                .get("column")
                .and_then(Json::as_u64)
                .ok_or_else(|| RequestError::invalid("missing integer field 'column'"))?;
            Ok(Request::Sort {
                session: session()?,
                column: u32::try_from(column)
                    .map_err(|_| RequestError::invalid(format!("column {column} out of range")))?,
            })
        }
        "sort-name" => Ok(Request::SortName {
            session: session()?,
            on: params.get("on").and_then(Json::as_bool).unwrap_or(true),
        }),
        "view" => {
            let name = params
                .get("view")
                .and_then(Json::as_str)
                .ok_or_else(|| RequestError::invalid("missing string field 'view'"))?;
            let view = match name {
                "ccv" => ViewKind::CallingContext,
                "callers" => ViewKind::Callers,
                "flat" => ViewKind::Flat,
                other => {
                    return Err(RequestError::invalid(format!(
                        "unknown view '{other}' (ccv|callers|flat)"
                    )))
                }
            };
            Ok(Request::SwitchView {
                session: session()?,
                view,
            })
        }
        "hot-path" => {
            let threshold = match params.get("threshold") {
                None => None,
                Some(v) => Some(
                    v.as_f64()
                        .ok_or_else(|| RequestError::invalid("'threshold' must be a number"))?,
                ),
            };
            Ok(Request::HotPath {
                session: session()?,
                threshold,
            })
        }
        "flatten" => Ok(Request::Flatten {
            session: session()?,
        }),
        "unflatten" => Ok(Request::Unflatten {
            session: session()?,
        }),
        "find" => Ok(Request::Find {
            session: session()?,
            needle: params
                .get("needle")
                .and_then(Json::as_str)
                .ok_or_else(|| RequestError::invalid("missing string field 'needle'"))?
                .to_owned(),
        }),
        "ensemble-stats" => {
            let path = params
                .get("path")
                .and_then(Json::as_str)
                .ok_or_else(|| RequestError::invalid("missing string field 'path'"))?
                .to_owned();
            let top = match params.get("top") {
                None => 10,
                Some(v) => {
                    let t = v
                        .as_u64()
                        .ok_or_else(|| RequestError::invalid("'top' must be an integer"))?;
                    u32::try_from(t)
                        .ok()
                        .filter(|t| *t <= 1000)
                        .ok_or_else(|| {
                            RequestError::invalid(format!("top {t} out of range (max 1000)"))
                        })?
                }
            };
            Ok(Request::EnsembleStats { path, top })
        }
        "analyze" => {
            let path = params
                .get("path")
                .and_then(Json::as_str)
                .ok_or_else(|| RequestError::invalid("missing string field 'path'"))?
                .to_owned();
            let query = params
                .get("query")
                .and_then(Json::as_str)
                .ok_or_else(|| RequestError::invalid("missing string field 'query'"))?
                .to_owned();
            // The size bound is enforced here, before the text ever
            // reaches the query parser: an oversized predicate is a
            // protocol-level rejection, not a query error.
            if query.len() > callpath_analyze::query::MAX_QUERY {
                return Err(RequestError::invalid(format!(
                    "oversized predicate ({} bytes, max {})",
                    query.len(),
                    callpath_analyze::query::MAX_QUERY
                )));
            }
            let score = match params.get("score") {
                None => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| RequestError::invalid("'score' must be a string"))?
                        .to_owned(),
                ),
            };
            let top = match params.get("top") {
                None => 20,
                Some(v) => {
                    let t = v
                        .as_u64()
                        .ok_or_else(|| RequestError::invalid("'top' must be an integer"))?;
                    u32::try_from(t)
                        .ok()
                        .filter(|t| *t <= 1000)
                        .ok_or_else(|| {
                            RequestError::invalid(format!("top {t} out of range (max 1000)"))
                        })?
                }
            };
            Ok(Request::Analyze {
                path,
                query,
                score,
                top,
            })
        }
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(RequestError::new(
            "unknown-method",
            format!("unknown method '{other}'"),
        )),
    }
}

/// Render a reply line (no trailing newline) for `result`, echoing `id`.
pub fn response(id: &Json, result: Result<Json, RequestError>) -> String {
    let body = match result {
        Ok(value) => obj(vec![
            ("id", id.clone()),
            ("ok", Json::Bool(true)),
            ("result", value),
        ]),
        Err(e) => obj(vec![
            ("id", id.clone()),
            ("ok", Json::Bool(false)),
            (
                "error",
                obj(vec![
                    ("code", Json::Str(e.code.to_owned())),
                    ("message", Json::Str(e.message)),
                ]),
            ),
        ]),
    };
    body.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_shapes() {
        let (id, req) = parse_request(r#"{"id":1,"method":"open","params":{"path":"x.cpdb"}}"#);
        assert_eq!(id, Json::Num(1.0));
        assert_eq!(
            req.unwrap(),
            Request::Open {
                path: "x.cpdb".into()
            }
        );

        let (_, req) = parse_request(r#"{"method":"expand","params":{"session":3,"node":9}}"#);
        assert_eq!(
            req.unwrap(),
            Request::Expand {
                session: 3,
                node: 9
            }
        );

        let (_, req) = parse_request(r#"{"method":"hot-path","params":{"session":1}}"#);
        assert_eq!(
            req.unwrap(),
            Request::HotPath {
                session: 1,
                threshold: None
            }
        );
    }

    #[test]
    fn ensemble_stats_defaults_and_bounds_top() {
        let (_, req) = parse_request(r#"{"method":"ensemble-stats","params":{"path":"e.cpens"}}"#);
        assert_eq!(
            req.unwrap(),
            Request::EnsembleStats {
                path: "e.cpens".into(),
                top: 10
            }
        );
        let (_, req) =
            parse_request(r#"{"method":"ensemble-stats","params":{"path":"e.cpens","top":1000}}"#);
        assert_eq!(
            req.unwrap(),
            Request::EnsembleStats {
                path: "e.cpens".into(),
                top: 1000
            }
        );
        for params in [r#"{"path":"e","top":1001}"#, r#"{"path":"e","top":-3}"#] {
            let (_, req) = parse_request(&format!(
                r#"{{"method":"ensemble-stats","params":{params}}}"#
            ));
            assert_eq!(req.unwrap_err().code, "invalid", "{params}");
        }
    }

    #[test]
    fn id_survives_a_bad_method() {
        let (id, req) = parse_request(r#"{"id":"abc","method":"frobnicate"}"#);
        assert_eq!(id, Json::Str("abc".into()));
        assert_eq!(req.unwrap_err().code, "unknown-method");
    }

    #[test]
    fn truncated_json_is_a_parse_error() {
        let (id, req) = parse_request(r#"{"id":1,"met"#);
        assert_eq!(id, Json::Null);
        assert_eq!(req.unwrap_err().code, "parse");
    }

    #[test]
    fn out_of_range_node_is_rejected_at_the_boundary() {
        let (_, req) =
            parse_request(r#"{"method":"expand","params":{"session":1,"node":4294967296}}"#);
        assert_eq!(req.unwrap_err().code, "invalid");
        let (_, req) = parse_request(r#"{"method":"expand","params":{"session":1,"node":-2}}"#);
        assert_eq!(req.unwrap_err().code, "invalid");
        let (_, req) = parse_request(r#"{"method":"expand","params":{"session":1,"node":1.5}}"#);
        assert_eq!(req.unwrap_err().code, "invalid");
    }

    #[test]
    fn wrong_param_types_are_invalid() {
        for line in [
            r#"{"method":"open","params":{"path":7}}"#,
            r#"{"method":"render","params":{"session":"one"}}"#,
            r#"{"method":"view","params":{"session":1,"view":"sideways"}}"#,
            r#"{"method":"open","params":[1,2]}"#,
            r#"[1,2,3]"#,
            r#""just a string""#,
        ] {
            let (_, req) = parse_request(line);
            assert_eq!(req.unwrap_err().code, "invalid", "{line}");
        }
    }

    #[test]
    fn responses_echo_ids_and_carry_codes() {
        let ok = response(&Json::Num(4.0), Ok(obj(vec![("pong", Json::Bool(true))])));
        assert_eq!(ok, r#"{"id":4,"ok":true,"result":{"pong":true}}"#);
        let err = response(
            &Json::Null,
            Err(RequestError::new("parse", "unexpected end of input")),
        );
        assert!(err.contains(r#""ok":false"#));
        assert!(err.contains(r#""code":"parse""#));
    }
}
