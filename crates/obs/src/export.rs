//! Snapshot → canonical experiment: the recorded span tree becomes a
//! CCT of procedure frames, span self-time becomes direct cost of a
//! `time` metric (so Eq. 1 exclusive = self time and Eq. 2 inclusive =
//! subtree wall time), and span closures become a `calls` metric.
//!
//! ## Mapping
//!
//! * Span node → [`ScopeKind::Frame`]: the span name is the procedure,
//!   the name's subsystem prefix (`viewer` of `viewer.render`) is the
//!   file, the load module is `callpath`, and the synthetic "line" is
//!   the node's arena index — stable, unique, and meaningful enough for
//!   the Flat View's module → file → procedure hierarchy to group spans
//!   by subsystem.
//! * Direct `time` cost at a node = recorded total minus the children's
//!   recorded totals, clamped at zero. The clamp matters under
//!   `core::pool` fan-out: children timed on threads of their own can sum
//!   to more wall time than their single-threaded parent, and clamping
//!   (rather than going negative) preserves the presentation invariant
//!   the acceptance test pins — every parent's inclusive time is at
//!   least the sum of its children's.
//! * Direct `calls` cost = the span's closure count.
//!
//! The result is an ordinary eager [`Experiment`]; callers wanting the
//! headline round trip write it with `callpath_expdb::to_binary_v21` and
//! reopen it lazily.

use crate::Snapshot;
use callpath_core::prelude::*;

/// Name of the exported wall-time metric (`ns` unit).
pub const TIME_METRIC_NAME: &str = "time";

/// Subsystem prefix of a span name: `viewer.render` → `viewer`, used as
/// the synthetic source file so the Flat View groups spans by layer.
fn subsystem(name: &str) -> &str {
    match name.split_once('.') {
        Some((prefix, _)) if !prefix.is_empty() => prefix,
        _ => "obs",
    }
}

/// Convert a recorded snapshot into a canonical experiment with `time`
/// (inclusive = subtree wall ns, exclusive = self ns) and `calls`
/// metrics, attributed per Eq. 1/2 by [`Experiment::build`]. An empty
/// snapshot (instrumentation disabled or nothing recorded) yields a
/// root-only experiment with zero totals.
pub fn to_experiment(snap: &Snapshot) -> Experiment {
    let mut names = NameTable::new();
    let module = names.module("callpath");

    let mut cct = Cct::new(NameTable::new());
    // Sum of children's recorded totals per snapshot index, for the
    // self-time clamp. Snapshot order puts parents before children.
    let mut child_ns = vec![0u64; snap.spans.len()];
    for s in snap.spans.iter().skip(1) {
        child_ns[s.parent] = child_ns[s.parent].saturating_add(s.total_ns);
    }

    // Build the frame arena: snapshot index → CCT node. Index 0 (the
    // synthetic root) maps onto the CCT root.
    let mut node_of = vec![cct.root(); snap.spans.len()];
    let mut defs = vec![SourceLoc::new(FileId(0), 0); snap.spans.len()];
    for (i, s) in snap.spans.iter().enumerate().skip(1) {
        let proc = names.proc(&s.name);
        let file = names.file(subsystem(&s.name));
        let def = SourceLoc::new(file, i as u32);
        let call_site = (s.parent != 0).then(|| defs[s.parent]);
        let kind = ScopeKind::Frame {
            proc,
            module,
            def,
            call_site,
        };
        node_of[i] = cct.add_child(node_of[s.parent], kind);
        defs[i] = def;
    }
    // The arena above was built against an empty name table; swap in
    // the populated one so labels resolve.
    cct.names = names;

    let mut raw = RawMetrics::new(StorageKind::Csr);
    let time = raw.add_metric(MetricDesc::new(TIME_METRIC_NAME, "ns", 1.0));
    let calls = raw.add_metric(MetricDesc::new("calls", "calls", 1.0));
    for (i, s) in snap.spans.iter().enumerate().skip(1) {
        let self_ns = s.total_ns.saturating_sub(child_ns[i]);
        if self_ns > 0 {
            raw.add_cost(time, node_of[i], self_ns as f64);
        }
        if s.count > 0 {
            raw.add_cost(calls, node_of[i], s.count as f64);
        }
    }

    Experiment::build(cct, raw, StorageKind::Csr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Snapshot, SpanRec};

    fn rec(name: &str, parent: usize, count: u64, total_ns: u64) -> SpanRec {
        SpanRec {
            name: name.to_owned(),
            parent,
            count,
            total_ns,
        }
    }

    fn sample() -> Snapshot {
        Snapshot {
            spans: vec![
                rec("(root)", 0, 0, 0),
                rec("viewer.render", 0, 10, 1_000),
                rec("viewer.full_sort", 1, 4, 600),
                rec("expdb.column_fault", 2, 2, 250),
            ],
            ..Default::default()
        }
    }

    #[test]
    fn span_tree_becomes_a_frame_cct() {
        let exp = to_experiment(&sample());
        assert_eq!(exp.cct.len(), 4, "root + three spans");
        let labels: Vec<String> = exp
            .cct
            .all_nodes()
            .map(|n| exp.cct.kind(n).label(&exp.cct.names))
            .collect();
        assert!(labels.iter().any(|l| l.contains("viewer.render")));
        assert!(labels.iter().any(|l| l.contains("expdb.column_fault")));
    }

    #[test]
    fn time_attribution_is_self_plus_children() {
        let exp = to_experiment(&sample());
        let time = MetricId(0);
        // Nodes are added in snapshot order: 1=render, 2=sort, 3=fault.
        let render = NodeId(1);
        let sort = NodeId(2);
        let fault = NodeId(3);
        assert_eq!(exp.inclusive(time, render), 1_000.0);
        assert_eq!(exp.exclusive(time, render), 400.0, "1000 - 600 self");
        assert_eq!(exp.inclusive(time, sort), 600.0);
        assert_eq!(exp.exclusive(time, sort), 350.0);
        assert_eq!(exp.exclusive(time, fault), 250.0);
        assert_eq!(exp.inclusive(time, exp.cct.root()), 1_000.0);
        // Calls metric rides along as the second column pair.
        let calls = MetricId(1);
        assert_eq!(exp.inclusive(calls, render), 16.0);
        assert_eq!(exp.exclusive(calls, fault), 2.0);
    }

    #[test]
    fn concurrent_children_clamp_to_zero_self_time() {
        // Shards timed on threads of their own can out-sum their parent.
        let snap = Snapshot {
            spans: vec![
                rec("(root)", 0, 0, 0),
                rec("prof.correlate", 0, 1, 1_000),
                rec("prof.shard_correlate", 1, 8, 3_000),
            ],
            ..Default::default()
        };
        let exp = to_experiment(&snap);
        let time = MetricId(0);
        assert_eq!(exp.exclusive(time, NodeId(1)), 0.0, "clamped, not negative");
        // Inclusive grows to cover the children: the child-sum ≤ parent
        // presentation invariant survives the fan-out.
        assert_eq!(exp.inclusive(time, NodeId(1)), 3_000.0);
    }

    #[test]
    fn empty_snapshot_exports_a_root_only_experiment() {
        let exp = to_experiment(&Snapshot::default());
        assert_eq!(exp.cct.len(), 1);
        assert_eq!(exp.raw.metric_count(), 2);
        assert_eq!(exp.aggregate(ColumnId(0)), 0.0);
    }
}
