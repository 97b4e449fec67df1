#![warn(missing_docs)]
//! # callpath-obs
//!
//! Self-observability for the `callpath` pipeline: lightweight **span
//! timers**, **counters**, **histograms** and an **error set** feeding a
//! process-wide static registry, plus an exporter that turns the
//! recorded span tree into a canonical
//! [`Experiment`](callpath_core::experiment::Experiment) — so the tool can
//! present its *own* profile in its own three views (the paper's thesis
//! applied to the paper's tool).
//!
//! ## Recording model
//!
//! * [`span`] opens a timed region nested under the calling thread's
//!   current span (tracked in a thread local); dropping the returned
//!   [`SpanGuard`] closes it. Identical `(parent, name)` pairs aggregate
//!   into one node — the registry holds a *calling context tree of the
//!   instrumentation*, not a trace.
//! * [`span_under`] opens a region under an explicitly captured parent
//!   ([`current`]), which is how spans follow work handed to
//!   the threads of a `core::pool::chunked_map`: capture the parent
//!   before the fan-out, open shard spans under it inside the closure.
//! * [`count`] / [`observe`] add to a named counter / histogram;
//!   [`error`] records a message into a lock-protected list.
//!
//! Spans, counters and histograms resolve their registry entry through
//! one per-thread cache, keyed by `(parent, name address)` for spans and
//! by name address otherwise. Only the first time a thread sees a key
//! does it take a registry lock and hash the name's text; after that a
//! call costs one thread-local lookup and a relaxed atomic add (plus two
//! clock reads for spans). [`reset`] starts a fresh span arena and every
//! thread drops its cached span entries at its next open; counters and
//! histograms keep their identity, so those entries stay valid.
//!
//! ## Zero cost when disabled
//!
//! Everything above is behind the `enabled` cargo feature. Without it
//! this crate exports the same API as `#[inline]` empty bodies and
//! zero-sized guards, so instrumented code in `core`/`expdb`/`prof`/
//! `viewer` compiles to exactly what it was before instrumentation.
//!
//! ## Presentation
//!
//! [`snapshot`] freezes the registry into a plain-data [`Snapshot`];
//! [`Snapshot::to_json`] renders the `--stats` dump, and
//! [`to_experiment`] converts the span tree into a CCT with
//! inclusive/exclusive time (Eq. 1/2 attribution) and call-count
//! metrics, ready for `to_binary_v21` and all three views.

mod export;

use callpath_core::jsonval::Json;
use std::fmt::Write as _;

pub use export::{to_experiment, TIME_METRIC_NAME};

#[cfg(feature = "enabled")]
#[path = "imp_enabled.rs"]
mod imp;

#[cfg(not(feature = "enabled"))]
#[path = "imp_disabled.rs"]
mod imp;

pub use imp::{
    count, counter_value, current, enabled, error, observe, reset, snapshot, span, span_under,
    SpanGuard,
};

/// Opaque handle to a span-tree node, captured with [`current`] and
/// passed across threads to [`span_under`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub(crate) u32);

/// One aggregated span-tree node in a [`Snapshot`]. Index 0 is always
/// the synthetic root (zero time, zero count); `parent` indexes into
/// the same vector and parents always precede children.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Span name as given at the recording site, e.g. `viewer.render`.
    pub name: String,
    /// Index of the parent record (0 = root; the root points at itself).
    pub parent: usize,
    /// Number of times this `(calling context, name)` region closed.
    pub count: u64,
    /// Total wall-clock nanoseconds across all closures.
    pub total_ns: u64,
}

/// One histogram in a [`Snapshot`]: power-of-two buckets over `u64`
/// observations (bucket *i* holds values with *i* significant bits,
/// i.e. `[2^(i-1), 2^i)`; bucket 0 holds zeros).
#[derive(Debug, Clone, PartialEq)]
pub struct HistRec {
    /// Histogram name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// Non-empty `(significant_bits, count)` buckets, ascending.
    pub buckets: Vec<(u32, u64)>,
}

/// A frozen copy of the registry: everything the `--stats` dump and the
/// [`to_experiment`] exporter need, with no locks attached.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Aggregated span tree in arena order (index 0 = synthetic root).
    pub spans: Vec<SpanRec>,
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistRec>,
    /// Distinct error strings with occurrence counts, in first-seen
    /// order — the "surface *all* failures" half of the lazy-fault fix.
    pub errors: Vec<(String, u64)>,
}

impl Snapshot {
    /// True when nothing was recorded (also the permanent state with
    /// the `enabled` feature off).
    pub fn is_empty(&self) -> bool {
        self.spans.len() <= 1
            && self.counters.is_empty()
            && self.histograms.is_empty()
            && self.errors.is_empty()
    }

    /// Render the snapshot as the `--stats` JSON document. Stable key
    /// order, two-space indentation, no external dependencies; strings go
    /// through `core::jsonval`'s writer.
    pub fn to_json(&self) -> String {
        let string = |out: &mut String, s: &str| Json::Str(s.to_owned()).write(out);
        let comma = |i: usize, len: usize| if i + 1 < len { "," } else { "" };
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"obs_enabled\": {},", enabled());
        out.push_str("  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str("    {\"name\": ");
            string(&mut out, &s.name);
            let _ = writeln!(
                out,
                ", \"parent\": {}, \"count\": {}, \"total_ns\": {}}}{}",
                s.parent,
                s.count,
                s.total_ns,
                comma(i, self.spans.len())
            );
        }
        out.push_str("  ],\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            string(&mut out, name);
            let _ = write!(out, ": {v}");
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": [\n");
        for (i, h) in self.histograms.iter().enumerate() {
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(bits, n)| format!("[{bits}, {n}]"))
                .collect();
            out.push_str("    {\"name\": ");
            string(&mut out, &h.name);
            let _ = writeln!(
                out,
                ", \"count\": {}, \"sum\": {}, \"buckets\": [{}]}}{}",
                h.count,
                h.sum,
                buckets.join(", "),
                comma(i, self.histograms.len())
            );
        }
        out.push_str("  ],\n  \"errors\": [\n");
        for (i, (msg, n)) in self.errors.iter().enumerate() {
            out.push_str("    {\"message\": ");
            string(&mut out, msg);
            let _ = writeln!(out, ", \"count\": {n}}}{}", comma(i, self.errors.len()));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_serializes() {
        let s = Snapshot::default();
        assert!(s.is_empty());
        let json = s.to_json();
        assert!(json.contains("\"spans\""));
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"errors\""));
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_stubs_record_nothing() {
        assert!(!enabled());
        let _g = span("anything");
        let _h = span_under(current(), "nested");
        assert_eq!(current(), SpanId(0));
        assert_eq!(std::mem::size_of::<SpanGuard>(), 0);
        count("c", 5);
        observe("h", 42);
        error("boom");
        assert!(snapshot().is_empty());
        assert_eq!(counter_value("c"), 0);
        reset();
        assert!(snapshot().is_empty());
    }
}
