//! No-op stubs (`enabled` feature off): the same API surface as
//! `imp_enabled`, every body empty and `#[inline]`, every type
//! zero-sized — instrumented call sites compile away entirely, which is
//! what the feature-matrix CI build and the obs-off row of
//! `BENCH_obs_overhead.json` pin down.

use crate::{Snapshot, SpanId};

/// Is instrumentation compiled in? `false` in this build.
#[inline(always)]
pub fn enabled() -> bool {
    false
}

/// Stub: there is no span tree; always the root id.
#[inline(always)]
pub fn current() -> SpanId {
    SpanId(0)
}

/// Stub span guard: zero-sized, drops without effect.
#[must_use = "a span measures the region it is alive for"]
pub struct SpanGuard(());

/// Stub: returns an inert guard.
#[inline(always)]
pub fn span(_name: &'static str) -> SpanGuard {
    SpanGuard(())
}

/// Stub: returns an inert guard.
#[inline(always)]
pub fn span_under(_parent: SpanId, _name: &'static str) -> SpanGuard {
    SpanGuard(())
}

/// Stub: discards the increment.
#[inline(always)]
pub fn count(_name: &'static str, _delta: u64) {}

/// Stub: no counters exist; always 0.
#[inline(always)]
pub fn counter_value(_name: &str) -> u64 {
    0
}

/// Stub: discards the observation.
#[inline(always)]
pub fn observe(_name: &'static str, _value: u64) {}

/// Stub: discards the message.
#[inline(always)]
pub fn error(_message: &str) {}

/// Stub: always the empty snapshot.
#[inline(always)]
pub fn snapshot() -> Snapshot {
    Snapshot::default()
}

/// Stub: nothing to clear.
#[inline(always)]
pub fn reset() {}
