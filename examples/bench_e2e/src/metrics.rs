//! The metric tables (the same names, units and bounds BENCHMARK.json
//! lists — `tests.rs` keeps the two in step) and the arithmetic shared
//! by every workload: percentiles, digests, process memory.

use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen;
    /// 0 for per-layer metrics, which have no bound.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

pub const WORKLOADS: [&str; 4] = ["nav_mid", "nav_large", "serve_loopback", "batch_job"];

/// Every one is reported on every workload (README.md, "Metrics").
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("first_paint_ms_p50", "ms", "lower", 0.25),
    e2e("op_ms_p50", "ms", "lower", 0.25),
    e2e("op_ms_p95", "ms", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.15),
    e2e("db_bytes_per_nnz", "bytes", "lower", 0.05),
];

/// Printed with every result and derived from the result line's
/// `failed` and `attempted`, but not a BENCHMARK.json metric: it must
/// stay 0, and the contract takes no metric that is always 0.
pub const ERROR_RATE: MetricDef = e2e("error_rate", "fraction", "lower", 0.0);

/// Per-layer metrics of the traced run. A workload that does not reach
/// a layer reports 0 for it (README.md has the layer → workload table).
pub const PER_LAYER: [MetricDef; 62] = [
    layer("expdb.open_lazy_path_ms_p50", "ms", "lower"),
    layer("expdb.fault_column_ms_p50", "ms", "lower"),
    layer("expdb.columns_faulted_per_session", "count", "lower"),
    layer("expdb.lazy_errors", "count", "lower"),
    layer("expdb.decode_all_ms_p50", "ms", "lower"),
    layer("expdb.decode_all_ns_per_nnz", "ns", "lower"),
    layer("expdb.encode_v21_ms_p50", "ms", "lower"),
    layer("expdb.encode_v21_mb_per_s", "MB/s", "higher"),
    layer("expdb.ens_open_ms_p50", "ms", "lower"),
    layer("expdb.cpens_encode_ms_p50", "ms", "lower"),
    layer("expdb.bytes_per_nnz", "bytes", "lower"),
    layer("core.attribute_ms_p50", "ms", "lower"),
    layer("core.attribute_ns_per_node", "ns", "lower"),
    layer("core.attribute_all_ms_p50", "ms", "lower"),
    layer("core.view_build_callers_ms_p50", "ms", "lower"),
    layer("core.view_build_flat_ms_p50", "ms", "lower"),
    layer("core.sort_ms_p50", "ms", "lower"),
    layer("core.top_k_ms_p50", "ms", "lower"),
    layer("core.hot_path_ms_p50", "ms", "lower"),
    layer("core.pool_tasks_run", "count", "lower"),
    layer("core.pool_tasks_stolen", "count", "higher"),
    layer("viewer.apply_ms_p50", "ms", "lower"),
    layer("viewer.render_ms_p50", "ms", "lower"),
    layer("viewer.render_self_ms_p50", "ms", "lower"),
    layer("viewer.render_mb_per_s", "MB/s", "higher"),
    layer("viewer.render_bytes_per_session", "bytes", "lower"),
    layer("serve.rtt_ms_p50", "ms", "lower"),
    layer("serve.engine_ms_p50", "ms", "lower"),
    layer("serve.wire_ms_p50", "ms", "lower"),
    layer("serve.parse_request_us_p50", "us", "lower"),
    layer("serve.response_encode_us_p50", "us", "lower"),
    layer("serve.reply_mb_per_s", "MB/s", "higher"),
    layer("serve.requests_failed", "count", "lower"),
    layer("serve.sessions_evicted", "count", "lower"),
    layer("prof.correlate_ms_p50", "ms", "lower"),
    layer("prof.correlate_profiles_per_s", "1/s", "higher"),
    layer("prof.parallel_correlate_ms_p50", "ms", "lower"),
    layer("ensemble.build_union_ms_p50", "ms", "lower"),
    layer("ensemble.build_stats_ms_p50", "ms", "lower"),
    layer("ensemble.union_nodes", "count", "lower"),
    layer("analyze.query_cold_ms_p50", "ms", "lower"),
    layer("analyze.query_warm_ms_p50", "ms", "lower"),
    layer("analyze.query_ns_per_context", "ns", "lower"),
    layer("analyze.detectors_ms_p50", "ms", "lower"),
    layer("obs.span_pair_ns_p50", "ns", "lower"),
    layer("obs.spans_per_op", "count", "lower"),
    layer("workloads.generate_ms", "ms", "lower"),
    layer("share.expdb_pct", "%", "lower"),
    layer("share.core_pct", "%", "lower"),
    layer("share.viewer_pct", "%", "lower"),
    layer("share.serve_pct", "%", "lower"),
    layer("share.prof_pct", "%", "lower"),
    layer("share.ensemble_pct", "%", "lower"),
    layer("share.analyze_pct", "%", "lower"),
    layer("median_op.expdb_core_pct", "%", "lower"),
    layer("median_op.viewer_self_sort_pct", "%", "lower"),
    layer("median_op.columns_faulted", "count", "lower"),
    layer("tail_ops.view_build_pct", "%", "lower"),
    layer("bench.ops_traced", "count", "higher"),
    layer("bench.trace_overhead_pct", "%", "lower"),
    layer("bench.unexplained_pct", "%", "lower"),
    layer("bench.host_cores", "count", "higher"),
];

/// Metric values by name; what a workload hands back to `main`.
pub type Values = BTreeMap<&'static str, f64>;

/// Nearest-rank percentile (`q` in 0..=1) of an unsorted sample; 0 for
/// an empty one.
pub fn percentile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(sample: &[f64]) -> f64 {
    percentile(sample, 0.5)
}

/// FNV-1a over rendered text, eight bytes to the step (a session of
/// `nav_large` renders well over 100 MB) and with the high half folded
/// down after each, so that every byte reaches every bit: the output
/// check needs equality only.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        let mut mix = |word: u64| {
            let h = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
            self.0 = h ^ (h >> 32);
        };
        let words = bytes.chunks_exact(8);
        let rest = words.remainder();
        for w in words {
            mix(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        for &b in rest {
            mix(b as u64);
        }
        mix(bytes.len() as u64);
    }
}

/// `VmHWM` (peak resident set) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 100.0);
        // 95th of 200: ten samples lie beyond it.
        assert_eq!(percentile(&s, 0.95), 190.0);
        assert_eq!(percentile(&[3.0], 0.95), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn own_rss_is_readable() {
        assert!(peak_rss_mb(std::process::id()).unwrap() > 1.0);
    }
}
