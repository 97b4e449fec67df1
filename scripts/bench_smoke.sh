#!/usr/bin/env sh
# Perf smoke, in release mode:
#  * 64-rank ingestion through `ParallelCorrelator` on one thread and
#    on the automatic count, like for like, under a wall-clock budget
#    and a 1.10x ceiling on the sharded leg
#    -> BENCH_ingestion_smoke.json at the repo root;
#  * interactive navigation latency (expand-all / warm re-sort /
#    hot-path walk) -> BENCH_session_nav.json at the repo root;
#  * experiment-database open latency (cold open / first render /
#    decode_all, XML vs CPDB on s3d) -> BENCH_expdb_open.json
#    at the repo root;
#  * instrumentation overhead (session navigation with the obs feature
#    on vs off) -> BENCH_obs_overhead.json at the repo root. The two
#    runs write fragments under target/; the second one merges them;
#  * zero-copy scaling (million-node synthetic database: mmap cold
#    open vs a 33-node one, first-render fault counts, decode-all)
#    -> BENCH_zero_copy.json at the repo root. This row runs under a
#    hard wall-clock budget so a scaling regression fails the script
#    instead of silently stretching it (120 s: the run, three
#    decode-alls included, takes 15–35 s on two cores);
#  * thread scaling: every site that fans out through
#    `core::pool::chunked_map`, at 1/2/4/8 threads on the work it
#    divides (the sharded correlator on s3d x 64 ranks, where it loses,
#    and on 20 ranks of `batch_job`'s size, where it wins; `decode_all`
#    on `batch_job`'s database and on the million-node one; `run_spmd`
#    on 64 pflotran ranks) -> BENCH_thread_scaling.json at the repo
#    root, same hard-budget treatment;
#  * serving latency (4 concurrent protocol clients driving scripted
#    find/sort/hot-path/flatten sessions against a live callpath-serve,
#    exact client-side p50/p95 per request) -> BENCH_serve.json at the
#    repo root;
#  * ensemble scaling (1,000-run synthetic union supergraph at 1/2/4/8
#    threads, .cpens cold open + first sorted cross-run stats render
#    under a single-digit-ms gate, directory-only outlier scoring)
#    -> BENCH_ensemble.json at the repo root, same hard-budget
#    treatment;
#  * the analysis path (a sorted query over a 200k-context database,
#    one cold point — open, fault, evaluate — and one warm, with exact
#    lazy-fault counts; the waste detector on s3d; the perf gate over
#    the repo's own records) -> BENCH_analyze.json at the repo root.
set -eu
cd "$(dirname "$0")/.."
cargo test --release --test perf_smoke -- --ignored --nocapture
cargo test --release --test session_nav -- --ignored --nocapture
cargo test --release --test expdb_open_smoke -- --ignored --nocapture
timeout 120 cargo test --release --test zero_copy_smoke -- --ignored --nocapture
timeout 900 cargo test --release --test thread_scaling -- --ignored --nocapture
timeout 120 cargo test --release --test serve_smoke -- --ignored --nocapture
timeout 900 cargo test --release --test ensemble_smoke -- --ignored --nocapture
timeout 900 cargo test --release --test analyze_smoke -- --ignored --nocapture
rm -f target/obs_overhead_on.json target/obs_overhead_off.json
cargo test --release --test obs_overhead -- --ignored --nocapture
cargo test --release --no-default-features --test obs_overhead -- --ignored --nocapture
