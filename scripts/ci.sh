#!/usr/bin/env sh
# The full local gate, in the order failures are cheapest to find:
# formatting, lints as errors across every target, then the test suite
# with the `mmap` feature on and off (the two passes below), the thread
# pin, and the benchmark's own checks and tests.
# Both feature passes run the depth tests of `tests/session_nav.rs` (a
# 100 000-level chain through both render walkers on a 64 KiB stack, a
# 2 000-level hot path whose rows keep label, column alignment and byte
# budget, rows above the indentation gutter byte-identical to before it)
# and the cell property tests of `crates/core/src/format.rs` (the fast
# formatters equal `core::fmt` on random bit patterns and the edges) —
# the first pass only for the latter, a unit test of the core crate.
set -eu
cd "$(dirname "$0")/.."
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test -q --workspace
# The zero-copy borrow path must behave identically from an owned
# aligned buffer: rerun the integration suite with `mmap` off.
cargo test -q --no-default-features --features obs
# The attribution oracle (`tests/attribution_oracle.rs`) and the
# fault-path properties ran in both passes above — topology borrowed
# from a mapped file, then from a read-to-`Vec` image. `decode_all`
# divides the column faults among threads, each running the kernel with
# its own scratch: `decode_all_equals_serial_faults` must hold whether
# the automatic count is 1 or 4. (`resolve_threads` reads the variable
# once per process, so it is set at process start.)
CALLPATH_THREADS=1 cargo test -q --test attribution_oracle --test lazy_storage_acceptance
CALLPATH_THREADS=4 cargo test -q --test attribution_oracle --test lazy_storage_acceptance
# Topology reads (`core::topo::Topo`) clamp out-of-range links and
# budget every walk in the code an optimized build runs, where no debug
# assertion or overflow check stands behind them, and the correlator's
# memo and its multiply-rotate hasher are release-mode code whose hits
# skip the structure entirely: the three oracles, the adversarial-link
# property (`tests/arena_cct.rs`) and the 100 000-frame chain on a
# 256 KiB stack (in `tests/correlate_oracle.rs`) run once more in
# release mode, as every tool and the benchmark are built.
cargo test -q --release --test attribution_oracle --test view_oracle --test arena_cct \
    --test correlate_oracle
# The `--no-default-features` pass above runs only the root package's
# tests, and the workspace pass compiles expdb with `mmap` on (feature
# unification through the root package), so this is the one place
# expdb's own unit tests see the read-to-buffer file image.
cargo test -q -p callpath-expdb
# The scoreboard's own checks: all four benchmark workloads at 1/50
# size with every output verification on (server render ≡ direct
# `Session` over TCP on three databases, eviction at a cap of 16) and no
# timing assertion, so a serve change that breaks a reply fails here
# rather than in the next benchmark run. Exits non-zero on any failed
# operation; under 15 s once built.
bash examples/bench_e2e/run.sh --check
# E7 at the size the benchmark does not reach yet: on a 10^6-node
# database a session's switch to the Callers View and to the Flat View
# (build, first columns, sort, render) is asserted under 2 s each — an
# optimized build, like the benchmark's; some 0.15 s each on two cores.
cargo test -q --release --test scalability -- --ignored million_node
# The harness's own tests (8, under a second once built). The harness is
# frozen for feature PRs, so with `--check` this is what proves the six
# signatures its adapter calls still compile as they are, and that a
# corrupt column still fails an operation.
bash examples/bench_e2e/run.sh --test
