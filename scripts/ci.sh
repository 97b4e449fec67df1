#!/usr/bin/env sh
# The full local gate, in the order failures are cheapest to find:
# formatting, lints as errors across every target, the test suite, its
# oracles once more optimized, the obs crate alone, and the benchmark's
# own checks and tests.
# One build reaches every file image and thread count: the oracles open
# each model through a mapped file (`open_lazy_path`, `open_path`,
# `ens::open`) and through bytes read into memory (`open_lazy`) in the
# same process, and pass thread counts explicitly
# (`decode_all_equals_serial_faults` at 0, 1 and 4; the ensemble
# statistics oracle built at 1 and 4), so no pass repeats the suite to
# flip a cargo feature or pin `CALLPATH_THREADS`.
# The workspace pass runs the depth tests of `tests/session_nav.rs` (a
# 100 000-level chain through both render walkers on a 64 KiB stack, a
# 2 000-level hot path whose rows keep label, column alignment and byte
# budget, rows above the indentation gutter byte-identical to before it),
# the cell property tests of `crates/core/src/format.rs` (the fast
# formatters equal `core::fmt` on random bit patterns and the edges) and
# every crate's unit tests, expdb's file-image tests among them.
set -eu
cd "$(dirname "$0")/.."
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc as errors: a broken or private intra-doc link fails here.
# `--lib`, because a binary and a library of one name collide in the
# doc output and cargo warns about that whatever the docs say.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib
cargo test -q --workspace
# Topology reads (`core::topo::Topo`) clamp out-of-range links and
# budget every walk in the code an optimized build runs, where no debug
# assertion or overflow check stands behind them, and the correlator's
# memo and its multiply-rotate hasher are release-mode code whose hits
# skip the structure entirely: the three oracles, the adversarial-link
# property and the encoded replay's oracle (`tests/arena_cct.rs`) and
# the 100 000-frame chain on a 256 KiB stack (in
# `tests/correlate_oracle.rs`) run once more in
# release mode, as every tool and the benchmark are built — and the lazy
# fault tests, whose parked halves and slot races are release code too.
# So do the run fingerprint's word mixer, the pinned `.cpens` digest and
# the statistics oracle over the summary kernel
# (`tests/ensemble_properties.rs`), and the one ranking comparator that
# puts NaN last (`tests/nan_scores.rs`): the benchmark and the CLI run
# them optimized. So does a session's row frame, whose hits skip the
# cell formatter: the warm ≡ cold replay (`tests/session_fuzz.rs`) and
# the reused/formatted row counts (`tests/session_cache_acceptance.rs`)
# run optimized too. So does the per-block flag that checksums a cost
# block once, which a first render sets for its shown columns before
# any row reads one (`tests/session_prefault.rs`, legs at 1 and 4
# threads). So does the walker's reused child buffer and its digit
# writers, which the benchmark's deep session script reaches past row
# 999 and depth 12 (`tests/session_nav.rs`).
cargo test -q --release --test attribution_oracle --test view_oracle --test arena_cct \
    --test correlate_oracle --test lazy_storage_acceptance --test lazy_fault_stress \
    --test ensemble_properties --test nan_scores --test session_fuzz \
    --test session_cache_acceptance --test session_prefault --test session_nav
# The obs crate alone builds without its `enabled` feature (the
# workspace pass turns it on), so this is the one place the no-op
# stubs' unit test (`disabled_stubs_record_nothing`) runs.
cargo test -q -p callpath-obs
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
# A report, never a failure: public functions whose name no other file
# mentions (see the script's header for the expected entries).
sh scripts/single_file_pub_fns.sh
