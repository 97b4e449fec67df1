#!/usr/bin/env bash
# Build the benchmark and the program under test, then run it.
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   run.sh --all [--seed N] [--seconds S] [--repeat K]
#   run.sh --check
#   run.sh --test            (the harness's own tests)
#
# Every argument is handed to the bench_e2e binary (main.rs has the
# details); this script only builds. Both builds go to one target
# directory: $CARGO_TARGET_DIR if set, else <repo>/target.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

if [ "${1:-}" = "--test" ]; then
    exec cargo test --release --manifest-path "$here/Cargo.toml"
fi

# Build output goes to stderr: stdout carries the result line.
cargo build --release --manifest-path "$root/Cargo.toml" --bin callpath-serve >&2
cargo build --release --manifest-path "$here/Cargo.toml" >&2

BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
exec "$target/release/bench_e2e" "$@"
