#!/usr/bin/env bash
# The one command of the benchmark: build release, then run.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last stdout line is the result
#       (this is the form BENCHMARK.json's `command` is called in)
#   benchmark/run.sh [--seed N] [--traced] [--seconds S] [--quick]
#       all four workloads, each in its own process; prints every metric
#       by name with its unit; exits 1 if a correctness check fails
#
# Builds offline from the crates one directory up; a directory without
# them fails here, before anything runs.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# A relative CARGO_TARGET_DIR means relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
BENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC BENCH_COMMIT

exec "$target/release/bingo-benchmark" \
    --out "$here/out" --spec "$here/../BENCHMARK.json" "$@"
