#!/usr/bin/env sh
# CI gate: format, build, test, lint, crash matrix, bench regression.
#
# The workspace is fully self-contained: every external crate (rand,
# serde, proptest, criterion, ...) is a vendored path dependency under
# vendor/, so all commands run offline and reproduce on a network-less
# machine. No registry access, no lockfile churn.
#
# This script is the single local entry point AND the unit the GitHub
# workflows are built from. CI job layout (.github/workflows/):
#
#   ci.yml (every push/PR) — five parallel jobs sharing one cargo
#   cache, each invoking this script with a CI_STEPS selector:
#     lint   -> CI_STEPS=lint  ./ci.sh   (fmt, no-wall-clock guard,
#               code ledger, knob ledger under its ceiling, clippy,
#               rustdoc)
#     test   -> CI_STEPS=test  ./ci.sh   (release build + full tests,
#               plus the standalone benchmark/ crate's own tests, so
#               a change to the API it uses fails here)
#     crash  -> CI_STEPS=crash ./ci.sh   (crash-recovery matrices)
#     paper  -> CI_STEPS=paper ./ci.sh   (reruns the five exp_* bins in
#               a scratch directory and cmp's their reports against
#               the committed experiments_*.json, so a change that
#               moves a paper table fails here instead of leaving
#               EXPERIMENTS.md stale, and prints a capped `diff -u`
#               of each report that moved; then diffs a `bingo` crawl +
#               resume session pinned to one CPU against an
#               unrestricted one)
#     bench  -> CI_STEPS=bench ./ci.sh   (bench gate, smoke mode;
#               uploads telemetry and writes a baseline-vs-actual
#               diff table to $GITHUB_STEP_SUMMARY on failure)
#   nightly.yml (cron + manual) — full-mode bench gate including the
#   million-page scale scenario, plus a wider crash-seed matrix.
#
# CI_STEPS selects which steps run, as a comma-separated list of
#   lint | test | crash | paper | bench
# (default: all of them, in local-friendly order). Examples:
#   CI_STEPS=lint ./ci.sh
#   CI_STEPS=test,crash ./ci.sh
#
# BENCH_GATE_MODE controls the bench step: "full" (default) runs the
# baseline-sized scenarios, "smoke" the reduced CI sizes, "skip"
# disables the bench gate (e.g. on heavily loaded shared runners).
# BENCH_GATE_ONLY restricts the gate to a comma-separated scenario
# subset; unset, every scenario runs (each has a checked-in
# BENCH_<scenario>.json baseline). The gate checks behaviour only — it
# reads no clock, each scenario's report is a pure function of the seed
# and two runs of it must agree; speed is measured by benchmark/run.sh.
# Beyond the baseline comparison, the serve scenario proves the
# snapshot-swap live index answers queries identically to a batch
# rebuild, the scale scenario crawls a paged world (a million pages in
# full mode) through the segmented store,
# checkpointing and resuming, failing the gate if peak-RSS growth leaves
# the fixed budget (rss_within_budget), and the dist scenario runs a
# multi-node coordinator/worker crawl through seeded node kills plus a
# process kill, gating exact calm-set convergence, kill/requeue
# coverage, and the size of the resume's work.
#
# BINGO_CRASH_SEEDS picks the seed matrix for the crash-recovery sweep
# (every byte budget of a checkpoint write, a store segment seal, a
# segment-referenced session save and the seal after it, the lease
# journal, and every file boundary of the two-phase distributed
# snapshot commit is crashed and recovered); the default widens the in-repo test default for CI
# coverage. BINGO_NODE_KILL_SEEDS picks the seed matrix for the
# node-kill chaos sweep (each seed: generated fault plan, mid-crawl
# process kill, resume must converge to the calm page set); nightly.yml
# fans much wider slices of both through the crash step.
set -eu

cd "$(dirname "$0")"

BENCH_GATE_MODE="${BENCH_GATE_MODE:-full}"
BENCH_GATE_ONLY="${BENCH_GATE_ONLY:-}"
BINGO_CRASH_SEEDS="${BINGO_CRASH_SEEDS:-1,2,3,11,12,13}"
BINGO_NODE_KILL_SEEDS="${BINGO_NODE_KILL_SEEDS:-41,42,43}"
CI_STEPS="${CI_STEPS:-lint,test,crash,paper,bench}"
STEP_TIMINGS=""
CI_OK=0

# Always print whatever step timings we have — also when a step fails
# under `set -eu` (the whole point of the trap: previously a failing
# step aborted before the summary and all timings were lost).
print_timings() {
    if [ "$CI_OK" = 1 ]; then
        echo "==> ci.sh: all green ($CI_STEPS)"
    else
        echo "==> ci.sh: FAILED (partial timings below)" >&2
    fi
    if [ -n "$STEP_TIMINGS" ]; then
        printf "%b" "$STEP_TIMINGS" | sed 's/^/    /'
    fi
}
trap print_timings EXIT

# step NAME CMD... — announce, run, and time one CI step.
step() {
    name="$1"
    shift
    echo "==> $name"
    start=$(date +%s)
    "$@"
    end=$(date +%s)
    STEP_TIMINGS="${STEP_TIMINGS}${name}: $((end - start))s\n"
}

# wants NAME — does CI_STEPS include this step?
wants() {
    case ",$CI_STEPS," in
    *",$1,"*) return 0 ;;
    *) return 1 ;;
    esac
}

for s in $(printf '%s' "$CI_STEPS" | tr ',' ' '); do
    case "$s" in
    lint | test | crash | paper | bench) ;;
    *)
        echo "error: unknown CI_STEPS entry '$s' (lint|test|crash|paper|bench)" >&2
        exit 2
        ;;
    esac
done

# Wall time has one home, benchmark/. Product crates read no clock, so
# their telemetry is deterministic by construction.
no_wall_clock() {
    hits=$(git grep -nE 'Instant|SystemTime|WallTimer|wall_histogram' \
        -- 'crates/*/src/*' ':!crates/bench' || true)
    if [ -n "$hits" ]; then
        echo "error: wall clock in product code (measure it in benchmark/):" >&2
        echo "$hits" >&2
        return 1
    fi
}

# The code ledger ROADMAP.md keeps: non-test lines of each crate's
# src/, counting each file's lines before its first #[cfg(test)]. Beside
# them, each crate's test lines: those #[cfg(test)] tails plus
# crates/<crate>/tests/, so that a "reduction" which only moved code
# into tests shows. Prints only; it gates nothing.
code_ledger() {
    total=0
    total_tests=0
    printf '    %-10s %6s %6s\n' crate code tests
    for src in crates/*/src; do
        crate=${src#crates/}
        crate=${crate%/src}
        set -- $(find "$src" -name '*.rs' -exec awk '
            FNR == 1 { skip = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
            { if (skip) t++; else n++ }
            END { print n + 0, t + 0 }' {} +)
        n=$1
        t=$2
        if [ -d "crates/$crate/tests" ]; then
            t=$((t + $(find "crates/$crate/tests" -name '*.rs' -exec cat {} + | wc -l)))
        fi
        printf '    %-10s %6d %6d\n' "$crate" "$n" "$t"
        total=$((total + n))
        total_tests=$((total_tests + t))
    done
    printf '    %-10s %6d %6d\n' total "$total" "$total_tests"
}

# The most settable values the knob ledger may count. A change that
# adds a setting raises this in the same diff, where review sees it.
KNOB_CEILING=89

# The knob ledger: every independently settable value, read as the
# `pub` fields of each `*Config` / `*Options` struct in crates/*/src
# (non-test code), per struct and in total. Fails when the total is
# above KNOB_CEILING.
knob_ledger() {
    ledger=$(find crates/*/src -name '*.rs' | sort | xargs awk '
        FNR == 1 { skip = 0; inside = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
        skip { next }
        /^pub struct [A-Za-z0-9_]*(Config|Options) \{/ {
            name = $3
            n = 0
            inside = !/\}$/
            if (!inside) printf "    %-28s %3d  %s\n", name, n, FILENAME
            next
        }
        inside && /^}/ {
            printf "    %-28s %3d  %s\n", name, n, FILENAME
            total += n
            inside = 0
            next
        }
        inside && /^    pub [a-z0-9_]+:/ { n++ }
        END { printf "    %-28s %3d\n", "total", total }')
    printf '%s\n' "$ledger"
    total=$(printf '%s\n' "$ledger" | awk '$1 == "total" { print $2 }')
    if [ "$total" -gt "$KNOB_CEILING" ]; then
        echo "error: $total settable values, above KNOB_CEILING=$KNOB_CEILING" >&2
        echo "       (make a one-value setting a constant, or raise the ceiling)" >&2
        return 1
    fi
}

# The committed experiments_*.json (and the EXPERIMENTS.md tables
# quoting them) are pure functions of the seeds in the exp_* harnesses.
# Rerun every harness in a scratch directory and require byte-identical
# reports; on a mismatch the scratch directory is kept for a diff.
paper_artifacts() {
    repo=$(pwd)
    scratch=$(mktemp -d)
    stale=""
    for exp in portal expert meta ablation faults; do
        (cd "$scratch" && "$repo/target/release/exp_$exp" >"$exp.log" 2>&1)
        if ! cmp -s "experiments_$exp.json" "$scratch/experiments_$exp.json"; then
            stale="$stale experiments_$exp.json"
            # The rows that moved, capped so one rewritten report cannot
            # flood the log.
            diff -u "experiments_$exp.json" "$scratch/experiments_$exp.json" |
                head -n 60 >&2
        fi
    done
    if [ -n "$stale" ]; then
        echo "error: regenerated reports differ from the committed ones:$stale" >&2
        echo "       (fresh copies and logs in $scratch; if the change is meant," >&2
        echo "       copy them over and correct EXPERIMENTS.md)" >&2
        return 1
    fi
    rm -rf "$scratch"
}

# The focused crawl prepares pages ahead on every core but one; the
# sessions it saves must not depend on how many cores that is. Crawl and
# resume once pinned to one CPU (no lookahead worker) and once
# unrestricted, and require the two session directories to be identical.
one_cpu_equals_all() {
    repo=$(pwd)
    scratch=$(mktemp -d)
    for run in one all; do
        pin=""
        [ "$run" = one ] && pin="taskset -c 0"
        mkdir "$scratch/$run"
        (cd "$scratch/$run" &&
            $pin "$repo/target/release/bingo" crawl --session S --seed 2003 --authors 300 &&
            $pin "$repo/target/release/bingo" resume --session S --seed 2003 --authors 300) \
            >"$scratch/$run.log" 2>&1
    done
    diff -r "$scratch/one/S" "$scratch/all/S"
    rm -rf "$scratch"
}

if wants lint; then
    step "cargo fmt --check" cargo fmt --all -- --check

    step "no wall clock in product crates" no_wall_clock

    step "code ledger (non-test and test lines per crate)" code_ledger

    step "knob ledger (pub fields of every *Config/*Options struct, at most $KNOB_CEILING)" knob_ledger
fi

if wants test; then
    step "cargo build --release" cargo build --release --offline --workspace

    step "cargo test" cargo test -q --offline --workspace

    # Every persisted byte goes through the vendored JSON codec. Its
    # crates sit inside the workspace, so the step above runs their tests
    # too; this one reports them under their own heading.
    step "cargo test (vendored JSON codec)" \
        cargo test -q --offline -p serde -p serde_json

    # benchmark/ is its own workspace over path deps on ../crates/*: a
    # refactor that breaks the API surface it froze must fail in CI,
    # not at benchmark time.
    step "cargo test (benchmark crate)" \
        cargo test -q --offline --manifest-path benchmark/Cargo.toml
fi

if wants crash; then
    step "crash matrix (seeds $BINGO_CRASH_SEEDS)" \
        env BINGO_CRASH_SEEDS="$BINGO_CRASH_SEEDS" \
        cargo test -q --offline -p bingo-crawler --test crash

    step "segment crash matrix (seeds $BINGO_CRASH_SEEDS)" \
        env BINGO_CRASH_SEEDS="$BINGO_CRASH_SEEDS" \
        cargo test -q --offline -p bingo-store --test segment_crash

    step "segmented session crash matrix (seeds $BINGO_CRASH_SEEDS)" \
        env BINGO_CRASH_SEEDS="$BINGO_CRASH_SEEDS" \
        cargo test -q --offline -p bingo-crawler --test segment_session_crash

    step "dist crash matrix (seeds $BINGO_CRASH_SEEDS)" \
        env BINGO_CRASH_SEEDS="$BINGO_CRASH_SEEDS" \
        cargo test -q --offline -p bingo-dist --test dist_crash

    step "node-kill chaos (seeds $BINGO_NODE_KILL_SEEDS)" \
        env BINGO_NODE_KILL_SEEDS="$BINGO_NODE_KILL_SEEDS" \
        cargo test -q --offline -p bingo-dist --test dist_chaos
fi

if wants paper; then
    step "cargo build --release" \
        cargo build --release --offline --workspace

    step "paper artifacts (experiments_*.json)" paper_artifacts

    step "one CPU = all CPUs (bingo crawl + resume)" one_cpu_equals_all
fi

if wants lint; then
    step "cargo clippy -D warnings" \
        cargo clippy --offline --workspace --all-targets -- -D warnings

    step "cargo doc -D warnings" \
        env RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps
fi

if wants bench; then
    # bench_gate rejects unknown scenario names.
    set -- --
    if [ -n "$BENCH_GATE_ONLY" ]; then
        set -- -- --only "$BENCH_GATE_ONLY"
    fi
    case "$BENCH_GATE_MODE" in
    full)
        step "bench_gate (full${BENCH_GATE_ONLY:+, --only $BENCH_GATE_ONLY})" \
            cargo run --release --offline -p bingo-bench --bin bench_gate "$@"
        ;;
    smoke)
        step "bench_gate (smoke${BENCH_GATE_ONLY:+, --only $BENCH_GATE_ONLY})" \
            cargo run --release --offline -p bingo-bench --bin bench_gate "$@" --smoke
        ;;
    skip)
        echo "==> bench_gate skipped (BENCH_GATE_MODE=skip)"
        ;;
    *)
        echo "error: unknown BENCH_GATE_MODE '$BENCH_GATE_MODE' (full|smoke|skip)" >&2
        exit 2
        ;;
    esac
fi

CI_OK=1
