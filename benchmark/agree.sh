#!/usr/bin/env bash
# Run two full sets of timed runs on the current code (default: ten
# seeds per workload per set, 2003..2012) and fail unless every
# end-to-end metric agrees within its bound of BENCHMARK.json: the
# spread inside each set (setup_s excepted) and set B's median against
# set A's. Prints per-metric medians and spreads. Takes about 25 minutes;
# `--runs 3` gives a quick look.
#
#   benchmark/agree.sh [--runs K] [--seed N] [--seconds S]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec "$here/run.sh" --agree "$@"
