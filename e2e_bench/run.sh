#!/usr/bin/env bash
# Builds the benchmark (Release, once per checkout; later runs only
# re-check the build) and runs it with the given arguments, e.g.
#
#   bash e2e_bench/run.sh --workload explore-lz4-bricked --seed 0 \
#       --seconds 20 --trace 0
#
# Run it from the repository root. Build output goes to stderr and to
# $CARGO_TARGET_DIR/e2e_bench (default .bench_build/e2e_bench); the last
# stdout line is the benchmark's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}/e2e_bench"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j 4 --target e2e_bench >&2
exec "$build/e2e_bench" "$@"
