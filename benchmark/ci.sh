#!/usr/bin/env bash
# The benchmark's CI entry point: unit tests, then the --quick variant
# of every workload (one tenth of the time, quick-scale tables, the same
# workload and metric names), then the failure-accounting hook. Under
# 30 s after the build. A later change wires this into
# .github/workflows/ci.yml; nothing here compares against a baseline.
#
#   benchmark/ci.sh            # tests + quick run + injected wrong answer
#   benchmark/ci.sh --traced   # also the quick traced pass and layer probes
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo test --offline --quiet --manifest-path "$manifest"
cargo build --release --offline --quiet --manifest-path "$manifest"
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/ck_benchmark"

"$bin" --quick
if [ "${1:-}" = "--traced" ]; then
    "$bin" --quick --traced
fi

# A wrong answer must be counted as one failed operation, reported as
# incorrect, and turn the exit code non-zero.
set +e
out=$("$bin" --quick --workload grain_sweep --inject-wrong-answer)
code=$?
set -e
last=$(printf '%s\n' "$out" | tail -n 1)
case "$last" in
    '{"correct": false, '*'"failed": 1, '*) ;;
    *) echo "injected wrong answer was not counted as 1 failed operation: $last" >&2; exit 1 ;;
esac
if [ "$code" -eq 0 ]; then
    echo "a run with a failed operation must not exit 0" >&2
    exit 1
fi
echo "ci: quick benchmark ok; injected wrong answer counted as 1 failed operation"
