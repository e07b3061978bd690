#!/usr/bin/env bash
# Alternating parent/change pairs of the benchmark: the comparison that
# docs/PERF.md "Comparing two commits" describes, as one command.
#
#   tools/pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD PAIRS SEED0 [ARGS...]
#
# PARENT_BIN and CHANGE_BIN are `ck_benchmark` binaries, each built from
# its own commit into its own CARGO_TARGET_DIR:
#
#   CARGO_TARGET_DIR=/tmp/parent cargo build --release --offline \
#       --manifest-path benchmark/Cargo.toml
#
# Pair i (from 0) runs both with `--workload WORKLOAD --seed SEED0+i`
# and ARGS (default `--seconds 15 --trace 0`); the parent runs first in
# even pairs and the change first in odd ones. Each run's last stdout
# line is its JSON summary. Prints one line per pair, then, for every
# end-to-end metric BENCHMARK.json declares (and every per-layer metric
# the runs report, with `--trace 1`), each side's median [quartiles],
# the change between the medians, and the pairs the change won. Exits 1
# if any run failed an operation or printed no summary.
set -euo pipefail

if [ "$#" -lt 5 ]; then
    sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 pairs=$4 seed0=$5
shift 5
[ "$#" -gt 0 ] || set -- --seconds 15 --trace 0
contract="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"

runs=$(mktemp -d)
trap 'rm -rf "$runs"' EXIT

# One run of side $1 (binary $2) for pair $3: its last line, or nothing.
run() {
    local out
    out=$("$2" --workload "$workload" --seed "$((seed0 + $3))" "${@:4}" 2>/dev/null) || true
    printf '%s\n' "$out" | tail -n 1 > "$runs/$1.$3"
}

for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
        run parent "$parent" "$i" "$@"
        run change "$change" "$i" "$@"
    else
        run change "$change" "$i" "$@"
        run parent "$parent" "$i" "$@"
    fi
    echo "pair $i, seed $((seed0 + i)), $( ((i % 2 == 0)) && echo parent || echo change) first" >&2
done

python3 - "$runs" "$contract" "$workload" "$pairs" "$seed0" <<'EOF'
import json, sys

runs, contract, workload, pairs, seed0 = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]), int(sys.argv[5])
declared = json.load(open(contract))
better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
end_to_end = [m["name"] for m in declared["end_to_end"]]

def load(side, i):
    try:
        return json.loads(open(f"{runs}/{side}.{i}").read())
    except (OSError, ValueError):
        return None

sides = {s: [load(s, i) for i in range(pairs)] for s in ("parent", "change")}
ok = True
for side, got in sides.items():
    for i, run in enumerate(got):
        if run is None:
            print(f"{side}, pair {i}: no JSON summary on the last line", file=sys.stderr)
            ok = False
        elif run["failed"] or not run["correct"]:
            print(f"{side}, pair {i}: {run['failed']} of {run['attempted']} operations failed", file=sys.stderr)
            ok = False

def value(run, name):
    m = run and run["metrics"].get(name)
    return m["value"] if m else None

def quantile(xs, q):
    # Linear interpolation between closest ranks.
    xs = sorted(xs)
    k = (len(xs) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)

def fmt(x):
    return f"{x:.4g}" if abs(x) < 1e4 else f"{x:.0f}"

print(f"{workload}: {pairs} pairs, seeds {seed0}-{seed0 + pairs - 1}")
for i in range(pairs):
    p, c = sides["parent"][i], sides["change"][i]
    cells = [f"{n} {fmt(value(p, n))} | {fmt(value(c, n))}" for n in end_to_end
             if value(p, n) is not None and value(c, n) is not None]
    if cells:
        print(f"  pair {i} (seed {seed0 + i}): {'  '.join(cells)}")

# A traced run reports every per-layer row, 0 where its workload does
# not measure it: those are left out.
names = end_to_end + sorted(
    {n for run in sides["parent"] + sides["change"] if run for n in run["metrics"]} - set(end_to_end)
)
print(f"  {'metric':<36} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} {'change':>9} {'won':>7}")
heading = False
for name in names:
    both = [(value(p, name), value(c, name)) for p, c in zip(sides["parent"], sides["change"])]
    both = [(p, c) for p, c in both if p is not None and c is not None]
    if not any(p or c for p, c in both):
        continue
    if name not in end_to_end and not heading:
        print("  per-layer:")
        heading = True
    lower = better.get(name, "lower") == "lower"
    won = sum((c < p) if lower else (c > p) for p, c in both)
    ps, cs = [p for p, _ in both], [c for _, c in both]
    pm, cm = quantile(ps, 0.5), quantile(cs, 0.5)
    delta = f"{(cm - pm) / pm * 100:+.1f} %" if pm else "-"
    side = lambda xs: f"{fmt(quantile(xs, 0.5))} [{fmt(quantile(xs, 0.25))}, {fmt(quantile(xs, 0.75))}]"
    print(f"  {name:<36} {side(ps):>30} {side(cs):>30} {delta:>9} {won:>3}/{len(both):<3}")
print(f"  operations failed: {'none' if ok else 'SOME (see above)'}")
sys.exit(0 if ok else 1)
EOF
