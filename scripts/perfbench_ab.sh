#!/usr/bin/env bash
# Run perfbench A/B pairs between a second checkout and this one.
#
#   scripts/perfbench_ab.sh PARENT_DIR WORKLOAD [PAIRS] [SECONDS] [SEED]
#
# PARENT_DIR is another checkout of this repository (for example a
# `git clone` at the parent commit). Both trees build perfbench in
# release first. Then the script runs PAIRS pairs (default 10) of the
# benchmark's own command from BENCHMARK.json in each tree, with
# `--workload WORKLOAD --seed SEED --seconds SECONDS` (defaults: seed 1
# and BENCHMARK.json's run_seconds). The side that runs first alternates
# from pair to pair, parent first in pair 1, because the host drifts.
#
# It prints:
#   * each run's end-to-end metrics and its failed/attempted ops;
#   * per metric, each side's median and quartiles (linear
#     interpolation), the ratio of the medians, and in how many pairs
#     the change beat the parent, the direction taken from the metric's
#     `better` in BENCHMARK.json (ties count for neither side);
#   * the failed/attempted totals of each side.
# It exits 1 if any run exits non-zero, prints no result line, or
# reports a failed op, and 2 on bad arguments.
set -euo pipefail

usage() {
    echo "usage: $0 PARENT_DIR WORKLOAD [PAIRS] [SECONDS] [SEED]" >&2
    exit 2
}
[[ $# -ge 2 && $# -le 5 && -d "$1" ]] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$(dirname "$0")/.." && pwd)
workload=$2
pairs=${3:-10}
seed=${5:-1}
bench="$change/BENCHMARK.json"
seconds=${4:-$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$bench")}
for n in "$pairs" "$seconds" "$seed"; do
    [[ $n =~ ^[0-9]+$ ]] || usage
done
[[ $pairs -ge 1 ]] || usage
mapfile -t command < <(python3 -c 'import json, sys; print("\n".join(json.load(open(sys.argv[1]))["command"]))' "$bench")
out=$(mktemp -d "${TMPDIR:-/tmp}/perfbench_ab.XXXXXX")

for side in parent change; do
    tree=${!side}
    echo "== building perfbench in the $side tree ($tree)" >&2
    (cd "$tree" && cargo build --release --offline -q --manifest-path perfbench/Cargo.toml)
done

run() {
    local side=$1 pair=$2
    local tree=${!side}
    echo "== pair $pair: $side" >&2
    local status=0
    (cd "$tree" && "${command[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds") \
        > "$out/$side.$pair.out" 2> "$out/$side.$pair.err" || status=$?
    echo "$status" > "$out/$side.$pair.status"
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2 == 1)); then
        run parent "$i"
        run change "$i"
    else
        run change "$i"
        run parent "$i"
    fi
done

python3 - "$bench" "$out" "$pairs" "$workload" "$seed" "$seconds" <<'EOF'
import json
import statistics
import sys

bench, out, pairs, workload, seed, seconds = sys.argv[1:]
pairs = int(pairs)
metrics = json.load(open(bench))["end_to_end"]
names = [m["name"] for m in metrics]
sides = ("parent", "change")
ok = True
results = {side: [] for side in sides}
totals = {side: [0, 0] for side in sides}

print(f"{workload}, seed {seed}, {seconds} s per run, {pairs} pairs")
print(f"{'pair':>4} {'side':<6} " + " ".join(f"{n:>12}" for n in names) + "  failed/attempted")
for pair in range(1, pairs + 1):
    for side in sides:
        stem = f"{out}/{side}.{pair}"
        status = int(open(stem + ".status").read())
        line = None
        for text in reversed(open(stem + ".out").read().splitlines()):
            if text.startswith("{"):
                line = json.loads(text)
                break
        if status != 0 or line is None:
            ok = False
            print(f"{pair:>4} {side:<6} exit {status}, no result; stderr in {stem}.err")
            results[side].append(None)
            continue
        totals[side][0] += line["failed"]
        totals[side][1] += line["attempted"]
        if line["failed"] or not line["correct"]:
            ok = False
        values = [line["metrics"][n]["value"] for n in names]
        results[side].append(values)
        print(f"{pair:>4} {side:<6} " + " ".join(f"{v:>12.4f}" for v in values)
              + f"  {line['failed']}/{line['attempted']}")

def spread(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print()
print(f"{'metric':<12} {'better':<6} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} {'ratio':>7} {'wins':>6}")
for k, m in enumerate(metrics):
    both = [(p[k], c[k]) for p, c in zip(results["parent"], results["change"]) if p and c]
    if not both:
        print(f"{m['name']:<12} no complete pair")
        continue
    p = spread([b[0] for b in both])
    c = spread([b[1] for b in both])
    higher = m["better"] == "higher"
    wins = sum(1 for a, b in both if (b > a if higher else b < a))
    print(f"{m['name']:<12} {m['better']:<6} "
          f"{p[1]:>12.4f} [{p[0]:.4f}, {p[2]:.4f}] {c[1]:>12.4f} [{c[0]:.4f}, {c[2]:.4f}] "
          f"{c[1] / p[1]:>7.3f} {wins:>3}/{len(both)}")
print()
for side in sides:
    failed, attempted = totals[side]
    print(f"{side}: {failed} failed of {attempted} attempted ops")
print(f"raw output: {out}")
sys.exit(0 if ok else 1)
EOF
