#!/usr/bin/env bash
# Compare every binary's stdout between a second checkout and this one.
#
#   scripts/cmp_stdout.sh PARENT_DIR
#
# PARENT_DIR is another checkout of this repository (for example a
# `git clone` at the parent commit). Both trees are built in release,
# each into its own target directory. Then each tree runs:
#   * every fig/table binary with default arguments and --threads 1;
#   * the same binaries at --threads 3, except table3, whose unordered
#     threaded sums are non-reproducible by design;
#   * each table9 invocation from .github/workflows/ci.yml, plus the
#     trace file that CI's observability step writes;
#   * the --emit-spec output of the binaries that speak the sweep
#     protocol, with default arguments and with each CI table9
#     argument list (the spec JSON is what the sweep coordinator reads,
#     and its hash keys every store entry);
#   * the merged report of each of those binaries at default arguments,
#     run through the tree's own `sweep` coordinator with --shards 3
#     and a fresh store under the temporary directory (this pins the
#     shard-file round trip against the other tree's bytes);
#   * the distributed_allreduce, gnn_reproducibility,
#     deterministic_hardware and trace_allreduce examples, plus the
#     trace file trace_allreduce writes (its seeded-ECMP run is the one
#     trace whose messages take route slots above 0).
# Every pair of outputs is compared with cmp. The script prints one line
# per comparison. When every pair is the same it deletes its output
# directory (a run leaves ~425 MB there) and exits 0; when any pair
# differs it keeps the directory, prints its path and exits 1.
#
# table8's "training wall time (..., host simulation)" line is host wall
# time, so it differs from run to run. It is masked before comparing.
set -euo pipefail

if [[ $# -ne 1 || ! -d "$1" ]]; then
    echo "usage: $0 PARENT_DIR" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$(dirname "$0")/.." && pwd)
out=$(mktemp -d "${TMPDIR:-/tmp}/cmp_stdout.XXXXXX")

# The table9 argument lists CI runs (ci.yml), one per line.
table9_args=(
    "--runs 5 --len 256"
    "--runs 5 --len 256 --segments 8"
    "--runs 5 --len 256 --load 0,0.5"
    "--runs 5 --len 256 --load 0,0.5 --route ecmp"
    "--runs 5 --len 256 --load 0,0.5 --route ecmp --link-stats"
    "--runs 5 --len 256 --load 0,0.5 --route ecmp --threads 4"
    "--runs 5 --len 256 --load 0,0.5 --place aware"
    "--runs 4 --len 96 --load 0,0.5 --seed 9"
    "--runs 2 --len 64 --load 0.5 --seed 9"
)
trace_args="--runs 2 --len 64 --load 0.5 --seed 9"

bins=$(cd "$change/crates/bench/src/bin" && ls ablations.rs fig*.rs table*.rs | sed 's/\.rs$//')
mask='s/^(training wall time \(.*host simulation\)).*/\1: <host time>/'
protocol_bins="fig1 table2 table5 table7 table9"

run_tree() {
    local tree=$1 side=$2
    local target="$tree/target"
    echo "== building $side ($tree)" >&2
    (cd "$tree" && CARGO_TARGET_DIR="$target" cargo build --release --offline -q \
        && CARGO_TARGET_DIR="$target" cargo build --release --offline -q \
            --example distributed_allreduce --example gnn_reproducibility \
            --example deterministic_hardware --example trace_allreduce)
    mkdir -p "$out/$side"
    for bin in $bins; do
        echo "== $side: $bin" >&2
        (cd "$tree" && "$target/release/$bin" --threads 1) | sed -E "$mask" > "$out/$side/$bin.out"
        if [[ $bin != table3 ]]; then
            (cd "$tree" && "$target/release/$bin" --threads 3) | sed -E "$mask" \
                > "$out/$side/$bin.threads3.out"
        fi
    done
    for bin in $protocol_bins; do
        (cd "$tree" && "$target/release/$bin" --emit-spec) > "$out/$side/$bin.spec.out"
        echo "== $side: sweep --bin $bin --shards 3" >&2
        (cd "$tree" && "$target/release/sweep" --bin "$bin" --shards 3 --store "$out/store-$side") \
            > "$out/$side/$bin.shards3.out"
    done
    local i=0
    for args in "${table9_args[@]}"; do
        echo "== $side: table9 $args" >&2
        # shellcheck disable=SC2086
        (cd "$tree" && "$target/release/table9" $args) > "$out/$side/table9.ci$i.out"
        # shellcheck disable=SC2086
        (cd "$tree" && "$target/release/table9" $args --emit-spec) > "$out/$side/table9.ci$i.spec.out"
        i=$((i + 1))
    done
    # shellcheck disable=SC2086
    (cd "$tree" && "$target/release/table9" $trace_args --trace "$out/$side/table9.trace.json") \
        > /dev/null
    for example in distributed_allreduce gnn_reproducibility deterministic_hardware trace_allreduce; do
        echo "== $side: example $example" >&2
        (cd "$tree" && "$target/release/examples/$example") > "$out/$side/$example.out"
    done
    cp "$tree/target/obs/trace_allreduce.json" "$out/$side/trace_allreduce.trace.json"
}

run_tree "$parent" parent
run_tree "$change" change

status=0
for f in "$out"/parent/*; do
    name=$(basename "$f")
    if cmp -s "$f" "$out/change/$name"; then
        echo "same     $name"
    else
        echo "DIFFERS  $name"
        status=1
    fi
done
if [[ $status -eq 0 ]]; then
    rm -rf "$out"
else
    echo "outputs kept in $out"
fi
exit $status
