#!/usr/bin/env bash
# One-shot reproduction: build, test, regenerate every table/figure
# into results/, and verify the comparative shapes against the paper.
#
# Usage:  scripts/reproduce.sh [scale_mb]
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE_MB="${1:-32}"

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

mkdir -p results
for b in build/bench/bench_table4_datasets build/bench/bench_table5_queries \
         build/bench/bench_table23_methods \
         build/bench/bench_fig10_large_record build/bench/bench_fig11_small_seq \
         build/bench/bench_fig12_small_par build/bench/bench_fig13_memory \
         build/bench/bench_table6_ff_ratio build/bench/bench_fig14_scalability \
         build/bench/bench_ablation build/bench/bench_multiquery \
         build/bench/bench_ext_descendant; do
    name=$(basename "$b" | sed 's/^bench_//')
    echo "== $name =="
    "$b" "$SCALE_MB" | tee "results/${name}.txt"
done

python3 scripts/check_shapes.py results
