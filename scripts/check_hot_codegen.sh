#!/usr/bin/env bash
# Codegen guard for the scan loops compiled per SIMD kernel
# (intervals/scans_<kernel>.cpp, DESIGN.md §11).  Disassembles the avx2
# and westmere instantiations of a Release build and fails when any of
# them
#   - calls libgcc's __popcountdi2 (popcount must be one popcnt, which
#     the kernel flags imply),
#   - calls the dispatched per-block helpers rawEqBits or
#     classifyStringsBlock, or makes any indirect call (dispatch is once
#     per skip, never per block),
#   - emits a shared inline function that is not part of its own
#     kernel's instantiation: the linker keeps one copy of such a
#     function for the whole binary, so an AVX2-flagged copy could run
#     on a host without AVX2 (kernels/policy.h, "Flag discipline").
# A flag change or a helper call added to a loop therefore cannot
# silently bring back the libgcc or per-block calls.
#
# Usage: scripts/check_hot_codegen.sh [build-dir]
set -euo pipefail

BUILD=${1:-build}
fail=0

for kernel in avx2:Avx2 westmere:Westmere; do
    name=${kernel%%:*}
    policy=${kernel##*:}
    obj=$(find "$BUILD" -path "*jsonski_intervals.dir*" \
        -name "scans_${name}.cpp.o" | head -n 1)
    if [ -z "$obj" ]; then
        echo "check_hot_codegen: no scans_${name}.cpp.o under $BUILD" >&2
        exit 1
    fi
    fail_before=$fail
    fail=0
    asm=$(objdump -dr --no-show-raw-insn -C "$obj")
    loops=$(grep -c "ScanLoops<jsonski::kernels::${policy}>::[a-zA-Z]*(.*>:$" \
        <<<"$asm" || true)
    if [ "$loops" -lt 7 ]; then
        echo "FAIL $name: expected 7 compiled scan loops, found $loops" >&2
        fail=1
    fi
    bad=$(grep -E "__popcountdi2|rawEqBits|classifyStringsBlock|call +\*" \
        <<<"$asm" || true)
    if [ -n "$bad" ]; then
        echo "FAIL $name: forbidden call in the scan loops:" >&2
        echo "$bad" >&2
        fail=1
    fi
    shared=$(nm -C "$obj" | awk '$2 == "W" || $2 == "V"' |
        grep -v "jsonski::kernels::${policy}\b" || true)
    if [ -n "$shared" ]; then
        echo "FAIL $name: inline code shared with other kernels' TUs:" >&2
        echo "$shared" >&2
        fail=1
    fi
    if [ "$fail" -eq 0 ]; then
        echo "ok $name: $obj"
    fi
    fail=$((fail | fail_before))
done
exit "$fail"
