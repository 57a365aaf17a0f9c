/**
 * @file
 * Portable scalar kernel record: the Scalar policy (kernels/scalar.h).
 * Runnable on every host; the reference everything else is
 * differentially tested against, and the floor the per-kernel bench
 * sweep measures the SIMD speedup from (paper §4).
 *
 * Built with baseline codegen flags even when the rest of the tree uses
 * -march=native, so "scalar" genuinely means scalar (see
 * src/CMakeLists.txt per-source options).
 */
#include "kernels/kernels_internal.h"
#include "kernels/policy.h"
#include "kernels/scalar.h"

namespace jsonski::kernels {
namespace {

bool
supported()
{
    return true;
}

} // namespace

const Kernel kScalarKernel = makeKernel<Scalar>(/*priority=*/0, supported);

} // namespace jsonski::kernels
