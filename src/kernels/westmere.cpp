/**
 * @file
 * Westmere-class kernel record: the Westmere policy
 * (kernels/westmere.h) behind a cpuid probe.
 *
 * Compiled with -msse4.2 -mpclmul only in this TU (see
 * src/CMakeLists.txt); the cpuid probe gates it at runtime.
 */
#include "kernels/kernels_internal.h"

#if JSONSKI_KERNELS_X86

#include "kernels/policy.h"
#include "kernels/westmere.h"

namespace jsonski::kernels {
namespace {

bool
supported()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") &&
           __builtin_cpu_supports("pclmul");
}

} // namespace

const Kernel kWestmereKernel = makeKernel<Westmere>(/*priority=*/1, supported);

} // namespace jsonski::kernels

#endif // JSONSKI_KERNELS_X86
