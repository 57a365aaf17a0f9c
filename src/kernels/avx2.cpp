/**
 * @file
 * AVX2 kernel record: the Avx2 policy (kernels/avx2.h) behind a cpuid
 * probe.
 *
 * Compiled with -mavx2 -mbmi -mbmi2 -mpclmul -mlzcnt only in this TU
 * (see src/CMakeLists.txt); the cpuid probe gates it at runtime.
 */
#include "kernels/kernels_internal.h"

#if JSONSKI_KERNELS_X86

#include "kernels/avx2.h"
#include "kernels/policy.h"

namespace jsonski::kernels {
namespace {

bool
supported()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") &&
           __builtin_cpu_supports("bmi2") &&
           __builtin_cpu_supports("pclmul");
}

} // namespace

const Kernel kAvx2Kernel = makeKernel<Avx2>(/*priority=*/2, supported);

} // namespace jsonski::kernels

#endif // JSONSKI_KERNELS_X86
