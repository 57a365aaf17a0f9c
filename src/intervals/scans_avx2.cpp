/**
 * @file
 * The scan loops compiled for the avx2 kernel, with the same pinned
 * flags as kernels/avx2.cpp (src/CMakeLists.txt).
 */
#include "kernels/kernels_internal.h"

#if JSONSKI_KERNELS_X86

#include "intervals/scan_loops.h"
#include "kernels/avx2.h"

namespace jsonski::intervals {

extern const Scans kAvx2Scans;
const Scans kAvx2Scans = makeScans<kernels::Avx2>();

} // namespace jsonski::intervals

#endif // JSONSKI_KERNELS_X86
