/**
 * @file
 * The scan loops compiled for the westmere kernel, with the same pinned
 * flags as kernels/westmere.cpp (src/CMakeLists.txt).
 */
#include "kernels/kernels_internal.h"

#if JSONSKI_KERNELS_X86

#include "intervals/scan_loops.h"
#include "kernels/westmere.h"

namespace jsonski::intervals {

extern const Scans kWestmereScans;
const Scans kWestmereScans = makeScans<kernels::Westmere>();

} // namespace jsonski::intervals

#endif // JSONSKI_KERNELS_X86
