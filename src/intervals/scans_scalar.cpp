/**
 * @file
 * The scan loops compiled for the scalar kernel, with the same baseline
 * flags as kernels/scalar.cpp (src/CMakeLists.txt).
 */
#include "intervals/scan_loops.h"
#include "kernels/scalar.h"

namespace jsonski::intervals {

extern const Scans kScalarScans;
const Scans kScalarScans = makeScans<kernels::Scalar>();

} // namespace jsonski::intervals
