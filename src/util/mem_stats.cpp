#include "util/mem_stats.h"

namespace jsonski::mem {

std::atomic<size_t> g_current{0};
std::atomic<size_t> g_peak{0};
std::atomic<size_t> g_allocations{0};

} // namespace jsonski::mem
