/**
 * @file
 * Heap accounting used to reproduce Figure 13 (memory footprint).
 *
 * Binaries that link the `jsonski_memhook` library get global
 * operator new/delete replacements that maintain the counters declared
 * here.  Binaries that do not link it still compile against this header;
 * the counters then simply stay at zero.
 */
#ifndef JSONSKI_UTIL_MEM_STATS_H
#define JSONSKI_UTIL_MEM_STATS_H

#include <atomic>
#include <cstddef>

namespace jsonski::mem {

/** Live heap bytes allocated through the hooked operators. */
extern std::atomic<size_t> g_current;

/** High-water mark of g_current since the last resetPeak(). */
extern std::atomic<size_t> g_peak;

/** Allocations made through the hooked operators, ever. */
extern std::atomic<size_t> g_allocations;

/** Current live heap bytes. */
inline size_t current() { return g_current.load(std::memory_order_relaxed); }

/** Peak live heap bytes since the last resetPeak(). */
inline size_t peak() { return g_peak.load(std::memory_order_relaxed); }

/** Allocation calls so far (a count, not bytes). */
inline size_t
allocations()
{
    return g_allocations.load(std::memory_order_relaxed);
}

/** Reset the peak tracker to the current live size. */
inline void
resetPeak()
{
    g_peak.store(g_current.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
}

} // namespace jsonski::mem

#endif // JSONSKI_UTIL_MEM_STATS_H
