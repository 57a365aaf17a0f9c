/**
 * @file
 * Global operator new/delete replacements that account every heap
 * allocation.  Linked only into binaries that need Figure 13's memory
 * measurements (and the mem_stats unit test); everything else uses the
 * default allocator untouched.
 *
 * The size of each allocation is remembered in a small header placed in
 * front of the user block so sized and unsized deallocation both work.
 */
#include "util/mem_stats.h"

#include <cstdlib>
#include <new>

namespace jsonski::mem {
namespace {

constexpr size_t kHeader = 2 * sizeof(std::max_align_t);

void
add(size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    size_t cur =
        g_current.fetch_add(n, std::memory_order_relaxed) + n;
    size_t peak = g_peak.load(std::memory_order_relaxed);
    while (cur > peak &&
           !g_peak.compare_exchange_weak(peak, cur,
                                         std::memory_order_relaxed)) {
    }
}

void*
allocate(size_t n)
{
    void* raw = std::malloc(n + kHeader);
    if (!raw)
        throw std::bad_alloc();
    *static_cast<size_t*>(raw) = n;
    add(n);
    return static_cast<char*>(raw) + kHeader;
}

void
release(void* p) noexcept
{
    if (!p)
        return;
    void* raw = static_cast<char*>(p) - kHeader;
    size_t n = *static_cast<size_t*>(raw);
    g_current.fetch_sub(n, std::memory_order_relaxed);
    std::free(raw);
}

} // namespace
} // namespace jsonski::mem

void*
operator new(size_t n)
{
    return jsonski::mem::allocate(n);
}

void*
operator new[](size_t n)
{
    return jsonski::mem::allocate(n);
}

void
operator delete(void* p) noexcept
{
    jsonski::mem::release(p);
}

void
operator delete[](void* p) noexcept
{
    jsonski::mem::release(p);
}

void
operator delete(void* p, size_t) noexcept
{
    jsonski::mem::release(p);
}

void
operator delete[](void* p, size_t) noexcept
{
    jsonski::mem::release(p);
}
