/** @file Tests for the heap-accounting hooks (linked via jsonski_memhook). */
#include "util/mem_stats.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gen/datasets.h"
#include "path/queryset.h"
#include "ski/multi.h"

namespace mem = jsonski::mem;

namespace {

/**
 * True when the global new/delete replacements are actually active.
 * Sanitizer builds intercept the allocator before our hooks, leaving
 * the counters untouched; the accounting tests then do not apply.
 */
bool
hooksActive()
{
    size_t before = mem::current();
    auto* p = new char[4096];
    // Keep the optimizer from eliding the allocation pair entirely
    // (permitted since C++14), which would fake an inactive hook.
    asm volatile("" : : "g"(p) : "memory");
    bool active = mem::current() > before;
    delete[] p;
    return active;
}

} // namespace

#define REQUIRE_HOOKS()                                                   \
    if (!hooksActive())                                                   \
    GTEST_SKIP() << "allocation hooks inactive (sanitizer build)"

TEST(MemStats, NewIncreasesCurrent)
{
    REQUIRE_HOOKS();
    size_t before = mem::current();
    auto p = std::make_unique<char[]>(1 << 20);
    EXPECT_GE(mem::current(), before + (1 << 20));
    p.reset();
    EXPECT_LT(mem::current(), before + (1 << 20));
}

TEST(MemStats, PeakTracksHighWater)
{
    REQUIRE_HOOKS();
    mem::resetPeak();
    size_t base = mem::peak();
    {
        std::vector<char> big(4 << 20);
        EXPECT_GE(mem::peak(), base + (4 << 20));
    }
    // Peak persists after the allocation is gone.
    EXPECT_GE(mem::peak(), base + (4 << 20));
}

TEST(MemStats, ResetPeakDropsToCurrent)
{
    {
        std::vector<char> big(2 << 20);
    }
    mem::resetPeak();
    EXPECT_EQ(mem::peak(), mem::current());
}

TEST(MemStats, BalancedAllocFree)
{
    mem::resetPeak();
    size_t before = mem::current();
    for (int i = 0; i < 100; ++i) {
        auto* p = new int[256];
        delete[] p;
    }
    EXPECT_EQ(mem::current(), before);
}

TEST(MemStats, MultiQueryPassAllocationsDoNotGrowWithTheDocument)
{
    REQUIRE_HOOKS();
    // The 100-query shared-prefix shape of bench_multiquery: a pass
    // allocates its result and its scratch once, never per visited
    // object, array or member.
    std::vector<std::string> texts = {"$.pd[*].name", "$.pd[*].price",
                                      "$.pd[*].cp[1:3].id",
                                      "$.pd[*].vc[*].cha"};
    while (texts.size() < 100)
        texts.push_back("$.pd[*].f" + std::to_string(texts.size()));
    jsonski::ski::MultiStreamer ms(
        jsonski::path::QuerySet::fromTexts(texts));
    std::string small =
        jsonski::gen::generateLarge(jsonski::gen::DatasetId::BB, 64 << 10);
    std::string big =
        jsonski::gen::generateLarge(jsonski::gen::DatasetId::BB, 1 << 20);

    auto allocationsOf = [&](const std::string& doc) {
        size_t before = mem::allocations();
        auto r = ms.run(doc);
        EXPECT_GT(r.matches[0], 0u);
        return mem::allocations() - before;
    };
    allocationsOf(small); // first-use statics (kernel choice, telemetry)
    EXPECT_EQ(allocationsOf(small), allocationsOf(big));
}

