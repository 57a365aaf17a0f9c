/**
 * @file
 * Tests for the telemetry substrate: histogram bucketing, trace-ring
 * wraparound, registry merge/reset, scope install semantics, exporter
 * output validity, and the gated-hook contract (hooks record when
 * JSONSKI_TELEMETRY=ON, stay silent when OFF).  The differential check
 * that telemetry skipped-byte totals equal FastForwardStats (Table 6
 * accounting) lives here too.
 */
#include "telemetry/telemetry.h"

#include <gtest/gtest.h>

#include <string>

#include "json/validate.h"
#include "path/parser.h"
#include "ski/stats.h"
#include "ski/streamer.h"
#include "telemetry/export.h"

using namespace jsonski;
using namespace jsonski::telemetry;

TEST(SkipHistogramTest, Log2Bucketing)
{
    SkipHistogram h;
    h.add(0); // bit_width(0) == 0
    h.add(1); // bucket 1: [1, 2)
    h.add(2); // bucket 2: [2, 4)
    h.add(3);
    h.add(4); // bucket 3: [4, 8)
    h.add(7);
    h.add(64); // bucket 7: [64, 128)
    h.add(~uint64_t{0}); // bucket 64
    EXPECT_EQ(h.buckets[0], 1u);
    EXPECT_EQ(h.buckets[1], 1u);
    EXPECT_EQ(h.buckets[2], 2u);
    EXPECT_EQ(h.buckets[3], 2u);
    EXPECT_EQ(h.buckets[7], 1u);
    EXPECT_EQ(h.buckets[64], 1u);
    EXPECT_EQ(h.count(), 8u);
}

TEST(SkipHistogramTest, Merge)
{
    SkipHistogram a, b;
    a.add(5);
    b.add(5);
    b.add(100);
    a.merge(b);
    EXPECT_EQ(a.buckets[3], 2u);
    EXPECT_EQ(a.buckets[7], 1u);
    EXPECT_EQ(a.count(), 3u);
}

namespace {

TraceEntry
entry(uint64_t i)
{
    return TraceEntry{i, i + 10, static_cast<uint16_t>(i % 7),
                      static_cast<uint8_t>(i % 5)};
}

} // namespace

TEST(TraceRingTest, FillsUpToCapacity)
{
    TraceRing ring(4);
    for (uint64_t i = 0; i < 3; ++i)
        ring.push(entry(i));
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.total(), 3u);
    EXPECT_EQ(ring.dropped(), 0u);
    auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    for (uint64_t i = 0; i < 3; ++i)
        EXPECT_EQ(snap[i], entry(i));
}

TEST(TraceRingTest, WraparoundKeepsNewestOldestFirst)
{
    TraceRing ring(4);
    for (uint64_t i = 0; i < 10; ++i)
        ring.push(entry(i));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.total(), 10u);
    EXPECT_EQ(ring.dropped(), 6u);
    auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    // Oldest retained entry first: 6, 7, 8, 9.
    for (uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(snap[i], entry(6 + i)) << i;
}

TEST(TraceRingTest, ZeroCapacityCountsButRetainsNothing)
{
    TraceRing ring(0);
    for (uint64_t i = 0; i < 5; ++i)
        ring.push(entry(i));
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.total(), 5u);
    EXPECT_EQ(ring.dropped(), 5u);
    EXPECT_TRUE(ring.snapshot().empty());
}

TEST(TraceRingTest, MergePreservesTotalsAndOrder)
{
    TraceRing a(8), b(2);
    a.push(entry(0));
    for (uint64_t i = 1; i < 5; ++i)
        b.push(entry(i)); // b retains 3, 4; dropped 2
    a.merge(b);
    EXPECT_EQ(a.total(), 5u); // 1 own + 2 retained + 2 dropped in b
    auto snap = a.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0], entry(0));
    EXPECT_EQ(snap[1], entry(3));
    EXPECT_EQ(snap[2], entry(4));
}

TEST(TraceRingTest, ClearResets)
{
    TraceRing ring(2);
    ring.push(entry(0));
    ring.push(entry(1));
    ring.push(entry(2));
    ring.clear();
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.total(), 0u);
    ring.push(entry(7));
    EXPECT_EQ(ring.snapshot().size(), 1u);
}

TEST(RegistryTest, MergeIsElementWise)
{
    Registry a, b;
    a.counters[0] = 2;
    b.counters[0] = 3;
    a.skipped[1] = 100;
    b.skipped[1] = 50;
    b.skipped[4] = 7;
    a.skip_hist[1].add(100);
    b.skip_hist[1].add(50);
    b.trace.push(entry(1));
    a.merge(b);
    EXPECT_EQ(a.counters[0], 5u);
    EXPECT_EQ(a.skipped[1], 150u);
    EXPECT_EQ(a.skipped[4], 7u);
    EXPECT_EQ(a.skippedTotal(), 157u);
    EXPECT_EQ(a.skip_hist[1].count(), 2u);
    EXPECT_EQ(a.trace.total(), 1u);
}

TEST(RegistryTest, ResetZeroesEverything)
{
    Registry r;
    r.counters[3] = 9;
    r.skipped[2] = 11;
    r.skip_hist[2].add(11);
    r.trace.push(entry(0));
    r.reset();
    EXPECT_EQ(r.counter(Counter::PairingFallbackParses), 0u);
    EXPECT_EQ(r.skippedTotal(), 0u);
    EXPECT_EQ(r.skip_hist[2].count(), 0u);
    EXPECT_EQ(r.trace.total(), 0u);
}

TEST(ScopeTest, InstallsAndRestoresNested)
{
    EXPECT_EQ(current(), nullptr);
    Registry outer, inner;
    {
        Scope a(outer);
        EXPECT_EQ(current(), &outer);
        {
            Scope b(inner);
            EXPECT_EQ(current(), &inner);
        }
        EXPECT_EQ(current(), &outer);
    }
    EXPECT_EQ(current(), nullptr);
}

TEST(HooksTest, GatedOnBuildConfig)
{
    Registry reg;
    {
        Scope scope(reg);
        count(Counter::CursorReseeks);
        count(Counter::BytesScanned, 64);
        recordSkip(2, 10, 25, 3);
    }
    if (kEnabled) {
        EXPECT_EQ(reg.counter(Counter::CursorReseeks), 1u);
        EXPECT_EQ(reg.counter(Counter::BytesScanned), 64u);
        EXPECT_EQ(reg.skipped[2], 15u);
        EXPECT_EQ(reg.skip_hist[2].count(), 1u);
        ASSERT_EQ(reg.trace.total(), 1u);
        EXPECT_EQ(reg.trace.snapshot()[0],
                  (TraceEntry{10, 25, 3, 2}));
    } else {
        EXPECT_EQ(reg.counter(Counter::CursorReseeks), 0u);
        EXPECT_EQ(reg.skippedTotal(), 0u);
        EXPECT_EQ(reg.trace.total(), 0u);
    }
}

TEST(HooksTest, SilentWithoutScope)
{
    // No registry installed: hooks must not crash, whatever the config.
    count(Counter::BlocksClassified);
    recordSkip(0, 0, 64, 0);
}

namespace {

Registry
sampleRegistry()
{
    Registry r;
    r.counters[0] = 42;
    r.counters[5] = 4096;
    r.skipped[0] = 1000;
    r.skipped[3] = 9;
    r.skip_hist[0].add(1000);
    r.skip_hist[3].add(9);
    r.trace.push(TraceEntry{0, 1000, 1, 0});
    r.trace.push(TraceEntry{1200, 1209, 2, 3});
    return r;
}

} // namespace

TEST(ExportTest, JsonIsWellFormed)
{
    Registry r = sampleRegistry();
    std::string out = toJson(r);
    auto v = json::validate(out);
    EXPECT_TRUE(v.ok) << v.message << " at " << v.error_position
                      << "\n" << out;
    EXPECT_NE(out.find("\"skipped_bytes\""), std::string::npos);
    EXPECT_NE(out.find("\"G1\":1000"), std::string::npos);
    EXPECT_NE(out.find("\"blocks_classified\":42"), std::string::npos);
    EXPECT_NE(out.find("\"trace\""), std::string::npos);
    // The empty registry must also be valid JSON.
    Registry empty;
    EXPECT_TRUE(json::validate(toJson(empty)).ok);
}

TEST(ExportTest, PrometheusHasMetricFamilies)
{
    std::string out = toPrometheus(sampleRegistry());
    EXPECT_NE(out.find("jsonski_counter_total{name=\"blocks_classified\"} 42"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("jsonski_skipped_bytes_total{group=\"G1\"} 1000"),
              std::string::npos);
    EXPECT_NE(out.find("# TYPE"), std::string::npos);
    EXPECT_NE(out.find("+Inf"), std::string::npos);
}

TEST(ExportTest, PrometheusExtraLabels)
{
    std::string out = toPrometheus(sampleRegistry(), "run=\"r1\"");
    EXPECT_NE(out.find("{run=\"r1\",name=\"blocks_classified\"}"),
              std::string::npos)
        << out;
}

TEST(ExportTest, RenderReportMentionsEveryCounter)
{
    std::string out = renderReport(sampleRegistry());
    for (size_t c = 0; c < kCounterCount; ++c)
        EXPECT_NE(out.find(counterName(static_cast<Counter>(c))),
                  std::string::npos)
            << counterName(static_cast<Counter>(c));
}

TEST(StatsTest, RatiosClampToOne)
{
    // A record-stream accumulation can exceed the single-document
    // length handed to ratio(); the accessors clamp (stats.h contract).
    ski::FastForwardStats stats;
    stats.add(ski::Group::G1, 500);
    stats.add(ski::Group::G2, 700);
    EXPECT_DOUBLE_EQ(stats.ratio(ski::Group::G1, 100), 1.0);
    EXPECT_DOUBLE_EQ(stats.overallRatio(100), 1.0);
    EXPECT_DOUBLE_EQ(stats.overallRatio(0), 0.0);
    EXPECT_LE(stats.ratio(ski::Group::G1, 1000), 0.5);
}

// Differential check (Table 6 accounting): the registry's per-group
// byte totals must equal FastForwardStats for the same run when the
// hooks are compiled in, and stay zero when they are compiled out.
TEST(IntegrationTest, TelemetryMatchesFastForwardStats)
{
    std::string json = R"({"pd":[)";
    for (int i = 0; i < 200; ++i) {
        if (i != 0)
            json += ',';
        json += R"({"id":)" + std::to_string(i) +
                R"(,"pad":"xxxxxxxxxxxxxxxxxxxxxxxx","cp":[1,2,3],)" +
                R"("deep":{"a":{"b":[1,2,3,4,5,6,7,8]}}})";
    }
    json += R"(],"tail":"end"})";

    ski::Streamer streamer(path::parse("$.pd[*].id"));
    Registry reg;
    ski::StreamResult result;
    {
        Scope scope(reg);
        result = streamer.run(json);
    }
    EXPECT_EQ(result.matches, 200u);
    ASSERT_GT(result.stats.total(), 0u);

    for (size_t g = 0; g < ski::kGroupCount; ++g) {
        uint64_t expected =
            kEnabled ? result.stats.get(static_cast<ski::Group>(g)) : 0;
        EXPECT_EQ(reg.skipped[g], expected) << "G" << (g + 1);
        EXPECT_EQ(kEnabled && expected > 0,
                  reg.skip_hist[g].count() > 0)
            << "G" << (g + 1);
    }
    if (kEnabled) {
        EXPECT_GT(reg.counter(Counter::BlocksClassified), 0u);
        EXPECT_EQ(reg.counter(Counter::BytesScanned),
                  reg.counter(Counter::BlocksClassified) * 64);
        EXPECT_GT(reg.trace.total(), 0u);
        // Every retained trace entry is a sane in-bounds span.
        for (const TraceEntry& e : reg.trace.snapshot()) {
            EXPECT_LT(e.begin, e.end);
            EXPECT_LE(e.end, json.size());
            EXPECT_LT(e.group, kSkipGroupCount);
        }
    } else {
        EXPECT_EQ(reg.counter(Counter::BlocksClassified), 0u);
        EXPECT_EQ(reg.trace.total(), 0u);
    }
}
