/** @file Tests for convenience sinks and early termination. */
#include "ski/sinks.h"

#include <gtest/gtest.h>

#include <numeric>

#include "index/structural_index.h"
#include "intervals/chunk_source.h"
#include "path/parser.h"
#include "ski/multi.h"
#include "ski/streamer.h"

using namespace jsonski::ski;
using jsonski::path::parse;

namespace {

const char* kArray = R"([{"v":"a"},{"v":"b"},{"v":"c"},{"v":"d"}])";

} // namespace

TEST(Sinks, LimitStopsEarly)
{
    Streamer s(parse("$[*].v"));
    LimitSink sink(2);
    StreamResult r = s.run(kArray, &sink);
    EXPECT_EQ(sink.values, (std::vector<std::string>{"\"a\"", "\"b\""}));
    // The partial count reflects delivered matches only.
    EXPECT_EQ(r.matches, 2u);
}

TEST(Sinks, LimitLargerThanMatchesIsHarmless)
{
    Streamer s(parse("$[*].v"));
    LimitSink sink(100);
    StreamResult r = s.run(kArray, &sink);
    EXPECT_EQ(r.matches, 4u);
    EXPECT_EQ(sink.values.size(), 4u);
}

TEST(Sinks, EarlyStopSkipsWork)
{
    // With limit 1 on a huge array, the pass must not visit the rest:
    // verified via the stream position... indirectly via wall progress
    // being impossible to observe, we check that stats only cover a
    // small prefix.
    std::string big = "[";
    for (int i = 0; i < 10000; ++i)
        big += "{\"v\":" + std::to_string(i) + "},";
    big += "{}]";
    Streamer s(parse("$[*].v"));
    LimitSink sink(1);
    StreamResult r = s.run(big, &sink);
    EXPECT_EQ(r.matches, 1u);
    EXPECT_LT(r.stats.total(), big.size() / 100);
}

namespace {

/** Hands a multi-query run's matches to a single-query sink. */
class ToSingleSink : public MultiSink
{
  public:
    explicit ToSingleSink(jsonski::path::MatchSink& inner) : inner_(inner) {}

    void
    onMatch(size_t, std::string_view value) override
    {
        inner_.onMatch(value);
    }

  private:
    jsonski::path::MatchSink& inner_;
};

} // namespace

TEST(Sinks, LimitStopsEveryEntryPointInsideNestedEngines)
{
    // Each query stops inside a different nested engine: a filter
    // continuation, a terminal descendant, an NFA interior replay and,
    // through MultiStreamer, a divergent-suffix replay.  The multi set
    // of the first case also holds `$.z`, whose value follows the
    // suffix's: a stop inside the suffix replay must end the shared
    // walk before it gets there.
    const std::string doc =
        R"({"a":[{"x":1,"y":"y1","v":1},{"x":2,"y":"y2","v":2},)"
        R"({"x":3,"y":"y3","v":3}],)"
        R"("n":{"a":[{"b":1,"c":"c1"},{"b":2,"c":"c2"},{"b":3,"c":"c3"}]},)"
        R"("z":0})";
    struct Case
    {
        const char* query;
        std::vector<const char*> multi_set;
        std::vector<std::string> all;
    };
    const Case cases[] = {
        {"$.a[?(@.x)].y",
         {"$.a[?(@.x)].y", "$.z"},
         {"\"y1\"", "\"y2\"", "\"y3\""}},
        {"$..v", {"$..v"}, {"1", "2", "3"}},
        {"$..a[?(@.b)].c",
         {"$..a[?(@.b)].c"},
         {"\"c1\"", "\"c2\"", "\"c3\""}},
    };
    const auto idx = jsonski::index::StructuralIndex::build(doc);
    ASSERT_TRUE(idx.usable());
    using jsonski::intervals::ViewSource;
    for (const auto& [query, multi_set, all] : cases) {
        Streamer s(parse(query));
        std::vector<jsonski::path::PathQuery> set;
        for (const char* q : multi_set)
            set.push_back(parse(q));
        MultiStreamer ms(set);
        auto total = [](const MultiStreamer::Result& r) {
            return std::accumulate(r.matches.begin(), r.matches.end(),
                                   size_t{0});
        };
        for (size_t k : {1, 2}) {
            const std::vector<std::string> want(all.begin(),
                                                all.begin() + k);
            auto check = [&](const std::string& entry, auto&& run) {
                SCOPED_TRACE(std::string(query) + " k=" +
                             std::to_string(k) + " via " + entry);
                LimitSink sink(k);
                size_t matches = 0;
                EXPECT_NO_THROW(matches = run(sink));
                EXPECT_EQ(matches, k);
                EXPECT_EQ(sink.values, want);
            };
            check("run(view)", [&](LimitSink& l) {
                return s.run(doc, &l).matches;
            });
            check("runResident", [&](LimitSink& l) {
                return s.runResident(doc, &l).matches;
            });
            check("runIndexed(view)", [&](LimitSink& l) {
                return s.runIndexed(doc, idx, &l).matches;
            });
            check("MultiStreamer::run(view)", [&](LimitSink& l) {
                ToSingleSink m(l);
                return total(ms.run(doc, &m));
            });
            for (size_t chunk : {1, 64}) {
                const std::string at =
                    "(source/" + std::to_string(chunk) + ")";
                check("run" + at, [&](LimitSink& l) {
                    ViewSource src(doc);
                    return s.run(src, &l, chunk).matches;
                });
                check("runIndexed" + at, [&](LimitSink& l) {
                    ViewSource src(doc);
                    return s.runIndexed(src, idx, &l, chunk).matches;
                });
                check("MultiStreamer::run" + at, [&](LimitSink& l) {
                    ViewSource src(doc);
                    ToSingleSink m(l);
                    return total(ms.run(src, &m, chunk));
                });
            }
        }
    }
}

TEST(Sinks, UnescapeDecodesStrings)
{
    std::string json = R"({"msg": "line\nbreak é \"q\""})";
    Streamer s(parse("$.msg"));
    UnescapeSink sink;
    s.run(json, &sink);
    ASSERT_EQ(sink.values.size(), 1u);
    EXPECT_EQ(sink.values[0], "line\nbreak \xc3\xa9 \"q\"");
}

TEST(Sinks, UnescapeKeepsNonStringsVerbatim)
{
    Streamer s(parse("$[*]"));
    UnescapeSink sink;
    s.run(R"([1, {"a":2}, "s"])", &sink);
    EXPECT_EQ(sink.values,
              (std::vector<std::string>{"1", R"({"a":2})", "s"}));
}

TEST(Sinks, ConcatBuildsNdjson)
{
    Streamer s(parse("$[*].v"));
    ConcatSink sink;
    s.run(kArray, &sink);
    EXPECT_EQ(sink.out, "\"a\"\n\"b\"\n\"c\"\n\"d\"\n");
}

TEST(Sinks, ConcatCustomSeparator)
{
    Streamer s(parse("$[*].v"));
    ConcatSink sink(", ");
    s.run(kArray, &sink);
    EXPECT_EQ(sink.out, "\"a\", \"b\", \"c\", \"d\", ");
}
