/** @file Tests for the parallel single-record JSONSki extension. */
#include "ski/parallel.h"

#include <gtest/gtest.h>

#include <optional>

#include "gen/datasets.h"
#include "path/parser.h"
#include "ski/streamer.h"
#include "util/error.h"

using namespace jsonski;
using jsonski::path::parse;

namespace {

/** Parallel result must equal the serial streamer's, values included. */
void
expectMatchesSerial(const std::string& json, const char* query,
                    size_t threads = 4)
{
    auto q = parse(query);
    ski::Streamer serial(q);
    path::CollectSink want;
    serial.run(json, &want);

    ski::ParallelStreamer par(q);
    ThreadPool pool(threads);
    path::CollectSink got;
    size_t n = par.run(json, pool, &got);
    EXPECT_EQ(n, want.values.size()) << query;
    EXPECT_EQ(got.values, want.values) << query;
}

} // namespace

TEST(ParallelStreamer, RootArrayQueries)
{
    std::string json = R"([{"v":1},{"v":2},{"w":0},{"v":3},[9],7])";
    expectMatchesSerial(json, "$[*].v");
    expectMatchesSerial(json, "$[*]");
    expectMatchesSerial(json, "$[1:4].v");
    expectMatchesSerial(json, "$[2]");
    expectMatchesSerial(json, "$[10]");
}

TEST(ParallelStreamer, KeyPrefixBeforeArray)
{
    std::string json =
        R"({"meta": 1, "pd": [{"id":1},{"id":2},{"id":3}], "z": 0})";
    expectMatchesSerial(json, "$.pd[*].id");
    expectMatchesSerial(json, "$.pd[0:2].id");
    expectMatchesSerial(json, "$.pd[*]");
    expectMatchesSerial(json, "$.missing[*].id");
}

TEST(ParallelStreamer, KeyOnlyQueryFallsBackToSerial)
{
    std::string json = R"({"a": {"b": 42}})";
    auto q = parse("$.a.b");
    ski::ParallelStreamer par(q);
    EXPECT_FALSE(par.parallelizable());
    ThreadPool pool(2);
    path::CollectSink sink;
    EXPECT_EQ(par.run(json, pool, &sink), 1u);
    EXPECT_EQ(sink.values, (std::vector<std::string>{"42"}));
}

TEST(ParallelStreamer, TypeMismatches)
{
    ThreadPool pool(2);
    EXPECT_EQ(ski::ParallelStreamer(parse("$[*].v"))
                  .run(R"({"a":1})", pool),
              0u);
    EXPECT_EQ(ski::ParallelStreamer(parse("$.a[*]"))
                  .run(R"({"a": 5})", pool),
              0u);
    EXPECT_EQ(ski::ParallelStreamer(parse("$.a[*]")).run("[]", pool), 0u);
}

TEST(ParallelStreamer, EmptyAndTinyArrays)
{
    expectMatchesSerial("[]", "$[*].v");
    expectMatchesSerial("[1]", "$[*]");
    expectMatchesSerial(R"([{"v":1}])", "$[*].v");
}

TEST(ParallelStreamer, DeepTailQuery)
{
    std::string json =
        R"([{"a":{"b":[{"c":1},{"c":2}]}},{"a":{"b":[{"c":3}]}}])";
    expectMatchesSerial(json, "$[*].a.b[*].c");
    expectMatchesSerial(json, "$[*].a.b[1].c");
}

TEST(ParallelStreamer, GeneratedDatasets)
{
    using gen::DatasetId;
    struct Case
    {
        DatasetId id;
        const char* query;
    };
    const Case cases[] = {
        {DatasetId::TT, "$[*].en.urls[*].url"},
        {DatasetId::TT, "$[*].text"},
        {DatasetId::BB, "$.pd[*].cp[1:3].id"},
        {DatasetId::WP, "$[10:21].cl.P150[*].ms.pty"},
        {DatasetId::NSPL, "$.dt[*][*][2:4]"},
    };
    for (const Case& c : cases) {
        std::string json = gen::generateLarge(c.id, 1024 * 1024);
        expectMatchesSerial(json, c.query, 4);
    }
}

TEST(ParallelStreamer, ThreadCountInvariance)
{
    std::string json = gen::generateLarge(gen::DatasetId::WM, 256 * 1024);
    auto q = parse("$.it[*].nm");
    ski::ParallelStreamer par(q);
    size_t expected = ski::Streamer(q).run(json).matches;
    for (size_t t : {1u, 2u, 3u, 8u}) {
        ThreadPool pool(t);
        EXPECT_EQ(par.run(json, pool), expected) << t;
    }
}

TEST(ParallelStreamer, MalformedInputFailsLikeSerial)
{
    // Parallel returns the serial count, or throws the serial ErrorCode
    // at the serial position; a failure inside a worker reaches the
    // caller instead of aborting the process.
    struct Case
    {
        const char* json;
        const char* query;
    };
    const Case cases[] = {
        // Worker error inside the second element.
        {R"([{"a":{"b":1}}, {"a":{"b" 2}}])", "$[*].a.b"},
        // Split array: a missing ',' and a missing ']'.
        {R"([{"a":1} {"a":2}])", "$[*].a"},
        {R"([{"a":1},{"a":2})", "$[*].a"},
        // The first "pd" member cannot be stepped into; both serial
        // drivers bind the second, the first whose value fits.
        {R"({"pd":1,"pd":[{"name":"x"}]})", "$.pd[*].name"},
        {R"({"pd":1,"pd":[{"a":{"b":1}}]})", "$.pd[*]..a.b"},
        // An earlier element's worker error beats a later split error.
        {R"([{"a":{"b" 1}}, {"a":2} {"a":3}])", "$[*].a.b"},
        // Damage in the element whose skip fails, before its end.
        {R"([{"a":1},{"a" 2, "b":[)", "$[*].a"},
        // Damage after the split array, under the key prefix.
        {R"({"pd":[{"name":"x"}], "z":[)", "$.pd[*].name"},
        // Root type mismatch: NfaDriver reads the value, Driver not.
        {R"({"x":[)", "$[*]..a.b"},
        {R"({"x":[)", "$[*].a.b"},
    };
    ThreadPool pool(4);
    for (const Case& c : cases) {
        auto q = parse(c.query);
        std::optional<ParseError> want;
        size_t want_n = 0;
        try {
            want_n = ski::Streamer(q).runResident(c.json).matches;
        } catch (const ParseError& e) {
            want = e;
        }
        try {
            size_t n = ski::ParallelStreamer(q).run(c.json, pool);
            EXPECT_FALSE(want.has_value()) << c.json << ": no error";
            EXPECT_EQ(n, want_n) << c.json;
        } catch (const ParseError& e) {
            ASSERT_TRUE(want.has_value()) << c.json << ": " << e.what();
            EXPECT_EQ(e.code(), want->code()) << c.json;
            EXPECT_EQ(e.position(), want->position()) << c.json;
        }
    }
    // The serial outcomes these mirror.
    auto serialError = [](const char* json, const char* query) {
        try {
            ski::Streamer(parse(query)).runResident(json);
        } catch (const ParseError& e) {
            return std::make_pair(e.code(), e.position());
        }
        return std::make_pair(ErrorCode::Unspecified, size_t{0});
    };
    EXPECT_EQ(serialError(cases[0].json, cases[0].query),
              std::make_pair(ErrorCode::ExpectedPunctuation, size_t{26}));
    EXPECT_EQ(serialError(cases[1].json, cases[1].query),
              std::make_pair(ErrorCode::ExpectedPunctuation, size_t{9}));
    EXPECT_EQ(serialError(cases[2].json, cases[2].query).second, 16u);
    EXPECT_EQ(ski::Streamer(parse(cases[3].query))
                  .runResident(cases[3].json)
                  .matches,
              1u);
    EXPECT_EQ(ski::Streamer(parse(cases[4].query))
                  .runResident(cases[4].json)
                  .matches,
              1u);
}
