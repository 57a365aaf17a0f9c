/**
 * @file
 * Tests for the descendant operator extension (`$..name`, any step
 * position): JSONSki semantics, pre-order emission and multiset
 * multiplicity, cross-engine agreement (JSONSki / JPStream / DOM /
 * tape), the documented restrictions (Pison rejects `..`; tape and
 * JPStream support only the terminal form), and the key-scan wall: the
 * terminal search's fused key-or-close scan against the DOM oracle,
 * whole-buffer, chunked at every size from 1 to 130 bytes and under
 * every runnable kernel.
 */
#include <gtest/gtest.h>

#include "baseline/dom/query.h"
#include "baseline/jpstream/engine.h"
#include "baseline/pison/query.h"
#include "baseline/tape/query.h"
#include "intervals/chunk_source.h"
#include "json/validate.h"
#include "json/writer.h"
#include "kernels/kernel.h"
#include "path/parser.h"
#include "ski/multi.h"
#include "ski/streamer.h"
#include "util/error.h"
#include "util/rng.h"

using namespace jsonski;
using jsonski::path::parse;

namespace {

std::vector<std::string>
ski_values(std::string_view json, const char* q)
{
    auto r = ski::query(json, q, /*collect=*/true);
    return r.values;
}

/**
 * Query @p text over @p json must give exactly @p want under every
 * runnable kernel, whole-buffer and chunked at 1 to 130 bytes.
 */
void
expectEverywhere(const std::string& json, const std::string& text,
                 const std::vector<std::string>& want)
{
    ski::Streamer s(parse(text));
    for (const kernels::Kernel* k : kernels::runnable()) {
        kernels::Override o(*k);
        path::CollectSink whole;
        s.runResident(json, &whole);
        ASSERT_EQ(whole.values, want)
            << text << " " << k->name << " whole\n" << json;
        for (size_t chunk = 1; chunk <= 130; ++chunk) {
            intervals::ViewSource src(json);
            path::CollectSink got;
            s.run(src, &got, chunk);
            ASSERT_EQ(got.values, want) << text << " " << k->name
                                        << " chunk " << chunk << "\n"
                                        << json;
        }
    }
}

/** As expectEverywhere, with the DOM oracle's values as @p want. */
void
expectLikeDom(const std::string& json, const std::string& text)
{
    path::CollectSink dom_sink;
    dom::parseAndQuery(json, parse(text), &dom_sink);
    expectEverywhere(json, text, dom_sink.values);
}

/** `$..['key']` for a key without quotes or backslashes. */
std::string
descendantOf(const std::string& key)
{
    return "$..['" + key + "']";
}

} // namespace

TEST(Descendant, ParserAcceptsAnyPosition)
{
    auto q = parse("$..name");
    ASSERT_EQ(q.size(), 1u);
    EXPECT_EQ(q[0].kind, path::PathStep::Kind::Descendant);
    EXPECT_EQ(q.toString(), "$..name");
    EXPECT_TRUE(q.hasDescendant());
    EXPECT_TRUE(q.hasTerminalDescendant());
    EXPECT_FALSE(q.hasInteriorDescendant());

    EXPECT_NO_THROW(parse("$.a[*]..name"));
    // Non-terminal descendant steps are supported since the multiset
    // driver landed (DESIGN.md §13).
    auto interior = parse("$..a.b");
    EXPECT_TRUE(interior.hasInteriorDescendant());
    EXPECT_FALSE(interior.hasTerminalDescendant());
    EXPECT_EQ(interior.toString(), "$..a.b");
    EXPECT_EQ(parse("$..a[0]").toString(), "$..a[0]");
    EXPECT_EQ(parse("$..a..b").toString(), "$..a..b");
    EXPECT_EQ(parse("$..['odd key']").toString(), "$..['odd key']");
    EXPECT_THROW(parse("$.."), PathError);
}

TEST(Descendant, InteriorKeyStep)
{
    // `$..a.b`: every `a` at any depth, then its direct child `b` —
    // document order, including an `a` nested inside another `a`.
    std::string json =
        R"({"a": {"a": {"b": 1}, "b": 2}, "x": {"a": {"b": 3}}})";
    EXPECT_EQ(ski_values(json, "$..a.b"),
              (std::vector<std::string>{"1", "2", "3"}));
}

TEST(Descendant, InteriorIndexStep)
{
    std::string json =
        R"({"a": [10, 20, 30], "o": {"a": [{"b": 5}, {"b": 6}]}})";
    EXPECT_EQ(ski_values(json, "$..a[2]"),
              (std::vector<std::string>{"30"}));
    EXPECT_EQ(ski_values(json, "$..a[1].b"),
              (std::vector<std::string>{"6"}));
    EXPECT_EQ(ski_values(json, "$..a[*].b"),
              (std::vector<std::string>{"5", "6"}));
}

TEST(Descendant, DoubleDescendantMultiplicity)
{
    // `$..a..b`: one value is reported once per accepting path.  The
    // inner b is reachable via BOTH a-ancestors, so it appears twice,
    // consecutively (document pre-order, duplicates adjacent).
    std::string json = R"({"a": {"a": {"b": 1}}})";
    EXPECT_EQ(ski_values(json, "$..a..b"),
              (std::vector<std::string>{"1", "1"}));
    // DOM oracle agrees on the multiset semantics.
    auto q = parse("$..a..b");
    path::CollectSink dom_sink;
    dom::parseAndQuery(json, q, &dom_sink);
    EXPECT_EQ(dom_sink.values,
              (std::vector<std::string>{"1", "1"}));
}

TEST(Descendant, InteriorEnginesAgree)
{
    std::string json = R"({
      "a": {"k": 1, "a": [{"k": [2, 3]}, {"c": {"a": {"k": 4}}}]},
      "k": "top"
    })";
    for (const char* text :
         {"$..a.k", "$..a[0].k", "$..a[*].k", "$..a..k", "$..a[0:2]"}) {
        auto q = parse(text);
        path::CollectSink ski_sink, dom_sink;
        ski::Streamer(q).run(json, &ski_sink);
        dom::parseAndQuery(json, q, &dom_sink);
        EXPECT_EQ(dom_sink.values, ski_sink.values) << text;
    }
}

TEST(Descendant, InteriorDuplicateKeysFirstBindingWins)
{
    // Key steps bind to the FIRST member with their name (the
    // streamer leaves an object after the match, G4); descendant
    // steps keep examining every member, duplicates included.
    std::string json = R"({"a": {"b": 1, "b": 2}, "b": 3})";
    EXPECT_EQ(ski_values(json, "$..a.b"),
              (std::vector<std::string>{"1"}));
    EXPECT_EQ(ski_values(json, "$..b"),
              (std::vector<std::string>{"1", "2", "3"}));
    auto q = parse("$..a.b");
    path::CollectSink dom_sink;
    dom::parseAndQuery(json, q, &dom_sink);
    EXPECT_EQ(dom_sink.values, (std::vector<std::string>{"1"}));
}

TEST(Descendant, InteriorRejectedByLinearBaselines)
{
    // The path-at-a-time tape walk and the deterministic PDA cannot
    // reproduce the multiset document-order contract; they say so
    // instead of answering differently.
    auto q = parse("$..a.b");
    EXPECT_THROW(tape::parseAndQuery(R"({"a":{"b":1}})", q), PathError);
    EXPECT_THROW(jpstream::Engine{q}, PathError);
}

TEST(Descendant, RandomDifferentialInteriorSkiVsDom)
{
    Rng rng(8642);
    const std::vector<std::string> keys = {"a", "b", "k"};
    std::function<void(json::Writer&, int)> gen =
        [&](json::Writer& w, int depth) {
            double shape = rng.real();
            if (depth <= 0 || shape < 0.4) {
                w.number(rng.range(0, 99));
            } else if (shape < 0.75) {
                w.beginObject();
                std::vector<std::string> pool = keys;
                size_t n = rng.below(4);
                for (size_t i = 0; i < n && !pool.empty(); ++i) {
                    size_t pick = rng.below(pool.size());
                    w.key(pool[pick]);
                    pool.erase(pool.begin() + static_cast<long>(pick));
                    gen(w, depth - 1);
                }
                w.endObject();
            } else {
                w.beginArray();
                size_t n = rng.below(4);
                for (size_t i = 0; i < n; ++i)
                    gen(w, depth - 1);
                w.endArray();
            }
        };
    const char* queries[] = {"$..a.b", "$..a[0]", "$..a[*].k", "$..a..k",
                             "$..a[0:2].b"};
    size_t total = 0;
    for (int iter = 0; iter < 200; ++iter) {
        json::Writer w;
        w.beginObject();
        w.key("root");
        gen(w, 5);
        w.endObject();
        std::string doc = w.take();
        ASSERT_TRUE(json::validate(doc));
        for (const char* text : queries) {
            auto q = parse(text);
            path::CollectSink a, b;
            ski::Streamer(q).run(doc, &a);
            dom::parseAndQuery(doc, q, &b);
            ASSERT_EQ(a.values, b.values) << text << "\n" << doc;
            total += a.values.size();
        }
    }
    EXPECT_GT(total, 50u);
}

TEST(Descendant, FindsAtAllDepths)
{
    std::string json = R"({
      "name": "top",
      "user": {"name": "mid", "info": {"name": "deep"}},
      "list": [{"name": "in-array"}, [{"name": "nested-array"}], 5]
    })";
    auto values = ski_values(json, "$..name");
    EXPECT_EQ(values,
              (std::vector<std::string>{"\"top\"", "\"mid\"", "\"deep\"",
                                        "\"in-array\"",
                                        "\"nested-array\""}));
}

TEST(Descendant, NestedMatchesAreAllReportedPreOrder)
{
    std::string json = R"({"a": {"x": 1, "a": {"a": 2}}})";
    auto values = ski_values(json, "$..a");
    ASSERT_EQ(values.size(), 3u);
    // Outer first (pre-order), then its nested matches.
    EXPECT_EQ(values[0], R"({"x": 1, "a": {"a": 2}})");
    EXPECT_EQ(values[1], R"({"a": 2})");
    EXPECT_EQ(values[2], "2");
}

TEST(Descendant, AfterKeyAndArrayPrefix)
{
    std::string json =
        R"({"data": [{"v": {"id": 1}}, {"w": [{"id": 2}, {"id": 3}]}],)"
        R"( "id": 99})";
    EXPECT_EQ(ski_values(json, "$.data..id"),
              (std::vector<std::string>{"1", "2", "3"}));
    EXPECT_EQ(ski_values(json, "$.data[1]..id"),
              (std::vector<std::string>{"2", "3"}));
    EXPECT_EQ(ski_values(json, "$.data[*]..id").size(), 3u);
}

TEST(Descendant, NoMatches)
{
    EXPECT_TRUE(ski_values(R"({"a": [1, {"b": 2}]})", "$..zz").empty());
    EXPECT_TRUE(ski_values("[]", "$..k").empty());
    EXPECT_TRUE(ski_values("{}", "$..k").empty());
    EXPECT_TRUE(ski_values("5", "$..k").empty());
}

TEST(Descendant, DecoysInsideStrings)
{
    std::string json =
        R"({"s": "\"k\": 1", "o": {"k": "real"}})";
    EXPECT_EQ(ski_values(json, "$..k"),
              (std::vector<std::string>{"\"real\""}));
}

TEST(Descendant, EnginesAgree)
{
    std::string json = R"({
      "a": {"k": 1, "b": [{"k": [2, 3]}, {"c": {"k": {"k": 4}}}]},
      "k": "top"
    })";
    auto q = parse("$..k");
    path::CollectSink ski_sink, dom_sink, tape_sink;
    ski::Streamer(q).run(json, &ski_sink);
    dom::parseAndQuery(json, q, &dom_sink);
    tape::parseAndQuery(json, q, &tape_sink);
    EXPECT_FALSE(ski_sink.values.empty());
    EXPECT_EQ(dom_sink.values, ski_sink.values);
    EXPECT_EQ(tape_sink.values, ski_sink.values);

    // The character-level PDA emits container matches on their closing
    // brace, so its *order* differs under nesting; the multiset must
    // still agree.
    path::CollectSink jp_sink;
    jpstream::Engine(q).run(json, &jp_sink);
    auto sorted = [](std::vector<std::string> v) {
        std::sort(v.begin(), v.end());
        return v;
    };
    EXPECT_EQ(sorted(jp_sink.values), sorted(ski_sink.values));
}

TEST(Descendant, PisonRejectsByDesign)
{
    EXPECT_THROW(pison::parseAndQuery(R"({"a":1})", parse("$..a")),
                 PathError);
}

TEST(Descendant, MultiStreamerEvaluatesDescendants)
{
    // Descendant steps ride the divergent-suffix fallback: the
    // combined pass must agree with the single-query run.
    const std::string doc =
        R"({"a":1,"b":{"a":[2,3],"c":{"a":4}},"d":5})";
    std::vector<path::PathQuery> qs;
    qs.push_back(parse("$..a"));
    qs.push_back(parse("$.d"));
    ski::MultiStreamer ms(std::move(qs));
    ski::MultiCollectSink sink(ms.queryCount());
    auto r = ms.run(doc, &sink);

    path::CollectSink solo;
    ski::Streamer single(parse("$..a"));
    auto sr = single.run(doc, &solo);
    EXPECT_EQ(r.matches[0], sr.matches);
    EXPECT_EQ(sink.values[0], solo.values);
    EXPECT_EQ(sink.values[1], (std::vector<std::string>{"5"}));
}

TEST(Descendant, RandomDifferentialSkiVsDom)
{
    Rng rng(1357);
    const std::vector<std::string> keys = {"a", "b", "k"};
    std::function<void(json::Writer&, int)> gen =
        [&](json::Writer& w, int depth) {
            double shape = rng.real();
            if (depth <= 0 || shape < 0.4) {
                w.number(rng.range(0, 99));
            } else if (shape < 0.75) {
                w.beginObject();
                std::vector<std::string> pool = keys;
                size_t n = rng.below(4);
                for (size_t i = 0; i < n && !pool.empty(); ++i) {
                    size_t pick = rng.below(pool.size());
                    w.key(pool[pick]);
                    pool.erase(pool.begin() + static_cast<long>(pick));
                    gen(w, depth - 1);
                }
                w.endObject();
            } else {
                w.beginArray();
                size_t n = rng.below(4);
                for (size_t i = 0; i < n; ++i)
                    gen(w, depth - 1);
                w.endArray();
            }
        };
    auto q = parse("$..k");
    size_t total = 0;
    for (int iter = 0; iter < 300; ++iter) {
        json::Writer w;
        w.beginObject();
        w.key("root");
        gen(w, 5);
        w.endObject();
        std::string doc = w.take();
        ASSERT_TRUE(json::validate(doc));
        path::CollectSink a, b;
        ski::Streamer(q).run(doc, &a);
        dom::parseAndQuery(doc, q, &b);
        ASSERT_EQ(a.values, b.values) << doc;
        total += a.values.size();
    }
    EXPECT_GT(total, 50u);
}

TEST(Descendant, StatsStillAccumulate)
{
    // Primitive runs remain fast-forwardable under `..` (the paper's
    // predicted limitation is on *type* skipping, not primitives).
    std::string json = "{\"rows\": [";
    for (int i = 0; i < 500; ++i)
        json += std::to_string(i) + ",";
    json += R"({"k": 1}], "k": 2})";
    auto r = ski::query(json, "$..k");
    EXPECT_EQ(r.count, 2u);
    EXPECT_GT(r.stats.get(ski::Group::G1), 500u);
}

TEST(Descendant, DuplicateMemberBindsFirstFittingValue)
{
    // The first "pd" cannot be stepped into, so neither driver binds
    // it: both take the second, the first whose value fits the next
    // step (DESIGN.md §15).
    const std::string json = R"({"pd":1,"pd":[{"a":{"b":1}}]})";
    for (const char* text : {"$.pd[*]..a.b", "$.pd[*].a.b"}) {
        auto q = parse(text);
        path::CollectSink got;
        EXPECT_EQ(ski::Streamer(q).run(json, &got).matches, 1u) << text;
        EXPECT_EQ(got.values, (std::vector<std::string>{"1"})) << text;
    }
}

TEST(Descendant, KeyScanWallKeyLengthsAndDecoys)
{
    // Each key among value strings, array strings, longer keys, its
    // text inside a longer string, escaped quotes just before it,
    // whitespace before ':', and nested matches (pre-order).
    for (const std::string& k :
         {std::string(), std::string("k"), std::string("ab"),
          std::string("abc"), std::string(69, 'q') + "x"}) {
        const std::string K = "\"" + k + "\"";
        std::string json =
            "{" + K + ":1,\"x\":{" + K + ":{" + K + ":[1,{" + K +
            ":\"v\"}]},\"y\":" + K + "},\"z\":[" + K + ",{" + K +
            " \n\t: true}],\"s\":\"pre \\" + K.substr(0, K.size() - 1) +
            "\\\": 1 post\",\"" + k + "x\":2,\"x" + k + "\":3," +
            "\"e1\":\"\\\\\"," + K + ":4,\"e2\":\"q\\\"\"," + K +
            ":[" + K + "],\"e3\":\"\\\"" + k + "\\\"\"," + K + ":null}";
        ASSERT_TRUE(json::validate(json)) << json;
        expectLikeDom(json, descendantOf(k));
        expectLikeDom(json, "$.x" + descendantOf(k).substr(1));
        expectLikeDom(json, "$.z[*]" + descendantOf(k).substr(1));
    }
}

TEST(Descendant, KeyScanWallEveryQuoteOffset)
{
    // The candidate's opening quote at every offset of a 64-byte
    // block, so its two look-ahead bytes cross into the next block.
    for (const std::string& k : {std::string("k"), std::string("ab"),
                                 std::string("abc"), std::string()}) {
        const std::string K = "\"" + k + "\"";
        for (size_t pad = 0; pad < 128; ++pad) {
            std::string sp(pad, ' ');
            expectLikeDom("{" + sp + K + ":1,\"o\":{" + K + ":[" + K +
                              "]}}",
                          descendantOf(k));
            expectLikeDom("[" + sp + K + ",{\"a\":\"" + sp + "\"," + K +
                              " :2}]",
                          descendantOf(k));
        }
    }
}

TEST(Descendant, KeyScanWallQuotesAndBackslashesInTheKey)
{
    // Keys compare raw: a query key holding '"' or '\\' matches only
    // the member whose raw (escaped) bytes equal it, not its decoded
    // text as the DOM compares.
    const std::string json =
        R"({"a\"b":1,"a\\b":2,"o":{"a\"b":[3],"":4,"\"x":5}})";
    ASSERT_TRUE(json::validate(json));
    // The query text unescapes once: ['a\\"b'] is the key a\"b.
    expectEverywhere(json, R"($..['a"b'])", {});
    expectEverywhere(json, R"($..['a\\"b'])", {"1", "[3]"});
    expectEverywhere(json, R"($..['a\\b'])", {});
    expectEverywhere(json, R"($..['a\\\\b'])", {"2"});
    expectEverywhere(json, R"($..['"x'])", {});
    expectEverywhere(json, R"($..['\\"x'])", {"5"});
    expectEverywhere(json, R"($..[''])", {"4"});
}

TEST(Descendant, DeepNonMatchingNestingIsScannedNotRecursed)
{
    // Only nested matches recurse: 100 000 levels without one are a
    // single fused scan, with or without a match at the bottom.
    const size_t n = 100000;
    std::string objects, arrays;
    for (size_t i = 0; i < n; ++i)
        objects += "{\"a\":";
    objects += "{\"k\":7}" + std::string(n, '}');
    arrays = std::string(n, '[') + "1" + std::string(n, ']');
    EXPECT_EQ(ski_values(objects, "$..k"), (std::vector<std::string>{"7"}));
    EXPECT_EQ(ski::query(arrays, "$..k").count, 0u);
    EXPECT_EQ(ski::query("[" + objects + "]", "$..zz").count, 0u);

    // A chain of nested matches still stops at the depth limit.
    std::string chain;
    for (size_t i = 0; i < 30000; ++i)
        chain += "{\"k\":";
    chain += "1" + std::string(30000, '}');
    try {
        ski::query(chain, "$..k");
        FAIL() << "expected DepthExceeded";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.code(), ErrorCode::DepthExceeded);
    }
}
