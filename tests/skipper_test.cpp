/** @file Tests for the bit-parallel fast-forward primitives (G1..G5). */
#include "ski/skipper.h"

#include <gtest/gtest.h>

#include <string>

#include "intervals/cursor.h"
#include "util/error.h"

using namespace jsonski::ski;
using jsonski::ParseError;
using jsonski::intervals::StreamCursor;

namespace {

/** Cursor+skipper pair bound to a string (keeps tests terse). */
struct Fixture
{
    explicit Fixture(std::string text)
        : json(std::move(text)), cur(json), skip(cur, &stats)
    {}

    std::string json;
    FastForwardStats stats;
    StreamCursor cur;
    Skipper skip;
};

} // namespace

TEST(SkipperOverObj, Flat)
{
    Fixture f(R"({"a":1,"b":2} tail)");
    f.skip.overObj(Group::G2);
    EXPECT_EQ(f.cur.pos(), f.json.find(" tail"));
    EXPECT_EQ(f.stats.get(Group::G2), f.cur.pos());
}

TEST(SkipperOverObj, Nested)
{
    Fixture f(R"({"a":{"b":{"c":1}},"d":{"e":[{}]}},X)");
    f.skip.overObj(Group::G2);
    EXPECT_EQ(f.json[f.cur.pos()], ',');
}

TEST(SkipperOverObj, BracesInStringsIgnored)
{
    Fixture f(R"({"a":"}}}{{{","b":"{"}Z)");
    f.skip.overObj(Group::G2);
    EXPECT_EQ(f.json[f.cur.pos()], 'Z');
}

TEST(SkipperOverObj, SpansManyBlocks)
{
    std::string inner;
    for (int i = 0; i < 50; ++i)
        inner += "{\"k" + std::to_string(i) + "\":[1,2,3]},";
    std::string json = "{\"list\":[" + inner + "{}]}END";
    Fixture f(json);
    f.skip.overObj(Group::G2);
    EXPECT_EQ(f.json.compare(f.cur.pos(), 3, "END"), 0);
}

TEST(SkipperOverObj, UnterminatedThrows)
{
    Fixture f(R"({"a":{"b":1})");
    EXPECT_THROW(f.skip.overObj(Group::G2), ParseError);
}

TEST(SkipperOverAry, NestedWithStrings)
{
    Fixture f(R"([[1,"]]",[2,[3]]],"x"],tail)");
    f.skip.overAry(Group::G2);
    // Skips the *first* complete array: [[1,"]]",[2,[3]]],"x"]
    EXPECT_EQ(f.json[f.cur.pos()], ',');
    EXPECT_EQ(f.cur.pos(), f.json.size() - 5);
}

TEST(SkipperOverPrimitive, Number)
{
    Fixture f("12345, next");
    f.skip.overPrimitive(Group::G2);
    EXPECT_EQ(f.json[f.cur.pos()], ',');
}

TEST(SkipperOverPrimitive, StringWithMetachars)
{
    Fixture f(R"("a,b}c]d", next)");
    f.skip.overPrimitive(Group::G2);
    EXPECT_EQ(f.cur.pos(), f.json.find(", next"));
}

TEST(SkipperOverPrimitive, EndsAtCloseBrace)
{
    Fixture f("true}");
    f.skip.overPrimitive(Group::G2);
    EXPECT_EQ(f.json[f.cur.pos()], '}');
}

TEST(SkipperOverPrimitive, RootPrimitiveRunsToEof)
{
    Fixture f("3.14159");
    f.skip.overPrimitive(Group::G2);
    EXPECT_TRUE(f.cur.atEnd());
}

TEST(SkipperOverValue, DispatchesOnType)
{
    {
        Fixture f(R"(  {"a":1},x)");
        f.skip.overValue(Group::G2);
        EXPECT_EQ(f.json[f.cur.pos()], ',');
    }
    {
        Fixture f("  [1,2],x");
        f.skip.overValue(Group::G2);
        EXPECT_EQ(f.json[f.cur.pos()], ',');
    }
    {
        Fixture f("  null,x");
        f.skip.overValue(Group::G2);
        EXPECT_EQ(f.json[f.cur.pos()], ',');
    }
}

TEST(SkipperToObjEnd, FromInsideObject)
{
    std::string json = R"({"a":1,"b":{"c":2},"d":3}#)";
    Fixture f(json);
    // Position after the value of "a" (at the comma).
    f.cur.setPos(json.find(",\"b\""));
    f.skip.toObjEnd(Group::G4);
    EXPECT_EQ(f.json[f.cur.pos()], '#');
    EXPECT_GT(f.stats.get(Group::G4), 0u);
}

TEST(SkipperToAryEnd, FromInsideArray)
{
    std::string json = R"([1,[2,3],{"a":[4]},5]#)";
    Fixture f(json);
    f.cur.setPos(2); // after "1,"
    f.skip.toAryEnd(Group::G5);
    EXPECT_EQ(f.json[f.cur.pos()], '#');
}

TEST(SkipperStringEnd, Simple)
{
    Fixture f(R"("hello" rest)");
    EXPECT_EQ(f.skip.stringEnd(0), 7u);
}

TEST(SkipperStringEnd, EscapedQuotes)
{
    Fixture f(R"("a\"b" rest)");
    EXPECT_EQ(f.skip.stringEnd(0), 6u);
}

TEST(SkipperStringEnd, AcrossBlocks)
{
    std::string json = "\"" + std::string(100, 'x') + "\"!";
    Fixture f(json);
    EXPECT_EQ(f.skip.stringEnd(0), 102u);
}

TEST(SkipperStringEnd, UnterminatedThrows)
{
    Fixture f("\"abc");
    EXPECT_THROW(f.skip.stringEnd(0), ParseError);
}

TEST(SkipperStringEnd, BackslashParityAtBlock63)
{
    // Regression: a backslash run ending at byte 63 carries its parity
    // into the next block.  Odd run => the quote at byte 64 is escaped
    // and the string ends at the later real quote; even run => it ends
    // exactly at byte 64.
    for (size_t run = 1; run <= 8; ++run) {
        std::string json = "\"";
        json += std::string(64 - run - 1, 'y');
        json += std::string(run, '\\');
        ASSERT_EQ(json.size(), 64u);
        json += "\"z\" rest";
        Fixture f(json);
        // stringEnd() returns the position just past the real closing
        // quote, which is byte 64 when the run is even, byte 66 when
        // odd.
        EXPECT_EQ(f.skip.stringEnd(0), run % 2 ? 67u : 65u)
            << "run of " << run;
    }
}

TEST(SkipperStringEnd, QuoteExactlyAtBlockBoundary)
{
    // String whose closing quote is the first byte of a block, with no
    // escapes involved: the cross-block in-string carry alone decides.
    for (size_t len : {62u, 63u, 64u, 126u, 127u, 128u}) {
        std::string json = "\"" + std::string(len, 'x') + "\" rest";
        Fixture f(json);
        EXPECT_EQ(f.skip.stringEnd(0), len + 2) << "len " << len;
    }
}

// --- G1: toAttr -----------------------------------------------------------

TEST(SkipperToAttr, AnyStopsAtFirstAttribute)
{
    std::string json = R"({"alpha": 42, "beta": 7})";
    Fixture f(json);
    f.cur.setPos(1);
    auto r = f.skip.toAttr(Skipper::TypeFilter::Any, Group::G1);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(f.json.substr(r.key_begin, r.key_end - r.key_begin), "alpha");
    EXPECT_EQ(f.json[f.cur.pos()], '4');
}

TEST(SkipperToAttr, AnyIteratesAllAttributes)
{
    std::string json = R"({"a":1,"b":[2],"c":{"d":3}})";
    Fixture f(json);
    f.cur.setPos(1);
    std::vector<std::string> keys;
    for (;;) {
        auto r = f.skip.toAttr(Skipper::TypeFilter::Any, Group::G1);
        if (!r.found)
            break;
        keys.push_back(
            std::string(f.json.substr(r.key_begin, r.key_end - r.key_begin)));
        f.skip.overValue(Group::G2);
    }
    EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_TRUE(f.cur.atEnd());
}

TEST(SkipperToAttr, ObjectFilterSkipsPrimitivesAndArrays)
{
    std::string json =
        R"({"n":1,"s":"x","arr":[1,{"deep":2}],"obj":{"k":9},"z":0})";
    Fixture f(json);
    f.cur.setPos(1);
    auto r = f.skip.toAttr(Skipper::TypeFilter::Object, Group::G1);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(f.json.substr(r.key_begin, r.key_end - r.key_begin), "obj");
    EXPECT_EQ(f.json[f.cur.pos()], '{');
    EXPECT_GT(f.stats.get(Group::G1), 0u);
}

TEST(SkipperToAttr, ObjectFilterFirstAttrIsObject)
{
    std::string json = R"({"obj":{"k":9},"z":0})";
    Fixture f(json);
    f.cur.setPos(1);
    auto r = f.skip.toAttr(Skipper::TypeFilter::Object, Group::G1);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(f.json.substr(r.key_begin, r.key_end - r.key_begin), "obj");
}

TEST(SkipperToAttr, ObjectFilterNoObjectValue)
{
    std::string json = R"({"a":1,"b":[{"x":1}],"c":"s"}#)";
    Fixture f(json);
    f.cur.setPos(1);
    auto r = f.skip.toAttr(Skipper::TypeFilter::Object, Group::G1);
    EXPECT_FALSE(r.found);
    EXPECT_EQ(f.json[f.cur.pos()], '#');
}

TEST(SkipperToAttr, ArrayFilterSkipsObjects)
{
    std::string json = R"({"o":{"a":[1]},"p":3,"arr":[7],"q":0})";
    Fixture f(json);
    f.cur.setPos(1);
    auto r = f.skip.toAttr(Skipper::TypeFilter::Array, Group::G1);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(f.json.substr(r.key_begin, r.key_end - r.key_begin), "arr");
    EXPECT_EQ(f.json[f.cur.pos()], '[');
}

TEST(SkipperToAttr, EmptyObject)
{
    std::string json = "{}#";
    Fixture f(json);
    f.cur.setPos(1);
    auto r = f.skip.toAttr(Skipper::TypeFilter::Any, Group::G1);
    EXPECT_FALSE(r.found);
    EXPECT_EQ(f.json[f.cur.pos()], '#');
}

TEST(SkipperToAttr, KeyRecoveredAfterBatchedPrimitiveRun)
{
    // Many primitive attributes before the object-typed one; the batch
    // scan skims past the key, which must be recovered by keyBefore().
    std::string json = R"({"a":1,"b":2,"c":3,"d":4,"tgt" : {"k":1},"e":5})";
    Fixture f(json);
    f.cur.setPos(1);
    auto r = f.skip.toAttr(Skipper::TypeFilter::Object, Group::G1);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(f.json.substr(r.key_begin, r.key_end - r.key_begin), "tgt");
    EXPECT_EQ(f.json[f.cur.pos()], '{');
}

TEST(SkipperToAttr, KeyWithEscapedQuoteRecovered)
{
    std::string json = R"({"a":1,"we\"ird":{"k":1}})";
    Fixture f(json);
    f.cur.setPos(1);
    auto r = f.skip.toAttr(Skipper::TypeFilter::Object, Group::G1);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(f.json.substr(r.key_begin, r.key_end - r.key_begin),
              "we\\\"ird");
}

// --- Element scans ---------------------------------------------------------

TEST(SkipperToTypedElem, FindsFirstObject)
{
    std::string json = R"(1,"s",[2,3],{"k":1},4])";
    Fixture f(json); // array body, '[' already consumed conceptually
    size_t idx = 0;
    auto r = f.skip.toElem(Skipper::ElemKind::Object, idx, SIZE_MAX, Group::G1);
    EXPECT_EQ(r, Skipper::ElemStop::Found);
    EXPECT_EQ(idx, 3u);
    EXPECT_EQ(f.json[f.cur.pos()], '{');
}

TEST(SkipperToTypedElem, ArrayEnd)
{
    std::string json = R"(1,2,"x"]#)";
    Fixture f(json);
    size_t idx = 0;
    auto r = f.skip.toElem(Skipper::ElemKind::Object, idx, SIZE_MAX, Group::G1);
    EXPECT_EQ(r, Skipper::ElemStop::End);
    EXPECT_EQ(f.json[f.cur.pos()], '#');
}

TEST(SkipperToTypedElem, BudgetLimit)
{
    std::string json = "1,2,3,4,5,6]";
    Fixture f(json);
    size_t idx = 0;
    auto r = f.skip.toElem(Skipper::ElemKind::Object, idx, 3, Group::G1);
    EXPECT_EQ(r, Skipper::ElemStop::Found);
    EXPECT_EQ(idx, 3u);
    EXPECT_EQ(f.json[f.cur.pos()], '4');
}

TEST(SkipperToTypedElem, SkipsWrongContainers)
{
    std::string json = R"([1],[2],{"k":1}])";
    Fixture f(json);
    size_t idx = 0;
    auto r = f.skip.toElem(Skipper::ElemKind::Object, idx, SIZE_MAX, Group::G1);
    EXPECT_EQ(r, Skipper::ElemStop::Found);
    EXPECT_EQ(idx, 2u);
    EXPECT_EQ(f.json[f.cur.pos()], '{');
}

TEST(SkipperOverElems, SkipsExactCount)
{
    std::string json = R"(10,{"a":1},[3,3],40,50])";
    Fixture f(json);
    size_t idx = 0;
    auto r = f.skip.toElem(Skipper::ElemKind::None, idx, 3, Group::G5);
    EXPECT_EQ(r, Skipper::ElemStop::Found);
    EXPECT_EQ(idx, 3u);
    EXPECT_EQ(f.json[f.cur.pos()], '4');
}

TEST(SkipperOverElems, EndsEarlyWhenArrayCloses)
{
    std::string json = "1,2]#";
    Fixture f(json);
    size_t idx = 0;
    auto r = f.skip.toElem(Skipper::ElemKind::None, idx, 10, Group::G5);
    EXPECT_EQ(r, Skipper::ElemStop::End);
    EXPECT_EQ(f.json[f.cur.pos()], '#');
}

TEST(SkipperOverElems, LongPrimitiveRunAcrossBlocks)
{
    std::string json;
    for (int i = 0; i < 100; ++i)
        json += std::to_string(i * 11) + ",";
    json += "\"end\"]#";
    Fixture f(json);
    size_t idx = 0;
    auto r = f.skip.toElem(Skipper::ElemKind::None, idx, 100, Group::G5);
    EXPECT_EQ(r, Skipper::ElemStop::Found);
    EXPECT_EQ(idx, 100u);
    EXPECT_EQ(f.json[f.cur.pos()], '"');
}

TEST(SkipperConsume, ThrowsOnUnexpected)
{
    Fixture f("  }");
    EXPECT_THROW(f.skip.consume(']'), ParseError);
    Fixture g("  ]x");
    g.skip.consume(']');
    EXPECT_EQ(g.json[g.cur.pos()], 'x');
}

TEST(SkipperStats, AccountingSumsAcrossGroups)
{
    Fixture f(R"({"a":{"b":1}},x)");
    f.skip.overObj(Group::G2);
    FastForwardStats& s = f.stats;
    EXPECT_EQ(s.total(), s.get(Group::G2));
    EXPECT_NEAR(s.overallRatio(f.json.size()),
                static_cast<double>(f.cur.pos()) / f.json.size(), 1e-12);
}
