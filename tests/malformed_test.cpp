/**
 * @file
 * Malformed-input unit suite: every public streamer / skipper / cursor
 * entry point must reject truncated, unbalanced, and unterminated
 * documents with ParseError carrying the expected ErrorCode and byte
 * position — never an assert, never a read past the input (the ASan CI
 * job enforces the latter on this same suite).
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "intervals/cursor.h"
#include "path/parser.h"
#include "ski/multi.h"
#include "ski/record_reader.h"
#include "ski/record_scanner.h"
#include "ski/skipper.h"
#include "ski/streamer.h"
#include "util/error.h"

using namespace jsonski;
using jsonski::path::parse;

namespace {

/** Run @p fn and return the ParseError it must throw. */
template <typename Fn>
ParseError
expectParseError(Fn&& fn)
{
    try {
        fn();
    } catch (const ParseError& e) {
        return e;
    }
    ADD_FAILURE() << "no ParseError thrown";
    return ParseError(ErrorCode::Unspecified, "none", 0);
}

/** Skipper fixture over a document. */
struct Fix
{
    explicit Fix(std::string text) : json(std::move(text)), cur(json), skip(cur) {}

    std::string json;
    intervals::StreamCursor cur;
    ski::Skipper skip;
};

} // namespace

TEST(MalformedSkipper, UnterminatedObjectReportsOpener)
{
    Fix f("  {\"a\": {\"b\": 1}");
    ParseError e = expectParseError([&] { f.skip.overObj(ski::Group::G2); });
    EXPECT_EQ(e.code(), ErrorCode::UnterminatedObject);
    EXPECT_EQ(e.position(), 2u); // the unmatched '{'
}

TEST(MalformedSkipper, UnterminatedArrayReportsOpener)
{
    Fix f("[1, [2, 3]");
    ParseError e = expectParseError([&] { f.skip.overAry(ski::Group::G2); });
    EXPECT_EQ(e.code(), ErrorCode::UnterminatedArray);
    EXPECT_EQ(e.position(), 0u);
}

TEST(MalformedSkipper, ToObjEndOnTruncatedInput)
{
    Fix f("\"k\": 1, \"m\": {\"x\": [");
    ParseError e = expectParseError([&] { f.skip.toObjEnd(ski::Group::G4); });
    EXPECT_EQ(e.code(), ErrorCode::UnterminatedObject);
    EXPECT_EQ(e.position(), 0u); // scan start
    EXPECT_LE(f.cur.pos(), f.cur.size()); // position never passes the end
}

TEST(MalformedSkipper, KeyOrCloseOnTruncatedInput)
{
    // The descendant key scan: stops at the candidate, keeps the depth
    // for the resume, and reports a container the input never closes
    // at the scan start.
    Fix f("\"x\": [1, {\"k\": 2}, {\"m\": [");
    uint64_t depth = 1;
    ASSERT_TRUE(f.skip.toKeyOrClose(true, depth, 'k', '"', ski::Group::G1));
    EXPECT_EQ(f.cur.pos(), 10u);
    EXPECT_EQ(depth, 2u);
    f.cur.setPos(13); // past the candidate's closing quote
    ParseError e = expectParseError(
        [&] { f.skip.toKeyOrClose(true, depth, 'k', '"', ski::Group::G1); });
    EXPECT_EQ(e.code(), ErrorCode::UnterminatedObject);
    EXPECT_EQ(e.position(), 13u); // scan start
    EXPECT_EQ(f.cur.pos(), f.cur.size());
}

TEST(MalformedSkipper, UnterminatedStringReportsOpeningQuote)
{
    Fix f("{\"a\": \"runs off the end");
    size_t quote = f.json.find(": \"") + 2;
    ParseError e = expectParseError([&] { f.skip.stringEnd(quote); });
    EXPECT_EQ(e.code(), ErrorCode::UnterminatedString);
    EXPECT_EQ(e.position(), quote);
}

TEST(MalformedSkipper, UnterminatedStringAcrossManyBlocks)
{
    Fix f("\"" + std::string(300, 'x')); // no closing quote, 5 blocks
    ParseError e = expectParseError([&] { f.skip.stringEnd(0); });
    EXPECT_EQ(e.code(), ErrorCode::UnterminatedString);
    EXPECT_EQ(e.position(), 0u);
}

TEST(MalformedSkipper, OverValueOnEmptyInput)
{
    Fix f("   ");
    ParseError e = expectParseError([&] { f.skip.overValue(ski::Group::G2); });
    EXPECT_EQ(e.code(), ErrorCode::UnexpectedEnd);
}

TEST(MalformedSkipper, ConsumeMissingPunctuation)
{
    Fix f("\"key\" 1");
    ParseError e = expectParseError([&] { f.skip.consume(':'); });
    EXPECT_EQ(e.code(), ErrorCode::ExpectedPunctuation);
    EXPECT_EQ(e.position(), 0u);
}

TEST(MalformedSkipper, ToAttrRejectsNonStringName)
{
    Fix f("42: 1}");
    ParseError e = expectParseError(
        [&] { f.skip.toAttr(ski::Skipper::TypeFilter::Any, ski::Group::G1); });
    EXPECT_EQ(e.code(), ErrorCode::BadAttributeName);
    EXPECT_EQ(e.position(), 0u);
}

TEST(MalformedSkipper, ToAttrMissingValue)
{
    Fix f("\"a\":");
    ParseError e = expectParseError(
        [&] { f.skip.toAttr(ski::Skipper::TypeFilter::Any, ski::Group::G1); });
    EXPECT_EQ(e.code(), ErrorCode::UnexpectedEnd);
    EXPECT_EQ(e.position(), f.json.size());
}

TEST(MalformedSkipper, ToAttrBatchScanHitsTruncation)
{
    // Batched primitive scan under a container filter, cut mid-run.
    Fix f("\"a\": 1, \"b\": 2, \"c\": 3");
    ParseError e = expectParseError(
        [&] { f.skip.toAttr(ski::Skipper::TypeFilter::Object, ski::Group::G1); });
    EXPECT_EQ(e.code(), ErrorCode::UnterminatedObject);
    EXPECT_LE(f.cur.pos(), f.cur.size());
}

TEST(MalformedSkipper, ElementScansOnTruncatedArray)
{
    {
        Fix f("1, 2, 3");
        size_t idx = 0;
        ParseError e = expectParseError([&] {
            f.skip.toElem(ski::Skipper::ElemKind::Object, idx, 10,
                          ski::Group::G1);
        });
        EXPECT_EQ(e.code(), ErrorCode::UnterminatedArray);
    }
    {
        Fix f("1, 2");
        size_t idx = 0;
        ParseError e = expectParseError(
            [&] {
                f.skip.toElem(ski::Skipper::ElemKind::None, idx, 5,
                              ski::Group::G5);
            });
        EXPECT_EQ(e.code(), ErrorCode::UnterminatedArray);
    }
    {
        Fix f("7, 8, ");
        size_t idx = 0;
        ParseError e = expectParseError([&] {
            f.skip.toElem(ski::Skipper::ElemKind::Object, idx, SIZE_MAX,
                          ski::Group::G1);
        });
        EXPECT_EQ(e.code(), ErrorCode::UnterminatedArray);
    }
}

TEST(MalformedSkipper, DeepUnbalancedOpeners)
{
    // Hundreds of openers, no closer: depth grows past one block's
    // worth without overflow, then the scan reports the damage.
    Fix f(std::string(500, '['));
    ParseError e = expectParseError([&] { f.skip.overAry(ski::Group::G2); });
    EXPECT_EQ(e.code(), ErrorCode::UnterminatedArray);
    EXPECT_EQ(e.position(), 0u);
    EXPECT_LE(f.cur.pos(), f.cur.size());
}

TEST(MalformedStreamer, EmptyAndTruncatedDocuments)
{
    auto q = parse("$.a.b");
    ParseError e =
        expectParseError([&] { ski::Streamer(q).run("", nullptr); });
    EXPECT_EQ(e.code(), ErrorCode::UnexpectedEnd);

    // Truncation on the match path is detected with a position.
    ParseError e2 = expectParseError(
        [&] { ski::Streamer(q).run(R"({"a": {"b": )", nullptr); });
    EXPECT_EQ(e2.code(), ErrorCode::UnexpectedEnd);
    EXPECT_LE(e2.position(), std::string(R"({"a": {"b": )").size());
}

TEST(MalformedStreamer, ArrayEndsWhereAnElementShouldStart)
{
    // The array walk stops at the end of input before handing an
    // element to any driver: untyped element steps of the linear,
    // NFA and multi-query drivers.
    const struct
    {
        const char* json;
        const char* query;
    } cases[] = {
        {R"({"a":[{"b":1},)", "$..a[?(@.b)]"},
        {"[1,", "$[*]..k"},
        {"[1, ", "$[*]"},
    };
    for (const auto& c : cases) {
        ParseError e = expectParseError(
            [&] { ski::Streamer(parse(c.query)).run(c.json, nullptr); });
        EXPECT_EQ(e.code(), ErrorCode::UnexpectedEnd) << c.query;
        EXPECT_EQ(e.position(), std::string(c.json).size()) << c.query;
    }
    std::vector<path::PathQuery> qs;
    qs.push_back(parse("$[*]"));
    qs.push_back(parse("$[0]"));
    ParseError e = expectParseError(
        [&] { ski::MultiStreamer(std::move(qs)).run("[1,", nullptr); });
    EXPECT_EQ(e.code(), ErrorCode::UnexpectedEnd);
    EXPECT_EQ(e.position(), 3u);
}

TEST(MalformedStreamer, UnterminatedStringInAttributeName)
{
    auto q = parse("$.key");
    ParseError e = expectParseError(
        [&] { ski::Streamer(q).run(R"({"key)", nullptr); });
    EXPECT_EQ(e.code(), ErrorCode::UnterminatedString);
    EXPECT_EQ(e.position(), 1u); // the opening quote of the name
}

TEST(MalformedScanner, StrayAndUnbalancedBytes)
{
    ParseError stray =
        expectParseError([] { ski::scanRecords("{} junk {}"); });
    EXPECT_EQ(stray.code(), ErrorCode::StrayByte);
    EXPECT_EQ(stray.position(), 3u);

    ParseError unbalanced =
        expectParseError([] { ski::scanRecords("]{}"); });
    EXPECT_EQ(unbalanced.code(), ErrorCode::UnbalancedClose);
    EXPECT_EQ(unbalanced.position(), 0u);

    ParseError tail = expectParseError([] { ski::scanRecords("{} [1,"); });
    EXPECT_EQ(tail.code(), ErrorCode::UnterminatedRecord);
}

TEST(MalformedReader, TruncatedTrailingRecord)
{
    std::istringstream in("{\"ok\":1}\n{\"cut\":");
    ski::RecordReader reader(in, 64);
    std::string_view rec;
    ASSERT_TRUE(reader.next(rec));
    ParseError e = expectParseError([&] { reader.next(rec); });
    EXPECT_EQ(e.code(), ErrorCode::UnterminatedRecord);
}

TEST(MalformedContract, PositionsNeverPassTheInput)
{
    // A grab bag of damaged documents: whatever throws must carry a
    // position inside [0, size].
    const char* docs[] = {
        "{",           "[",          "{\"a\"",      "{\"a\":",
        "{\"a\":1",    "[1,",        "\"abc",       "{]",
        "[}",          "{\"a\":[1}", "[{\"b\":2]",  "{{{{",
        "]]]]",        "{\"a\" 1}",  "nul",         "",
    };
    auto q = parse("$.a[0]");
    for (const char* doc : docs) {
        try {
            ski::Streamer(q).run(doc, nullptr);
        } catch (const ParseError& e) {
            EXPECT_LE(e.position(), std::string(doc).size()) << doc;
            EXPECT_NE(e.code(), ErrorCode::Unspecified) << doc;
        }
    }
}
