/** @file Tests for the lazy bitmap accessors of the stream cursor. */
#include "intervals/cursor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "util/rng.h"

using namespace jsonski::intervals;
namespace bits = jsonski::bits;

TEST(CursorLazy, BitsMatchEagerClassification)
{
    std::string s = R"({"a": [1, "x,y"], "b": {"c": 2}, "d": null})";
    s += std::string(100, ' ');
    s += R"([{"e": 3}])";
    StreamCursor lazy(s);
    StreamCursor eager(s);
    for (size_t base = 0; base < s.size(); base += kBlockSize) {
        lazy.setPos(base);
        eager.setPos(base);
        const BlockBits& full = eager.block();
        EXPECT_EQ(lazy.bits('{'), full.open_brace) << base;
        EXPECT_EQ(lazy.bits('}'), full.close_brace) << base;
        EXPECT_EQ(lazy.bits('['), full.open_bracket) << base;
        EXPECT_EQ(lazy.bits(']'), full.close_bracket) << base;
        EXPECT_EQ(lazy.bits(':'), full.colon) << base;
        EXPECT_EQ(lazy.bits(','), full.comma) << base;
    }
}

TEST(CursorLazy, StringLayerMasksLazily)
{
    std::string s = R"({"m": "a{b}c[d]e:f,g"})";
    s.resize(64, ' ');
    StreamCursor cur(s);
    // Metachars inside the value string must be masked.
    EXPECT_EQ(bits::popcount(cur.bits('{')), 1);
    EXPECT_EQ(bits::popcount(cur.bits('}')), 1);
    EXPECT_EQ(bits::popcount(cur.bits('[')), 0);
    EXPECT_EQ(bits::popcount(cur.bits(':')), 1);
    EXPECT_EQ(bits::popcount(cur.bits(',')), 0);
}

TEST(CursorLazy, StringsAtThreadsCarriesForward)
{
    // A string crossing three blocks.
    std::string s = "[\"" + std::string(150, 'x') + "\", 1]";
    StreamCursor cur(s);
    const StringBits& b0 = cur.stringsAt(0);
    EXPECT_NE(b0.in_string, 0u);
    const StringBits& b1 = cur.stringsAt(1);
    EXPECT_EQ(b1.in_string, ~uint64_t{0}); // fully inside
    const StringBits& b2 = cur.stringsAt(2);
    EXPECT_NE(b2.quote, 0u); // closing quote lives here
}

TEST(CursorLazy, AgreesWithReferenceClassifier)
{
    jsonski::Rng rng(5);
    std::string s;
    static constexpr char chars[] = "{}[]:,\"\\ ab1\n";
    for (int i = 0; i < 500; ++i)
        s += chars[rng.below(sizeof(chars) - 1)];
    StreamCursor cur(s);
    ClassifierCarry carry;
    for (size_t base = 0; base < s.size(); base += kBlockSize) {
        BlockBits want = classifyBlockReference(
            s.data() + base, std::min(kBlockSize, s.size() - base), carry);
        cur.setPos(base);
        EXPECT_EQ(cur.strings().in_string, want.in_string) << base;
        EXPECT_EQ(cur.strings().quote, want.quote) << base;
        EXPECT_EQ(cur.bits('{'), want.open_brace) << base;
        EXPECT_EQ(cur.bits(','), want.comma) << base;
    }
}

TEST(CursorLazy, PartialTailBlockIsPadded)
{
    std::string s = R"({"a":1})"; // 8 bytes
    StreamCursor cur(s);
    // Bits beyond the input must be zero for structural classes.
    EXPECT_EQ(cur.bits('}') >> s.size(), 0u);
    EXPECT_EQ(cur.bits('{'), 1u);
}

TEST(CursorLazy, EagerBlockCacheInvalidatesAcrossBlocks)
{
    std::string s(200, ',');
    StreamCursor cur(s);
    EXPECT_EQ(cur.block().comma, ~uint64_t{0});
    cur.setPos(64);
    EXPECT_EQ(cur.block().comma, ~uint64_t{0});
    cur.setPos(192); // final partial block: 8 commas
    EXPECT_EQ(bits::popcount(cur.block().comma), 8);
}
