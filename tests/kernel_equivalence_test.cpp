/**
 * @file
 * Cross-ISA kernel differential: every kernel compiled into this
 * binary must produce bit-identical quote/backslash/string bitmaps,
 * metacharacter bitmaps, prefix-XOR/select results, and UTF-8 verdicts
 * on every input — the contract that makes runtime dispatch safe
 * (DESIGN.md §11).  The scalar kernel is the reference; each other
 * runnable kernel is compared against it over:
 *
 *   - seeded random blocks (uniform bytes, JSON-flavored bytes, and
 *     high-bit-heavy bytes),
 *   - adversarial boundary blocks (backslash at byte 63 carrying into
 *     byte 64, quote at byte 0, odd- and even-length escape runs
 *     ending exactly at the block boundary),
 *   - every 64-byte block of the seam/fuzz corpus documents
 *     (src/testing), including the padded partial tail.
 *
 * The scan loops compiled per kernel (intervals/scans.h) get the same
 * treatment one level up: container close, primitive runs with a
 * separator budget, string end, whitespace skip and the descendant
 * key-or-close scan must leave the same position, separator count,
 * remaining depth, ErrorCode and error position as the scalar
 * instantiation, whole-buffer and chunked.
 *
 * On hosts where only the scalar kernel passes its cpuid probe the
 * cross-kernel tests skip with a note instead of silently passing.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "intervals/chunk_source.h"
#include "intervals/classifier.h"
#include "intervals/cursor.h"
#include "json/utf8.h"
#include "kernels/kernel.h"
#include "path/parser.h"
#include "ski/skipper.h"
#include "ski/streamer.h"
#include "testing/differential.h"
#include "testing/mutator.h"
#include "util/bits.h"
#include "util/error.h"
#include "util/rng.h"

using namespace jsonski;
namespace jt = jsonski::testing;
using intervals::BlockBits;
using intervals::ClassifierCarry;
using intervals::kBlockSize;

namespace {

/** Runnable kernels other than scalar; empty on scalar-only hosts. */
std::vector<const kernels::Kernel*>
alternateKernels()
{
    std::vector<const kernels::Kernel*> out;
    for (const kernels::Kernel* k : kernels::runnable()) {
        if (std::string_view(k->name) != "scalar")
            out.push_back(k);
    }
    return out;
}

const kernels::Kernel&
scalarKernel()
{
    const kernels::Kernel* k = kernels::find("scalar");
    EXPECT_NE(k, nullptr);
    return *k;
}

#define SKIP_WITHOUT_SIMD_KERNELS(alts)                                   \
    do {                                                                  \
        if ((alts).empty())                                               \
            GTEST_SKIP() << "only the scalar kernel is runnable on this " \
                            "host; cross-kernel differential skipped";    \
    } while (0)

/** Handcrafted 64-byte block-boundary adversaries. */
std::vector<std::string>
adversarialBlocks()
{
    std::vector<std::string> blocks;
    std::string b(kBlockSize, 'x');
    b[63] = '\\'; // backslash at the last byte: carry into next block
    blocks.push_back(b);
    b = std::string(kBlockSize, 'x');
    b[0] = '"'; // quote at byte 0: carry-in sensitive
    blocks.push_back(b);
    for (size_t run = 1; run <= 8; ++run) {
        // Escape run of odd/even length ending exactly at byte 63.
        b = std::string(kBlockSize, 'x');
        for (size_t i = kBlockSize - run; i < kBlockSize; ++i)
            b[i] = '\\';
        blocks.push_back(b);
    }
    for (char closer : {'}', ']', ','}) {
        // Structural character on the last byte.
        b = std::string(kBlockSize, ' ');
        b[63] = closer;
        blocks.push_back(b);
    }
    blocks.push_back(std::string(kBlockSize, '\\'));
    blocks.push_back(std::string(kBlockSize, '"'));
    b.clear();
    for (size_t i = 0; i < kBlockSize / 2; ++i)
        b += "\\\"";
    blocks.push_back(b);
    return blocks;
}

/** 64-byte test blocks: random in three flavors + handcrafted
 *  boundary adversaries + every block of the fuzz/seam corpus. */
std::vector<std::string>
testBlocks()
{
    std::vector<std::string> blocks;
    Rng rng(0xC0FFEE);

    // Uniform random bytes: exercises every comparator including the
    // signed-compare pitfalls of movemask-based whitespace tests.
    for (int i = 0; i < 200; ++i) {
        std::string b(kBlockSize, '\0');
        for (char& c : b)
            c = static_cast<char>(rng.below(256));
        blocks.push_back(b);
    }

    // JSON-flavored bytes: dense in the nine metacharacters.
    static constexpr std::string_view flavored =
        "\"\\{}[],: \t\n\r0123456789abcxyz";
    for (int i = 0; i < 200; ++i) {
        std::string b(kBlockSize, '\0');
        for (char& c : b)
            c = flavored[rng.below(flavored.size())];
        blocks.push_back(b);
    }

    // High-bit-heavy bytes for the ASCII screen.
    for (int i = 0; i < 100; ++i) {
        std::string b(kBlockSize, '\0');
        for (char& c : b)
            c = static_cast<char>(0x60 + rng.below(0xA0));
        blocks.push_back(b);
    }

    std::vector<std::string> adversaries = adversarialBlocks();
    blocks.insert(blocks.end(), adversaries.begin(), adversaries.end());

    // Every full block of the corpus documents (the partial tails are
    // covered by the end-to-end document test below).
    for (const std::string& doc : jt::defaultCorpus(2048)) {
        for (size_t base = 0; base + kBlockSize <= doc.size();
             base += kBlockSize)
            blocks.push_back(doc.substr(base, kBlockSize));
    }
    return blocks;
}

bool
equalBits(const BlockBits& a, const BlockBits& b)
{
    return a.in_string == b.in_string && a.quote == b.quote &&
           a.open_brace == b.open_brace &&
           a.close_brace == b.close_brace &&
           a.open_bracket == b.open_bracket &&
           a.close_bracket == b.close_bracket && a.colon == b.colon &&
           a.comma == b.comma && a.whitespace == b.whitespace;
}

/**
 * Documents whose structure lands on every edge the scan loops treat
 * specially: a few shapes (escape runs, quoted metacharacters,
 * primitive runs, nesting) shifted by 0..70 bytes of mixed whitespace
 * after the opener, so each backslash run ends at byte 63, each quote
 * sits at byte 0 of a block, and the final closer lands on a block's
 * last byte for some shift; lengths cover partial tails.  The
 * classifier's boundary adversaries follow, as the second block of a
 * string value and of an array.  Each document is also cut short (the
 * closer dropped, and at half length) for the error paths.
 */
std::vector<std::string>
scanDocs()
{
    static const char* const shapes[] = {
        R"({"a": [1, 2, "x\"y", {"b": "}"}], "c\\": "d\\\"",)"
        R"( "e": [[], {}]})",
        R"([1, "a,b", [2, 3], {"k": [4, "]"]}, null, true, "\\", 5,)"
        R"( -1.5e3])",
        R"(["\\\"", {"s": "\"{[", "t": 7}, [[["x"]]], 8,9)"
        "\t,10\r\n"
        R"(, "\\"])",
        R"([0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,)"
        R"(23,24,25,26,27,28,29,{"a":[1,2]},[3],"x",31])",
        R"({"a": 1, "b": "s,", "c": null, "d": true, "e": 2.5, "f": "}",)"
        R"( "g": 3, "h": [1], "i": 4, "k": {"x": 1}})",
    };
    std::vector<std::string> whole;
    for (std::string_view shape : shapes) {
        for (size_t pad = 0; pad <= 70; ++pad) {
            std::string doc(shape.substr(0, 1));
            for (size_t i = 0; i < pad; ++i)
                doc += " \n \t \r"[i % 6];
            doc.append(shape.substr(1));
            whole.push_back(std::move(doc));
        }
    }
    for (const std::string& block : adversarialBlocks()) {
        whole.push_back("[\"" + std::string(kBlockSize - 2, 'y') + block +
                        "\", 1]");
        whole.push_back("[" + std::string(kBlockSize - 1, ' ') + block +
                        "]");
    }
    std::vector<std::string> docs;
    for (std::string& doc : whole) {
        docs.push_back(doc.substr(0, doc.size() - 1));
        docs.push_back(doc.substr(0, doc.size() / 2));
        docs.push_back(std::move(doc));
    }
    return docs;
}

/** Up to four positions of @p doc where the reference classifier sees a
 *  string open (@p open) or a whitespace run start outside strings. */
std::vector<size_t>
referencePositions(const std::string& doc, bool open)
{
    std::vector<size_t> out;
    ClassifierCarry carry;
    for (size_t base = 0; base < doc.size() && out.size() < 4;
         base += kBlockSize) {
        size_t len = std::min(kBlockSize, doc.size() - base);
        BlockBits b =
            intervals::classifyBlockReference(doc.data() + base, len, carry);
        for (size_t i = 0; i < len && out.size() < 4; ++i) {
            uint64_t bit = uint64_t{1} << i;
            size_t p = base + i;
            bool hit = open ? (b.quote & b.in_string & bit) != 0
                            : (b.whitespace & bit) != 0 &&
                                  (p == 0 || doc[p - 1] != ' ');
            if (hit)
                out.push_back(p);
        }
    }
    return out;
}

/** A cursor over @p doc: whole when @p chunk is 0, else in @p chunk-byte
 *  refills from @p src. */
void
openCursor(std::optional<intervals::StreamCursor>& cur,
           intervals::ViewSource& src, const std::string& doc, size_t chunk)
{
    if (chunk == 0)
        cur.emplace(doc);
    else
        cur.emplace(src, chunk);
}

/**
 * Every stop of the key-or-close scan for the candidate bytes @p k0
 * @p k1 over the container opening @p doc, from just past its opener
 * at depth 1, under the active kernel: stop kind, position and
 * remaining depth.  A candidate resumes past its string, as the
 * descendant search does.
 */
std::string
keyScanTrace(const std::string& doc, size_t chunk, char k0, char k1)
{
    intervals::ViewSource src(doc);
    std::optional<intervals::StreamCursor> cur;
    openCursor(cur, src, doc, chunk);
    const char open = doc[0];
    const char close = open == '{' ? '}' : ']';
    std::string out;
    uint64_t depth = 1;
    cur->setPos(1);
    for (int step = 0; step < 64; ++step) {
        intervals::KeyStop stop =
            cur->scans().key_or_close(*cur, open, close, depth, k0, k1);
        out += std::to_string(static_cast<int>(stop)) + "@" +
               std::to_string(cur->pos()) + "/" + std::to_string(depth) +
               " ";
        if (stop != intervals::KeyStop::Candidate)
            return out;
        size_t end = cur->scans().string_end(*cur, cur->pos());
        if (end == intervals::kUnterminated)
            return out + "unterminated";
        cur->setPos(end);
    }
    return out;
}

/** Candidate bytes (k0, k1) the key-scan checks try: one-, two-byte
 *  and empty keys, present and absent in the documents. */
constexpr std::pair<char, char> kKeyProbes[] = {
    {'a', '"'}, {'k', '"'}, {'"', '\0'}, {'i', 'd'}, {'x', 'y'},
};

/**
 * Everything the scan loops decide on @p doc under the active kernel:
 * one line per operation with its result, the final position, and the
 * ErrorCode and position of any ParseError.  @p chunk = 0 feeds the
 * document whole, otherwise in @p chunk-byte refills.
 */
std::vector<std::string>
scanOutcomes(const std::string& doc, size_t chunk)
{
    using ski::Group;
    using ski::Skipper;
    using intervals::StreamCursor;
    std::vector<std::string> out;
    auto run = [&](const std::string& label, auto&& op) {
        intervals::ViewSource src(doc);
        std::optional<StreamCursor> cur;
        openCursor(cur, src, doc, chunk);
        Skipper skip(*cur);
        std::string r;
        try {
            r = op(*cur, skip);
        } catch (const ParseError& e) {
            r = "error " + std::string(errorCodeName(e.code())) + " at " +
                std::to_string(e.position());
        }
        out.push_back(label + ": " + r + " pos=" + std::to_string(cur->pos()));
    };

    run("value", [](StreamCursor&, Skipper& s) {
        s.overValue(Group::G2);
        return std::string();
    });
    if (doc[0] == '[') {
        run("close", [](StreamCursor& c, Skipper& s) {
            c.setPos(1);
            s.toAryEnd(Group::G5);
            return std::string();
        });
        // The element scan's budgets alone (G5 count), then with each
        // typed stop (G1).
        using Kind = Skipper::ElemKind;
        for (Kind kind : {Kind::None, Kind::Object, Kind::Array}) {
            for (size_t budget : {1, 2, 3, 5, 31, 1000}) {
                run("elems " + std::to_string(static_cast<int>(kind)) + " " +
                        std::to_string(budget),
                    [kind, budget](StreamCursor& c, Skipper& s) {
                        c.setPos(1);
                        size_t idx = 0;
                        bool end = s.toElem(kind, idx, budget, Group::G5) ==
                                   Skipper::ElemStop::End;
                        return std::string(end ? "end" : "found") +
                               " seps=" + std::to_string(idx);
                    });
            }
        }
    }
    if (doc[0] == '{') {
        run("close", [](StreamCursor& c, Skipper& s) {
            c.setPos(1);
            s.toObjEnd(Group::G4);
            return std::string();
        });
        for (auto filter :
             {Skipper::TypeFilter::Object, Skipper::TypeFilter::Array}) {
            run("attr", [filter](StreamCursor& c, Skipper& s) {
                c.setPos(1);
                Skipper::AttrResult r = s.toAttr(filter, Group::G1);
                return std::to_string(r.found) + " key=" +
                       std::to_string(r.key_begin) + ".." +
                       std::to_string(r.key_end);
            });
        }
    }
    if (doc[0] == '{' || doc[0] == '[') {
        for (auto [k0, k1] : kKeyProbes)
            out.push_back("keys " + std::string{k0, k1} + ": " +
                          keyScanTrace(doc, chunk, k0, k1));
    }
    for (size_t p : referencePositions(doc, /*open=*/true)) {
        run("string " + std::to_string(p), [p](StreamCursor&, Skipper& s) {
            return std::to_string(s.stringEnd(p));
        });
    }
    for (size_t p : referencePositions(doc, /*open=*/false)) {
        run("space " + std::to_string(p), [p](StreamCursor& c, Skipper&) {
            c.setPos(p);
            return std::to_string(static_cast<int>(c.skipWhitespace()));
        });
    }
    return out;
}

std::string
hexBlock(const std::string& block)
{
    std::string out;
    char buf[4];
    for (unsigned char c : block) {
        std::snprintf(buf, sizeof buf, "%02x", c);
        out += buf;
    }
    return out;
}

} // namespace

TEST(KernelRegistry, ScalarAlwaysCompiledAndRunnable)
{
    bool have_scalar = false;
    for (const kernels::Kernel* k : kernels::all()) {
        if (std::string_view(k->name) == "scalar") {
            have_scalar = true;
            EXPECT_TRUE(k->supported());
        }
    }
    EXPECT_TRUE(have_scalar);
    EXPECT_FALSE(kernels::runnable().empty());
    // Best-first ordering: priorities strictly decrease.
    const auto& all = kernels::all();
    for (size_t i = 1; i < all.size(); ++i)
        EXPECT_GT(all[i - 1]->priority, all[i]->priority);
}

TEST(KernelRegistry, FindKnowsAliases)
{
    EXPECT_NE(kernels::find("scalar"), nullptr);
    EXPECT_EQ(kernels::find("no-such-kernel"), nullptr);
    const kernels::Kernel* sse2 = kernels::find("sse2");
    const kernels::Kernel* westmere = kernels::find("westmere");
    EXPECT_EQ(sse2, westmere); // alias or both absent (non-x86)
}

TEST(KernelRegistry, SelectRejectsBadNamesTyped)
{
    EXPECT_THROW((void)kernels::select("bogus"), ConfigError);
    EXPECT_THROW((void)kernels::select(""), ConfigError);
    EXPECT_THROW((void)kernels::select("AVX2"), ConfigError); // case
    EXPECT_THROW((void)kernels::select("avx2 "), ConfigError); // junk
    EXPECT_EQ(&kernels::select("scalar"), kernels::find("scalar"));
}

TEST(KernelRegistry, ActiveIsRunnable)
{
    const kernels::Kernel& k = kernels::active();
    EXPECT_TRUE(k.supported());
    EXPECT_EQ(kernels::activeName(), std::string_view(k.name));
}

TEST(KernelEquivalence, RawBitmapsBitIdentical)
{
    auto alts = alternateKernels();
    SKIP_WITHOUT_SIMD_KERNELS(alts);
    const kernels::Kernel& ref = scalarKernel();
    static constexpr char probes[] = {'"', '\\', '{', '}', '[', ']',
                                      ':', ',', ' ', 'x'};
    for (const std::string& block : testBlocks()) {
        kernels::RawBits64 want = ref.raw_bits(block.data());
        for (const kernels::Kernel* k : alts) {
            kernels::RawBits64 got = k->raw_bits(block.data());
            EXPECT_EQ(got.backslash, want.backslash)
                << k->name << " block " << hexBlock(block);
            EXPECT_EQ(got.quote, want.quote) << k->name;
            EXPECT_EQ(got.open_brace, want.open_brace) << k->name;
            EXPECT_EQ(got.close_brace, want.close_brace) << k->name;
            EXPECT_EQ(got.open_bracket, want.open_bracket) << k->name;
            EXPECT_EQ(got.close_bracket, want.close_bracket) << k->name;
            EXPECT_EQ(got.colon, want.colon) << k->name;
            EXPECT_EQ(got.comma, want.comma) << k->name;
            EXPECT_EQ(got.whitespace, want.whitespace) << k->name;

            kernels::StringRaw sw = ref.string_raw(block.data());
            kernels::StringRaw sg = k->string_raw(block.data());
            EXPECT_EQ(sg.backslash, sw.backslash) << k->name;
            EXPECT_EQ(sg.quote, sw.quote) << k->name;

            for (char c : probes)
                EXPECT_EQ(k->eq_bits(block.data(), c),
                          ref.eq_bits(block.data(), c))
                    << k->name << " eq '" << c << "'";
            EXPECT_EQ(k->whitespace_bits(block.data()),
                      ref.whitespace_bits(block.data()))
                << k->name << " block " << hexBlock(block);
            EXPECT_EQ(k->ascii_block(block.data()),
                      ref.ascii_block(block.data()))
                << k->name << " block " << hexBlock(block);
        }
    }
}

TEST(KernelEquivalence, WordPrimitivesBitIdentical)
{
    auto alts = alternateKernels();
    SKIP_WITHOUT_SIMD_KERNELS(alts);
    const kernels::Kernel& ref = scalarKernel();
    Rng rng(7);
    std::vector<uint64_t> words = {0,
                                   1,
                                   ~uint64_t{0},
                                   uint64_t{1} << 63,
                                   0x5555555555555555ULL,
                                   0xAAAAAAAAAAAAAAAAULL};
    for (int i = 0; i < 500; ++i)
        words.push_back(rng.next());
    for (uint64_t w : words) {
        for (const kernels::Kernel* k : alts) {
            EXPECT_EQ(k->prefix_xor(w), ref.prefix_xor(w))
                << k->name << " word " << w;
            int pc = bits::popcount(w);
            for (int kth = 1; kth <= pc; ++kth)
                EXPECT_EQ(k->select_bit(w, kth), ref.select_bit(w, kth))
                    << k->name << " word " << w << " k " << kth;
        }
    }
}

TEST(KernelEquivalence, ClassifierChainOverSeamCorpus)
{
    auto alts = alternateKernels();
    SKIP_WITHOUT_SIMD_KERNELS(alts);
    const kernels::Kernel& ref = scalarKernel();

    // Thread carries across every block of each document under one
    // kernel, then replay under the others: the full classification
    // stream (bitmaps AND carries, including the padded tail) must be
    // bit-identical, exactly what chunked ingestion relies on.
    for (const std::string& doc : jt::defaultCorpus(2048)) {
        std::vector<BlockBits> want;
        ClassifierCarry want_carry;
        {
            kernels::Override o(ref);
            ClassifierCarry carry;
            size_t base = 0;
            for (; base + kBlockSize <= doc.size(); base += kBlockSize)
                want.push_back(
                    intervals::classifyBlock(doc.data() + base, carry));
            if (base < doc.size())
                want.push_back(intervals::classifyPartialBlock(
                    doc.data() + base, doc.size() - base, carry));
            want_carry = carry;
        }
        for (const kernels::Kernel* k : alts) {
            kernels::Override o(*k);
            ClassifierCarry carry;
            std::vector<BlockBits> got;
            size_t base = 0;
            for (; base + kBlockSize <= doc.size(); base += kBlockSize)
                got.push_back(
                    intervals::classifyBlock(doc.data() + base, carry));
            if (base < doc.size())
                got.push_back(intervals::classifyPartialBlock(
                    doc.data() + base, doc.size() - base, carry));
            ASSERT_EQ(got.size(), want.size());
            for (size_t i = 0; i < got.size(); ++i)
                EXPECT_TRUE(equalBits(got[i], want[i]))
                    << k->name << " block " << i << " of doc "
                    << doc.substr(0, 80);
            EXPECT_EQ(carry.prev_escaped, want_carry.prev_escaped)
                << k->name;
            EXPECT_EQ(carry.prev_in_string, want_carry.prev_in_string)
                << k->name;
        }
    }
}

TEST(KernelEquivalence, Utf8VerdictsIdentical)
{
    auto alts = alternateKernels();
    SKIP_WITHOUT_SIMD_KERNELS(alts);
    const kernels::Kernel& ref = scalarKernel();

    std::vector<std::string> samples = jt::defaultCorpus(2048);
    // Invalid and boundary-placed sequences: the error *position* must
    // match too, which catches ASCII-screen off-by-one-block bugs.
    samples.push_back(std::string(64, 'a') + "\xC3");           // truncated
    samples.push_back(std::string(63, 'a') + "\xC3\xA9" + "b"); // straddle
    samples.push_back(std::string(64, 'a') + "\xED\xA0\x80");   // surrogate
    samples.push_back(std::string(100, 'a') + "\xF4\x90\x80\x80"); // >max
    samples.push_back("\x80 continuation first");
    samples.push_back(std::string(200, 'a') + "\xE2\x82\xAC" +
                      std::string(200, 'b'));

    for (const std::string& s : samples) {
        json::Utf8Result want;
        {
            kernels::Override o(ref);
            want = json::validateUtf8(s);
        }
        for (const kernels::Kernel* k : alts) {
            kernels::Override o(*k);
            json::Utf8Result got = json::validateUtf8(s);
            EXPECT_EQ(got.ok, want.ok) << k->name;
            EXPECT_EQ(got.error_position, want.error_position) << k->name;
        }
    }
}

TEST(KernelEquivalence, ScanLoopsAgreeWithScalar)
{
    auto alts = alternateKernels();
    SKIP_WITHOUT_SIMD_KERNELS(alts);
    const kernels::Kernel& ref = scalarKernel();
    for (const std::string& doc : scanDocs()) {
        for (size_t chunk : {0, 1, 63, 64, 65}) {
            std::vector<std::string> want;
            {
                kernels::Override o(ref);
                want = scanOutcomes(doc, chunk);
            }
            for (const kernels::Kernel* k : alts) {
                kernels::Override o(*k);
                EXPECT_EQ(scanOutcomes(doc, chunk), want)
                    << k->name << " chunk " << chunk << " doc " << doc;
            }
        }
    }
}

TEST(KernelEquivalence, KeyOrCloseAgreesOverRandomAndMutatedInputs)
{
    auto alts = alternateKernels();
    SKIP_WITHOUT_SIMD_KERNELS(alts);
    std::vector<std::string> docs;
    // Random containers dense in quotes, escapes, brackets and the
    // probed key bytes.
    Rng rng(0x5EED);
    static constexpr std::string_view alphabet = "\"\\{}[],: \nakidxy";
    for (int i = 0; i < 300; ++i) {
        std::string doc(1, rng.below(2) ? '{' : '[');
        size_t n = rng.below(300);
        for (size_t j = 0; j < n; ++j)
            doc += alphabet[rng.below(alphabet.size())];
        docs.push_back(std::move(doc));
    }
    // Mutants of the corpus records.
    jt::StructuredMutator mutator(17);
    for (const std::string& doc : jt::defaultCorpus(1024)) {
        for (int i = 0; i < 4; ++i) {
            std::string m = mutator.mutate(doc);
            if (!m.empty() && (m[0] == '{' || m[0] == '['))
                docs.push_back(std::move(m));
        }
    }
    const kernels::Kernel& ref = scalarKernel();
    for (const std::string& doc : docs) {
        for (size_t chunk : {0, 1, 64, 65}) {
            for (auto [k0, k1] : kKeyProbes) {
                std::string want;
                {
                    kernels::Override o(ref);
                    want = keyScanTrace(doc, chunk, k0, k1);
                }
                for (const kernels::Kernel* k : alts) {
                    kernels::Override o(*k);
                    EXPECT_EQ(keyScanTrace(doc, chunk, k0, k1), want)
                        << k->name << " chunk " << chunk << " key "
                        << k0 << k1 << " doc " << doc;
                }
            }
        }
    }
}

TEST(KernelEquivalence, OverrideSelectsTheStreamersScanLoops)
{
    const std::string doc = R"({"a": [1, {"b": "x"}, [2]], "c": 3})";
    ski::Streamer streamer(path::parse("$.a[1].b"));
    for (const kernels::Kernel* k : kernels::runnable()) {
        kernels::Override o(*k);
        EXPECT_STREQ(intervals::StreamCursor(doc).scans().kernel, k->name);
        ski::StreamResult whole = streamer.run(doc);
        EXPECT_EQ(whole.matches, 1u);
        EXPECT_STREQ(whole.kernel, k->name);
        intervals::ViewSource src(doc);
        ski::StreamResult chunked = streamer.run(src, nullptr, 7);
        EXPECT_EQ(chunked.matches, 1u);
        EXPECT_STREQ(chunked.kernel, k->name);
    }
}
