#include "testing/mutator.h"

#include <iterator>
#include <utility>
#include <vector>

#include "intervals/block.h"
#include "json/text.h"
#include "path/ast.h"
#include "path/parser.h"

namespace jsonski::testing {

namespace {

/** Attribute-name pool; the last two require bracket quoting. */
constexpr const char* kQueryFields[] = {"id",  "nm",    "url",     "pr",
                                        "a",   "b",     "odd key", "a'b"};

path::FilterLiteral
randomLiteral(Rng& rng)
{
    using path::FilterLiteral;
    switch (rng.below(6)) {
      case 0: return FilterLiteral::makeNull();
      case 1: return FilterLiteral::makeBool(rng.below(2) != 0);
      case 2: // small integer, possibly negative
        return FilterLiteral::makeNumber(
            static_cast<double>(rng.below(201)) - 100.0);
      case 3: // non-integer
        return FilterLiteral::makeNumber(
            (static_cast<double>(rng.below(1601)) - 800.0) / 8.0);
      case 4:
        return FilterLiteral::makeString(
            kQueryFields[rng.below(std::size(kQueryFields))]);
      default: // escapes must survive the print/parse round trip
        return FilterLiteral::makeString("q\\u'\n\t");
    }
}

path::PathStep
randomStep(Rng& rng)
{
    using path::PathStep;
    const char* field = kQueryFields[rng.below(std::size(kQueryFields))];
    switch (rng.below(8)) {
      case 0:
      case 1: return PathStep::makeKey(field);
      case 2: return PathStep::makeIndex(rng.below(5));
      case 3: {
        size_t lo = rng.below(4);
        return PathStep::makeSlice(lo, lo + 1 + rng.below(3));
      }
      case 4: return PathStep::makeWildcard();
      case 5: return PathStep::makeDescendant(field);
      default: {
        auto op = static_cast<path::FilterOp>(rng.below(7));
        path::FilterLiteral lit = randomLiteral(rng);
        // Ordering ops only compare numbers and strings; keep the
        // generated queries meaningful (Exists ignores the literal).
        if (op != path::FilterOp::Exists &&
            lit.kind != path::FilterLiteral::Kind::Number &&
            lit.kind != path::FilterLiteral::Kind::String &&
            op != path::FilterOp::Eq && op != path::FilterOp::Ne) {
            op = path::FilterOp::Eq;
        }
        return PathStep::makeFilter(field, op, std::move(lit));
      }
    }
}

/**
 * Spans of the `"key":value` members of every object in @p doc, end
 * trimmed of whitespace.  A lexical scan (string state and a container
 * stack), so damaged documents yield some spans and never a crash.
 */
std::vector<std::pair<size_t, size_t>>
memberSpans(const std::string& doc)
{
    constexpr size_t kNone = std::string::npos;
    struct Open
    {
        bool object;
        size_t member = kNone; ///< start of the member being read
    };
    std::vector<Open> open;
    std::vector<std::pair<size_t, size_t>> spans;
    auto endMember = [&](size_t end) {
        Open& top = open.back();
        if (top.object && top.member != kNone) {
            while (end > top.member && json::isWhitespace(doc[end - 1]))
                --end;
            spans.emplace_back(top.member, end);
        }
        top.member = kNone;
    };
    bool in_string = false;
    for (size_t i = 0; i < doc.size(); ++i) {
        char c = doc[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
        } else if (c == '"') {
            in_string = true;
            if (!open.empty() && open.back().object &&
                open.back().member == kNone)
                open.back().member = i; // the key's opening quote
        } else if (c == '{' || c == '[') {
            open.push_back({c == '{'});
        } else if (!open.empty() && (c == ',' || c == '}' || c == ']')) {
            endMember(i);
            if (c != ',')
                open.pop_back();
        }
    }
    return spans;
}

} // namespace

std::string
QueryMutator::wellFormed()
{
    path::PathQuery q;
    size_t n = 1 + rng_.below(4);
    for (size_t i = 0; i < n; ++i)
        q.steps.push_back(randomStep(rng_));
    std::string text = q.toString();
    // Occasionally spell predicates non-canonically: whitespace after
    // `[?(` and before `)]` is legal and must normalize away.
    if (rng_.below(3) == 0) {
        for (size_t p = 0; (p = text.find("[?(", p)) != std::string::npos;
             p += 4)
            text.insert(p + 3, 1, ' ');
        for (size_t p = 0; (p = text.find(")]", p)) != std::string::npos;
             p += 3)
            text.insert(p, 1, ' ');
    }
    return text;
}

std::vector<std::string>
QueryMutator::querySet()
{
    std::vector<std::string> set;
    size_t n = 2 + rng_.below(4);
    for (size_t i = 0; i < n; ++i) {
        size_t shape = rng_.below(6);
        if (!set.empty() && shape == 0) {
            // Exact duplicate: the batched engine must collapse it.
            set.push_back(set[rng_.below(set.size())]);
        } else if (!set.empty() && shape <= 2) {
            // Overlapping prefix: extend an earlier query by one step,
            // so the shared trie gets real multi-query nodes.
            path::PathQuery q =
                path::parse(set[rng_.below(set.size())]);
            q.steps.push_back(randomStep(rng_));
            set.push_back(q.toString());
        } else {
            set.push_back(wellFormed());
        }
    }
    return set;
}

std::string
QueryMutator::nearMiss()
{
    std::string text = wellFormed();
    switch (rng_.below(4)) {
      case 0: // truncate (never to empty: that is just "$" territory)
        text.resize(1 + rng_.below(text.size()));
        break;
      case 1: // delete one byte
        text.erase(rng_.below(text.size()), 1);
        break;
      case 2: { // duplicate one byte
        size_t p = rng_.below(text.size());
        text.insert(p, 1, text[p]);
        break;
      }
      default: { // splice a grammar metacharacter
        static constexpr char kMeta[] = "=!<>()[]'\".?@$*:,x ";
        size_t p = rng_.below(text.size() + 1);
        text.insert(p, 1, kMeta[rng_.below(sizeof(kMeta) - 1)]);
        break;
      }
    }
    return text;
}

std::string
describe(const Mutation& m)
{
    const char* name = "?";
    switch (m.kind) {
      case Mutation::Kind::Truncate: name = "truncate"; break;
      case Mutation::Kind::FlipContainer: name = "flip-container"; break;
      case Mutation::Kind::DropQuote: name = "drop-quote"; break;
      case Mutation::Kind::SpliceByte: name = "splice-byte"; break;
      case Mutation::Kind::BlockBoundary: name = "block-boundary"; break;
      case Mutation::Kind::DuplicateMember: name = "duplicate-member"; break;
    }
    std::string out = name;
    out += " @" + std::to_string(m.position);
    if (m.byte != '\0') {
        out += " -> '";
        out += m.byte;
        out += '\'';
    }
    return out;
}

void
StructuredMutator::applyOne(std::string& doc, std::vector<Mutation>& applied)
{
    static constexpr char kContainers[] = "{}[]";
    static constexpr char kSplice[] = "{}[]\",:\\ x1-";
    switch (rng_.below(6)) {
      case 0: { // Truncate
        size_t cut = rng_.below(doc.size() + 1);
        doc.resize(cut);
        applied.push_back({Mutation::Kind::Truncate, cut, '\0'});
        break;
      }
      case 1: { // FlipContainer
        if (doc.empty())
            break;
        size_t p = rng_.below(doc.size());
        char b = kContainers[rng_.below(4)];
        doc[p] = b;
        applied.push_back({Mutation::Kind::FlipContainer, p, b});
        break;
      }
      case 2: { // DropQuote: delete a randomly chosen '"'
        size_t quotes = 0;
        for (char c : doc)
            quotes += c == '"';
        if (quotes == 0)
            break;
        size_t target = rng_.below(quotes);
        for (size_t i = 0; i < doc.size(); ++i) {
            if (doc[i] == '"' && target-- == 0) {
                doc.erase(i, 1);
                applied.push_back({Mutation::Kind::DropQuote, i, '\0'});
                break;
            }
        }
        break;
      }
      case 3: { // SpliceByte: insert or overwrite one byte
        char b = kSplice[rng_.below(sizeof(kSplice) - 1)];
        size_t p = rng_.below(doc.size() + 1);
        if (rng_.chance(0.5) || doc.empty())
            doc.insert(p, 1, b);
        else
            doc[p % doc.size()] = b;
        applied.push_back({Mutation::Kind::SpliceByte, p, b});
        break;
      }
      case 4: { // BlockBoundary: damage right at a 64-byte edge
        constexpr size_t kBlock = intervals::kBlockSize;
        if (doc.size() <= kBlock)
            break;
        size_t boundary = (1 + rng_.below(doc.size() / kBlock)) * kBlock;
        // Offsets 62..65 relative to the block start straddle the edge.
        size_t p = boundary - 2 + rng_.below(4);
        if (p >= doc.size())
            break;
        static constexpr char kEdge[] = "{}[]\"\\,";
        char b = kEdge[rng_.below(sizeof(kEdge) - 1)];
        doc[p] = b;
        applied.push_back({Mutation::Kind::BlockBoundary, p, b});
        break;
      }
      case 5: { // DuplicateMember: `"k":v` becomes `"k":v,"k":v`
        std::vector<std::pair<size_t, size_t>> spans = memberSpans(doc);
        if (spans.empty())
            break;
        auto [begin, end] = spans[rng_.below(spans.size())];
        doc.insert(end, "," + doc.substr(begin, end - begin));
        applied.push_back({Mutation::Kind::DuplicateMember, end, '\0'});
        break;
      }
    }
}

std::string
StructuredMutator::mutate(std::string_view doc,
                          std::vector<Mutation>* applied)
{
    std::string out(doc);
    std::vector<Mutation> edits;
    size_t n = 1 + rng_.below(3);
    for (size_t i = 0; i < n; ++i)
        applyOne(out, edits);
    if (applied)
        *applied = std::move(edits);
    return out;
}

} // namespace jsonski::testing
