#include "ski/skipper.h"

#include <cassert>

#include "util/error.h"

namespace jsonski::ski {

using intervals::kBlockSize;
using intervals::RunStop;

void
Skipper::consume(char expected)
{
    char c = cur_.skipWhitespace();
    if (c != expected)
        throw ParseError(ErrorCode::ExpectedPunctuation,
                         std::string("expected '") + expected + "'",
                         cur_.pos());
    cur_.advance(1);
}

void
Skipper::overValue(Group g)
{
    char c = cur_.skipWhitespace();
    switch (c) {
      case '{':
        overObj(g);
        break;
      case '[':
        overAry(g);
        break;
      case '\0':
        throw ParseError(ErrorCode::UnexpectedEnd, "unexpected end of input",
                         cur_.pos());
      default:
        overPrimitive(g);
        break;
    }
}

void
Skipper::overObj(Group g)
{
    cur_.skipWhitespace();
    size_t start = cur_.pos();
    consume('{');
    // The consumed opener is a *child* of the container the driver is
    // inside, so its closer lives one level below (structural_scan.h).
    closeContainer(/*object=*/true, /*depth=*/1, g, start,
                   indexedLevel() + 1);
}

void
Skipper::overAry(Group g)
{
    cur_.skipWhitespace();
    size_t start = cur_.pos();
    consume('[');
    closeContainer(/*object=*/false, /*depth=*/1, g, start,
                   indexedLevel() + 1);
}

void
Skipper::toObjEnd(Group g)
{
    closeContainer(/*object=*/true, /*depth=*/1, g, cur_.pos(),
                   indexedLevel());
}

void
Skipper::toAryEnd(Group g)
{
    closeContainer(/*object=*/false, /*depth=*/1, g, cur_.pos(),
                   indexedLevel());
}

void
Skipper::closeContainer(bool object, uint64_t depth, Group g,
                        size_t account_from, int64_t close_level)
{
    assert(depth > 0);
    telemetry::PhaseScope phase(telemetry::Phase::Pair);
    size_t start = account_from;
    const char open_ch = object ? '{' : '[';
    const char close_ch = object ? '}' : ']';
    if (depth == 1 && indexable(close_level)) {
        // Warm path (G4): the level bitmap holds exactly one closer in
        // the remainder of this container — its own — so the target is
        // a single next-bit query, and the cursor teleports there with
        // the index's entry carry instead of pairing block by block.
        // The byte itself is still verified: a stale or foreign index
        // (the caller owns the identity check) surfaces as
        // IndexMismatch, never as silently wrong output.
        auto level = static_cast<size_t>(close_level);
        size_t target = index_->nextClose(level, cur_.pos());
        if (target == index::StructuralIndex::kNone ||
            !cur_.warpTo(target, index_->carryFor(target / kBlockSize)))
            throw ParseError(ErrorCode::IndexMismatch,
                             "structural index has no closer for this "
                             "container",
                             cur_.pos());
        if (cur_.at(target) != close_ch)
            throw ParseError(ErrorCode::IndexMismatch,
                             "structural index points at the wrong "
                             "closer",
                             target);
        cur_.setPos(target + 1);
        account(g, start, cur_.pos());
        return;
    }
    if (!cur_.scans().close_container(cur_, open_ch, close_ch, depth))
        throw ParseError(object ? ErrorCode::UnterminatedObject
                                : ErrorCode::UnterminatedArray,
                         object ? "unterminated object"
                                : "unterminated array",
                         start);
    account(g, start, cur_.pos());
}

bool
Skipper::toKeyOrClose(bool object, uint64_t& depth, char k0, char k1,
                      Group g)
{
    telemetry::PhaseScope phase(telemetry::Phase::Pair);
    size_t start = cur_.pos();
    intervals::KeyStop stop = cur_.scans().key_or_close(
        cur_, object ? '{' : '[', object ? '}' : ']', depth, k0, k1);
    if (stop == intervals::KeyStop::End)
        throw ParseError(object ? ErrorCode::UnterminatedObject
                                : ErrorCode::UnterminatedArray,
                         object ? "unterminated object"
                                : "unterminated array",
                         start);
    account(g, start, cur_.pos());
    return stop == intervals::KeyStop::Candidate;
}

void
Skipper::overPrimitive(Group g)
{
    telemetry::PhaseScope phase(telemetry::Phase::Skip);
    size_t start = cur_.pos();
    cur_.scans().primitive_end(cur_);
    account(g, start, cur_.pos());
}

size_t
Skipper::stringEnd(size_t open_pos)
{
    size_t end = cur_.scans().string_end(cur_, open_pos);
    if (end == intervals::kUnterminated)
        throw ParseError(ErrorCode::UnterminatedString,
                         "unterminated string", open_pos);
    return end;
}

RunStop
Skipper::scanPrimitives(bool closer_is_brace, size_t max_seps, size_t& seps,
                        Group g)
{
    assert(seps < max_seps);
    telemetry::PhaseScope phase(telemetry::Phase::Skip);
    size_t start = cur_.pos();
    const char closer_ch = closer_is_brace ? '}' : ']';
    int64_t lvl = indexedLevel();
    if (indexable(lvl)) {
        // Warm path (G1/G5): at this container's level the bitmaps
        // hold exactly its child openers, its separators, and its own
        // closer, so the stop of the whole primitive run is one
        // next-bit query and the separators before it are a rank/
        // select.  Scan-hold and position land exactly where the
        // block-by-block scan leaves them, so downstream key recovery
        // (keyBefore) and chunked retention behave identically.
        auto level = static_cast<size_t>(lvl);
        size_t stop = index_->nextOpenOrClose(level, start);
        if (stop == index::StructuralIndex::kNone)
            throw ParseError(ErrorCode::IndexMismatch,
                             "structural index has no stop for this "
                             "primitive run",
                             start);
        size_t n = index_->countCommas(level, start, stop);
        size_t budget = max_seps - seps;
        if (n >= budget) {
            size_t k = index_->selectComma(level, start, stop, budget);
            assert(k != index::StructuralIndex::kNone);
            seps = max_seps;
            // Release bytes behind the budget separator before the
            // warp so the window recycles over the skipped span.
            cur_.setScanHold(k + 1);
            if (!cur_.warpTo(k, index_->carryFor(k / kBlockSize)))
                throw ParseError(ErrorCode::IndexMismatch,
                                 "input ends before the indexed "
                                 "separator",
                                 start);
            cur_.setPos(k + 1);
            account(g, start, cur_.pos());
            return RunStop::SepBudget;
        }
        if (n != 0) {
            size_t last = index_->selectComma(level, start, stop, n);
            cur_.setScanHold(last + 1);
        }
        seps += n;
        if (!cur_.warpTo(stop, index_->carryFor(stop / kBlockSize)))
            throw ParseError(ErrorCode::IndexMismatch,
                             "input ends before the indexed stop",
                             start);
        cur_.setPos(stop);
        account(g, start, cur_.pos());
        char c = cur_.current();
        if (c == '{')
            return RunStop::OpenBrace;
        if (c == '[')
            return RunStop::OpenBracket;
        if (c == closer_ch)
            return RunStop::Closer;
        throw ParseError(ErrorCode::IndexMismatch,
                         "structural index points at a foreign stop",
                         stop);
    }
    RunStop stop =
        cur_.scans().primitive_run(cur_, closer_ch, max_seps - seps, seps);
    if (stop == RunStop::End)
        throw ParseError(closer_is_brace ? ErrorCode::UnterminatedObject
                                         : ErrorCode::UnterminatedArray,
                         "unexpected end of input while skipping primitives",
                         start);
    account(g, start, cur_.pos());
    return stop;
}

Skipper::AttrResult
Skipper::toAttr(TypeFilter filter, Group g)
{
    for (;;) {
        char c = cur_.skipWhitespace();
        if (c == ',') {
            cur_.advance(1);
            c = cur_.skipWhitespace();
        }
        if (c == '}') {
            cur_.advance(1);
            cur_.clearScanHold();
            return {};
        }
        if (c != '"')
            throw ParseError(ErrorCode::BadAttributeName,
                             "expected attribute name", cur_.pos());
        // Pin the key: the cursor position moves past it (':', value
        // lookahead) before the caller slices it, and in batch mode
        // keyBefore re-parses forward from this hold.  Cleared on
        // every exit so retention never outlives the attribute.
        cur_.setScanHold(cur_.pos());
        size_t key_begin = cur_.pos() + 1;
        size_t key_close = stringEnd(cur_.pos()); // one past closing quote
        cur_.setPos(key_close);
        consume(':');
        c = cur_.skipWhitespace();
        if (c == '\0')
            throw ParseError(ErrorCode::UnexpectedEnd,
                             "missing attribute value", cur_.pos());

        switch (filter) {
          case TypeFilter::Any:
            cur_.clearScanHold();
            return {true, key_begin, key_close - 1};
          case TypeFilter::Object:
            if (c == '{') {
                cur_.clearScanHold();
                return {true, key_begin, key_close - 1};
            }
            if (c == '[') {
                cur_.clearScanHold();
                overAry(g);
                continue;
            }
            break;
          case TypeFilter::Array:
            if (c == '[') {
                cur_.clearScanHold();
                return {true, key_begin, key_close - 1};
            }
            if (c == '{') {
                cur_.clearScanHold();
                overObj(g);
                continue;
            }
            break;
        }

        if (!batch_primitives_) {
            cur_.clearScanHold();
            overPrimitive(g); // one attribute at a time (ablation mode)
            continue;
        }
        // Primitive value under a container-type filter: batch-skip the
        // whole run of primitive attributes (enhanced goOverPriAttrs of
        // Algorithm 5) until a container value or the object end.
        size_t seps = 0;
        RunStop stop = scanPrimitives(/*closer_is_brace=*/true,
                                       /*max_seps=*/SIZE_MAX, seps, g);
        if (stop == RunStop::Closer) {
            cur_.advance(1); // consume '}'
            cur_.clearScanHold();
            return {};
        }
        bool is_object_value = (stop == RunStop::OpenBrace);
        if (is_object_value == (filter == TypeFilter::Object)) {
            AttrResult r = keyBefore(cur_.pos());
            r.found = true;
            cur_.clearScanHold();
            return r;
        }
        // Wrong container type: skip the value and keep scanning.
        cur_.clearScanHold();
        if (is_object_value)
            overObj(g);
        else
            overAry(g);
    }
}

Skipper::AttrResult
Skipper::keyBefore(size_t value_pos) const
{
    telemetry::count(telemetry::Counter::PairingFallbackParses);
    auto is_ws = [](char c) {
        return c == ' ' || c == '\t' || c == '\n' || c == '\r';
    };
    // Re-parse the attribute name FORWARD from the scan hold rather
    // than scanning backward from the value.  The batched scan retains
    // every byte from just after the last consumed separator (or from
    // the first key of the run), so all of [scanHold, value_pos) is
    // resident in chunked mode.  A backward scan has no such floor: on
    // malformed input its quote/escape search can walk below the
    // retention window into discarded bytes.
    size_t i = cur_.scanHold();
    assert(i != intervals::StreamCursor::kNoHold && i <= value_pos);
    while (i < value_pos && is_ws(cur_.at(i)))
        ++i;
    if (i == value_pos || cur_.at(i) != '"')
        throw ParseError(ErrorCode::BadAttributeName,
                         "expected attribute name before ':'", i);
    size_t key_begin = i + 1;
    size_t j = key_begin;
    bool escaped = false;
    while (j < value_pos) {
        char c = cur_.at(j);
        if (escaped)
            escaped = false;
        else if (c == '\\')
            escaped = true;
        else if (c == '"')
            break;
        ++j;
    }
    if (j == value_pos)
        throw ParseError(ErrorCode::BadAttributeName,
                         "unterminated attribute name", key_begin - 1);
    size_t key_end = j; // index of the closing quote
    size_t k = j + 1;
    while (k < value_pos && is_ws(cur_.at(k)))
        ++k;
    if (k == value_pos || cur_.at(k) != ':')
        throw ParseError(ErrorCode::ExpectedPunctuation,
                         "expected ':' before attribute value", k);
    ++k;
    while (k < value_pos && is_ws(cur_.at(k)))
        ++k;
    if (k != value_pos)
        throw ParseError(ErrorCode::ExpectedPunctuation,
                         "expected ':' before attribute value", k);
    AttrResult r;
    r.key_begin = key_begin;
    r.key_end = key_end;
    return r;
}

Skipper::ElemStop
Skipper::toElem(ElemKind stop_at, size_t& idx, size_t limit, Group g)
{
    const auto stops = static_cast<unsigned>(stop_at);
    for (;;) {
        if (idx >= limit) {
            cur_.clearScanHold();
            return ElemStop::Found; // budget reached; caller re-checks idx
        }
        char c = cur_.skipWhitespace();
        if (c == ']') {
            cur_.advance(1);
            cur_.clearScanHold();
            return ElemStop::End;
        }
        if (c == '\0')
            throw ParseError(ErrorCode::UnterminatedArray,
                             "unterminated array", cur_.pos());
        if ((c == '{' && (stops & 1)) || (c == '[' && (stops & 2))) {
            cur_.clearScanHold();
            return ElemStop::Found;
        }
        if (c == '{' || c == '[' || !batch_primitives_) {
            // Wrong-typed element (or per-element ablation mode): skip
            // it whole, then its separator.  Any scan hold left by a
            // batched run would pin the window open across the whole
            // skipped container, so drop it first.
            cur_.clearScanHold();
            if (c == '{')
                overObj(g);
            else if (c == '[')
                overAry(g);
            else
                overPrimitive(g);
            c = cur_.skipWhitespace();
            if (c == ',') {
                cur_.advance(1);
                ++idx;
                continue;
            }
            if (c == ']') {
                cur_.advance(1);
                return ElemStop::End;
            }
            throw ParseError(ErrorCode::ExpectedPunctuation,
                             "expected ',' or ']'", cur_.pos());
        }
        // Primitive run: batch-skip, counting elements via separators.
        size_t seps = 0;
        RunStop stop =
            scanPrimitives(/*closer_is_brace=*/false, limit - idx, seps, g);
        idx += seps;
        if (stop == RunStop::Closer) {
            cur_.advance(1); // consume ']'
            cur_.clearScanHold();
            return ElemStop::End;
        }
        // SepBudget / OpenBrace / OpenBracket: loop re-examines.
    }
}

} // namespace jsonski::ski
