#include "ski/record_scanner.h"

#include <algorithm>

#include "intervals/classifier.h"
#include "telemetry/telemetry.h"
#include "util/bits.h"
#include "util/error.h"

namespace jsonski::ski {

using intervals::kBlockSize;

std::vector<std::pair<size_t, size_t>>
scanRecords(std::string_view stream, size_t* tail_start)
{
    std::vector<std::pair<size_t, size_t>> spans;
    intervals::ClassifierCarry carry;

    int64_t depth = 0;
    size_t record_start = 0;
    bool in_record = false;

    for (size_t base = 0; base < stream.size(); base += kBlockSize) {
        telemetry::count(telemetry::Counter::BlocksClassified);
        telemetry::count(telemetry::Counter::BytesScanned, kBlockSize);
        size_t len = std::min(kBlockSize, stream.size() - base);
        const char* d = stream.data() + base;
        char padded[kBlockSize];
        if (len < kBlockSize) {
            std::fill(padded, padded + kBlockSize, ' ');
            std::copy(d, d + len, padded);
            d = padded;
        }
        intervals::StringBits s =
            intervals::classifyStringsBlock(d, carry);
        uint64_t outside = ~s.in_string;
        uint64_t opens = (intervals::rawEqBits(d, '{') |
                          intervals::rawEqBits(d, '[')) &
                         outside;
        uint64_t closes = (intervals::rawEqBits(d, '}') |
                           intervals::rawEqBits(d, ']')) &
                          outside;

        // Fast path: when the depth cannot reach zero inside this
        // block even if every close came first, the whole block is
        // interior to the current record.
        if (in_record && depth > bits::popcount(closes)) {
            depth += bits::popcount(opens) - bits::popcount(closes);
            continue;
        }

        // Slow path: walk the structural bits of this block in order.
        // Between records, every non-whitespace byte is also examined
        // so stray characters are rejected.
        uint64_t interesting = opens | closes;
        uint64_t nonws = ~intervals::rawWhitespaceBits(d) & outside;
        uint64_t pending = interesting | (in_record ? 0 : nonws);
        while (pending != 0) {
            int off = bits::trailingZeros(pending);
            pending = bits::clearLowest(pending);
            uint64_t bit = uint64_t{1} << off;
            size_t pos = base + static_cast<size_t>(off);
            if (opens & bit) {
                if (!in_record) {
                    in_record = true;
                    record_start = pos;
                }
                ++depth;
            } else if (closes & bit) {
                if (!in_record || depth == 0)
                    throw ParseError(ErrorCode::UnbalancedClose, "unbalanced close",
                                     pos);
                if (--depth == 0) {
                    spans.emplace_back(record_start,
                                       pos + 1 - record_start);
                    in_record = false;
                    // Re-arm stray detection for the rest of the block.
                    pending |= nonws & ~bits::maskBelow(off + 1) &
                               ~interesting;
                }
            } else if (!in_record) {
                throw ParseError(ErrorCode::StrayByte,
                                 "stray character between records", pos);
            }
            // else: record content; nothing to do.
        }
    }
    if (tail_start != nullptr) {
        // When not mid-record, everything after the last record is
        // whitespace (strays were rejected above); resume past it.
        *tail_start = in_record ? record_start : stream.size();
        return spans;
    }
    if (in_record)
        throw ParseError(ErrorCode::UnterminatedRecord, "unterminated record",
                         stream.size());
    return spans;
}

} // namespace jsonski::ski
