#include "intervals/cursor.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "kernels/kernels_internal.h"

namespace jsonski::intervals {

// One table per kernel, each compiled from intervals/scan_loops.h in a
// TU with that kernel's flags (scans_<kernel>.cpp).
extern const Scans kScalarScans;
#if JSONSKI_KERNELS_X86
extern const Scans kWestmereScans;
extern const Scans kAvx2Scans;
#endif

const Scans&
scansFor(const kernels::Kernel& k)
{
    static const Scans* const tables[] = {
#if JSONSKI_KERNELS_X86
        &kAvx2Scans,
        &kWestmereScans,
#endif
        &kScalarScans,
    };
    for (const Scans* t : tables) {
        if (std::string_view(t->kernel) == k.name)
            return *t;
    }
    assert(false && "kernel without compiled scan loops");
    return kScalarScans;
}

StreamCursor::StreamCursor(std::string_view input)
    : data_(input.data()),
      len_(input.size()),
      scans_(&scansFor(kernels::active()))
{}

StreamCursor::StreamCursor(ChunkSource& source, size_t chunk_bytes)
    : data_(nullptr),
      len_(0),
      scans_(&scansFor(kernels::active())),
      src_(&source),
      eof_(false),
      chunk_bytes_(chunk_bytes == 0 ? 1 : chunk_bytes)
{
    // Steady-state window: one block-rounded chunk plus a block of
    // slack, so a refill whose discard floor sits at the position
    // block never needs to reallocate.  The window only grows past
    // this when a consumer hold pins a long span across seams.
    size_t cap =
        (chunk_bytes_ + kBlockSize - 1) / kBlockSize * kBlockSize +
        kBlockSize;
    window_.resize(cap);
    data_ = window_.data();
    ingest_.window_peak = cap;
}

bool
StreamCursor::atEndSlow()
{
    refillTo(pos_ + 1);
    return pos_ >= len_;
}

bool
StreamCursor::refillTo(size_t target)
{
    if (eof_ || src_ == nullptr)
        return target <= len_;

    // Discard floor: the lowest absolute byte that must stay resident
    // — the position's own block, both retention holds, and the
    // classifier's resume block (its bytes are read when the block is
    // classified, which may still be ahead of the position).
    // Block-aligned so a block is never torn.
    size_t floor =
        std::min(std::min(pos_, hold_),
                 std::min(scan_hold_, classified_blocks_ * kBlockSize));
    floor -= floor % kBlockSize;
    if (floor > base_) {
        size_t keep = len_ - floor;
        if (keep != 0)
            std::memmove(window_.data(),
                         window_.data() + (floor - base_), keep);
        ingest_.spill_bytes += keep;
        telemetry::count(telemetry::Counter::ChunkSpillBytes, keep);
        // A hold below the position's block means a token or value
        // span is being carried across this seam.
        if (std::min(hold_, scan_hold_) < pos_ - pos_ % kBlockSize) {
            ++ingest_.seam_straddles;
            telemetry::count(telemetry::Counter::SeamStraddleTokens);
        }
        base_ = floor;
    }

    // Capacity for [base_, target) plus one chunk of slack, so the
    // pull loop below always has room for a full read.
    size_t need = std::max(target, len_) - base_ + chunk_bytes_;
    need = (need + kBlockSize - 1) / kBlockSize * kBlockSize;
    if (need > window_.size()) {
        window_.resize(std::max(need, window_.size() + window_.size() / 2));
        ingest_.window_peak =
            std::max(ingest_.window_peak, window_.size());
    }
    data_ = window_.data();

    while (len_ < target) {
        size_t cap =
            std::min(window_.size() - (len_ - base_), chunk_bytes_);
        assert(cap > 0);
        size_t n = src_->read(window_.data() + (len_ - base_), cap);
        if (n == 0) {
            eof_ = true;
            break;
        }
        len_ += n;
        ingest_.bytes_ingested += n;
        ++ingest_.refills;
        telemetry::count(telemetry::Counter::ChunkRefills);
    }
    return target <= len_;
}

void
StreamCursor::prepareTail(size_t base)
{
    // The padding must classify as pure whitespace: it can then never
    // contribute structural or quote bits, so no scan can mistake a
    // byte past len_ for real input (tests/boundary_test.cpp pins this
    // down for structural characters landing on the final byte).
    assert(base <= len_ && len_ - base < kBlockSize);
    // A partial block is only classified once the input is complete:
    // classifyThrough refills a block before classifying it, so in
    // chunked mode reaching here implies the source is exhausted and
    // len_ is final — otherwise the whitespace padding would corrupt
    // the carries of bytes still to come.
    assert(eof_ && "partial-block classification before end of input");
    if (tail_ready_)
        return;
    std::memset(tail_, ' ', kBlockSize);
    std::memcpy(tail_, mem(base), len_ - base);
    tail_ready_ = true;
}

bool
StreamCursor::warpTo(size_t target, ClassifierCarry carry)
{
    if (target >= len_) {
        if (src_ == nullptr || eof_)
            return false;
        // Ingest up to the target in chunk strides, advancing the
        // position and the classifier mark with the frontier so the
        // discard floor follows and the window is recycled instead of
        // accumulating the whole skipped span.  Blocks passed this way
        // are never string-classified — that is the point of the warp;
        // the index's entry carry replaces their contribution below.
        while (len_ <= target && !eof_) {
            if (pos_ < len_)
                pos_ = len_;
            if (classified_blocks_ < pos_ / kBlockSize)
                classified_blocks_ = pos_ / kBlockSize;
            refillTo(std::min(target + 1, len_ + chunk_bytes_));
        }
        if (target >= len_)
            return false; // source exhausted short of the target
    }
    size_t blk = target / kBlockSize;
    if (blk + 1 <= classified_blocks_)
        return true; // already classified past the target: no skip
    carry_ = carry;
    classified_blocks_ = blk;
    full_valid_ = false;
    return true;
}

BlockBits
StreamCursor::blockAt(size_t idx)
{
    const StringBits& s = stringsAt(idx);
    const char* d = blockDataAt(idx);
    BlockBits out;
    out.in_string = s.in_string;
    out.quote = s.quote;
    uint64_t outside = ~s.in_string;
    out.open_brace = rawEqBits(d, '{') & outside;
    out.close_brace = rawEqBits(d, '}') & outside;
    out.open_bracket = rawEqBits(d, '[') & outside;
    out.close_bracket = rawEqBits(d, ']') & outside;
    out.colon = rawEqBits(d, ':') & outside;
    out.comma = rawEqBits(d, ',') & outside;
    out.whitespace = rawWhitespaceBits(d) & outside;
    return out;
}

} // namespace jsonski::intervals
