#include "telemetry/telemetry.h"

namespace jsonski::telemetry {

const char*
counterName(Counter c)
{
    switch (c) {
      case Counter::BlocksClassified: return "blocks_classified";
      case Counter::StringMaskBuilds: return "string_mask_builds";
      case Counter::PairingProbeWords: return "pairing_probe_words";
      case Counter::PairingFallbackParses:
        return "pairing_fallback_parses";
      case Counter::CursorReseeks: return "cursor_reseeks";
      case Counter::BytesScanned: return "bytes_scanned";
      case Counter::ChunkRefills: return "chunk_refills";
      case Counter::ChunkSpillBytes: return "chunk_spill_bytes";
      case Counter::SeamStraddleTokens: return "seam_straddle_tokens";
      case Counter::kCount: break;
    }
    return "unknown";
}

void
TraceRing::push(const TraceEntry& e)
{
    ++total_;
    if (capacity_ == 0)
        return;
    if (ring_.size() < capacity_) {
        ring_.push_back(e);
        return;
    }
    ring_[head_] = e;
    head_ = (head_ + 1) % capacity_;
}

size_t
TraceRing::size() const
{
    return ring_.size();
}

std::vector<TraceEntry>
TraceRing::snapshot() const
{
    std::vector<TraceEntry> out;
    out.reserve(ring_.size());
    // Once full, head_ is the oldest retained entry.
    for (size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

void
TraceRing::merge(const TraceRing& other)
{
    for (const TraceEntry& e : other.snapshot())
        push(e);
    // Entries the other ring had already dropped stay dropped; account
    // for them so total() remains the true decision count.
    total_ += other.dropped();
}

void
TraceRing::clear()
{
    ring_.clear();
    head_ = 0;
    total_ = 0;
}

void
Registry::merge(const Registry& other)
{
    for (size_t i = 0; i < kCounterCount; ++i)
        counters[i] += other.counters[i];
    for (size_t i = 0; i < kSkipGroupCount; ++i) {
        skipped[i] += other.skipped[i];
        skip_hist[i].merge(other.skip_hist[i]);
    }
    trace.merge(other.trace);
}

void
Registry::reset()
{
    counters.fill(0);
    skipped.fill(0);
    for (SkipHistogram& h : skip_hist)
        h.buckets.fill(0);
    trace.clear();
}

namespace {

thread_local Registry* tls_registry = nullptr;

} // namespace

Registry*
current() noexcept
{
    return tls_registry;
}

Scope::Scope(Registry& r) : prev_(tls_registry)
{
    tls_registry = &r;
}

Scope::~Scope()
{
    tls_registry = prev_;
}

} // namespace jsonski::telemetry
