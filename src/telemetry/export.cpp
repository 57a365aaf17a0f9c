#include "telemetry/export.h"

#include <cinttypes>
#include <cstdio>
#include <string>

#include "kernels/kernel.h"

namespace jsonski::telemetry {

namespace {

void
appendU64(std::string& out, uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out += buf;
}

/** `"G1"` .. `"G5"` for group index 0..4. */
std::string
groupKey(size_t g)
{
    return "G" + std::to_string(g + 1);
}

void
appendHistogramJson(std::string& out, const SkipHistogram& h)
{
    out += '[';
    bool first = true;
    for (size_t b = 0; b < SkipHistogram::kBuckets; ++b) {
        if (h.buckets[b] == 0)
            continue;
        if (!first)
            out += ',';
        first = false;
        out += "{\"le\":";
        // Exclusive upper bound of log2 bucket b: 2^b (bucket 0 holds
        // only length 0, so its bound is 1).
        appendU64(out, b >= 64 ? UINT64_MAX : (uint64_t{1} << b));
        out += ",\"count\":";
        appendU64(out, h.buckets[b]);
        out += '}';
    }
    out += ']';
}

} // namespace

std::string
toJson(const Registry& r)
{
    std::string out;
    out.reserve(1024);
    out += "{\"enabled\":";
    out += kEnabled ? "true" : "false";

    // Which SIMD kernel produced the counted work (DESIGN.md §11);
    // kernel names are [a-z0-9_-] so no JSON escaping is needed.
    out += ",\"kernel\":\"";
    out += kernels::activeName();
    out += '"';

    out += ",\"counters\":{";
    for (size_t i = 0; i < kCounterCount; ++i) {
        if (i != 0)
            out += ',';
        out += '"';
        out += counterName(static_cast<Counter>(i));
        out += "\":";
        appendU64(out, r.counters[i]);
    }
    out += '}';

    out += ",\"skipped_bytes\":{";
    for (size_t g = 0; g < kSkipGroupCount; ++g) {
        if (g != 0)
            out += ',';
        out += '"';
        out += groupKey(g);
        out += "\":";
        appendU64(out, r.skipped[g]);
    }
    out += '}';

    out += ",\"skip_histograms\":{";
    for (size_t g = 0; g < kSkipGroupCount; ++g) {
        if (g != 0)
            out += ',';
        out += '"';
        out += groupKey(g);
        out += "\":";
        appendHistogramJson(out, r.skip_hist[g]);
    }
    out += '}';

    out += ",\"trace\":{\"total\":";
    appendU64(out, r.trace.total());
    out += ",\"dropped\":";
    appendU64(out, r.trace.dropped());
    out += ",\"entries\":[";
    bool first = true;
    for (const TraceEntry& e : r.trace.snapshot()) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"group\":\"";
        out += groupKey(e.group);
        out += "\",\"begin\":";
        appendU64(out, e.begin);
        out += ",\"end\":";
        appendU64(out, e.end);
        out += ",\"state\":";
        appendU64(out, e.state);
        out += '}';
    }
    out += "]}}";
    return out;
}

std::string
toPrometheus(const Registry& r, std::string_view labels)
{
    std::string out;
    out.reserve(2048);

    auto sample = [&](std::string_view metric, std::string_view extra,
                      uint64_t value) {
        out += "jsonski_";
        out += metric;
        if (!labels.empty() || !extra.empty()) {
            out += '{';
            out += labels;
            if (!labels.empty() && !extra.empty())
                out += ',';
            out += extra;
            out += '}';
        }
        out += ' ';
        appendU64(out, value);
        out += '\n';
    };

    out += "# TYPE jsonski_kernel_info gauge\n";
    {
        std::string extra = "kernel=\"";
        extra += kernels::activeName();
        extra += '"';
        sample("kernel_info", extra, 1);
    }

    out += "# TYPE jsonski_counter_total counter\n";
    for (size_t i = 0; i < kCounterCount; ++i) {
        std::string extra = "name=\"";
        extra += counterName(static_cast<Counter>(i));
        extra += '"';
        sample("counter_total", extra, r.counters[i]);
    }

    out += "# TYPE jsonski_skipped_bytes_total counter\n";
    for (size_t g = 0; g < kSkipGroupCount; ++g)
        sample("skipped_bytes_total", "group=\"" + groupKey(g) + '"',
               r.skipped[g]);

    // Prometheus histogram convention: cumulative le buckets + +Inf.
    out += "# TYPE jsonski_skip_length_bytes histogram\n";
    for (size_t g = 0; g < kSkipGroupCount; ++g) {
        std::string grp = "group=\"" + groupKey(g) + '"';
        uint64_t cum = 0;
        for (size_t b = 0; b < SkipHistogram::kBuckets; ++b) {
            if (r.skip_hist[g].buckets[b] == 0)
                continue;
            cum += r.skip_hist[g].buckets[b];
            std::string extra = grp + ",le=\"";
            if (b >= 64) {
                extra += "+Inf";
            } else {
                char buf[24];
                std::snprintf(buf, sizeof(buf), "%" PRIu64,
                              uint64_t{1} << b);
                extra += buf;
            }
            extra += '"';
            sample("skip_length_bytes_bucket", extra, cum);
        }
        sample("skip_length_bytes_bucket", grp + ",le=\"+Inf\"", cum);
        sample("skip_length_bytes_count", grp, cum);
        sample("skip_length_bytes_sum", grp, r.skipped[g]);
    }

    sample("trace_decisions_total", "", r.trace.total());
    sample("trace_dropped_total", "", r.trace.dropped());
    return out;
}

std::string
renderReport(const Registry& r)
{
    std::string out;
    out.reserve(2048);
    char line[160];

    out += "telemetry report";
    if (!kEnabled)
        out += " (hooks compiled out: JSONSKI_TELEMETRY=OFF — all zeros)";
    out += '\n';

    out += "  kernel: ";
    out += kernels::activeName();
    out += '\n';

    out += "  counters:\n";
    for (size_t i = 0; i < kCounterCount; ++i) {
        std::snprintf(line, sizeof(line), "    %-24s %12" PRIu64 "\n",
                      counterName(static_cast<Counter>(i)), r.counters[i]);
        out += line;
    }

    out += "  fast-forward skips (bytes / count):\n";
    for (size_t g = 0; g < kSkipGroupCount; ++g) {
        std::snprintf(line, sizeof(line), "    %-4s %12" PRIu64 " / %" PRIu64,
                      groupKey(g).c_str(), r.skipped[g],
                      r.skip_hist[g].count());
        out += line;
        // Inline sparse histogram: len<2^b:count pairs.
        bool any = false;
        for (size_t b = 0; b < SkipHistogram::kBuckets; ++b) {
            if (r.skip_hist[g].buckets[b] == 0)
                continue;
            out += any ? ", " : "   [";
            any = true;
            if (b >= 64) {
                out += "<inf:";
            } else {
                std::snprintf(line, sizeof(line), "<%" PRIu64 ":",
                              uint64_t{1} << b);
                out += line;
            }
            std::snprintf(line, sizeof(line), "%" PRIu64,
                          r.skip_hist[g].buckets[b]);
            out += line;
        }
        if (any)
            out += ']';
        out += '\n';
    }

    std::snprintf(line, sizeof(line),
                  "  trace (%" PRIu64 " decisions, %" PRIu64
                  " dropped, showing last %zu):\n",
                  r.trace.total(), r.trace.dropped(), r.trace.size());
    out += line;
    for (const TraceEntry& e : r.trace.snapshot()) {
        std::snprintf(line, sizeof(line),
                      "    %-4s [%10" PRIu64 ", %10" PRIu64
                      ")  %8" PRIu64 " B  state=%u\n",
                      groupKey(e.group).c_str(), e.begin, e.end,
                      e.end - e.begin, static_cast<unsigned>(e.state));
        out += line;
    }
    return out;
}

} // namespace jsonski::telemetry
