// Closed-loop runner shared by the scan and batch workloads: set-up
// (repeated through the run, median reported), warm-up, the timed loop,
// and in traced runs the overhead comparison plus the per-layer rows.
#include <algorithm>
#include <numeric>
#include <string>

#include "bench.h"
#include "util/rng.h"

namespace perfbench {

namespace {

/** Untraced runs set up this many times, once before each equal slice
 *  of the timed loop. */
constexpr int kSetups = 10;
/** Traced runs alternate this many untraced and traced segments. */
constexpr int kTraceSegments = 6;

struct LoopStats
{
    std::vector<double> ms; ///< one sample per op
    uint64_t bytes = 0;
    uint64_t failed = 0;
    double busy_s = 0;      ///< summed op time
    double wall_s = 0;

    void
    append(const LoopStats& o)
    {
        ms.insert(ms.end(), o.ms.begin(), o.ms.end());
        bytes += o.bytes;
        failed += o.failed;
        busy_s += o.busy_s;
        wall_s += o.wall_s;
    }
};

bool
guardedOp(ClosedWorkload& w, size_t job, Tracer& tr, uint32_t op,
          uint64_t& bytes)
{
    try {
        return w.op(job, tr, op, bytes);
    } catch (const std::exception&) {
        return false; // a thrown error is a failed op, not a crash
    }
}

/** Run ops in seeded shuffled cycles until @p seconds have elapsed. */
LoopStats
loop(ClosedWorkload& w, jsonski::Rng& rng, double seconds, Tracer& tr,
     uint32_t& op_id)
{
    LoopStats st;
    std::vector<size_t> order(w.jobs);
    std::iota(order.begin(), order.end(), size_t{0});
    size_t next = order.size();
    uint64_t start = nowNs();
    auto deadline = start + static_cast<uint64_t>(seconds * 1e9);
    for (;;) {
        if (next == order.size()) {
            for (size_t i = order.size(); i > 1; --i)
                std::swap(order[i - 1], order[rng.below(i)]);
            next = 0;
        }
        size_t job = order[next++];
        uint64_t bytes = 0;
        uint64_t t0 = nowNs();
        bool ok = guardedOp(w, job, tr, op_id++, bytes);
        uint64_t t1 = nowNs();
        st.ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
        st.busy_s += secondsBetween(t0, t1);
        st.bytes += bytes;
        st.failed += ok ? 0 : 1;
        if (t1 >= deadline)
            break;
    }
    st.wall_s = secondsBetween(start, nowNs());
    return st;
}

} // namespace

int
runClosed(const Options& opt, Report& rep, std::vector<Doc>& docs,
          ClosedWorkload& w)
{
    Tracer off(false);
    uint64_t attempted = 0;
    uint64_t failed = 0;

    // Set-up: compile, build, and warm every job once (checked).
    auto setUp = [&] {
        uint64_t t0 = nowNs();
        w.setup();
        for (size_t j = 0; j < w.jobs; ++j) {
            uint64_t bytes = 0;
            ++attempted;
            failed += guardedOp(w, j, off, 0, bytes) ? 0 : 1;
        }
        return secondsBetween(t0, nowNs());
    };

    jsonski::Rng rng(opt.seed ^ 0xC0FFEE);
    uint32_t op_id = 1;
    if (!opt.trace) {
        // Each set-up replaces the state of the one before.  Spread over
        // the run, the set-ups meet the same host conditions as the
        // loop, not only those of its first second.
        std::vector<double> setups;
        LoopStats st;
        for (int s = 0; s < kSetups; ++s) {
            setups.push_back(setUp());
            st.append(loop(w, rng, opt.seconds / kSetups, off, op_id));
        }
        rep.ops(attempted + st.ms.size(), failed + st.failed);
        double p99 = quantile(st.ms, 0.99);
        auto beyond = std::count_if(st.ms.begin(), st.ms.end(),
                                    [&](double v) { return v > p99; });
        rep.note(std::to_string(st.ms.size()) + " timed ops, " +
                 std::to_string(beyond) + " beyond p99");
        rep.metric("setup_s", median(setups), "s");
        rep.metric("gbps", static_cast<double>(st.bytes) / st.busy_s * 1e-9,
                   "GB/s");
        rep.metric("p50_ms", quantile(st.ms, 0.5), "ms");
        rep.metric("p99_ms", p99, "ms");
        rep.metric("max_rps", static_cast<double>(st.ms.size()) / st.wall_s,
                   "req/s");
        rep.metric("peak_rss_mb", peakRssMb(), "MB");
        return 0;
    }

    // Traced run: the loop alternates untraced and traced segments, so
    // drift over the run does not read as tracing overhead; their cost
    // per byte gives the overhead.  Then the per-layer rows.
    setUp();
    Tracer tr(true);
    LoopStats plain;
    LoopStats traced;
    for (int i = 0; i < kTraceSegments; ++i) {
        const bool on = i % 2 == 1;
        LoopStats seg =
            loop(w, rng, opt.seconds / kTraceSegments, on ? tr : off, op_id);
        (on ? traced : plain).append(seg);
    }
    rep.ops(attempted + plain.ms.size() + traced.ms.size(),
            failed + plain.failed + traced.failed);
    double overhead = (traced.busy_s / static_cast<double>(traced.bytes)) /
                      (plain.busy_s / static_cast<double>(plain.bytes));

    compileRow(w.compile_lists, tr, rep);
    layerRows(docs, tr, rep);
    loopbackRows(opt, tr, rep);
    rep.metric("trace.overhead_ratio", overhead, "ratio");
    if (!opt.trace_out.empty())
        tr.write(opt.trace_out);
    return 0;
}

} // namespace perfbench
