// Per-layer rows of traced runs.  Each layer is measured by calling its
// public functions directly over the same documents, stacked from the
// memcpy floor up to the full streamer, so the difference between
// adjacent rows is a layer's cost with no instrumentation in src/.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench.h"
#include "index/structural_index.h"
#include "intervals/chunk_source.h"
#include "intervals/classifier.h"
#include "intervals/cursor.h"
#include "kernels/kernel.h"
#include "path/parser.h"
#include "path/queryset.h"
#include "service/loopback.h"
#include "service/protocol.h"
#include "service/server.h"
#include "ski/multi.h"
#include "ski/skipper.h"
#include "ski/streamer.h"

namespace perfbench {

namespace {

using namespace jsonski;

constexpr int kReps = 3;            ///< passes per (row, document)
constexpr size_t kIngestChunk = size_t{64} << 10;

/** ns per unit of work over all spans named @p name. */
double
nsPer(const Tracer& tr, std::string_view name)
{
    auto [ns, work] = tr.total(name);
    return work == 0 ? 0 : static_cast<double>(ns) / static_cast<double>(work);
}

/** classifyBlock loop with carries over the whole document. */
uint64_t
classifyAll(std::string_view doc)
{
    intervals::ClassifierCarry carry{};
    uint64_t acc = 0;
    size_t i = 0;
    for (; i + 64 <= doc.size(); i += 64) {
        intervals::BlockBits b =
            intervals::classifyBlock(doc.data() + i, carry);
        acc ^= b.quote ^ b.open_brace ^ b.close_bracket ^ b.colon;
    }
    if (i < doc.size()) {
        intervals::BlockBits b = intervals::classifyPartialBlock(
            doc.data() + i, doc.size() - i, carry);
        acc ^= b.quote ^ b.open_brace ^ b.close_bracket ^ b.colon;
    }
    return acc;
}

/** Span names must outlive the tracer: intern the per-kernel ones. */
const char*
kernelRowName(std::string_view kernel)
{
    static std::deque<std::string> names;
    std::string n = "kernels." + std::string(kernel) + ".classify";
    for (const std::string& s : names)
        if (s == n)
            return s.c_str();
    return names.emplace_back(std::move(n)).c_str();
}

} // namespace

void
layerRows(std::vector<Doc>& docs, Tracer& tr, Report& rep)
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    auto check = [&](bool ok) {
        ++attempted;
        failed += ok ? 0 : 1;
    };
    std::vector<const kernels::Kernel*> kernels = kernels::runnable();
    volatile uint64_t sink_bits = 0; // keeps classify loops observable
    ski::FastForwardStats ff;
    uint64_t ff_input = 0;
    uint64_t matches = 0;
    double emit_ns = 0; // sink run minus count-only run; may dip below 0
    intervals::StreamCursor::IngestStats ingest;
    double index_bytes = 0;
    double index_doc_bytes = 0;
    std::string scratch;

    for (size_t di = 0; di < docs.size(); ++di) {
        Doc& d = docs[di];
        if (d.bytes.empty())
            d.load();
        const std::string_view doc = d.bytes;
        const uint64_t n = doc.size();
        auto op = static_cast<uint32_t>(di);
        SpanScope doc_span(tr, "layers.doc", op, n);

        std::vector<ski::Streamer> t5;
        for (const Expect& e : d.table5)
            t5.emplace_back(path::parse(e.query));
        std::vector<const Expect*> nfa_refs;
        for (const Expect& e : d.desc)
            nfa_refs.push_back(&e);
        for (const Expect& e : d.filter)
            nfa_refs.push_back(&e);
        std::vector<ski::Streamer> nfa;
        for (const Expect* e : nfa_refs)
            nfa.emplace_back(path::parse(e->query));
        ski::MultiStreamer multi(path::QuerySet::fromTexts(queries(d.multi)));
        std::unique_ptr<index::StructuralIndex> idx;
        scratch.resize(n);

        for (int rep_i = 0; rep_i < kReps; ++rep_i) {
            const bool first = rep_i == 0;
            {
                SpanScope s(tr, "floor.memcpy", op, n);
                std::memcpy(scratch.data(), doc.data(), n);
                sink_bits =
                    sink_bits + static_cast<unsigned char>(scratch[n / 2]);
            }
            {
                std::FILE* f = std::fopen(d.path.c_str(), "rb");
                if (f == nullptr)
                    throw std::runtime_error("cannot open " + d.path);
                std::unique_ptr<std::FILE, int (*)(std::FILE*)> owner(
                    f, std::fclose);
                intervals::FileSource src(f);
                uint64_t got = 0;
                SpanScope s(tr, "intervals.ingest", op, n);
                size_t k;
                while ((k = src.read(scratch.data(), kIngestChunk)) > 0)
                    got += k;
                check(got == n);
            }
            {
                SpanScope s(tr, "intervals.classify", op, n);
                sink_bits = sink_bits ^ classifyAll(doc);
            }
            for (const kernels::Kernel* k : kernels) {
                kernels::Override use(*k);
                SpanScope s(tr, kernelRowName(k->name), op, n);
                sink_bits = sink_bits ^ classifyAll(doc);
            }
            {
                intervals::StreamCursor cur(doc);
                ski::Skipper skip(cur);
                SpanScope s(tr, "ski.pair", op, n);
                skip.overValue(ski::Group::G2);
                check(cur.pos() == n);
            }
            for (size_t q = 0; q < t5.size(); ++q) {
                const Digest& ref = d.table5[q].ref;
                uint64_t t0 = nowNs();
                ski::StreamResult r;
                {
                    SpanScope s(tr, "ski.stream", op, n);
                    r = t5[q].run(doc);
                }
                uint64_t count_ns = nowNs() - t0;
                check(r.matches == ref.count);
                if (first) {
                    ff.merge(r.stats);
                    ff_input += n;
                    matches += r.matches;
                }
                {
                    intervals::ViewSource src(doc);
                    SpanScope s(tr, "ski.stream_chunked", op, n);
                    r = t5[q].run(src, nullptr);
                }
                check(r.matches == ref.count);
                if (first) {
                    ingest.refills += r.ingest.refills;
                    ingest.spill_bytes += r.ingest.spill_bytes;
                    ingest.window_peak =
                        std::max(ingest.window_peak, r.ingest.window_peak);
                }
                HashSink sink;
                t0 = nowNs();
                {
                    SpanScope s(tr, "ski.stream_sink", op, ref.count);
                    t5[q].run(doc, &sink);
                }
                emit_ns += static_cast<double>(nowNs() - t0) -
                           static_cast<double>(count_ns);
                check(sink.digest == ref);
            }
            {
                MultiHashSink sink(multi.querySet().size());
                {
                    SpanScope s(tr, "ski.multi", op, n);
                    multi.run(doc, &sink);
                }
                bool ok = true;
                for (size_t q = 0; q < d.multi.size(); ++q)
                    ok = ok && sink.digests[multi.querySet().id_of[q]] ==
                                   d.multi[q].ref;
                check(ok);
            }
            for (size_t q = 0; q < nfa.size(); ++q) {
                HashSink sink;
                {
                    SpanScope s(tr, "ski.nfa", op, n);
                    nfa[q].run(doc, &sink);
                }
                check(sink.digest == nfa_refs[q]->ref);
            }
            {
                SpanScope s(tr, "index.build", op, n);
                idx = std::make_unique<index::StructuralIndex>(
                    index::StructuralIndex::build(doc));
            }
            if (first) {
                index_bytes += static_cast<double>(idx->memoryBytes());
                index_doc_bytes += static_cast<double>(n);
            }
            for (size_t q = 0; q < t5.size(); ++q) {
                HashSink sink;
                {
                    SpanScope s(tr, "index.warm", op, n);
                    t5[q].runIndexed(doc, *idx, &sink);
                }
                check(sink.digest == d.table5[q].ref);
            }
        }
        // Scan documents are tens of MB each; do not keep them all.
        std::string().swap(d.bytes);
    }

    rep.metric("floor.memcpy_ns_per_byte", nsPer(tr, "floor.memcpy"), "ns/B");
    rep.metric("intervals.ingest_ns_per_byte", nsPer(tr, "intervals.ingest"),
               "ns/B");
    rep.metric("intervals.classify_ns_per_byte",
               nsPer(tr, "intervals.classify"), "ns/B");
    for (const kernels::Kernel* k : kernels)
        rep.metric(std::string("kernels.") + k->name + ".classify_ns_per_byte",
                   nsPer(tr, kernelRowName(k->name)), "ns/B");
    rep.metric("ski.pair_ns_per_byte", nsPer(tr, "ski.pair"), "ns/B");
    rep.metric("ski.stream_ns_per_byte", nsPer(tr, "ski.stream"), "ns/B");
    rep.metric("ski.stream_chunked_ns_per_byte",
               nsPer(tr, "ski.stream_chunked"), "ns/B");
    auto all_matches = tr.total("ski.stream_sink").second;
    rep.metric("ski.emit_ns_per_match",
               all_matches == 0
                   ? 0
                   : emit_ns / static_cast<double>(all_matches),
               "ns/match");
    rep.metric("ski.multi_ns_per_byte", nsPer(tr, "ski.multi"), "ns/B");
    rep.metric("ski.nfa_ns_per_byte", nsPer(tr, "ski.nfa"), "ns/B");
    rep.metric("index.build_ns_per_byte", nsPer(tr, "index.build"), "ns/B");
    rep.metric("index.bytes_per_doc_byte", index_bytes / index_doc_bytes,
               "B/B");
    rep.metric("index.warm_ns_per_byte", nsPer(tr, "index.warm"), "ns/B");
    rep.metric("ski.ff_ratio", ff.overallRatio(ff_input), "fraction");
    const char* groups[] = {"ski.g1_share", "ski.g2_share", "ski.g3_share",
                            "ski.g4_share", "ski.g5_share"};
    for (size_t g = 0; g < ski::kGroupCount; ++g)
        rep.metric(groups[g],
                   ff.total() == 0 ? 0
                                   : static_cast<double>(ff.skipped[g]) /
                                         static_cast<double>(ff.total()),
                   "fraction");
    rep.metric("ski.matches", static_cast<double>(matches), "count");
    rep.metric("intervals.refills", static_cast<double>(ingest.refills),
               "count");
    rep.metric("intervals.spill_bytes",
               static_cast<double>(ingest.spill_bytes), "B");
    rep.metric("intervals.window_peak_bytes",
               static_cast<double>(ingest.window_peak), "B");
    rep.ops(attempted, failed);
}

void
compileRow(const std::vector<std::vector<std::string>>& lists, Tracer& tr,
           Report& rep)
{
    constexpr int kCompileReps = 20;
    volatile size_t compiled = 0; // keeps the compiles observable
    for (int r = 0; r < kCompileReps; ++r) {
        for (size_t i = 0; i < lists.size(); ++i) {
            SpanScope s(tr, "path.compile", static_cast<uint32_t>(i), 1);
            std::vector<path::PathQuery> parsed;
            for (const std::string& t : lists[i])
                parsed.push_back(path::parse(t));
            compiled = compiled +
                       path::QuerySet::normalize(std::move(parsed)).size();
        }
    }
    rep.metric("path.compile_us", nsPer(tr, "path.compile") * 1e-3, "us");
}

namespace {

/** Client-side wire timings of one jsqd request. */
struct WireTimes
{
    double connect_us = 0;
    double send_us = 0;
    double first_frame_us = 0; ///< request start -> first response byte
    double trailer_us = 0;     ///< request start -> trailer decoded
    uint64_t frames = 0;
    uint64_t bytes_out = 0;    ///< response bytes received
    bool ok = false;           ///< ok trailer and output matches
};

/**
 * Send one request to a jsqd on 127.0.0.1:@p port (one connection per
 * request, full-duplex pump) and check its output against @p ref.
 */
WireTimes
wireRequest(uint16_t port, const std::string& query, std::string_view body,
            bool count_only, const Digest& ref, Tracer& tr, uint32_t op)
{
    WireTimes w;
    SpanScope span(tr, "service.request", op, body.size());
    const uint64_t t0 = nowNs();
    int fd = service::connectTcp("127.0.0.1", port);
    const uint64_t t_conn = nowNs();
    // Abortive close once the response is complete: a RST instead of a
    // FIN leaves no TIME_WAIT socket on either end, so thousands of
    // requests per second, run after run, do not fill the host's
    // TIME_WAIT table (which slows connects and stretches the tail).
    std::unique_ptr<int, void (*)(int*)> owner(&fd, [](int* p) {
        linger abort{1, 0};
        ::setsockopt(*p, SOL_SOCKET, SO_LINGER, &abort, sizeof abort);
        ::close(*p);
    });
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

    service::RequestHeader h;
    h.queries = {query};
    h.count_only = count_only;
    h.has_length = true;
    h.length = body.size();
    const std::string head = service::encodeHeader(h);
    Digest got;
    service::ResponseParser parser(
        [&](size_t, std::string_view v) {
            got.add(v);
            ++w.frames;
        });

    // Full-duplex pump: the server streams frames while the body is
    // still uploading, so reads must not wait for the write to finish.
    size_t sent = 0;
    const size_t total = head.size() + body.size();
    uint64_t t_sent = 0;
    uint64_t t_first = 0;
    char buf[64 * 1024];
    const uint64_t deadline = t0 + 30'000'000'000ULL;
    while (!parser.done()) {
        uint64_t now = nowNs();
        if (now >= deadline)
            break;
        short events = POLLIN;
        if (sent < total)
            events |= POLLOUT;
        pollfd p{fd, events, 0};
        auto wait_ms = static_cast<int>((deadline - now) / 1'000'000 + 1);
        int rc = ::poll(&p, 1, wait_ms);
        if (rc < 0 && errno != EINTR)
            break;
        if (rc <= 0)
            continue;
        if ((p.revents & POLLOUT) != 0 && sent < total) {
            const bool in_head = sent < head.size();
            const char* src = in_head ? head.data() + sent
                                      : body.data() + (sent - head.size());
            size_t len = in_head ? head.size() - sent : total - sent;
            ssize_t k = ::send(fd, src, len, MSG_NOSIGNAL);
            if (k > 0) {
                sent += static_cast<size_t>(k);
                if (sent == total)
                    t_sent = nowNs();
            } else if (k < 0 && errno != EAGAIN && errno != EINTR) {
                break;
            }
        }
        if ((p.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
            ssize_t k = ::read(fd, buf, sizeof buf);
            if (k > 0) {
                if (t_first == 0)
                    t_first = nowNs();
                w.bytes_out += static_cast<uint64_t>(k);
                parser.feed(std::string_view(buf, static_cast<size_t>(k)));
            } else if (k == 0 || (errno != EAGAIN && errno != EINTR)) {
                break;
            }
        }
    }
    const uint64_t t_done = nowNs();
    w.connect_us = static_cast<double>(t_conn - t0) * 1e-3;
    w.send_us = t_sent == 0 ? 0 : static_cast<double>(t_sent - t_conn) * 1e-3;
    w.first_frame_us =
        t_first == 0 ? 0 : static_cast<double>(t_first - t0) * 1e-3;
    w.trailer_us = static_cast<double>(t_done - t0) * 1e-3;
    tr.record("service.connect", t0, t_conn, op);
    if (t_sent != 0)
        tr.record("service.send", t_conn, t_sent, op, body.size());
    if (t_first != 0)
        tr.record("service.first_frame", t0, t_first, op);
    tr.record("service.trailer", t0, t_done, op, w.bytes_out);
    w.ok = parser.done() && parser.trailer().ok &&
           parser.trailer().matches == ref.count &&
           (count_only || got == ref);
    return w;
}

/** Report the service.* metrics of @p reqs; @p engine_us[i] is a direct
 *  Streamer::run on request i's body in the same mode. */
void
reportWire(const std::vector<WireTimes>& reqs,
           const std::vector<double>& engine_us, double hit_ratio,
           Report& rep)
{
    std::vector<double> connect, send, first, trailer, tax;
    double frames = 0;
    double bytes_out = 0;
    for (size_t i = 0; i < reqs.size(); ++i) {
        connect.push_back(reqs[i].connect_us);
        send.push_back(reqs[i].send_us);
        first.push_back(reqs[i].first_frame_us);
        trailer.push_back(reqs[i].trailer_us);
        tax.push_back(reqs[i].trailer_us / std::max(engine_us[i], 1e-3));
        frames += static_cast<double>(reqs[i].frames);
        bytes_out += static_cast<double>(reqs[i].bytes_out);
    }
    auto n = static_cast<double>(std::max<size_t>(reqs.size(), 1));
    rep.metric("service.connect_us", median(connect), "us");
    rep.metric("service.send_us", median(send), "us");
    rep.metric("service.first_frame_us", median(first), "us");
    rep.metric("service.trailer_us", median(trailer), "us");
    rep.metric("service.engine_us", median(engine_us), "us");
    rep.metric("service.tax_ratio", median(tax), "ratio");
    rep.metric("service.frames_per_req", frames / n, "count");
    rep.metric("service.bytes_out_per_req", bytes_out / n, "B");
    rep.metric("service.plan_cache_hit_ratio", hit_ratio, "fraction");
}

} // namespace

void
loopbackRows(const Options& opt, Tracer& tr, Report& rep)
{
    std::vector<Doc> bodies = loadBodies(opt);
    service::ServerConfig cfg;
    cfg.shards = 1;
    cfg.workers = 2;
    service::Server server(cfg);
    server.start();
    std::vector<WireTimes> reqs;
    std::vector<double> engine;
    uint64_t failed = 0;
    uint32_t op = 0;
    for (const Doc& d : bodies) {
        for (const Expect& e : d.wire) {
            // Each query twice, as a jsq client would: streaming match
            // frames (a plan-cache miss on its first use), then
            // count-only (a hit).
            ski::Streamer st(path::parse(e.query));
            for (bool count_only : {false, true}) {
                std::vector<double> direct;
                for (int r = 0; r < kReps; ++r) {
                    HashSink sink;
                    uint64_t t0 = nowNs();
                    {
                        SpanScope s(tr, "service.engine", op, d.size);
                        st.run(d.bytes, count_only ? nullptr : &sink);
                    }
                    direct.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
                }
                WireTimes w = wireRequest(server.port(), e.query, d.bytes,
                                          count_only, e.ref, tr, op++);
                failed += w.ok ? 0 : 1;
                reqs.push_back(w);
                engine.push_back(median(direct));
            }
        }
    }
    service::PlanCacheStats pc = server.planCacheTotals();
    server.stop();
    double lookups = static_cast<double>(pc.hits + pc.misses);
    reportWire(reqs, engine,
               lookups == 0 ? 0 : static_cast<double>(pc.hits) / lookups, rep);
    rep.ops(reqs.size(), failed);
}

} // namespace perfbench
