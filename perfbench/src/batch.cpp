// batch: resident documents, each op one query set over one document —
// a 100-query MultiStreamer set, the descendant queries or the filter
// queries through Streamer, or the Table 5 queries warm through
// Streamer::runIndexed with an index built during set-up.
#include <memory>
#include <string>

#include "bench.h"
#include "index/structural_index.h"
#include "path/parser.h"
#include "path/queryset.h"
#include "ski/multi.h"
#include "ski/streamer.h"

namespace perfbench {

namespace {

std::vector<jsonski::ski::Streamer>
streamers(const std::vector<Expect>& list)
{
    std::vector<jsonski::ski::Streamer> out;
    for (const Expect& e : list)
        out.emplace_back(jsonski::path::parse(e.query));
    return out;
}

/** One Streamer pass per query of @p list, each output checked. */
template <typename RunFn>
bool
eachQuery(const std::vector<jsonski::ski::Streamer>& st,
          const std::vector<Expect>& list, Tracer& tr, uint32_t op,
          uint64_t size, uint64_t& bytes, const char* span, RunFn run)
{
    bool ok = true;
    for (size_t q = 0; q < st.size(); ++q) {
        HashSink sink;
        {
            SpanScope s(tr, span, op, size);
            run(st[q], sink);
        }
        bytes += size;
        ok = ok && sink.digest == list[q].ref;
    }
    return ok;
}

} // namespace

int
runBatch(const Options& opt, Report& rep)
{
    using jsonski::index::StructuralIndex;
    using jsonski::ski::Streamer;
    std::vector<Doc> docs = loadDocs(opt);
    for (Doc& d : docs)
        d.load();

    struct State
    {
        std::unique_ptr<jsonski::ski::MultiStreamer> multi;
        std::vector<Streamer> desc;
        std::vector<Streamer> filter;
        std::vector<Streamer> warm;
        std::unique_ptr<StructuralIndex> index;
    };
    std::vector<State> state(docs.size());
    enum class Kind { Multi, Desc, Filter, Warm };
    struct Job
    {
        size_t doc;
        Kind kind;
    };
    std::vector<Job> jobs;

    ClosedWorkload w;
    for (size_t i = 0; i < docs.size(); ++i) {
        const Doc& d = docs[i];
        jobs.push_back({i, Kind::Multi});
        jobs.push_back({i, Kind::Desc});
        if (!d.filter.empty())
            jobs.push_back({i, Kind::Filter});
        jobs.push_back({i, Kind::Warm});
        for (const auto* list : {&d.multi, &d.desc, &d.filter, &d.table5})
            if (!list->empty())
                w.compile_lists.push_back(queries(*list));
    }
    w.jobs = jobs.size();
    w.setup = [&] {
        for (size_t i = 0; i < docs.size(); ++i) {
            State& s = state[i];
            s = State{};
            s.multi = std::make_unique<jsonski::ski::MultiStreamer>(
                jsonski::path::QuerySet::fromTexts(queries(docs[i].multi)));
            s.desc = streamers(docs[i].desc);
            s.filter = streamers(docs[i].filter);
            s.warm = streamers(docs[i].table5);
            s.index = std::make_unique<StructuralIndex>(
                StructuralIndex::build(docs[i].bytes));
        }
    };
    w.op = [&](size_t job, Tracer& tr, uint32_t op, uint64_t& bytes) {
        const Doc& d = docs[jobs[job].doc];
        State& s = state[jobs[job].doc];
        std::string_view doc = d.bytes;
        auto plain = [&](const Streamer& st, HashSink& sink) {
            st.run(doc, &sink);
        };
        switch (jobs[job].kind) {
          case Kind::Multi: {
            SpanScope span(tr, "batch.multi", op, d.size);
            MultiHashSink sink(s.multi->querySet().size());
            {
                SpanScope run(tr, "ski.MultiStreamer.run", op, d.size);
                s.multi->run(doc, &sink);
            }
            bytes += d.size;
            const auto& id_of = s.multi->querySet().id_of;
            bool ok = true;
            for (size_t q = 0; q < d.multi.size(); ++q)
                ok = ok && sink.digests[id_of[q]] == d.multi[q].ref;
            return ok;
          }
          case Kind::Desc: {
            SpanScope span(tr, "batch.desc", op, d.size * d.desc.size());
            return eachQuery(s.desc, d.desc, tr, op, d.size, bytes,
                             "ski.Streamer.run", plain);
          }
          case Kind::Filter: {
            SpanScope span(tr, "batch.filter", op, d.size * d.filter.size());
            return eachQuery(s.filter, d.filter, tr, op, d.size, bytes,
                             "ski.Streamer.run", plain);
          }
          case Kind::Warm:
            break;
        }
        SpanScope span(tr, "batch.warm", op, d.size * d.table5.size());
        return eachQuery(s.warm, d.table5, tr, op, d.size, bytes,
                         "ski.Streamer.runIndexed",
                         [&](const Streamer& st, HashSink& sink) {
                             st.runIndexed(doc, *s.index, &sink);
                         });
    };
    return runClosed(opt, rep, docs, w);
}

} // namespace perfbench
