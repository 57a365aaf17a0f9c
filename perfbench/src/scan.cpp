// scan: each op streams one Table 5 query over its dataset's large
// record, read from a page-cached file through intervals::FileSource.
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "intervals/chunk_source.h"
#include "path/parser.h"
#include "ski/streamer.h"

namespace perfbench {

int
runScan(const Options& opt, Report& rep)
{
    using jsonski::ski::Streamer;
    std::vector<Doc> docs = loadDocs(opt);
    struct Job
    {
        const Doc* doc;
        const Expect* expect;
    };
    std::vector<Job> jobs;
    for (const Doc& d : docs)
        for (const Expect& e : d.table5)
            jobs.push_back(Job{&d, &e});

    std::vector<std::unique_ptr<Streamer>> streamers;
    ClosedWorkload w;
    w.jobs = jobs.size();
    for (const Job& j : jobs)
        w.compile_lists.push_back({j.expect->query});
    w.setup = [&] {
        streamers.clear();
        for (const Job& j : jobs)
            streamers.push_back(std::make_unique<Streamer>(
                jsonski::path::parse(j.expect->query)));
    };
    w.op = [&](size_t i, Tracer& tr, uint32_t op, uint64_t& bytes) {
        const Job& j = jobs[i];
        SpanScope span(tr, "scan.op", op, j.doc->size);
        std::FILE* f = std::fopen(j.doc->path.c_str(), "rb");
        if (f == nullptr)
            throw std::runtime_error("cannot open " + j.doc->path);
        std::unique_ptr<std::FILE, int (*)(std::FILE*)> owner(f, std::fclose);
        jsonski::intervals::FileSource src(f);
        HashSink sink;
        jsonski::ski::StreamResult r;
        {
            SpanScope run(tr, "ski.Streamer.run", op, j.doc->size);
            r = streamers[i]->run(src, &sink, Streamer::kDefaultChunkBytes);
        }
        bytes += r.input_bytes;
        return r.input_bytes == j.doc->size && sink.digest == j.expect->ref;
    };
    return runClosed(opt, rep, docs, w);
}

} // namespace perfbench
