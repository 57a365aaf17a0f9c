// Workload inputs: which documents and queries each workload uses, the
// wire bodies of the loopback rows, the prepare step that generates them
// from the seed and computes their reference outputs, and the loaders
// the measuring process uses.
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "baseline/dom/parser.h"
#include "baseline/dom/query.h"
#include "bench.h"
#include "harness/engines.h"
#include "path/parser.h"
#include "ski/streamer.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using jsonski::gen::DatasetId;

/** Seed of one generated document: distinct per workload and slot. */
uint64_t
docSeed(uint64_t seed, std::string_view workload, size_t slot)
{
    uint64_t h = seed * 0x9E3779B97F4A7C15ULL;
    for (char c : workload)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    return jsonski::Rng(h + slot).next() | 1;
}

std::vector<std::string>
table5Texts(DatasetId ds)
{
    std::vector<std::string> out;
    for (const auto& q : jsonski::harness::paperQueries())
        if (q.dataset == ds)
            out.emplace_back(q.large_query);
    return out;
}

/**
 * A shared-prefix query set in the shape of bench_multiquery: the
 * dataset's real queries under one prefix, padded to kMultiQueries with
 * never-matching siblings under the same prefix.
 */
std::vector<std::string>
multiTexts(DatasetId ds)
{
    std::string prefix;
    std::vector<std::string> out;
    switch (ds) {
      case DatasetId::TT:
        prefix = "$[*]";
        out = {"$[*].text", "$[*].en.urls[*].url"};
        break;
      case DatasetId::BB:
        prefix = "$.pd[*]";
        out = {"$.pd[*].name", "$.pd[*].price", "$.pd[*].cp[1:3].id",
               "$.pd[*].vc[*].cha"};
        break;
      case DatasetId::GMD:
        prefix = "$[*]";
        out = {"$[*].atm", "$[*].rt[*].lg[*].st[*].dt.tx"};
        break;
      case DatasetId::NSPL:
        prefix = "$.dt[*]";
        out = {"$.dt[*][*][2:4]", "$.dt[*][0]"};
        break;
      case DatasetId::WM:
        prefix = "$.it[*]";
        out = {"$.it[*].nm", "$.it[*].bmrpr.pr"};
        break;
      case DatasetId::WP:
        prefix = "$[*]";
        out = {"$[*].cl.P150[*].ms.pty"};
        break;
    }
    for (size_t i = out.size(); i < Shape::kMultiQueries; ++i)
        out.push_back(prefix + ".f" + std::to_string(i));
    return out;
}

/** The descendant queries of bench_ext_descendant, plus one for NSPL. */
std::vector<std::string>
descTexts(DatasetId ds)
{
    switch (ds) {
      case DatasetId::TT:
        return {"$..url"};
      case DatasetId::BB:
        return {"$..cha"};
      case DatasetId::GMD:
        return {"$[*].rt[*]..tx"};
      case DatasetId::NSPL:
        return {"$..nm"};
      case DatasetId::WM:
        return {"$..pr"};
      case DatasetId::WP:
        return {"$..pty"};
    }
    return {};
}

/** Filters of ~1% and ~90% selectivity on the datasets with a uniform
 *  numeric field (BB price in [0, 2000), WM msrp in [0, 1000)). */
std::vector<std::string>
filterTexts(DatasetId ds)
{
    switch (ds) {
      case DatasetId::BB:
        return {"$.pd[?(@.price<20)].name", "$.pd[?(@.price<1800)].name"};
      case DatasetId::WM:
        return {"$.it[?(@.msrp<10)].nm", "$.it[?(@.msrp<900)].nm"};
      default:
        return {};
    }
}

std::vector<Expect>
expects(const std::vector<std::string>& texts)
{
    std::vector<Expect> out;
    for (const std::string& t : texts)
        out.push_back(Expect{t, {}});
    return out;
}

/** Every (set name, expectation list) of a document, in file order. */
std::vector<std::pair<const char*, std::vector<Expect>*>>
sets(Doc& d)
{
    return {{"table5", &d.table5}, {"multi", &d.multi},
            {"desc", &d.desc},     {"filter", &d.filter},
            {"wire", &d.wire}};
}

std::string
docPath(const Options& opt, const Doc& d)
{
    return opt.dir + "/" + d.name + ".json";
}

/**
 * Generate @p docs (seed key @p key) into opt.dir with their references
 * in @p refs_name; returns the number of engine/DOM disagreements.
 */
int
writeInputs(const Options& opt, std::vector<Doc> docs, std::string_view key,
            const char* refs_name)
{
    std::ofstream refs(opt.dir + "/" + refs_name);
    if (!refs)
        throw std::runtime_error("cannot write references in " + opt.dir);
    int mismatches = 0;
    for (size_t slot = 0; slot < docs.size(); ++slot) {
        Doc& d = docs[slot];
        std::string bytes = jsonski::gen::generateLarge(
            d.dataset, d.size, docSeed(opt.seed, key, slot));
        {
            std::ofstream out(docPath(opt, d), std::ios::binary);
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
            if (!out)
                throw std::runtime_error("cannot write " + docPath(opt, d));
        }
        // The DOM baseline is the reference: parse once, query many.
        auto tree = std::make_unique<jsonski::dom::Document>();
        jsonski::dom::parse(bytes, *tree);
        for (auto& [set, list] : sets(d)) {
            for (Expect& e : *list) {
                jsonski::path::PathQuery q = jsonski::path::parse(e.query);
                HashSink dom;
                jsonski::dom::evaluate(tree->root(), q, &dom);
                e.ref = dom.digest;
                if (std::string_view(set) == "wire") {
                    // The wire is checked against a direct engine run
                    // on the same body, which must itself agree with
                    // the DOM reference.
                    HashSink direct;
                    jsonski::ski::Streamer(q).run(bytes, &direct);
                    if (!(direct.digest == dom.digest)) {
                        std::fprintf(stderr,
                                     "perfbench: engine disagrees with "
                                     "DOM on %s %s\n",
                                     d.name.c_str(), e.query.c_str());
                        ++mismatches;
                    }
                    e.ref = direct.digest;
                }
                refs << d.name << '\t' << set << '\t' << e.query << '\t'
                     << e.ref.count << '\t' << e.ref.hash << '\n';
            }
        }
    }
    refs.close();
    if (!refs)
        throw std::runtime_error("short write of references");
    return mismatches;
}

/** Fill @p docs' paths, sizes and references from @p refs_name. */
void
readInputs(const Options& opt, std::vector<Doc>& docs, const char* refs_name)
{
    std::ifstream refs(opt.dir + "/" + refs_name);
    if (!refs)
        throw std::runtime_error("no prepared inputs in " + opt.dir);
    std::string line;
    for (Doc& d : docs) {
        d.path = docPath(opt, d);
        std::ifstream f(d.path, std::ios::binary | std::ios::ate);
        if (!f)
            throw std::runtime_error("missing " + d.path);
        d.size = static_cast<size_t>(f.tellg());
        for (auto& [set, list] : sets(d)) {
            for (Expect& e : *list) {
                if (!std::getline(refs, line))
                    throw std::runtime_error("references truncated");
                std::istringstream in(line);
                std::string name, s, query;
                std::getline(in, name, '\t');
                std::getline(in, s, '\t');
                std::getline(in, query, '\t');
                in >> e.ref.count >> e.ref.hash;
                if (!in || name != d.name || s != set || query != e.query)
                    throw std::runtime_error("references do not match the "
                                             "plan at: " + line);
            }
        }
    }
}

} // namespace

std::vector<Doc>
planDocs(const std::string& workload)
{
    std::vector<Doc> docs;
    if (workload == "scan" || workload == "batch") {
        for (DatasetId ds : jsonski::gen::kAllDatasets) {
            Doc d;
            d.dataset = ds;
            d.name = workload + "-" +
                     std::string(jsonski::gen::datasetName(ds));
            d.size = workload == "scan" ? Shape::kScanBytes
                                        : Shape::kBatchBytes;
            docs.push_back(std::move(d));
        }
    } else {
        throw std::invalid_argument("unknown workload '" + workload + "'");
    }
    // Every workload carries every query set, so each traced run can
    // measure every layer on its own documents.
    for (Doc& d : docs) {
        d.table5 = expects(table5Texts(d.dataset));
        d.multi = expects(multiTexts(d.dataset));
        d.desc = expects(descTexts(d.dataset));
        d.filter = expects(filterTexts(d.dataset));
    }
    return docs;
}

std::vector<Doc>
planBodies(uint64_t seed)
{
    // Sizes and queries are drawn from the seed; datasets rotate so all
    // six appear equally.
    jsonski::Rng rng(docSeed(seed, "wire-plan", 0));
    std::vector<Doc> bodies;
    for (size_t i = 0; i < Shape::kWireBodies; ++i) {
        Doc d;
        d.dataset = jsonski::gen::kAllDatasets[i % 6];
        d.name = "wire-" + std::to_string(i) + "-" +
                 std::string(jsonski::gen::datasetName(d.dataset));
        d.size = Shape::kWireMinBytes +
                 rng.below(Shape::kWireMaxBytes - Shape::kWireMinBytes + 1);
        std::vector<std::string> t5 = table5Texts(d.dataset);
        d.wire = expects({t5[rng.below(t5.size())]});
        bodies.push_back(std::move(d));
    }
    return bodies;
}

int
prepare(const Options& opt)
{
    int mismatches = writeInputs(opt, planDocs(opt.workload),
                                 opt.workload, "refs.tsv");
    mismatches += writeInputs(opt, planBodies(opt.seed), "wire",
                              "wire-refs.tsv");
    return mismatches == 0 ? 0 : 1;
}

std::vector<Doc>
loadDocs(const Options& opt)
{
    std::vector<Doc> docs = planDocs(opt.workload);
    readInputs(opt, docs, "refs.tsv");
    return docs;
}

std::vector<Doc>
loadBodies(const Options& opt)
{
    std::vector<Doc> bodies = planBodies(opt.seed);
    readInputs(opt, bodies, "wire-refs.tsv");
    for (Doc& d : bodies)
        d.load();
    return bodies;
}

std::vector<std::string>
queries(const std::vector<Expect>& list)
{
    std::vector<std::string> out;
    for (const Expect& e : list)
        out.push_back(e.query);
    return out;
}

void
Doc::load()
{
    std::ifstream f(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f),
                 std::istreambuf_iterator<char>());
    if (bytes.size() != size)
        throw std::runtime_error("cannot read " + path);
}

} // namespace perfbench
