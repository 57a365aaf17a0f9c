/**
 * @file
 * Micro-benchmarks (google-benchmark) for the fast-forward primitives:
 * bit-parallel container skipping vs character-level scanning of the
 * same substructure, and batched vs per-element primitive skipping.
 */
#include <benchmark/benchmark.h>

#include <string>

#include "baseline/jpstream/tokenizer.h"
#include "intervals/cursor.h"
#include "json/text.h"
#include "ski/skipper.h"
#include "util/rng.h"

using namespace jsonski;
using namespace jsonski::ski;

namespace {

/** Deeply nested object of roughly @p bytes bytes. */
std::string
nestedObject(size_t bytes)
{
    Rng rng(11);
    std::string s = "{";
    size_t i = 0;
    while (s.size() < bytes) {
        if (i)
            s += ',';
        s += "\"k" + std::to_string(i) + "\":{\"a\":[1,2,3],\"s\":\"" +
             rng.ident(12) + "\",\"n\":{\"x\":" +
             std::to_string(rng.below(100)) + "}}";
        ++i;
    }
    s += "}";
    return s;
}

/** Long array of primitives. */
std::string
primitiveArray(size_t count)
{
    std::string s = "[";
    for (size_t i = 0; i < count; ++i) {
        if (i)
            s += ',';
        s += std::to_string(i * 37 % 100000);
    }
    s += "]";
    return s;
}

void
BM_GoOverObjBitParallel(benchmark::State& state)
{
    std::string json = nestedObject(1 << 18);
    for (auto _ : state) {
        intervals::StreamCursor cur(json);
        Skipper skip(cur);
        skip.overObj(Group::G2);
        benchmark::DoNotOptimize(cur.pos());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * json.size()));
}
BENCHMARK(BM_GoOverObjBitParallel);

void
BM_GoOverObjCharByChar(benchmark::State& state)
{
    std::string json = nestedObject(1 << 18);
    struct NullHandler
    {
        void onObjectStart(size_t) {}
        void onObjectEnd(size_t) {}
        void onArrayStart(size_t) {}
        void onArrayEnd(size_t) {}
        void onKey(std::string_view) {}
        void onPrimitive(size_t, size_t) {}
    };
    for (auto _ : state) {
        NullHandler h;
        jpstream::saxParse(json, h);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * json.size()));
}
BENCHMARK(BM_GoOverObjCharByChar);

void
BM_OverElemsBatched(benchmark::State& state)
{
    std::string json = primitiveArray(100000);
    std::string body = json.substr(1); // element-list position
    for (auto _ : state) {
        intervals::StreamCursor cur(body);
        Skipper skip(cur);
        size_t idx = 0;
        skip.toElem(Skipper::ElemKind::None, idx, 100000, Group::G5);
        benchmark::DoNotOptimize(idx);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * body.size()));
}
BENCHMARK(BM_OverElemsBatched);

void
BM_OverElemsPerElement(benchmark::State& state)
{
    std::string json = primitiveArray(100000);
    std::string body = json.substr(1);
    for (auto _ : state) {
        intervals::StreamCursor cur(body);
        Skipper skip(cur);
        skip.setBatchPrimitives(false);
        size_t idx = 0;
        skip.toElem(Skipper::ElemKind::None, idx, 100000, Group::G5);
        benchmark::DoNotOptimize(idx);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * body.size()));
}
BENCHMARK(BM_OverElemsPerElement);

void
BM_StringEndBitParallel(benchmark::State& state)
{
    std::string json = "\"" + std::string(4096, 'x') + "\"";
    for (auto _ : state) {
        intervals::StreamCursor cur(json);
        Skipper skip(cur);
        benchmark::DoNotOptimize(skip.stringEnd(0));
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * json.size()));
}
BENCHMARK(BM_StringEndBitParallel);

void
BM_StringEndCharByChar(benchmark::State& state)
{
    std::string json = "\"" + std::string(4096, 'x') + "\"";
    for (auto _ : state) {
        benchmark::DoNotOptimize(json::scanString(json, 0));
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * json.size()));
}
BENCHMARK(BM_StringEndCharByChar);

} // namespace

BENCHMARK_MAIN();
