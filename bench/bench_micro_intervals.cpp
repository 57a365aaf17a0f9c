/**
 * @file
 * Micro-benchmarks (google-benchmark) for the bit-parallel substrate:
 * block classification throughput (dispatched kernel vs scalar
 * reference), prefix XOR, bit selection, and structural-interval
 * construction.
 *
 * After the google-benchmark run, a per-kernel sweep re-times block
 * classification under every *runnable* SIMD kernel (kernels::Override)
 * and writes the GB/s ladder to BENCH_micro_intervals.json — the
 * runtime-dispatch analogue of the paper's SIMD-vs-scalar ablation, and
 * the trend data that catches a kernel regressing relative to its
 * siblings.
 */
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "gen/datasets.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "intervals/classifier.h"
#include "intervals/interval.h"
#include "kernels/kernel.h"
#include "util/bits.h"
#include "util/rng.h"

using namespace jsonski;
using namespace jsonski::intervals;

namespace {

std::string
sampleJson(size_t bytes)
{
    return gen::generateLarge(gen::DatasetId::TT, bytes);
}

/** One full-document classification pass; returns structural count. */
size_t
classifyPass(const std::string& json)
{
    ClassifierCarry carry;
    size_t structurals = 0;
    for (size_t base = 0; base + kBlockSize <= json.size();
         base += kBlockSize) {
        BlockBits b = classifyBlock(json.data() + base, carry);
        structurals += static_cast<size_t>(bits::popcount(b.structural()));
    }
    return structurals;
}

void
BM_ClassifySimd(benchmark::State& state)
{
    std::string json = sampleJson(1 << 20);
    for (auto _ : state) {
        ClassifierCarry carry;
        uint64_t acc = 0;
        for (size_t base = 0; base + kBlockSize <= json.size();
             base += kBlockSize) {
            BlockBits b = classifyBlock(json.data() + base, carry);
            acc ^= b.structural();
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * json.size()));
}
BENCHMARK(BM_ClassifySimd);

void
BM_ClassifyScalarReference(benchmark::State& state)
{
    std::string json = sampleJson(1 << 20);
    for (auto _ : state) {
        ClassifierCarry carry;
        uint64_t acc = 0;
        for (size_t base = 0; base + kBlockSize <= json.size();
             base += kBlockSize) {
            BlockBits b = classifyBlockReference(json.data() + base,
                                                 kBlockSize, carry);
            acc ^= b.structural();
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * json.size()));
}
BENCHMARK(BM_ClassifyScalarReference);

void
BM_PrefixXor(benchmark::State& state)
{
    Rng rng(1);
    uint64_t x = rng.next();
    const kernels::Kernel& kernel = kernels::active();
    for (auto _ : state) {
        x = kernel.prefix_xor(x) + 1;
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_PrefixXor);

void
BM_SelectBit(benchmark::State& state)
{
    Rng rng(2);
    uint64_t x = rng.next() | 1;
    int k = 1;
    const kernels::Kernel& kernel = kernels::active();
    for (auto _ : state) {
        int pos = kernel.select_bit(x, k);
        benchmark::DoNotOptimize(pos);
        k = (k % bits::popcount(x)) + 1;
    }
}
BENCHMARK(BM_SelectBit);

void
BM_BuildInterval(benchmark::State& state)
{
    Rng rng(3);
    uint64_t bm = rng.next();
    int start = 0;
    for (auto _ : state) {
        uint64_t iv = buildInterval(bm, start);
        benchmark::DoNotOptimize(iv);
        start = (start + 7) & 63;
        bm = (bm >> 1) | (bm << 63);
    }
}
BENCHMARK(BM_BuildInterval);

/**
 * Classification GB/s under every runnable kernel on this host, plus
 * the byte-at-a-time reference state machine as the floor.  Each row
 * names the kernel it forced; the report's top-level "kernel" field
 * still records the dispatcher's own pick for this host.
 */
void
runKernelSweep(size_t bytes)
{
    std::string json = sampleJson(bytes);
    harness::BenchReport report(
        "micro_intervals",
        "block classification throughput per runtime SIMD kernel");
    report.inputBytes(json.size());

    std::printf("\n== per-kernel classification sweep "
                "(%zu KB, best of 5) ==\n",
                json.size() / 1024);
    std::printf("%-12s %12s %10s\n", "kernel", "seconds", "GB/s");
    for (const kernels::Kernel* k : kernels::runnable()) {
        kernels::Override guard(*k);
        harness::Timing t = harness::timeBest(
            [&] { return classifyPass(json); }, /*repeats=*/5);
        double gbps = static_cast<double>(json.size()) / t.seconds / 1e9;
        std::printf("%-12s %12s %10.2f\n", k->name,
                    harness::fmtSeconds(t.seconds).c_str(), gbps);
        report.beginRow(k->name, "classify");
        report.timing(t, json.size());
    }
    {
        harness::Timing t = harness::timeBest(
            [&] {
                ClassifierCarry carry;
                size_t structurals = 0;
                for (size_t base = 0; base + kBlockSize <= json.size();
                     base += kBlockSize) {
                    BlockBits b = classifyBlockReference(
                        json.data() + base, kBlockSize, carry);
                    structurals += static_cast<size_t>(
                        bits::popcount(b.structural()));
                }
                return structurals;
            },
            /*repeats=*/5);
        double gbps = static_cast<double>(json.size()) / t.seconds / 1e9;
        std::printf("%-12s %12s %10.2f\n", "reference",
                    harness::fmtSeconds(t.seconds).c_str(), gbps);
        report.beginRow("reference", "classify");
        report.timing(t, json.size());
    }
    report.write();
}

} // namespace

int
main(int argc, char** argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    runKernelSweep(/*bytes=*/1 << 22);
    return 0;
}
