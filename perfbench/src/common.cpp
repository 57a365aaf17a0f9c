#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "bench.h"
#include "kernels/kernel.h"
#include "ski/streamer.h"
#include "telemetry/telemetry.h"

namespace perfbench {

uint64_t
nowNs()
{
    static const Clock::time_point t0 = Clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
}

void
Digest::add(std::string_view value)
{
    uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a over the value bytes
    for (unsigned char c : value)
        h = (h ^ c) * 0x100000001b3ULL;
    hash = ((hash << 7) | (hash >> 57)) ^ h;
    hash *= 0x9E3779B97F4A7C15ULL;
    ++count;
}

// --- Tracer -----------------------------------------------------------------

uint32_t
Tracer::open(const char* name, uint32_t op, uint64_t work)
{
    uint32_t parent = stack_.empty() ? 0 : stack_.back();
    spans_.push_back(Span{name, nowNs(), 0, parent, op, work});
    auto id = static_cast<uint32_t>(spans_.size());
    stack_.push_back(id);
    return id;
}

void
Tracer::close(uint32_t id)
{
    if (stack_.empty() || stack_.back() != id)
        throw std::logic_error("span closed out of order");
    stack_.pop_back();
    spans_[id - 1].end_ns = nowNs();
}

void
Tracer::record(const char* name, uint64_t start_ns, uint64_t end_ns,
               uint32_t op, uint64_t work)
{
    if (!on_)
        return;
    uint32_t parent = stack_.empty() ? 0 : stack_.back();
    spans_.push_back(Span{name, start_ns, end_ns, parent, op, work});
}

std::pair<uint64_t, uint64_t>
Tracer::total(std::string_view name) const
{
    uint64_t ns = 0;
    uint64_t work = 0;
    for (const Span& s : spans_) {
        if (s.end_ns != 0 && name == s.name) {
            ns += s.end_ns - s.start_ns;
            work += s.work;
        }
    }
    return {ns, work};
}

void
Tracer::write(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        throw std::runtime_error("cannot write " + path);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                     "\"end_ns\":%llu,\"parent\":%u,\"op\":%u,"
                     "\"work\":%llu}\n",
                     i + 1, s.name,
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns), s.parent,
                     s.op, static_cast<unsigned long long>(s.work));
    }
    bool bad = std::ferror(f) != 0;
    if (std::fclose(f) != 0 || bad)
        throw std::runtime_error("short write to " + path);
}

// --- Statistics -----------------------------------------------------------

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank =
        static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

// --- Report ---------------------------------------------------------------

void
Report::metric(const std::string& name, double value, const std::string& unit)
{
    if (!std::isfinite(value))
        throw std::runtime_error("metric " + name + " is not finite");
    metrics_.push_back({name, {value, unit}});
}

int
Report::finish(const Options& opt) const
{
    for (const std::string& n : notes_)
        std::printf("# %s\n", n.c_str());
    const char* kernel_env = std::getenv("JSONSKI_KERNEL");
    std::printf("# env {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                "\"kernel\": \"%s\", \"kernel_env\": \"%s\", \"nproc\": %u, "
                "\"build_type\": \"%s\", \"telemetry_compiled\": %s, "
                "\"chunk_bytes\": %zu}\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
                std::string(jsonski::kernels::activeName()).c_str(),
                kernel_env != nullptr ? kernel_env : "",
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                jsonski::telemetry::kEnabled ? "true" : "false",
                jsonski::ski::Streamer::kDefaultChunkBytes);
    const double ratio = attempted_ == 0
                             ? 1.0
                             : static_cast<double>(failed_) /
                                   static_cast<double>(attempted_);
    std::printf("# %-36s %.6g fraction (%llu of %llu ops failed)\n",
                "fail_ratio", ratio,
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
    // Traced runs carry fail_ratio as a metric; untraced ones only the
    // line above, since "failed" and "attempted" already carry it.
    auto metrics = metrics_;
    if (opt.trace)
        metrics.push_back({"fail_ratio", {ratio, "fraction"}});
    for (const auto& [name, vu] : metrics)
        std::printf("# %-36s %.6g %s\n", name.c_str(), vu.first,
                    vu.second.c_str());

    std::string json = "{\"correct\": ";
    json += failed_ == 0 && attempted_ > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", metrics[i].second.first);
        if (i != 0)
            json += ", ";
        json += "\"" + metrics[i].first + "\": {\"value\": " + num +
                ", \"unit\": \"" + metrics[i].second.second + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return failed_ == 0 && attempted_ > 0 ? 0 : 1;
}

std::string
buildGuard()
{
    if (jsonski::telemetry::kEnabled)
        return "telemetry hooks are compiled in (JSONSKI_TELEMETRY=ON)";
#ifndef NDEBUG
    return "assertions are enabled (not an optimized build)";
#endif
    if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release")
        return std::string("build type is '") + PERFBENCH_BUILD_TYPE +
               "', not Release";
    if (std::getenv("JSONSKI_TEST_CHUNK_BYTES") != nullptr)
        return "JSONSKI_TEST_CHUNK_BYTES reroutes the engine";
    return {};
}

} // namespace perfbench
