/**
 * @file
 * Telemetry exporters: machine-readable JSON, Prometheus text
 * exposition format, and a human-readable report (the runtime
 * counterpart of ski::explain(), meant to be printed next to it).
 *
 * Export works in every build; in a default (telemetry-off) build the
 * registries simply contain zeros and the reports say so.
 */
#ifndef JSONSKI_TELEMETRY_EXPORT_H
#define JSONSKI_TELEMETRY_EXPORT_H

#include <string>
#include <string_view>

#include "telemetry/telemetry.h"

namespace jsonski::telemetry {

/**
 * Serialize @p r as one JSON object:
 *
 *   {"enabled":bool, "kernel":"avx2",
 *    "counters":{...}, "skipped_bytes":{"G1":n,...},
 *    "skip_histograms":{"G1":[{"le":2,"count":n},...],...},
 *    "trace":{"total":n,"dropped":n,"entries":[{...},...]}}
 *
 * Histogram buckets are emitted sparsely (only non-empty buckets);
 * "le" is the exclusive upper bound 2^b of log2 bucket b.
 */
std::string toJson(const Registry& r);

/**
 * Prometheus text exposition format.  Metric names are prefixed
 * `jsonski_`; @p labels (e.g. `query="BB1"`) is inserted verbatim into
 * every sample's label set.
 */
std::string toPrometheus(const Registry& r, std::string_view labels = {});

/**
 * Human-readable report: counter table, per-group skip profile with
 * log2 histograms, and the trace ring rendered one decision per line
 * — print it after ski::explain() to see the static plan and the
 * dynamic decisions side by side.
 */
std::string renderReport(const Registry& r);

} // namespace jsonski::telemetry

#endif // JSONSKI_TELEMETRY_EXPORT_H
