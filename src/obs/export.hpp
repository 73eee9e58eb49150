// Exporters for metrics scrapes and trace snapshots: Prometheus text
// exposition for ops tooling, a JSON form (the BENCH_*-file dialect:
// plain nested objects, f64/u64 leaves) that round-trips back into a
// MetricsSnapshot, and human-readable tables for `vgbl metrics`.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/result.hpp"

namespace vgbl::obs {

/// Prometheus text exposition format (# HELP / # TYPE, histogram
/// `_bucket{le="..."}` series with a +Inf bucket, `_sum` and `_count`).
[[nodiscard]] std::string to_prometheus(const MetricsSnapshot& snapshot);

/// JSON document:
///   {"counters": {name: value}, "gauges": {name: value},
///    "histograms": {name: {"bounds": [...], "counts": [...],
///                          "count": n, "sum": s}}}
/// Help strings are presentation-only and not serialised.
[[nodiscard]] Json to_json(const MetricsSnapshot& snapshot);

/// Inverse of `to_json`. Typed kCorruptData errors on structural
/// mismatches (so `vgbl metrics` rejects non-scrape JSON cleanly).
[[nodiscard]] Result<MetricsSnapshot> snapshot_from_json(const Json& json);

/// Table form for terminals: counters, gauges, then histograms with
/// count/mean/p50/p99, prefixed by the subsystems present.
[[nodiscard]] std::string render_snapshot(const MetricsSnapshot& snapshot);

/// One row per span name (TraceLog::totals()): count, total/mean wall ms,
/// mean sim ms.
[[nodiscard]] std::string render_trace_summary(
    const std::vector<SpanTotal>& totals);

}  // namespace vgbl::obs
