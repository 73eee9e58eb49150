// Every metric the benchmark can print, with its unit and direction. The
// untraced run prints exactly the end-to-end metrics, the traced run
// exactly the per-layer ones; run.py checks both lists against
// BENCHMARK.json so the two cannot drift apart.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class MetricKind { kEndToEnd, kLayer };

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "higher" or "lower"
  MetricKind kind;
};

[[nodiscard]] const std::vector<MetricDef>& catalog();

/// Metric values by name, as one workload run measured them.
using MetricValues = std::map<std::string, double>;

/// Renders the result line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}} over every metric of `kind`.
/// Metrics the run did not set print as 0 (a layer that did no work).
[[nodiscard]] std::string result_json(bool correct, unsigned long long attempted,
                                      unsigned long long failed,
                                      const MetricValues& values,
                                      MetricKind kind);

}  // namespace perfbench
