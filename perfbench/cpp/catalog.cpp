#include "catalog.hpp"

#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

constexpr MetricKind E = MetricKind::kEndToEnd;
constexpr MetricKind L = MetricKind::kLayer;

}  // namespace

const std::vector<MetricDef>& catalog() {
  static const std::vector<MetricDef> defs = {
      // End to end (tracing off), on every workload.
      {"setup_s", "s", "lower", E},
      {"peak_rss_mb", "MB", "lower", E},
      {"students_per_s", "1/s", "higher", E},

      // Workload-specific user-facing numbers, read in the traced run.
      {"realtime_factor", "x", "higher", L},
      {"stream_startup_p95_ms", "ms", "lower", L},
      {"stream_rebuffer_ratio", "ratio", "lower", L},
      {"frame_p50_ms", "ms", "lower", L},
      {"frame_p99_ms", "ms", "lower", L},
      {"switch_p50_ms", "ms", "lower", L},
      {"switch_p95_ms", "ms", "lower", L},

      // author
      {"author.build_ms", "ms", "lower", L},
      {"author.load_ms", "ms", "lower", L},
      // video
      {"video.encode_us_per_frame", "us", "lower", L},
      {"video.decode_us_per_frame", "us", "lower", L},
      // sim
      {"sim.events", "count", "lower", L},
      {"sim.epochs", "count", "lower", L},
      {"sim.mails", "count", "lower", L},
      {"sim.max_queue_depth", "count", "lower", L},
      {"sim.self_ms", "ms", "lower", L},
      // runtime, headless
      {"runtime.student_ms.total", "ms", "lower", L},
      {"runtime.open_us.p50", "us", "lower", L},
      {"runtime.step_us.p50", "us", "lower", L},
      {"runtime.step_us.p99", "us", "lower", L},
      {"runtime.kb_per_student", "KB", "lower", L},
      // runtime, player
      {"runtime.input_ms.p50", "ms", "lower", L},
      {"runtime.input_ms.p99", "ms", "lower", L},
      {"runtime.compose_ms.p50", "ms", "lower", L},
      {"runtime.compose_ms.p99", "ms", "lower", L},
      // media
      {"media.frame_ms.p50", "ms", "lower", L},
      {"media.frame_ms.p99", "ms", "lower", L},
      {"media.frame_ms.total", "ms", "lower", L},
      {"media.gop_decode_ms.total", "ms", "lower", L},
      {"media.frames_decoded", "count", "lower", L},
      {"media.present_ratio", "ratio", "higher", L},
      // rewards
      {"rewards.events", "count", "lower", L},
      {"rewards.rule_evals", "count", "lower", L},
      {"rewards.unlocks", "count", "higher", L},
      {"rewards.commit_ms.total", "ms", "lower", L},
      // persist
      {"persist.checkpoint_ms.total", "ms", "lower", L},
      {"persist.open_ms.total", "ms", "lower", L},
      {"persist.journal_append_ms.total", "ms", "lower", L},
      {"persist.bytes_written", "bytes", "lower", L},
      {"persist.files", "count", "lower", L},
      // net
      {"net.step_us.p50", "us", "lower", L},
      {"net.step_us.p99", "us", "lower", L},
      {"net.step_ms.total", "ms", "lower", L},
      {"net.packets_sent", "count", "lower", L},
      {"net.retransmits", "count", "lower", L},
      {"net.nacks_sent", "count", "lower", L},
      {"net.goodput_ratio", "ratio", "higher", L},
      // whole traced run
      {"unattributed_ms", "ms", "lower", L},
      {"trace_overhead_pct", "%", "lower", L},
  };
  return defs;
}

std::string result_json(bool correct, unsigned long long attempted,
                        unsigned long long failed, const MetricValues& values,
                        MetricKind kind) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : catalog()) {
    if (def.kind != kind) continue;
    auto it = values.find(def.name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + std::string(def.name) + "\": {\"value\": " + num +
           ", \"unit\": \"" + def.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
