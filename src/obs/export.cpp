#include "obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/text.hpp"

namespace vgbl::obs {

namespace {

std::string format_bound(f64 bound) {
  if (std::isinf(bound)) return "+Inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", bound);
  return buf;
}

std::string format_value(f64 v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const CounterSample& c : snapshot.counters) {
    if (!c.help.empty()) out += "# HELP " + c.name + " " + c.help + "\n";
    out += "# TYPE " + c.name + " counter\n";
    out += c.name + " " + std::to_string(c.value) + "\n";
  }
  for (const GaugeSample& g : snapshot.gauges) {
    if (!g.help.empty()) out += "# HELP " + g.name + " " + g.help + "\n";
    out += "# TYPE " + g.name + " gauge\n";
    out += g.name + " " + format_value(g.value) + "\n";
  }
  for (const HistogramSample& h : snapshot.histograms) {
    if (!h.help.empty()) out += "# HELP " + h.name + " " + h.help + "\n";
    out += "# TYPE " + h.name + " histogram\n";
    u64 cumulative = 0;
    for (size_t i = 0; i < h.counts.size(); ++i) {
      cumulative += h.counts[i];
      const f64 bound = i < h.bounds.size()
                            ? h.bounds[i]
                            : std::numeric_limits<f64>::infinity();
      out += h.name + "_bucket{le=\"" + format_bound(bound) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += h.name + "_sum " + format_value(h.sum) + "\n";
    out += h.name + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

Json to_json(const MetricsSnapshot& snapshot) {
  JsonObject counters;
  for (const CounterSample& c : snapshot.counters) {
    counters.set(c.name, Json(static_cast<i64>(c.value)));
  }
  JsonObject gauges;
  for (const GaugeSample& g : snapshot.gauges) {
    gauges.set(g.name, Json(g.value));
  }
  JsonObject histograms;
  for (const HistogramSample& h : snapshot.histograms) {
    JsonObject entry;
    JsonArray bounds;
    for (f64 b : h.bounds) bounds.push_back(Json(b));
    JsonArray counts;
    for (u64 c : h.counts) counts.push_back(Json(static_cast<i64>(c)));
    entry.set("bounds", Json(std::move(bounds)));
    entry.set("counts", Json(std::move(counts)));
    entry.set("count", Json(static_cast<i64>(h.count)));
    entry.set("sum", Json(h.sum));
    histograms.set(h.name, Json(std::move(entry)));
  }
  JsonObject root;
  root.set("counters", Json(std::move(counters)));
  root.set("gauges", Json(std::move(gauges)));
  root.set("histograms", Json(std::move(histograms)));
  return Json(std::move(root));
}

Result<MetricsSnapshot> snapshot_from_json(const Json& json) {
  if (!json.is_object()) {
    return corrupt_data("metrics scrape must be a JSON object");
  }
  MetricsSnapshot snap;

  const Json& counters = json["counters"];
  if (!counters.is_null()) {
    if (!counters.is_object()) {
      return corrupt_data("'counters' must be an object");
    }
    for (const auto& [name, value] : counters.as_object().members()) {
      if (!value.is_number()) {
        return corrupt_data("counter '" + name + "' must be a number");
      }
      snap.counters.push_back(
          {name, "", static_cast<u64>(std::max<i64>(0, value.as_int()))});
    }
  }

  const Json& gauges = json["gauges"];
  if (!gauges.is_null()) {
    if (!gauges.is_object()) return corrupt_data("'gauges' must be an object");
    for (const auto& [name, value] : gauges.as_object().members()) {
      if (!value.is_number()) {
        return corrupt_data("gauge '" + name + "' must be a number");
      }
      snap.gauges.push_back({name, "", value.as_double()});
    }
  }

  const Json& histograms = json["histograms"];
  if (!histograms.is_null()) {
    if (!histograms.is_object()) {
      return corrupt_data("'histograms' must be an object");
    }
    for (const auto& [name, value] : histograms.as_object().members()) {
      if (!value.is_object()) {
        return corrupt_data("histogram '" + name + "' must be an object");
      }
      HistogramSample h;
      h.name = name;
      const Json& bounds = value["bounds"];
      const Json& counts = value["counts"];
      if (!bounds.is_array() || !counts.is_array()) {
        return corrupt_data("histogram '" + name +
                            "' needs 'bounds' and 'counts' arrays");
      }
      for (const Json& b : bounds.as_array()) h.bounds.push_back(b.as_double());
      for (const Json& c : counts.as_array()) {
        h.counts.push_back(static_cast<u64>(std::max<i64>(0, c.as_int())));
      }
      if (h.counts.size() != h.bounds.size() + 1) {
        return corrupt_data("histogram '" + name + "' has " +
                            std::to_string(h.counts.size()) + " counts for " +
                            std::to_string(h.bounds.size()) + " bounds");
      }
      h.count = static_cast<u64>(std::max<i64>(0, value["count"].as_int()));
      h.sum = value["sum"].as_double();
      snap.histograms.push_back(std::move(h));
    }
  }

  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

std::string render_snapshot(const MetricsSnapshot& snapshot) {
  std::string out;
  out += "subsystems: ";
  const auto subsystems = snapshot.subsystems();
  for (size_t i = 0; i < subsystems.size(); ++i) {
    out += (i > 0 ? ", " : "") + subsystems[i];
  }
  out += "\n";

  if (!snapshot.counters.empty()) {
    out += "counters:\n";
    for (const CounterSample& c : snapshot.counters) {
      out += "  " + pad_right(c.name, 44) + std::to_string(c.value) + "\n";
    }
  }
  if (!snapshot.gauges.empty()) {
    out += "gauges:\n";
    for (const GaugeSample& g : snapshot.gauges) {
      out += "  " + pad_right(g.name, 44) + format_double(g.value, 2) + "\n";
    }
  }
  if (!snapshot.histograms.empty()) {
    out += "histograms:\n";
    out += "  " + pad_right("name", 44) + pad_right("count", 10) +
           pad_right("mean", 10) + pad_right("p50", 10) + "p99\n";
    for (const HistogramSample& h : snapshot.histograms) {
      out += "  " + pad_right(h.name, 44) +
             pad_right(std::to_string(h.count), 10) +
             pad_right(format_double(h.mean(), 2), 10) +
             pad_right(format_double(h.quantile(0.5), 2), 10) +
             format_double(h.quantile(0.99), 2) + "\n";
    }
  }
  return out;
}

std::string render_trace_summary(const std::vector<SpanTotal>& totals) {
  std::string out;
  out += pad_right("span", 28) + pad_right("count", 10) +
         pad_right("wall ms", 12) + pad_right("mean ms", 12) + "mean sim ms\n";
  for (const SpanTotal& a : totals) {
    const f64 n = static_cast<f64>(a.count);
    out += pad_right(a.name, 28) + pad_right(std::to_string(a.count), 10) +
           pad_right(format_double(a.wall_ms, 2), 12) +
           pad_right(format_double(a.wall_ms / n, 3), 12) +
           format_double(a.sim_ms / n, 2) + "\n";
  }
  return out;
}

}  // namespace vgbl::obs
