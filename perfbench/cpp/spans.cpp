#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

u32 SpanLog::open(const char* name, const char* layer, u32 parent) {
  if (!enabled_) return kNoParent;
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = parent;
  span.start_us = now_us();
  span.end_us = span.start_us;
  spans_.push_back(std::move(span));
  return static_cast<u32>(spans_.size() - 1);
}

void SpanLog::close(u32 index) {
  if (!enabled_ || index == kNoParent) return;
  spans_[index].end_us = now_us();
}

u32 SpanLog::add(const char* name, const char* layer, u32 parent,
                 i64 start_us, i64 end_us) {
  if (!enabled_) return kNoParent;
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = parent;
  span.start_us = start_us;
  span.end_us = end_us;
  spans_.push_back(std::move(span));
  return static_cast<u32>(spans_.size() - 1);
}

void SpanLog::add_virtual_child(u32 index, const std::string& layer, f64 ms) {
  if (!enabled_ || index == kNoParent) return;
  virtual_[index][layer] += ms;
}

bool SpanLog::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index\tparent\tname\tlayer\tstart_us\tend_us\tvirtual\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string virt;
    auto found = virtual_.find(static_cast<u32>(i));
    if (found != virtual_.end()) {
      for (const auto& [layer, ms] : found->second) {
        if (!virt.empty()) virt += ',';
        virt += layer + "=" + std::to_string(ms);
      }
    }
    std::fprintf(f, "%zu\t%lld\t%s\t%s\t%lld\t%lld\t%s\n", i,
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 s.name, s.layer, static_cast<long long>(s.start_us),
                 static_cast<long long>(s.end_us), virt.c_str());
  }
  return std::fclose(f) == 0;
}

i64 union_length(std::vector<std::pair<i64, i64>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  i64 total = 0;
  i64 cur_start = 0;
  i64 cur_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (!open || start > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

std::vector<f64> self_times_ms(const std::vector<Span>& spans,
                               const VirtualChildren& virt) {
  std::vector<std::vector<std::pair<i64, i64>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent || s.parent >= spans.size()) continue;
    const Span& p = spans[s.parent];
    children[s.parent].emplace_back(std::max(s.start_us, p.start_us),
                                    std::min(s.end_us, p.end_us));
  }
  std::vector<f64> out(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    f64 self = spans[i].duration_ms() -
               static_cast<f64>(union_length(std::move(children[i]))) / 1000.0;
    auto found = virt.find(static_cast<u32>(i));
    if (found != virt.end()) {
      for (const auto& [layer, ms] : found->second) self -= ms;
    }
    out[i] = std::max(0.0, self);
  }
  return out;
}

Attribution attribute(const std::vector<Span>& spans,
                      const VirtualChildren& virt) {
  const std::vector<f64> self = self_times_ms(spans, virt);
  Attribution a;
  f64 attributed = 0;
  for (const auto& [index, by_layer] : virt) {
    for (const auto& [layer, ms] : by_layer) {
      a.layer_ms[layer] += ms;
      attributed += ms;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent == kNoParent) {
      a.total_ms += s.duration_ms();
      a.unattributed_ms += self[i];
    } else {
      a.layer_ms[s.layer] += self[i];
      attributed += self[i];
    }
  }
  a.reconciliation_error_ms =
      std::fabs(attributed + a.unattributed_ms - a.total_ms);
  return a;
}

f64 reconciliation_slack_ms(f64 total_ms) {
  return std::max(0.05, 0.005 * total_ms);
}

f64 highest_supported_percentile(size_t samples) {
  if (samples == 0) return 0;
  for (f64 p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    // Values strictly beyond the p-th percentile of n samples.
    const f64 beyond = static_cast<f64>(samples) * (100.0 - p) / 100.0;
    if (beyond >= 10.0 - 1e-9) return p;
  }
  return 50;
}

f64 percentile_of(std::vector<f64> values, f64 p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const f64 rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                   static_cast<f64>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const f64 frac = rank - static_cast<f64>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Percentile percentile(const std::vector<f64>& values, f64 requested) {
  Percentile out;
  out.requested = requested;
  out.samples = values.size();
  out.reported = std::min(requested, highest_supported_percentile(values.size()));
  out.value = percentile_of(values, out.reported);
  return out;
}

f64 median(const std::vector<f64>& values) { return percentile_of(values, 50); }

}  // namespace perfbench
