// Benchmark-side tracing: spans recorded around the calls the benchmark
// makes into the program, kept in memory and written out when the run
// ends, plus the arithmetic every reported number goes through —
// percentiles, self time and the layer reconciliation. Wall time is read
// only through obs::wall_now_us, the clock the determinism lint trusts.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "obs/wall_clock.hpp"
#include "util/types.hpp"

namespace perfbench {

using vgbl::f64;
using vgbl::i64;
using vgbl::u32;
using vgbl::u64;

inline constexpr u32 kNoParent = ~0u;

/// One closed interval of host time attributed to a layer.
struct Span {
  const char* name = "";   ///< static string, e.g. "runtime.step"
  const char* layer = "";  ///< layer the span's self time counts toward
  u32 parent = kNoParent;  ///< index of the enclosing span
  i64 start_us = 0;
  i64 end_us = 0;

  [[nodiscard]] f64 duration_ms() const {
    return static_cast<f64>(end_us - start_us) / 1000.0;
  }
};

/// Work inside a span that has no interval of its own (measured by a
/// replay or an obs timer), per span index and layer. It comes off the
/// span's self time like a child span would.
using VirtualChildren = std::map<u32, std::map<std::string, f64>>;

/// In-memory span log. Disabled recorders cost one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Opens a span and returns its index (kNoParent when disabled).
  u32 open(const char* name, const char* layer, u32 parent = kNoParent);
  void close(u32 index);
  /// Records an already-measured interval.
  u32 add(const char* name, const char* layer, u32 parent, i64 start_us,
          i64 end_us);
  /// Charges `ms` of another layer's work to span `index` (see
  /// VirtualChildren).
  void add_virtual_child(u32 index, const std::string& layer, f64 ms);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const VirtualChildren& virtual_children() const {
    return virtual_;
  }

  /// Writes one tab-separated line per span.
  [[nodiscard]] bool write_tsv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  VirtualChildren virtual_;
};

/// RAII span on a SpanLog; inert when the log is disabled.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name, const char* layer,
         u32 parent = kNoParent)
      : log_(log), index_(log.open(name, layer, parent)) {}
  ~Scoped() { log_.close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  u32 index_;
};

/// Length of the union of [start, end) intervals, in the intervals' unit.
[[nodiscard]] i64 union_length(std::vector<std::pair<i64, i64>> intervals);

/// Self time of every span, in ms: its duration minus the part of its
/// interval covered by the union of its children's intervals (clipped to
/// the span) minus its virtual children. Never negative.
[[nodiscard]] std::vector<f64> self_times_ms(const std::vector<Span>& spans,
                                             const VirtualChildren& virt = {});

/// Per-layer attribution of a span log: self time summed by layer, plus
/// virtual children by layer. Root spans (no parent) are the traced total;
/// their self time is what no layer covers.
struct Attribution {
  std::map<std::string, f64> layer_ms;
  f64 total_ms = 0;         ///< sum of root span durations
  f64 unattributed_ms = 0;  ///< sum of root span self times
  /// |sum(layer_ms) + unattributed_ms - total_ms|: zero when children nest
  /// inside their parents and virtual children fit inside their spans.
  f64 reconciliation_error_ms = 0;
};

[[nodiscard]] Attribution attribute(const std::vector<Span>& spans,
                                    const VirtualChildren& virt = {});

/// Slack allowed between attributed layers + unattributed and the traced
/// total: 0.5% of the total, but at least 0.05 ms of rounding.
[[nodiscard]] f64 reconciliation_slack_ms(f64 total_ms);

/// A percentile as reported: the requested one when the sample has at
/// least ten values beyond it, else the highest percentile that does.
struct Percentile {
  f64 requested = 0;  ///< e.g. 99
  f64 reported = 0;   ///< percentile actually reported (<= requested)
  f64 value = 0;
  size_t samples = 0;
};

/// Highest percentile in {99.9, 99, 95, 90, 75, 50} with at least ten
/// samples beyond it; 50 for small samples (and 0 for an empty one).
[[nodiscard]] f64 highest_supported_percentile(size_t samples);

/// Linear-interpolated percentile of `values` (0..100). Empty -> 0.
[[nodiscard]] f64 percentile_of(std::vector<f64> values, f64 p);

/// percentile_of at min(requested, highest_supported_percentile(n)).
[[nodiscard]] Percentile percentile(const std::vector<f64>& values,
                                    f64 requested);

[[nodiscard]] f64 median(const std::vector<f64>& values);

/// Wall time in µs through the program's sanctioned clock.
inline i64 now_us() { return vgbl::obs::wall_now_us(); }

}  // namespace perfbench
