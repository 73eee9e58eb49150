// Lightweight trace spans. A SpanScope stamps the sim clock (when the
// instrumented code has one) at open and close and measures wall duration;
// the finished span lands in a per-thread ring buffer, so memory stays
// bounded (kRingCapacity events per thread, oldest overwritten and
// counted in dropped()) and a span's hot-path cost is one uncontended
// mutex lock plus a slot write. Each ring also keeps running per-name
// totals, so a summary still counts spans whose events were overwritten.
// Rings are recycled when their thread exits, so long-lived processes that
// churn thread pools stay bounded by the *peak concurrent* thread count.
//
// Like metrics (metrics.hpp), tracing is observe-only and gated on the
// global `obs::enabled()` flag: a disabled span is a relaxed load and a
// branch.
#pragma once

#include <chrono>
#include <memory>
#include <vector>

#include "util/sim_clock.hpp"
#include "util/thread_annotations.hpp"
#include "util/types.hpp"

namespace vgbl::obs {

struct TraceEvent {
  /// Span name. Must be a string with static lifetime (a literal) — the
  /// ring stores the pointer, not a copy.
  const char* name = "";
  MicroTime sim_start = 0;  ///< sim-clock stamp at open (0: no clock)
  MicroTime sim_end = 0;    ///< sim-clock stamp at close
  i64 wall_start_us = 0;    ///< steady_clock at open
  f64 wall_ms = 0;          ///< wall duration of the span
  u32 thread_index = 0;     ///< per-ring index, stable for a thread's life
};

/// Every span recorded under one name since the last TraceLog::clear(),
/// including those no longer in a ring.
struct SpanTotal {
  const char* name = "";
  u64 count = 0;
  f64 wall_ms = 0;  ///< summed wall durations
  f64 sim_ms = 0;   ///< summed sim-clock durations
};

class TraceLog {
 public:
  static constexpr size_t kRingCapacity = 4096;

  /// Process-wide log every SpanScope writes to. Never destroyed (worker
  /// threads may finish spans during teardown).
  static TraceLog& global();

  /// Appends one finished span to the calling thread's ring. Callers that
  /// are not lexical scopes (e.g. a request→playing transition measured in
  /// sim time) can build the event by hand and record it here.
  void record(TraceEvent event);

  /// Copies every ring, oldest-first within each thread. Safe to call
  /// while other threads record; each ring is copied under its own lock.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const
      VGBL_EXCLUDES(rings_mutex_);

  /// Per-name totals over all rings, sorted by name. Unlike snapshot(),
  /// they count every span recorded since the last clear(), overwritten
  /// or not; a recycled ring's totals are kept too.
  [[nodiscard]] std::vector<SpanTotal> totals() const
      VGBL_EXCLUDES(rings_mutex_);

  /// Drops all recorded events and zeroes dropped() and totals() (rings
  /// stay allocated for their threads).
  void clear() VGBL_EXCLUDES(rings_mutex_);

  /// Events recorded since the last clear() that snapshot() can no longer
  /// return: overwritten in a full ring, or discarded when a finished
  /// thread's ring was recycled.
  [[nodiscard]] u64 dropped() const VGBL_EXCLUDES(rings_mutex_);

  /// Rings ever allocated — bounded by peak concurrent recording threads.
  [[nodiscard]] size_t ring_count() const VGBL_EXCLUDES(rings_mutex_);

  /// One thread's circular buffer. Opaque outside trace.cpp; public only
  /// so the thread-local cache that recycles rings can hold a pointer.
  struct Ring;

 private:
  Ring& ring_for_this_thread() VGBL_EXCLUDES(rings_mutex_);

  mutable Mutex rings_mutex_;
  std::vector<std::unique_ptr<Ring>> rings_ VGBL_GUARDED_BY(rings_mutex_);
};

/// Records a hand-built sim-time span (a non-lexical interval such as
/// segment request → arrival) into the global log. Guard-baked like the
/// VGBL_* macros: when observability is disabled this is one relaxed load,
/// and no event is built. `name` must have static lifetime.
void record_span(const char* name, MicroTime sim_start, MicroTime sim_end);

/// RAII span: open at construction, recorded at destruction. When metrics
/// are disabled at construction, the whole scope is a no-op (no clock
/// reads, nothing recorded).
class SpanScope {
 public:
  explicit SpanScope(const char* name, const Clock* sim_clock = nullptr);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_ = nullptr;  // null: disabled at construction
  const Clock* sim_clock_ = nullptr;
  MicroTime sim_start_ = 0;
  std::chrono::steady_clock::time_point wall_start_{};
};

}  // namespace vgbl::obs
