#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "obs/metrics.hpp"

namespace vgbl::obs {

struct TraceLog::Ring {
  Mutex mutex;
  std::vector<TraceEvent> events VGBL_GUARDED_BY(mutex);  // circular
  size_t next VGBL_GUARDED_BY(mutex) = 0;
  bool wrapped VGBL_GUARDED_BY(mutex) = false;
  u64 dropped VGBL_GUARDED_BY(mutex) = 0;  // see TraceLog::dropped()
  /// One entry per distinct name pointer; a handful of names per thread,
  /// so a linear scan beats hashing.
  std::vector<SpanTotal> totals VGBL_GUARDED_BY(mutex);
  u32 thread_index = 0;  // immutable after construction
  std::atomic<bool> in_use{false};
};

namespace {

/// Releases the thread's ring back to the log when the thread exits, so a
/// later thread can recycle the storage instead of growing the ring list.
struct ThreadRingCache {
  TraceLog::Ring* ring = nullptr;
  ~ThreadRingCache();
};

thread_local ThreadRingCache t_ring_cache;

}  // namespace

ThreadRingCache::~ThreadRingCache() {
  if (ring != nullptr) {
    ring->in_use.store(false, std::memory_order_release);
  }
}

TraceLog& TraceLog::global() {
  // Leaked on purpose, mirroring MetricsRegistry::global().
  static TraceLog* log = new TraceLog();
  return *log;
}

TraceLog::Ring& TraceLog::ring_for_this_thread() {
  if (t_ring_cache.ring != nullptr) return *t_ring_cache.ring;

  MutexLock lock(rings_mutex_);
  for (auto& ring : rings_) {
    bool expected = false;
    if (ring->in_use.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
      // Recycled from a finished thread: the dead thread's history goes,
      // keeping total memory bounded by peak concurrency.
      MutexLock ring_lock(ring->mutex);
      ring->dropped += ring->events.size();
      ring->events.clear();
      ring->next = 0;
      ring->wrapped = false;
      t_ring_cache.ring = ring.get();
      return *ring;
    }
  }
  auto ring = std::make_unique<Ring>();
  ring->events.reserve(kRingCapacity);
  ring->thread_index = static_cast<u32>(rings_.size());
  ring->in_use.store(true, std::memory_order_release);
  rings_.push_back(std::move(ring));
  t_ring_cache.ring = rings_.back().get();
  return *rings_.back();
}

void TraceLog::record(TraceEvent event) {
  if (!enabled()) return;
  Ring& ring = ring_for_this_thread();
  event.thread_index = ring.thread_index;
  MutexLock lock(ring.mutex);
  auto total = std::find_if(
      ring.totals.begin(), ring.totals.end(),
      [&](const SpanTotal& t) { return t.name == event.name; });
  if (total == ring.totals.end()) {
    total = ring.totals.insert(ring.totals.end(), SpanTotal{event.name});
  }
  ++total->count;
  total->wall_ms += event.wall_ms;
  total->sim_ms += to_millis(event.sim_end - event.sim_start);
  if (ring.events.size() < kRingCapacity) {
    ring.events.push_back(event);
  } else {
    ring.events[ring.next] = event;
    ring.wrapped = true;
    ++ring.dropped;
  }
  ring.next = (ring.next + 1) % kRingCapacity;
}

std::vector<TraceEvent> TraceLog::snapshot() const {
  std::vector<TraceEvent> out;
  MutexLock lock(rings_mutex_);
  for (const auto& ring : rings_) {
    MutexLock ring_lock(ring->mutex);
    if (ring->wrapped) {
      // Oldest-first: [next, end) then [0, next).
      out.insert(out.end(), ring->events.begin() + static_cast<i64>(ring->next),
                 ring->events.end());
      out.insert(out.end(), ring->events.begin(),
                 ring->events.begin() + static_cast<i64>(ring->next));
    } else {
      out.insert(out.end(), ring->events.begin(), ring->events.end());
    }
  }
  return out;
}

std::vector<SpanTotal> TraceLog::totals() const {
  std::vector<SpanTotal> out;
  MutexLock lock(rings_mutex_);
  for (const auto& ring : rings_) {
    MutexLock ring_lock(ring->mutex);
    for (const SpanTotal& t : ring->totals) {
      // Equal names may sit at different addresses (one literal per TU).
      auto it = std::find_if(out.begin(), out.end(), [&](const SpanTotal& o) {
        return std::strcmp(o.name, t.name) == 0;
      });
      if (it == out.end()) {
        out.push_back(t);
      } else {
        it->count += t.count;
        it->wall_ms += t.wall_ms;
        it->sim_ms += t.sim_ms;
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const SpanTotal& a, const SpanTotal& b) {
    return std::strcmp(a.name, b.name) < 0;
  });
  return out;
}

void TraceLog::clear() {
  MutexLock lock(rings_mutex_);
  for (const auto& ring : rings_) {
    MutexLock ring_lock(ring->mutex);
    ring->events.clear();
    ring->next = 0;
    ring->wrapped = false;
    ring->dropped = 0;
    ring->totals.clear();
  }
}

u64 TraceLog::dropped() const {
  u64 total = 0;
  MutexLock lock(rings_mutex_);
  for (const auto& ring : rings_) {
    MutexLock ring_lock(ring->mutex);
    total += ring->dropped;
  }
  return total;
}

size_t TraceLog::ring_count() const {
  MutexLock lock(rings_mutex_);
  return rings_.size();
}

void record_span(const char* name, MicroTime sim_start, MicroTime sim_end) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = name;
  event.sim_start = sim_start;
  event.sim_end = sim_end;
  TraceLog::global().record(event);
}

SpanScope::SpanScope(const char* name, const Clock* sim_clock) {
  if (!enabled()) return;
  name_ = name;
  sim_clock_ = sim_clock;
  sim_start_ = sim_clock != nullptr ? sim_clock->now() : 0;
  wall_start_ = std::chrono::steady_clock::now();
}

SpanScope::~SpanScope() {
  if (name_ == nullptr) return;
  TraceEvent event;
  event.name = name_;
  event.sim_start = sim_start_;
  event.sim_end = sim_clock_ != nullptr ? sim_clock_->now() : 0;
  event.wall_start_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          wall_start_.time_since_epoch())
          .count();
  event.wall_ms = std::chrono::duration<f64, std::milli>(
                      std::chrono::steady_clock::now() - wall_start_)
                      .count();
  TraceLog::global().record(event);
}

}  // namespace vgbl::obs
