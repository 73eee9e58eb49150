#include "media/pipeline.hpp"

#include <atomic>
#include <condition_variable>
#include <limits>
#include <map>
#include <set>

#include "obs/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/wall_clock.hpp"
#include "util/thread_annotations.hpp"

namespace vgbl {

namespace {

struct MediaMetrics {
  obs::Counter& gops_decoded;
  obs::Counter& frames_decoded;
  obs::Histogram& gop_decode_ms;

  static MediaMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static MediaMetrics m{
        reg.counter("media_gops_decoded_total",
                    "GOPs the playback pipeline decoded at least one frame of"),
        reg.counter("media_frames_decoded_total", "frames decoded"),
        reg.histogram("media_gop_decode_ms",
                      obs::exponential_buckets(0.05, 2.0, 14),
                      "time spent decoding one GOP, lookahead waits excluded")};
    return m;
  }
};

}  // namespace

GopPlan plan_gops(const VideoContainer& container, int first, int count) {
  GopPlan plan;
  if (count <= 0 || first < 0 || first >= container.frame_count()) return plan;
  count = std::min(count, container.frame_count() - first);

  const int start_key = container.previous_keyframe(first);
  plan.lead_in = first - start_key;

  int pos = start_key;
  const int end = first + count;
  while (pos < end) {
    int next = pos + 1;
    while (next < end && !container.is_keyframe(next)) ++next;
    plan.gops.push_back({pos, next - pos});
    pos = next;
  }
  return plan;
}

struct DecodePipeline::Run {
  Mutex mutex;
  std::condition_variable_any cv;
  GopPlan plan;  // immutable once start() publishes the run
  // Workers publish frames one at a time so the consumer can present the
  // first frame of a GOP while the rest is still decoding — this bounds
  // scenario-switch latency by one frame decode instead of one GOP.
  std::map<size_t, std::vector<Frame>> partial
      VGBL_GUARDED_BY(mutex);                      // gop -> frames so far
  std::set<size_t> done VGBL_GUARDED_BY(mutex);    // fully decoded gops
  std::set<size_t> failed VGBL_GUARDED_BY(mutex);  // decode error in gop
  size_t next_submit VGBL_GUARDED_BY(mutex) = 0;
  size_t in_flight VGBL_GUARDED_BY(mutex) = 0;
  std::atomic<bool> cancelled{false};

  // Consumer cursor.
  size_t current_gop VGBL_GUARDED_BY(mutex) = 0;
  size_t offset_in_gop VGBL_GUARDED_BY(mutex) = 0;
  int remaining VGBL_GUARDED_BY(mutex) = 0;  // frames owed to the consumer

  /// One past the last container frame workers may decode now:
  /// kLookaheadFrames past the consumer's next frame, so that frame itself
  /// is always inside the window.
  [[nodiscard]] int window_end() const VGBL_REQUIRES(mutex) {
    if (current_gop >= plan.gops.size()) return std::numeric_limits<int>::max();
    return plan.gops[current_gop].first + static_cast<int>(offset_in_gop) +
           kLookaheadFrames;
  }
};

DecodePipeline::DecodePipeline(std::shared_ptr<const VideoContainer> container,
                               unsigned decode_threads)
    : container_(std::move(container)),
      pool_(decode_threads > 0 ? std::make_unique<ThreadPool>(decode_threads)
                               : nullptr) {}

DecodePipeline::~DecodePipeline() { stop(); }

void DecodePipeline::start(int first, int count) {
  stop();
  pending_ = GopRange{first, count};
}

void DecodePipeline::begin_pending() {
  const int first = pending_->first;
  const int count = pending_->count;
  pending_.reset();
  auto run = std::make_shared<Run>();
  run->plan = plan_gops(*container_, first, count);
  {
    // No worker can see the run before run_ is set, but the annotations
    // (correctly) have no way to know that — take the lock.
    MutexLock lock(run->mutex);
    run->remaining =
        std::min(count, std::max(0, container_->frame_count() - first));
    if (first < 0 || first >= container_->frame_count()) run->remaining = 0;
    run->offset_in_gop = static_cast<size_t>(run->plan.lead_in);
  }
  run_ = std::move(run);
}

void DecodePipeline::stop() {
  pending_.reset();
  if (!run_) return;
  auto run = run_;
  {
    UniqueLock lock(run->mutex);
    // Cancel under the lock: a worker between its cancelled check and its
    // wait at the lookahead edge would otherwise miss this wake-up.
    run->cancelled.store(true);
    run->cv.notify_all();
    // Wait for in-flight decodes so their container reference stays valid.
    while (run->in_flight != 0) {
      run->cv.wait(lock);
    }
  }
  run_.reset();
}

std::optional<Frame> DecodePipeline::next_frame() {
  if (pending_) begin_pending();
  if (!run_) return std::nullopt;
  auto run = run_;
  UniqueLock lock(run->mutex);
  if (run->remaining <= 0 || run->current_gop >= run->plan.gops.size()) {
    return std::nullopt;
  }

  if (pool_ != nullptr) {
    // Submit every GOP that starts inside the lookahead window or at its
    // end, which taking this call's frame moves into the window: a frame a
    // worker may decode always belongs to a submitted GOP. The window is
    // anchored to the consumer cursor. (Gating on in_flight/done counts is
    // racy: the consumer can consume a GOP's last frame and erase its
    // bookkeeping before the worker's final done-mark runs, leaving a stale
    // entry that would block submission forever.)
    while (run->next_submit < run->plan.gops.size() &&
           run->plan.gops[run->next_submit].first <= run->window_end()) {
      const size_t g = run->next_submit++;
      ++run->in_flight;
      // stop() waits for in_flight to drain before the run (or the
      // pipeline itself) goes away, so `this` stays valid in the worker.
      pool_->submit([this, run, g] {
        decode_gop(run, g);
        MutexLock inner(run->mutex);
        --run->in_flight;
        run->cv.notify_all();
      });
    }
  } else if (run->done.count(run->current_gop) == 0 &&
             run->failed.count(run->current_gop) == 0) {
    // Synchronous mode: decode the consumer's GOP on demand, right here,
    // through the same GOP decoder the pool workers run. No lookahead —
    // memory stays bounded by one GOP per session no matter how many
    // sessions a simulation keeps alive.
    const size_t g = run->current_gop;
    lock.unlock();
    decode_gop(run, g);
    lock.lock();
  }

  // Wait for the next frame of the current GOP (not the whole GOP). An
  // explicit predicate loop instead of the lambda overload: the thread
  // safety analysis cannot see through the wait(lock, pred) indirection,
  // while a plain loop keeps every guarded access lexically under the lock.
  const size_t cur = run->current_gop;
  while (true) {
    if (run->cancelled.load() || run->failed.count(cur) > 0) break;
    auto probe = run->partial.find(cur);
    const size_t have =
        probe == run->partial.end() ? 0 : probe->second.size();
    if (have > run->offset_in_gop || run->done.count(cur) > 0) break;
    run->cv.wait(lock);
  }
  if (run->cancelled.load() || run->failed.count(cur)) return std::nullopt;
  auto it = run->partial.find(cur);
  const size_t have = it == run->partial.end() ? 0 : it->second.size();
  if (have <= run->offset_in_gop) {
    return std::nullopt;  // gop finished short (cancel/error race)
  }

  Frame frame = std::move(it->second[run->offset_in_gop]);
  ++run->offset_in_gop;
  --run->remaining;

  if (run->offset_in_gop >=
      static_cast<size_t>(run->plan.gops[cur].count)) {
    run->partial.erase(cur);
    run->done.erase(cur);
    run->failed.erase(cur);
    ++run->current_gop;
    run->offset_in_gop = 0;
  }
  // The window moved: wake a worker parked at its edge.
  if (pool_ != nullptr) run->cv.notify_all();
  return frame;
}

void DecodePipeline::decode_gop(const std::shared_ptr<Run>& run, size_t g) {
  MediaMetrics& metrics = MediaMetrics::get();
  VGBL_SPAN("media.decode_gop");
  // Pool workers park at the lookahead edge; the synchronous mode decodes
  // on the consumer's own thread, which must not wait for itself.
  const bool capped = pool_ != nullptr;
  const bool timed = obs::enabled();
  i64 busy_us = 0;
  Decoder decoder;
  const GopRange gop = run->plan.gops[g];
  u64 decoded = 0;
  for (int i = gop.first; i < gop.first + gop.count; ++i) {
    if (capped) {
      UniqueLock lock(run->mutex);
      while (!run->cancelled.load() && i >= run->window_end()) {
        run->cv.wait(lock);
      }
    }
    if (run->cancelled.load(std::memory_order_relaxed)) break;
    const i64 started_us = timed ? obs::wall_now_us() : 0;
    auto data = container_->frame_data(i);
    Result<Frame> frame = data.ok() ? decoder.decode(data.value())
                                    : Result<Frame>(data.error());
    if (timed) busy_us += obs::wall_now_us() - started_us;
    MutexLock inner(run->mutex);
    if (!frame.ok()) {
      run->failed.insert(g);
      run->cv.notify_all();
      break;
    }
    run->partial[g].push_back(std::move(frame.value()));
    ++decoded;
    VGBL_COUNT(metrics.frames_decoded);
    run->cv.notify_all();
  }
  // A GOP cancelled before its first frame decoded nothing: not counted.
  if (decoded > 0) {
    VGBL_COUNT(metrics.gops_decoded);
    VGBL_OBSERVE(metrics.gop_decode_ms, static_cast<f64>(busy_us) / 1000.0);
  }
  MutexLock inner(run->mutex);
  run->done.insert(g);
  run->cv.notify_all();
}

}  // namespace vgbl
