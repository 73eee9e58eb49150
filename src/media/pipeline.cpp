#include "media/pipeline.hpp"

#include <atomic>
#include <condition_variable>
#include <map>
#include <set>

#include "obs/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_annotations.hpp"

namespace vgbl {

namespace {

/// Decoded frames buffered ahead of the consumer in pooled mode
/// (synchronous mode buffers exactly the consumer's GOP).
constexpr size_t kLookaheadFrames = 32;

struct MediaMetrics {
  obs::Counter& gops_decoded;
  obs::Counter& frames_decoded;
  obs::Histogram& gop_decode_ms;

  static MediaMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static MediaMetrics m{
        reg.counter("media_gops_decoded_total",
                    "GOPs decoded by the playback pipeline"),
        reg.counter("media_frames_decoded_total", "frames decoded"),
        reg.histogram("media_gop_decode_ms",
                      obs::exponential_buckets(0.05, 2.0, 14),
                      "wall time to decode one GOP")};
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
};

DecodePipeline::DecodePipeline(std::shared_ptr<const VideoContainer> container,
                               unsigned decode_threads)
    : container_(std::move(container)),
      pool_(decode_threads > 0 ? std::make_unique<ThreadPool>(decode_threads)
                               : nullptr) {}

DecodePipeline::~DecodePipeline() { stop(); }

void DecodePipeline::start(int first, int count) {
  stop();
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
  if (!run_) return;
  auto run = run_;
  run->cancelled.store(true);
  // Wait for in-flight decodes so their container reference stays valid.
  {
    UniqueLock lock(run->mutex);
    while (run->in_flight != 0) {
      run->cv.wait(lock);
    }
  }
  run_.reset();
}

std::optional<Frame> DecodePipeline::next_frame() {
  if (!run_) return std::nullopt;
  auto run = run_;
  UniqueLock lock(run->mutex);
  if (run->remaining <= 0 || run->current_gop >= run->plan.gops.size()) {
    return std::nullopt;
  }

  if (pool_ != nullptr) {
    // Keep the decode window full: submit GOPs up to a lookahead window
    // *relative to the consumer cursor*. (Gating on in_flight/done counts
    // is racy: the consumer can consume a GOP's last frame and erase its
    // bookkeeping before the worker's final done-mark runs, leaving a
    // stale entry that would block submission forever.)
    const size_t window =
        pool_->thread_count() +
        std::max<size_t>(1,
                         kLookaheadFrames /
                             std::max(1, container_->codec_config().gop_size));
    while (run->next_submit < run->plan.gops.size() &&
           run->next_submit < run->current_gop + window) {
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
  return frame;
}

void DecodePipeline::decode_gop(const std::shared_ptr<Run>& run, size_t g) {
  MediaMetrics& metrics = MediaMetrics::get();
  VGBL_SPAN("media.decode_gop");
  VGBL_TIMER(metrics.gop_decode_ms);
  Decoder decoder;
  const GopRange gop = run->plan.gops[g];
  u64 decoded = 0;
  for (int i = gop.first; i < gop.first + gop.count; ++i) {
    if (run->cancelled.load(std::memory_order_relaxed)) break;
    auto data = container_->frame_data(i);
    Result<Frame> frame = data.ok() ? decoder.decode(data.value())
                                    : Result<Frame>(data.error());
    MutexLock inner(run->mutex);
    if (!frame.ok()) {
      run->failed.insert(g);
      run->cv.notify_all();
      break;
    }
    run->partial[g].push_back(std::move(frame.value()));
    ++decoded;
    run->cv.notify_all();
  }
  VGBL_COUNT(metrics.gops_decoded);
  VGBL_COUNT(metrics.frames_decoded, decoded);
  MutexLock inner(run->mutex);
  run->done.insert(g);
  run->cv.notify_all();
}

}  // namespace vgbl
