// Decode pipeline. Inter-frame prediction forces sequential decode *within*
// a GOP, but GOPs are independent (each starts at a keyframe), so the
// pipeline plans a requested range as keyframe-aligned GOPs and decodes
// them with one per-frame GOP decoder: on pool workers ahead of the
// consumer (pooled mode), or inline on the consumer's thread, on demand
// (synchronous mode). A reorder stage emits frames in presentation order
// either way. This is the unit benchmarked in E5.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "concurrency/thread_pool.hpp"
#include "util/result.hpp"
#include "video/container.hpp"

namespace vgbl {

/// [first, first+count) frame range that starts at a keyframe.
struct GopRange {
  int first = 0;
  int count = 0;
};

/// Splits `[first, first+count)` of the container into keyframe-aligned
/// ranges. The first range may begin before `first` (at its keyframe) —
/// `lead_in` frames must be decoded then discarded.
struct GopPlan {
  std::vector<GopRange> gops;
  int lead_in = 0;  // frames of gops[0] preceding the requested start
};

[[nodiscard]] GopPlan plan_gops(const VideoContainer& container, int first,
                                int count);

/// Decoded frames a pooled pipeline keeps ready ahead of the consumer. Kept
/// small: each holds a full frame and a scenario switch discards them; four
/// keep one worker busy while the consumer composites (EXPERIMENTS.md E19).
inline constexpr int kLookaheadFrames = 4;

/// Streaming GOP decoder: a producer-side thread pool decodes GOPs ahead of
/// the consumer, which pops frames in order. A GOP is submitted once its
/// first frame is within kLookaheadFrames of the consumer's next frame, and
/// a worker parks before decoding a frame beyond that window until the
/// consumer catches up, so at most kLookaheadFrames decoded frames wait
/// ahead of the consumer whatever the worker count. The worker that holds
/// the consumer's next frame never parks, so no pool size can deadlock.
class DecodePipeline {
 public:
  /// `decode_threads` decode workers. 0 runs with no pool at all: GOPs
  /// decode synchronously on the consumer thread, on demand. That mode
  /// exists for massive simulated cohorts (district-scale DES runs keep
  /// 100k+ sessions alive at once) where even one OS thread per session
  /// would exhaust the process thread limit.
  DecodePipeline(std::shared_ptr<const VideoContainer> container,
                 unsigned decode_threads);
  ~DecodePipeline();

  DecodePipeline(const DecodePipeline&) = delete;
  DecodePipeline& operator=(const DecodePipeline&) = delete;

  /// Requests `[first, first+count)`. Any active run is cancelled. Only
  /// the range is recorded: the first next_frame() plans its GOPs and
  /// builds the run, so a session that never reads a frame (a headless
  /// bot) never pays for either.
  void start(int first, int count);

  /// Next frame in presentation order; nullopt at end-of-range or after
  /// `stop()`. Blocks while the decoder catches up.
  std::optional<Frame> next_frame();

  /// Cancels the active run, or drops a range not yet begun, and drains
  /// workers, parked ones included.
  void stop();

 private:
  struct Run;

  /// Builds the run for the range start() recorded.
  void begin_pending();

  /// Decodes one GOP into `run`'s reorder buffers, publishing frame by
  /// frame so a pooled consumer can present the first frame while the rest
  /// still decodes. Runs on a pool worker, or inline in synchronous mode.
  void decode_gop(const std::shared_ptr<Run>& run, size_t g);

  std::shared_ptr<const VideoContainer> container_;
  std::unique_ptr<ThreadPool> pool_;  ///< null in synchronous mode
  std::shared_ptr<Run> run_;
  /// The range start() recorded and no next_frame() has begun yet.
  std::optional<GopRange> pending_;
};

}  // namespace vgbl
