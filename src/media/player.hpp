// Segment player: schedules decoded frames against a presentation clock.
// This is the "augmented video player" core of the paper's runtime (§4.3):
// the game loop asks `current_frame(now)` each tick, and scenario switches
// re-target the player at another segment's frame range.
#pragma once

#include <memory>
#include <optional>

#include "media/pipeline.hpp"
#include "util/sim_clock.hpp"

namespace vgbl {

/// Playback state machine over one container.
class SegmentPlayer {
 public:
  /// `decode_threads` sizes the decode pool behind the player; 0 decodes
  /// synchronously on the caller's thread (see DecodePipeline). The default
  /// matches SessionOptions::decode_threads.
  explicit SegmentPlayer(std::shared_ptr<const VideoContainer> container,
                         unsigned decode_threads = 1);

  /// Starts playing `segment` from its first frame at time `now`.
  /// Unknown segment ids fail with kNotFound.
  Status play_segment(SegmentId segment, MicroTime now);

  /// Restarts the current segment (used by "replay scene" buttons).
  Status replay(MicroTime now);

  void pause(MicroTime now);
  void resume(MicroTime now);
  [[nodiscard]] bool paused() const { return paused_; }
  [[nodiscard]] bool playing() const { return active_; }
  [[nodiscard]] SegmentId current_segment() const { return segment_; }
  /// Presentation time of the current segment's frame 0 (what
  /// `play_segment`/`replay` was last called with). Session snapshots
  /// save this so a restored session resumes at the same frame.
  [[nodiscard]] MicroTime start_time() const { return start_time_; }

  /// Frame index within the segment that should be on screen at `now`
  /// (clamped to the last frame once the segment ends).
  [[nodiscard]] int frame_index_at(MicroTime now) const;

  /// True when the segment has played through at `now`.
  [[nodiscard]] bool finished(MicroTime now) const;

  /// Returns the frame to present at `now`, advancing the pipeline as
  /// needed. Returns nullopt before `play_segment` or after `stop`.
  /// Consecutive calls within one frame period return the cached frame.
  std::optional<Frame> current_frame(MicroTime now);

  /// Audio samples for [now, now+duration) of the current segment — what
  /// a sound device callback would consume. Empty when the container is
  /// silent, playback is stopped/paused, or the segment has ended.
  [[nodiscard]] std::vector<i16> audio_window(MicroTime now,
                                              MicroTime duration) const;

  void stop();

  struct Stats {
    u64 frames_presented = 0;
    u64 frames_dropped = 0;
    u64 segment_switches = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  std::shared_ptr<const VideoContainer> container_;
  DecodePipeline pipeline_;

  bool active_ = false;
  bool paused_ = false;
  SegmentId segment_;
  int segment_first_ = 0;
  int segment_count_ = 0;
  MicroTime start_time_ = 0;   // presentation time of segment frame 0
  MicroTime pause_time_ = 0;
  int emitted_ = 0;            // frames pulled from the pipeline so far
  std::optional<Frame> last_frame_;
  int last_index_ = -1;
  Stats stats_;
};

}  // namespace vgbl
