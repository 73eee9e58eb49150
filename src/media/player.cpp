#include "media/player.hpp"

#include <algorithm>

namespace vgbl {

SegmentPlayer::SegmentPlayer(std::shared_ptr<const VideoContainer> container,
                             unsigned decode_threads)
    : container_(std::move(container)),
      pipeline_(container_, decode_threads) {}

Status SegmentPlayer::play_segment(SegmentId segment, MicroTime now) {
  const ContainerSegment* seg = container_->segment_by_id(segment);
  if (!seg) {
    return not_found("segment id " + std::to_string(segment.value));
  }
  pipeline_.start(seg->first_frame, seg->frame_count);
  active_ = true;
  paused_ = false;
  segment_ = segment;
  segment_first_ = seg->first_frame;
  segment_count_ = seg->frame_count;
  start_time_ = now;
  emitted_ = 0;
  last_frame_.reset();
  last_index_ = -1;
  ++stats_.segment_switches;
  return {};
}

Status SegmentPlayer::replay(MicroTime now) {
  if (!active_) return failed_precondition("no segment playing");
  return play_segment(segment_, now);
}

void SegmentPlayer::pause(MicroTime now) {
  if (!active_ || paused_) return;
  paused_ = true;
  pause_time_ = now;
}

void SegmentPlayer::resume(MicroTime now) {
  if (!active_ || !paused_) return;
  paused_ = false;
  start_time_ += now - pause_time_;  // shift timeline by the pause duration
}

int SegmentPlayer::frame_index_at(MicroTime now) const {
  if (!active_ || segment_count_ <= 0) return 0;
  const MicroTime t = paused_ ? pause_time_ : now;
  const MicroTime elapsed = std::max<MicroTime>(0, t - start_time_);
  const i64 idx = elapsed * container_->fps() / 1'000'000;
  return static_cast<int>(std::min<i64>(idx, segment_count_ - 1));
}

bool SegmentPlayer::finished(MicroTime now) const {
  if (!active_ || paused_) return false;
  const MicroTime elapsed = std::max<MicroTime>(0, now - start_time_);
  return elapsed * container_->fps() / 1'000'000 >= segment_count_;
}

std::optional<Frame> SegmentPlayer::current_frame(MicroTime now) {
  if (!active_) return std::nullopt;
  const int target = frame_index_at(now);
  if (target == last_index_ && last_frame_) {
    return last_frame_;  // same frame period: no new decode
  }

  // Pull from the pipeline up to the target index, dropping late frames to
  // stay on the clock (the pipeline still decodes them — a GOP decode
  // cannot skip — but they are not presented).
  while (emitted_ <= target) {
    auto f = pipeline_.next_frame();
    if (!f) break;  // end of segment or decode error: hold last frame
    if (emitted_ == target) {
      last_frame_ = std::move(f);
    } else {
      ++stats_.frames_dropped;
    }
    ++emitted_;
  }
  if (last_frame_ && last_index_ != target) {
    ++stats_.frames_presented;
    last_index_ = target;
  }
  return last_frame_;
}

std::vector<i16> SegmentPlayer::audio_window(MicroTime now,
                                             MicroTime duration) const {
  std::vector<i16> out;
  if (!active_ || paused_ || !container_->has_audio() || duration <= 0) {
    return out;
  }
  const AudioBuffer& track = container_->audio();
  const MicroTime t = std::max<MicroTime>(0, now - start_time_);
  // Clamp to the segment's span on the global timeline.
  const i64 start_sample =
      static_cast<i64>(container_->audio_sample_for_frame(segment_first_)) +
      t * track.sample_rate / 1'000'000;
  const i64 end_of_segment = static_cast<i64>(
      container_->audio_sample_for_frame(segment_first_ + segment_count_));
  const i64 want = duration * track.sample_rate / 1'000'000;
  const i64 stop_at =
      std::min<i64>({start_sample + want, end_of_segment,
                     static_cast<i64>(track.samples.size())});
  for (i64 i = start_sample; i < stop_at; ++i) {
    out.push_back(track.samples[static_cast<size_t>(i)]);
  }
  return out;
}

void SegmentPlayer::stop() {
  pipeline_.stop();
  active_ = false;
  last_frame_.reset();
}

}  // namespace vgbl
