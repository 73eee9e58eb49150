// Media pipeline tests: GOP planning, the decode pipeline (poolless and
// pooled) against the sequential oracle, and the segment player's clock
// behaviour.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>

#include "media/pipeline.hpp"
#include "media/player.hpp"
#include "obs/metrics.hpp"
#include "util/sim_clock.hpp"
#include "video/synthetic.hpp"

namespace vgbl {
namespace {

std::shared_ptr<const VideoContainer> make_container(
    int scenes = 3, int frames_per_scene = 12, CodecMode mode = CodecMode::kRle,
    int gop = 6) {
  const Clip clip = generate_clip(make_demo_spec(scenes, frames_per_scene, 64, 48));
  CodecConfig config;
  config.mode = mode;
  config.gop_size = gop;
  config.quality = 12;
  std::vector<int> starts;
  std::vector<ContainerSegment> segments;
  for (int s = 0; s < scenes; ++s) {
    starts.push_back(s * frames_per_scene);
    segments.push_back({SegmentId{static_cast<u32>(s + 1)},
                        "seg" + std::to_string(s), s * frames_per_scene,
                        frames_per_scene});
  }
  auto stream = encode_stream(clip.frames, config, clip.fps, starts).value();
  return std::make_shared<VideoContainer>(
      VideoContainer::parse(mux_container(stream, segments)).value());
}

std::vector<Frame> decode_all_sequential(const VideoContainer& c) {
  Decoder dec;
  std::vector<Frame> out;
  for (int i = 0; i < c.frame_count(); ++i) {
    out.push_back(dec.decode(c.frame_data(i).value()).value());
  }
  return out;
}

// --- GOP planning ----------------------------------------------------------------

TEST(GopPlanTest, AlignsToKeyframes) {
  auto c = make_container(2, 12, CodecMode::kRle, 4);
  const GopPlan plan = plan_gops(*c, 0, 24);
  ASSERT_FALSE(plan.gops.empty());
  EXPECT_EQ(plan.lead_in, 0);
  int covered = 0;
  for (const auto& gop : plan.gops) {
    EXPECT_TRUE(c->is_keyframe(gop.first)) << gop.first;
    covered += gop.count;
  }
  EXPECT_EQ(covered, 24);
}

TEST(GopPlanTest, MidGopStartHasLeadIn) {
  auto c = make_container(1, 12, CodecMode::kRle, 6);
  const GopPlan plan = plan_gops(*c, 8, 4);
  EXPECT_EQ(plan.gops.front().first, 6);  // previous keyframe
  EXPECT_EQ(plan.lead_in, 2);
}

TEST(GopPlanTest, EmptyAndOutOfRange) {
  auto c = make_container(1, 12);
  EXPECT_TRUE(plan_gops(*c, 0, 0).gops.empty());
  EXPECT_TRUE(plan_gops(*c, 50, 5).gops.empty());
  EXPECT_TRUE(plan_gops(*c, -1, 5).gops.empty());
  // Count clamped to stream end.
  const GopPlan plan = plan_gops(*c, 10, 100);
  int covered = 0;
  for (const auto& g : plan.gops) covered += g.count;
  EXPECT_EQ(covered - plan.lead_in, 2);
}

// --- DecodePipeline ----------------------------------------------------------------

// Every case runs poolless (0 workers: GOPs decode inline on the consumer's
// thread) and pooled (1 and 2 workers), against the sequential oracle.
class DecodePipelineTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DecodePipelineTest, EmitsAllFramesInOrder) {
  for (CodecMode mode : {CodecMode::kRle, CodecMode::kDct}) {
    auto c = make_container(2, 12, mode, 4);
    const auto oracle = decode_all_sequential(*c);
    DecodePipeline pipeline(c, GetParam());
    pipeline.start(0, c->frame_count());
    for (int i = 0; i < c->frame_count(); ++i) {
      auto f = pipeline.next_frame();
      ASSERT_TRUE(f.has_value()) << i;
      EXPECT_EQ(*f, oracle[static_cast<size_t>(i)]) << "frame " << i;
    }
    EXPECT_EQ(pipeline.next_frame(), std::nullopt);
  }
}

TEST_P(DecodePipelineTest, MidStreamStartSkipsLeadIn) {
  auto c = make_container(1, 24, CodecMode::kRle, 8);
  const auto oracle = decode_all_sequential(*c);
  DecodePipeline pipeline(c, GetParam());
  pipeline.start(11, 5);
  for (int i = 0; i < 5; ++i) {
    auto f = pipeline.next_frame();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(*f, oracle[static_cast<size_t>(11 + i)]);
  }
  EXPECT_EQ(pipeline.next_frame(), std::nullopt);
}

TEST_P(DecodePipelineTest, StopMidStreamIsClean) {
  auto c = make_container(3, 12);
  const auto oracle = decode_all_sequential(*c);
  DecodePipeline pipeline(c, GetParam());
  pipeline.start(0, c->frame_count());
  EXPECT_EQ(pipeline.next_frame(), oracle[0]);
  EXPECT_EQ(pipeline.next_frame(), oracle[1]);
  pipeline.stop();  // must not hang or crash
  EXPECT_EQ(pipeline.next_frame(), std::nullopt);
}

TEST_P(DecodePipelineTest, RestartResets) {
  auto c = make_container(2, 12);
  const auto oracle = decode_all_sequential(*c);
  DecodePipeline pipeline(c, GetParam());
  pipeline.start(0, 5);
  EXPECT_EQ(pipeline.next_frame(), oracle[0]);
  pipeline.start(12, 3);  // jump to segment 2
  for (int i = 0; i < 3; ++i) {
    auto f = pipeline.next_frame();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(*f, oracle[static_cast<size_t>(12 + i)]);
  }
  EXPECT_EQ(pipeline.next_frame(), std::nullopt);
}

TEST_P(DecodePipelineTest, StartOnlyRecordsTheRange) {
  // start() plans nothing: a range replaced or stopped before any
  // next_frame() is never decoded, and the latest range is what plays.
  auto c = make_container(2, 12);
  const auto oracle = decode_all_sequential(*c);
  DecodePipeline pipeline(c, GetParam());
  pipeline.start(0, 12);
  pipeline.stop();
  EXPECT_EQ(pipeline.next_frame(), std::nullopt);
  pipeline.start(0, 12);
  pipeline.start(12, 2);
  EXPECT_EQ(pipeline.next_frame(), oracle[12]);
  EXPECT_EQ(pipeline.next_frame(), oracle[13]);
  EXPECT_EQ(pipeline.next_frame(), std::nullopt);
}

INSTANTIATE_TEST_SUITE_P(Workers, DecodePipelineTest,
                         ::testing::Values(0u, 1u, 2u));

// --- Lookahead cap (pooled pipelines) ----------------------------------------------

u64 counter_value(const char* name) {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().scrape();
  const obs::CounterSample* c = snap.find_counter(name);
  return c != nullptr ? c->value : 0;
}

u64 frames_decoded() { return counter_value("media_frames_decoded_total"); }

/// Polls `done` for up to 10 s.
bool eventually(const std::function<bool()>& done) {
  for (int i = 0; i < 10'000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

class LookaheadCapTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(LookaheadCapTest, IdleConsumerLeavesAtMostTheLookaheadDecoded) {
  obs::ScopedEnable obs_on(true);
  auto c = make_container(3, 12, CodecMode::kDct, 4);
  const auto oracle = decode_all_sequential(*c);
  DecodePipeline pipeline(c, GetParam());
  const u64 before = frames_decoded();
  pipeline.start(0, c->frame_count());
  for (int i = 0; i < 3; ++i) EXPECT_EQ(pipeline.next_frame(), oracle[i]);
  // The workers fill the window, then park while the consumer is away.
  const u64 cap = 3 + kLookaheadFrames;
  EXPECT_TRUE(eventually([&] { return frames_decoded() - before >= cap; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(frames_decoded() - before, cap);
  // Pulling again moves the window through the rest of the range.
  for (int i = 3; i < c->frame_count(); ++i) {
    ASSERT_EQ(pipeline.next_frame(), oracle[static_cast<size_t>(i)]) << i;
  }
  EXPECT_EQ(pipeline.next_frame(), std::nullopt);
}

TEST_P(LookaheadCapTest, StopReturnsWhileAWorkerIsParked) {
  obs::ScopedEnable obs_on(true);
  auto c = make_container(3, 12, CodecMode::kDct, 4);
  const auto oracle = decode_all_sequential(*c);
  DecodePipeline pipeline(c, GetParam());
  const u64 before = frames_decoded();
  pipeline.start(0, c->frame_count());
  EXPECT_EQ(pipeline.next_frame(), oracle[0]);
  ASSERT_TRUE(eventually(
      [&] { return frames_decoded() - before >= 1 + kLookaheadFrames; }));
  pipeline.stop();  // must wake the parked worker, not wait for it forever
  EXPECT_EQ(pipeline.next_frame(), std::nullopt);
  // The pool serves the next run.
  pipeline.start(12, 12);
  for (int i = 0; i < 12; ++i) {
    ASSERT_EQ(pipeline.next_frame(), oracle[static_cast<size_t>(12 + i)]) << i;
  }
}

// Restarting after one frame cancels the GOPs queued behind it. A GOP that
// cancellation stopped before its first frame decoded nothing, so it must
// not count as decoded nor add a decode-time sample.
TEST_P(LookaheadCapTest, RestartsCountOnlyGopsThatDecodedFrames) {
  obs::ScopedEnable obs_on(true);
  auto histogram_count = [] {
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().scrape();
    const obs::HistogramSample* h = snap.find_histogram("media_gop_decode_ms");
    return h != nullptr ? h->count : 0;
  };
  auto c = make_container(3, 12, CodecMode::kDct, 4);
  DecodePipeline pipeline(c, GetParam());
  const u64 gops_before = counter_value("media_gops_decoded_total");
  const u64 frames_before = frames_decoded();
  const u64 samples_before = histogram_count();
  for (int i = 0; i < 50; ++i) {
    pipeline.start(0, c->frame_count());
    ASSERT_TRUE(pipeline.next_frame().has_value()) << i;
  }
  pipeline.stop();
  const u64 gops = counter_value("media_gops_decoded_total") - gops_before;
  const u64 frames = frames_decoded() - frames_before;
  EXPECT_GE(gops, 50u);  // every start decoded its first GOP
  EXPECT_LE(gops, frames);
  EXPECT_EQ(histogram_count() - samples_before, gops);
}

INSTANTIATE_TEST_SUITE_P(Workers, LookaheadCapTest, ::testing::Values(1u, 2u));

// --- SegmentPlayer ----------------------------------------------------------------

TEST(SegmentPlayerTest, PlaysSegmentAgainstClock) {
  auto c = make_container(2, 12);  // 24 fps
  SegmentPlayer player(c);
  SimClock clock;
  ASSERT_TRUE(player.play_segment(SegmentId{1}, clock.now()).ok());
  EXPECT_TRUE(player.playing());
  EXPECT_EQ(player.frame_index_at(clock.now()), 0);

  clock.advance(milliseconds(42));  // one frame period @24fps ≈ 41.7ms
  EXPECT_EQ(player.frame_index_at(clock.now()), 1);
  clock.advance(milliseconds(42 * 5));
  EXPECT_EQ(player.frame_index_at(clock.now()), 6);

  // Past the end: clamped, finished.
  clock.advance(seconds(10));
  EXPECT_EQ(player.frame_index_at(clock.now()), 11);
  EXPECT_TRUE(player.finished(clock.now()));
}

TEST(SegmentPlayerTest, CurrentFrameMatchesIndex) {
  auto c = make_container(1, 12, CodecMode::kRle, 4);
  const auto oracle = decode_all_sequential(*c);
  SegmentPlayer player(c);
  SimClock clock;
  ASSERT_TRUE(player.play_segment(SegmentId{1}, clock.now()).ok());
  auto f0 = player.current_frame(clock.now());
  ASSERT_TRUE(f0.has_value());
  EXPECT_EQ(*f0, oracle[0]);

  clock.advance(milliseconds(42 * 3));
  auto f3 = player.current_frame(clock.now());
  ASSERT_TRUE(f3.has_value());
  EXPECT_EQ(*f3, oracle[3]);
  EXPECT_GT(player.stats().frames_presented, 0u);
}

TEST(SegmentPlayerTest, UnknownSegmentFails) {
  auto c = make_container(1, 12);
  SegmentPlayer player(c);
  SimClock clock;
  EXPECT_FALSE(player.play_segment(SegmentId{77}, clock.now()).ok());
  EXPECT_FALSE(player.playing());
  EXPECT_EQ(player.current_frame(clock.now()), std::nullopt);
}

TEST(SegmentPlayerTest, PauseFreezesResumeShiftsTimeline) {
  auto c = make_container(1, 24);
  SegmentPlayer player(c);
  SimClock clock;
  ASSERT_TRUE(player.play_segment(SegmentId{1}, clock.now()).ok());
  clock.advance(milliseconds(42 * 4));
  const int at_pause = player.frame_index_at(clock.now());
  player.pause(clock.now());
  clock.advance(seconds(5));
  EXPECT_EQ(player.frame_index_at(clock.now()), at_pause);
  EXPECT_FALSE(player.finished(clock.now()));
  player.resume(clock.now());
  clock.advance(milliseconds(42));
  EXPECT_EQ(player.frame_index_at(clock.now()), at_pause + 1);
}

TEST(SegmentPlayerTest, ReplayRestartsSegment) {
  auto c = make_container(1, 12);
  SegmentPlayer player(c);
  SimClock clock;
  ASSERT_TRUE(player.play_segment(SegmentId{1}, clock.now()).ok());
  clock.advance(seconds(2));
  ASSERT_TRUE(player.replay(clock.now()).ok());
  EXPECT_EQ(player.frame_index_at(clock.now()), 0);
}

TEST(SegmentPlayerTest, SwitchSegmentsCountsSwitches) {
  auto c = make_container(3, 12);
  SegmentPlayer player(c);
  SimClock clock;
  ASSERT_TRUE(player.play_segment(SegmentId{1}, clock.now()).ok());
  ASSERT_TRUE(player.play_segment(SegmentId{3}, clock.now()).ok());
  EXPECT_EQ(player.current_segment(), SegmentId{3});
  EXPECT_EQ(player.stats().segment_switches, 2u);
  // Frame shown is from segment 3.
  const auto oracle = decode_all_sequential(*c);
  auto f = player.current_frame(clock.now());
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(*f, oracle[24]);
}

TEST(SegmentPlayerTest, LateConsumerDropsFrames) {
  auto c = make_container(1, 24);
  SegmentPlayer player(c);
  SimClock clock;
  ASSERT_TRUE(player.play_segment(SegmentId{1}, clock.now()).ok());
  (void)player.current_frame(clock.now());
  clock.advance(milliseconds(42 * 10));  // consumer was away for 10 frames
  (void)player.current_frame(clock.now());
  EXPECT_GT(player.stats().frames_dropped, 0u);
}

TEST(SegmentPlayerTest, StopEndsPlayback) {
  auto c = make_container(1, 12);
  SegmentPlayer player(c);
  SimClock clock;
  ASSERT_TRUE(player.play_segment(SegmentId{1}, clock.now()).ok());
  player.stop();
  EXPECT_FALSE(player.playing());
  EXPECT_EQ(player.current_frame(clock.now()), std::nullopt);
}

}  // namespace
}  // namespace vgbl
