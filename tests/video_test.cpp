// Tests for the frame model, the synthetic clip generator and the
// scene-cut detector / scenario segmentation.
#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "video/frame.hpp"
#include "video/scene_detect.hpp"
#include "video/synthetic.hpp"

namespace vgbl {
namespace {

// --- Frame ------------------------------------------------------------------

TEST(FrameTest, ConstructionAndFill) {
  Frame f = Frame::rgb(4, 3, colors::kRed);
  EXPECT_EQ(f.width(), 4);
  EXPECT_EQ(f.height(), 3);
  EXPECT_EQ(f.channels(), 3);
  EXPECT_EQ(f.pixel(0, 0), colors::kRed);
  EXPECT_EQ(f.pixel(3, 2), colors::kRed);
}

TEST(FrameTest, GrayFrame) {
  Frame f = Frame::gray(4, 4, 77);
  EXPECT_EQ(f.channels(), 1);
  EXPECT_EQ(f.at(2, 2), 77);
  EXPECT_EQ(f.pixel(2, 2), (Color{77, 77, 77}));
}

TEST(FrameTest, FillRectClipsToBounds) {
  Frame f = Frame::rgb(10, 10, colors::kBlack);
  f.fill_rect({8, 8, 10, 10}, colors::kWhite);  // spills past the edge
  EXPECT_EQ(f.pixel(9, 9), colors::kWhite);
  EXPECT_EQ(f.pixel(7, 7), colors::kBlack);
  f.fill_rect({-5, -5, 3, 3}, colors::kRed);  // fully outside
  EXPECT_EQ(f.pixel(0, 0), colors::kBlack);
}

TEST(FrameTest, DrawRectBorderOnly) {
  Frame f = Frame::rgb(10, 10, colors::kBlack);
  f.draw_rect({2, 2, 5, 5}, colors::kWhite);
  EXPECT_EQ(f.pixel(2, 2), colors::kWhite);
  EXPECT_EQ(f.pixel(6, 6), colors::kWhite);
  EXPECT_EQ(f.pixel(4, 4), colors::kBlack);  // interior untouched
}

TEST(FrameTest, GradientMonotoneLuma) {
  Frame f = Frame::rgb(8, 32);
  f.fill_gradient(f.bounds(), colors::kBlack, colors::kWhite);
  u8 prev = f.pixel(4, 0).luma();
  for (i32 y = 1; y < 32; ++y) {
    const u8 cur = f.pixel(4, y).luma();
    EXPECT_GE(cur, prev);
    prev = cur;
  }
  EXPECT_GT(f.pixel(4, 31).luma(), f.pixel(4, 0).luma());
}

TEST(FrameTest, CircleInsideOutside) {
  Frame f = Frame::rgb(40, 40, colors::kBlack);
  f.fill_circle({20, 20}, 10, colors::kWhite);
  EXPECT_EQ(f.pixel(20, 20), colors::kWhite);
  EXPECT_EQ(f.pixel(20, 11), colors::kWhite);  // inside radius
  EXPECT_EQ(f.pixel(20, 5), colors::kBlack);   // outside
  EXPECT_EQ(f.pixel(0, 0), colors::kBlack);
}

TEST(FrameTest, CircleClipsAtEdges) {
  Frame f = Frame::rgb(10, 10, colors::kBlack);
  f.fill_circle({0, 0}, 5, colors::kWhite);  // clipped: must not crash
  EXPECT_EQ(f.pixel(0, 0), colors::kWhite);
}

TEST(FrameTest, BlitCopiesAndClips) {
  Frame src = Frame::rgb(4, 4, colors::kGreen);
  Frame dst = Frame::rgb(8, 8, colors::kBlack);
  dst.blit(src, {6, 6});  // only 2x2 lands
  EXPECT_EQ(dst.pixel(6, 6), colors::kGreen);
  EXPECT_EQ(dst.pixel(7, 7), colors::kGreen);
  EXPECT_EQ(dst.pixel(5, 5), colors::kBlack);
}

// fill_rect and same-format blit copy whole rows; these cases check them,
// the gray fill and the cross-format blits, against the per-pixel loops.

Frame noise_frame(i32 w, i32 h, PixelFormat format, u64 seed) {
  Frame f(w, h, format);
  Rng rng(seed);
  for (u8& b : f.data()) b = static_cast<u8>(rng.below(256));
  return f;
}

Frame reference_fill(Frame f, Rect r, Color c) {
  for (i32 y = 0; y < f.height(); ++y) {
    for (i32 x = 0; x < f.width(); ++x) {
      if (r.contains({x, y})) f.set_pixel(x, y, c);
    }
  }
  return f;
}

Frame reference_blit(Frame dst, const Frame& src, Point at) {
  for (i32 y = 0; y < dst.height(); ++y) {
    for (i32 x = 0; x < dst.width(); ++x) {
      const i32 sx = x - at.x;
      const i32 sy = y - at.y;
      if (sx >= 0 && sy >= 0 && sx < src.width() && sy < src.height()) {
        dst.set_pixel(x, y, src.pixel(sx, sy));
      }
    }
  }
  return dst;
}

TEST(FrameTest, FillRectMatchesPerPixelInBothFormats) {
  const Color c{200, 90, 30};
  const Rect rects[] = {{3, 2, 5, 4},    {-4, -3, 9, 7}, {10, 6, 40, 40},
                        {0, 0, 13, 11},  {-5, 4, 30, 1}, {6, -9, 1, 30},
                        {20, 20, 3, 3},  {4, 4, 0, 5}};
  for (PixelFormat format : {PixelFormat::kGray8, PixelFormat::kRgb24}) {
    for (const Rect& r : rects) {
      const Frame base = noise_frame(13, 11, format, 5);
      Frame got = base;
      got.fill_rect(r, c);
      EXPECT_EQ(got, reference_fill(base, r, c))
          << "format " << static_cast<int>(format) << " rect " << r.x << ","
          << r.y << " " << r.width << "x" << r.height;
    }
    // The constructor's fill and the gray fill agree with set_pixel too.
    EXPECT_EQ(Frame(7, 5, format, c),
              reference_fill(Frame(7, 5, format), {0, 0, 7, 5}, c));
  }
  EXPECT_EQ(Frame::gray(6, 4, 77),
            reference_fill(Frame(6, 4, PixelFormat::kGray8), {0, 0, 6, 4},
                           {77, 77, 77}));
}

TEST(FrameTest, BlitMatchesPerPixelAcrossFormatsAndOrigins) {
  const Point origins[] = {{0, 0},  {3, 2},   {-4, -3}, {9, 7},  {-2, 8},
                           {11, -5}, {-20, 0}, {0, 30},  {12, 10}};
  const PixelFormat formats[] = {PixelFormat::kGray8, PixelFormat::kRgb24};
  for (PixelFormat src_format : formats) {
    for (PixelFormat dst_format : formats) {
      const Frame src = noise_frame(6, 5, src_format, 11);
      for (const Point& at : origins) {
        const Frame base = noise_frame(13, 11, dst_format, 12);
        Frame got = base;
        got.blit(src, at);
        EXPECT_EQ(got, reference_blit(base, src, at))
            << "src " << static_cast<int>(src_format) << " dst "
            << static_cast<int>(dst_format) << " at " << at.x << "," << at.y;
      }
    }
  }
}

TEST(FrameTest, BlendPixelAlpha) {
  Frame f = Frame::rgb(2, 2, colors::kBlack);
  f.blend_pixel(0, 0, colors::kWhite, 255);
  EXPECT_EQ(f.pixel(0, 0), colors::kWhite);
  f.blend_pixel(1, 1, colors::kWhite, 0);
  EXPECT_EQ(f.pixel(1, 1), colors::kBlack);
  f.blend_pixel(1, 0, colors::kWhite, 128);
  const u8 mid = f.pixel(1, 0).r;
  EXPECT_GT(mid, 100);
  EXPECT_LT(mid, 160);
}

TEST(FrameTest, ToGrayMatchesLuma) {
  Frame f = Frame::rgb(3, 1);
  f.set_pixel(0, 0, colors::kRed);
  f.set_pixel(1, 0, colors::kWhite);
  f.set_pixel(2, 0, colors::kBlack);
  Frame g = f.to_gray();
  EXPECT_EQ(g.format(), PixelFormat::kGray8);
  EXPECT_EQ(g.at(0, 0), colors::kRed.luma());
  EXPECT_EQ(g.at(1, 0), 255);
  EXPECT_EQ(g.at(2, 0), 0);
}

TEST(FrameTest, HistogramsNormalised) {
  Frame f = Frame::rgb(16, 16, colors::kGray);
  const auto luma = f.luma_histogram(32);
  f64 sum = 0;
  for (f64 h : luma) sum += h;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  const auto color = f.color_histogram(16);
  EXPECT_EQ(color.size(), 48u);
  sum = 0;
  for (f64 h : color) sum += h;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(FrameTest, MeanColor) {
  Frame f = Frame::rgb(2, 1);
  f.set_pixel(0, 0, {0, 0, 0});
  f.set_pixel(1, 0, {200, 100, 50});
  const Color m = f.mean_color();
  EXPECT_EQ(m, (Color{100, 50, 25}));
}

TEST(FrameTest, PsnrIdenticalIsHuge) {
  Frame a = Frame::rgb(16, 16, colors::kBlue);
  EXPECT_GE(psnr(a, a), 1e9);
}

TEST(FrameTest, PsnrDropsWithNoise) {
  Frame a = Frame::rgb(32, 32, colors::kGray);
  Frame slightly = a;
  Frame very = a;
  Rng rng(1);
  auto noisy = [&](Frame& f, int amplitude) {
    for (auto& v : f.data()) {
      v = static_cast<u8>(
          std::clamp<i64>(v + rng.range(-amplitude, amplitude), 0, 255));
    }
  };
  noisy(slightly, 2);
  noisy(very, 40);
  EXPECT_GT(psnr(a, slightly), psnr(a, very));
  EXPECT_GT(psnr(a, slightly), 35.0);
  EXPECT_LT(psnr(a, very), 25.0);
}

TEST(FrameTest, MeanAbsDiff) {
  Frame a = Frame::rgb(4, 4, colors::kBlack);
  Frame b = Frame::rgb(4, 4, {10, 10, 10});
  EXPECT_NEAR(mean_abs_diff(a, b), 10.0, 1e-9);
  EXPECT_EQ(mean_abs_diff(a, a), 0.0);
}

TEST(FrameTest, MismatchedShapesYieldWorstMetrics) {
  Frame a = Frame::rgb(4, 4);
  Frame b = Frame::rgb(5, 4);
  EXPECT_EQ(psnr(a, b), 0.0);
  EXPECT_EQ(mean_abs_diff(a, b), 255.0);
}

// --- Color -------------------------------------------------------------------

TEST(ColorTest, LerpEndpoints) {
  const Color a{0, 0, 0};
  const Color b{200, 100, 50};
  EXPECT_EQ(a.lerp(b, 0.0), a);
  const Color mid = a.lerp(b, 0.5);
  EXPECT_NEAR(mid.r, 100, 2);
  EXPECT_NEAR(mid.g, 50, 2);
}

TEST(ColorTest, LumaWeights) {
  EXPECT_EQ(colors::kWhite.luma(), 255);
  EXPECT_EQ(colors::kBlack.luma(), 0);
  // Green contributes most.
  EXPECT_GT((Color{0, 255, 0}.luma()), (Color{255, 0, 0}.luma()));
  EXPECT_GT((Color{255, 0, 0}.luma()), (Color{0, 0, 255}.luma()));
}

// --- Synthetic generator -------------------------------------------------------

TEST(SyntheticTest, DeterministicForSpec) {
  const ClipSpec spec = make_demo_spec(2, 10);
  const Clip a = generate_clip(spec);
  const Clip b = generate_clip(spec);
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (size_t i = 0; i < a.frames.size(); ++i) {
    EXPECT_EQ(a.frames[i], b.frames[i]) << "frame " << i;
  }
}

TEST(SyntheticTest, SeedChangesContent) {
  ClipSpec spec = make_demo_spec(1, 4);
  const Clip a = generate_clip(spec);
  spec.seed = 999;
  const Clip b = generate_clip(spec);
  EXPECT_NE(a.frames[0], b.frames[0]);
}

TEST(SyntheticTest, GroundTruthCutsAtSceneBoundaries) {
  const ClipSpec spec = make_demo_spec(3, 12);
  const Clip clip = generate_clip(spec);
  EXPECT_EQ(clip.frames.size(), 36u);
  EXPECT_EQ(clip.ground_truth_cuts, (std::vector<int>{12, 24}));
  EXPECT_EQ(clip.scene_of_frame[0], "classroom");
  EXPECT_EQ(clip.scene_of_frame[12], "market");
  EXPECT_EQ(clip.scene_of_frame[24], "street");
}

TEST(SyntheticTest, MotionChangesConsecutiveFrames) {
  const Clip clip = generate_clip(make_demo_spec(1, 8));
  EXPECT_NE(clip.frames[0], clip.frames[1]);
  // ...but not by much (same scene).
  EXPECT_LT(mean_abs_diff(clip.frames[0], clip.frames[1]), 20.0);
}

TEST(SyntheticTest, KnownStylesAreDistinct) {
  const SceneStyle classroom = scene_style("classroom");
  const SceneStyle cave = scene_style("cave");
  EXPECT_NE(classroom.background_top, cave.background_top);
}

TEST(SyntheticTest, UnknownStyleIsStable) {
  const SceneStyle a = scene_style("wizard_tower");
  const SceneStyle b = scene_style("wizard_tower");
  EXPECT_EQ(a.background_top, b.background_top);
  EXPECT_EQ(a.prop_count, b.prop_count);
}

TEST(SyntheticTest, NoiseLevelAddsNoise) {
  ClipSpec spec = make_demo_spec(1, 2);
  spec.scenes[0].style.noise_level = 0;
  const Clip clean = generate_clip(spec);
  spec.scenes[0].style.noise_level = 8.0;
  const Clip noisy = generate_clip(spec);
  EXPECT_GT(mean_abs_diff(clean.frames[0], noisy.frames[0]), 2.0);
}

// --- Scene-cut detection ---------------------------------------------------------

TEST(SceneDetectTest, ChiSquareBasics) {
  const std::vector<f64> a{0.5, 0.5, 0.0};
  const std::vector<f64> b{0.0, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(chi_square_distance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(chi_square_distance(a, b), chi_square_distance(b, a));
  EXPECT_GT(chi_square_distance(a, b), 0.0);
}

TEST(SceneDetectTest, FindsExactCutsOnCleanClip) {
  const Clip clip = generate_clip(make_demo_spec(4, 24));
  const std::vector<int> cuts = detect_cuts(clip.frames);
  EXPECT_EQ(cuts, clip.ground_truth_cuts);
}

TEST(SceneDetectTest, NoCutsInSingleScene) {
  const Clip clip = generate_clip(make_demo_spec(1, 48));
  EXPECT_TRUE(detect_cuts(clip.frames).empty());
}

TEST(SceneDetectTest, RobustToSensorNoise) {
  ClipSpec spec = make_demo_spec(3, 24);
  for (auto& scene : spec.scenes) scene.style.noise_level = 4.0;
  const Clip clip = generate_clip(spec);
  const CutScore score = score_cuts(detect_cuts(clip.frames),
                                    clip.ground_truth_cuts, 1);
  EXPECT_GE(score.recall(), 0.99);
  EXPECT_GE(score.precision(), 0.99);
}

TEST(SceneDetectTest, MinShotLengthDebounces) {
  // Scenes shorter than min_shot_length cannot create extra cuts.
  ClipSpec spec = make_demo_spec(2, 24);
  const Clip clip = generate_clip(spec);
  SceneDetectConfig config;
  config.min_shot_length = 30;  // longer than the 24-frame scenes
  const std::vector<int> cuts = detect_cuts(clip.frames, config);
  EXPECT_LE(cuts.size(), 1u);
}

TEST(SceneDetectTest, ShotsPartitionTheClip) {
  const Clip clip = generate_clip(make_demo_spec(3, 20));
  const auto shots = detect_shots(clip.frames);
  ASSERT_FALSE(shots.empty());
  int covered = 0;
  int expected_start = 0;
  for (const auto& s : shots) {
    EXPECT_EQ(s.first_frame, expected_start);
    EXPECT_GT(s.frame_count, 0);
    expected_start += s.frame_count;
    covered += s.frame_count;
  }
  EXPECT_EQ(covered, static_cast<int>(clip.frames.size()));
}

TEST(SceneDetectTest, SegmentationMatchesScenes) {
  const Clip clip = generate_clip(make_demo_spec(4, 24));
  const auto segments = segment_scenarios(clip.frames);
  ASSERT_EQ(segments.size(), 4u);
  EXPECT_EQ(segments[0].first_frame, 0);
  EXPECT_EQ(segments[1].first_frame, 24);
  EXPECT_EQ(segments[3].first_frame, 72);
  for (const auto& s : segments) EXPECT_EQ(s.frame_count, 24);
}

TEST(SceneDetectTest, SameStyleScenesMerge) {
  // Two consecutive scenes with the identical style should group into one
  // scenario ("series of continuous shots with the same place").
  ClipSpec spec;
  spec.width = 160;
  spec.height = 120;
  spec.seed = 4;
  spec.scenes.push_back({"a", scene_style("classroom"), 24});
  spec.scenes.push_back({"b", scene_style("classroom"), 24});
  const Clip clip = generate_clip(spec);
  const auto segments = segment_scenarios(clip.frames);
  EXPECT_EQ(segments.size(), 1u);
}

TEST(SceneDetectTest, ScoreCutsMath) {
  const CutScore s = score_cuts({10, 20, 31}, {10, 21, 50}, 1);
  EXPECT_EQ(s.true_positives, 2);   // 10 exact, 20 within tolerance of 21
  EXPECT_EQ(s.false_positives, 1);  // 31
  EXPECT_EQ(s.false_negatives, 1);  // 50
  EXPECT_NEAR(s.precision(), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(s.recall(), 2.0 / 3.0, 1e-9);
  EXPECT_GT(s.f1(), 0.6);
}

TEST(SceneDetectTest, EmptyAndTinyInputs) {
  EXPECT_TRUE(detect_cuts({}).empty());
  const Clip clip = generate_clip(make_demo_spec(1, 1));
  EXPECT_TRUE(detect_cuts(clip.frames).empty());
  EXPECT_EQ(detect_shots(clip.frames).size(), 1u);
}

/// Property sweep: detector recall/precision stay high across scene counts
/// and seeds on clean footage.
struct DetectCase {
  int scenes;
  u64 seed;
};

class DetectorSweepTest : public ::testing::TestWithParam<DetectCase> {};

TEST_P(DetectorSweepTest, HighAccuracyOnCleanClips) {
  const auto& param = GetParam();
  const Clip clip =
      generate_clip(make_demo_spec(param.scenes, 18, 160, 120, param.seed));
  const CutScore score =
      score_cuts(detect_cuts(clip.frames), clip.ground_truth_cuts, 1);
  EXPECT_GE(score.recall(), 0.99) << "scenes=" << param.scenes;
  EXPECT_GE(score.precision(), 0.99) << "scenes=" << param.scenes;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DetectorSweepTest,
                         ::testing::Values(DetectCase{2, 1}, DetectCase{3, 2},
                                           DetectCase{4, 3}, DetectCase{5, 4},
                                           DetectCase{6, 5}, DetectCase{8, 6}));

}  // namespace
}  // namespace vgbl
