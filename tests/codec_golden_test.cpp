// Golden bit-identity gate for the video codec. Pins an FNV-1a
// fingerprint of the full encoded stream — every frame's header, keyframe
// flag and payload bytes — for each checked-in gen-corpus seed × codec
// mode. Any change to the emitted bitstream, however subtle (quantiser
// rounding, entropy coding, GOP cadence, header layout), flips a
// fingerprint and fails here. A second table pins the decoded pixels of
// the same streams, so a reconstruction that drifts by one LSB fails too,
// and a third pins both for clip shapes the corpus lacks (one channel, both
// sides ragged). This is the license for hot-path rewrites: optimisations
// must leave every fingerprint untouched, so "faster" can never silently
// mean "different".
//
// Regenerating after an *intentional* format change:
//   VGBL_GOLDEN_PRINT=1 ./build/tests/codec_golden_test
// prints the replacement kGolden, kGoldenPixels and kShapeGolden tables;
// paste them below and say why in the commit message.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gen/generator.hpp"
#include "video/codec.hpp"
#include "video/synthetic.hpp"

namespace vgbl {
namespace {

std::vector<u64> corpus_seeds() {
  std::vector<u64> seeds;
  std::ifstream in(VGBL_GEN_SEEDS_PATH);
  EXPECT_TRUE(in.good()) << "missing " << VGBL_GEN_SEEDS_PATH;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream row(line);
    u64 seed = 0;
    if (row >> seed) seeds.push_back(seed);
  }
  EXPECT_GE(seeds.size(), 8u);
  return seeds;
}

/// Order-sensitive FNV-1a over the stream: frame count, then per frame the
/// keyframe flag, payload size and every encoded byte. Matches the hash
/// family the classroom/district determinism gates use.
u64 stream_fingerprint(const EncodedStream& stream) {
  u64 h = 14695981039346656037ULL;
  auto mix_byte = [&h](u8 b) {
    h ^= b;
    h *= 1099511628211ULL;
  };
  auto mix_u64 = [&mix_byte](u64 v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<u8>(v >> (i * 8)));
  };
  mix_u64(stream.frames.size());
  for (const EncodedFrame& f : stream.frames) {
    mix_byte(f.keyframe ? 1 : 0);
    mix_u64(f.data.size());
    for (u8 b : f.data) mix_byte(b);
  }
  return h;
}

/// Order-sensitive FNV-1a over decoded frames: frame count, then per frame
/// its width, height, pixel format and every pixel byte.
u64 pixels_fingerprint(const std::vector<Frame>& frames) {
  u64 h = 14695981039346656037ULL;
  auto mix_byte = [&h](u8 b) {
    h ^= b;
    h *= 1099511628211ULL;
  };
  auto mix_u64 = [&mix_byte](u64 v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<u8>(v >> (i * 8)));
  };
  mix_u64(frames.size());
  for (const Frame& f : frames) {
    mix_u64(static_cast<u64>(f.width()));
    mix_u64(static_cast<u64>(f.height()));
    mix_byte(static_cast<u8>(f.format()));
    for (u8 b : f.data()) mix_byte(b);
  }
  return h;
}

struct ModeArm {
  const char* name;
  CodecMode mode;
  int quality;
};

constexpr ModeArm kModes[] = {
    {"raw", CodecMode::kRaw, 16},      {"rle", CodecMode::kRle, 16},
    {"dct_q4", CodecMode::kDct, 4},    {"dct_q16", CodecMode::kDct, 16},
    {"dct_q32", CodecMode::kDct, 32},
};

/// The clip for a corpus seed reuses the generator's own corpus-derivation
/// functions, so the golden workload tracks the same frame-size/duration
/// distribution the fuzz corpus and PGO profile mix exercise.
std::vector<Frame> corpus_clip(u64 corpus_seed) {
  const gen::GenParams params = gen::corpus_course_params(corpus_seed, 0);
  const u64 clip_seed = gen::corpus_course_seed(corpus_seed, 0);
  const ClipSpec spec =
      make_demo_spec(2, params.frames_per_scene, params.frame_width,
                     params.frame_height, clip_seed);
  return generate_clip(spec).frames;
}

EncodedStream encode_arm(const std::vector<Frame>& frames, const ModeArm& arm) {
  CodecConfig config;
  config.mode = arm.mode;
  config.gop_size = 5;  // deliberately coprime-ish with the segment split
  config.quality = arm.quality;
  // A mid-clip forced keyframe pins the request_keyframe/segment path too.
  const std::vector<int> segments = {0, static_cast<int>(frames.size()) / 2};
  auto stream = encode_stream(frames, config, 24, segments);
  EXPECT_TRUE(stream.ok());
  return std::move(stream.value());
}

// Golden fingerprints of the encoder before its hot-path overhaul.
// One row per checked-in gen-corpus seed × mode arm.
struct GoldenRow {
  u64 seed;
  const char* mode;
  u64 fingerprint;
};

constexpr GoldenRow kGolden[] = {
    // clang-format off
    {7ULL, "raw", 291829674608740222ULL},
    {7ULL, "rle", 16978212059388848254ULL},
    {7ULL, "dct_q4", 7908243513596569497ULL},
    {7ULL, "dct_q16", 7471266570751553233ULL},
    {7ULL, "dct_q32", 10564893316024230709ULL},
    {99ULL, "raw", 17744059688242863237ULL},
    {99ULL, "rle", 7508087972087732148ULL},
    {99ULL, "dct_q4", 2718403122374266619ULL},
    {99ULL, "dct_q16", 11007494304336433794ULL},
    {99ULL, "dct_q32", 14708567124374317522ULL},
    {1234ULL, "raw", 1502083215366886060ULL},
    {1234ULL, "rle", 8553670533113667794ULL},
    {1234ULL, "dct_q4", 16060462057743083557ULL},
    {1234ULL, "dct_q16", 9256965344085343856ULL},
    {1234ULL, "dct_q32", 7695178403098781680ULL},
    {31337ULL, "raw", 5832277395269053682ULL},
    {31337ULL, "rle", 7054371777001110461ULL},
    {31337ULL, "dct_q4", 2890032196211618954ULL},
    {31337ULL, "dct_q16", 4860577883251592419ULL},
    {31337ULL, "dct_q32", 14637285625442479201ULL},
    {424242ULL, "raw", 12975630000476563207ULL},
    {424242ULL, "rle", 10752357256946098898ULL},
    {424242ULL, "dct_q4", 9611216131645578148ULL},
    {424242ULL, "dct_q16", 17021395891369140010ULL},
    {424242ULL, "dct_q32", 12244229323164526888ULL},
    {987654321ULL, "raw", 12742182563975655907ULL},
    {987654321ULL, "rle", 258345509256995213ULL},
    {987654321ULL, "dct_q4", 17279437010423048786ULL},
    {987654321ULL, "dct_q16", 6922408629304210655ULL},
    {987654321ULL, "dct_q32", 6379618655012900366ULL},
    {2718281828ULL, "raw", 14956694954759282746ULL},
    {2718281828ULL, "rle", 11250588965450070583ULL},
    {2718281828ULL, "dct_q4", 12931995038941532714ULL},
    {2718281828ULL, "dct_q16", 3906474941214408163ULL},
    {2718281828ULL, "dct_q32", 9772410678976897566ULL},
    {18446744073709551557ULL, "raw", 6655316524298214106ULL},
    {18446744073709551557ULL, "rle", 10927295904336384753ULL},
    {18446744073709551557ULL, "dct_q4", 17528405866424056622ULL},
    {18446744073709551557ULL, "dct_q16", 7238120873218861207ULL},
    {18446744073709551557ULL, "dct_q32", 4647344137756151544ULL},
    // clang-format on
};

// Golden fingerprints of the decoded pixels of the same streams, captured
// from the dense inverse DCT before the sparse reconstruction landed. One
// row per gen-corpus seed × mode arm.
constexpr GoldenRow kGoldenPixels[] = {
    // clang-format off
    {7ULL, "raw", 14141188859797489296ULL},
    {7ULL, "rle", 14141188859797489296ULL},
    {7ULL, "dct_q4", 7840018598416578210ULL},
    {7ULL, "dct_q16", 14455791820840887914ULL},
    {7ULL, "dct_q32", 17547270908731460383ULL},
    {99ULL, "raw", 9526268647072224722ULL},
    {99ULL, "rle", 9526268647072224722ULL},
    {99ULL, "dct_q4", 10368243833912186470ULL},
    {99ULL, "dct_q16", 7157599289963951335ULL},
    {99ULL, "dct_q32", 5114164364249254060ULL},
    {1234ULL, "raw", 15088947578956699182ULL},
    {1234ULL, "rle", 15088947578956699182ULL},
    {1234ULL, "dct_q4", 11497281937605084635ULL},
    {1234ULL, "dct_q16", 16075886864114388331ULL},
    {1234ULL, "dct_q32", 4876199904614640984ULL},
    {31337ULL, "raw", 16928822882088297457ULL},
    {31337ULL, "rle", 16928822882088297457ULL},
    {31337ULL, "dct_q4", 1981826063158527842ULL},
    {31337ULL, "dct_q16", 14286809663061680843ULL},
    {31337ULL, "dct_q32", 11980536080687471558ULL},
    {424242ULL, "raw", 4785754205056908041ULL},
    {424242ULL, "rle", 4785754205056908041ULL},
    {424242ULL, "dct_q4", 17419490582038894264ULL},
    {424242ULL, "dct_q16", 18136713613092403098ULL},
    {424242ULL, "dct_q32", 11940778146883363763ULL},
    {987654321ULL, "raw", 8237392177348538541ULL},
    {987654321ULL, "rle", 8237392177348538541ULL},
    {987654321ULL, "dct_q4", 15861688001067615096ULL},
    {987654321ULL, "dct_q16", 8309397432770206173ULL},
    {987654321ULL, "dct_q32", 11331903967089634271ULL},
    {2718281828ULL, "raw", 17522723725433452487ULL},
    {2718281828ULL, "rle", 17522723725433452487ULL},
    {2718281828ULL, "dct_q4", 1754164738608850703ULL},
    {2718281828ULL, "dct_q16", 7496160558865784662ULL},
    {2718281828ULL, "dct_q32", 17204460859418638986ULL},
    {18446744073709551557ULL, "raw", 645592259941753342ULL},
    {18446744073709551557ULL, "rle", 645592259941753342ULL},
    {18446744073709551557ULL, "dct_q4", 17996273734466820230ULL},
    {18446744073709551557ULL, "dct_q16", 13184569248364387533ULL},
    {18446744073709551557ULL, "dct_q32", 5554136149428101010ULL},
    // clang-format on
};

// Shapes the corpus clips miss: every corpus clip is RGB, and 90 is the
// only side among them that is not a multiple of 8. These clips add the
// one-channel stride and blocks clipped at both the right and the bottom
// edge, for each DCT arm.
struct ShapeClip {
  const char* name;
  i32 width;
  i32 height;
  PixelFormat format;
  u64 seed;
};

constexpr ShapeClip kShapeClips[] = {
    {"gray8_90x66", 90, 66, PixelFormat::kGray8, 5},
    {"rgb24_99x75", 99, 75, PixelFormat::kRgb24, 11},
};

constexpr ModeArm kDctModes[] = {
    {"dct_q4", CodecMode::kDct, 4},
    {"dct_q16", CodecMode::kDct, 16},
    {"dct_q32", CodecMode::kDct, 32},
};

std::vector<Frame> shape_clip(const ShapeClip& clip) {
  const ClipSpec spec =
      make_demo_spec(2, 6, clip.width, clip.height, clip.seed);
  std::vector<Frame> frames = generate_clip(spec).frames;
  if (clip.format == PixelFormat::kGray8) {
    for (Frame& f : frames) f = f.to_gray();
  }
  return frames;
}

struct ShapeGoldenRow {
  const char* clip;
  const char* mode;
  u64 stream;
  u64 pixels;
};

// Captured from the codec before the DC-only reconstruction, the one-window
// exp-Golomb read and the outputs-inside DCT loops landed.
constexpr ShapeGoldenRow kShapeGolden[] = {
    // clang-format off
    {"gray8_90x66", "dct_q4", 3831067639659118682ULL, 1151859734497432731ULL},
    {"gray8_90x66", "dct_q16", 3581085524950022601ULL, 11335519834115055585ULL},
    {"gray8_90x66", "dct_q32", 12091694198756477205ULL, 696973776525106649ULL},
    {"rgb24_99x75", "dct_q4", 1987235525338660873ULL, 16033523764343500894ULL},
    {"rgb24_99x75", "dct_q16", 6415856226457221541ULL, 1372315707455301157ULL},
    {"rgb24_99x75", "dct_q32", 9798393689443203047ULL, 10833212161765804340ULL},
    // clang-format on
};

TEST(CodecGoldenTest, BitstreamFingerprintsAreStable) {
  const bool print = std::getenv("VGBL_GOLDEN_PRINT") != nullptr;
  std::map<std::pair<u64, std::string>, u64> expected;
  for (const GoldenRow& row : kGolden) {
    expected[{row.seed, row.mode}] = row.fingerprint;
  }
  if (!print) {
    ASSERT_FALSE(expected.empty())
        << "kGolden is empty — regenerate with VGBL_GOLDEN_PRINT=1";
  }

  for (const u64 seed : corpus_seeds()) {
    const std::vector<Frame> frames = corpus_clip(seed);
    ASSERT_FALSE(frames.empty());
    for (const ModeArm& arm : kModes) {
      const EncodedStream stream = encode_arm(frames, arm);
      const u64 got = stream_fingerprint(stream);
      if (print) {
        std::printf("    {%lluULL, \"%s\", %lluULL},\n",
                    static_cast<unsigned long long>(seed), arm.name,
                    static_cast<unsigned long long>(got));
        continue;
      }
      const auto it = expected.find({seed, arm.name});
      ASSERT_NE(it, expected.end())
          << "no golden fingerprint for seed " << seed << " mode " << arm.name
          << " — new corpus seed? regenerate with VGBL_GOLDEN_PRINT=1";
      EXPECT_EQ(got, it->second)
          << "bitstream changed for seed " << seed << " mode " << arm.name
          << " — the encoder no longer emits byte-identical output";
    }
  }
}

/// Both decode entry points — `decode_stream` (batch) and per-frame
/// `Decoder::decode` (the playback pipeline's path) — must reproduce the
/// pinned pixels of every corpus stream.
TEST(CodecGoldenTest, DecodedPixelFingerprintsAreStable) {
  const bool print = std::getenv("VGBL_GOLDEN_PRINT") != nullptr;
  std::map<std::pair<u64, std::string>, u64> expected;
  for (const GoldenRow& row : kGoldenPixels) {
    expected[{row.seed, row.mode}] = row.fingerprint;
  }
  if (print) std::printf("    // kGoldenPixels\n");

  for (const u64 seed : corpus_seeds()) {
    const std::vector<Frame> frames = corpus_clip(seed);
    ASSERT_FALSE(frames.empty());
    for (const ModeArm& arm : kModes) {
      const EncodedStream stream = encode_arm(frames, arm);
      auto batch = decode_stream(stream);
      ASSERT_TRUE(batch.ok()) << seed << " " << arm.name;
      std::vector<Frame> per_frame;
      Decoder decoder;
      for (const EncodedFrame& f : stream.frames) {
        auto frame = decoder.decode(f.data);
        ASSERT_TRUE(frame.ok()) << seed << " " << arm.name;
        per_frame.push_back(std::move(frame.value()));
      }
      const u64 got = pixels_fingerprint(batch.value());
      EXPECT_EQ(pixels_fingerprint(per_frame), got)
          << "per-frame and batch decode disagree for seed " << seed
          << " mode " << arm.name;
      if (print) {
        std::printf("    {%lluULL, \"%s\", %lluULL},\n",
                    static_cast<unsigned long long>(seed), arm.name,
                    static_cast<unsigned long long>(got));
        continue;
      }
      const auto it = expected.find({seed, arm.name});
      ASSERT_NE(it, expected.end())
          << "no pixel fingerprint for seed " << seed << " mode " << arm.name
          << " — new corpus seed? regenerate with VGBL_GOLDEN_PRINT=1";
      EXPECT_EQ(got, it->second)
          << "decoded pixels changed for seed " << seed << " mode "
          << arm.name << " — reconstruction is no longer bit-exact";
    }
  }
}

/// The shape clips pin both the bitstream and the decoded pixels, through
/// both decode entry points.
TEST(CodecGoldenTest, ShapeFingerprintsAreStable) {
  const bool print = std::getenv("VGBL_GOLDEN_PRINT") != nullptr;
  std::map<std::pair<std::string, std::string>, ShapeGoldenRow> expected;
  for (const ShapeGoldenRow& row : kShapeGolden) {
    expected[{row.clip, row.mode}] = row;
  }
  if (print) std::printf("    // kShapeGolden\n");

  for (const ShapeClip& clip : kShapeClips) {
    const std::vector<Frame> frames = shape_clip(clip);
    ASSERT_FALSE(frames.empty());
    ASSERT_EQ(frames[0].format(), clip.format);
    for (const ModeArm& arm : kDctModes) {
      const EncodedStream stream = encode_arm(frames, arm);
      auto batch = decode_stream(stream);
      ASSERT_TRUE(batch.ok()) << clip.name << " " << arm.name;
      std::vector<Frame> per_frame;
      Decoder decoder;
      for (const EncodedFrame& f : stream.frames) {
        auto frame = decoder.decode(f.data);
        ASSERT_TRUE(frame.ok()) << clip.name << " " << arm.name;
        per_frame.push_back(std::move(frame.value()));
      }
      const u64 got_stream = stream_fingerprint(stream);
      const u64 got_pixels = pixels_fingerprint(batch.value());
      EXPECT_EQ(pixels_fingerprint(per_frame), got_pixels)
          << "per-frame and batch decode disagree for " << clip.name << " "
          << arm.name;
      if (print) {
        std::printf("    {\"%s\", \"%s\", %lluULL, %lluULL},\n", clip.name,
                    arm.name, static_cast<unsigned long long>(got_stream),
                    static_cast<unsigned long long>(got_pixels));
        continue;
      }
      const auto it = expected.find({clip.name, arm.name});
      ASSERT_NE(it, expected.end())
          << "no shape fingerprint for " << clip.name << " " << arm.name;
      EXPECT_EQ(got_stream, it->second.stream)
          << "bitstream changed for " << clip.name << " " << arm.name;
      EXPECT_EQ(got_pixels, it->second.pixels)
          << "decoded pixels changed for " << clip.name << " " << arm.name;
    }
  }
}

/// Decoding the golden streams must still round-trip: raw/rle losslessly,
/// dct within the PSNR floor — so a fingerprint match can't hide a decoder
/// that no longer understands its own bitstream.
TEST(CodecGoldenTest, GoldenStreamsStillDecode) {
  const std::vector<u64> seeds = corpus_seeds();
  ASSERT_FALSE(seeds.empty());
  const std::vector<Frame> frames = corpus_clip(seeds[0]);
  for (const ModeArm& arm : kModes) {
    const EncodedStream stream = encode_arm(frames, arm);
    auto decoded = decode_stream(stream);
    ASSERT_TRUE(decoded.ok()) << arm.name;
    ASSERT_EQ(decoded.value().size(), frames.size()) << arm.name;
    for (size_t i = 0; i < frames.size(); ++i) {
      if (arm.mode == CodecMode::kDct) {
        EXPECT_GE(psnr(frames[i], decoded.value()[i]), 24.0)
            << arm.name << " frame " << i;
      } else {
        EXPECT_EQ(decoded.value()[i], frames[i]) << arm.name << " frame " << i;
      }
    }
  }
}

}  // namespace
}  // namespace vgbl
