// Codec tests: lossless round-trips for RAW/RLE modes, quality bounds for
// DCT, GOP/keyframe mechanics, and corruption handling.
#include <gtest/gtest.h>

#include "util/bytes.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "video/codec.hpp"
#include "video/synthetic.hpp"

namespace vgbl {
namespace {

std::vector<Frame> test_frames(int count, i32 w = 64, i32 h = 48,
                               u64 seed = 3) {
  ClipSpec spec = make_demo_spec(1, count, w, h, seed);
  return generate_clip(spec).frames;
}

Frame random_frame(i32 w, i32 h, PixelFormat format, Rng& rng) {
  Frame f(w, h, format);
  for (auto& v : f.data()) v = static_cast<u8>(rng.next());
  return f;
}

// --- Lossless modes ----------------------------------------------------------

struct LosslessCase {
  CodecMode mode;
  int gop;
  i32 w, h;
  PixelFormat format;
};

class LosslessRoundTrip : public ::testing::TestWithParam<LosslessCase> {};

TEST_P(LosslessRoundTrip, ExactReconstruction) {
  const auto& p = GetParam();
  Rng rng(17);
  // Mix of synthetic (compressible) and random (incompressible) frames.
  std::vector<Frame> frames;
  for (const auto& f : test_frames(4, p.w, p.h)) {
    if (p.format == PixelFormat::kGray8) {
      frames.push_back(f.to_gray());
    } else {
      frames.push_back(f);
    }
  }
  frames.push_back(random_frame(p.w, p.h, p.format, rng));
  frames.push_back(random_frame(p.w, p.h, p.format, rng));

  CodecConfig config;
  config.mode = p.mode;
  config.gop_size = p.gop;
  auto stream = encode_stream(frames, config);
  ASSERT_TRUE(stream.ok());
  auto decoded = decode_stream(stream.value());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().size(), frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(decoded.value()[i], frames[i]) << "frame " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, LosslessRoundTrip,
    ::testing::Values(
        LosslessCase{CodecMode::kRaw, 4, 32, 24, PixelFormat::kRgb24},
        LosslessCase{CodecMode::kRle, 1, 32, 24, PixelFormat::kRgb24},
        LosslessCase{CodecMode::kRle, 4, 32, 24, PixelFormat::kRgb24},
        LosslessCase{CodecMode::kRle, 12, 64, 48, PixelFormat::kRgb24},
        LosslessCase{CodecMode::kRle, 4, 31, 17, PixelFormat::kRgb24},
        LosslessCase{CodecMode::kRle, 4, 32, 24, PixelFormat::kGray8},
        LosslessCase{CodecMode::kRaw, 2, 8, 8, PixelFormat::kGray8}));

// --- DCT quality ----------------------------------------------------------------

class DctQualityTest : public ::testing::TestWithParam<int> {};

TEST_P(DctQualityTest, PsnrAboveFloor) {
  const int quality = GetParam();
  const auto frames = test_frames(6, 64, 48);
  CodecConfig config;
  config.mode = CodecMode::kDct;
  config.gop_size = 3;
  config.quality = quality;
  auto stream = encode_stream(frames, config);
  ASSERT_TRUE(stream.ok());
  auto decoded = decode_stream(stream.value());
  ASSERT_TRUE(decoded.ok());
  // Finer quantisation must beat this conservative floor.
  const f64 floor = quality <= 4 ? 38.0 : quality <= 16 ? 30.0 : 24.0;
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_GE(psnr(frames[i], decoded.value()[i]), floor)
        << "frame " << i << " quality " << quality;
  }
}

INSTANTIATE_TEST_SUITE_P(Qualities, DctQualityTest,
                         ::testing::Values(1, 4, 16, 32, 64));

TEST(DctTest, FinerQualityIsMoreFaithfulAndBigger) {
  const auto frames = test_frames(4);
  auto encode_at = [&](int q) {
    CodecConfig config;
    config.mode = CodecMode::kDct;
    config.gop_size = 4;
    config.quality = q;
    return encode_stream(frames, config).value();
  };
  const auto fine = encode_at(2);
  const auto coarse = encode_at(48);
  EXPECT_GT(fine.total_bytes(), coarse.total_bytes());
  const f64 fine_psnr =
      psnr(frames[3], decode_stream(fine).value()[3]);
  const f64 coarse_psnr =
      psnr(frames[3], decode_stream(coarse).value()[3]);
  EXPECT_GT(fine_psnr, coarse_psnr);
}

TEST(DctTest, NoDriftAcrossLongGop) {
  // Closed-loop prediction: frame 30 of a GOP must not degrade vs frame 2.
  const auto frames = test_frames(32, 48, 32);
  CodecConfig config;
  config.mode = CodecMode::kDct;
  config.gop_size = 32;
  config.quality = 8;
  auto decoded = decode_stream(encode_stream(frames, config).value()).value();
  const f64 early = psnr(frames[2], decoded[2]);
  const f64 late = psnr(frames[30], decoded[30]);
  EXPECT_GT(late, early - 3.0) << "decoder drift detected";
}

TEST(DctTest, NonMultipleOf8Dimensions) {
  const auto frames = test_frames(3, 50, 37);
  CodecConfig config;
  config.mode = CodecMode::kDct;
  config.quality = 8;
  auto decoded = decode_stream(encode_stream(frames, config).value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value()[0].size(), (Size{50, 37}));
  EXPECT_GT(psnr(frames[0], decoded.value()[0]), 28.0);
}

// --- Compression behaviour --------------------------------------------------------

TEST(CompressionTest, RleBeatsRawOnSyntheticContent) {
  const auto frames = test_frames(6);
  CodecConfig raw;
  raw.mode = CodecMode::kRaw;
  CodecConfig rle;
  rle.mode = CodecMode::kRle;
  rle.gop_size = 6;
  const u64 raw_bytes = encode_stream(frames, raw).value().total_bytes();
  const u64 rle_bytes = encode_stream(frames, rle).value().total_bytes();
  EXPECT_LT(rle_bytes, raw_bytes);
}

TEST(CompressionTest, DctBeatsRleOnSyntheticContent) {
  const auto frames = test_frames(6);
  CodecConfig rle;
  rle.mode = CodecMode::kRle;
  rle.gop_size = 6;
  CodecConfig dct;
  dct.mode = CodecMode::kDct;
  dct.gop_size = 6;
  dct.quality = 16;
  const u64 rle_bytes = encode_stream(frames, rle).value().total_bytes();
  const u64 dct_bytes = encode_stream(frames, dct).value().total_bytes();
  EXPECT_LT(dct_bytes, rle_bytes);
}

TEST(CompressionTest, InterFramesSmallerThanIntra) {
  // Temporal prediction pays off: P-frames of slow content are much
  // smaller than I-frames.
  const auto frames = test_frames(8);
  CodecConfig config;
  config.mode = CodecMode::kRle;
  config.gop_size = 8;
  const auto stream = encode_stream(frames, config).value();
  ASSERT_TRUE(stream.frames[0].keyframe);
  ASSERT_FALSE(stream.frames[1].keyframe);
  EXPECT_LT(stream.frames[1].data.size(), stream.frames[0].data.size());
}

// --- GOP / keyframes -----------------------------------------------------------------

TEST(GopTest, KeyframeEveryGopSize) {
  const auto frames = test_frames(10);
  CodecConfig config;
  config.mode = CodecMode::kRle;
  config.gop_size = 4;
  const auto stream = encode_stream(frames, config).value();
  for (size_t i = 0; i < stream.frames.size(); ++i) {
    EXPECT_EQ(stream.frames[i].keyframe, i % 4 == 0) << "frame " << i;
  }
}

TEST(GopTest, SegmentStartsForceKeyframes) {
  const auto frames = test_frames(12);
  CodecConfig config;
  config.mode = CodecMode::kRle;
  config.gop_size = 100;  // no natural keyframes in range
  const auto stream =
      encode_stream(frames, config, 24, /*segment_starts=*/{0, 5, 9}).value();
  EXPECT_TRUE(stream.frames[0].keyframe);
  EXPECT_TRUE(stream.frames[5].keyframe);
  EXPECT_TRUE(stream.frames[9].keyframe);
  EXPECT_FALSE(stream.frames[1].keyframe);
  EXPECT_FALSE(stream.frames[6].keyframe);
}

TEST(GopTest, RequestKeyframeResetsCadence) {
  Encoder enc({CodecMode::kRle, 4, 0});
  const auto frames = test_frames(6);
  EXPECT_TRUE(enc.encode(frames[0]).value().keyframe);
  EXPECT_FALSE(enc.encode(frames[1]).value().keyframe);
  enc.request_keyframe();
  EXPECT_TRUE(enc.encode(frames[2]).value().keyframe);
  EXPECT_FALSE(enc.encode(frames[3]).value().keyframe);
}

// --- Error handling ----------------------------------------------------------------

TEST(CodecErrorTest, EmptyFrameRejected) {
  Encoder enc({CodecMode::kRle, 4, 0});
  EXPECT_FALSE(enc.encode(Frame{}).ok());
}

TEST(CodecErrorTest, DimensionChangeMidStreamRejected) {
  Encoder enc({CodecMode::kRle, 4, 0});
  EXPECT_TRUE(enc.encode(Frame::rgb(16, 16)).ok());
  EXPECT_FALSE(enc.encode(Frame::rgb(8, 8)).ok());
}

TEST(CodecErrorTest, CorruptPayloadDetectedByCrc) {
  Encoder enc({CodecMode::kDct, 4, 16});
  auto ef = enc.encode(test_frames(1)[0]).value();
  ef.data[ef.data.size() / 2] ^= 0xFF;  // flip payload bits
  Decoder dec;
  auto r = dec.decode(ef.data);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kCorruptData);
}

TEST(CodecErrorTest, TruncatedFrameFails) {
  Encoder enc({CodecMode::kRle, 4, 0});
  auto ef = enc.encode(test_frames(1)[0]).value();
  ef.data.resize(ef.data.size() / 2);
  Decoder dec;
  EXPECT_FALSE(dec.decode(ef.data).ok());
}

TEST(CodecErrorTest, GarbageIsRejectedNotCrashed) {
  Rng rng(5);
  Decoder dec;
  for (int i = 0; i < 50; ++i) {
    Bytes garbage(static_cast<size_t>(rng.below(200)));
    for (auto& b : garbage) b = static_cast<u8>(rng.next());
    EXPECT_FALSE(dec.decode(garbage).ok());
  }
}

TEST(CodecErrorTest, InterFrameWithoutReferenceFails) {
  Encoder enc({CodecMode::kRle, 4, 0});
  const auto frames = test_frames(2);
  (void)enc.encode(frames[0]);
  auto p_frame = enc.encode(frames[1]).value();
  ASSERT_FALSE(p_frame.keyframe);
  Decoder fresh;  // has no reference
  auto r = fresh.decode(p_frame.data);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kFailedPrecondition);
}

TEST(CodecErrorTest, EmptyStreamRejected) {
  EXPECT_FALSE(encode_stream({}, CodecConfig{}).ok());
}

// The payload CRC does not cover the frame header, so the decoder checks
// the header bytes it acts on. Offsets: magic, mode, type, format, quality.
constexpr size_t kHeaderTypeByte = 2;
constexpr size_t kHeaderQualityByte = 4;

// A type byte other than intra (0) or inter (1) is corrupt data, whatever
// the mode and whichever frame it replaces.
TEST(CodecErrorTest, UnknownFrameTypeRejected) {
  const auto frames = test_frames(2);
  for (CodecMode mode : {CodecMode::kRaw, CodecMode::kRle, CodecMode::kDct}) {
    Encoder enc({mode, 4, 16});
    const EncodedFrame key = enc.encode(frames[0]).value();
    const EncodedFrame inter = enc.encode(frames[1]).value();
    ASSERT_FALSE(inter.keyframe);
    for (const EncodedFrame* f : {&key, &inter}) {
      for (u8 type : {2, 7, 255}) {
        Decoder dec;
        ASSERT_TRUE(dec.decode(key.data).ok());  // the inter frame's reference
        Bytes bad = f->data;
        bad[kHeaderTypeByte] = type;
        auto r = dec.decode(bad);
        ASSERT_FALSE(r.ok()) << codec_mode_name(mode) << " type " << int{type};
        EXPECT_EQ(r.error().code, ErrorCode::kCorruptData);
      }
    }
  }
}

// The encoder writes DCT quality in [1, 255], so a DCT frame with quality 0
// is corrupt. Raw and RLE frames write 0 and still decode.
TEST(CodecErrorTest, DctQualityZeroInHeaderRejected) {
  const auto frame = test_frames(1)[0];
  Encoder dct({CodecMode::kDct, 4, 16});
  Bytes bad = dct.encode(frame).value().data;
  ASSERT_EQ(bad[kHeaderQualityByte], 16);
  bad[kHeaderQualityByte] = 0;
  Decoder dec;
  auto r = dec.decode(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kCorruptData);

  for (CodecMode mode : {CodecMode::kRaw, CodecMode::kRle}) {
    Encoder enc({mode, 4, 16});
    const EncodedFrame f = enc.encode(frame).value();
    ASSERT_EQ(f.data[kHeaderQualityByte], 0) << codec_mode_name(mode);
    Decoder fresh;
    EXPECT_TRUE(fresh.decode(f.data).ok()) << codec_mode_name(mode);
  }
}

// --- ISSUE 9 regressions -----------------------------------------------------

// quality is stored as one byte in the frame header; values outside [1,255]
// used to truncate silently (300 -> 44), desyncing the decoder's quantiser
// from the encoder's. Now they are rejected up front.
TEST(CodecErrorTest, DctQualityOutOfRangeRejected) {
  const auto frame = test_frames(1)[0];
  for (int quality : {0, -1, 256, 300, 1 << 20}) {
    Encoder enc({CodecMode::kDct, 4, quality});
    auto r = enc.encode(frame);
    ASSERT_FALSE(r.ok()) << "quality " << quality;
    EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument) << quality;
  }
  for (int quality : {1, 16, 255}) {
    Encoder enc({CodecMode::kDct, 4, quality});
    EXPECT_TRUE(enc.encode(frame).ok()) << "quality " << quality;
  }
  // Raw/RLE ignore quality entirely, so even nonsense values stay accepted
  // (existing callers construct RLE encoders with quality 0).
  Encoder rle({CodecMode::kRle, 4, 300});
  EXPECT_TRUE(rle.encode(frame).ok());
}

/// Builds a syntactically valid RLE intra frame around an arbitrary payload
/// (correct magic, header and CRC), so tests reach the RLE payload
/// validation itself rather than being stopped at the CRC gate.
Bytes wrap_rle_payload(i32 w, i32 h, std::span<const u8> payload) {
  ByteWriter wr(payload.size() + 32);
  wr.put_u8(0xF5);                                    // kFrameMagic
  wr.put_u8(static_cast<u8>(CodecMode::kRle));
  wr.put_u8(0);                                       // FrameType::kIntra
  wr.put_u8(static_cast<u8>(PixelFormat::kGray8));
  wr.put_u8(0);                                       // quality (unused)
  wr.put_varint(static_cast<u64>(w));
  wr.put_varint(static_cast<u64>(h));
  wr.put_u32(crc32(payload));
  wr.put_blob(payload);
  return std::move(wr).take();
}

TEST(RleRobustnessTest, DanglingRunByteRejected) {
  // 8 bytes of output then a run byte with no value byte.
  const Bytes payload = {8, 42, 7};
  Decoder dec;
  auto r = dec.decode(wrap_rle_payload(8, 1, payload));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kCorruptData);
}

TEST(RleRobustnessTest, ZeroLengthRunRejected) {
  const Bytes payload = {0, 42, 8, 42};
  Decoder dec;
  EXPECT_FALSE(dec.decode(wrap_rle_payload(8, 1, payload)).ok());
}

TEST(RleRobustnessTest, RunPastFrameEndRejected) {
  const Bytes payload = {9, 42};  // 9 bytes into an 8-pixel frame
  Decoder dec;
  EXPECT_FALSE(dec.decode(wrap_rle_payload(8, 1, payload)).ok());
}

TEST(RleRobustnessTest, ShortPayloadRejected) {
  const Bytes payload = {4, 42};  // only 4 of 8 pixels covered
  Decoder dec;
  EXPECT_FALSE(dec.decode(wrap_rle_payload(8, 1, payload)).ok());
}

// Property test: RLE must round-trip arbitrary content exactly — pure
// noise (worst case, all runs length 1), constant frames (single maximal
// runs), and noisy-with-plateaus frames in both pixel formats.
TEST(RleRobustnessTest, RoundTripsArbitraryContent) {
  Rng rng(99);
  for (int iter = 0; iter < 30; ++iter) {
    const i32 w = static_cast<i32>(1 + rng.below(40));
    const i32 h = static_cast<i32>(1 + rng.below(30));
    const auto format =
        rng.chance(0.5) ? PixelFormat::kGray8 : PixelFormat::kRgb24;
    Frame f(w, h, format);
    const int flavour = static_cast<int>(rng.below(3));
    for (auto& v : f.data()) {
      if (flavour == 0) {
        v = static_cast<u8>(rng.next());  // noise
      } else if (flavour == 1) {
        v = 7;  // constant: one run per 255 bytes
      } else {
        v = rng.chance(0.9) ? 0 : static_cast<u8>(rng.next());  // plateaus
      }
    }
    Encoder enc({CodecMode::kRle, 4, 0});
    Decoder dec;
    auto ef = enc.encode(f);
    ASSERT_TRUE(ef.ok()) << iter;
    auto r = dec.decode(ef.value().data);
    ASSERT_TRUE(r.ok()) << iter;
    EXPECT_EQ(r.value(), f) << iter;
  }
}

// encode_stream used to skip unsorted/duplicate/out-of-range segment
// starts silently, dropping the keyframes the caller asked for. They are
// contract violations now.
TEST(CodecErrorTest, InvalidSegmentStartsRejected) {
  const auto frames = test_frames(8);
  CodecConfig config;
  config.mode = CodecMode::kRle;
  const std::vector<std::vector<int>> bad = {
      {8},      // == frame count (out of range)
      {-1},     // negative
      {3, 3},   // duplicate
      {5, 2},   // unsorted
      {0, 99},  // second entry out of range
  };
  for (const auto& segments : bad) {
    auto r = encode_stream(frames, config, 24, segments);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
  }
  EXPECT_TRUE(encode_stream(frames, config, 24, {0, 3, 7}).ok());
}

// --- Batch decode ------------------------------------------------------------

TEST(DecodeBatchTest, MatchesPerFrameDecode) {
  const auto frames = test_frames(13);
  for (CodecMode mode : {CodecMode::kRaw, CodecMode::kRle, CodecMode::kDct}) {
    CodecConfig config;
    config.mode = mode;
    config.gop_size = 5;
    config.quality = 16;
    const auto stream = encode_stream(frames, config).value();

    Decoder per_frame;
    std::vector<Frame> expected;
    for (const auto& ef : stream.frames) {
      expected.push_back(per_frame.decode(ef.data).value());
    }

    Decoder batched;
    std::vector<Frame> got;
    ASSERT_TRUE(batched.decode_batch(std::span(stream.frames), got).ok());
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << codec_mode_name(mode) << " " << i;
    }
  }
}

TEST(DecodeBatchTest, ErrorKeepsValidPrefixAndReference) {
  const auto frames = test_frames(9);
  CodecConfig config;
  config.mode = CodecMode::kDct;
  config.gop_size = 9;
  auto stream = encode_stream(frames, config).value();
  stream.frames[5].data[stream.frames[5].data.size() / 2] ^= 0xFF;

  Decoder dec;
  std::vector<Frame> got;
  auto st = dec.decode_batch(std::span(stream.frames), got);
  ASSERT_FALSE(st.ok());
  ASSERT_EQ(got.size(), 5u);  // frames 0..4 decoded before the bad frame

  // The reference is the last good frame, exactly like per-frame decode:
  // frame 6 (an inter frame) still predicts from it.
  auto next = dec.decode(stream.frames[6].data);
  ASSERT_TRUE(next.ok());
}

TEST(DecodeBatchTest, AppendsToExistingOutput) {
  const auto frames = test_frames(6);
  CodecConfig config;
  config.mode = CodecMode::kRle;
  config.gop_size = 3;
  const auto stream = encode_stream(frames, config).value();

  Decoder dec;
  std::vector<Frame> out;
  const std::span<const EncodedFrame> all(stream.frames);
  ASSERT_TRUE(dec.decode_batch(all.subspan(0, 3), out).ok());
  ASSERT_TRUE(dec.decode_batch(all.subspan(3), out).ok());
  ASSERT_EQ(out.size(), frames.size());
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], frames[i]) << i;
}

TEST(CodecTest, ModeNames) {
  EXPECT_STREQ(codec_mode_name(CodecMode::kRaw), "raw");
  EXPECT_STREQ(codec_mode_name(CodecMode::kRle), "rle");
  EXPECT_STREQ(codec_mode_name(CodecMode::kDct), "dct");
}

}  // namespace
}  // namespace vgbl
