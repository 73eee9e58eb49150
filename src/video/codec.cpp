#include "video/codec.hpp"

#include <algorithm>

#include "util/bitstream.hpp"
#include "util/crc32.hpp"
#include "video/dct.hpp"

namespace vgbl {
namespace {

enum class FrameType : u8 { kIntra = 0, kInter = 1 };

constexpr u8 kFrameMagic = 0xF5;

/// Run-length encodes raw bytes as (run, value) pairs, runs capped at 255.
void rle_encode(std::span<const u8> data, Bytes& out) {
  out.clear();
  out.reserve(data.size() / 4 + 16);
  size_t i = 0;
  while (i < data.size()) {
    const u8 v = data[i];
    size_t run = 1;
    while (i + run < data.size() && data[i + run] == v && run < 255) ++run;
    out.push_back(static_cast<u8>(run));
    out.push_back(v);
    i += run;
  }
}

Status rle_decode(std::span<const u8> in, std::span<u8> out) {
  size_t oi = 0;
  size_t ii = 0;
  while (ii < in.size()) {
    if (ii + 2 > in.size()) return corrupt_data("rle: dangling run byte");
    const u8 run = in[ii];
    const u8 value = in[ii + 1];
    ii += 2;
    if (run == 0) return corrupt_data("rle: zero-length run");
    if (oi + run > out.size()) return corrupt_data("rle: output overflow");
    std::fill_n(out.begin() + static_cast<std::ptrdiff_t>(oi), run, value);
    oi += run;
  }
  if (oi != out.size()) return corrupt_data("rle: output underflow");
  return {};
}

/// Encodes one quantised block: DC then (zero-run, level) AC pairs with an
/// EOB sentinel (run==63 cannot precede a 64th coefficient). Returns
/// whether any coefficient is nonzero.
bool encode_block(BitWriter& bw, const QuantBlock& q) {
  const auto& zz = zigzag_order();
  bw.put_se(q[zz[0]]);
  bool nonzero = q[zz[0]] != 0;
  int run = 0;
  for (int i = 1; i < kDctBlockArea; ++i) {
    const i32 level = q[zz[i]];
    if (level == 0) {
      ++run;
      continue;
    }
    bw.put_ue(static_cast<u32>(run));
    bw.put_se(level);
    run = 0;
    nonzero = true;
  }
  bw.put_ue(63);  // end of block
  return nonzero;
}

/// Decodes one block into `q`; the value says whether any coefficient is
/// nonzero (AC levels are never zero, so that is DC != 0 or any AC pair).
[[nodiscard]] Result<bool> decode_block(BitReader& br, QuantBlock& q) {
  const auto& zz = zigzag_order();
  q.fill(0);
  auto dc = br.se();
  if (!dc.ok()) return dc.error();
  q[zz[0]] = dc.value();
  int pos = 1;
  while (pos < kDctBlockArea) {
    auto run = br.ue();
    if (!run.ok()) return run.error();
    if (run.value() == 63) return dc.value() != 0 || pos > 1;  // EOB
    pos += static_cast<int>(run.value());
    if (pos >= kDctBlockArea) return corrupt_data("dct: run past block end");
    auto level = br.se();
    if (!level.ok()) return level.error();
    if (level.value() == 0) return corrupt_data("dct: zero AC level");
    q[zz[pos]] = level.value();
    ++pos;
  }
  // Full block: still expect the EOB sentinel for framing consistency.
  auto eob = br.ue();
  if (!eob.ok()) return eob.error();
  if (eob.value() != 63) return corrupt_data("dct: missing EOB");
  return true;
}

/// Gathers one 8×8 block of centred (intra) or residual (inter) samples.
/// Interior blocks walk raw row pointers; only edge blocks pay the clamped
/// per-pixel path (pixel replication, unchanged).
void gather_block(const Frame& cur, const Frame* ref, int c, i32 bx, i32 by,
                  DctBlock& spatial) {
  const i32 w = cur.width();
  const i32 h = cur.height();
  const int ch = cur.channels();
  const i32 x0 = bx * kDctBlockSize;
  const i32 y0 = by * kDctBlockSize;
  if (x0 + kDctBlockSize <= w && y0 + kDctBlockSize <= h) {
    const u8* cb = cur.data().data();
    const u8* rb = ref ? ref->data().data() : nullptr;
    const size_t stride = cur.stride();
    for (int yy = 0; yy < kDctBlockSize; ++yy) {
      const size_t base = static_cast<size_t>(y0 + yy) * stride +
                          static_cast<size_t>(x0) * static_cast<size_t>(ch) +
                          static_cast<size_t>(c);
      const u8* crow = cb + base;
      f32* out = &spatial[static_cast<size_t>(yy) * kDctBlockSize];
      if (rb) {
        const u8* rrow = rb + base;
        for (int xx = 0; xx < kDctBlockSize; ++xx) {
          out[xx] = static_cast<f32>(crow[xx * ch]) -
                    static_cast<f32>(rrow[xx * ch]);
        }
      } else {
        for (int xx = 0; xx < kDctBlockSize; ++xx) {
          out[xx] = static_cast<f32>(crow[xx * ch]) - 128.0f;
        }
      }
    }
    return;
  }
  for (int yy = 0; yy < kDctBlockSize; ++yy) {
    for (int xx = 0; xx < kDctBlockSize; ++xx) {
      const i32 x = std::min<i32>(x0 + xx, w - 1);
      const i32 y = std::min<i32>(y0 + yy, h - 1);
      f32 v = static_cast<f32>(cur.at(x, y, c));
      if (ref) {
        v -= static_cast<f32>(ref->at(x, y, c));
      } else {
        v -= 128.0f;
      }
      spatial[yy * kDctBlockSize + xx] = v;
    }
  }
}

/// Scatters a reconstructed block back into `dst` (adding the prediction).
/// Shared by the encoder's closed loop and the decoder so both sides run
/// the identical rounding path.
void scatter_block(Frame& dst, const Frame* ref, int c, i32 bx, i32 by,
                   const DctBlock& spatial) {
  const i32 w = dst.width();
  const i32 h = dst.height();
  const int ch = dst.channels();
  const i32 x0 = bx * kDctBlockSize;
  const i32 y0 = by * kDctBlockSize;
  if (x0 + kDctBlockSize <= w && y0 + kDctBlockSize <= h) {
    u8* db = dst.data().data();
    const u8* rb = ref ? ref->data().data() : nullptr;
    const size_t stride = dst.stride();
    for (int yy = 0; yy < kDctBlockSize; ++yy) {
      const size_t base = static_cast<size_t>(y0 + yy) * stride +
                          static_cast<size_t>(x0) * static_cast<size_t>(ch) +
                          static_cast<size_t>(c);
      u8* drow = db + base;
      const f32* in = &spatial[static_cast<size_t>(yy) * kDctBlockSize];
      if (rb) {
        const u8* rrow = rb + base;
        for (int xx = 0; xx < kDctBlockSize; ++xx) {
          drow[xx * ch] =
              round_clamp_u8(in[xx] + static_cast<f32>(rrow[xx * ch]));
        }
      } else {
        for (int xx = 0; xx < kDctBlockSize; ++xx) {
          drow[xx * ch] = round_clamp_u8(in[xx] + 128.0f);
        }
      }
    }
    return;
  }
  for (int yy = 0; yy < kDctBlockSize; ++yy) {
    for (int xx = 0; xx < kDctBlockSize; ++xx) {
      const i32 x = x0 + xx;
      const i32 y = y0 + yy;
      if (x >= w || y >= h) continue;
      f32 v = spatial[yy * kDctBlockSize + xx];
      if (ref) {
        v += static_cast<f32>(ref->at(x, y, c));
      } else {
        v += 128.0f;
      }
      dst.set(x, y, c, round_clamp_u8(v));
    }
  }
}

/// DCT-codes `current` (optionally as a residual against `reference`) and
/// writes the reconstruction into `recon` (reused across frames).
Bytes dct_encode(const Frame& current, const Frame* reference,
                 const QuantTable& qt, Frame& recon) {
  const i32 w = current.width();
  const i32 h = current.height();
  const int channels = current.channels();
  const i32 bw_blocks = (w + kDctBlockSize - 1) / kDctBlockSize;
  const i32 bh_blocks = (h + kDctBlockSize - 1) / kDctBlockSize;

  BitWriter bits;
  DctBlock spatial, freq;
  QuantBlock q;

  // An inter reconstruction starts as the prediction, which is exactly what
  // a zero residual reconstructs to (round_clamp_u8(±0 + p) == p), so those
  // blocks are skipped. Otherwise scatter_block writes every valid pixel, so
  // a right-sized scratch frame can be reused without clearing.
  if (reference != nullptr) {
    recon = *reference;
  } else if (recon.size() != current.size() ||
             recon.format() != current.format()) {
    recon = Frame(w, h, current.format());
  }

  for (int c = 0; c < channels; ++c) {
    for (i32 by = 0; by < bh_blocks; ++by) {
      for (i32 bx = 0; bx < bw_blocks; ++bx) {
        gather_block(current, reference, c, bx, by, spatial);
        forward_dct(spatial, freq);
        quantize(freq, qt, q);
        const bool nonzero = encode_block(bits, q);
        if (reference != nullptr && !nonzero) continue;

        // Closed-loop reconstruction so the encoder reference matches the
        // decoder exactly.
        dequantize(q, qt, freq);
        inverse_dct(freq, spatial);
        scatter_block(recon, reference, c, bx, by, spatial);
      }
    }
  }
  return std::move(bits).finish();
}

/// Decodes a DCT payload into `out`. For an inter frame `out` must already
/// hold a copy of `reference`: zero-residual blocks are left as they are,
/// exactly as the encoder's closed loop leaves them.
Status dct_decode(std::span<const u8> payload, const Frame* reference,
                  const QuantTable& qt, Frame& out) {
  const i32 w = out.width();
  const i32 h = out.height();
  const int channels = out.channels();
  const i32 bw_blocks = (w + kDctBlockSize - 1) / kDctBlockSize;
  const i32 bh_blocks = (h + kDctBlockSize - 1) / kDctBlockSize;

  BitReader bits(payload);
  DctBlock spatial, freq;
  QuantBlock q;

  for (int c = 0; c < channels; ++c) {
    for (i32 by = 0; by < bh_blocks; ++by) {
      for (i32 bx = 0; bx < bw_blocks; ++bx) {
        auto nonzero = decode_block(bits, q);
        if (!nonzero.ok()) return nonzero.error();
        if (reference != nullptr && !nonzero.value()) continue;
        dequantize(q, qt, freq);
        inverse_dct(freq, spatial);
        scatter_block(out, reference, c, bx, by, spatial);
      }
    }
  }
  return {};
}

EncodedFrame wrap_frame(CodecMode mode, FrameType type, const Frame& frame,
                        int quality, std::span<const u8> payload) {
  ByteWriter w(payload.size() + 32);
  w.put_u8(kFrameMagic);
  w.put_u8(static_cast<u8>(mode));
  w.put_u8(static_cast<u8>(type));
  w.put_u8(static_cast<u8>(frame.format()));
  w.put_u8(static_cast<u8>(quality));
  w.put_varint(static_cast<u64>(frame.width()));
  w.put_varint(static_cast<u64>(frame.height()));
  w.put_u32(crc32(payload));
  w.put_blob(payload);
  EncodedFrame out;
  out.keyframe = type == FrameType::kIntra;
  out.data = std::move(w).take();
  return out;
}

/// Frame header plus a non-owning view of the checked payload.
struct ParsedFrame {
  CodecMode mode = CodecMode::kRaw;
  FrameType type = FrameType::kIntra;
  PixelFormat format = PixelFormat::kRgb24;
  int quality = 0;
  i32 width = 0;
  i32 height = 0;
  std::span<const u8> payload;
};

/// Parses and validates a frame header. The payload stays a view into
/// `data` — no copy — so `data` must outlive the returned struct.
[[nodiscard]] Result<ParsedFrame> parse_frame(std::span<const u8> data) {
  ByteReader r(data);
  auto magic = r.u8_();
  if (!magic.ok() || magic.value() != kFrameMagic) {
    return corrupt_data("bad frame magic");
  }
  auto mode_b = r.u8_();
  auto type_b = r.u8_();
  auto fmt_b = r.u8_();
  auto quality_b = r.u8_();
  auto width_v = r.varint();
  auto height_v = r.varint();
  auto crc_v = r.u32_();
  auto len_v = r.varint();
  if (!mode_b.ok() || !type_b.ok() || !fmt_b.ok() || !quality_b.ok() ||
      !width_v.ok() || !height_v.ok() || !crc_v.ok() || !len_v.ok()) {
    return corrupt_data("truncated frame header");
  }
  auto payload_v = r.view(static_cast<size_t>(len_v.value()));
  if (!payload_v.ok()) return corrupt_data("truncated frame header");
  if (mode_b.value() > static_cast<u8>(CodecMode::kDct)) {
    return corrupt_data("unknown codec mode");
  }
  if (fmt_b.value() != static_cast<u8>(PixelFormat::kGray8) &&
      fmt_b.value() != static_cast<u8>(PixelFormat::kRgb24)) {
    return corrupt_data("unknown pixel format");
  }
  ParsedFrame f;
  f.mode = static_cast<CodecMode>(mode_b.value());
  f.type = static_cast<FrameType>(type_b.value());
  f.format = static_cast<PixelFormat>(fmt_b.value());
  f.quality = quality_b.value();
  f.width = static_cast<i32>(width_v.value());
  f.height = static_cast<i32>(height_v.value());
  if (f.width <= 0 || f.height <= 0 ||
      static_cast<u64>(f.width) * static_cast<u64>(f.height) > 64u << 20) {
    return corrupt_data("implausible frame dimensions");
  }
  f.payload = payload_v.value();
  if (crc32(f.payload) != crc_v.value()) {
    return corrupt_data("frame payload CRC mismatch");
  }
  return f;
}

/// Decodes a parsed frame into `out` (allocated here if needed). `ref` is
/// the previous decoded frame or nullptr at a prediction-chain start.
Status decode_parsed(const ParsedFrame& f, const Frame* ref, Frame& out,
                     Bytes& rle_scratch) {
  const bool inter = f.type == FrameType::kInter;
  if (inter && f.mode != CodecMode::kRaw) {
    if (!ref || ref->size() != Size{f.width, f.height} ||
        ref->format() != f.format) {
      return failed_precondition("inter frame without matching reference");
    }
  }

  if (inter && f.mode == CodecMode::kDct) {
    out = *ref;  // the prediction dct_decode refines block by block
  } else if (out.size() != Size{f.width, f.height} || out.format() != f.format) {
    out = Frame(f.width, f.height, f.format);
  }
  switch (f.mode) {
    case CodecMode::kRaw: {
      if (f.payload.size() != out.data().size()) {
        return corrupt_data("raw payload size mismatch");
      }
      std::copy(f.payload.begin(), f.payload.end(), out.data().begin());
      break;
    }
    case CodecMode::kRle: {
      if (!inter) {
        if (auto st = rle_decode(f.payload, out.data()); !st.ok()) return st;
      } else {
        rle_scratch.resize(out.data().size());
        if (auto st = rle_decode(f.payload, rle_scratch); !st.ok()) return st;
        const auto rd = ref->data();
        auto dst = out.data();
        for (size_t i = 0; i < dst.size(); ++i) {
          dst[i] = static_cast<u8>(rd[i] + rle_scratch[i]);
        }
      }
      break;
    }
    case CodecMode::kDct: {
      const Frame* pred = inter ? ref : nullptr;
      if (auto st = dct_decode(f.payload, pred, quant_table(f.quality), out);
          !st.ok()) {
        return st;
      }
      break;
    }
  }
  return {};
}

}  // namespace

const char* codec_mode_name(CodecMode mode) {
  switch (mode) {
    case CodecMode::kRaw:
      return "raw";
    case CodecMode::kRle:
      return "rle";
    case CodecMode::kDct:
      return "dct";
  }
  return "?";
}

Result<EncodedFrame> Encoder::encode(const Frame& frame) {
  if (frame.empty()) return invalid_argument("cannot encode empty frame");
  if (config_.mode == CodecMode::kDct &&
      (config_.quality < 1 || config_.quality > 255)) {
    return invalid_argument("dct quality out of range [1, 255]");
  }
  if (!stream_format_) {
    stream_format_ = frame.format();
    stream_size_ = frame.size();
  } else if (frame.format() != *stream_format_ || frame.size() != stream_size_) {
    return invalid_argument("frame dimensions/format changed mid-stream");
  }

  const bool intra = force_keyframe_ || !reference_ ||
                     (config_.gop_size > 0 &&
                      frames_since_key_ >= config_.gop_size - 1);
  force_keyframe_ = false;

  EncodedFrame out = intra ? encode_intra(frame) : encode_inter(frame);
  frames_since_key_ = intra ? 0 : frames_since_key_ + 1;
  return out;
}

EncodedFrame Encoder::encode_intra(const Frame& frame) {
  switch (config_.mode) {
    case CodecMode::kRaw: {
      reference_ = frame;
      return wrap_frame(config_.mode, FrameType::kIntra, frame, 0,
                        frame.data());
    }
    case CodecMode::kRle: {
      reference_ = frame;
      rle_encode(frame.data(), rle_scratch_);
      return wrap_frame(config_.mode, FrameType::kIntra, frame, 0,
                        rle_scratch_);
    }
    case CodecMode::kDct: {
      Bytes payload = dct_encode(frame, nullptr, quant_table(config_.quality),
                                 recon_scratch_);
      // Swap instead of move: the displaced reference becomes next frame's
      // right-sized scratch.
      if (!reference_) reference_.emplace();
      std::swap(*reference_, recon_scratch_);
      return wrap_frame(config_.mode, FrameType::kIntra, frame,
                        config_.quality, payload);
    }
  }
  return {};
}

EncodedFrame Encoder::encode_inter(const Frame& frame) {
  switch (config_.mode) {
    case CodecMode::kRaw: {
      reference_ = frame;
      return wrap_frame(config_.mode, FrameType::kInter, frame, 0,
                        frame.data());
    }
    case CodecMode::kRle: {
      // Temporal delta (mod-256) then RLE: static regions collapse to long
      // zero runs. Lossless because subtraction is exactly invertible.
      const auto cur = frame.data();
      const auto ref = reference_->data();
      diff_scratch_.resize(cur.size());
      for (size_t i = 0; i < cur.size(); ++i) {
        diff_scratch_[i] = static_cast<u8>(cur[i] - ref[i]);
      }
      reference_ = frame;
      rle_encode(diff_scratch_, rle_scratch_);
      return wrap_frame(config_.mode, FrameType::kInter, frame, 0,
                        rle_scratch_);
    }
    case CodecMode::kDct: {
      Bytes payload = dct_encode(frame, &*reference_,
                                 quant_table(config_.quality), recon_scratch_);
      std::swap(*reference_, recon_scratch_);
      return wrap_frame(config_.mode, FrameType::kInter, frame,
                        config_.quality, payload);
    }
  }
  return {};
}

Result<Frame> Decoder::decode(std::span<const u8> data) {
  auto pf = parse_frame(data);
  if (!pf.ok()) return pf.error();
  const Frame* ref = reference_ ? &*reference_ : nullptr;
  Frame out;
  if (auto st = decode_parsed(pf.value(), ref, out, rle_scratch_); !st.ok()) {
    return st.error();
  }
  reference_ = out;
  return out;
}

Status Decoder::decode_batch(std::span<const std::span<const u8>> frames,
                             std::vector<Frame>& out) {
  // Reserve up front: `ref` points into `out` while the batch runs, so the
  // vector must not reallocate mid-loop.
  out.reserve(out.size() + frames.size());
  const Frame* ref = reference_ ? &*reference_ : nullptr;
  size_t decoded = 0;
  Status result;
  for (const auto& data : frames) {
    auto pf = parse_frame(data);
    if (!pf.ok()) {
      result = pf.error();
      break;
    }
    out.emplace_back();
    if (auto st = decode_parsed(pf.value(), ref, out.back(), rle_scratch_);
        !st.ok()) {
      out.pop_back();
      result = st;
      break;
    }
    ref = &out.back();
    ++decoded;
  }
  if (decoded > 0) reference_ = out.back();
  return result;
}

Status Decoder::decode_batch(std::span<const EncodedFrame> frames,
                             std::vector<Frame>& out) {
  std::vector<std::span<const u8>> datas;
  datas.reserve(frames.size());
  for (const EncodedFrame& f : frames) datas.push_back(f.data);
  return decode_batch(datas, out);
}

Result<EncodedStream> encode_stream(const std::vector<Frame>& frames,
                                    const CodecConfig& config, int fps,
                                    const std::vector<int>& segment_starts) {
  if (frames.empty()) return invalid_argument("no frames to encode");
  for (size_t i = 0; i < segment_starts.size(); ++i) {
    const int s = segment_starts[i];
    if (s < 0 || static_cast<size_t>(s) >= frames.size()) {
      return invalid_argument("segment start out of range");
    }
    if (i > 0 && s <= segment_starts[i - 1]) {
      return invalid_argument("segment starts must be strictly increasing");
    }
  }
  EncodedStream stream;
  stream.config = config;
  stream.width = frames[0].width();
  stream.height = frames[0].height();
  stream.format = frames[0].format();
  stream.fps = fps;

  Encoder enc(config);
  size_t next_boundary = 0;
  for (size_t i = 0; i < frames.size(); ++i) {
    if (next_boundary < segment_starts.size() &&
        static_cast<size_t>(segment_starts[next_boundary]) == i) {
      enc.request_keyframe();
      ++next_boundary;
    }
    auto ef = enc.encode(frames[i]);
    if (!ef.ok()) return ef.error();
    stream.frames.push_back(std::move(ef.value()));
  }
  return stream;
}

Result<std::vector<Frame>> decode_stream(const EncodedStream& stream) {
  Decoder dec;
  std::vector<Frame> out;
  if (auto st = dec.decode_batch(std::span(stream.frames), out); !st.ok()) {
    return st.error();
  }
  return out;
}

}  // namespace vgbl
