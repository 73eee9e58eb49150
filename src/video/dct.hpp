// 8×8 block DCT used by the lossy codec path. Forward transform takes
// centred pixel values (−128..127), quantises with a JPEG-style table scaled
// by a quality factor; the inverse reverses both steps. Encoder and decoder
// share these routines so the closed prediction loop stays bit-identical.
//
// Hot-path contract (ISSUE 9): every routine here is pinned bit-exact by
// tests/codec_golden_test.cpp. Optimisations must preserve the floating-
// point operation order of each output value — reorganising memory layout
// is fine, reassociating accumulations is not. One exception: a term that
// is exactly ±0 may be dropped from a sum (`inverse_dct` stops each sum
// after its last nonzero coefficient). Adding ±0 leaves a nonzero sum
// unchanged and can flip only the sign of a zero one, and every consumer
// rounds the result (`round_clamp_u8(±0 + p)` is the same pixel), so the
// reconstructed pixels and the bitstream stay identical.
#pragma once

#include <array>

#include "util/types.hpp"

namespace vgbl {

inline constexpr int kDctBlockSize = 8;
inline constexpr int kDctBlockArea = kDctBlockSize * kDctBlockSize;

using DctBlock = std::array<f32, kDctBlockArea>;       // spatial or frequency
using QuantBlock = std::array<i32, kDctBlockArea>;     // quantised coeffs

/// Zig-zag scan order mapping scan position -> block index.
[[nodiscard]] const std::array<int, kDctBlockArea>& zigzag_order();

/// Forward 8×8 type-II DCT (orthonormal).
void forward_dct(const DctBlock& spatial, DctBlock& freq);

/// Inverse 8×8 DCT. Cost scales with the extent of the nonzero
/// coefficients: a DC-only block takes one term per sum.
void inverse_dct(const DctBlock& freq, DctBlock& spatial);

/// Quantisation step for coefficient index `i` at `quality` (1 = finest,
/// larger = coarser). Derived from the JPEG luminance table.
[[nodiscard]] f32 quant_step(int index, int quality);

/// Per-quality step table. The frame header stores quality as one byte, so
/// every reachable quality has a cached table — computed once per process
/// instead of one `quant_step` call per coefficient per block.
struct QuantTable {
  std::array<f32, kDctBlockArea> step;
};

/// Cached table for `quality` (taken mod 256, matching the header byte).
/// Values are exactly `quant_step(i, quality)`. Thread-safe.
[[nodiscard]] const QuantTable& quant_table(int quality);

/// Quantises a frequency block: out[i] = round(freq[i] / step(i)).
void quantize(const DctBlock& freq, const QuantTable& table, QuantBlock& out);
void quantize(const DctBlock& freq, int quality, QuantBlock& out);

/// Dequantises back into a frequency block.
void dequantize(const QuantBlock& in, const QuantTable& table, DctBlock& freq);
void dequantize(const QuantBlock& in, int quality, DctBlock& freq);

/// Exact `std::lround(v)` (round half away from zero) without the libm
/// call. The f32 → f64 widening makes the +/−0.5 comparison exact, so the
/// result matches lroundf for every finite input the codec can produce.
[[nodiscard]] inline i32 round_half_away(f32 v) {
  const f64 d = static_cast<f64>(v);
  const i32 t = static_cast<i32>(d);  // truncation toward zero, exact
  const f64 frac = d - static_cast<f64>(t);
  if (frac >= 0.5) return t + 1;
  if (frac <= -0.5) return t - 1;
  return t;
}

/// Exact `clamp(lroundf(v), 0, 255)`: values that round negative clamp to
/// 0 on both paths, so truncating `v + 0.5` in f64 (exact — f32 inputs
/// gain headroom in f64) matches the old formula for every input.
[[nodiscard]] inline u8 round_clamp_u8(f32 v) {
  const f64 d = static_cast<f64>(v) + 0.5;
  if (d <= 0.0) return 0;
  if (d >= 256.0) return 255;
  return static_cast<u8>(static_cast<i32>(d));
}

}  // namespace vgbl
