#include "video/dct.hpp"

#include <cmath>
#include <memory>

namespace vgbl {
namespace {

/// Cosine basis C[k][n] = c(k) * cos((2n+1)kπ/16) plus its transpose,
/// precomputed once. The transpose gives the column passes a contiguous
/// inner loop without changing any accumulation order.
struct Basis {
  f32 c[kDctBlockSize][kDctBlockSize];   // c[k][n]
  f32 ct[kDctBlockSize][kDctBlockSize];  // ct[n][k] == c[k][n]
  Basis() {
    const f64 pi = 3.14159265358979323846;
    for (int k = 0; k < kDctBlockSize; ++k) {
      const f64 scale = k == 0 ? std::sqrt(1.0 / kDctBlockSize)
                               : std::sqrt(2.0 / kDctBlockSize);
      for (int n = 0; n < kDctBlockSize; ++n) {
        c[k][n] = static_cast<f32>(
            scale * std::cos((2 * n + 1) * k * pi / (2 * kDctBlockSize)));
        ct[n][k] = c[k][n];
      }
    }
  }
};

const Basis& basis() {
  static const Basis b;
  return b;
}

// JPEG Annex K luminance quantisation table (quality scaling applied on top).
constexpr int kBaseQuant[kDctBlockArea] = {
    16, 11, 10, 16, 24,  40,  51,  61,   //
    12, 12, 14, 19, 26,  58,  60,  55,   //
    14, 13, 16, 24, 40,  57,  69,  56,   //
    14, 17, 22, 29, 51,  87,  80,  62,   //
    18, 22, 37, 56, 68,  109, 103, 77,   //
    24, 35, 55, 64, 81,  104, 113, 92,   //
    49, 64, 78, 87, 103, 121, 120, 101,  //
    72, 92, 95, 98, 112, 100, 103, 99};

}  // namespace

const std::array<int, kDctBlockArea>& zigzag_order() {
  static const std::array<int, kDctBlockArea> order = [] {
    std::array<int, kDctBlockArea> o{};
    int idx = 0;
    for (int s = 0; s < 2 * kDctBlockSize - 1; ++s) {
      if (s % 2 == 0) {  // up-right
        for (int y = std::min(s, kDctBlockSize - 1);
             y >= 0 && s - y < kDctBlockSize; --y) {
          o[idx++] = y * kDctBlockSize + (s - y);
        }
      } else {  // down-left
        for (int x = std::min(s, kDctBlockSize - 1);
             x >= 0 && s - x < kDctBlockSize; --x) {
          o[idx++] = (s - x) * kDctBlockSize + x;
        }
      }
    }
    return o;
  }();
  return order;
}

void forward_dct(const DctBlock& spatial, DctBlock& freq) {
  const Basis& b = basis();
  // Separable: rows then columns. tmp is stored transposed (tmp[k][y]) so
  // the column pass reads contiguously; each output value still accumulates
  // its 8 products in the same n = 0..7 order as always.
  f32 tmp[kDctBlockArea];
  for (int y = 0; y < kDctBlockSize; ++y) {
    const f32* row = &spatial[y * kDctBlockSize];
    for (int k = 0; k < kDctBlockSize; ++k) {
      const f32* ck = b.c[k];
      f32 acc = 0;
      for (int n = 0; n < kDctBlockSize; ++n) acc += row[n] * ck[n];
      tmp[k * kDctBlockSize + y] = acc;
    }
  }
  for (int x = 0; x < kDctBlockSize; ++x) {
    const f32* col = &tmp[x * kDctBlockSize];  // former column x, contiguous
    for (int k = 0; k < kDctBlockSize; ++k) {
      const f32* ck = b.c[k];
      f32 acc = 0;
      for (int n = 0; n < kDctBlockSize; ++n) acc += col[n] * ck[n];
      freq[k * kDctBlockSize + x] = acc;
    }
  }
}

void inverse_dct(const DctBlock& freq, DctBlock& spatial) {
  const Basis& b = basis();
  f32 tmp[kDctBlockArea];
  // Quantised blocks are mostly zeros, so each sum stops after its last
  // nonzero term (see the hot-path contract in dct.hpp). `cols` is one past
  // the last column holding a nonzero coefficient: every tmp row is zero
  // beyond it, which bounds the row pass the same way.
  int cols = 0;
  for (int x = 0; x < kDctBlockSize; ++x) {
    // Gather column x once; the transposed basis keeps the k accumulation
    // (same k = 0..7 order) contiguous on both operands.
    f32 col[kDctBlockSize];
    int terms = 0;
    for (int k = 0; k < kDctBlockSize; ++k) {
      col[k] = freq[k * kDctBlockSize + x];
      if (col[k] != 0.0f) terms = k + 1;
    }
    if (terms > 0) cols = x + 1;
    for (int n = 0; n < kDctBlockSize; ++n) {
      const f32* ctn = b.ct[n];
      f32 acc = 0;
      for (int k = 0; k < terms; ++k) acc += col[k] * ctn[k];
      tmp[n * kDctBlockSize + x] = acc;
    }
  }
  for (int y = 0; y < kDctBlockSize; ++y) {
    const f32* row = &tmp[y * kDctBlockSize];
    for (int n = 0; n < kDctBlockSize; ++n) {
      const f32* ctn = b.ct[n];
      f32 acc = 0;
      for (int k = 0; k < cols; ++k) acc += row[k] * ctn[k];
      spatial[y * kDctBlockSize + n] = acc;
    }
  }
}

f32 quant_step(int index, int quality) {
  // quality 1 ≈ visually lossless, 16 ≈ JPEG default, 32+ coarse.
  const f32 scale = static_cast<f32>(quality) / 16.0f;
  const f32 step = static_cast<f32>(kBaseQuant[index]) * scale;
  return step < 1.0f ? 1.0f : step;
}

const QuantTable& quant_table(int quality) {
  // 256 tables × 64 steps × 4 bytes = 64 KiB, built once on first use
  // (thread-safe magic static). Indexing masks to the header-byte range so
  // decode-side lookups can never run off the array.
  static const auto tables = [] {
    auto t = std::make_unique<std::array<QuantTable, 256>>();
    for (int q = 0; q < 256; ++q) {
      for (int i = 0; i < kDctBlockArea; ++i) {
        (*t)[static_cast<size_t>(q)].step[static_cast<size_t>(i)] =
            quant_step(i, q);
      }
    }
    return t;
  }();
  return (*tables)[static_cast<size_t>(quality) & 0xFF];
}

void quantize(const DctBlock& freq, const QuantTable& table, QuantBlock& out) {
  // Same value as round(freq/quant_step): the cached step is the identical
  // f32, the division stays a division (a reciprocal would round
  // differently), and round_half_away is exactly lroundf.
  for (int i = 0; i < kDctBlockArea; ++i) {
    out[i] = round_half_away(freq[i] / table.step[static_cast<size_t>(i)]);
  }
}

void quantize(const DctBlock& freq, int quality, QuantBlock& out) {
  quantize(freq, quant_table(quality), out);
}

void dequantize(const QuantBlock& in, const QuantTable& table, DctBlock& freq) {
  for (int i = 0; i < kDctBlockArea; ++i) {
    freq[i] = static_cast<f32>(in[i]) * table.step[static_cast<size_t>(i)];
  }
}

void dequantize(const QuantBlock& in, int quality, DctBlock& freq) {
  dequantize(in, quant_table(quality), freq);
}

}  // namespace vgbl
