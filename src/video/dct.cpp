#include "video/dct.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

namespace vgbl {
namespace {

/// Cosine basis C[k][n] = c(k) * cos((2n+1)kπ/16) plus its transpose,
/// precomputed once. The transpose gives the forward row pass its 8
/// outputs' basis values for one term contiguously.
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

/// out[i] += f · row[i] for the 8 outputs of one row or column. Each output
/// is its own accumulator, so the loop vectorises across outputs and never
/// reorders any one output's sum.
inline void add_term(f32 (&out)[kDctBlockSize], f32 f, const f32* row) {
  for (int i = 0; i < kDctBlockSize; ++i) out[i] += f * row[i];
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
  // Separable: rows then columns, each output summing its 8 products in
  // n = 0..7 order. Row pass: tmp[y][k] = Σn spatial[y][n]·c[k][n], the 8
  // outputs k of row y side by side (ct[n] holds c[k][n] for k = 0..7).
  f32 tmp[kDctBlockArea];
  for (int y = 0; y < kDctBlockSize; ++y) {
    const f32* row = &spatial[y * kDctBlockSize];
    f32 out[kDctBlockSize] = {};
    for (int n = 0; n < kDctBlockSize; ++n) add_term(out, row[n], b.ct[n]);
    std::copy_n(out, kDctBlockSize, &tmp[y * kDctBlockSize]);
  }
  // Column pass: freq[k][x] = Σn tmp[n][x]·c[k][n], the 8 outputs x of
  // frequency row k side by side.
  for (int k = 0; k < kDctBlockSize; ++k) {
    const f32* ck = b.c[k];
    f32 out[kDctBlockSize] = {};
    for (int n = 0; n < kDctBlockSize; ++n) {
      add_term(out, ck[n], &tmp[n * kDctBlockSize]);
    }
    std::copy_n(out, kDctBlockSize, &freq[k * kDctBlockSize]);
  }
}

void inverse_dct(const DctBlock& freq, DctBlock& spatial) {
  const Basis& b = basis();
  // Column pass: tmp[x][n] = Σk freq[k][x]·c[k][n], the 8 outputs n of
  // column x side by side, stored transposed so the row pass reads them as
  // its terms. Quantised blocks are mostly zeros, so each sum stops after
  // its last nonzero term (see the hot-path contract in dct.hpp). `cols` is
  // one past the last column holding a nonzero coefficient: every spatial
  // row's sum has no nonzero term beyond it, which bounds the row pass.
  f32 tmp[kDctBlockArea];
  int cols = 0;
  for (int x = 0; x < kDctBlockSize; ++x) {
    int terms = 0;
    for (int k = 0; k < kDctBlockSize; ++k) {
      if (freq[k * kDctBlockSize + x] != 0.0f) terms = k + 1;
    }
    if (terms > 0) cols = x + 1;
    f32 out[kDctBlockSize] = {};
    for (int k = 0; k < terms; ++k) {
      add_term(out, freq[k * kDctBlockSize + x], b.c[k]);
    }
    std::copy_n(out, kDctBlockSize, &tmp[x * kDctBlockSize]);
  }
  // Row pass: spatial[y][n] = Σk tmp[k][y]·c[k][n] over k < cols, the 8
  // outputs n of row y side by side.
  for (int y = 0; y < kDctBlockSize; ++y) {
    f32 out[kDctBlockSize] = {};
    for (int k = 0; k < cols; ++k) {
      add_term(out, tmp[k * kDctBlockSize + y], b.c[k]);
    }
    std::copy_n(out, kDctBlockSize, &spatial[y * kDctBlockSize]);
  }
}

f32 dc_only_value(f32 dc) {
  // inverse_dct's two one-term sums: the column pass gives 0 + dc·s at
  // every n, the row pass 0 + (0 + dc·s)·s at every sample.
  const f32 s = basis().c[0][0];
  f32 column = 0.0f;
  column += dc * s;
  f32 sample = 0.0f;
  sample += column * s;
  return sample;
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
