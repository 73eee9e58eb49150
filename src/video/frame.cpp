#include "video/frame.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace vgbl {

Frame::Frame(i32 width, i32 height, PixelFormat format, Color fill_color)
    : width_(std::max(0, width)),
      height_(std::max(0, height)),
      format_(format),
      data_(static_cast<size_t>(std::max(0, width)) *
            static_cast<size_t>(std::max(0, height)) *
            static_cast<size_t>(format)) {
  // The buffer starts zeroed, which is already black in either format.
  if (!data_.empty() && fill_color != colors::kBlack) fill(fill_color);
}

Color Frame::pixel(i32 x, i32 y) const {
  if (format_ == PixelFormat::kGray8) {
    const u8 v = at(x, y, 0);
    return {v, v, v};
  }
  return {at(x, y, 0), at(x, y, 1), at(x, y, 2)};
}

void Frame::set_pixel(i32 x, i32 y, Color c) {
  if (format_ == PixelFormat::kGray8) {
    set(x, y, 0, c.luma());
    return;
  }
  set(x, y, 0, c.r);
  set(x, y, 1, c.g);
  set(x, y, 2, c.b);
}

void Frame::blend_pixel(i32 x, i32 y, Color c, u8 alpha) {
  if (alpha == 255) {
    set_pixel(x, y, c);
    return;
  }
  if (alpha == 0) return;
  const Color base = pixel(x, y);
  set_pixel(x, y, base.lerp(c, static_cast<f64>(alpha) / 255.0));
}

void Frame::fill(Color c) { fill_rect(bounds(), c); }

void Frame::fill_rect(Rect r, Color c) {
  const Rect clip = r.intersection(bounds());
  if (clip.empty()) return;
  // Paint the first row, then copy it to the others.
  for (i32 x = clip.x; x < clip.right(); ++x) set_pixel(x, clip.y, c);
  const size_t row_bytes =
      static_cast<size_t>(clip.width) * static_cast<size_t>(channels());
  const u8* first = &data_[index(clip.x, clip.y, 0)];
  for (i32 y = clip.y + 1; y < clip.bottom(); ++y) {
    std::memcpy(&data_[index(clip.x, y, 0)], first, row_bytes);
  }
}

void Frame::draw_rect(Rect r, Color c) {
  const Rect clip = r.intersection(bounds());
  if (clip.empty()) return;
  for (i32 x = clip.x; x < clip.right(); ++x) {
    set_pixel(x, clip.y, c);
    set_pixel(x, clip.bottom() - 1, c);
  }
  for (i32 y = clip.y; y < clip.bottom(); ++y) {
    set_pixel(clip.x, y, c);
    set_pixel(clip.right() - 1, y, c);
  }
}

void Frame::fill_gradient(Rect r, Color top, Color bottom) {
  const Rect clip = r.intersection(bounds());
  if (clip.empty() || r.height <= 0) return;
  for (i32 y = clip.y; y < clip.bottom(); ++y) {
    const f64 t = static_cast<f64>(y - r.y) / static_cast<f64>(r.height);
    const Color row = top.lerp(bottom, std::clamp(t, 0.0, 1.0));
    for (i32 x = clip.x; x < clip.right(); ++x) {
      set_pixel(x, y, row);
    }
  }
}

void Frame::fill_circle(Point center, i32 radius, Color c) {
  const Rect box{center.x - radius, center.y - radius, 2 * radius + 1,
                 2 * radius + 1};
  const Rect clip = box.intersection(bounds());
  const i64 r2 = static_cast<i64>(radius) * radius;
  for (i32 y = clip.y; y < clip.bottom(); ++y) {
    for (i32 x = clip.x; x < clip.right(); ++x) {
      const i64 dx = x - center.x;
      const i64 dy = y - center.y;
      if (dx * dx + dy * dy <= r2) set_pixel(x, y, c);
    }
  }
}

void Frame::blit(const Frame& src, Point at) {
  const Rect dst = Rect{at.x, at.y, src.width(), src.height()}.intersection(bounds());
  if (dst.empty()) return;
  if (src.format_ == format_ && &src != this) {
    // Same layout: each clipped row is one contiguous copy.
    const size_t row_bytes =
        static_cast<size_t>(dst.width) * static_cast<size_t>(channels());
    for (i32 y = dst.y; y < dst.bottom(); ++y) {
      std::memcpy(&data_[index(dst.x, y, 0)],
                  &src.data_[src.index(dst.x - at.x, y - at.y, 0)], row_bytes);
    }
    return;
  }
  // Cross-format (or self) blits convert pixel by pixel.
  for (i32 y = dst.y; y < dst.bottom(); ++y) {
    for (i32 x = dst.x; x < dst.right(); ++x) {
      set_pixel(x, y, src.pixel(x - at.x, y - at.y));
    }
  }
}

Frame Frame::to_gray() const {
  if (format_ == PixelFormat::kGray8) return *this;
  Frame out(width_, height_, PixelFormat::kGray8);
  for (i32 y = 0; y < height_; ++y) {
    for (i32 x = 0; x < width_; ++x) {
      out.set(x, y, 0, pixel(x, y).luma());
    }
  }
  return out;
}

std::vector<f64> Frame::luma_histogram(int bins) const {
  std::vector<f64> hist(static_cast<size_t>(bins), 0.0);
  if (empty() || bins <= 0) return hist;
  const bool gray = format_ == PixelFormat::kGray8;
  i64 count = 0;
  for (i32 y = 0; y < height_; ++y) {
    for (i32 x = 0; x < width_; ++x) {
      const u8 v = gray ? at(x, y, 0) : pixel(x, y).luma();
      ++hist[static_cast<size_t>(v) * static_cast<size_t>(bins) / 256];
      ++count;
    }
  }
  for (auto& h : hist) h /= static_cast<f64>(count);
  return hist;
}

std::vector<f64> Frame::color_histogram(int bins_per_channel) const {
  std::vector<f64> hist(static_cast<size_t>(bins_per_channel) * 3, 0.0);
  if (empty() || bins_per_channel <= 0) return hist;
  const size_t b = static_cast<size_t>(bins_per_channel);
  i64 count = 0;
  for (i32 y = 0; y < height_; ++y) {
    for (i32 x = 0; x < width_; ++x) {
      const Color c = pixel(x, y);
      ++hist[static_cast<size_t>(c.r) * b / 256];
      ++hist[b + static_cast<size_t>(c.g) * b / 256];
      ++hist[2 * b + static_cast<size_t>(c.b) * b / 256];
      count += 3;
    }
  }
  for (auto& h : hist) h /= static_cast<f64>(count);
  return hist;
}

Color Frame::mean_color() const {
  if (empty()) return {};
  u64 sum[3] = {0, 0, 0};
  for (i32 y = 0; y < height_; ++y) {
    for (i32 x = 0; x < width_; ++x) {
      const Color c = pixel(x, y);
      sum[0] += c.r;
      sum[1] += c.g;
      sum[2] += c.b;
    }
  }
  const u64 n = static_cast<u64>(width_) * static_cast<u64>(height_);
  return {static_cast<u8>(sum[0] / n), static_cast<u8>(sum[1] / n),
          static_cast<u8>(sum[2] / n)};
}

f64 psnr(const Frame& a, const Frame& b) {
  if (a.size() != b.size() || a.format() != b.format() || a.empty()) return 0;
  const auto da = a.data();
  const auto db = b.data();
  f64 mse = 0;
  for (size_t i = 0; i < da.size(); ++i) {
    const f64 d = static_cast<f64>(da[i]) - static_cast<f64>(db[i]);
    mse += d * d;
  }
  mse /= static_cast<f64>(da.size());
  if (mse == 0) return 1e9;
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

f64 mean_abs_diff(const Frame& a, const Frame& b) {
  if (a.size() != b.size() || a.format() != b.format() || a.empty()) return 255;
  const auto da = a.data();
  const auto db = b.data();
  f64 acc = 0;
  for (size_t i = 0; i < da.size(); ++i) {
    acc += std::abs(static_cast<f64>(da[i]) - static_cast<f64>(db[i]));
  }
  return acc / static_cast<f64>(da.size());
}

}  // namespace vgbl
