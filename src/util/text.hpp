// Small string utilities shared by the text project format, logging and
// report generation.
#pragma once

#include <charconv>
#include <concepts>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace vgbl {

/// Splits on a single character; empty fields are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Removes leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Joins parts with `sep` between consecutive elements.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// Escapes a string for embedding in the JSON-subset text format.
[[nodiscard]] std::string escape_json(std::string_view s);

/// Left-pads/truncates to exactly `width` columns (used by ASCII UI).
[[nodiscard]] std::string pad_right(std::string_view s, size_t width);

/// printf-style float formatting with fixed precision.
[[nodiscard]] std::string format_double(double v, int precision);

/// Human-readable byte count, e.g. "12.4 KiB".
[[nodiscard]] std::string format_bytes(std::uint64_t n);

/// An integer's decimal text (what std::to_string prints) held in place,
/// for building a line from pieces without a heap string. The view lives
/// as long as this object, so pass it as a temporary within one call.
class DecimalText {
 public:
  template <std::integral T>
  explicit DecimalText(T v)
      : size_(static_cast<size_t>(
            std::to_chars(buf_, buf_ + sizeof buf_, v).ptr - buf_)) {}
  [[nodiscard]] std::string_view view() const { return {buf_, size_}; }
  operator std::string_view() const { return view(); }  // NOLINT

 private:
  char buf_[24];
  size_t size_;
};

/// Appends `pieces` to `out` back to back.
inline void append_pieces(std::string& out,
                          std::initializer_list<std::string_view> pieces) {
  for (std::string_view p : pieces) out.append(p);
}

/// Strings kept back to back in one buffer, each found again through a
/// fixed-width Ref, so recording a string appends to the buffer instead of
/// allocating one. The session's event log, the score ledger and the
/// learning tracker keep their text this way. Refs hold u32 offsets: a
/// buffer holds at most 4 GiB (see fits).
class TextBuffer {
 public:
  struct Ref {
    u32 offset = 0;
    u32 length = 0;
  };

  /// Appends `pieces` back to back as one string. Two appends in a row
  /// are adjacent, so their Refs join into one.
  Ref append(std::initializer_list<std::string_view> pieces) {
    const size_t start = text_.size();
    append_pieces(text_, pieces);
    return {static_cast<u32>(start), static_cast<u32>(text_.size() - start)};
  }
  /// The string `ref` locates; valid until the next append or clear.
  [[nodiscard]] std::string_view view(Ref ref) const {
    return std::string_view(text_).substr(ref.offset, ref.length);
  }
  void reserve(size_t bytes) { text_.reserve(bytes); }
  void clear() { text_.clear(); }

  /// Whether `bytes` of text fit one buffer's u32 offsets.
  [[nodiscard]] static bool fits(u64 bytes) {
    return bytes <= std::numeric_limits<u32>::max();
  }

 private:
  std::string text_;
};

}  // namespace vgbl
