// A vector of trivially copyable values that keeps its first N elements in
// place (on the caller's stack when it is a local) and moves to the heap
// only past that, for short per-call result lists on hot paths.
#pragma once

#include <array>
#include <cstddef>
#include <type_traits>
#include <vector>

namespace vgbl {

template <typename T, size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  void push_back(T value) {
    if (heap_.empty()) {
      if (size_ < N) {
        inline_[size_++] = value;
        return;
      }
      heap_.assign(inline_.begin(), inline_.end());
    }
    heap_.push_back(value);
    ++size_;
  }

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const T* data() const {
    return heap_.empty() ? inline_.data() : heap_.data();
  }
  [[nodiscard]] const T* begin() const { return data(); }
  [[nodiscard]] const T* end() const { return data() + size_; }
  const T& operator[](size_t i) const { return data()[i]; }

 private:
  std::array<T, N> inline_{};
  std::vector<T> heap_;  ///< every element, once there are more than N
  size_t size_ = 0;
};

}  // namespace vgbl
