// Resettable countdown latch; `ThreadPool::parallel_for_chunks` waits on one.
#pragma once

#include <condition_variable>

#include "util/thread_annotations.hpp"
#include "util/types.hpp"

namespace vgbl {

/// Like std::latch but resettable, so pipeline stages can reuse one
/// instance per frame.
class CountdownLatch {
 public:
  explicit CountdownLatch(i64 count) : count_(count) {}

  void count_down(i64 n = 1) VGBL_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    count_ -= n;
    if (count_ <= 0) cv_.notify_all();
  }

  void wait() VGBL_EXCLUDES(mutex_) {
    UniqueLock lock(mutex_);
    while (count_ > 0) {
      cv_.wait(lock);
    }
  }

  void reset(i64 count) VGBL_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    count_ = count;
  }

 private:
  Mutex mutex_;
  std::condition_variable_any cv_;
  i64 count_ VGBL_GUARDED_BY(mutex_);
};

}  // namespace vgbl
