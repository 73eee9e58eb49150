#include "concurrency/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "concurrency/latch.hpp"
#include "obs/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/wall_clock.hpp"

namespace vgbl {

namespace {

struct PoolMetrics {
  obs::Counter& tasks;
  obs::Counter& idle_us;
  obs::Gauge& queue_depth;

  static PoolMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static PoolMetrics m{
        reg.counter("pool_tasks_total", "tasks executed by pool workers"),
        reg.counter("pool_idle_us_total",
                    "wall time workers spent waiting for work"),
        reg.gauge("pool_queue_depth",
                  "tasks queued but not yet started (approximate)")};
    return m;
  }
};

}  // namespace

ThreadPool::ThreadPool(unsigned threads) : queue_(1024) {
  const unsigned n = std::max(1u, threads);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  queue_.close();
  for (auto& w : workers_) w.join();
}

void ThreadPool::note_submitted() {
  VGBL_GAUGE_ADD(PoolMetrics::get().queue_depth, 1);
}

void ThreadPool::worker_loop() {
  while (true) {
    std::optional<std::function<void()>> task;
    if (obs::enabled()) {
      const i64 idle_start_us = obs::wall_now_us();
      task = queue_.pop();
      auto& m = PoolMetrics::get();
      VGBL_COUNT(m.idle_us,
                 static_cast<u64>(obs::wall_now_us() - idle_start_us));
      if (task) {
        VGBL_GAUGE_ADD(m.queue_depth, -1);
        VGBL_COUNT(m.tasks);
      }
    } else {
      task = queue_.pop();
    }
    if (!task) return;
    (*task)();
  }
}

void ThreadPool::parallel_for_chunks(i64 begin, i64 end,
                                     const std::function<void(i64, i64)>& fn,
                                     i64 grain) {
  if (begin >= end) return;
  const i64 total = end - begin;
  if (grain <= 0) {
    grain = std::max<i64>(1, total / (static_cast<i64>(thread_count()) * 4));
  }
  const i64 chunks = (total + grain - 1) / grain;
  if (chunks <= 1) {
    fn(begin, end);
    return;
  }

  // The submitting thread steals chunks too, so progress is guaranteed even
  // if all workers are busy with unrelated tasks. Completion state lives in
  // storage every helper co-owns: the helper that finishes the last chunk
  // may still be inside count_down() when the caller wakes and returns.
  auto next = std::make_shared<std::atomic<i64>>(0);
  auto done = std::make_shared<CountdownLatch>(chunks);

  auto run_chunks = [=, &fn] {
    while (true) {
      const i64 c = next->fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const i64 lo = begin + c * grain;
      const i64 hi = std::min(end, lo + grain);
      fn(lo, hi);
      done->count_down();
    }
  };

  const i64 helpers =
      std::min<i64>(static_cast<i64>(thread_count()), chunks - 1);
  for (i64 i = 0; i < helpers; ++i) {
    if (queue_.try_push(run_chunks)) note_submitted();
  }
  run_chunks();
  done->wait();
}

void ThreadPool::parallel_for(i64 begin, i64 end,
                              const std::function<void(i64)>& fn, i64 grain) {
  parallel_for_chunks(
      begin, end,
      [&fn](i64 lo, i64 hi) {
        for (i64 i = lo; i < hi; ++i) fn(i);
      },
      grain);
}

}  // namespace vgbl
