// Tests for the concurrency substrate: bounded queue, SPSC ring, thread
// pool / parallel_for, latch and double buffer.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

#include "concurrency/bounded_queue.hpp"
#include "concurrency/latch.hpp"
#include "concurrency/spsc_ring.hpp"
#include "concurrency/thread_pool.hpp"

namespace vgbl {
namespace {

// --- BoundedQueue --------------------------------------------------------------

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(10);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop(), i);
}

TEST(BoundedQueueTest, TryPushRespectsCapacity) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.size(), 2u);
}

TEST(BoundedQueueTest, CloseWakesConsumers) {
  BoundedQueue<int> q(4);
  std::thread consumer([&] {
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), std::nullopt);  // closed + drained
  });
  q.push(1);
  q.close();
  consumer.join();
}

TEST(BoundedQueueTest, CloseRejectsProducers) {
  BoundedQueue<int> q(4);
  q.close();
  EXPECT_FALSE(q.push(1));
  EXPECT_FALSE(q.try_push(1));
}

TEST(BoundedQueueTest, DrainsAfterClose) {
  BoundedQueue<int> q(4);
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedQueueTest, BlockingPushUnblocksOnPop) {
  BoundedQueue<int> q(1);
  q.push(0);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.push(1);  // blocks until the consumer pops
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.pop(), 0);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop(), 1);
}

TEST(BoundedQueueTest, MpmcStressConservesItems) {
  BoundedQueue<int> q(16);
  constexpr int kProducers = 3;
  constexpr int kItemsEach = 500;
  std::atomic<i64> sum{0};
  std::atomic<int> received{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kItemsEach; ++i) q.push(p * kItemsEach + i);
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        sum += *v;
        ++received;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<size_t>(p)].join();
  q.close();
  threads[3].join();
  threads[4].join();

  const i64 expected =
      static_cast<i64>(kProducers) * kItemsEach * (kProducers * kItemsEach - 1) / 2;
  EXPECT_EQ(received.load(), kProducers * kItemsEach);
  EXPECT_EQ(sum.load(), expected);
}

// --- SpscRing -------------------------------------------------------------------

TEST(SpscRingTest, CapacityRoundedUp) {
  SpscRing<int> ring(5);
  EXPECT_GE(ring.capacity(), 5u);
}

TEST(SpscRingTest, PushPopOrder) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 7; ++i) EXPECT_TRUE(ring.try_push(i));
  for (int i = 0; i < 7; ++i) EXPECT_EQ(ring.try_pop(), i);
  EXPECT_EQ(ring.try_pop(), std::nullopt);
}

TEST(SpscRingTest, FullRejectsPush) {
  SpscRing<int> ring(2);
  size_t pushed = 0;
  while (ring.try_push(1)) ++pushed;
  EXPECT_EQ(pushed, ring.capacity());
}

TEST(SpscRingTest, ConcurrentStreamPreservesSequence) {
  SpscRing<int> ring(64);
  constexpr int kCount = 100000;
  std::thread producer([&] {
    for (int i = 0; i < kCount;) {
      if (ring.try_push(i)) ++i;
    }
  });
  int expected = 0;
  while (expected < kCount) {
    if (auto v = ring.try_pop()) {
      ASSERT_EQ(*v, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// --- ThreadPool ----------------------------------------------------------------

TEST(ThreadPoolTest, SubmitReturnsFutureValue) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 7 * 6; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](i64 i) { ++hits[static_cast<size_t>(i)]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(5, 5, [&](i64) { ++count; });
  pool.parallel_for(5, 3, [&](i64) { ++count; });
  EXPECT_EQ(count.load(), 0);
}

TEST(ThreadPoolTest, ParallelForChunksSeesWholeRange) {
  ThreadPool pool(2);
  std::atomic<i64> total{0};
  pool.parallel_for_chunks(
      0, 1000,
      [&](i64 lo, i64 hi) { total += (hi - lo); },
      64);
  EXPECT_EQ(total.load(), 1000);
}

TEST(ThreadPoolTest, ParallelForSum) {
  ThreadPool pool(4);
  std::atomic<i64> sum{0};
  pool.parallel_for(1, 10001, [&](i64 i) { sum += i; });
  EXPECT_EQ(sum.load(), 50005000);
}

TEST(ThreadPoolTest, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, [&](i64) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

// Regression: the helper that finished the last chunk used to signal a
// mutex and condition variable on the caller's stack after decrementing the
// shared counter, so a caller that saw the counter reach zero could return
// and free them mid-notify. Many tiny parallel_for calls on a small pool
// make that window likely; the completion state must outlive the caller.
TEST(ThreadPoolTest, ManyTinyParallelForsSurviveCallerReturn) {
  ThreadPool pool(2);
  std::atomic<i64> sum{0};
  constexpr int kCalls = 200'000;
  for (int call = 0; call < kCalls; ++call) {
    pool.parallel_for(
        0, 3, [&](i64 i) { sum.fetch_add(i, std::memory_order_relaxed); },
        /*grain=*/1);
  }
  EXPECT_EQ(sum.load(), 3LL * kCalls);
}

TEST(ThreadPoolTest, NestedSubmissionFromTask) {
  ThreadPool pool(2);
  auto outer = pool.submit([&pool] {
    auto inner = pool.submit([] { return 5; });
    return inner.get() + 1;
  });
  EXPECT_EQ(outer.get(), 6);
}

// --- CountdownLatch -----------------------------------------------------------

TEST(LatchTest, WaitReleasesAtZero) {
  CountdownLatch latch(3);
  std::thread t([&] {
    latch.count_down();
    latch.count_down();
    latch.count_down();
  });
  latch.wait();  // must return
  t.join();
}

TEST(LatchTest, ResetReuses) {
  CountdownLatch latch(1);
  latch.count_down();
  latch.wait();
  latch.reset(2);
  latch.count_down(2);
  latch.wait();
}

// --- DoubleBuffer ----------------------------------------------------------------

TEST(DoubleBufferTest, SnapshotSeesLatestPublish) {
  DoubleBuffer<int> buf;
  EXPECT_EQ(buf.version(), 0u);
  buf.publish(10);
  buf.publish(20);
  auto [value, version] = buf.snapshot();
  EXPECT_EQ(value, 20);
  EXPECT_EQ(version, 2u);
}

TEST(DoubleBufferTest, NoTornReadsUnderContention) {
  // Publish pairs (i, i); a torn read would observe mismatched halves.
  DoubleBuffer<std::pair<int, int>> buf;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      buf.publish({i, i});
    }
  });
  for (int i = 0; i < 100000; ++i) {
    auto [value, version] = buf.snapshot();
    ASSERT_EQ(value.first, value.second);
  }
  stop = true;
  writer.join();
}

}  // namespace
}  // namespace vgbl
