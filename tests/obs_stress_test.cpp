// Races-by-design for the observability subsystem, run under TSan via the
// `tsan` ctest label: scraping and exporting while worker threads hammer
// counters/gauges/histograms, trace snapshots taken while spans record,
// and the enable flag flipping mid-flight.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vgbl {
namespace {

TEST(ObsStress, ScrapeWhileIncrementing) {
  obs::MetricsRegistry reg;
  auto& counter = reg.counter("stress_ops_total");
  auto& gauge = reg.gauge("stress_level");
  auto& hist = reg.histogram("stress_ms", obs::exponential_buckets(0.1, 2, 10));
  obs::ScopedEnable on;

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 50'000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        counter.increment();
        gauge.add(1);
        gauge.add(-1);
        hist.observe(static_cast<f64>((t + i) % 100));
      }
    });
  }
  // Concurrent scrapes + exports: every intermediate reading must be
  // coherent (monotone counter, bucket counts summing to <= count).
  std::thread scraper([&] {
    u64 last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::MetricsSnapshot snap = reg.scrape();
      const auto* c = snap.find_counter("stress_ops_total");
      ASSERT_NE(c, nullptr);
      EXPECT_GE(c->value, last);
      last = c->value;
      (void)obs::to_prometheus(snap);
      (void)obs::to_json(snap);
    }
  });

  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();

  EXPECT_EQ(counter.value(), static_cast<u64>(kWriters) * kOpsPerWriter);
  EXPECT_EQ(hist.count(), static_cast<u64>(kWriters) * kOpsPerWriter);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(ObsStress, EnableFlipsWhileWritersRun) {
  obs::MetricsRegistry reg;
  auto& counter = reg.counter("stress_flip_total");
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) counter.increment();
    });
  }
  for (int i = 0; i < 200; ++i) {
    obs::set_enabled(i % 2 == 0);
    (void)reg.scrape();
  }
  obs::set_enabled(false);
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) w.join();
  // No assertion on the value — the point is a clean TSan report.
}

TEST(ObsStress, TraceSnapshotWhileSpansRecord) {
  obs::ScopedEnable on;
  obs::TraceLog::global().clear();

  std::vector<std::thread> tracers;
  for (int t = 0; t < 4; ++t) {
    tracers.emplace_back([] {
      for (int i = 0; i < 5'000; ++i) {
        obs::SpanScope span("stress.span");
      }
    });
  }
  // Snapshots race the recording threads; each ring is copied under its
  // own lock, so every read must be coherent.
  for (int i = 0; i < 100; ++i) {
    const auto events = obs::TraceLog::global().snapshot();
    EXPECT_LE(events.size(), obs::TraceLog::global().ring_count() *
                                 obs::TraceLog::kRingCapacity);
  }
  for (auto& t : tracers) t.join();
  EXPECT_GE(obs::TraceLog::global().ring_count(), 1u);
  obs::TraceLog::global().clear();
}

}  // namespace
}  // namespace vgbl
