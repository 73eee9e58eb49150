// District simulation races-by-design (tier2/tsan): run_district across
// concurrent shards on a live ThreadPool while a scraper thread reads the
// global metrics registry mid-run, and hold the district fingerprint
// bit-identical across thread/shard placements. The TSan tree must stay
// clean — shards share nothing while they drain, and the pool's join at
// the end of the run is the only synchronisation between them, so any
// missed edge shows up here.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/demo_games.hpp"
#include "core/platform.hpp"
#include "obs/metrics.hpp"
#include "sim/district.hpp"

namespace vgbl {
namespace {

std::shared_ptr<const GameBundle> sample_bundle() {
  static std::shared_ptr<const GameBundle> bundle =
      publish(build_quickstart_project().value()).value();
  return bundle;
}

sim::DistrictOptions stress_options() {
  sim::DistrictOptions options;
  options.classrooms = 6;
  options.students_per_classroom = 4;
  options.max_steps_per_student = 120;
  options.seed = 31337;
  return options;
}

TEST(DistrictStress, ConcurrentShardsUnderLiveScraper) {
  auto bundle = sample_bundle();
  ASSERT_TRUE(bundle);
  obs::set_enabled(true);

  std::atomic<bool> done{false};
  std::atomic<u64> scrapes{0};
  // Scraper races the district run by design: it snapshots the global
  // registry while every shard's workers are bumping counters/gauges.
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const obs::MetricsSnapshot snap =
          obs::MetricsRegistry::global().scrape();
      if (!snap.counters.empty() || !snap.gauges.empty()) {
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::yield();
    }
  });

  sim::DistrictOptions options = stress_options();
  options.worker_threads = 4;
  options.shards = 6;
  u64 fingerprint = 0;
  for (int round = 0; round < 3; ++round) {
    auto summary = sim::run_district(bundle, options);
    ASSERT_TRUE(summary.ok()) << summary.error().message;
    if (round == 0) {
      fingerprint = summary.value().fingerprint;
    } else {
      EXPECT_EQ(summary.value().fingerprint, fingerprint)
          << "rerun " << round << " diverged";
    }
    EXPECT_EQ(summary.value().total_students(),
              options.classrooms * options.students_per_classroom);
  }
  done.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0u);
  obs::set_enabled(false);
}

TEST(DistrictStress, FingerprintInvariantAcrossThreadAndShardPlacement) {
  auto bundle = sample_bundle();
  ASSERT_TRUE(bundle);

  sim::DistrictOptions serial = stress_options();
  serial.worker_threads = 0;
  serial.shards = 1;
  auto baseline = sim::run_district(bundle, serial);
  ASSERT_TRUE(baseline.ok());

  struct Placement {
    int threads;
    int shards;
  };
  for (const Placement& p :
       {Placement{2, 2}, Placement{4, 3}, Placement{4, 8}}) {
    sim::DistrictOptions options = stress_options();
    options.worker_threads = p.threads;
    options.shards = p.shards;
    auto summary = sim::run_district(bundle, options);
    ASSERT_TRUE(summary.ok());
    EXPECT_EQ(summary.value().fingerprint, baseline.value().fingerprint)
        << p.threads << " threads, " << p.shards << " shards";
    for (size_t c = 0; c < summary.value().classrooms.size(); ++c) {
      EXPECT_EQ(summary.value().classrooms[c].fingerprint,
                baseline.value().classrooms[c].fingerprint)
          << "classroom " << c;
    }
  }
}

TEST(DistrictStress, ConcurrentDistrictsDoNotInterfere) {
  // Two whole districts in flight at once (each with its own pool) — the
  // scheduler and classroom engines must not share mutable globals beyond
  // the metrics registry.
  auto bundle = sample_bundle();
  ASSERT_TRUE(bundle);

  sim::DistrictOptions options = stress_options();
  options.worker_threads = 2;
  options.shards = 4;

  u64 expected = 0;
  {
    auto summary = sim::run_district(bundle, options);
    ASSERT_TRUE(summary.ok());
    expected = summary.value().fingerprint;
  }

  std::vector<u64> got(2, 0);
  std::vector<std::thread> runners;
  runners.reserve(got.size());
  for (size_t i = 0; i < got.size(); ++i) {
    runners.emplace_back([&, i] {
      auto summary = sim::run_district(bundle, options);
      if (summary.ok()) got[i] = summary.value().fingerprint;
    });
  }
  for (auto& t : runners) t.join();
  for (u64 fp : got) EXPECT_EQ(fp, expected);
}

}  // namespace
}  // namespace vgbl
