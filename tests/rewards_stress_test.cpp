// Concurrency stress for the rewards service: one shared BadgeStore under
// a 64-student threaded classroom while a scraper thread renders live
// leaderboards and Prometheus exports. Built to run under
// VGBL_SANITIZE=thread (ctest label `tsan`); without a sanitizer it still
// checks the same functional invariants — the store's one mutex over its
// journal and student records must keep every interleaving both race-free
// and deterministic in outcome.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/classroom.hpp"
#include "core/demo_games.hpp"
#include "core/platform.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "rewards/badge_store.hpp"
#include "rewards/evaluator.hpp"
#include "rewards/leaderboard.hpp"
#include "rewards/rules.hpp"

namespace vgbl {
namespace {

namespace fs = std::filesystem;

std::shared_ptr<const GameBundle> quickstart_bundle() {
  static auto bundle = publish(build_quickstart_project().value()).value();
  return bundle;
}

std::string test_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "vgbl_rewards_stress_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(RewardsStressTest, SixtyFourStudentsOneStoreLiveScraper) {
  obs::ScopedEnable metrics_on;
  auto badge_store =
      rewards::BadgeStore::open({.directory = test_dir("classroom64")})
          .value();

  ClassroomOptions options;
  options.student_count = 64;
  options.max_steps_per_student = 24;
  options.seed = 7;
  options.worker_threads = 8;
  options.reward_rules = &rewards::RewardRuleSet::standard();
  options.badge_store = badge_store.get();

  // Scraper thread: reads the store (leaderboards, per-student records)
  // and the metrics registry, and checkpoints it, while the workers
  // commit — the races-by-design surface the TSan tree must prove clean.
  std::atomic<bool> done{false};
  std::atomic<u64> scrapes{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_TRUE(badge_store->checkpoint().ok());
      const rewards::Leaderboard board =
          rewards::leaderboard_from_store(*badge_store);
      rewards::export_leaderboard_metrics(board);
      (void)badge_store->student("student-1");
      (void)badge_store->student_count();
      const std::string page =
          obs::to_prometheus(obs::MetricsRegistry::global().scrape());
      EXPECT_FALSE(page.empty());
      scrapes.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  const ClassroomSummary summary =
      simulate_classroom(quickstart_bundle(), options);
  done.store(true, std::memory_order_release);
  scraper.join();

  ASSERT_EQ(summary.students.size(), 64u);
  EXPECT_GT(scrapes.load(), 0u);

  // Every unlock the cohort produced landed in the store exactly once.
  size_t expected_grants = 0;
  for (const auto& s : summary.students) expected_grants += s.unlocks.size();
  ASSERT_GT(expected_grants, 0u);
  size_t stored = 0;
  for (const auto& student : badge_store->all()) {
    stored += student.grants.size();
  }
  EXPECT_EQ(stored, expected_grants);
  EXPECT_EQ(badge_store->student_count(), 64u);

  // Post-run store state survives a final checkpoint + reopen, whatever
  // interleaving the scraper's checkpoints raced through.
  ASSERT_TRUE(badge_store->checkpoint().ok());
  const std::string dir = badge_store->directory();
  badge_store.reset();
  auto reopened = rewards::BadgeStore::open({.directory = dir}).value();
  size_t recovered = 0;
  for (const auto& student : reopened->all()) {
    recovered += student.grants.size();
  }
  EXPECT_EQ(recovered, expected_grants);
}

TEST(RewardsStressTest, ConcurrentCommitsToSameStudentStayIdempotent) {
  // Eight threads repeatedly commit overlapping unlock slices for the
  // SAME students. The journal mutex serialises appends and per-rule
  // dedup makes re-commits no-ops, so the end state is one grant per
  // (student, rule) no matter which interleaving wins.
  auto store =
      rewards::BadgeStore::open({.directory = test_dir("contention")}).value();
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  constexpr int kStudents = 3;

  std::vector<rewards::Unlock> unlocks;
  for (u32 rule = 1; rule <= 6; ++rule) {
    unlocks.push_back(
        {seconds(static_cast<i64>(rule)), rule,
         "badge-" + std::to_string(rule), static_cast<i64>(rule) * 5});
  }

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Thread picks the student, round picks the slice — every student
        // sees every prefix length (including the full set) from several
        // threads at once.
        const std::string student =
            "student-" + std::to_string(t % kStudents + 1);
        const size_t count = 1 + static_cast<size_t>(round) % unlocks.size();
        auto result = store->commit(
            student, std::span<const rewards::Unlock>(unlocks.data(), count));
        EXPECT_TRUE(result.ok()) << result.error().message;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto all = store->all();
  ASSERT_EQ(all.size(), static_cast<size_t>(kStudents));
  for (const auto& student : all) {
    EXPECT_EQ(student.grants.size(), unlocks.size())
        << student.student_id << " has duplicate or missing grants";
    EXPECT_EQ(student.total_points, 5 + 10 + 15 + 20 + 25 + 30);
  }
}

}  // namespace
}  // namespace vgbl
