// Golden determinism gate for the classroom engine (DESIGN.md §5i). Pins
// the full classroom_fingerprint — per-student results, encoded unlock
// logs, ranked leaderboards — of one classroom per checked-in gen-corpus
// seed, plus one store-backed (suspend/checkpoint/resume) classroom. The
// pins were captured from the thread-per-student engine the DES scheduler
// replaced, after the DES engine had matched it on every seed × shards
// {1,2,8} × threads {0,2}. Every shard/thread arm below must still
// reproduce them bit for bit, so a change to gameplay, seeding, the event
// order or the aggregation flips a fingerprint here.
//
// Regenerating after an *intentional* behaviour change:
//   VGBL_GOLDEN_PRINT=1 ./build/tests/classroom_golden_test
// prints the replacement kGolden table; paste it below and say why in the
// commit message.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/classroom.hpp"
#include "core/platform.hpp"
#include "gen/generator.hpp"

namespace vgbl {
namespace {

std::vector<u64> corpus_seeds() {
  std::vector<u64> seeds;
  std::ifstream in(VGBL_GEN_SEEDS_PATH);
  EXPECT_TRUE(in.good()) << "missing " << VGBL_GEN_SEEDS_PATH;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream row(line);
    u64 seed = 0;
    if (row >> seed) seeds.push_back(seed);
  }
  EXPECT_GE(seeds.size(), 8u);
  return seeds;
}

struct CorpusCourse {
  std::shared_ptr<const GameBundle> bundle;
  gen::GeneratedCourse course;
};

CorpusCourse load_course(u64 seed) {
  auto course = gen::generate_course(gen::corpus_course_params(seed, 0),
                                     gen::corpus_course_seed(seed, 0));
  EXPECT_TRUE(course.ok()) << "seed " << seed;
  auto bundle = publish(course.value().project);
  EXPECT_TRUE(bundle.ok()) << "seed " << seed;
  return {bundle.value(), std::move(course).value()};
}

ClassroomOptions base_options(u64 seed,
                              const rewards::RewardRuleSet* rules) {
  ClassroomOptions options;
  options.student_count = 6;
  options.max_steps_per_student = 200;
  options.seed = seed;
  options.reward_rules = rules;
  return options;
}

/// Every pin must hold on each arm: shards {1, 2, 8} vary how students
/// spread over event queues, threads {0, 2} cross the serial and
/// ThreadPool epoch execution.
struct Grid {
  int shards;
  int threads;
};
constexpr Grid kGrid[] = {{1, 0}, {2, 0}, {8, 0}, {1, 2}, {2, 2}, {8, 2}};

// One row per checked-in gen-corpus seed ("direct": storeless classroom),
// plus the first seed's store-backed classroom ("store").
struct GoldenRow {
  u64 seed;
  const char* arm;
  u64 fingerprint;
};

constexpr GoldenRow kGolden[] = {
    // clang-format off
    {7ULL, "direct", 2716682296298775275ULL},
    {99ULL, "direct", 14432503851490417969ULL},
    {1234ULL, "direct", 4476115603824588908ULL},
    {31337ULL, "direct", 2697976756712220325ULL},
    {424242ULL, "direct", 1028858580261892025ULL},
    {987654321ULL, "direct", 7870962109370831004ULL},
    {2718281828ULL, "direct", 8274516945532831318ULL},
    {18446744073709551557ULL, "direct", 3796319522416584884ULL},
    {7ULL, "store", 15441027180808773727ULL},
    // clang-format on
};

/// Checks (or, under VGBL_GOLDEN_PRINT, prints) one pin: `run` is called
/// once per grid arm and every arm must produce the pinned fingerprint (in
/// print mode, the first arm's).
template <typename Run>
void check_pin(u64 seed, const std::string& arm, Run&& run) {
  const bool print = std::getenv("VGBL_GOLDEN_PRINT") != nullptr;
  const GoldenRow* pin = std::find_if(
      std::begin(kGolden), std::end(kGolden), [&](const GoldenRow& row) {
        return row.seed == seed && row.arm == arm;
      });
  if (!print) {
    ASSERT_NE(pin, std::end(kGolden))
        << "no golden fingerprint for seed " << seed << " arm " << arm
        << " — new corpus seed? regenerate with VGBL_GOLDEN_PRINT=1";
  }
  u64 want = print ? 0 : pin->fingerprint;
  for (size_t i = 0; i < std::size(kGrid); ++i) {
    const Grid& g = kGrid[i];
    const u64 got = run(g);
    if (print && i == 0) want = got;
    EXPECT_EQ(got, want) << "classroom changed for seed " << seed << " arm "
                         << arm << ", " << g.shards << " shards, "
                         << g.threads << " threads";
  }
  if (print) {
    std::printf("    {%lluULL, \"%s\", %lluULL},\n",
                static_cast<unsigned long long>(seed), arm.c_str(),
                static_cast<unsigned long long>(want));
  }
}

TEST(ClassroomGolden, EveryCorpusSeedMatchesItsPin) {
  for (u64 seed : corpus_seeds()) {
    const CorpusCourse corpus = load_course(seed);
    if (!corpus.bundle) continue;  // load already failed the test
    check_pin(seed, "direct", [&](const Grid& g) {
      ClassroomOptions options =
          base_options(seed, &corpus.course.reward_rules);
      options.des_shards = g.shards;
      options.worker_threads = g.threads;
      return classroom_fingerprint(simulate_classroom(corpus.bundle, options));
    });
  }
}

TEST(ClassroomGolden, StoreBackedRunMatchesItsPin) {
  // The suspend/checkpoint/resume path rides the same contract: one corpus
  // seed, each arm against its own fresh store so no arm sees another's
  // snapshots.
  namespace fs = std::filesystem;
  const u64 seed = corpus_seeds().front();
  const CorpusCourse corpus = load_course(seed);
  ASSERT_TRUE(corpus.bundle);

  const fs::path root =
      fs::temp_directory_path() /
      ("vgbl-golden-store-" +
       std::to_string(static_cast<unsigned>(::getpid())));
  fs::remove_all(root);
  check_pin(seed, "store", [&](const Grid& g) {
    SessionStoreOptions store_options;
    store_options.directory = (root / ("s" + std::to_string(g.shards) + "t" +
                                       std::to_string(g.threads)))
                                  .string();
    store_options.session.reward_rules = &corpus.course.reward_rules;
    SessionStore store(store_options);
    ClassroomOptions options =
        base_options(seed, &corpus.course.reward_rules);
    options.store = &store;
    options.des_shards = g.shards;
    options.worker_threads = g.threads;
    return classroom_fingerprint(simulate_classroom(corpus.bundle, options));
  });
  fs::remove_all(root);
}

}  // namespace
}  // namespace vgbl
