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
// A second table pins each session's rendered event log: an FNV-1a hash
// of every entry's `when` and text, for one storeless BotDriver run per
// bot policy on each gen-corpus seed and each demo bundle. The classroom
// fingerprints above never read the log, and snapshot ELOG bytes pin it
// only for store-backed runs, so this is what keeps the log's text and
// timing exact when its storage changes. A third table pins what the same
// runs' learning trackers render: FNV-1a hashes of the lecturer report and
// of the dumped JSON export, so the tracker's text is exact whatever its
// record layout.
//
// Regenerating after an *intentional* behaviour change:
//   VGBL_GOLDEN_PRINT=1 ./build/tests/classroom_golden_test
// prints the replacement kGolden, kLogGolden and kTrackerGolden tables
// (tracker rows print prefixed `tracker`); paste them below
// and say why in the commit message.
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
#include <string_view>
#include <vector>

#include "core/classroom.hpp"
#include "core/platform.hpp"
#include "gen/generator.hpp"
#include "rewards/rules.hpp"

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
/// spread over event queues, threads {0, 2} cross draining the shards one
/// after another on the calling thread and concurrently on a ThreadPool.
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

// --- Event-log pins -----------------------------------------------------------

constexpr u64 kFnvOffset = 14695981039346656037ULL;

u64 fnv1a(u64 h, std::string_view bytes) {
  for (char c : bytes) {
    h ^= static_cast<u8>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

u64 fnv1a_u64(u64 h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<u8>(v >> (8 * i));
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a over every entry's `when`, text length and text, in log order.
u64 log_fingerprint(const std::vector<SessionEvent>& log) {
  u64 h = kFnvOffset;
  for (const SessionEvent& e : log) {
    h = fnv1a_u64(h, static_cast<u64>(e.when));
    h = fnv1a_u64(h, e.text.size());
    h = fnv1a(h, e.text);
  }
  return h;
}

struct LogRow {
  const char* bundle;  // "gen:<seed>" or "demo:<name>"
  const char* policy;
  u64 fingerprint;
};

constexpr LogRow kLogGolden[] = {
    // clang-format off
    {"gen:7", "explorer", 11277186542864290118ULL},
    {"gen:7", "random", 13624657185442114619ULL},
    {"gen:7", "speedrun", 5718280115919512021ULL},
    {"gen:99", "explorer", 13549164501903375353ULL},
    {"gen:99", "random", 718700866096336980ULL},
    {"gen:99", "speedrun", 13682807727696691828ULL},
    {"gen:1234", "explorer", 6449193694090550523ULL},
    {"gen:1234", "random", 4662829460763881581ULL},
    {"gen:1234", "speedrun", 1664859814534567504ULL},
    {"gen:31337", "explorer", 16084713564423021646ULL},
    {"gen:31337", "random", 3076309989689572477ULL},
    {"gen:31337", "speedrun", 7849924708072019927ULL},
    {"gen:424242", "explorer", 17008899077724260003ULL},
    {"gen:424242", "random", 15340839118408377735ULL},
    {"gen:424242", "speedrun", 2679791840683783241ULL},
    {"gen:987654321", "explorer", 16842576381140156215ULL},
    {"gen:987654321", "random", 10133559593399059806ULL},
    {"gen:987654321", "speedrun", 1438184063679933700ULL},
    {"gen:2718281828", "explorer", 2016020402893135240ULL},
    {"gen:2718281828", "random", 7882519065940365937ULL},
    {"gen:2718281828", "speedrun", 11159287047049523379ULL},
    {"gen:18446744073709551557", "explorer", 14779011187825274200ULL},
    {"gen:18446744073709551557", "random", 9186496482526748920ULL},
    {"gen:18446744073709551557", "speedrun", 13577952976807837094ULL},
    {"demo:classroom", "explorer", 10708476625850010544ULL},
    {"demo:classroom", "random", 13346930801799477861ULL},
    {"demo:classroom", "speedrun", 1074979641262109743ULL},
    {"demo:treasure", "explorer", 11500695902255812989ULL},
    {"demo:treasure", "random", 16963595695840352476ULL},
    {"demo:treasure", "speedrun", 10654161319477230160ULL},
    {"demo:quickstart", "explorer", 5717693037368337997ULL},
    {"demo:quickstart", "random", 10214448137235402592ULL},
    {"demo:quickstart", "speedrun", 856366081695944087ULL},
    {"demo:quiz", "explorer", 5909280722845709924ULL},
    {"demo:quiz", "random", 14618986576356742128ULL},
    {"demo:quiz", "speedrun", 4195770498698567136ULL},
    // clang-format on
};

// (bundle, policy) -> FNV-1a of tracker().report(now) and of
// tracker().to_json(now).dump(), at the end of the same bot run.
struct TrackerRow {
  const char* bundle;
  const char* policy;
  u64 report;
  u64 json;
};

constexpr TrackerRow kTrackerGolden[] = {
    // clang-format off
    {"gen:7", "explorer", 18296523049394561168ULL, 12544520653331091007ULL},
    {"gen:7", "random", 5493558833442055250ULL, 115949316044518526ULL},
    {"gen:7", "speedrun", 16931669643308211569ULL, 9014064593620379271ULL},
    {"gen:99", "explorer", 5746955793627165826ULL, 12749887101228618400ULL},
    {"gen:99", "random", 11651945947050068236ULL, 12603358965326733864ULL},
    {"gen:99", "speedrun", 7974445363878548734ULL, 12062345328430165507ULL},
    {"gen:1234", "explorer", 9634056815506030196ULL, 10024956640658599749ULL},
    {"gen:1234", "random", 2419187329197467683ULL, 14482065357161978625ULL},
    {"gen:1234", "speedrun", 12402513158736263258ULL, 18088027024690594927ULL},
    {"gen:31337", "explorer", 5784120517578416253ULL, 3463284802393726080ULL},
    {"gen:31337", "random", 11695878279077381796ULL, 3465427749197304490ULL},
    {"gen:31337", "speedrun", 9585043755908157900ULL, 2305434368665749950ULL},
    {"gen:424242", "explorer", 12820543379265237302ULL, 16616762612803969819ULL},
    {"gen:424242", "random", 9696758691497500634ULL, 4338811020093873895ULL},
    {"gen:424242", "speedrun", 11270351426864671868ULL, 11191570575689080008ULL},
    {"gen:987654321", "explorer", 11202796849777075643ULL, 9479892597650604142ULL},
    {"gen:987654321", "random", 2101049867001219196ULL, 521777473299068759ULL},
    {"gen:987654321", "speedrun", 13710133674577711322ULL, 7518638140491191651ULL},
    {"gen:2718281828", "explorer", 15929124221588989968ULL, 8666293634130919096ULL},
    {"gen:2718281828", "random", 18123093477460350033ULL, 17320585380372670279ULL},
    {"gen:2718281828", "speedrun", 11995213327982191029ULL, 600502144840963405ULL},
    {"gen:18446744073709551557", "explorer", 4817261089605351229ULL, 10406892590968294160ULL},
    {"gen:18446744073709551557", "random", 14516177389528120987ULL, 5471226581581848843ULL},
    {"gen:18446744073709551557", "speedrun", 17063967435087319737ULL, 11911474107015297071ULL},
    {"demo:classroom", "explorer", 7533558648155160100ULL, 5167535885294373554ULL},
    {"demo:classroom", "random", 9972177317297452421ULL, 18427241735961802759ULL},
    {"demo:classroom", "speedrun", 4107472009449154486ULL, 6728952144941281624ULL},
    {"demo:treasure", "explorer", 3055378460069434562ULL, 15473188147274928211ULL},
    {"demo:treasure", "random", 12987146833875560243ULL, 8710373784788080565ULL},
    {"demo:treasure", "speedrun", 14243532561675912337ULL, 5309362019491215489ULL},
    {"demo:quickstart", "explorer", 15749978432257553221ULL, 18139024747207253089ULL},
    {"demo:quickstart", "random", 8500686709025355788ULL, 2749883329300016430ULL},
    {"demo:quickstart", "speedrun", 2470091163371812446ULL, 1267716316661201987ULL},
    {"demo:quiz", "explorer", 2022927938322758294ULL, 13697619951886224557ULL},
    {"demo:quiz", "random", 17118544156979463131ULL, 913101582850955316ULL},
    {"demo:quiz", "speedrun", 17878250946476803801ULL, 8198607993935613850ULL},
    // clang-format on
};

struct NamedPolicy {
  const char* name;
  BotPolicy policy;
};
constexpr NamedPolicy kPolicies[] = {{"explorer", BotPolicy::kExplorer},
                                     {"random", BotPolicy::kRandom},
                                     {"speedrun", BotPolicy::kSpeedrun}};

struct BotRunHashes {
  u64 log;
  u64 report;
  u64 json;
};

/// One storeless session driven by BotDriver to completion or budget, as a
/// classroom student runs (synchronous decode, rewards inline).
BotRunHashes bot_run_hashes(const std::shared_ptr<const GameBundle>& bundle,
                            const rewards::RewardRuleSet* rules,
                            BotPolicy policy) {
  SimClock clock;
  SessionOptions options;
  options.reward_rules = rules;
  options.decode_threads = 0;
  GameSession session(bundle, &clock, options);
  EXPECT_TRUE(session.start().ok());
  BotDriver driver(session, clock, policy, /*max_steps=*/200, /*seed=*/5);
  while (driver.run_iteration()) {
  }
  const MicroTime now = clock.now();
  return {log_fingerprint(session.event_log()),
          fnv1a(kFnvOffset, session.tracker().report(now)),
          fnv1a(kFnvOffset, session.tracker().to_json(now).dump())};
}

void check_log_pins(const std::string& bundle_key,
                    const std::shared_ptr<const GameBundle>& bundle,
                    const rewards::RewardRuleSet* rules) {
  const bool print = std::getenv("VGBL_GOLDEN_PRINT") != nullptr;
  for (const NamedPolicy& p : kPolicies) {
    const BotRunHashes got = bot_run_hashes(bundle, rules, p.policy);
    if (print) {
      std::printf("    {\"%s\", \"%s\", %lluULL},\n", bundle_key.c_str(),
                  p.name, static_cast<unsigned long long>(got.log));
      std::printf("    tracker {\"%s\", \"%s\", %lluULL, %lluULL},\n",
                  bundle_key.c_str(), p.name,
                  static_cast<unsigned long long>(got.report),
                  static_cast<unsigned long long>(got.json));
      continue;
    }
    const LogRow* pin = std::find_if(
        std::begin(kLogGolden), std::end(kLogGolden), [&](const LogRow& row) {
          return row.bundle == bundle_key &&
                 std::string_view(row.policy) == p.name;
        });
    ASSERT_NE(pin, std::end(kLogGolden))
        << "no event-log pin for " << bundle_key << " " << p.name
        << " — regenerate with VGBL_GOLDEN_PRINT=1";
    EXPECT_EQ(got.log, pin->fingerprint)
        << "event log changed for " << bundle_key << ", " << p.name;
    const TrackerRow* tpin =
        std::find_if(std::begin(kTrackerGolden), std::end(kTrackerGolden),
                     [&](const TrackerRow& row) {
                       return row.bundle == bundle_key &&
                              std::string_view(row.policy) == p.name;
                     });
    ASSERT_NE(tpin, std::end(kTrackerGolden))
        << "no tracker pin for " << bundle_key << " " << p.name
        << " — regenerate with VGBL_GOLDEN_PRINT=1";
    EXPECT_EQ(got.report, tpin->report)
        << "learning report changed for " << bundle_key << ", " << p.name;
    EXPECT_EQ(got.json, tpin->json)
        << "tracker JSON changed for " << bundle_key << ", " << p.name;
  }
}

TEST(ClassroomGolden, BotEventLogsMatchTheirPins) {
  for (u64 seed : corpus_seeds()) {
    const CorpusCourse corpus = load_course(seed);
    if (!corpus.bundle) continue;  // load already failed the test
    check_log_pins("gen:" + std::to_string(seed), corpus.bundle,
                   &corpus.course.reward_rules);
  }
  struct Demo {
    const char* name;
    Result<Project> (*build)(u64);
    u64 seed;
  };
  const Demo demos[] = {{"classroom", build_classroom_repair_project, 42},
                        {"treasure", build_treasure_hunt_project, 1337},
                        {"quickstart", build_quickstart_project, 7},
                        {"quiz", build_science_quiz_project, 77}};
  for (const Demo& d : demos) {
    auto project = d.build(d.seed);
    ASSERT_TRUE(project.ok()) << d.name;
    auto bundle = publish(project.value());
    ASSERT_TRUE(bundle.ok()) << d.name;
    check_log_pins(std::string("demo:") + d.name, bundle.value(),
                   &rewards::RewardRuleSet::standard());
  }
}

}  // namespace
}  // namespace vgbl
