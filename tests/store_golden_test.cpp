// Golden byte-identity gate for the two durable stores: SessionStore
// (one session log per directory) and BadgeStore (badge snapshot + grant
// journal). For each checked-in gen-corpus seed it drives the course's
// completability witness through both stores and pins an FNV-1a
// fingerprint of every file they leave on disk at each protocol stage,
// and of the student's latest snapshot record:
//
//   ckpt.*        a session checkpointed every 5 steps: its last snapshot
//                 record and the log
//   wal.log       a log-only session (no checkpoint ever taken)
//   wal.resumed.* that session reopened: the snapshot record the reopen
//                 folded the replayed steps into, and the log after it
//   badges.*      a badge store after commits; after a checkpoint and more
//                 commits; after a reopen and a second checkpoint
//
// File headers, record framing and every payload codec feed these bytes,
// so a refactor of the store layer must leave every pin untouched. The
// *.snap rows hash the snapshot bytes alone, without the record framing
// around them, so they pin the snapshot codec by itself.
//
// Regenerating after an *intentional* format change:
//   VGBL_GOLDEN_PRINT=1 ./build/tests/store_golden_test
// prints the replacement kGolden table; paste it below and say why in the
// commit message.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "gen/generator.hpp"
#include "persist/session_store.hpp"
#include "rewards/badge_store.hpp"
#include "util/fileio.hpp"

namespace vgbl {
namespace {

namespace fs = std::filesystem;

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

/// FNV-1a over the byte count, then every byte.
u64 bytes_fingerprint(const Result<Bytes>& data) {
  EXPECT_TRUE(data.ok()) << (data.ok() ? "" : data.error().to_string());
  if (!data.ok()) return 0;
  u64 h = 14695981039346656037ULL;
  auto mix_byte = [&h](u8 b) {
    h ^= b;
    h *= 1099511628211ULL;
  };
  for (int i = 0; i < 8; ++i) {
    mix_byte(static_cast<u8>(data.value().size() >> (i * 8)));
  }
  for (u8 b : data.value()) mix_byte(b);
  return h;
}

u64 file_fingerprint(const std::string& path) {
  return bytes_fingerprint(read_binary_file(path));
}

using Pins = std::map<std::string, u64>;

/// Applies the whole witness script through a store-backed session.
void apply_all(PersistedSession& session, const InputScript& script) {
  for (const ScriptStep& step : script) {
    const Status st = session.apply(step);
    EXPECT_TRUE(st.ok()) << st.error().to_string();
  }
}

/// Drives one corpus course through both stores under `root` and returns
/// the fingerprint of every file written, keyed by stage.
Pins capture_seed(u64 seed, const fs::path& root) {
  Pins pins;
  auto course = gen::generate_course(gen::corpus_course_params(seed, 0),
                                     gen::corpus_course_seed(seed, 0));
  EXPECT_TRUE(course.ok()) << "seed " << seed;
  if (!course.ok()) return pins;
  auto published = publish(course.value().project);
  EXPECT_TRUE(published.ok()) << "seed " << seed;
  if (!published.ok()) return pins;
  const std::shared_ptr<const GameBundle> bundle = published.value();
  const InputScript& script = course.value().solver;

  SessionStoreOptions options;
  options.session.reward_rules = &course.value().reward_rules;

  // Periodic checkpoints: the last snapshot plus the log tail after it.
  std::vector<rewards::Unlock> unlocks;
  {
    options.directory = (root / "ckpt").string();
    options.policy.every_steps = 5;
    SessionStore store(options);
    auto live = store.open_session(bundle, "kim");
    EXPECT_TRUE(live.ok()) << live.error().to_string();
    if (!live.ok()) return pins;
    apply_all(*live.value(), script);
    unlocks = live.value()->session().rewards().unlock_log();
    pins["ckpt.snap"] = bytes_fingerprint(store.latest_snapshot("kim"));
    pins["ckpt.log"] = file_fingerprint(store.log_path());
  }

  // Log only, then the reopen that folds it into a snapshot.
  {
    options.directory = (root / "wal").string();
    options.policy.every_steps = 0;
    SessionStore store(options);
    {
      auto live = store.open_session(bundle, "lee");
      EXPECT_TRUE(live.ok()) << live.error().to_string();
      if (!live.ok()) return pins;
      apply_all(*live.value(), script);
      pins["wal.log"] = file_fingerprint(store.log_path());
    }
    auto resumed = store.open_session(bundle, "lee");
    EXPECT_TRUE(resumed.ok()) << resumed.error().to_string();
    if (!resumed.ok()) return pins;
    EXPECT_EQ(resumed.value()->replayed_steps(), script.size());
    pins["wal.resumed.snap"] = bytes_fingerprint(store.latest_snapshot("lee"));
    pins["wal.resumed.log"] = file_fingerprint(store.log_path());
  }

  // Badge store: the session's unlocks plus one seed-derived grant, so
  // every seed commits at least one grant per student.
  unlocks.push_back({seconds(1), 900, "seed-" + std::to_string(seed),
                     static_cast<i64>(seed % 97)});
  const size_t half = unlocks.size() / 2;
  const std::span<const rewards::Unlock> all(unlocks);
  const std::string badge_dir = (root / "badges").string();
  {
    auto store = rewards::BadgeStore::open({.directory = badge_dir});
    EXPECT_TRUE(store.ok()) << store.error().to_string();
    if (!store.ok()) return pins;
    rewards::BadgeStore& badges = *store.value();
    EXPECT_TRUE(badges.commit("amy", all.first(half)).ok());
    EXPECT_TRUE(badges.commit("ben", all).ok());
    pins["badges.journal"] = file_fingerprint(badges.journal_path());

    EXPECT_TRUE(badges.checkpoint().ok());
    EXPECT_TRUE(badges.commit("amy", all).ok());
    EXPECT_TRUE(badges.commit("cat", all.subspan(half)).ok());
    pins["badges.ckpt.snap"] = file_fingerprint(badges.snapshot_path());
    pins["badges.ckpt.journal"] = file_fingerprint(badges.journal_path());
  }
  auto reopened = rewards::BadgeStore::open({.directory = badge_dir});
  EXPECT_TRUE(reopened.ok()) << reopened.error().to_string();
  if (!reopened.ok()) return pins;
  EXPECT_TRUE(reopened.value()->checkpoint().ok());
  pins["badges.reopen.snap"] =
      file_fingerprint(reopened.value()->snapshot_path());
  pins["badges.reopen.journal"] =
      file_fingerprint(reopened.value()->journal_path());
  return pins;
}

// The *.snap rows date from before the stores' framing moved to
// util/framed; the *.log and badges.* rows were captured when the session
// log, the badge journal's commit records (format version 2) and the
// record header CRC landed.
// One row per checked-in gen-corpus seed × pin.
struct GoldenRow {
  u64 seed;
  const char* file;
  u64 fingerprint;
};

constexpr GoldenRow kGolden[] = {
    // clang-format off
    {7ULL, "badges.ckpt.journal", 3611731533884273590ULL},
    {7ULL, "badges.ckpt.snap", 12043316816801778162ULL},
    {7ULL, "badges.journal", 14131073747209130161ULL},
    {7ULL, "badges.reopen.journal", 8796930143503230641ULL},
    {7ULL, "badges.reopen.snap", 13443384307139205317ULL},
    {7ULL, "ckpt.log", 14898282301358890390ULL},
    {7ULL, "ckpt.snap", 2010933044964707059ULL},
    {7ULL, "wal.log", 2050648034709620616ULL},
    {7ULL, "wal.resumed.log", 10036217782651625561ULL},
    {7ULL, "wal.resumed.snap", 1311407563161886421ULL},
    {99ULL, "badges.ckpt.journal", 11212141586901387709ULL},
    {99ULL, "badges.ckpt.snap", 6619855236800891212ULL},
    {99ULL, "badges.journal", 12610005968593527454ULL},
    {99ULL, "badges.reopen.journal", 8796930143503230641ULL},
    {99ULL, "badges.reopen.snap", 11153968974706047689ULL},
    {99ULL, "ckpt.log", 11891020197395619174ULL},
    {99ULL, "ckpt.snap", 18235151800963330958ULL},
    {99ULL, "wal.log", 11910715048388428541ULL},
    {99ULL, "wal.resumed.log", 17118343610156759607ULL},
    {99ULL, "wal.resumed.snap", 7164163446531237488ULL},
    {1234ULL, "badges.ckpt.journal", 11147997854578400910ULL},
    {1234ULL, "badges.ckpt.snap", 13629352476407679412ULL},
    {1234ULL, "badges.journal", 17424280157976151948ULL},
    {1234ULL, "badges.reopen.journal", 8796930143503230641ULL},
    {1234ULL, "badges.reopen.snap", 16038526220416297888ULL},
    {1234ULL, "ckpt.log", 12655994688254039327ULL},
    {1234ULL, "ckpt.snap", 3620691249434390715ULL},
    {1234ULL, "wal.log", 17651395823189384550ULL},
    {1234ULL, "wal.resumed.log", 5246573950695421262ULL},
    {1234ULL, "wal.resumed.snap", 9220702023211751990ULL},
    {31337ULL, "badges.ckpt.journal", 1145591270806228971ULL},
    {31337ULL, "badges.ckpt.snap", 10233692728646237320ULL},
    {31337ULL, "badges.journal", 7078373657426848210ULL},
    {31337ULL, "badges.reopen.journal", 8796930143503230641ULL},
    {31337ULL, "badges.reopen.snap", 34674039398545103ULL},
    {31337ULL, "ckpt.log", 17534857505367133040ULL},
    {31337ULL, "ckpt.snap", 11102824026523275934ULL},
    {31337ULL, "wal.log", 5538662578940108484ULL},
    {31337ULL, "wal.resumed.log", 9995201041109631363ULL},
    {31337ULL, "wal.resumed.snap", 17815804274528087349ULL},
    {424242ULL, "badges.ckpt.journal", 9453145001697820766ULL},
    {424242ULL, "badges.ckpt.snap", 6476727270569776872ULL},
    {424242ULL, "badges.journal", 11122993202687175359ULL},
    {424242ULL, "badges.reopen.journal", 8796930143503230641ULL},
    {424242ULL, "badges.reopen.snap", 17373258906346334042ULL},
    {424242ULL, "ckpt.log", 1999844216094070673ULL},
    {424242ULL, "ckpt.snap", 11502503425386182233ULL},
    {424242ULL, "wal.log", 4498140079173421778ULL},
    {424242ULL, "wal.resumed.log", 12829586327745509289ULL},
    {424242ULL, "wal.resumed.snap", 916588733671081867ULL},
    {987654321ULL, "badges.ckpt.journal", 1670978264105588221ULL},
    {987654321ULL, "badges.ckpt.snap", 11692385885790169590ULL},
    {987654321ULL, "badges.journal", 2715710822044641907ULL},
    {987654321ULL, "badges.reopen.journal", 8796930143503230641ULL},
    {987654321ULL, "badges.reopen.snap", 11948424586987691660ULL},
    {987654321ULL, "ckpt.log", 5781046797140193390ULL},
    {987654321ULL, "ckpt.snap", 529117354510470307ULL},
    {987654321ULL, "wal.log", 3917171159613309033ULL},
    {987654321ULL, "wal.resumed.log", 2688198328235549196ULL},
    {987654321ULL, "wal.resumed.snap", 427907573436123471ULL},
    {2718281828ULL, "badges.ckpt.journal", 4489597791819599584ULL},
    {2718281828ULL, "badges.ckpt.snap", 15407710928339546087ULL},
    {2718281828ULL, "badges.journal", 16791463808841119461ULL},
    {2718281828ULL, "badges.reopen.journal", 8796930143503230641ULL},
    {2718281828ULL, "badges.reopen.snap", 12706761428335340630ULL},
    {2718281828ULL, "ckpt.log", 17432744218959821839ULL},
    {2718281828ULL, "ckpt.snap", 17198992448802420709ULL},
    {2718281828ULL, "wal.log", 11516655663555479949ULL},
    {2718281828ULL, "wal.resumed.log", 12482767606992495897ULL},
    {2718281828ULL, "wal.resumed.snap", 11970202552719326741ULL},
    {18446744073709551557ULL, "badges.ckpt.journal", 17110079304220577186ULL},
    {18446744073709551557ULL, "badges.ckpt.snap", 2775344710027577027ULL},
    {18446744073709551557ULL, "badges.journal", 5880793614572176671ULL},
    {18446744073709551557ULL, "badges.reopen.journal", 8796930143503230641ULL},
    {18446744073709551557ULL, "badges.reopen.snap", 17629348958944309960ULL},
    {18446744073709551557ULL, "ckpt.log", 3260392181703331236ULL},
    {18446744073709551557ULL, "ckpt.snap", 17287328819780257787ULL},
    {18446744073709551557ULL, "wal.log", 5706483917024832662ULL},
    {18446744073709551557ULL, "wal.resumed.log", 8320065668954874373ULL},
    {18446744073709551557ULL, "wal.resumed.snap", 10976523325616786401ULL},
    // clang-format on
};

TEST(StoreGoldenTest, OnDiskBytesAreStable) {
  const bool print = std::getenv("VGBL_GOLDEN_PRINT") != nullptr;
  std::map<std::pair<u64, std::string>, u64> expected;
  for (const GoldenRow& row : kGolden) {
    expected[{row.seed, row.file}] = row.fingerprint;
  }
  if (!print) {
    ASSERT_FALSE(expected.empty())
        << "kGolden is empty — regenerate with VGBL_GOLDEN_PRINT=1";
  }

  const fs::path root =
      fs::temp_directory_path() /
      ("vgbl-store-golden-" +
       std::to_string(static_cast<unsigned>(::getpid())));
  size_t checked = 0;
  for (const u64 seed : corpus_seeds()) {
    fs::remove_all(root);
    const Pins pins = capture_seed(seed, root);
    EXPECT_EQ(pins.size(), 10u) << "seed " << seed;
    for (const auto& [file, got] : pins) {
      if (print) {
        std::printf("    {%lluULL, \"%s\", %lluULL},\n",
                    static_cast<unsigned long long>(seed), file.c_str(),
                    static_cast<unsigned long long>(got));
        continue;
      }
      const auto it = expected.find({seed, file});
      ASSERT_NE(it, expected.end())
          << "no golden fingerprint for seed " << seed << " file " << file
          << " — new corpus seed? regenerate with VGBL_GOLDEN_PRINT=1";
      EXPECT_EQ(got, it->second)
          << "on-disk bytes changed for seed " << seed << " file " << file;
      ++checked;
    }
  }
  fs::remove_all(root);
  if (!print) {
    EXPECT_EQ(checked, expected.size());
  }
}

}  // namespace
}  // namespace vgbl
