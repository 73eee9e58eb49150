// Golden byte-identity gate for the two durable stores: SessionStore
// (session snapshots + input journals) and BadgeStore (badge snapshot +
// grant journal). For each checked-in gen-corpus seed it drives the
// course's completability witness through both stores and pins an FNV-1a
// fingerprint of every file they leave on disk at each protocol stage:
//
//   ckpt.*        a session checkpointed every 5 steps: snapshot + journal
//   wal.journal   a journal-only session (no checkpoint ever taken)
//   wal.resumed.* that session reopened: the folded snapshot and the
//                 compacted journal
//   badges.*      a badge store after commits; after a checkpoint and more
//                 commits; after a reopen and a second checkpoint
//
// File headers, record framing, barriers and every payload codec feed
// these bytes, so a refactor of the store layer must leave every pin
// untouched.
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

/// FNV-1a over the file size, then every byte of the file.
u64 file_fingerprint(const std::string& path) {
  auto data = read_binary_file(path);
  EXPECT_TRUE(data.ok()) << path;
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

  // Periodic checkpoints: the last snapshot plus the journal tail after it.
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
    pins["ckpt.snap"] = file_fingerprint(store.snapshot_path("kim"));
    pins["ckpt.journal"] = file_fingerprint(store.journal_path("kim"));
  }

  // Journal only, then the reopen that folds it into a snapshot.
  {
    options.directory = (root / "wal").string();
    options.policy.every_steps = 0;
    SessionStore store(options);
    {
      auto live = store.open_session(bundle, "lee");
      EXPECT_TRUE(live.ok()) << live.error().to_string();
      if (!live.ok()) return pins;
      apply_all(*live.value(), script);
      pins["wal.journal"] = file_fingerprint(store.journal_path("lee"));
    }
    auto resumed = store.open_session(bundle, "lee");
    EXPECT_TRUE(resumed.ok()) << resumed.error().to_string();
    if (!resumed.ok()) return pins;
    EXPECT_EQ(resumed.value()->replayed_steps(), script.size());
    pins["wal.resumed.snap"] = file_fingerprint(store.snapshot_path("lee"));
    pins["wal.resumed.journal"] = file_fingerprint(store.journal_path("lee"));
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

// Captured from the stores before their framing moved to util/framed.
// One row per checked-in gen-corpus seed × file.
struct GoldenRow {
  u64 seed;
  const char* file;
  u64 fingerprint;
};

constexpr GoldenRow kGolden[] = {
    // clang-format off
    {7ULL, "badges.ckpt.journal", 15408270461607170183ULL},
    {7ULL, "badges.ckpt.snap", 6894717285047932391ULL},
    {7ULL, "badges.journal", 213844253626309680ULL},
    {7ULL, "badges.reopen.journal", 17230961118641919779ULL},
    {7ULL, "badges.reopen.snap", 12123705218287631452ULL},
    {7ULL, "ckpt.journal", 2660599454766381409ULL},
    {7ULL, "ckpt.snap", 2010933044964707059ULL},
    {7ULL, "wal.journal", 4712303166265556834ULL},
    {7ULL, "wal.resumed.journal", 16302453806108012125ULL},
    {7ULL, "wal.resumed.snap", 1311407563161886421ULL},
    {99ULL, "badges.ckpt.journal", 163796395524349721ULL},
    {99ULL, "badges.ckpt.snap", 5955493026270705041ULL},
    {99ULL, "badges.journal", 2261457009603504221ULL},
    {99ULL, "badges.reopen.journal", 17230961118641919779ULL},
    {99ULL, "badges.reopen.snap", 3308745719245108912ULL},
    {99ULL, "ckpt.journal", 9347849968236036278ULL},
    {99ULL, "ckpt.snap", 18235151800963330958ULL},
    {99ULL, "wal.journal", 1882062226828285482ULL},
    {99ULL, "wal.resumed.journal", 3993408317229504143ULL},
    {99ULL, "wal.resumed.snap", 7164163446531237488ULL},
    {1234ULL, "badges.ckpt.journal", 8110624822210394590ULL},
    {1234ULL, "badges.ckpt.snap", 10359134490709086339ULL},
    {1234ULL, "badges.journal", 11471776462485521825ULL},
    {1234ULL, "badges.reopen.journal", 17230961118641919779ULL},
    {1234ULL, "badges.reopen.snap", 4194610037242534938ULL},
    {1234ULL, "ckpt.journal", 511048893780220363ULL},
    {1234ULL, "ckpt.snap", 3620691249434390715ULL},
    {1234ULL, "wal.journal", 11329808771385061552ULL},
    {1234ULL, "wal.resumed.journal", 4383753602420387204ULL},
    {1234ULL, "wal.resumed.snap", 9220702023211751990ULL},
    {31337ULL, "badges.ckpt.journal", 15490105940110890139ULL},
    {31337ULL, "badges.ckpt.snap", 6197854021084166679ULL},
    {31337ULL, "badges.journal", 11355456199148258192ULL},
    {31337ULL, "badges.reopen.journal", 17230961118641919779ULL},
    {31337ULL, "badges.reopen.snap", 16986353673302480410ULL},
    {31337ULL, "ckpt.journal", 5454052873222704113ULL},
    {31337ULL, "ckpt.snap", 11102824026523275934ULL},
    {31337ULL, "wal.journal", 18181114704489137710ULL},
    {31337ULL, "wal.resumed.journal", 3849213382327368128ULL},
    {31337ULL, "wal.resumed.snap", 17815804274528087349ULL},
    {424242ULL, "badges.ckpt.journal", 18251870598247980035ULL},
    {424242ULL, "badges.ckpt.snap", 9272334058005190181ULL},
    {424242ULL, "badges.journal", 16434021688037940418ULL},
    {424242ULL, "badges.reopen.journal", 17230961118641919779ULL},
    {424242ULL, "badges.reopen.snap", 7982586594298551170ULL},
    {424242ULL, "ckpt.journal", 4900626711510484507ULL},
    {424242ULL, "ckpt.snap", 11502503425386182233ULL},
    {424242ULL, "wal.journal", 12622773535402907658ULL},
    {424242ULL, "wal.resumed.journal", 5937976217356263510ULL},
    {424242ULL, "wal.resumed.snap", 916588733671081867ULL},
    {987654321ULL, "badges.ckpt.journal", 4027529994237168162ULL},
    {987654321ULL, "badges.ckpt.snap", 2048862221320729465ULL},
    {987654321ULL, "badges.journal", 15106183181984111097ULL},
    {987654321ULL, "badges.reopen.journal", 17230961118641919779ULL},
    {987654321ULL, "badges.reopen.snap", 7999451562604576317ULL},
    {987654321ULL, "ckpt.journal", 16304228160612773046ULL},
    {987654321ULL, "ckpt.snap", 529117354510470307ULL},
    {987654321ULL, "wal.journal", 7135392279939974756ULL},
    {987654321ULL, "wal.resumed.journal", 589877765129190248ULL},
    {987654321ULL, "wal.resumed.snap", 427907573436123471ULL},
    {2718281828ULL, "badges.ckpt.journal", 14240006985130450369ULL},
    {2718281828ULL, "badges.ckpt.snap", 8392213841151391012ULL},
    {2718281828ULL, "badges.journal", 6331442270143522180ULL},
    {2718281828ULL, "badges.reopen.journal", 17230961118641919779ULL},
    {2718281828ULL, "badges.reopen.snap", 5605873724229731147ULL},
    {2718281828ULL, "ckpt.journal", 12403627598433197420ULL},
    {2718281828ULL, "ckpt.snap", 17198992448802420709ULL},
    {2718281828ULL, "wal.journal", 15872303390646156184ULL},
    {2718281828ULL, "wal.resumed.journal", 1605968566842037331ULL},
    {2718281828ULL, "wal.resumed.snap", 11970202552719326741ULL},
    {18446744073709551557ULL, "badges.ckpt.journal", 1930485440590425328ULL},
    {18446744073709551557ULL, "badges.ckpt.snap", 3937251040378093312ULL},
    {18446744073709551557ULL, "badges.journal", 4251891759231498716ULL},
    {18446744073709551557ULL, "badges.reopen.journal", 17230961118641919779ULL},
    {18446744073709551557ULL, "badges.reopen.snap", 2157295755377254932ULL},
    {18446744073709551557ULL, "ckpt.journal", 14107068115720168701ULL},
    {18446744073709551557ULL, "ckpt.snap", 17287328819780257787ULL},
    {18446744073709551557ULL, "wal.journal", 6201809453220365598ULL},
    {18446744073709551557ULL, "wal.resumed.journal", 17274897288086771831ULL},
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
