// Rewards service (DESIGN.md §5g): rule validation, inline evaluation,
// the durable badge store's WAL discipline, leaderboard ranking — and the
// determinism contract: for a fixed classroom seed the per-student unlock
// stream is byte-identical across worker-thread counts, metrics on/off,
// and save/resume splits through a SessionStore.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/classroom.hpp"
#include "core/demo_games.hpp"
#include "core/platform.hpp"
#include "gen/generator.hpp"
#include "obs/metrics.hpp"
#include "persist/session_store.hpp"
#include "rewards/badge_store.hpp"
#include "rewards/evaluator.hpp"
#include "rewards/leaderboard.hpp"
#include "rewards/rules.hpp"
#include "util/fileio.hpp"

namespace vgbl::rewards {
namespace {

namespace fs = std::filesystem;

std::shared_ptr<const GameBundle> quickstart_bundle() {
  static auto bundle = publish(build_quickstart_project().value()).value();
  return bundle;
}

std::string test_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "vgbl_rewards_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

RewardRule make_rule(u32 id, TriggerKind trigger, i64 threshold = 1,
                     std::string target = "", i64 bonus = 0,
                     MicroTime window = 0) {
  RewardRule rule;
  rule.id = id;
  rule.badge = "badge-" + std::to_string(id);
  rule.trigger = trigger;
  rule.target = std::move(target);
  rule.threshold = threshold;
  rule.window = window;
  rule.bonus_points = bonus;
  return rule;
}

/// `name` must outlive the event (the tests pass literals).
RewardEvent event(RewardEvent::Kind kind, std::string_view name,
                  MicroTime when, bool success = false) {
  RewardEvent e;
  e.kind = kind;
  e.name = name;
  e.success = success;
  e.when = when;
  return e;
}

// --- rule sets --------------------------------------------------------------

TEST(RewardRules, StandardSetIsValidAndIdSorted) {
  const RewardRuleSet& rules = RewardRuleSet::standard();
  ASSERT_GE(rules.size(), 8u);
  for (size_t i = 1; i < rules.size(); ++i) {
    EXPECT_LT(rules.at(i - 1).id, rules.at(i).id) << "not id-sorted at " << i;
  }
  for (size_t i = 0; i < rules.size(); ++i) {
    const RewardRule& rule = rules.at(i);
    EXPECT_FALSE(rule.badge.empty());
    EXPECT_EQ(rules.find(rule.id), &rule);
  }
  EXPECT_EQ(rules.find(0xdeadbeef), nullptr);
}

TEST(RewardRules, CreateCanonicalisesAuthoringOrder) {
  auto result = RewardRuleSet::create(
      {make_rule(30, TriggerKind::kItemCollected),
       make_rule(10, TriggerKind::kGameCompleted),
       make_rule(20, TriggerKind::kItemCollected)});
  ASSERT_TRUE(result.ok()) << result.error().message;
  const RewardRuleSet& rules = result.value();
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_EQ(rules.at(0).id, 10u);
  EXPECT_EQ(rules.at(2).id, 30u);
  // subscribed() returns indices into the canonical order.
  const auto& collected = rules.subscribed(TriggerKind::kItemCollected);
  ASSERT_EQ(collected.size(), 2u);
  EXPECT_EQ(rules.at(collected[0]).id, 20u);
  EXPECT_EQ(rules.at(collected[1]).id, 30u);
  EXPECT_TRUE(rules.subscribed(TriggerKind::kQuizPassed).empty());
}

TEST(RewardRules, CreateRejectsInvalidRules) {
  // duplicate id
  EXPECT_FALSE(RewardRuleSet::create({make_rule(1, TriggerKind::kItemCollected),
                                      make_rule(1, TriggerKind::kGameCompleted)})
                   .ok());
  // zero id
  EXPECT_FALSE(
      RewardRuleSet::create({make_rule(0, TriggerKind::kItemCollected)}).ok());
  // empty badge
  RewardRule unnamed = make_rule(1, TriggerKind::kItemCollected);
  unnamed.badge.clear();
  EXPECT_FALSE(RewardRuleSet::create({unnamed}).ok());
  // non-positive threshold
  EXPECT_FALSE(
      RewardRuleSet::create({make_rule(1, TriggerKind::kItemCollected, 0)})
          .ok());
  // streak without a window
  EXPECT_FALSE(
      RewardRuleSet::create({make_rule(1, TriggerKind::kInteractionStreak, 3)})
          .ok());
}

// --- evaluator --------------------------------------------------------------

TEST(RewardEvaluatorTest, DefaultConstructedIsInert) {
  RewardEvaluator inert;
  EXPECT_FALSE(inert.active());
  inert.feed(event(RewardEvent::Kind::kItemCollected, "gem", seconds(1)));
  inert.observe_score(1000, seconds(2));
  EXPECT_TRUE(inert.take_pending().empty());
  EXPECT_TRUE(inert.unlock_log().empty());
  EXPECT_EQ(inert.total_bonus_points(), 0);
}

TEST(RewardEvaluatorTest, ThresholdAndTargetFilter) {
  auto rules = RewardRuleSet::create(
                   {make_rule(1, TriggerKind::kItemCollected, 2, "gem", 25)})
                   .value();
  RewardEvaluator eval(&rules);
  eval.feed(event(RewardEvent::Kind::kItemCollected, "gem", seconds(1)));
  eval.feed(event(RewardEvent::Kind::kItemCollected, "rock", seconds(2)));
  EXPECT_TRUE(eval.unlock_log().empty());
  EXPECT_EQ(eval.progress(0), 1);

  eval.feed(event(RewardEvent::Kind::kItemCollected, "gem", seconds(3)));
  ASSERT_EQ(eval.unlock_log().size(), 1u);
  const Unlock& unlock = eval.unlock_log().front();
  EXPECT_EQ(unlock.rule_id, 1u);
  EXPECT_EQ(unlock.badge, "badge-1");
  EXPECT_EQ(unlock.sim_time, seconds(3));
  EXPECT_EQ(unlock.points, 25);
  EXPECT_TRUE(eval.unlocked(0));
  EXPECT_EQ(eval.total_bonus_points(), 25);

  // A fired rule never fires again.
  eval.feed(event(RewardEvent::Kind::kItemCollected, "gem", seconds(4)));
  EXPECT_EQ(eval.unlock_log().size(), 1u);
}

TEST(RewardEvaluatorTest, DistinctScenariosExplored) {
  auto rules =
      RewardRuleSet::create({make_rule(1, TriggerKind::kScenariosExplored, 3)})
          .value();
  RewardEvaluator eval(&rules);
  eval.feed(event(RewardEvent::Kind::kScenarioEntered, "intro", seconds(1)));
  eval.feed(event(RewardEvent::Kind::kScenarioEntered, "intro", seconds(2)));
  eval.feed(event(RewardEvent::Kind::kScenarioEntered, "cave", seconds(3)));
  EXPECT_TRUE(eval.unlock_log().empty());
  eval.feed(event(RewardEvent::Kind::kScenarioEntered, "lake", seconds(4)));
  ASSERT_EQ(eval.unlock_log().size(), 1u);
  EXPECT_EQ(eval.unlock_log().front().sim_time, seconds(4));
}

TEST(RewardEvaluatorTest, StreakResetsWhenGapExceedsWindow) {
  auto rules = RewardRuleSet::create({make_rule(
                   1, TriggerKind::kInteractionStreak, 3, "", 0, seconds(10))})
                   .value();
  RewardEvaluator eval(&rules);
  const auto poke = [&](MicroTime when) {
    eval.feed(event(RewardEvent::Kind::kInteraction, "door", when));
  };
  poke(seconds(0));
  poke(seconds(5));
  poke(seconds(30));  // 25s gap: streak restarts at 1
  EXPECT_TRUE(eval.unlock_log().empty());
  poke(seconds(35));
  poke(seconds(40));  // three in a row within the window
  ASSERT_EQ(eval.unlock_log().size(), 1u);
  EXPECT_EQ(eval.unlock_log().front().sim_time, seconds(40));
}

TEST(RewardEvaluatorTest, QuizRuleRequiresPass) {
  auto rules = RewardRuleSet::create(
                   {make_rule(1, TriggerKind::kQuizPassed, 1, "final")})
                   .value();
  RewardEvaluator eval(&rules);
  eval.feed(
      event(RewardEvent::Kind::kQuizOutcome, "final", seconds(1), false));
  EXPECT_TRUE(eval.unlock_log().empty());
  eval.feed(event(RewardEvent::Kind::kQuizOutcome, "other", seconds(2), true));
  EXPECT_TRUE(eval.unlock_log().empty());  // target filter
  eval.feed(event(RewardEvent::Kind::kQuizOutcome, "final", seconds(3), true));
  EXPECT_EQ(eval.unlock_log().size(), 1u);
}

TEST(RewardEvaluatorTest, ScoreBonusCanChainIntoScoreBadge) {
  // Collecting the gem grants 80 bonus points; the score badge needs 100.
  // The session feeds the post-award ledger total back through
  // observe_score, so the bonus can finish the score badge.
  auto rules =
      RewardRuleSet::create({make_rule(1, TriggerKind::kItemCollected, 1,
                                       "gem", 80),
                             make_rule(2, TriggerKind::kScoreReached, 100)})
          .value();
  RewardEvaluator eval(&rules);
  eval.observe_score(30, seconds(1));
  EXPECT_TRUE(eval.take_pending().empty());

  eval.feed(event(RewardEvent::Kind::kItemCollected, "gem", seconds(2)));
  auto pending = eval.take_pending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending.front().rule_id, 1u);

  eval.observe_score(30 + 80, seconds(2));  // ledger after the bonus award
  pending = eval.take_pending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending.front().rule_id, 2u);
  EXPECT_TRUE(eval.take_pending().empty());  // drained; cascade terminates
  EXPECT_EQ(eval.unlock_log().size(), 2u);
}

TEST(RewardEvaluatorTest, StateRoundTripContinuesIdentically) {
  auto rules = RewardRuleSet::create(
                   {make_rule(1, TriggerKind::kItemCollected, 3, "", 10),
                    make_rule(2, TriggerKind::kScenariosExplored, 2)})
                   .value();
  const std::vector<RewardEvent> script = {
      event(RewardEvent::Kind::kItemCollected, "gem", seconds(1)),
      event(RewardEvent::Kind::kScenarioEntered, "intro", seconds(2)),
      event(RewardEvent::Kind::kItemCollected, "rock", seconds(3)),
      event(RewardEvent::Kind::kScenarioEntered, "cave", seconds(4)),
      event(RewardEvent::Kind::kItemCollected, "key", seconds(5)),
  };

  RewardEvaluator uninterrupted(&rules);
  for (const auto& e : script) uninterrupted.feed(e);

  RewardEvaluator first(&rules);
  for (size_t i = 0; i < 2; ++i) first.feed(script[i]);
  RewardEvaluator resumed(&rules);
  ASSERT_TRUE(resumed.restore_state(first.state()).ok());
  for (size_t i = 2; i < script.size(); ++i) resumed.feed(script[i]);

  EXPECT_EQ(encode_unlock_log(resumed.unlock_log()),
            encode_unlock_log(uninterrupted.unlock_log()));
  EXPECT_EQ(resumed.unlock_log().size(), 2u);
}

TEST(RewardEvaluatorTest, RestoreRejectsMismatchedRuleSet) {
  auto small =
      RewardRuleSet::create({make_rule(1, TriggerKind::kItemCollected)})
          .value();
  RewardEvaluator eval(&small);
  eval.feed(event(RewardEvent::Kind::kItemCollected, "gem", seconds(1)));

  RewardEvaluator standard_eval(&RewardRuleSet::standard());
  EXPECT_FALSE(standard_eval.restore_state(eval.state()).ok());
}

TEST(RewardEvaluatorTest, RestoreRejectsUnsortedScenarioList) {
  auto rules =
      RewardRuleSet::create({make_rule(1, TriggerKind::kScenariosExplored, 5)})
          .value();
  RewardEvaluator eval(&rules);
  EvaluatorState state = eval.state();
  state.progress.assign(1, 2);
  state.unlocked.assign(1, 0);
  state.scenarios_explored = {"zebra", "alpha"};  // not sorted
  RewardEvaluator target(&rules);
  const Status status = target.restore_state(std::move(state));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kCorruptData);
}

TEST(RewardEvaluatorTest, UnlockLogEncodingRoundTrips) {
  std::vector<Unlock> unlocks;
  unlocks.push_back({seconds(3), 7, "explorer", 25});
  unlocks.push_back({seconds(9), 2, "finisher", -5});
  const Bytes encoded = encode_unlock_log(unlocks);
  auto decoded = decode_unlock_log(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded.value(), unlocks);

  // Truncation is a typed decode failure, not UB.
  auto truncated = decode_unlock_log(
      std::span<const u8>(encoded.data(), encoded.size() - 3));
  EXPECT_FALSE(truncated.ok());
}

// --- badge store ------------------------------------------------------------

std::vector<Unlock> sample_unlocks() {
  return {{seconds(2), 1, "first-steps", 10}, {seconds(8), 4, "collector", 25}};
}

TEST(BadgeStoreTest, CommitIsIdempotentPerRule) {
  const std::string dir = test_dir("idempotent");
  auto store = BadgeStore::open({.directory = dir}).value();

  auto first = store->commit("amy", sample_unlocks());
  ASSERT_TRUE(first.ok()) << first.error().message;
  EXPECT_EQ(first.value(), 2u);

  // Re-committing a resumed session's full log grants nothing new.
  auto again = store->commit("amy", sample_unlocks());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 0u);

  const StudentBadges amy = store->student("amy");
  ASSERT_EQ(amy.grants.size(), 2u);
  EXPECT_EQ(amy.total_points, 35);
  EXPECT_EQ(amy.grants[0].badge, "first-steps");
  EXPECT_TRUE(store->student("nobody").grants.empty());
}

TEST(BadgeStoreTest, AllIsSortedByStudentId) {
  const std::string dir = test_dir("sorted");
  auto store = BadgeStore::open({.directory = dir}).value();
  ASSERT_TRUE(store->commit("zoe", sample_unlocks()).ok());
  ASSERT_TRUE(store->commit("amy", sample_unlocks()).ok());
  ASSERT_TRUE(store->commit("mia", sample_unlocks()).ok());
  const auto all = store->all();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].student_id, "amy");
  EXPECT_EQ(all[1].student_id, "mia");
  EXPECT_EQ(all[2].student_id, "zoe");
  EXPECT_EQ(store->student_count(), 3u);
}

TEST(BadgeStoreTest, JournalAloneRecoversAfterReopen) {
  const std::string dir = test_dir("journal_recovery");
  {
    auto store = BadgeStore::open({.directory = dir}).value();
    ASSERT_TRUE(store->commit("amy", sample_unlocks()).ok());
    // no checkpoint: everything lives in the journal
    EXPECT_EQ(store->sequence(), 0u);
  }
  auto reopened = BadgeStore::open({.directory = dir}).value();
  EXPECT_EQ(reopened->student("amy").total_points, 35);
  EXPECT_EQ(reopened->student("amy").grants.size(), 2u);
}

TEST(BadgeStoreTest, CommitsSurviveReopenWithoutCheckpoint) {
  // Every commit() call counts, even one whose unlocks were all granted
  // before, and a reopen that replays the journal alone restores the count.
  const std::string dir = test_dir("commit_count");
  {
    auto store = BadgeStore::open({.directory = dir}).value();
    ASSERT_TRUE(store->commit("amy", sample_unlocks()).ok());
    ASSERT_TRUE(store->commit("amy", sample_unlocks()).ok());  // duplicates
    EXPECT_EQ(store->student("amy").commits, 2u);
  }
  {
    auto reopened = BadgeStore::open({.directory = dir}).value();
    EXPECT_EQ(reopened->student("amy").commits, 2u);
    EXPECT_EQ(reopened->student("amy").grants.size(), 2u);
    // After a checkpoint the count lives in the snapshot and the commits
    // after it in the compacted journal.
    ASSERT_TRUE(reopened->checkpoint().ok());
    ASSERT_TRUE(reopened->commit("amy", {}).ok());
  }
  auto again = BadgeStore::open({.directory = dir}).value();
  EXPECT_EQ(again->student("amy").commits, 3u);
  EXPECT_EQ(again->student("amy").total_points, 35);
}

TEST(BadgeStoreTest, StaleJournalAfterCheckpointDoesNotRecountCommits) {
  // A crash between the snapshot rename and the journal compaction leaves
  // the new snapshot beside the old journal, whose records the snapshot
  // already counts.
  const std::string dir = test_dir("stale_commits");
  std::string journal;
  {
    auto store = BadgeStore::open({.directory = dir}).value();
    ASSERT_TRUE(store->commit("amy", sample_unlocks()).ok());
    ASSERT_TRUE(store->commit("amy", sample_unlocks()).ok());
    journal = store->journal_path();
    fs::copy_file(journal, journal + ".stale");
    ASSERT_TRUE(store->checkpoint().ok());
  }
  fs::rename(journal + ".stale", journal);
  auto reopened = BadgeStore::open({.directory = dir}).value();
  EXPECT_EQ(reopened->student("amy").commits, 2u);
  EXPECT_EQ(reopened->student("amy").grants.size(), 2u);
}

TEST(BadgeStoreTest, CheckpointCompactsAndRecovers) {
  const std::string dir = test_dir("checkpoint");
  {
    auto store = BadgeStore::open({.directory = dir}).value();
    ASSERT_TRUE(store->commit("amy", sample_unlocks()).ok());
    ASSERT_TRUE(store->checkpoint().ok());
    EXPECT_GT(store->sequence(), 0u);
    // grants after the checkpoint live only in the compacted journal
    const std::vector<Unlock> later = {{seconds(20), 9, "late-badge", 5}};
    ASSERT_TRUE(store->commit("zoe", later).ok());
  }
  auto reopened = BadgeStore::open({.directory = dir}).value();
  EXPECT_EQ(reopened->student_count(), 2u);
  EXPECT_EQ(reopened->student("amy").total_points, 35);
  EXPECT_EQ(reopened->student("zoe").grants.size(), 1u);
}

TEST(BadgeStoreTest, TornJournalTailIsTrimmed) {
  const std::string dir = test_dir("torn_tail");
  std::string journal;
  {
    auto store = BadgeStore::open({.directory = dir}).value();
    ASSERT_TRUE(store->commit("amy", sample_unlocks()).ok());
    journal = store->journal_path();
  }
  {
    // A crash mid-append leaves a partial record at the tail.
    std::ofstream out(journal, std::ios::binary | std::ios::app);
    const char partial[] = {1, 0x2a, 0x2a};
    out.write(partial, sizeof partial);
  }
  {
    auto reopened = BadgeStore::open({.directory = dir});
    ASSERT_TRUE(reopened.ok()) << reopened.error().message;
    EXPECT_EQ(reopened.value()->student("amy").grants.size(), 2u);
    // The reopen trimmed the tail, so the next grant starts at a clean
    // record boundary instead of being glued onto the partial one.
    const std::vector<Unlock> later = {{seconds(20), 9, "late-badge", 5}};
    ASSERT_TRUE(reopened.value()->commit("amy", later).ok());
  }
  auto again = BadgeStore::open({.directory = dir});
  ASSERT_TRUE(again.ok()) << again.error().message;
  EXPECT_EQ(again.value()->student("amy").grants.size(), 3u);
}

TEST(BadgeStoreTest, JournalCutInsideHeaderAfterCheckpointReopens) {
  // A checkpoint truncates the journal before it writes the new header; a
  // crash in between leaves 0-11 bytes next to a complete snapshot. The
  // store must reopen from the snapshot and keep journaling.
  for (size_t cut = 0; cut < framed::kHeaderSize; ++cut) {
    SCOPED_TRACE("cut " + std::to_string(cut));
    const std::string dir = test_dir("torn_header");
    std::string journal;
    {
      auto store = BadgeStore::open({.directory = dir}).value();
      ASSERT_TRUE(store->commit("amy", sample_unlocks()).ok());
      ASSERT_TRUE(store->checkpoint().ok());
      journal = store->journal_path();
    }
    fs::resize_file(journal, cut);
    {
      auto reopened = BadgeStore::open({.directory = dir});
      ASSERT_TRUE(reopened.ok()) << reopened.error().message;
      EXPECT_EQ(reopened.value()->sequence(), 1u);
      EXPECT_EQ(reopened.value()->student("amy").total_points, 35);
      const std::vector<Unlock> later = {{seconds(20), 9, "late-badge", 5}};
      ASSERT_TRUE(reopened.value()->commit("zoe", later).ok());
    }
    auto again = BadgeStore::open({.directory = dir});
    ASSERT_TRUE(again.ok()) << again.error().message;
    EXPECT_EQ(again.value()->student("amy").grants.size(), 2u);
    EXPECT_EQ(again.value()->student("zoe").grants.size(), 1u);
  }
}

TEST(BadgeStoreTest, MidJournalCorruptionIsTypedError) {
  const std::string dir = test_dir("corrupt");
  std::string journal;
  {
    auto store = BadgeStore::open({.directory = dir}).value();
    ASSERT_TRUE(store->commit("amy", sample_unlocks()).ok());
    ASSERT_TRUE(store->commit("zoe", sample_unlocks()).ok());
    journal = store->journal_path();
  }
  {
    // Flip one payload byte of the record in the middle of the file: a CRC
    // failure that is not a torn tail must surface as corruption, never
    // silent loss.
    auto data = read_binary_file(journal);
    ASSERT_TRUE(data.ok());
    auto log = framed::parse_log(data.value(), kBadgeJournalMagic,
                                 kBadgeFormatVersion, "VGBJ badge journal");
    ASSERT_TRUE(log.ok());
    ASSERT_GT(log.value().records.size(), 4u);
    const framed::Record& middle =
        log.value().records[log.value().records.size() / 2];
    Bytes damaged = data.value();
    damaged[middle.offset + 5 + middle.payload.size() / 2] ^= 0x7f;
    ASSERT_TRUE(write_binary_file_atomic(journal, damaged).ok());
  }
  auto reopened = BadgeStore::open({.directory = dir});
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.error().code, ErrorCode::kCorruptData);
}

// --- leaderboard ------------------------------------------------------------

LeaderboardRow row(std::string id, i64 score, i64 badge_points, int badges) {
  LeaderboardRow r;
  r.student_id = std::move(id);
  r.score = score;
  r.badge_points = badge_points;
  r.badges = badges;
  return r;
}

TEST(LeaderboardTest, RanksByTotalThenBadgesThenId) {
  const Leaderboard board = build_leaderboard({
      row("carl", 50, 10, 1),   // 60 pts
      row("amy", 40, 40, 3),    // 80 pts
      row("zoe", 60, 20, 3),    // 80 pts — ties amy on points and badges
      row("bob", 70, 10, 2),    // 80 pts, fewer badges
  });
  ASSERT_EQ(board.rows.size(), 4u);
  EXPECT_EQ(board.rows[0].student_id, "amy");  // tie broken by id asc
  EXPECT_EQ(board.rows[0].rank, 1);
  EXPECT_EQ(board.rows[1].student_id, "zoe");
  EXPECT_EQ(board.rows[1].rank, 1);  // shared rank
  EXPECT_EQ(board.rows[2].student_id, "bob");
  EXPECT_EQ(board.rows[2].rank, 3);  // competition ranking skips
  EXPECT_EQ(board.rows[3].student_id, "carl");
  EXPECT_EQ(board.rows[3].rank, 4);
}

TEST(LeaderboardTest, FromStoreUsesDurableTotals) {
  const std::string dir = test_dir("board_store");
  auto store = BadgeStore::open({.directory = dir}).value();
  ASSERT_TRUE(store->commit("amy", sample_unlocks()).ok());
  const std::vector<Unlock> one = {{seconds(2), 1, "first-steps", 10}};
  ASSERT_TRUE(store->commit("zoe", one).ok());

  const Leaderboard board = leaderboard_from_store(*store);
  ASSERT_EQ(board.rows.size(), 2u);
  EXPECT_EQ(board.rows[0].student_id, "amy");
  EXPECT_EQ(board.rows[0].total_points(), 35);
  EXPECT_EQ(board.rows[0].badges, 2);
  EXPECT_EQ(board.rows[1].student_id, "zoe");

  const Json json = board.to_json();
  EXPECT_TRUE(json.is_object());
  EXPECT_FALSE(board.report().empty());
}

// --- classroom determinism contract ----------------------------------------

/// Canonical per-student unlock stream bytes for one classroom run.
std::vector<Bytes> unlock_streams(const ClassroomSummary& summary) {
  std::vector<Bytes> streams;
  streams.reserve(summary.students.size());
  for (const auto& s : summary.students) {
    streams.push_back(encode_unlock_log(s.unlocks));
  }
  return streams;
}

TEST(RewardsDeterminism, UnlockStreamsAreByteIdenticalAcrossConfigs) {
  ClassroomOptions options;
  options.student_count = 6;
  options.max_steps_per_student = 60;
  options.seed = 2024;
  options.reward_rules = &RewardRuleSet::standard();

  const ClassroomSummary baseline =
      simulate_classroom(quickstart_bundle(), options);
  const std::vector<Bytes> expected = unlock_streams(baseline);
  ASSERT_EQ(expected.size(), 6u);
  // The workload must actually unlock badges or the test proves nothing.
  size_t total_unlocks = 0;
  for (const auto& s : baseline.students) total_unlocks += s.unlocks.size();
  ASSERT_GT(total_unlocks, 0u);

  // Axis 1+2: worker-thread counts × metrics on/off.
  for (int threads : {1, 2, 8}) {
    for (bool metrics : {false, true}) {
      obs::ScopedEnable scoped(metrics);
      options.worker_threads = threads;
      const ClassroomSummary run =
          simulate_classroom(quickstart_bundle(), options);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " metrics=" + (metrics ? "on" : "off"));
      EXPECT_EQ(unlock_streams(run), expected);
    }
  }

  // Axis 3: save/resume splits — every student suspends to the store
  // mid-run and finishes in a resumed session. The restored evaluator
  // must continue the stream exactly where the captured one stopped.
  for (int threads : {0, 8}) {
    SessionStoreOptions store_options;
    store_options.directory =
        test_dir("determinism_store_" + std::to_string(threads));
    store_options.session.reward_rules = options.reward_rules;
    SessionStore store(store_options);
    ClassroomOptions split = options;
    split.worker_threads = threads;
    split.store = &store;
    const ClassroomSummary resumed =
        simulate_classroom(quickstart_bundle(), split);
    SCOPED_TRACE("store-backed threads=" + std::to_string(threads));
    for (const auto& s : resumed.students) EXPECT_TRUE(s.resumed);
    EXPECT_EQ(unlock_streams(resumed), expected);
  }
}

std::vector<u64> checked_in_corpus_seeds() {
  std::vector<u64> seeds;
  std::ifstream in(VGBL_GEN_SEEDS_PATH);
  EXPECT_TRUE(in.good()) << "missing " << VGBL_GEN_SEEDS_PATH;
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    seeds.push_back(std::strtoull(line.c_str(), nullptr, 10));
  }
  return seeds;
}

// The same unlock-stream byte-identity contract over the procedurally
// generated corpus: each course carries its OWN generated rule set (drawn
// across all 10 trigger kinds), so suspend/resume is exercised against
// heterogeneous rules, not just RewardRuleSet::standard(). Note the
// store-backed classroom path deliberately reseeds the resumed half
// (classroom.cpp), so the contract here is reruns and worker-thread
// placements of the *same* store-backed configuration — not equality with
// a straight-through run (gen_fuzz_test pins that via the snapshot path).
TEST(RewardsDeterminism, GeneratedCorpusUnlockStreamsSurviveSplitResume) {
  size_t total_unlocks = 0;
  for (u64 seed : checked_in_corpus_seeds()) {
    SCOPED_TRACE("corpus seed " + std::to_string(seed));
    auto course = gen::generate_course(gen::corpus_course_params(seed, 0),
                                       gen::corpus_course_seed(seed, 0));
    ASSERT_TRUE(course.ok()) << course.error().to_string();
    auto bundle = publish(course.value().project);
    ASSERT_TRUE(bundle.ok()) << bundle.error().to_string();

    ClassroomOptions options;
    options.student_count = 4;
    options.max_steps_per_student = 80;
    options.seed = seed;
    options.reward_rules = &course.value().reward_rules;

    std::vector<Bytes> expected;
    for (int threads : {0, 4}) {
      SessionStoreOptions store_options;
      store_options.directory = test_dir("gen_corpus_" + std::to_string(seed) +
                                         "_t" + std::to_string(threads));
      store_options.session.reward_rules = options.reward_rules;
      SessionStore store(store_options);
      ClassroomOptions split = options;
      split.worker_threads = threads;
      split.store = &store;
      const ClassroomSummary run = simulate_classroom(bundle.value(), split);
      SCOPED_TRACE("store-backed threads=" + std::to_string(threads));
      for (const auto& s : run.students) EXPECT_TRUE(s.resumed);
      if (expected.empty()) {
        expected = unlock_streams(run);
        for (const auto& s : run.students) total_unlocks += s.unlocks.size();
      } else {
        EXPECT_EQ(unlock_streams(run), expected);
      }
    }
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
  // The corpus must actually unlock badges or the test proves nothing.
  EXPECT_GT(total_unlocks, 0u);
}

TEST(RewardsDeterminism, ClassroomCommitsToBadgeStoreOnce) {
  const std::string dir = test_dir("classroom_store");
  auto badge_store = BadgeStore::open({.directory = dir}).value();

  ClassroomOptions options;
  options.student_count = 4;
  options.max_steps_per_student = 60;
  options.seed = 7;
  options.worker_threads = 4;
  options.reward_rules = &RewardRuleSet::standard();
  options.badge_store = badge_store.get();

  const ClassroomSummary summary =
      simulate_classroom(quickstart_bundle(), options);
  size_t expected_grants = 0;
  for (const auto& s : summary.students) expected_grants += s.unlocks.size();
  ASSERT_GT(expected_grants, 0u);

  size_t stored = 0;
  for (const auto& student : badge_store->all()) stored += student.grants.size();
  EXPECT_EQ(stored, expected_grants);

  // Re-running the same cohort over the same store must not double-grant.
  (void)simulate_classroom(quickstart_bundle(), options);
  stored = 0;
  for (const auto& student : badge_store->all()) stored += student.grants.size();
  EXPECT_EQ(stored, expected_grants);

  // Durability: a reopened store carries the same totals.
  badge_store.reset();
  auto reopened = BadgeStore::open({.directory = dir}).value();
  size_t recovered = 0;
  for (const auto& student : reopened->all()) recovered += student.grants.size();
  EXPECT_EQ(recovered, expected_grants);
}

TEST(RewardsDeterminism, LeaderboardMatchesStudentResults) {
  ClassroomOptions options;
  options.student_count = 5;
  options.max_steps_per_student = 60;
  options.seed = 11;
  options.reward_rules = &RewardRuleSet::standard();

  const ClassroomSummary summary =
      simulate_classroom(quickstart_bundle(), options);
  ASSERT_EQ(summary.leaderboard.rows.size(), 5u);
  i64 row_total = 0, student_total = 0;
  for (const auto& r : summary.leaderboard.rows) row_total += r.total_points();
  // row.score excludes badge bonuses and badge_points re-adds them, so the
  // leaderboard total equals the plain ledger total across students.
  for (const auto& s : summary.students) student_total += s.score;
  EXPECT_EQ(row_total, student_total);
  EXPECT_NE(summary.report().find("Leaderboard"), std::string::npos);

  // Rewards off: exactly the pre-rewards behaviour.
  options.reward_rules = nullptr;
  const ClassroomSummary plain =
      simulate_classroom(quickstart_bundle(), options);
  EXPECT_TRUE(plain.leaderboard.rows.empty());
  for (const auto& s : plain.students) EXPECT_TRUE(s.unlocks.empty());
  EXPECT_EQ(plain.report().find("Leaderboard"), std::string::npos);
}

}  // namespace
}  // namespace vgbl::rewards
