// Session persistence: snapshot round-trip equality against uninterrupted
// runs, write-ahead journal crash recovery, corruption rejection, and the
// crash-recoverable session store end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>

#include "core/classroom.hpp"
#include "core/demo_games.hpp"
#include "core/platform.hpp"
#include "gen/generator.hpp"
#include "persist/journal.hpp"
#include "persist/session_store.hpp"
#include "persist/snapshot.hpp"
#include "rewards/badge_store.hpp"
#include "rewards/evaluator.hpp"
#include "util/framed.hpp"

namespace vgbl {
namespace {

namespace fs = std::filesystem;

std::shared_ptr<const GameBundle> classroom_bundle() {
  static auto bundle =
      publish(build_classroom_repair_project().value()).value();
  return bundle;
}

std::shared_ptr<const GameBundle> treasure_bundle() {
  static auto bundle = publish(build_treasure_hunt_project().value()).value();
  return bundle;
}

std::shared_ptr<const GameBundle> quiz_bundle() {
  static auto bundle = publish(build_science_quiz_project().value()).value();
  return bundle;
}

InputScript classroom_script() {
  return {
      ScriptStep::click("teacher"),
      ScriptStep::choose(0),
      ScriptStep::advance(),
      ScriptStep::examine("computer"),
      ScriptStep::click("PSU INFO"),
      ScriptStep::click("GO MARKET"),
      ScriptStep::wait(milliseconds(500)),
      ScriptStep::click("psu_box"),
      ScriptStep::click("BACK TO CLASS"),
      ScriptStep::use_item("psu_part", "computer"),
  };
}

InputScript treasure_script() {
  return {
      ScriptStep::drag_to_inventory("torn map"),
      ScriptStep::click("TO CAVE"),
      ScriptStep::click("lantern"),
      ScriptStep::combine("torn_map", "lantern"),
      ScriptStep::click("TO BEACH"),
      ScriptStep::click("TO LIBRARY"),
      ScriptStep::click("librarian"),
      ScriptStep::choose(0),
      ScriptStep::advance(),
      ScriptStep::examine("bookshelf"),
      ScriptStep::click("old key"),
      ScriptStep::click("TO BEACH"),
      ScriptStep::click("TO CAVE"),
      ScriptStep::click("vault door"),
  };
}

InputScript quiz_script() {
  return {
      ScriptStep::click("TAKE QUIZ"),
      ScriptStep::answer_quiz(1),
      ScriptStep::answer_quiz(0),
      ScriptStep::answer_quiz(2),
  };
}

std::string test_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "vgbl_persist_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Drives script steps [from, to) with the exact pacing of
/// `ScriptRunner::run` (and `PersistedSession::apply`).
void drive(GameSession& session, SimClock& clock, const InputScript& script,
           size_t from, size_t to) {
  ScriptRunner runner(&session, &clock);
  for (size_t i = from; i < to; ++i) {
    if (session.game_over()) return;
    ASSERT_TRUE(runner.run_step(script[i]).ok())
        << "step " << i << " failed";
    clock.advance(ScriptRunner::Options{}.step_pause);
    session.tick();
  }
}

void expect_logs_equal(const std::vector<SessionEvent>& expected,
                       const std::vector<SessionEvent>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].when, actual[i].when) << "event " << i;
    EXPECT_EQ(expected[i].text, actual[i].text) << "event " << i;
  }
}

Bytes snapshot_of(GameSession& session, SimClock& clock,
                  const std::string& title) {
  SnapshotMeta meta;
  meta.sequence = 1;
  meta.sim_time = clock.now();
  meta.student_id = "tester";
  meta.bundle_title = title;
  return encode_snapshot(session.capture_state(), meta);
}

/// Core tentpole property: for every possible split point, snapshotting
/// mid-game (through the full binary codec) and driving a *fresh restored
/// session* with the remaining inputs produces a SessionEvent log
/// identical to the uninterrupted run.
void check_every_split(std::shared_ptr<const GameBundle> bundle,
                       const InputScript& script,
                       const rewards::RewardRuleSet* rules = nullptr) {
  const auto make_session = [&](SimClock* clock) {
    SessionOptions options;
    options.reward_rules = rules;
    return GameSession(bundle, clock, options);
  };
  SimClock ref_clock;
  GameSession reference = make_session(&ref_clock);
  ASSERT_TRUE(reference.start().ok());
  drive(reference, ref_clock, script, 0, script.size());
  ASSERT_FALSE(reference.event_log().empty());

  for (size_t split = 1; split < script.size(); ++split) {
    SimClock clock_a;
    GameSession first_half = make_session(&clock_a);
    ASSERT_TRUE(first_half.start().ok());
    drive(first_half, clock_a, script, 0, split);

    const Bytes snap =
        snapshot_of(first_half, clock_a, bundle->meta.title);
    auto decoded = decode_snapshot(snap);
    ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();

    SimClock clock_b;
    GameSession second_half = make_session(&clock_b);
    clock_b.advance_to(decoded.value().state.now);
    auto restored = second_half.restore_state(decoded.value().state);
    ASSERT_TRUE(restored.ok())
        << "split " << split << ": " << restored.error().to_string();
    drive(second_half, clock_b, script, split, script.size());

    SCOPED_TRACE("split " + std::to_string(split));
    expect_logs_equal(reference.event_log(), second_half.event_log());
    EXPECT_EQ(reference.score(), second_half.score());
    EXPECT_EQ(reference.game_over(), second_half.game_over());
    EXPECT_EQ(reference.succeeded(), second_half.succeeded());
    EXPECT_EQ(reference.flags(), second_half.flags());
    EXPECT_EQ(reference.current_scenario().value,
              second_half.current_scenario().value);
    EXPECT_EQ(reference.tracker().interactions().size(),
              second_half.tracker().interactions().size());
    if (rules != nullptr) {
      // The resumed session's unlock stream (REWD section feed) must be
      // byte-identical to the uninterrupted run's.
      EXPECT_EQ(rewards::encode_unlock_log(reference.rewards().unlock_log()),
                rewards::encode_unlock_log(second_half.rewards().unlock_log()));
    }
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

TEST(SnapshotTest, EverySplitPointMatchesUninterruptedRun_Classroom) {
  check_every_split(classroom_bundle(), classroom_script());
}

TEST(SnapshotTest, EverySplitPointMatchesUninterruptedRun_Treasure) {
  check_every_split(treasure_bundle(), treasure_script());
}

TEST(SnapshotTest, EverySplitPointMatchesUninterruptedRun_Quiz) {
  check_every_split(quiz_bundle(), quiz_script());
}

// Same property over the procedurally generated corpus (src/gen): one
// course per checked-in seed, driven by its completability witness with
// the course's own reward rules live, so REWD state and the unlock stream
// ride through every split point — not just the 3 hand-authored demos.
TEST(SnapshotTest, EverySplitPointMatchesUninterruptedRun_GeneratedCorpus) {
  for (u64 seed : checked_in_corpus_seeds()) {
    SCOPED_TRACE("corpus seed " + std::to_string(seed));
    auto course =
        gen::generate_course(gen::corpus_course_params(seed, 0),
                             gen::corpus_course_seed(seed, 0));
    ASSERT_TRUE(course.ok()) << course.error().to_string();
    auto bundle = publish(course.value().project);
    ASSERT_TRUE(bundle.ok()) << bundle.error().to_string();
    check_every_split(bundle.value(), course.value().solver,
                      &course.value().reward_rules);
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
}

TEST(SnapshotTest, RestoresMidDialogue) {
  auto bundle = classroom_bundle();
  SimClock clock;
  GameSession session(bundle, &clock);
  ASSERT_TRUE(session.start().ok());
  drive(session, clock, classroom_script(), 0, 1);  // click("teacher")
  ASSERT_TRUE(session.in_dialogue());

  auto decoded = decode_snapshot(snapshot_of(session, clock,
                                             bundle->meta.title));
  ASSERT_TRUE(decoded.ok());
  SimClock clock2;
  GameSession restored(bundle, &clock2);
  clock2.advance_to(decoded.value().state.now);
  ASSERT_TRUE(restored.restore_state(decoded.value().state).ok());
  EXPECT_TRUE(restored.in_dialogue());
  ASSERT_TRUE(restored.ui().dialogue().has_value());
  EXPECT_EQ(session.ui().dialogue()->speaker,
            restored.ui().dialogue()->speaker);
  EXPECT_EQ(session.ui().dialogue()->line, restored.ui().dialogue()->line);
  EXPECT_TRUE(restored.choose_dialogue(0).ok());
}

TEST(SnapshotTest, RestoresMidQuiz) {
  auto bundle = quiz_bundle();
  SimClock clock;
  GameSession session(bundle, &clock);
  ASSERT_TRUE(session.start().ok());
  drive(session, clock, quiz_script(), 0, 2);  // start quiz + one answer
  ASSERT_TRUE(session.in_quiz());

  auto decoded = decode_snapshot(snapshot_of(session, clock,
                                             bundle->meta.title));
  ASSERT_TRUE(decoded.ok());
  SimClock clock2;
  GameSession restored(bundle, &clock2);
  clock2.advance_to(decoded.value().state.now);
  ASSERT_TRUE(restored.restore_state(decoded.value().state).ok());
  EXPECT_TRUE(restored.in_quiz());
  ASSERT_TRUE(restored.ui().quiz().has_value());
  EXPECT_EQ(session.ui().quiz()->prompt, restored.ui().quiz()->prompt);
  EXPECT_EQ(session.ui().quiz()->question_number,
            restored.ui().quiz()->question_number);
}

TEST(SnapshotTest, InspectReportsMetaAndSections) {
  auto bundle = classroom_bundle();
  SimClock clock;
  GameSession session(bundle, &clock);
  ASSERT_TRUE(session.start().ok());
  drive(session, clock, classroom_script(), 0, 4);

  const Bytes snap = snapshot_of(session, clock, bundle->meta.title);
  auto info = inspect_snapshot(snap);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().version, kSnapshotVersion);
  EXPECT_EQ(info.value().meta.student_id, "tester");
  EXPECT_EQ(info.value().meta.bundle_title, bundle->meta.title);
  EXPECT_EQ(info.value().total_bytes, snap.size());
  ASSERT_EQ(info.value().sections.size(), 6u);
  EXPECT_EQ(info.value().sections[0].name, "META");
  EXPECT_EQ(info.value().sections[1].name, "CORE");
}

// --- journal ----------------------------------------------------------------

TEST(JournalTest, RoundTripsStepsAndBarriers) {
  const std::string dir = test_dir("journal_roundtrip");
  const std::string path = dir + "/log.journal";
  {
    auto writer = JournalWriter::create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().append_barrier(0, 0).ok());
    ASSERT_TRUE(writer.value().append_step(ScriptStep::click("door")).ok());
    ASSERT_TRUE(
        writer.value().append_step(ScriptStep::use_item("key", "door")).ok());
    ASSERT_TRUE(
        writer.value().append_step(ScriptStep::wait(milliseconds(250))).ok());
    ASSERT_TRUE(writer.value()
                    .append_step(ScriptStep::click_at({12, -34}))
                    .ok());
    ASSERT_TRUE(writer.value().append_barrier(7, 42).ok());
  }
  auto journal = read_journal_file(path);
  ASSERT_TRUE(journal.ok());
  EXPECT_FALSE(journal.value().torn_tail);
  const auto& records = journal.value().records;
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records[0].kind, JournalRecord::Kind::kBarrier);
  EXPECT_EQ(records[1].step.op, ScriptStep::Op::kClickObject);
  EXPECT_EQ(records[1].step.object_name, "door");
  EXPECT_EQ(records[2].step.op, ScriptStep::Op::kUseItemOn);
  EXPECT_EQ(records[2].step.item_name, "key");
  EXPECT_EQ(records[3].step.wait_time, milliseconds(250));
  EXPECT_EQ(records[4].step.point, (Point{12, -34}));
  EXPECT_EQ(records[5].barrier_sequence, 7u);
  EXPECT_EQ(records[5].barrier_step_count, 42u);
}

TEST(JournalTest, TornTailIsTrimmedNotFatal) {
  const std::string dir = test_dir("journal_torn");
  const std::string path = dir + "/log.journal";
  {
    auto writer = JournalWriter::create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().append_barrier(0, 0).ok());
    ASSERT_TRUE(writer.value().append_step(ScriptStep::click("a")).ok());
    ASSERT_TRUE(writer.value().append_step(ScriptStep::click("bb")).ok());
  }
  auto full = read_binary_file(path);
  ASSERT_TRUE(full.ok());
  const Bytes& bytes = full.value();

  // Every cut yields a clean prefix. A cut inside the file header is a
  // crash between the truncate and the header write: an empty torn log.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto parsed = parse_journal(std::span(bytes.data(), cut));
    ASSERT_TRUE(parsed.ok()) << "cut " << cut;
    EXPECT_LE(parsed.value().records.size(), 3u);
    EXPECT_LE(parsed.value().valid_bytes, cut);
    if (cut < framed::kHeaderSize) {
      EXPECT_TRUE(parsed.value().torn_tail) << "cut " << cut;
      EXPECT_TRUE(parsed.value().records.empty()) << "cut " << cut;
      EXPECT_EQ(parsed.value().valid_bytes, 0u) << "cut " << cut;
    }
  }

  // Short inputs that are not a prefix of the header stay corruption.
  for (size_t len = 1; len < framed::kHeaderSize; ++len) {
    for (const size_t at : {size_t{0}, len - 1}) {
      Bytes damaged(bytes.begin(), bytes.begin() + static_cast<long>(len));
      damaged[at] ^= 0x01;
      auto parsed = parse_journal(damaged);
      ASSERT_FALSE(parsed.ok()) << "len " << len << " flip at " << at;
      EXPECT_EQ(parsed.error().code, ErrorCode::kCorruptData);
    }
  }
}

TEST(JournalTest, CorruptedRecordIsRejectedWithTypedError) {
  const std::string dir = test_dir("journal_corrupt");
  const std::string path = dir + "/log.journal";
  {
    auto writer = JournalWriter::create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().append_step(ScriptStep::click("safe")).ok());
    ASSERT_TRUE(writer.value().append_step(ScriptStep::click("vault")).ok());
  }
  auto full = read_binary_file(path);
  ASSERT_TRUE(full.ok());
  Bytes damaged = full.value();
  damaged[damaged.size() / 2] ^= 0xFF;  // inside a fully-present record
  auto parsed = parse_journal(damaged);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::kCorruptData);
}

TEST(JournalTest, StepsAfterBarrierSelectsOnlyMatchingGeneration) {
  const std::string dir = test_dir("journal_barrier");
  const std::string path = dir + "/log.journal";
  {
    auto writer = JournalWriter::create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().append_barrier(3, 10).ok());
    ASSERT_TRUE(writer.value().append_step(ScriptStep::click("x")).ok());
    ASSERT_TRUE(writer.value().append_step(ScriptStep::click("y")).ok());
  }
  auto journal = read_journal_file(path);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(steps_after_barrier(journal.value(), 3).size(), 2u);
  // No barrier for sequence 4: the journal predates the snapshot, so
  // nothing may be replayed (the steps are already inside it).
  EXPECT_TRUE(steps_after_barrier(journal.value(), 4).empty());
}

// --- session store ----------------------------------------------------------

TEST(SessionStoreTest, FreshThenResumeMatchesUninterruptedRun) {
  auto bundle = classroom_bundle();
  const InputScript script = classroom_script();

  SimClock ref_clock;
  GameSession reference(bundle, &ref_clock);
  ASSERT_TRUE(reference.start().ok());
  drive(reference, ref_clock, script, 0, script.size());

  for (size_t split = 1; split < script.size(); ++split) {
    SCOPED_TRACE("split " + std::to_string(split));
    SessionStore store({.directory = test_dir("store_split")});

    auto first = store.open_session(bundle, "kim");
    ASSERT_TRUE(first.ok());
    EXPECT_FALSE(first.value()->resumed());
    for (size_t i = 0; i < split; ++i) {
      ASSERT_TRUE(first.value()->apply(script[i]).ok());
    }
    ASSERT_TRUE(first.value()->checkpoint().ok());
    first.value().reset();  // suspend

    auto second = store.open_session(bundle, "kim");
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(second.value()->resumed());
    for (size_t i = split; i < script.size(); ++i) {
      ASSERT_TRUE(second.value()->apply(script[i]).ok());
    }
    expect_logs_equal(reference.event_log(),
                      second.value()->session().event_log());
    EXPECT_EQ(reference.score(), second.value()->session().score());
    EXPECT_EQ(reference.succeeded(), second.value()->session().succeeded());
  }
}

TEST(SessionStoreTest, CrashBeforeCheckpointRecoversFromJournal) {
  auto bundle = treasure_bundle();
  const InputScript script = treasure_script();

  SimClock ref_clock;
  GameSession reference(bundle, &ref_clock);
  ASSERT_TRUE(reference.start().ok());
  drive(reference, ref_clock, script, 0, script.size());

  SessionStore store({.directory = test_dir("store_crash"),
                      .policy = {.every_steps = 0}});  // journal-only
  const size_t crash_at = 6;
  {
    auto live = store.open_session(bundle, "lee");
    ASSERT_TRUE(live.ok());
    for (size_t i = 0; i < crash_at; ++i) {
      ASSERT_TRUE(live.value()->apply(script[i]).ok());
    }
    EXPECT_EQ(live.value()->checkpoint_sequence(), 0u);
    // ... and the process dies here: no checkpoint was ever taken.
  }
  auto recovered = store.open_session(bundle, "lee");
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.value()->resumed());
  EXPECT_EQ(recovered.value()->replayed_steps(), crash_at);
  for (size_t i = crash_at; i < script.size(); ++i) {
    ASSERT_TRUE(recovered.value()->apply(script[i]).ok());
  }
  expect_logs_equal(reference.event_log(),
                    recovered.value()->session().event_log());
  EXPECT_EQ(reference.score(), recovered.value()->session().score());
  EXPECT_TRUE(recovered.value()->session().succeeded());
}

TEST(SessionStoreTest, TruncatedJournalTailRecoversCleanPrefix) {
  auto bundle = classroom_bundle();
  const InputScript script = classroom_script();
  SessionStore store({.directory = test_dir("store_torn"),
                      .policy = {.every_steps = 0}});
  const size_t applied = 5;
  {
    auto live = store.open_session(bundle, "pat");
    ASSERT_TRUE(live.ok());
    for (size_t i = 0; i < applied; ++i) {
      ASSERT_TRUE(live.value()->apply(script[i]).ok());
    }
  }
  // Tear the last journal record, as a crash mid-append would.
  const std::string journal = store.journal_path("pat");
  const auto size = fs::file_size(journal);
  fs::resize_file(journal, size - 2);

  auto recovered = store.open_session(bundle, "pat");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value()->replayed_steps(), applied - 1);
  // The journal-replayed prefix matches a plain run of the same steps.
  SimClock ref_clock;
  GameSession reference(bundle, &ref_clock);
  ASSERT_TRUE(reference.start().ok());
  drive(reference, ref_clock, script, 0, applied - 1);
  expect_logs_equal(reference.event_log(),
                    recovered.value()->session().event_log());
}

TEST(SessionStoreTest, StaleJournalAfterCheckpointIsNotDoubleApplied) {
  auto bundle = classroom_bundle();
  const InputScript script = classroom_script();
  SessionStore store({.directory = test_dir("store_stale"),
                      .policy = {.every_steps = 0}});
  const std::string journal = store.journal_path("sam");
  const std::string stale_copy = journal + ".stale";
  size_t expected_events = 0;
  i64 expected_score = 0;
  {
    auto live = store.open_session(bundle, "sam");
    ASSERT_TRUE(live.ok());
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(live.value()->apply(script[i]).ok());
    }
    fs::copy_file(journal, stale_copy);  // journal before compaction
    ASSERT_TRUE(live.value()->checkpoint().ok());
    expected_events = live.value()->session().event_log().size();
    expected_score = live.value()->session().score();
  }
  // Simulate a crash between the snapshot rename and the journal
  // compaction: new snapshot on disk, old journal (old barrier + steps).
  fs::rename(stale_copy, journal);

  auto recovered = store.open_session(bundle, "sam");
  ASSERT_TRUE(recovered.ok());
  // No barrier matches the snapshot's sequence, so nothing is replayed —
  // the journaled steps are already inside the snapshot.
  EXPECT_EQ(recovered.value()->replayed_steps(), 0u);
  EXPECT_EQ(recovered.value()->session().event_log().size(),
            expected_events);
  EXPECT_EQ(recovered.value()->session().score(), expected_score);
}

TEST(SessionStoreTest, JournalCutInsideHeaderAfterCheckpointReopens) {
  // Compaction truncates the journal before it writes the new header; a
  // crash in between leaves 0-11 bytes next to a complete snapshot. The
  // snapshot alone is then the whole state.
  auto bundle = classroom_bundle();
  const InputScript script = classroom_script();
  for (size_t cut = 0; cut < framed::kHeaderSize; ++cut) {
    SCOPED_TRACE("cut " + std::to_string(cut));
    SessionStore store({.directory = test_dir("store_torn_header"),
                        .policy = {.every_steps = 0}});
    size_t expected_events = 0;
    i64 expected_score = 0;
    {
      auto live = store.open_session(bundle, "max");
      ASSERT_TRUE(live.ok());
      for (size_t i = 0; i < 4; ++i) {
        ASSERT_TRUE(live.value()->apply(script[i]).ok());
      }
      ASSERT_TRUE(live.value()->checkpoint().ok());
      expected_events = live.value()->session().event_log().size();
      expected_score = live.value()->session().score();
    }
    fs::resize_file(store.journal_path("max"), cut);

    auto recovered = store.open_session(bundle, "max");
    ASSERT_TRUE(recovered.ok()) << recovered.error().to_string();
    EXPECT_TRUE(recovered.value()->resumed());
    EXPECT_EQ(recovered.value()->replayed_steps(), 0u);
    EXPECT_EQ(recovered.value()->step_count(), 4u);
    EXPECT_EQ(recovered.value()->session().event_log().size(),
              expected_events);
    EXPECT_EQ(recovered.value()->session().score(), expected_score);
    // The rewritten journal takes appends that survive the next reopen.
    ASSERT_TRUE(recovered.value()->apply(script[4]).ok());
    recovered.value().reset();
    auto again = store.open_session(bundle, "max");
    ASSERT_TRUE(again.ok()) << again.error().to_string();
    EXPECT_EQ(again.value()->replayed_steps(), 1u);
  }
}

TEST(SessionStoreTest, AutoCheckpointPolicyCompactsJournal) {
  auto bundle = classroom_bundle();
  const InputScript script = classroom_script();
  SessionStore store({.directory = test_dir("store_policy"),
                      .policy = {.every_steps = 3}});
  auto live = store.open_session(bundle, "ada");
  ASSERT_TRUE(live.ok());
  for (size_t i = 0; i < 7; ++i) {
    ASSERT_TRUE(live.value()->apply(script[i]).ok());
  }
  EXPECT_GE(live.value()->checkpoints_taken(), 2u);
  EXPECT_EQ(live.value()->checkpoint_sequence(),
            live.value()->checkpoints_taken());
  // After the checkpoint at step 6, the compacted journal holds the
  // barrier plus at most one journaled step.
  auto journal = read_journal_file(store.journal_path("ada"));
  ASSERT_TRUE(journal.ok());
  EXPECT_LE(journal.value().records.size(), 2u);
}

TEST(SessionStoreTest, CorruptSnapshotIsRejectedTyped) {
  auto bundle = classroom_bundle();
  SessionStore store({.directory = test_dir("store_corrupt")});
  {
    auto live = store.open_session(bundle, "eve");
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE(live.value()->apply(classroom_script()[0]).ok());
    ASSERT_TRUE(live.value()->checkpoint().ok());
  }
  auto data = read_binary_file(store.snapshot_path("eve"));
  ASSERT_TRUE(data.ok());
  Bytes damaged = data.value();
  damaged[damaged.size() / 2] ^= 0xFF;
  ASSERT_TRUE(
      write_binary_file_atomic(store.snapshot_path("eve"), damaged).ok());

  auto opened = store.open_session(bundle, "eve");
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.error().code, ErrorCode::kCorruptData);
}

TEST(SessionStoreTest, WrongBundleIsRejectedTyped) {
  SessionStore store({.directory = test_dir("store_wrong_bundle")});
  {
    auto live = store.open_session(classroom_bundle(), "zoe");
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE(live.value()->checkpoint().ok());
  }
  auto opened = store.open_session(treasure_bundle(), "zoe");
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.error().code, ErrorCode::kFailedPrecondition);
}

TEST(SessionStoreTest, ListHasRemove) {
  auto bundle = classroom_bundle();
  SessionStore store({.directory = test_dir("store_list")});
  EXPECT_FALSE(store.has_session("amy"));
  EXPECT_TRUE(store.list_students().empty());
  {
    auto a = store.open_session(bundle, "amy");
    ASSERT_TRUE(a.ok());
    auto b = store.open_session(bundle, "ben");
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(b.value()->checkpoint().ok());
  }
  EXPECT_TRUE(store.has_session("amy"));
  EXPECT_EQ(store.list_students(), (std::vector<std::string>{"amy", "ben"}));
  ASSERT_TRUE(store.remove_session("amy").ok());
  EXPECT_FALSE(store.has_session("amy"));
  EXPECT_EQ(store.list_students(), (std::vector<std::string>{"ben"}));

  EXPECT_FALSE(store.open_session(bundle, "").ok());
  EXPECT_FALSE(store.open_session(bundle, "../escape").ok());
}

TEST(SessionStoreTest, ClassroomSimulationSuspendsAndResumesStudents) {
  auto bundle = publish(build_quickstart_project().value()).value();
  SessionStore store({.directory = test_dir("store_classroom")});
  ClassroomOptions options;
  options.student_count = 4;
  options.max_steps_per_student = 60;
  options.store = &store;
  const ClassroomSummary summary = simulate_classroom(bundle, options);
  ASSERT_EQ(summary.students.size(), 4u);
  for (const auto& student : summary.students) {
    EXPECT_TRUE(student.resumed) << "student " << student.student_id;
  }
  EXPECT_GT(summary.completion_rate, 0.5);
  EXPECT_EQ(store.list_students().size(), 4u);
}

// --- typed-error sweeps over every durable format --------------------------

/// Feeds `decode` every strict prefix of `bytes` and every single-byte
/// flip (x ^ 0xFF) of it. `decode` returns a Result or Status and checks
/// what an accepted input holds. Each input must decode or fail with a
/// typed error, never crash: truncations with kCorruptData, flips with
/// kCorruptData or kUnsupported. Returns the rejection counts.
struct SweepCounts {
  size_t truncations_rejected = 0;
  size_t flips_rejected = 0;
};

template <typename Decode>
SweepCounts sweep_damage(const Bytes& bytes, Decode&& decode) {
  SweepCounts counts;
  for (size_t len = 0; len < bytes.size(); ++len) {
    const auto result = decode(std::span(bytes.data(), len));
    if (result.ok()) continue;
    ++counts.truncations_rejected;
    EXPECT_EQ(result.error().code, ErrorCode::kCorruptData)
        << "prefix of " << len << " bytes: " << result.error().to_string();
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    Bytes damaged = bytes;
    damaged[i] ^= 0xFF;
    const auto result = decode(std::span<const u8>(damaged));
    if (result.ok()) continue;
    ++counts.flips_rejected;
    EXPECT_TRUE(result.error().code == ErrorCode::kCorruptData ||
                result.error().code == ErrorCode::kUnsupported)
        << "flip at byte " << i << ": " << result.error().to_string();
  }
  return counts;
}

TEST(TypedErrorSweep, SessionSnapshot) {
  auto bundle = classroom_bundle();
  SimClock clock;
  GameSession session(bundle, &clock);
  ASSERT_TRUE(session.start().ok());
  drive(session, clock, classroom_script(), 0, 5);
  const Bytes snap = snapshot_of(session, clock, bundle->meta.title);

  const SweepCounts counts = sweep_damage(
      snap, [](std::span<const u8> in) { return decode_snapshot(in); });
  EXPECT_EQ(counts.truncations_rejected, snap.size());
  // Only flips inside the 4-byte tags of *optional* sections (ACTV, TRCK,
  // ELOG, REWD) can survive — the section is skipped as unknown;
  // everything else must be caught.
  EXPECT_GE(counts.flips_rejected + 16, snap.size());
  EXPECT_GT(counts.flips_rejected, snap.size() * 9 / 10);
}

TEST(TypedErrorSweep, SessionJournal) {
  const std::string path = test_dir("sweep_journal") + "/log.journal";
  {
    auto writer = JournalWriter::create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().append_barrier(2, 9).ok());
    ASSERT_TRUE(writer.value().append_step(ScriptStep::click("door")).ok());
    ASSERT_TRUE(
        writer.value().append_step(ScriptStep::use_item("key", "door")).ok());
    ASSERT_TRUE(writer.value().append_step(ScriptStep::choose(1)).ok());
  }
  auto full = read_binary_file(path);
  ASSERT_TRUE(full.ok());
  const Bytes& bytes = full.value();

  // A journal that opens holds a clean prefix of what was written: its
  // valid bytes are the original's and decode to at most its records.
  const SweepCounts counts =
      sweep_damage(bytes, [&bytes](std::span<const u8> in) {
        auto parsed = parse_journal(in);
        if (parsed.ok()) {
          const size_t valid = parsed.value().valid_bytes;
          EXPECT_TRUE(std::equal(in.begin(), in.begin() + valid,
                                 bytes.begin()));
          EXPECT_LE(parsed.value().records.size(), 4u);
        }
        return parsed;
      });
  EXPECT_EQ(counts.truncations_rejected, 0u);  // every cut is a torn tail
  EXPECT_GT(counts.flips_rejected, bytes.size() / 2);
}

/// A badge store with two students' grants in its journal, optionally
/// checkpointed first. Returns the store directory.
std::string badge_store_fixture(const std::string& name, bool checkpoint) {
  const std::string dir = test_dir(name);
  auto store = rewards::BadgeStore::open({.directory = dir}).value();
  const std::vector<rewards::Unlock> unlocks = {
      {seconds(2), 1, "first-steps", 10},
      {seconds(8), 4, "collector", 25},
      {seconds(9), 6, "explorer", 5}};
  EXPECT_TRUE(store->commit("amy", unlocks).ok());
  EXPECT_TRUE(store->commit("zoe", unlocks).ok());
  if (checkpoint) {
    EXPECT_TRUE(store->checkpoint().ok());
  }
  return dir;
}

/// Opens a copy of the `fixture` store whose `file` holds `content` and
/// returns every student record, or the open error.
Result<std::vector<rewards::StudentBadges>> open_damaged_store(
    const std::string& fixture, const std::string& file,
    std::span<const u8> content) {
  const std::string dir = fixture + ".damaged";
  fs::remove_all(dir);
  fs::copy(fixture, dir);
  EXPECT_TRUE(write_binary_file_atomic(dir + "/" + file, content).ok());
  auto store = rewards::BadgeStore::open({.directory = dir});
  if (!store.ok()) return store.error();
  return store.value()->all();
}

TEST(TypedErrorSweep, BadgeJournal) {
  const std::string fixture = badge_store_fixture("sweep_badge_journal", false);
  auto full = read_binary_file(fixture + "/badges.journal");
  ASSERT_TRUE(full.ok());
  const Bytes& bytes = full.value();
  auto intact = open_damaged_store(fixture, "badges.journal", bytes);
  ASSERT_TRUE(intact.ok());
  const std::vector<rewards::StudentBadges> written = intact.value();
  ASSERT_EQ(written.size(), 2u);

  // Grants are journaled in commit order, so a clean journal prefix leaves
  // every student with a prefix of their grants.
  const SweepCounts counts = sweep_damage(bytes, [&](std::span<const u8> in) {
    auto opened = open_damaged_store(fixture, "badges.journal", in);
    if (!opened.ok()) return opened;
    for (const rewards::StudentBadges& s : opened.value()) {
      const auto it = std::find_if(
          written.begin(), written.end(),
          [&s](const auto& w) { return w.student_id == s.student_id; });
      if (it == written.end()) {
        ADD_FAILURE() << "unknown student " << s.student_id;
        continue;
      }
      EXPECT_LE(s.grants.size(), it->grants.size());
      EXPECT_TRUE(
          std::equal(s.grants.begin(), s.grants.end(), it->grants.begin()))
          << s.student_id << " holds grants that were never written";
    }
    return opened;
  });
  EXPECT_EQ(counts.truncations_rejected, 0u);  // every cut is a torn tail
  EXPECT_GT(counts.flips_rejected, bytes.size() / 2);
}

TEST(TypedErrorSweep, BadgeSnapshot) {
  const std::string fixture = badge_store_fixture("sweep_badge_snap", true);
  auto full = read_binary_file(fixture + "/badges.snap");
  ASSERT_TRUE(full.ok());
  const Bytes& bytes = full.value();

  // The header and the body are both CRC-checked: nothing damaged opens.
  const SweepCounts counts = sweep_damage(bytes, [&](std::span<const u8> in) {
    return open_damaged_store(fixture, "badges.snap", in);
  });
  EXPECT_EQ(counts.truncations_rejected, bytes.size());
  EXPECT_EQ(counts.flips_rejected, bytes.size());
}

template <typename T>
ErrorCode code_of(const Result<T>& result) {
  return result.ok() ? ErrorCode::kOk : result.error().code;
}

TEST(TypedErrorSweep, WrongMagicAndFutureVersionAreTypedForEveryFormat) {
  const std::string fixture = badge_store_fixture("sweep_versions", true);
  const auto badge_file = [&fixture](const char* file) {
    return [&fixture, file](std::span<const u8> in) {
      return code_of(open_damaged_store(fixture, file, in));
    };
  };
  struct Format {
    const char* name;
    u32 magic;
    u16 version;
    std::function<ErrorCode(std::span<const u8>)> decode;
  };
  const Format formats[] = {
      {"session snapshot", kSnapshotMagic, kSnapshotVersion,
       [](std::span<const u8> in) { return code_of(decode_snapshot(in)); }},
      {"session journal", kJournalMagic, kJournalVersion,
       [](std::span<const u8> in) { return code_of(parse_journal(in)); }},
      {"badge snapshot", rewards::kBadgeSnapshotMagic,
       rewards::kBadgeFormatVersion, badge_file("badges.snap")},
      {"badge journal", rewards::kBadgeJournalMagic,
       rewards::kBadgeFormatVersion, badge_file("badges.journal")},
  };
  for (const Format& f : formats) {
    SCOPED_TRACE(f.name);
    // A validly framed header with a future version says "unsupported".
    ByteWriter future;
    framed::put_header(future, f.magic, f.version + 9, 0);
    EXPECT_EQ(f.decode(future.bytes()), ErrorCode::kUnsupported);
    ByteWriter foreign;
    framed::put_header(foreign, f.magic ^ 0x01000000, f.version, 0);
    EXPECT_EQ(f.decode(foreign.bytes()), ErrorCode::kCorruptData);
  }
}

}  // namespace
}  // namespace vgbl
