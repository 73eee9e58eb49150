// Session persistence: snapshot round-trip equality against uninterrupted
// runs, session-log crash recovery and compaction, corruption rejection,
// and the crash-recoverable session store end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#include "core/classroom.hpp"
#include "core/demo_games.hpp"
#include "core/platform.hpp"
#include "gen/generator.hpp"
#include "persist/journal.hpp"
#include "persist/session_store.hpp"
#include "persist/snapshot.hpp"
#include "rewards/badge_store.hpp"
#include "rewards/evaluator.hpp"
#include "util/fileio.hpp"
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
    EXPECT_EQ(reference.tracker().interaction_count(),
              second_half.tracker().interaction_count());
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

// --- session log records ----------------------------------------------------

TEST(SessionLogTest, RecordPayloadsRoundTrip) {
  const std::vector<ScriptStep> steps = {
      ScriptStep::click("door"), ScriptStep::use_item("key", "door"),
      ScriptStep::combine("torn_map", "lantern"),
      ScriptStep::wait(milliseconds(250)), ScriptStep::choose(3),
      ScriptStep::click_at({12, -34})};
  for (const ScriptStep& step : steps) {
    const Bytes payload = encode_log_payload("kim", encode_step(step));
    auto split = decode_log_payload(payload);
    ASSERT_TRUE(split.ok()) << split.error().to_string();
    EXPECT_EQ(split.value().student_id, "kim");
    auto decoded = decode_step(split.value().body);
    ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
    EXPECT_EQ(decoded.value().op, step.op);
    EXPECT_EQ(decoded.value().object_name, step.object_name);
    EXPECT_EQ(decoded.value().item_name, step.item_name);
    EXPECT_EQ(decoded.value().second_item_name, step.second_item_name);
    EXPECT_EQ(decoded.value().choice, step.choice);
    EXPECT_EQ(decoded.value().wait_time, step.wait_time);
    EXPECT_EQ(decoded.value().point, step.point);
  }
  // An open or remove record is the student id alone.
  auto bare = decode_log_payload(encode_log_payload("lee", {}));
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare.value().student_id, "lee");
  EXPECT_TRUE(bare.value().body.empty());
  EXPECT_FALSE(decode_log_payload(encode_log_payload("", {})).ok());
}

TEST(SessionLogTest, ReadBackByOffsetChecksTheCrc) {
  const std::string path = test_dir("log_read") + "/sessions.log";
  std::vector<u64> offsets;
  {
    auto log = framed::LogWriter::create(path, kJournalMagic, kJournalVersion);
    ASSERT_TRUE(log.ok());
    for (const char* name : {"a", "bb", "ccc"}) {
      offsets.push_back(log.value().size());
      ASSERT_TRUE(log.value()
                      .append(static_cast<u8>(LogRecordKind::kStep),
                              encode_log_payload(
                                  name, encode_step(ScriptStep::click(name))))
                      .ok());
    }
    // Reads and appends interleave on the one handle.
    auto middle = log.value().read(offsets[1]);
    ASSERT_TRUE(middle.ok()) << middle.error().to_string();
    EXPECT_EQ(decode_log_payload(middle.value().payload).value().student_id,
              "bb");
    ASSERT_TRUE(log.value().append(static_cast<u8>(LogRecordKind::kOpen),
                                   encode_log_payload("d", {})).ok());
    EXPECT_EQ(log.value().size(), fs::file_size(path));
    EXPECT_EQ(log.value().read(offsets[0] + 1).error().code,
              ErrorCode::kCorruptData);
    EXPECT_EQ(log.value().read(log.value().size()).error().code,
              ErrorCode::kCorruptData);
  }
  // A flipped payload byte fails the record's CRC on the way back in, and
  // a flipped length byte its header CRC.
  auto bytes = read_binary_file(path);
  ASSERT_TRUE(bytes.ok());
  auto parsed = framed::parse_log(bytes.value(), kJournalMagic,
                                  kJournalVersion, "VGSJ session log");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().records.size(), 4u);
  Bytes damaged = bytes.value();
  damaged[offsets[2] + framed::kRecordOverhead] ^= 0x01;
  damaged[offsets[0] + 4] ^= 0x01;  // the top byte of its length
  ASSERT_TRUE(write_binary_file_atomic(path, damaged).ok());
  auto reopened = framed::LogWriter::reopen(path, parsed.value());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().read(offsets[0]).error().code,
            ErrorCode::kCorruptData);
  EXPECT_TRUE(reopened.value().read(offsets[1]).ok());
  EXPECT_EQ(reopened.value().read(offsets[2]).error().code,
            ErrorCode::kCorruptData);
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

TEST(SessionStoreTest, TornLogTailRecoversCleanPrefix) {
  auto bundle = classroom_bundle();
  const InputScript script = classroom_script();
  const std::string dir = test_dir("store_torn");
  const size_t applied = 5;
  {
    SessionStore store({.directory = dir, .policy = {.every_steps = 0}});
    auto live = store.open_session(bundle, "pat");
    ASSERT_TRUE(live.ok());
    for (size_t i = 0; i < applied; ++i) {
      ASSERT_TRUE(live.value()->apply(script[i]).ok());
    }
    // Tear the log's last record, as a crash mid-append would.
    const auto size = fs::file_size(store.log_path());
    fs::resize_file(store.log_path(), size - 2);
  }
  SessionStore store({.directory = dir, .policy = {.every_steps = 0}});
  auto recovered = store.open_session(bundle, "pat");
  ASSERT_TRUE(recovered.ok()) << recovered.error().to_string();
  EXPECT_EQ(recovered.value()->replayed_steps(), applied - 1);
  // The log-replayed prefix matches a plain run of the same steps.
  SimClock ref_clock;
  GameSession reference(bundle, &ref_clock);
  ASSERT_TRUE(reference.start().ok());
  drive(reference, ref_clock, script, 0, applied - 1);
  expect_logs_equal(reference.event_log(),
                    recovered.value()->session().event_log());
}

TEST(SessionStoreTest, TornSnapshotRecordRecoversPreviousSnapshotAndTail) {
  // A crash in the middle of a checkpoint's append leaves the snapshot
  // record torn. The student's previous snapshot is then its latest, and
  // the steps logged after it replay on top.
  auto bundle = classroom_bundle();
  const InputScript script = classroom_script();
  const std::string dir = test_dir("store_torn_snapshot");
  size_t expected_events = 0;
  i64 expected_score = 0;
  {
    SessionStore store({.directory = dir, .policy = {.every_steps = 0}});
    auto live = store.open_session(bundle, "sam");
    ASSERT_TRUE(live.ok());
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(live.value()->apply(script[i]).ok());
    }
    ASSERT_TRUE(live.value()->checkpoint().ok());
    for (size_t i = 3; i < 5; ++i) {
      ASSERT_TRUE(live.value()->apply(script[i]).ok());
    }
    expected_events = live.value()->session().event_log().size();
    expected_score = live.value()->session().score();
    const auto before = fs::file_size(store.log_path());
    ASSERT_TRUE(live.value()->checkpoint().ok());
    const auto after = fs::file_size(store.log_path());
    fs::resize_file(store.log_path(), before + (after - before) / 2);
  }
  SessionStore store({.directory = dir, .policy = {.every_steps = 0}});
  auto recovered = store.open_session(bundle, "sam");
  ASSERT_TRUE(recovered.ok()) << recovered.error().to_string();
  EXPECT_EQ(recovered.value()->replayed_steps(), 2u);
  EXPECT_EQ(recovered.value()->step_count(), 5u);
  // Snapshot 1 plus its tail; the fold-in snapshot the reopen took is 2.
  EXPECT_EQ(recovered.value()->checkpoint_sequence(), 2u);
  EXPECT_EQ(recovered.value()->session().event_log().size(), expected_events);
  EXPECT_EQ(recovered.value()->session().score(), expected_score);
}

TEST(SessionStoreTest, CrashMidCompactionLeavesOldLogThatReopens) {
  // Compaction writes sessions.log.tmp and renames it over the log; a
  // crash before the rename leaves a partial .tmp beside the intact old
  // log. The store reopens from the old log and keeps logging.
  auto bundle = classroom_bundle();
  const InputScript script = classroom_script();
  for (const size_t tmp_bytes : {size_t{0}, size_t{7}, framed::kHeaderSize,
                                 size_t{100}}) {
    SCOPED_TRACE("tmp bytes " + std::to_string(tmp_bytes));
    const std::string dir = test_dir("store_stale_tmp");
    size_t expected_events = 0;
    {
      SessionStore store({.directory = dir, .policy = {.every_steps = 0}});
      auto live = store.open_session(bundle, "max");
      ASSERT_TRUE(live.ok());
      for (size_t i = 0; i < 4; ++i) {
        ASSERT_TRUE(live.value()->apply(script[i]).ok());
      }
      ASSERT_TRUE(live.value()->checkpoint().ok());
      expected_events = live.value()->session().event_log().size();
      auto log = read_binary_file(store.log_path());
      ASSERT_TRUE(log.ok());
      const size_t keep = std::min(tmp_bytes, log.value().size());
      ASSERT_TRUE(write_binary_file_atomic(
                      store.log_path() + ".tmp",
                      std::span(log.value().data(), keep))
                      .ok());
    }
    {
      SessionStore store({.directory = dir, .policy = {.every_steps = 0}});
      auto recovered = store.open_session(bundle, "max");
      ASSERT_TRUE(recovered.ok()) << recovered.error().to_string();
      EXPECT_TRUE(recovered.value()->resumed());
      EXPECT_EQ(recovered.value()->replayed_steps(), 0u);
      EXPECT_EQ(recovered.value()->step_count(), 4u);
      EXPECT_EQ(recovered.value()->session().event_log().size(),
                expected_events);
      ASSERT_TRUE(recovered.value()->apply(script[4]).ok());
    }
    SessionStore store({.directory = dir, .policy = {.every_steps = 0}});
    auto again = store.open_session(bundle, "max");
    ASSERT_TRUE(again.ok()) << again.error().to_string();
    EXPECT_EQ(again.value()->replayed_steps(), 1u);
  }
}

TEST(SessionStoreTest, LogCutInsideHeaderStartsEmpty) {
  // A crash between the log's creation and its header write leaves a
  // prefix of the header: an empty log, recreated by the first append.
  auto bundle = classroom_bundle();
  for (size_t cut = 0; cut < framed::kHeaderSize; ++cut) {
    SCOPED_TRACE("cut " + std::to_string(cut));
    const std::string dir = test_dir("store_torn_header");
    {
      SessionStore store({.directory = dir});
      ASSERT_TRUE(store.open_session(bundle, "max").ok());
      fs::resize_file(store.log_path(), cut);
    }
    {
      SessionStore store({.directory = dir});
      EXPECT_FALSE(store.has_session("max"));
      auto fresh = store.open_session(bundle, "max");
      ASSERT_TRUE(fresh.ok()) << fresh.error().to_string();
      EXPECT_FALSE(fresh.value()->resumed());
      ASSERT_TRUE(fresh.value()->apply(classroom_script()[0]).ok());
    }
    SessionStore store({.directory = dir});
    auto again = store.open_session(bundle, "max");
    ASSERT_TRUE(again.ok()) << again.error().to_string();
    EXPECT_EQ(again.value()->replayed_steps(), 1u);
  }
}

TEST(SessionStoreTest, AutoCheckpointPolicyLeavesShortTail) {
  auto bundle = classroom_bundle();
  const InputScript script = classroom_script();
  const std::string dir = test_dir("store_policy");
  {
    SessionStore store({.directory = dir, .policy = {.every_steps = 3}});
    auto live = store.open_session(bundle, "ada");
    ASSERT_TRUE(live.ok());
    for (size_t i = 0; i < 7; ++i) {
      ASSERT_TRUE(live.value()->apply(script[i]).ok());
    }
    EXPECT_GE(live.value()->checkpoints_taken(), 2u);
    EXPECT_EQ(live.value()->checkpoint_sequence(),
              live.value()->checkpoints_taken());
  }
  // After the checkpoint at step 6, at most one step follows the last
  // snapshot record.
  SessionStore store({.directory = dir, .policy = {.every_steps = 3}});
  auto reopened = store.open_session(bundle, "ada");
  ASSERT_TRUE(reopened.ok()) << reopened.error().to_string();
  EXPECT_LE(reopened.value()->replayed_steps(), 1u);
  EXPECT_EQ(reopened.value()->step_count(), 7u);
}

TEST(SessionStoreTest, DamagedRecordFailsEveryStudentTyped) {
  // One log serves the whole directory, so a record that fails its CRC
  // fails every student in it, as the badge store's one journal does.
  auto bundle = classroom_bundle();
  const std::string dir = test_dir("store_corrupt");
  {
    SessionStore store({.directory = dir});
    auto eve = store.open_session(bundle, "eve");
    ASSERT_TRUE(eve.ok());
    ASSERT_TRUE(eve.value()->apply(classroom_script()[0]).ok());
    ASSERT_TRUE(eve.value()->checkpoint().ok());
    auto fay = store.open_session(bundle, "fay");
    ASSERT_TRUE(fay.ok());
    ASSERT_TRUE(fay.value()->apply(classroom_script()[0]).ok());
  }
  const std::string log = (fs::path(dir) / "sessions.log").string();
  auto data = read_binary_file(log);
  ASSERT_TRUE(data.ok());
  Bytes damaged = data.value();
  damaged[damaged.size() / 2] ^= 0xFF;  // inside eve's snapshot record
  ASSERT_TRUE(write_binary_file_atomic(log, damaged).ok());

  SessionStore store({.directory = dir});
  for (const char* student : {"eve", "fay", "new"}) {
    auto opened = store.open_session(bundle, student);
    ASSERT_FALSE(opened.ok()) << student;
    EXPECT_EQ(opened.error().code, ErrorCode::kCorruptData) << student;
  }
  EXPECT_EQ(store.status().error().code, ErrorCode::kCorruptData);
  EXPECT_FALSE(store.has_session("fay"));
  EXPECT_EQ(store.remove_session("fay").error().code, ErrorCode::kCorruptData);
}

TEST(SessionStoreTest, DamagedLengthIsCorruptionNotATornTail) {
  // A length bit flipped so that the first record seems to run past the
  // end of the file must not read as a torn tail: trimming it would
  // delete every record after it, for every student in the directory.
  auto bundle = classroom_bundle();
  const std::string dir = test_dir("store_damaged_length");
  {
    SessionStore store({.directory = dir});
    for (const char* student : {"amy", "bob"}) {
      auto opened = store.open_session(bundle, student);
      ASSERT_TRUE(opened.ok());
      ASSERT_TRUE(opened.value()->checkpoint().ok());
    }
  }
  const std::string log = (fs::path(dir) / "sessions.log").string();
  auto data = read_binary_file(log);
  ASSERT_TRUE(data.ok());
  Bytes damaged = data.value();
  damaged[framed::kHeaderSize + 4] ^= 0x01;  // top byte of the length
  ASSERT_TRUE(write_binary_file_atomic(log, damaged).ok());

  SessionStore store({.directory = dir});
  EXPECT_EQ(store.status().error().code, ErrorCode::kCorruptData);
  EXPECT_EQ(store.latest_snapshot("bob").error().code,
            ErrorCode::kCorruptData);
  EXPECT_EQ(fs::file_size(log), damaged.size());  // nothing trimmed
}

TEST(SessionStoreTest, Format1DirectoryIsUnsupported) {
  // Per-student .snap/.journal pairs are the retired format-1 layout; this
  // build has no reader for it and says so instead of starting over.
  auto bundle = classroom_bundle();
  const std::string dir = test_dir("store_format1");
  SimClock clock;
  GameSession session(bundle, &clock);
  ASSERT_TRUE(session.start().ok());
  ASSERT_TRUE(write_binary_file_atomic(
                  dir + "/kim.snap",
                  snapshot_of(session, clock, bundle->meta.title))
                  .ok());
  ByteWriter journal;
  framed::put_header(journal, kJournalMagic, 1, 0);
  ASSERT_TRUE(
      write_binary_file_atomic(dir + "/kim.journal", journal.bytes()).ok());

  SessionStore store({.directory = dir});
  EXPECT_EQ(store.status().error().code, ErrorCode::kUnsupported);
  auto opened = store.open_session(bundle, "kim");
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.error().code, ErrorCode::kUnsupported);
  EXPECT_EQ(store.latest_snapshot("kim").error().code,
            ErrorCode::kUnsupported);
  EXPECT_TRUE(store.list_students().empty());
  EXPECT_FALSE(fs::exists(store.log_path()));

  // A badge store's own files beside an empty session store are not
  // format-1 session files.
  const std::string shared = test_dir("store_beside_badges");
  ASSERT_TRUE(rewards::BadgeStore::open({.directory = shared}).ok());
  SessionStore beside({.directory = shared});
  EXPECT_TRUE(beside.status().ok());
  EXPECT_TRUE(beside.open_session(bundle, "kim").ok());
}

TEST(SessionStoreTest, LatestSnapshotIsTheLastCheckpoint) {
  auto bundle = classroom_bundle();
  const InputScript script = classroom_script();
  const std::string dir = test_dir("store_latest");
  SessionStore store({.directory = dir, .policy = {.every_steps = 0}});
  auto live = store.open_session(bundle, "kim");
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(store.latest_snapshot("kim").error().code, ErrorCode::kNotFound);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(live.value()->apply(script[i]).ok());
  }
  ASSERT_TRUE(live.value()->checkpoint().ok());
  ASSERT_TRUE(live.value()->apply(script[4]).ok());
  auto snap = store.latest_snapshot("kim");
  ASSERT_TRUE(snap.ok()) << snap.error().to_string();
  auto decoded = decode_snapshot(snap.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().meta.sequence, 1u);
  EXPECT_EQ(decoded.value().meta.step_count, 4u);
  EXPECT_EQ(decoded.value().meta.student_id, "kim");
  EXPECT_EQ(store.latest_snapshot("nobody").error().code,
            ErrorCode::kNotFound);
}

TEST(SessionStoreTest, CompactionKeepsLogBoundedAndResumesBitExactly) {
  // Hundreds of checkpoints of one student: every older snapshot is dead,
  // so the log is rewritten whenever its dead bytes pass the bound, and a
  // resume after that reads back exactly the last snapshot and its tail.
  auto bundle = classroom_bundle();
  const InputScript script = classroom_script();
  const std::string dir = test_dir("store_compaction");
  const std::string log = (fs::path(dir) / "sessions.log").string();
  int checkpoints = 0;
  Bytes last_snapshot;
  std::vector<SessionEvent> live_log;
  u64 largest = 0;
  int shrinks = 0;
  {
    SessionStore store({.directory = dir, .policy = {.every_steps = 0}});
    auto other = store.open_session(bundle, "zed");  // a second live student
    ASSERT_TRUE(other.ok());
    ASSERT_TRUE(other.value()->apply(script[0]).ok());
    auto live = store.open_session(bundle, "kim");
    ASSERT_TRUE(live.ok());
    u64 previous = 0;
    for (; shrinks < 2; ++checkpoints) {
      ASSERT_LT(checkpoints, 20000) << "the log never compacted";
      if (static_cast<size_t>(checkpoints) < script.size() - 1) {
        ASSERT_TRUE(live.value()
                        ->apply(script[static_cast<size_t>(checkpoints)])
                        .ok());
      }
      ASSERT_TRUE(live.value()->checkpoint().ok())
          << "checkpoint " << checkpoints;
      const u64 size = fs::file_size(log);
      if (size < previous) ++shrinks;
      previous = size;
      largest = std::max(largest, size);
    }
    ASSERT_TRUE(live.value()->apply(script.back()).ok());
    last_snapshot = store.latest_snapshot("kim").value();
    live_log = live.value()->session().event_log();
  }
  EXPECT_GT(checkpoints, 300);
  // Dead bytes never pass the bound by more than one snapshot record.
  EXPECT_LT(largest, kLogCompactionBytes + 4 * last_snapshot.size());

  SessionStore store({.directory = dir, .policy = {.every_steps = 0}});
  EXPECT_EQ(store.list_students(), (std::vector<std::string>{"kim", "zed"}));
  auto snap = store.latest_snapshot("kim");
  ASSERT_TRUE(snap.ok()) << snap.error().to_string();
  EXPECT_EQ(snap.value(), last_snapshot);
  auto resumed = store.open_session(bundle, "kim");
  ASSERT_TRUE(resumed.ok()) << resumed.error().to_string();
  EXPECT_EQ(resumed.value()->replayed_steps(), 1u);
  EXPECT_EQ(resumed.value()->checkpoint_sequence(),
            static_cast<u64>(checkpoints) + 1);
  expect_logs_equal(live_log, resumed.value()->session().event_log());
  auto zed = store.open_session(bundle, "zed");
  ASSERT_TRUE(zed.ok()) << zed.error().to_string();
  EXPECT_EQ(zed.value()->replayed_steps(), 1u);
}

TEST(SessionStoreTest, ThreadsOnOwnStudentsMatchSequentialRun) {
  // Eight threads, each driving its own students, apply and checkpoint
  // through one store (one log, compacted along the way). Every student's
  // latest snapshot must equal the one a sequential run writes.
  auto bundle = classroom_bundle();
  const InputScript script = classroom_script();
  constexpr int kThreads = 8;
  constexpr int kStudentsPerThread = 2;
  constexpr int kCheckpoints = 100;
  const auto drive_student = [&](SessionStore& store, const std::string& id) {
    auto live = store.open_session(bundle, id);
    if (!live.ok()) return false;
    for (int i = 0; i < kCheckpoints; ++i) {
      if (static_cast<size_t>(i) < script.size()) {
        if (!live.value()->apply(script[static_cast<size_t>(i)]).ok()) {
          return false;
        }
      }
      if (!live.value()->checkpoint().ok()) return false;
    }
    return true;
  };
  const auto student = [](int t, int k) {
    return "t" + std::to_string(t) + "-s" + std::to_string(k);
  };

  SessionStore sequential({.directory = test_dir("store_threads_seq"),
                           .policy = {.every_steps = 4}});
  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < kStudentsPerThread; ++k) {
      ASSERT_TRUE(drive_student(sequential, student(t, k)));
    }
  }
  SessionStore shared({.directory = test_dir("store_threads"),
                       .policy = {.every_steps = 4}});
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kStudentsPerThread; ++k) {
        if (!drive_student(shared, student(t, k))) ++failures[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
  // Megabytes of snapshots went in; only compaction keeps the log this
  // small.
  EXPECT_LT(fs::file_size(shared.log_path()),
            kLogCompactionBytes + 64 * 1024);

  SessionStore reopened({.directory = shared.options().directory});
  EXPECT_EQ(reopened.list_students(), sequential.list_students());
  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < kStudentsPerThread; ++k) {
      auto want = sequential.latest_snapshot(student(t, k));
      auto got = reopened.latest_snapshot(student(t, k));
      ASSERT_TRUE(want.ok() && got.ok()) << student(t, k);
      EXPECT_EQ(got.value(), want.value()) << student(t, k);
    }
  }
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

/// Writes `content` as the log of the `dir` store directory, reopens the
/// store and opens each of `students`. Returns the sessions, or the first
/// error.
Result<std::vector<std::unique_ptr<PersistedSession>>> open_log_copy(
    const std::string& dir, std::span<const u8> content,
    const std::vector<std::string>& students) {
  EXPECT_TRUE(
      write_binary_file_atomic(dir + "/sessions.log", content).ok());
  SessionStore store({.directory = dir, .policy = {.every_steps = 0}});
  std::vector<std::unique_ptr<PersistedSession>> sessions;
  for (const std::string& student : students) {
    auto opened = store.open_session(classroom_bundle(), student);
    if (!opened.ok()) return opened.error();
    sessions.push_back(std::move(opened).value());
  }
  return sessions;
}

TEST(TypedErrorSweep, SessionLog) {
  // Two students share the log: amy checkpoints after two steps and logs a
  // third; bob logs two steps and never checkpoints.
  auto bundle = classroom_bundle();
  const InputScript script = classroom_script();
  const std::string dir = test_dir("sweep_log");
  {
    SessionStore store({.directory = dir, .policy = {.every_steps = 0}});
    auto amy = store.open_session(bundle, "amy");
    ASSERT_TRUE(amy.ok());
    auto bob = store.open_session(bundle, "bob");
    ASSERT_TRUE(bob.ok());
    for (size_t i = 0; i < 2; ++i) {
      ASSERT_TRUE(amy.value()->apply(script[i]).ok());
      ASSERT_TRUE(bob.value()->apply(script[i]).ok());
    }
    ASSERT_TRUE(amy.value()->checkpoint().ok());
    ASSERT_TRUE(amy.value()->apply(script[2]).ok());
  }
  auto full = read_binary_file(dir + "/sessions.log");
  ASSERT_TRUE(full.ok());
  const Bytes& bytes = full.value();
  // The event log of a plain run after k steps, k = 0..3.
  std::vector<std::vector<SessionEvent>> after;
  for (size_t k = 0; k <= 3; ++k) {
    SimClock clock;
    GameSession reference(bundle, &clock);
    EXPECT_TRUE(reference.start().ok());
    drive(reference, clock, script, 0, k);
    after.push_back(reference.event_log());
  }

  // A log that opens holds a clean prefix of what was written: every
  // student resumes exactly where a plain run of its first k logged steps
  // stands, for some k no larger than what it logged.
  const std::string copy = test_dir("sweep_log_copy");
  const std::vector<std::string> students = {"amy", "bob"};
  const SweepCounts counts = sweep_damage(bytes, [&](std::span<const u8> in) {
    auto opened = open_log_copy(copy, in, students);
    if (!opened.ok()) return Status(opened.error());
    for (size_t i = 0; i < students.size(); ++i) {
      const PersistedSession& ps = *opened.value()[i];
      const u64 logged = i == 0 ? 3 : 2;
      EXPECT_LE(ps.step_count(), logged) << students[i];
      if (ps.step_count() > logged) continue;
      const auto& events = ps.session().event_log();
      const auto& want = after[ps.step_count()];
      EXPECT_TRUE(events.size() == want.size() &&
                  std::equal(events.begin(), events.end(), want.begin(),
                             [](const SessionEvent& a, const SessionEvent& b) {
                               return a.when == b.when && a.text == b.text;
                             }))
          << students[i] << " after " << ps.step_count() << " steps";
    }
    return Status{};
  });
  EXPECT_EQ(counts.truncations_rejected, 0u);  // every cut is a torn tail
  // Every byte lies in the file header or under a record's header or
  // payload CRC, so no damaged byte opens.
  EXPECT_EQ(counts.flips_rejected, bytes.size());

  // A kind byte rewritten to another valid kind (a step read as an open,
  // a snapshot as a step, an open as a remove...) would silently drop or
  // reset a student's progress; the record header CRC covers the kind,
  // so each rewrite fails typed instead.
  auto parsed = framed::parse_log(bytes, kJournalMagic, kJournalVersion,
                                  "VGSJ session log");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().records.size(), 8u);  // 2 opens, 5 steps, 1 snapshot
  for (const framed::Record& rec : parsed.value().records) {
    for (u8 kind = static_cast<u8>(LogRecordKind::kStep);
         kind <= static_cast<u8>(LogRecordKind::kRemove); ++kind) {
      if (kind == rec.kind) continue;
      SCOPED_TRACE("record at byte " + std::to_string(rec.offset) +
                   " as kind " + std::to_string(kind));
      Bytes rewritten = bytes;
      rewritten[rec.offset] = kind;
      auto opened = open_log_copy(copy, rewritten, students);
      ASSERT_FALSE(opened.ok());
      EXPECT_EQ(opened.error().code, ErrorCode::kCorruptData);
    }
  }
}

TEST(SessionLogTest, ShortInputThatIsNotAHeaderPrefixIsCorrupt) {
  // Only a prefix of the expected header is an empty torn log (a crash
  // between the log's creation and its header write). Any other input
  // shorter than the header is corruption, to the parser and to the store.
  const std::string dir = test_dir("log_short");
  {
    SessionStore store({.directory = dir});
    ASSERT_TRUE(store.open_session(classroom_bundle(), "kim").ok());
  }
  auto full = read_binary_file(dir + "/sessions.log");
  ASSERT_TRUE(full.ok());
  const Bytes& bytes = full.value();
  const std::string copy = test_dir("log_short_copy");
  for (size_t len = 1; len < framed::kHeaderSize; ++len) {
    for (const size_t at : {size_t{0}, len - 1}) {
      SCOPED_TRACE("len " + std::to_string(len) + " flip at " +
                   std::to_string(at));
      Bytes damaged(bytes.begin(), bytes.begin() + static_cast<long>(len));
      damaged[at] ^= 0x01;
      auto parsed = framed::parse_log(damaged, kJournalMagic, kJournalVersion,
                                      "VGSJ session log");
      ASSERT_FALSE(parsed.ok());
      EXPECT_EQ(parsed.error().code, ErrorCode::kCorruptData);
      auto opened = open_log_copy(copy, damaged, {"kim"});
      ASSERT_FALSE(opened.ok());
      EXPECT_EQ(opened.error().code, ErrorCode::kCorruptData);
    }
  }
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

template <typename T>
ErrorCode code_of(const Result<T>& result) {
  return result.ok() ? ErrorCode::kOk : result.error().code;
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
  EXPECT_EQ(counts.flips_rejected, bytes.size());  // as for the session log

  // Rewriting a record's kind byte to another of the journal's kinds
  // (1 grant, 2 barrier, 3 commit) fails the record header CRC.
  auto parsed =
      framed::parse_log(bytes, rewards::kBadgeJournalMagic,
                        rewards::kBadgeFormatVersion, "badge journal");
  ASSERT_TRUE(parsed.ok());
  ASSERT_FALSE(parsed.value().records.empty());
  for (const framed::Record& rec : parsed.value().records) {
    for (u8 kind = 1; kind <= 3; ++kind) {
      if (kind == rec.kind) continue;
      Bytes rewritten = bytes;
      rewritten[rec.offset] = kind;
      EXPECT_EQ(
          code_of(open_damaged_store(fixture, "badges.journal", rewritten)),
          ErrorCode::kCorruptData)
          << "record at byte " << rec.offset << " as kind " << int{kind};
    }
  }
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
      {"session log", kJournalMagic, kJournalVersion,
       [](std::span<const u8> in) {
         return code_of(
             open_log_copy(test_dir("sweep_versions_log"), in, {"kim"}));
       }},
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
