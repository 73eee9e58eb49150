// Session recording/replay tests: a recorded run replays to the identical
// outcome, and scripts round-trip through JSON.
#include <gtest/gtest.h>

#include "core/demo_games.hpp"
#include "core/platform.hpp"
#include "runtime/recorder.hpp"

namespace vgbl {
namespace {

std::shared_ptr<const GameBundle> classroom_bundle() {
  static auto cached = publish(build_classroom_repair_project().value()).value();
  return cached;
}

Point locate(GameSession& session, const std::string& name) {
  for (const auto* o : session.visible_objects()) {
    if (o->name == name) {
      const Point c = o->placement.rect.center();
      const Point origin = session.ui().layout().video_area.origin();
      return {c.x + origin.x, c.y + origin.y};
    }
  }
  return {};
}

TEST(RecorderTest, RecordsNamedSteps) {
  SimClock clock;
  GameSession session(classroom_bundle(), &clock);
  (void)session.start();
  SessionRecorder recorder(&session, &clock);

  ASSERT_TRUE(recorder.click(locate(session, "teacher")).ok());
  ASSERT_TRUE(recorder.choose_dialogue(0).ok());
  ASSERT_TRUE(recorder.advance_dialogue().ok());
  recorder.wait(milliseconds(500));
  ASSERT_TRUE(recorder.examine(locate(session, "computer")).ok());

  const InputScript& script = recorder.script();
  ASSERT_GE(script.size(), 4u);
  EXPECT_EQ(script[0].op, ScriptStep::Op::kClickObject);
  EXPECT_EQ(script[0].object_name, "teacher");
  EXPECT_EQ(script[1].op, ScriptStep::Op::kChooseDialogue);
  // The wait gap shows up before the examine step.
  bool has_wait = false;
  for (const auto& s : script) has_wait |= s.op == ScriptStep::Op::kWait;
  EXPECT_TRUE(has_wait);
}

TEST(RecorderTest, FailedInputsNotRecorded) {
  SimClock clock;
  GameSession session(classroom_bundle(), &clock);
  (void)session.start();
  SessionRecorder recorder(&session, &clock);
  EXPECT_FALSE(recorder.use_item_on("psu_part", "computer").ok());  // not held
  EXPECT_FALSE(recorder.drag_to_inventory("no_such_object").ok());
  EXPECT_TRUE(recorder.script().empty());
}

TEST(RecorderTest, RecordedRunReplaysIdentically) {
  // Record a full classroom-repair playthrough.
  SimClock clock;
  GameSession session(classroom_bundle(), &clock);
  (void)session.start();
  SessionRecorder recorder(&session, &clock);
  auto step = [&](Status st) { ASSERT_TRUE(st.ok()); };
  step(recorder.click(locate(session, "teacher")));
  step(recorder.choose_dialogue(0));
  step(recorder.advance_dialogue());
  step(recorder.examine(locate(session, "computer")));
  step(recorder.click(locate(session, "GO MARKET")));
  recorder.wait(milliseconds(700));
  step(recorder.click(locate(session, "psu_box")));
  step(recorder.click(locate(session, "BACK TO CLASS")));
  step(recorder.use_item_on("psu_part", "computer"));
  ASSERT_TRUE(session.succeeded());
  const i64 recorded_score = session.score();

  // Replay through the standard runner against a fresh session.
  auto replay = play_scripted(classroom_bundle(), recorder.script());
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay.value().succeeded);
  EXPECT_EQ(replay.value().score, recorded_score);
}

TEST(RecorderTest, ScriptJsonRoundTrip) {
  InputScript script = {
      ScriptStep::click("teacher"),
      ScriptStep::choose(1),
      ScriptStep::advance(),
      ScriptStep::examine("computer"),
      ScriptStep::drag_to_inventory("torn map"),
      ScriptStep::use_item("psu_part", "computer"),
      ScriptStep::combine("a", "b"),
      ScriptStep::answer_quiz(2),
      ScriptStep::wait(milliseconds(1234)),
      ScriptStep::click_at({17, 42}),
  };
  auto parsed = script_from_json(script_to_json(script));
  ASSERT_TRUE(parsed.ok());
  const InputScript& back = parsed.value();
  ASSERT_EQ(back.size(), script.size());
  for (size_t i = 0; i < script.size(); ++i) {
    EXPECT_EQ(back[i].op, script[i].op) << i;
    EXPECT_EQ(back[i].object_name, script[i].object_name) << i;
    EXPECT_EQ(back[i].item_name, script[i].item_name) << i;
    EXPECT_EQ(back[i].second_item_name, script[i].second_item_name) << i;
    EXPECT_EQ(back[i].choice, script[i].choice) << i;
    EXPECT_EQ(back[i].wait_time, script[i].wait_time) << i;
    EXPECT_EQ(back[i].point, script[i].point) << i;
  }
}

TEST(RecorderTest, ScriptJsonRejectsGarbage) {
  EXPECT_FALSE(script_from_json(Json(3)).ok());
  Json bad = Json::object();
  JsonArray steps;
  Json step = Json::object();
  step.mutable_object().set("op", Json("moonwalk"));
  steps.push_back(step);
  bad.mutable_object().set("steps", Json(std::move(steps)));
  EXPECT_FALSE(script_from_json(bad).ok());
}

}  // namespace
}  // namespace vgbl
