// Tests for the extension features: the avatar (paper §4.3 "manipulate the
// avatar in a game scenario") and the quiz knowledge checks (§3.2
// knowledge delivery made measurable).
#include <gtest/gtest.h>

#include "core/demo_games.hpp"
#include "core/platform.hpp"
#include "dialogue/quiz.hpp"
#include "runtime/avatar.hpp"
#include "runtime/compositor.hpp"

namespace vgbl {
namespace {

// --- Avatar unit ----------------------------------------------------------------

TEST(AvatarTest, WalksAtConfiguredSpeed) {
  Avatar::Options options;
  options.speed_px_per_s = 100.0;
  Avatar avatar(options);
  avatar.set_position({0, 0});
  avatar.walk_to({200, 0}, 0);
  EXPECT_TRUE(avatar.walking());

  EXPECT_FALSE(avatar.update(seconds(1)));  // 100px of 200
  EXPECT_NEAR(avatar.position().x, 100, 2);
  EXPECT_TRUE(avatar.update(seconds(2)));  // arrival edge
  EXPECT_EQ(avatar.position(), (Point{200, 0}));
  EXPECT_FALSE(avatar.walking());
  EXPECT_FALSE(avatar.update(seconds(3)));  // idle: no more arrivals
}

TEST(AvatarTest, DiagonalWalkNormalisesSpeed) {
  Avatar::Options options;
  options.speed_px_per_s = 100.0;
  Avatar avatar(options);
  avatar.set_position({0, 0});
  avatar.walk_to({300, 400}, 0);  // 500px away
  avatar.update(seconds(1));
  // After 1s it moved ~100px along the diagonal (60, 80).
  EXPECT_NEAR(avatar.position().x, 60, 3);
  EXPECT_NEAR(avatar.position().y, 80, 3);
}

TEST(AvatarTest, ReachUsesNearestRectPoint) {
  Avatar::Options options;
  options.reach_px = 40;
  Avatar avatar(options);
  avatar.set_position({100, 100});
  EXPECT_TRUE(avatar.can_reach({100, 100, 10, 10}));   // on top of it
  EXPECT_TRUE(avatar.can_reach({130, 100, 10, 10}));   // 30px away
  EXPECT_FALSE(avatar.can_reach({180, 100, 10, 10}));  // 80px away
  EXPECT_TRUE(avatar.can_reach({60, 70, 20, 20}));     // diagonal, ~28px
}

TEST(AvatarTest, SetPositionCancelsWalk) {
  Avatar avatar;
  avatar.walk_to({100, 100}, 0);
  avatar.set_position({5, 5});
  EXPECT_FALSE(avatar.walking());
}

// --- Avatar in session -------------------------------------------------------------

std::shared_ptr<const GameBundle> quickstart_bundle() {
  static auto cached = publish(build_quickstart_project().value()).value();
  return cached;
}

SessionOptions avatar_options() {
  SessionOptions options;
  options.enable_avatar = true;
  options.avatar.speed_px_per_s = 200.0;
  return options;
}

void settle(GameSession& session, SimClock& clock, MicroTime duration) {
  MicroTime remaining = duration;
  while (remaining > 0) {
    clock.advance(milliseconds(25));
    remaining -= milliseconds(25);
    session.tick();
  }
}

TEST(AvatarSessionTest, GroundClickWalksAvatar) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock, avatar_options());
  (void)session.start();
  const Point start = session.avatar().position();
  const Point ground_canvas{200, 120 + 16};  // empty area, canvas coords
  ASSERT_TRUE(session.click(ground_canvas).ok());
  EXPECT_TRUE(session.avatar().walking());
  settle(session, clock, seconds(3));
  EXPECT_FALSE(session.avatar().walking());
  EXPECT_NE(session.avatar().position(), start);
}

TEST(AvatarSessionTest, FarObjectClickDefersUntilArrival) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock, avatar_options());
  (void)session.start();
  // The coin sits at (150,170); the avatar spawns at (40, 220) — out of
  // reach, so the click must defer.
  Point coin_canvas{};
  for (const auto* o : session.visible_objects()) {
    if (o->name == "coin") {
      const Point c = o->placement.rect.center();
      const Point origin = session.ui().layout().video_area.origin();
      coin_canvas = {c.x + origin.x, c.y + origin.y};
    }
  }
  ASSERT_TRUE(session.click(coin_canvas).ok());
  EXPECT_TRUE(session.interaction_pending());
  EXPECT_EQ(session.inventory().total_items(), 0);  // not yet picked up

  settle(session, clock, seconds(3));
  EXPECT_FALSE(session.interaction_pending());
  EXPECT_EQ(session.inventory().total_items(), 1);  // picked up on arrival
}

TEST(AvatarSessionTest, InReachObjectInteractsImmediately) {
  SimClock clock;
  SessionOptions options = avatar_options();
  options.avatar.reach_px = 10000;  // everything in reach
  GameSession session(quickstart_bundle(), &clock, options);
  (void)session.start();
  Point coin_canvas{};
  for (const auto* o : session.visible_objects()) {
    if (o->name == "coin") {
      const Point c = o->placement.rect.center();
      const Point origin = session.ui().layout().video_area.origin();
      coin_canvas = {c.x + origin.x, c.y + origin.y};
    }
  }
  ASSERT_TRUE(session.click(coin_canvas).ok());
  EXPECT_FALSE(session.interaction_pending());
  EXPECT_EQ(session.inventory().total_items(), 1);
}

TEST(AvatarSessionTest, AvatarDisabledKeepsDirectManipulation) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);  // defaults: no avatar
  (void)session.start();
  EXPECT_FALSE(session.options().enable_avatar);
  // Direct click picks up instantly regardless of distance.
  for (const auto* o : session.visible_objects()) {
    if (o->name == "coin") {
      const Point c = o->placement.rect.center();
      const Point origin = session.ui().layout().video_area.origin();
      ASSERT_TRUE(session.click({c.x + origin.x, c.y + origin.y}).ok());
    }
  }
  EXPECT_EQ(session.inventory().total_items(), 1);
}

TEST(AvatarSessionTest, AvatarRendersInCompositor) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock, avatar_options());
  (void)session.start();
  Compositor compositor;
  const Frame with_avatar = compositor.render(session);

  SimClock clock2;
  GameSession plain(quickstart_bundle(), &clock2);
  (void)plain.start();
  const Frame without = compositor.render(plain);
  EXPECT_NE(with_avatar, without);
}

// --- Quiz unit ------------------------------------------------------------------

Quiz demo_quiz() {
  Quiz quiz(QuizId{1}, "demo");
  quiz.add_question({"1+1?", {"1", "2", "3"}, 1, "basic addition", 10});
  quiz.add_question({"2*3?", {"5", "6"}, 1, "", 20});
  quiz.set_pass_fraction(0.5);
  return quiz;
}

TEST(QuizTest, ValidateCatchesProblems) {
  EXPECT_TRUE(demo_quiz().validate().empty());

  Quiz empty(QuizId{1}, "empty");
  EXPECT_FALSE(empty.validate().empty());

  Quiz bad(QuizId{2}, "bad");
  bad.add_question({"q?", {"only one"}, 0, "", 5});
  bad.add_question({"q2?", {"a", "b"}, 7, "", 5});
  EXPECT_EQ(bad.validate().size(), 2u);

  Quiz bad_pass = demo_quiz();
  bad_pass.set_pass_fraction(1.5);
  EXPECT_FALSE(bad_pass.validate().empty());
}

TEST(QuizTest, MaxPoints) { EXPECT_EQ(demo_quiz().max_points(), 30); }

TEST(QuizRunnerTest, PerfectRun) {
  const Quiz quiz = demo_quiz();
  QuizRunner runner(&quiz);
  EXPECT_FALSE(runner.finished());
  EXPECT_EQ(runner.current()->prompt, "1+1?");
  EXPECT_EQ(runner.answer(1).value(), true);
  EXPECT_EQ(runner.answer(1).value(), true);
  EXPECT_TRUE(runner.finished());
  const QuizOutcome outcome = runner.outcome();
  EXPECT_EQ(outcome.correct_count, 2);
  EXPECT_EQ(outcome.points_earned, 30);
  EXPECT_TRUE(outcome.passed);
}

TEST(QuizRunnerTest, PartialRunAndPassThreshold) {
  const Quiz quiz = demo_quiz();
  QuizRunner runner(&quiz);
  EXPECT_EQ(runner.answer(0).value(), false);  // wrong
  EXPECT_EQ(runner.answer(1).value(), true);   // right
  const QuizOutcome outcome = runner.outcome();
  EXPECT_EQ(outcome.correct_count, 1);
  EXPECT_EQ(outcome.points_earned, 20);
  EXPECT_TRUE(outcome.passed);  // 0.5 of questions correct = threshold
}

TEST(QuizRunnerTest, FailBelowThreshold) {
  Quiz quiz = demo_quiz();
  quiz.set_pass_fraction(0.9);
  QuizRunner runner(&quiz);
  (void)runner.answer(1);
  (void)runner.answer(0);
  EXPECT_FALSE(runner.outcome().passed);
}

TEST(QuizRunnerTest, ErrorsOnBadInput) {
  const Quiz quiz = demo_quiz();
  QuizRunner runner(&quiz);
  EXPECT_FALSE(runner.answer(9).ok());  // option out of range
  (void)runner.answer(1);
  (void)runner.answer(1);
  EXPECT_FALSE(runner.answer(0).ok());  // finished
}

// --- Quiz in session ----------------------------------------------------------------

std::shared_ptr<const GameBundle> quiz_bundle() {
  static auto cached = publish(build_science_quiz_project().value()).value();
  return cached;
}

TEST(QuizSessionTest, FullPassFlow) {
  SimClock clock;
  GameSession session(quiz_bundle(), &clock);
  ASSERT_TRUE(session.start().ok());
  ScriptRunner runner(&session, &clock);
  ASSERT_TRUE(runner.run({ScriptStep::click("TAKE QUIZ")}).ok());
  ASSERT_TRUE(session.in_quiz());
  ASSERT_TRUE(session.ui().quiz().has_value());
  EXPECT_EQ(session.ui().quiz()->total_questions, 3u);

  // Clicks are blocked mid-quiz.
  EXPECT_FALSE(session.click({50, 50}).ok());

  // Correct answers: 1, 0, 2.
  ASSERT_TRUE(session.answer_quiz(1).ok());
  ASSERT_TRUE(session.answer_quiz(0).ok());
  ASSERT_TRUE(session.answer_quiz(2).ok());
  EXPECT_FALSE(session.in_quiz());
  EXPECT_TRUE(session.flag("quiz_passed:hardware_basics"));
  EXPECT_TRUE(session.game_over());
  EXPECT_TRUE(session.succeeded());
  // 3 × 10 quiz points + 50 badge bonus.
  EXPECT_EQ(session.score(), 80);
  // Decisions recorded per question for the lecturer's report.
  EXPECT_EQ(session.tracker().decision_count(), 3u);
  EXPECT_EQ(session.tracker().reward_count(), 1u);
}

TEST(QuizSessionTest, FailAndRetake) {
  SimClock clock;
  GameSession session(quiz_bundle(), &clock);
  ASSERT_TRUE(session.start().ok());
  ScriptRunner runner(&session, &clock);
  ASSERT_TRUE(runner.run({ScriptStep::click("TAKE QUIZ"),
                          ScriptStep::answer_quiz(0),
                          ScriptStep::answer_quiz(1),
                          ScriptStep::answer_quiz(0)})
                  .ok());
  EXPECT_FALSE(session.game_over());
  EXPECT_TRUE(session.flag("quiz_failed:hardware_basics"));
  EXPECT_EQ(session.score(), 0);

  // Retake and pass.
  ASSERT_TRUE(runner.run({ScriptStep::click("TAKE QUIZ"),
                          ScriptStep::answer_quiz(1),
                          ScriptStep::answer_quiz(0),
                          ScriptStep::answer_quiz(2)})
                  .ok());
  EXPECT_TRUE(session.succeeded());
}

TEST(QuizSessionTest, ExplanationShownAfterAnswer) {
  SimClock clock;
  GameSession session(quiz_bundle(), &clock);
  (void)session.start();
  ScriptRunner runner(&session, &clock);
  (void)runner.run({ScriptStep::click("TAKE QUIZ")});
  (void)session.answer_quiz(1);
  ASSERT_TRUE(session.ui().message().has_value());
  EXPECT_NE(session.ui().message()->text.find("Correct!"), std::string::npos);
}

TEST(QuizSessionTest, QuizRendersInCompositor) {
  SimClock clock;
  GameSession session(quiz_bundle(), &clock);
  (void)session.start();
  ScriptRunner runner(&session, &clock);
  Compositor compositor;
  const Frame before = compositor.render(session);
  (void)runner.run({ScriptStep::click("TAKE QUIZ")});
  const Frame during = compositor.render(session);
  EXPECT_NE(before, during);
}

TEST(QuizSessionTest, SerializationRoundTripsQuizzes) {
  auto project = build_science_quiz_project().value();
  const std::string text = save_project_text(project);
  auto reloaded = load_project_text(text);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(save_project_text(reloaded.value()), text);
  ASSERT_EQ(reloaded.value().quizzes.size(), 1u);
  EXPECT_EQ(reloaded.value().quizzes[0].size(), 3u);
  EXPECT_EQ(reloaded.value().quizzes[0].questions()[2].correct_option, 2u);
}

TEST(QuizSessionTest, LintCatchesMissingQuiz) {
  auto project = build_science_quiz_project().value();
  project.quizzes.clear();
  bool found = false;
  for (const auto& issue : project.lint()) {
    found |= issue.message.find("starts missing quiz") != std::string::npos;
  }
  EXPECT_TRUE(found);
  EXPECT_FALSE(project.bundleable());
}

TEST(QuizSessionTest, BotsSurviveQuizzes) {
  SimClock clock;
  GameSession session(quiz_bundle(), &clock);
  (void)session.start();
  const BotResult result = run_bot(session, clock, BotPolicy::kRandom, 400, 3);
  // Random answering passes eventually (p(pass) per attempt ≥ 1/6).
  EXPECT_TRUE(result.completed);
}

}  // namespace
}  // namespace vgbl
