// Runtime tests: gestures, UI model, the game session's dispatch/default
// behaviours/timers/dialogue/save-games, the compositor and the text
// renderers, and the script runner.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/demo_games.hpp"
#include "core/platform.hpp"
#include "gen/generator.hpp"
#include "runtime/compositor.hpp"
#include "runtime/input.hpp"
#include "runtime/render_text.hpp"
#include "runtime/script.hpp"
#include "runtime/session.hpp"
#include "util/text.hpp"

namespace vgbl {
namespace {

std::shared_ptr<const GameBundle> quickstart_bundle() {
  static std::shared_ptr<const GameBundle> cached = [] {
    auto project = build_quickstart_project();
    EXPECT_TRUE(project.ok());
    auto bundle = publish(project.value());
    EXPECT_TRUE(bundle.ok());
    return bundle.value();
  }();
  return cached;
}

std::shared_ptr<const GameBundle> classroom_bundle() {
  static std::shared_ptr<const GameBundle> cached = [] {
    auto bundle = publish(build_classroom_repair_project().value());
    EXPECT_TRUE(bundle.ok());
    return bundle.value();
  }();
  return cached;
}

/// Canvas-space centre of a named object.
Point object_center(GameSession& session, const std::string& name) {
  for (const auto* o : session.visible_objects()) {
    if (o->name == name) {
      const Point c = o->placement.rect.center();
      const Point origin = session.ui().layout().video_area.origin();
      return {c.x + origin.x, c.y + origin.y};
    }
  }
  ADD_FAILURE() << "object '" << name << "' not visible";
  return {};
}

// --- GestureRecognizer ------------------------------------------------------------

TEST(GestureTest, ClickWithinSlop) {
  GestureRecognizer rec(4);
  EXPECT_FALSE(rec.feed({MouseEvent::Type::kDown, {10, 10}, MouseButton::kLeft, 0}));
  EXPECT_FALSE(rec.feed({MouseEvent::Type::kMove, {12, 11}, MouseButton::kLeft, 1}));
  auto g = rec.feed({MouseEvent::Type::kUp, {12, 11}, MouseButton::kLeft, 2});
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->type, Gesture::Type::kClick);
  EXPECT_EQ(g->position, (Point{10, 10}));
}

TEST(GestureTest, DragBeyondSlop) {
  GestureRecognizer rec(4);
  (void)rec.feed({MouseEvent::Type::kDown, {10, 10}, MouseButton::kLeft, 0});
  (void)rec.feed({MouseEvent::Type::kMove, {40, 30}, MouseButton::kLeft, 1});
  EXPECT_TRUE(rec.dragging());
  auto g = rec.feed({MouseEvent::Type::kUp, {60, 50}, MouseButton::kLeft, 2});
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->type, Gesture::Type::kDrag);
  EXPECT_EQ(g->position, (Point{10, 10}));
  EXPECT_EQ(g->drag_end, (Point{60, 50}));
}

TEST(GestureTest, RightClickIsExamine) {
  GestureRecognizer rec;
  (void)rec.feed({MouseEvent::Type::kDown, {5, 5}, MouseButton::kRight, 0});
  auto g = rec.feed({MouseEvent::Type::kUp, {5, 5}, MouseButton::kRight, 1});
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->type, Gesture::Type::kExamine);
}

TEST(GestureTest, UpWithoutDownIgnored) {
  GestureRecognizer rec;
  EXPECT_FALSE(rec.feed({MouseEvent::Type::kUp, {5, 5}, MouseButton::kLeft, 0}));
}

// --- UiState -----------------------------------------------------------------------

TEST(UiTest, StandardLayoutGeometry) {
  const UiLayout layout = UiLayout::standard({320, 240});
  EXPECT_EQ(layout.video_area.size(), (Size{320, 240}));
  EXPECT_EQ(layout.inventory_window.x, 320);
  EXPECT_GT(layout.canvas.width, 320);
  EXPECT_GT(layout.canvas.height, 240);
  // Regions do not overlap.
  EXPECT_FALSE(layout.video_area.intersects(layout.inventory_window));
  EXPECT_FALSE(layout.video_area.intersects(layout.message_area));
}

TEST(UiTest, MessageTimeout) {
  UiState ui(UiLayout::standard({320, 240}));
  ui.show_message({"hello"}, seconds(1), seconds(2));
  EXPECT_TRUE(ui.message().has_value());
  ui.update(seconds(2));
  EXPECT_TRUE(ui.message().has_value());
  ui.update(seconds(3));
  EXPECT_FALSE(ui.message().has_value());
}

TEST(UiTest, PersistentMessageStays) {
  UiState ui(UiLayout::standard({320, 240}));
  ui.show_message({"sticky"}, 0, 0);
  ui.update(seconds(100));
  EXPECT_TRUE(ui.message().has_value());
  ui.dismiss_message();
  EXPECT_FALSE(ui.message().has_value());
}

TEST(UiTest, InventoryWindowHitTest) {
  UiState ui(UiLayout::standard({320, 240}));
  EXPECT_TRUE(ui.in_inventory_window(ui.layout().inventory_window.center()));
  EXPECT_FALSE(ui.in_inventory_window({10, 100}));
}

// --- GameSession: basics ------------------------------------------------------------

TEST(SessionTest, StartEntersStartScenario) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  ASSERT_TRUE(session.start().ok());
  EXPECT_TRUE(session.current_scenario().valid());
  EXPECT_EQ(session.current_scenario_info()->name, "classroom");
  EXPECT_TRUE(session.visited(session.current_scenario()));
  EXPECT_FALSE(session.start().ok());  // double start rejected
}

TEST(SessionTest, InputBeforeStartRejected) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  EXPECT_FALSE(session.click({10, 10}).ok());
}

TEST(SessionTest, VideoFrameAvailable) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  (void)session.start();
  auto frame = session.current_video_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->size(), (Size{320, 240}));
}

TEST(SessionTest, PoollessDecodePresentsReaderFrames) {
  // decode_threads = 0 is the simulated cohorts' mode: GOPs decode inline
  // on the caller's thread. Every presented frame must equal the frame an
  // independent VideoReader decodes at the same index — first at every
  // frame period, then as a late consumer skipping three periods at once.
  SimClock clock;
  SessionOptions options;
  options.decode_threads = 0;
  const auto bundle = quickstart_bundle();
  GameSession session(bundle, &clock, options);
  ASSERT_TRUE(session.start().ok());
  const ContainerSegment* seg =
      bundle->video->segment_by_id(session.current_scenario_info()->segment);
  ASSERT_NE(seg, nullptr);
  VideoReader reader(*bundle->video);
  const int fps = bundle->video->fps();
  int checked = 0;
  for (int k = 0; k < seg->frame_count + 2;
       k += k < seg->frame_count / 2 ? 1 : 3) {
    clock.advance_to(static_cast<MicroTime>(k) * 1'000'000 / fps);
    auto frame = session.current_video_frame();
    ASSERT_TRUE(frame.has_value()) << "period " << k;
    const int index = seg->first_frame + session.current_frame_index();
    auto expected = reader.read_frame(index);
    ASSERT_TRUE(expected.ok()) << "frame " << index;
    EXPECT_EQ(*frame, expected.value()) << "frame " << index;
    ++checked;
  }
  EXPECT_GT(checked, seg->frame_count / 2);
}

TEST(SessionTest, ObjectAtFindsByCanvasPoint) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  (void)session.start();
  const Point coin = object_center(session, "coin");
  EXPECT_TRUE(session.object_at(coin).valid());
  // Outside the video area: nothing.
  EXPECT_FALSE(session.object_at({-5, -5}).valid());
  EXPECT_FALSE(
      session.object_at(session.ui().layout().inventory_window.center())
          .valid());
}

/// object_at against the oracle: a LinearHitTester over visible_objects()
/// in paint order, at a lattice of canvas points plus each scenario
/// object's centre, corners and the pixels just outside it.
void expect_hits_match_oracle(GameSession& session, i32 step,
                              const std::string& where) {
  std::vector<HitTarget> targets;
  for (const InteractiveObject* o : session.visible_objects()) {
    targets.push_back({o->id, o->placement.rect, o->placement.z, true});
  }
  LinearHitTester oracle;
  oracle.rebuild(targets);
  const UiLayout& layout = session.ui().layout();
  const Point origin = layout.video_area.origin();
  std::vector<Point> probes;
  for (i32 y = -3; y < layout.canvas.height + 3; y += step) {
    for (i32 x = -3; x < layout.canvas.width + 3; x += step) {
      probes.push_back({x, y});
    }
  }
  for (const InteractiveObject& o : session.bundle().objects) {
    if (o.scenario != session.current_scenario()) continue;
    const Rect r = o.placement.rect;
    for (const Point v : {r.center(), Point{r.x, r.y},
                          Point{r.right() - 1, r.bottom() - 1},
                          Point{r.x - 1, r.y}, Point{r.right(), r.bottom()}}) {
      probes.push_back({v.x + origin.x, v.y + origin.y});
    }
  }
  int mismatches = 0;
  for (const Point p : probes) {
    const ObjectId want = layout.video_area.contains(p)
                              ? oracle.hit({p.x - origin.x, p.y - origin.y})
                              : ObjectId{};
    if (session.object_at(p) != want) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0) << where << " (" << probes.size() << " probes)";
}

std::vector<std::pair<std::string, std::shared_ptr<const GameBundle>>>
oracle_bundles() {
  std::vector<std::pair<std::string, std::shared_ptr<const GameBundle>>> out;
  out.emplace_back("demo:quickstart", quickstart_bundle());
  out.emplace_back("demo:classroom", classroom_bundle());
  out.emplace_back("demo:treasure",
                   publish(build_treasure_hunt_project().value()).value());
  out.emplace_back("demo:quiz",
                   publish(build_science_quiz_project().value()).value());
  std::ifstream in(VGBL_GEN_SEEDS_PATH);
  EXPECT_TRUE(in.good()) << "missing " << VGBL_GEN_SEEDS_PATH;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream row(line);
    u64 seed = 0;
    if (!(row >> seed)) continue;
    auto course = gen::generate_course(gen::corpus_course_params(seed, 0),
                                       gen::corpus_course_seed(seed, 0));
    EXPECT_TRUE(course.ok()) << "seed " << seed;
    if (!course.ok()) continue;
    auto bundle = publish(course.value().project);
    EXPECT_TRUE(bundle.ok()) << "seed " << seed;
    if (bundle.ok()) out.emplace_back("gen:" + std::to_string(seed), bundle.value());
  }
  return out;
}

TEST(SessionTest, ObjectAtMatchesLinearOracleOnEveryScenario) {
  // Every scenario of every demo and gen-corpus bundle, entered through a
  // save-state jump, at the first, middle and last frame of its segment,
  // under three visibility states: as authored, every other object hidden,
  // and every object revealed (the overrides hide/reveal actions set).
  for (const auto& [name, bundle] : oracle_bundles()) {
    for (const Scenario& scenario : bundle->graph.scenarios()) {
      const ContainerSegment* seg = bundle->video->segment_by_id(scenario.segment);
      ASSERT_NE(seg, nullptr);
      const ScenarioObjects* scene = bundle->objects_of(scenario.id);
      ASSERT_NE(scene, nullptr);
      for (int mode = 0; mode < 3; ++mode) {
        JsonArray overrides;
        for (size_t k = 0; k < scene->paint_order.size() && mode > 0; ++k) {
          Json oj = Json::object();
          oj.mutable_object().set(
              "object", Json(bundle->objects[scene->paint_order[k]].id.value));
          oj.mutable_object().set("visible", Json(mode == 2 || k % 2 == 0));
          overrides.push_back(std::move(oj));
        }
        for (const int frame : {0, seg->frame_count / 2, seg->frame_count - 1}) {
          SimClock clock;
          GameSession session(bundle, &clock);
          ASSERT_TRUE(session.start().ok());
          Json snap = session.save_state();
          snap.mutable_object().set("current_scenario", Json(scenario.id.value));
          snap.mutable_object().set("game_over", Json(false));
          snap.mutable_object().set("visibility", Json(overrides));
          ASSERT_TRUE(session.load_state(snap).ok());
          const MicroTime fps = bundle->video->fps();
          clock.advance((static_cast<MicroTime>(frame) * 1'000'000 + fps - 1) /
                        fps);
          ASSERT_EQ(session.current_frame_index(),
                    std::min(frame, std::max(0, seg->frame_count - 1)))
              << name << " scenario '" << scenario.name << "'";
          expect_hits_match_oracle(
              session, 5,
              name + " scenario '" + scenario.name + "' visibility mode " +
                  std::to_string(mode) + " frame " + std::to_string(frame));
        }
      }
    }
  }
}

TEST(SessionTest, ObjectAtMatchesLinearOracleThroughBotPlay) {
  // The same oracle after every step of bot play, where pickups hide
  // objects and designer rules reveal and hide them.
  for (const auto& [name, bundle] : oracle_bundles()) {
    for (const BotPolicy policy : {BotPolicy::kExplorer, BotPolicy::kRandom}) {
      SimClock clock;
      SessionOptions options;
      options.decode_threads = 0;
      GameSession session(bundle, &clock, options);
      ASSERT_TRUE(session.start().ok());
      BotDriver driver(session, clock, policy, /*max_steps=*/40, /*seed=*/3);
      int step = 0;
      do {
        expect_hits_match_oracle(session, 9,
                                 name + " step " + std::to_string(step++));
      } while (driver.run_iteration());
    }
  }
}

// --- Default behaviours ----------------------------------------------------------

TEST(SessionDefaultsTest, ClickItemPicksItUp) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  (void)session.start();
  ASSERT_TRUE(session.click(object_center(session, "coin")).ok());
  EXPECT_EQ(session.inventory().total_items(), 1);
  EXPECT_EQ(session.score(), 10);  // coin bonus_points
  // Object hidden after pickup.
  for (const auto* o : session.visible_objects()) {
    EXPECT_NE(o->name, "coin");
  }
}

TEST(SessionDefaultsTest, ExamineShowsDescription) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  (void)session.start();
  ASSERT_TRUE(session.examine(object_center(session, "coin")).ok());
  ASSERT_TRUE(session.ui().message().has_value());
  EXPECT_NE(session.ui().message()->text.find("coin"), std::string::npos);
}

TEST(SessionDefaultsTest, ClickNpcStartsDialogue) {
  SimClock clock;
  GameSession session(classroom_bundle(), &clock);
  (void)session.start();
  ASSERT_TRUE(session.click(object_center(session, "teacher")).ok());
  EXPECT_TRUE(session.in_dialogue());
  ASSERT_TRUE(session.ui().dialogue().has_value());
  EXPECT_EQ(session.ui().dialogue()->speaker, "Teacher");
  EXPECT_EQ(session.ui().dialogue()->choices.size(), 2u);
}

TEST(SessionDefaultsTest, DragDraggableToInventory) {
  auto bundle = publish(build_treasure_hunt_project().value()).value();
  SimClock clock;
  GameSession session(bundle, &clock);
  (void)session.start();
  const Point map = object_center(session, "torn map");
  const Point inv = session.ui().layout().inventory_window.center();
  ASSERT_TRUE(session.drag(map, inv).ok());
  EXPECT_EQ(session.inventory().total_items(), 1);
}

TEST(SessionDefaultsTest, DragToNowhereDoesNothing) {
  auto bundle = publish(build_treasure_hunt_project().value()).value();
  SimClock clock;
  GameSession session(bundle, &clock);
  (void)session.start();
  const Point map = object_center(session, "torn map");
  ASSERT_TRUE(session.drag(map, {10, 10}).ok());
  EXPECT_EQ(session.inventory().total_items(), 0);
}

TEST(SessionDefaultsTest, DefaultsCanBeDisabled) {
  SimClock clock;
  SessionOptions options;
  options.enable_default_behaviours = false;
  GameSession session(quickstart_bundle(), &clock, options);
  (void)session.start();
  ASSERT_TRUE(session.click(object_center(session, "coin")).ok());
  EXPECT_EQ(session.inventory().total_items(), 0);
}

// --- Rules & state ----------------------------------------------------------------

TEST(SessionRulesTest, ButtonRuleSwitchesScenario) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  (void)session.start();
  const ScenarioId before = session.current_scenario();
  ASSERT_TRUE(session.click(object_center(session, "FINISH")).ok());
  EXPECT_NE(session.current_scenario(), before);
  EXPECT_EQ(session.current_scenario_info()->name, "beach");
  // beach is terminal: game over, success.
  EXPECT_TRUE(session.game_over());
  EXPECT_TRUE(session.succeeded());
}

TEST(SessionRulesTest, InputAfterGameOverRejected) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  (void)session.start();
  (void)session.click(object_center(session, "FINISH"));
  ASSERT_TRUE(session.game_over());
  EXPECT_FALSE(session.click({50, 50}).ok());
  EXPECT_FALSE(session.examine({50, 50}).ok());
}

TEST(SessionRulesTest, GuardedRuleNeedsState) {
  SimClock clock;
  GameSession session(classroom_bundle(), &clock);
  (void)session.start();
  // Examining the computer before accepting the mission: the diagnose rule
  // is guarded on mission_accepted, so the default examine fires instead.
  ASSERT_TRUE(session.examine(object_center(session, "computer")).ok());
  EXPECT_FALSE(session.flag("found_problem"));
  ASSERT_TRUE(session.ui().message().has_value());
  EXPECT_NE(session.ui().message()->text.find("does not power on"),
            std::string::npos);
}

TEST(SessionRulesTest, FullClassroomFlowViaDirectCalls) {
  SimClock clock;
  GameSession session(classroom_bundle(), &clock);
  (void)session.start();

  // Talk to the teacher, accept.
  ASSERT_TRUE(session.click(object_center(session, "teacher")).ok());
  ASSERT_TRUE(session.choose_dialogue(0).ok());
  ASSERT_TRUE(session.advance_dialogue().ok());
  EXPECT_FALSE(session.in_dialogue());
  EXPECT_TRUE(session.flag("mission_accepted"));

  // Diagnose.
  ASSERT_TRUE(session.examine(object_center(session, "computer")).ok());
  EXPECT_TRUE(session.flag("found_problem"));

  // Market: buy the part.
  ASSERT_TRUE(session.click(object_center(session, "GO MARKET")).ok());
  EXPECT_EQ(session.current_scenario_info()->name, "market");
  ASSERT_TRUE(session.click(object_center(session, "psu_box")).ok());
  const ItemDef* part = session.bundle().items.find_by_name("psu_part");
  ASSERT_NE(part, nullptr);
  EXPECT_TRUE(session.inventory().has(part->id));

  // Back, install.
  ASSERT_TRUE(session.click(object_center(session, "BACK TO CLASS")).ok());
  ASSERT_TRUE(
      session.use_item_on(part->id, object_center(session, "computer")).ok());
  EXPECT_TRUE(session.game_over());
  EXPECT_TRUE(session.succeeded());
  EXPECT_FALSE(session.inventory().has(part->id));  // consumed
  const ItemDef* badge = session.bundle().items.find_by_name("repair_badge");
  EXPECT_TRUE(session.inventory().has(badge->id));  // reward in backpack
  EXPECT_EQ(session.score(), 5 + 10 + 10 + 100 + 50);
}

TEST(SessionRulesTest, OnceRulesFireOnce) {
  SimClock clock;
  GameSession session(classroom_bundle(), &clock);
  (void)session.start();
  (void)session.click(object_center(session, "teacher"));
  (void)session.choose_dialogue(0);
  (void)session.advance_dialogue();
  (void)session.examine(object_center(session, "computer"));
  const i64 after_first = session.score();
  // Examine again: diagnose is once-only, default examine takes over.
  (void)session.examine(object_center(session, "computer"));
  EXPECT_EQ(session.score(), after_first);
}

TEST(SessionRulesTest, UseItemRequiresHolding) {
  SimClock clock;
  GameSession session(classroom_bundle(), &clock);
  (void)session.start();
  const ItemDef* part = session.bundle().items.find_by_name("psu_part");
  EXPECT_FALSE(
      session.use_item_on(part->id, object_center(session, "computer")).ok());
}

TEST(SessionRulesTest, OpenUrlGoesThroughCatalog) {
  SimClock clock;
  GameSession session(classroom_bundle(), &clock);
  (void)session.start();
  ASSERT_TRUE(session.click(object_center(session, "PSU INFO")).ok());
  ASSERT_TRUE(session.ui().message().has_value());
  EXPECT_NE(session.ui().message()->text.find("Power supply"),
            std::string::npos);
  ASSERT_EQ(session.resource_log().size(), 1u);
  EXPECT_TRUE(session.resource_log()[0].found);
}

TEST(SessionSharingTest, SessionsUseTheBundleRuleBookAndSharedPages) {
  // A copy of the bundle whose rule list is emptied after load: a session
  // that built its own book from `rules` would fire nothing, so the PSU
  // INFO rule firing proves dispatch reads the bundle's compiled book.
  auto bundle = std::make_shared<GameBundle>(*classroom_bundle());
  bundle->rules.clear();
  ASSERT_GT(bundle->rule_book.size(), 0u);
  SimClock clock_a;
  SimClock clock_b;
  GameSession a(bundle, &clock_a);
  GameSession b(bundle, &clock_b);
  EXPECT_EQ(&a.rule_book(), &bundle->rule_book);
  EXPECT_EQ(&b.rule_book(), &bundle->rule_book);
  EXPECT_EQ(&a.resources(), &ResourceCatalog::default_pages());
  EXPECT_EQ(&b.resources(), &a.resources());

  ASSERT_TRUE(a.start().ok());
  ASSERT_TRUE(a.click(object_center(a, "PSU INFO")).ok());
  ASSERT_EQ(a.resource_log().size(), 1u);  // the rule fired
  EXPECT_TRUE(b.resource_log().empty());   // and only a logged it
}

TEST(SessionRulesTest, CombineViaTable) {
  auto bundle = publish(build_treasure_hunt_project().value()).value();
  SimClock clock;
  GameSession session(bundle, &clock);
  (void)session.start();
  const ItemDef* torn = session.bundle().items.find_by_name("torn_map");
  const ItemDef* lantern = session.bundle().items.find_by_name("lantern");
  const ItemDef* readable = session.bundle().items.find_by_name("readable_map");

  // Not holding: fails.
  EXPECT_FALSE(session.combine_items(torn->id, lantern->id).ok());

  // Pick up both first.
  (void)session.drag(object_center(session, "torn map"),
                     session.ui().layout().inventory_window.center());
  (void)session.click(object_center(session, "TO CAVE"));
  (void)session.click(object_center(session, "lantern"));
  ASSERT_TRUE(session.combine_items(torn->id, lantern->id).ok());
  EXPECT_TRUE(session.inventory().has(readable->id));
  EXPECT_FALSE(session.inventory().has(torn->id));
}

// --- Timers & segment end ----------------------------------------------------------

std::shared_ptr<const GameBundle> timer_bundle() {
  auto project = build_quickstart_project();
  EXPECT_TRUE(project.ok());
  Editor edit(&project.value());
  const ScenarioId classroom =
      project.value().graph.find_by_name("classroom")->id;

  EventRule timer;
  timer.name = "hint after 2s";
  timer.trigger.type = TriggerType::kTimer;
  timer.trigger.scenario = classroom;
  timer.trigger.delay = seconds(2);
  timer.once = true;
  timer.actions = {Action::set_flag("hint_shown"),
                   Action::show_message("Try clicking the coin!")};
  EXPECT_TRUE(edit.add_rule(timer).ok());

  EventRule on_end;
  on_end.name = "nudge at segment end";
  on_end.trigger.type = TriggerType::kSegmentEnd;
  on_end.trigger.scenario = classroom;
  on_end.actions = {Action::set_flag("video_ended")};
  EXPECT_TRUE(edit.add_rule(on_end).ok());

  return publish(project.value()).value();
}

TEST(SessionTimerTest, TimerFiresAtDelay) {
  SimClock clock;
  GameSession session(timer_bundle(), &clock);
  (void)session.start();
  clock.advance(seconds(1));
  session.tick();
  EXPECT_FALSE(session.flag("hint_shown"));
  clock.advance(seconds(1));
  session.tick();
  EXPECT_TRUE(session.flag("hint_shown"));
}

TEST(SessionTimerTest, GuardedTimerFiresOnlyWhenItsGuardHolds) {
  // Three timers in the start scenario: one arms a flag at 1 s; at 2 s one
  // timer needs the flag and one needs it absent. Only the first two fire.
  auto project = build_quickstart_project();
  ASSERT_TRUE(project.ok());
  Editor edit(&project.value());
  const ScenarioId classroom =
      project.value().graph.find_by_name("classroom")->id;
  auto timer = [&](const char* name, MicroTime delay, Condition guard,
                   const char* sets) {
    EventRule r;
    r.name = name;
    r.trigger.type = TriggerType::kTimer;
    r.trigger.scenario = classroom;
    r.trigger.delay = delay;
    r.condition = std::move(guard);
    r.actions = {Action::set_flag(sets)};
    EXPECT_TRUE(edit.add_rule(r).ok());
  };
  timer("arm", seconds(1), Condition::always(), "armed");
  timer("needs armed", seconds(2), Condition::flag_set("armed"),
        "guard_held");
  timer("needs unarmed", seconds(2),
        Condition::negate(Condition::flag_set("armed")), "guard_failed");
  auto bundle = publish(project.value());
  ASSERT_TRUE(bundle.ok());

  SimClock clock;
  GameSession session(bundle.value(), &clock);
  ASSERT_TRUE(session.start().ok());
  clock.advance(seconds(1));
  session.tick();
  EXPECT_TRUE(session.flag("armed"));
  EXPECT_FALSE(session.flag("guard_held"));
  clock.advance(seconds(1));
  session.tick();
  EXPECT_TRUE(session.flag("guard_held"));
  EXPECT_FALSE(session.flag("guard_failed"));
  // A timer whose guard failed is spent for this scenario entry.
  clock.advance(seconds(5));
  session.tick();
  EXPECT_FALSE(session.flag("guard_failed"));

  int fired = 0;
  for (const SessionEvent& e : session.event_log()) {
    if (e.text.starts_with("timer rule ")) ++fired;
  }
  EXPECT_EQ(fired, 2);
}

TEST(SessionTimerTest, SegmentEndFiresOnce) {
  SimClock clock;
  GameSession session(timer_bundle(), &clock);
  (void)session.start();
  // The classroom segment is 48 frames @24fps = 2 seconds.
  clock.advance(seconds(3));
  session.tick();
  EXPECT_TRUE(session.flag("video_ended"));
  const size_t log_size = session.event_log().size();
  clock.advance(seconds(1));
  session.tick();  // must not fire again
  EXPECT_EQ(session.event_log().size(), log_size);
}

// --- Save / load -----------------------------------------------------------------

TEST(SessionSaveTest, RoundTripRestoresState) {
  SimClock clock;
  GameSession session(classroom_bundle(), &clock);
  (void)session.start();
  (void)session.click(object_center(session, "teacher"));
  (void)session.choose_dialogue(0);
  (void)session.advance_dialogue();
  (void)session.examine(object_center(session, "computer"));
  (void)session.click(object_center(session, "GO MARKET"));
  (void)session.click(object_center(session, "psu_box"));
  const Json save = session.save_state();

  // Fresh session, restore.
  SimClock clock2;
  GameSession restored(classroom_bundle(), &clock2);
  ASSERT_TRUE(restored.load_state(save).ok());
  EXPECT_EQ(restored.current_scenario_info()->name, "market");
  EXPECT_TRUE(restored.flag("mission_accepted"));
  EXPECT_TRUE(restored.flag("found_problem"));
  const ItemDef* part = restored.bundle().items.find_by_name("psu_part");
  EXPECT_TRUE(restored.inventory().has(part->id));
  EXPECT_EQ(restored.score(), session.score());

  // And the restored session can finish the game.
  (void)restored.click(object_center(restored, "BACK TO CLASS"));
  ASSERT_TRUE(restored
                  .use_item_on(part->id, object_center(restored, "computer"))
                  .ok());
  EXPECT_TRUE(restored.succeeded());
}

TEST(SessionSaveTest, SaveIsStableJson) {
  SimClock clock;
  GameSession session(classroom_bundle(), &clock);
  (void)session.start();
  const std::string a = session.save_state().dump(-1);
  const std::string b = session.save_state().dump(-1);
  EXPECT_EQ(a, b);
  // Round-trips through text.
  auto parsed = Json::parse(a);
  ASSERT_TRUE(parsed.ok());
  SimClock clock2;
  GameSession restored(classroom_bundle(), &clock2);
  EXPECT_TRUE(restored.load_state(parsed.value()).ok());
}

TEST(SessionSaveTest, CorruptSaveRejected) {
  SimClock clock;
  GameSession session(classroom_bundle(), &clock);
  EXPECT_FALSE(session.load_state(Json(5)).ok());
  Json bad = Json::object();
  bad.mutable_object().set("current_scenario", Json(9999));
  EXPECT_FALSE(session.load_state(bad).ok());
}

// --- Reveal / hide -----------------------------------------------------------------

TEST(SessionVisibilityTest, RevealAndHideThroughRules) {
  auto bundle = publish(build_treasure_hunt_project().value()).value();
  SimClock clock;
  GameSession session(bundle, &clock);
  (void)session.start();
  (void)session.click(object_center(session, "TO LIBRARY"));
  ASSERT_EQ(session.current_scenario_info()->name, "library");
  // The key is hidden until the hint is heard and the shelf examined.
  for (const auto* o : session.visible_objects()) {
    EXPECT_NE(o->name, "old key");
  }
  (void)session.click(object_center(session, "librarian"));
  (void)session.choose_dialogue(0);
  (void)session.advance_dialogue();
  EXPECT_TRUE(session.flag("heard_hint"));
  (void)session.examine(object_center(session, "bookshelf"));
  bool key_visible = false;
  for (const auto* o : session.visible_objects()) {
    key_visible |= o->name == "old key";
  }
  EXPECT_TRUE(key_visible);
}

// --- Analytics ---------------------------------------------------------------------

TEST(AnalyticsTest, TracksVisitsAndDecisions) {
  SimClock clock;
  GameSession session(classroom_bundle(), &clock);
  (void)session.start();
  clock.advance(seconds(2));
  (void)session.click(object_center(session, "teacher"));
  (void)session.choose_dialogue(0);
  (void)session.advance_dialogue();
  (void)session.examine(object_center(session, "computer"));
  (void)session.click(object_center(session, "GO MARKET"));
  clock.advance(seconds(3));

  const LearningTracker& t = session.tracker();
  ASSERT_EQ(t.visit_count(), 2u);
  EXPECT_EQ(t.visit(0).name, "classroom");
  EXPECT_EQ(t.visit(1).name, "market");
  ASSERT_EQ(t.decision_count(), 1u);
  EXPECT_EQ(t.decision(0).choice, "I will fix it.");
  const auto time = t.time_per_scenario(clock.now());
  EXPECT_GT(time.at("classroom"), 1.5);
  EXPECT_GT(time.at("market"), 2.5);

  const std::string report = t.report(clock.now());
  EXPECT_NE(report.find("decisions: 1"), std::string::npos);
  EXPECT_NE(report.find("classroom"), std::string::npos);

  const Json json = t.to_json(clock.now());
  EXPECT_EQ(json["visits"].as_array().size(), 2u);
}

TEST(AnalyticsTest, StateRoundTripRendersTheSame) {
  // Records built from pieces, a custom interaction kind and a score whose
  // reason gains its points suffix: the plain-data State carries them out,
  // and a tracker restored from it renders the same report and JSON.
  LearningTracker t;
  t.on_scenario_entered(ScenarioId{1}, "classroom", seconds(0));
  t.on_interaction("click", {"teacher"}, seconds(1));
  t.on_interaction("use_item", {"key", " on ", "door"}, seconds(2));
  t.on_interaction("custom", {"thing"}, seconds(3));
  t.on_decision({"[quiz] ", "2+2?"}, "4", seconds(4));
  t.on_item_collected("coin", seconds(5));
  t.on_score(-3, {"quiz '", "maths", "'"}, seconds(6));
  t.on_reward({"badge:", "explorer"}, seconds(7));
  t.on_resource_opened("Power supplies", seconds(8));
  t.on_scenario_entered(ScenarioId{2}, "market", seconds(9));
  t.on_game_over(true, seconds(12));

  ASSERT_EQ(t.interaction_count(), 7u);
  EXPECT_EQ(t.interaction(1).target, "key on door");
  EXPECT_EQ(t.interaction(2).kind, "custom");
  EXPECT_EQ(t.interaction(4).kind, "score");
  EXPECT_EQ(t.interaction(4).target, "quiz 'maths' (-3)");
  EXPECT_EQ(t.decision(0).context, "[quiz] 2+2?");
  EXPECT_EQ(t.item(0), "coin");
  EXPECT_EQ(t.reward(0), "badge:explorer");
  EXPECT_EQ(t.visit(0).left, seconds(9));
  EXPECT_EQ(t.visit(1).left, seconds(12));
  EXPECT_EQ(t.total_score(), -3);

  const LearningTracker::State state = t.state();
  ASSERT_EQ(state.interactions.size(), 7u);
  EXPECT_EQ(state.interactions[4].target, "quiz 'maths' (-3)");
  LearningTracker restored;
  restored.restore(state);
  EXPECT_EQ(restored.report(seconds(20)), t.report(seconds(20)));
  EXPECT_EQ(restored.to_json(seconds(20)).dump(), t.to_json(seconds(20)).dump());
  EXPECT_EQ(restored.state().interactions[2].kind, "custom");
  EXPECT_TRUE(TextBuffer::fits(state.text_bytes()));
}

// --- Compositor & text renderers ---------------------------------------------------

TEST(CompositorTest, RendersFullCanvas) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  (void)session.start();
  Compositor compositor;
  const Frame screen = compositor.render(session);
  EXPECT_EQ(screen.size(), session.ui().layout().canvas);
  // The video area shows actual video (not the chrome background).
  const Color chrome = screen.pixel(screen.width() - 1, screen.height() - 1);
  const Rect va = session.ui().layout().video_area;
  EXPECT_NE(screen.pixel(va.center().x, va.center().y), chrome);
}

TEST(CompositorTest, InventoryItemsDrawn) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  (void)session.start();
  Compositor compositor;
  const Frame before = compositor.render(session);
  (void)session.click(object_center(session, "coin"));
  const Frame after = compositor.render(session);
  // The inventory window region changed after pickup.
  const Rect inv = session.ui().layout().inventory_window;
  f64 diff = 0;
  for (i32 y = inv.y; y < inv.bottom(); ++y) {
    for (i32 x = inv.x; x < inv.right(); ++x) {
      diff += before.pixel(x, y) == after.pixel(x, y) ? 0 : 1;
    }
  }
  EXPECT_GT(diff, 50);
}

TEST(CompositorTest, DrawTextProducesPixels) {
  Frame f = Frame::rgb(100, 20, colors::kBlack);
  Compositor::draw_text(f, {2, 2}, "SCORE 42", colors::kWhite);
  int lit = 0;
  for (i32 y = 0; y < 20; ++y) {
    for (i32 x = 0; x < 100; ++x) {
      lit += f.pixel(x, y) == colors::kWhite;
    }
  }
  EXPECT_GT(lit, 40);
}

TEST(RenderTextTest, AsciiRenderShapes) {
  Frame f = Frame::rgb(96, 48, colors::kBlack);
  f.fill_rect({0, 0, 48, 48}, colors::kWhite);
  const std::string art = ascii_render(f, 32);
  ASSERT_FALSE(art.empty());
  const auto lines = split(art.substr(0, art.size() - 1), '\n');
  EXPECT_EQ(lines[0].size(), 32u);
  // Left half bright, right half dark.
  EXPECT_EQ(lines[0][2], '@');
  EXPECT_EQ(lines[0][30], ' ');
}

TEST(RenderTextTest, PpmHeaderAndSize) {
  Frame f = Frame::rgb(10, 5, colors::kRed);
  const std::string ppm = to_ppm(f);
  EXPECT_EQ(ppm.substr(0, 2), "P6");
  EXPECT_NE(ppm.find("10 5"), std::string::npos);
  EXPECT_EQ(ppm.size(), ppm.find("255\n") + 4 + 10 * 5 * 3);
}

TEST(RenderTextTest, AuthoringViewShowsProjectStructure) {
  auto project = build_classroom_repair_project().value();
  const std::string view = render_authoring_view(project);
  EXPECT_NE(view.find("VGBL AUTHORING TOOL"), std::string::npos);
  EXPECT_NE(view.find("classroom"), std::string::npos);
  EXPECT_NE(view.find("market"), std::string::npos);
  EXPECT_NE(view.find("SCENARIOS"), std::string::npos);
  EXPECT_NE(view.find("OBJECTS"), std::string::npos);
  EXPECT_NE(view.find("LINT"), std::string::npos);
  EXPECT_NE(view.find("teacher"), std::string::npos);
}

TEST(RenderTextTest, RuntimeViewShowsState) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  (void)session.start();
  (void)session.click(object_center(session, "coin"));
  const std::string view = render_runtime_view(session);
  EXPECT_NE(view.find("scenario: classroom"), std::string::npos);
  EXPECT_NE(view.find("score: 10"), std::string::npos);
  EXPECT_NE(view.find("backpack: coin"), std::string::npos);
}

// --- ScriptRunner -------------------------------------------------------------------

TEST(ScriptTest, RunsQuickstartToCompletion) {
  auto result = play_scripted(quickstart_bundle(),
                              {ScriptStep::click("coin"),
                               ScriptStep::click("FINISH")});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().succeeded);
  EXPECT_EQ(result.value().score, 10);
}

TEST(ScriptTest, MissingObjectFailsFast) {
  auto result = play_scripted(quickstart_bundle(),
                              {ScriptStep::click("no_such_thing")});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kNotFound);
}

TEST(ScriptTest, MissingItemFailsFast) {
  auto result = play_scripted(quickstart_bundle(),
                              {ScriptStep::use_item("ghost", "coin")});
  ASSERT_FALSE(result.ok());
}

TEST(ScriptTest, WaitAdvancesTime) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  (void)session.start();
  ScriptRunner runner(&session, &clock);
  const MicroTime before = clock.now();
  ASSERT_TRUE(runner.run({ScriptStep::wait(seconds(2))}).ok());
  EXPECT_GE(clock.now() - before, seconds(2));
}

// --- Bots ---------------------------------------------------------------------------

TEST(BotTest, ExplorerCompletesQuickstart) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  (void)session.start();
  const BotResult result = run_bot(session, clock, BotPolicy::kExplorer, 100, 7);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.succeeded);
  EXPECT_LT(result.steps, 30);
}

TEST(BotTest, ExplorerCompletesClassroomRepair) {
  SimClock clock;
  GameSession session(classroom_bundle(), &clock);
  (void)session.start();
  const BotResult result =
      run_bot(session, clock, BotPolicy::kExplorer, 300, 11);
  EXPECT_TRUE(result.succeeded);
  EXPECT_GT(session.score(), 100);
}

TEST(BotTest, DeterministicForSeed) {
  auto run_once = [](u64 seed) {
    SimClock clock;
    GameSession session(classroom_bundle(), &clock);
    (void)session.start();
    const BotResult r = run_bot(session, clock, BotPolicy::kExplorer, 300, seed);
    return std::make_pair(r.steps, session.score());
  };
  EXPECT_EQ(run_once(5), run_once(5));
}

}  // namespace
}  // namespace vgbl
