// Golden canvases for the runtime compositor. Pins an FNV-1a hash of every
// `Compositor::render` canvas along two scripted playthroughs:
// classroom-repair with the pointer (Fig. 2's direct manipulation) and
// treasure-hunt in avatar mode (§4.3). Each project gets a QUIZ button and
// a PICTURE button in its start scenario, because neither demo starts a quiz
// or shows an image popup on its own; with them the scripts reach every
// screen element: video, object sprites, button faces, status bar, inventory
// (empty slots, items, a reward), message bar, dialogue, quiz,
// image popup, the walking avatar and the game-over line. The canvases
// contain the decoded video as the player presents it, so the table also
// pins the frames the decode pipeline delivers.
//
// Regenerating after an *intentional* rendering change:
//   VGBL_GOLDEN_PRINT=1 ./build/tests/compositor_golden_test
// prints the replacement kGolden table; paste it below and say why in the
// commit message.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "runtime/compositor.hpp"

namespace vgbl {
namespace {

u64 fnv1a(u64 h, std::span<const u8> bytes) {
  for (u8 b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr u64 kFnvOffset = 14695981039346656037ULL;

/// Adds a two-question quiz behind a QUIZ button and an image popup behind a
/// PICTURE button to `scenario`, below the demos' own buttons (x 226, y 8
/// and 34 in both start scenarios).
Status add_quiz_and_picture(Project& project, const std::string& scenario) {
  const Scenario* s = project.graph.find_by_name(scenario);
  if (s == nullptr) return not_found("scenario " + scenario);
  Editor edit(&project);
  Quiz quiz(QuizId{}, "checkup");
  quiz.add_question({"Which part powers the computer?",
                     {"The power supply", "The mouse"},
                     0,
                     "The PSU feeds every component.",
                     10});
  quiz.add_question({"Where do you buy parts?",
                     {"The library", "The market"},
                     1,
                     "The market stall sells parts.",
                     10});
  auto quiz_id = edit.add_quiz(quiz);
  if (!quiz_id.ok()) return quiz_id.error();

  auto button = [&](const char* name, i32 y, Action action) -> Status {
    InteractiveObject o;
    o.name = name;
    o.kind = ObjectKind::kButton;
    o.scenario = s->id;
    o.placement.rect = {226, y, 86, 22};
    o.placement.z = 5;
    auto id = edit.place_object(o);
    if (!id.ok()) return id.error();
    EventRule r;
    r.name = std::string("press ") + name;
    r.trigger.type = TriggerType::kClick;
    r.trigger.object = id.value();
    r.actions = {std::move(action)};
    auto rule = edit.add_rule(std::move(r));
    return rule.ok() ? Status{} : Status(rule.error());
  };
  if (auto st = button("QUIZ", 60, Action::start_quiz(quiz_id.value()));
      !st.ok()) {
    return st;
  }
  return button("PICTURE", 86, Action::show_image("trophy"));
}

std::shared_ptr<const GameBundle> bundle_for(Result<Project> project,
                                             const std::string& start) {
  EXPECT_TRUE(project.ok());
  if (!project.ok()) return nullptr;
  Project p = std::move(project.value());
  const Status added = add_quiz_and_picture(p, start);
  EXPECT_TRUE(added.ok()) << added.error().message;
  auto bundle = publish(p);
  EXPECT_TRUE(bundle.ok()) << bundle.error().message;
  return bundle.ok() ? bundle.value() : nullptr;
}

/// Canvas-space centre of a visible object.
Point object_center(GameSession& session, const std::string& name) {
  for (const InteractiveObject* o : session.visible_objects()) {
    if (o->name == name) {
      const Point c = o->placement.rect.center();
      const Point origin = session.ui().layout().video_area.origin();
      return {c.x + origin.x, c.y + origin.y};
    }
  }
  ADD_FAILURE() << "object '" << name << "' not visible";
  return {};
}

ItemId item_named(const GameSession& session, const char* name) {
  const ItemDef* def = session.bundle().items.find_by_name(name);
  EXPECT_NE(def, nullptr) << name;
  return def != nullptr ? def->id : ItemId{};
}

/// One scripted input, then `periods` frame periods of play (tick +
/// render each). `reached` must hold once the periods have played.
struct Step {
  const char* name;
  std::function<Status(GameSession&)> input;  // null: play on
  int periods;
  std::function<bool(const GameSession&)> reached;
};

std::function<Status(GameSession&)> click(const char* object) {
  return [object](GameSession& s) { return s.click(object_center(s, object)); };
}

/// Plays `steps` and returns one hash per step over the canvas rendered
/// right after its input and after each of its periods.
std::vector<u64> play(const std::shared_ptr<const GameBundle>& bundle,
                      const SessionOptions& options,
                      const std::vector<Step>& steps) {
  std::vector<u64> hashes;
  if (bundle == nullptr) return hashes;
  SimClock clock;
  GameSession session(bundle, &clock, options);
  EXPECT_TRUE(session.start().ok());
  Compositor compositor;
  const i64 fps = bundle->video->fps();
  i64 period = 0;
  for (const Step& step : steps) {
    if (step.input) {
      const Status st = step.input(session);
      EXPECT_TRUE(st.ok()) << step.name << ": " << st.error().message;
    }
    u64 h = fnv1a(kFnvOffset, compositor.render(session).data());
    for (int p = 0; p < step.periods; ++p) {
      clock.advance_to(++period * 1'000'000 / fps);
      session.tick();
      h = fnv1a(h, compositor.render(session).data());
    }
    if (step.reached) {
      EXPECT_TRUE(step.reached(session)) << "script did not reach " << step.name;
    }
    hashes.push_back(h);
  }
  return hashes;
}

/// Pointer mode: dialogue, a diagnosis message, the quiz, the image popup,
/// a scenario switch, an item pickup and the repair that ends the game.
std::vector<Step> classroom_script() {
  return {
      {"open", nullptr, 6, nullptr},
      {"talk to teacher", click("teacher"), 3,
       [](const GameSession& s) { return s.in_dialogue(); }},
      {"accept mission", [](GameSession& s) { return s.choose_dialogue(0); }, 3,
       nullptr},
      {"end dialogue", [](GameSession& s) { return s.advance_dialogue(); }, 3,
       [](const GameSession& s) { return !s.in_dialogue(); }},
      {"diagnose",
       [](GameSession& s) { return s.examine(object_center(s, "computer")); },
       3, [](const GameSession& s) { return s.ui().message().has_value(); }},
      {"start quiz", click("QUIZ"), 3,
       [](const GameSession& s) { return s.in_quiz(); }},
      {"answer 1", [](GameSession& s) { return s.answer_quiz(0); }, 3, nullptr},
      {"answer 2", [](GameSession& s) { return s.answer_quiz(0); }, 3,
       [](const GameSession& s) { return !s.in_quiz(); }},
      {"picture", click("PICTURE"), 3,
       [](const GameSession& s) { return s.ui().image().has_value(); }},
      {"to market", click("GO MARKET"), 8,
       [](const GameSession& s) {
         return s.current_scenario_info()->name == "market";
       }},
      {"buy part", click("psu_box"), 3,
       [](const GameSession& s) { return !s.inventory().slots().empty(); }},
      {"back to class", click("BACK TO CLASS"), 8, nullptr},
      {"install part",
       [](GameSession& s) {
         return s.use_item_on(item_named(s, "psu_part"),
                              object_center(s, "computer"));
       },
       4, [](const GameSession& s) { return s.game_over() && s.succeeded(); }},
  };
}

/// Avatar mode: every interaction first walks the avatar into reach; the
/// script picks up the map and the lantern, opens the quiz and the picture,
/// hears the librarian's hint and takes the key it reveals.
std::vector<Step> treasure_script() {
  auto walk_done = [](const GameSession& s) { return !s.avatar().walking(); };
  return {
      {"open", nullptr, 6, nullptr},
      {"walk",
       [](GameSession& s) {
         const Point origin = s.ui().layout().video_area.origin();
         return s.click({origin.x + 150, origin.y + 200});
       },
       12, [](const GameSession& s) { return s.avatar().walking(); }},
      {"take map", click("torn map"), 36,
       [](const GameSession& s) {
         return s.inventory().has(s.bundle().items.find_by_name("torn_map")->id);
       }},
      {"to cave", click("TO CAVE"), 72,
       [](const GameSession& s) {
         return s.current_scenario_info()->name == "cave";
       }},
      {"take lantern", click("lantern"), 48, walk_done},
      {"back to beach", click("TO BEACH"), 72,
       [](const GameSession& s) {
         return s.current_scenario_info()->name == "beach";
       }},
      {"start quiz", click("QUIZ"), 72,
       [](const GameSession& s) { return s.in_quiz(); }},
      {"answer 1", [](GameSession& s) { return s.answer_quiz(1); }, 2, nullptr},
      {"answer 2", [](GameSession& s) { return s.answer_quiz(1); }, 2,
       [](const GameSession& s) { return !s.in_quiz(); }},
      {"picture", click("PICTURE"), 24,
       [](const GameSession& s) { return s.ui().image().has_value(); }},
      {"to library", click("TO LIBRARY"), 72,
       [](const GameSession& s) {
         return s.current_scenario_info()->name == "library";
       }},
      {"talk to librarian", click("librarian"), 48,
       [](const GameSession& s) { return s.in_dialogue(); }},
      {"ask for key", [](GameSession& s) { return s.choose_dialogue(0); }, 3,
       nullptr},
      {"end dialogue", [](GameSession& s) { return s.advance_dialogue(); }, 3,
       [](const GameSession& s) { return !s.in_dialogue(); }},
      {"search shelf",
       [](GameSession& s) { return s.examine(object_center(s, "bookshelf")); },
       48, walk_done},
      {"take key", click("old key"), 48,
       [](const GameSession& s) {
         return s.inventory().has(s.bundle().items.find_by_name("old_key")->id);
       }},
  };
}

struct GoldenRow {
  const char* game;
  const char* step;
  u64 hash;
};

// Captured from the per-pixel raster and dense decoder, before the row-wise
// raster and the sparse reconstruction landed.
constexpr GoldenRow kGolden[] = {
    // clang-format off
    {"classroom-repair", "open", 6724365759261935353ULL},
    {"classroom-repair", "talk to teacher", 9040463155197460838ULL},
    {"classroom-repair", "accept mission", 5657811132695633299ULL},
    {"classroom-repair", "end dialogue", 16336384785132991210ULL},
    {"classroom-repair", "diagnose", 1618158188990088351ULL},
    {"classroom-repair", "start quiz", 5998545393527760338ULL},
    {"classroom-repair", "answer 1", 10017433027539620637ULL},
    {"classroom-repair", "answer 2", 11063074452550683676ULL},
    {"classroom-repair", "picture", 12641079585864615596ULL},
    {"classroom-repair", "to market", 1607295323632093776ULL},
    {"classroom-repair", "buy part", 1264488589111386355ULL},
    {"classroom-repair", "back to class", 12979970969797938247ULL},
    {"classroom-repair", "install part", 5198332546039427559ULL},
    {"treasure-hunt", "open", 9254750432445301499ULL},
    {"treasure-hunt", "walk", 7403119435051455219ULL},
    {"treasure-hunt", "take map", 14342603511620410283ULL},
    {"treasure-hunt", "to cave", 1594526369000087507ULL},
    {"treasure-hunt", "take lantern", 814161403012179855ULL},
    {"treasure-hunt", "back to beach", 9203860007342927476ULL},
    {"treasure-hunt", "start quiz", 13483034847744956968ULL},
    {"treasure-hunt", "answer 1", 13920240186446596226ULL},
    {"treasure-hunt", "answer 2", 6505482413967923250ULL},
    {"treasure-hunt", "picture", 14354267304402999599ULL},
    {"treasure-hunt", "to library", 4477627152636755242ULL},
    {"treasure-hunt", "talk to librarian", 3621930299065705175ULL},
    {"treasure-hunt", "ask for key", 14202754776073251877ULL},
    {"treasure-hunt", "end dialogue", 11729881667186986717ULL},
    {"treasure-hunt", "search shelf", 703380102065760763ULL},
    {"treasure-hunt", "take key", 17495065737656309815ULL},
    // clang-format on
};

TEST(CompositorGoldenTest, CanvasesAreStable) {
  const bool print = std::getenv("VGBL_GOLDEN_PRINT") != nullptr;
  std::map<std::pair<std::string, std::string>, u64> expected;
  for (const GoldenRow& row : kGolden) expected[{row.game, row.step}] = row.hash;
  if (!print) {
    ASSERT_FALSE(expected.empty())
        << "kGolden is empty — regenerate with VGBL_GOLDEN_PRINT=1";
  }

  SessionOptions avatar;
  avatar.enable_avatar = true;
  struct Game {
    const char* name;
    std::shared_ptr<const GameBundle> bundle;
    SessionOptions options;
    std::vector<Step> steps;
  };
  const Game games[] = {
      {"classroom-repair",
       bundle_for(build_classroom_repair_project(), "classroom"),
       SessionOptions{}, classroom_script()},
      {"treasure-hunt", bundle_for(build_treasure_hunt_project(), "beach"),
       avatar, treasure_script()},
  };
  for (const Game& game : games) {
    const std::vector<u64> got = play(game.bundle, game.options, game.steps);
    ASSERT_EQ(got.size(), game.steps.size()) << game.name;
    for (size_t i = 0; i < got.size(); ++i) {
      const char* step = game.steps[i].name;
      if (print) {
        std::printf("    {\"%s\", \"%s\", %lluULL},\n", game.name, step,
                    static_cast<unsigned long long>(got[i]));
        continue;
      }
      const auto it = expected.find({game.name, step});
      ASSERT_NE(it, expected.end())
          << "no golden hash for " << game.name << " / " << step
          << " — regenerate with VGBL_GOLDEN_PRINT=1";
      EXPECT_EQ(got[i], it->second)
          << "canvas changed in " << game.name << " at step '" << step << "'";
    }
  }
}

}  // namespace
}  // namespace vgbl
