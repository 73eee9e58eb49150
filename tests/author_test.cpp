// Authoring tests: importer, editor (with an undo/redo property sweep),
// project lint, and text-format serialization round trips.
#include <gtest/gtest.h>

#include "author/editor.hpp"
#include "author/importer.hpp"
#include "author/serialize.hpp"
#include "core/demo_games.hpp"
#include "util/rng.hpp"

namespace vgbl {
namespace {

Project imported_project(int scenes = 2) {
  Project p;
  p.meta.title = "test";
  auto report = import_clip(p, make_demo_spec(scenes, 18, 160, 120));
  EXPECT_TRUE(report.ok());
  return p;
}

// --- Importer ------------------------------------------------------------------

TEST(ImporterTest, CreatesScenariosFromSegments) {
  Project p;
  auto report = import_clip(p, make_demo_spec(3, 18, 160, 120));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().frame_count, 54);
  EXPECT_EQ(report.value().segment_count, 3);
  EXPECT_EQ(p.graph.size(), 3u);
  EXPECT_EQ(p.segments.size(), 3u);
  EXPECT_EQ(p.segment_ids.size(), 3u);
  EXPECT_TRUE(p.graph.start().valid());
  // Scenario names come from the filmed scenes.
  EXPECT_NE(p.graph.find_by_name("classroom"), nullptr);
  EXPECT_NE(p.graph.find_by_name("market"), nullptr);
  // Each scenario wired to an existing segment id.
  for (const auto& s : p.graph.scenarios()) {
    EXPECT_TRUE(s.segment.valid());
  }
  EXPECT_EQ(p.frame_size(), (Size{160, 120}));
}

TEST(ImporterTest, RejectsBadSpecs) {
  Project p;
  EXPECT_FALSE(import_clip(p, ClipSpec{}).ok());  // no scenes
  ClipSpec tiny = make_demo_spec(1, 4);
  tiny.width = 4;
  tiny.height = 4;
  EXPECT_FALSE(import_clip(p, tiny).ok());
}

TEST(ImporterTest, RenderProjectClipNeedsImport) {
  Project p;
  EXPECT_FALSE(render_project_clip(p).ok());
  p = imported_project();
  auto clip = render_project_clip(p);
  ASSERT_TRUE(clip.ok());
  EXPECT_EQ(clip.value().frames.size(), 36u);
}

// --- Editor ---------------------------------------------------------------------

TEST(EditorTest, AddScenarioAndUndo) {
  Project p = imported_project();
  Editor edit(&p);
  const size_t before = p.graph.size();
  auto id = edit.add_scenario("bonus level", p.segment_ids[0]);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(p.graph.size(), before + 1);
  ASSERT_TRUE(edit.undo().ok());
  EXPECT_EQ(p.graph.size(), before);
  ASSERT_TRUE(edit.redo().ok());
  EXPECT_EQ(p.graph.size(), before + 1);
  EXPECT_NE(p.graph.find(id.value()), nullptr);
}

TEST(EditorTest, RemoveScenarioRestoresTransitionsOnUndo) {
  Project p = imported_project(3);
  Editor edit(&p);
  const auto& scenarios = p.graph.scenarios();
  const ScenarioId a = scenarios[0].id;
  const ScenarioId b = scenarios[1].id;
  ASSERT_TRUE(edit.add_transition({a, b, "go", "", 1.0}).ok());
  ASSERT_TRUE(edit.remove_scenario(b).ok());
  EXPECT_TRUE(p.graph.transitions().empty());
  ASSERT_TRUE(edit.undo().ok());
  EXPECT_NE(p.graph.find(b), nullptr);
  EXPECT_EQ(p.graph.transitions().size(), 1u);
}

TEST(EditorTest, PlaceObjectAssignsIdAndSprite) {
  Project p = imported_project();
  Editor edit(&p);
  InteractiveObject proto;
  proto.name = "chest";
  proto.kind = ObjectKind::kImage;
  proto.scenario = p.graph.scenarios()[0].id;
  proto.placement.rect = {10, 10, 30, 30};
  proto.sprite_spec = "icon:coin:30";
  auto id = edit.place_object(proto);
  ASSERT_TRUE(id.ok());
  const InteractiveObject* placed = p.find_object(id.value());
  ASSERT_NE(placed, nullptr);
  EXPECT_TRUE(placed->id.valid());
  EXPECT_FALSE(placed->sprite.empty());
}

TEST(EditorTest, PlaceObjectValidates) {
  Project p = imported_project();
  Editor edit(&p);
  InteractiveObject no_name;
  no_name.scenario = p.graph.scenarios()[0].id;
  EXPECT_FALSE(edit.place_object(no_name).ok());
  InteractiveObject bad_scenario;
  bad_scenario.name = "x";
  bad_scenario.scenario = ScenarioId{999};
  EXPECT_FALSE(edit.place_object(bad_scenario).ok());
  InteractiveObject bad_sprite;
  bad_sprite.name = "x";
  bad_sprite.scenario = p.graph.scenarios()[0].id;
  bad_sprite.sprite_spec = "garbage:spec";
  EXPECT_FALSE(edit.place_object(bad_sprite).ok());
}

TEST(EditorTest, MoveResizeUndo) {
  Project p = imported_project();
  Editor edit(&p);
  InteractiveObject proto;
  proto.name = "box";
  proto.scenario = p.graph.scenarios()[0].id;
  proto.placement.rect = {10, 20, 30, 40};
  const ObjectId id = edit.place_object(proto).value();

  ASSERT_TRUE(edit.move_object(id, {50, 60}).ok());
  EXPECT_EQ(p.find_object(id)->placement.rect, (Rect{50, 60, 30, 40}));
  ASSERT_TRUE(edit.resize_object(id, {5, 6}).ok());
  EXPECT_EQ(p.find_object(id)->placement.rect, (Rect{50, 60, 5, 6}));
  EXPECT_FALSE(edit.resize_object(id, {0, 6}).ok());

  ASSERT_TRUE(edit.undo().ok());  // resize
  ASSERT_TRUE(edit.undo().ok());  // move
  EXPECT_EQ(p.find_object(id)->placement.rect, (Rect{10, 20, 30, 40}));
}

TEST(EditorTest, PropertyUndoRestoresAbsence) {
  Project p = imported_project();
  Editor edit(&p);
  InteractiveObject proto;
  proto.name = "box";
  proto.scenario = p.graph.scenarios()[0].id;
  const ObjectId id = edit.place_object(proto).value();
  ASSERT_TRUE(edit.set_object_property(id, "points", PropertyValue{i64{5}}).ok());
  EXPECT_TRUE(p.find_object(id)->properties.has("points"));
  ASSERT_TRUE(edit.undo().ok());
  EXPECT_FALSE(p.find_object(id)->properties.has("points"));
}

TEST(EditorTest, HistoryDescribesCommands) {
  Project p = imported_project();
  Editor edit(&p);
  (void)edit.rename_scenario(p.graph.scenarios()[0].id, "renamed");
  const auto history = edit.history();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_NE(history[0].find("rename"), std::string::npos);
}

TEST(EditorTest, UndoEmptyFails) {
  Project p = imported_project();
  Editor edit(&p);
  EXPECT_FALSE(edit.undo().ok());
  EXPECT_FALSE(edit.redo().ok());
}

TEST(EditorTest, NewCommandClearsRedo) {
  Project p = imported_project();
  Editor edit(&p);
  const ScenarioId s = p.graph.scenarios()[0].id;
  (void)edit.rename_scenario(s, "one");
  (void)edit.undo();
  EXPECT_TRUE(edit.can_redo());
  (void)edit.rename_scenario(s, "two");
  EXPECT_FALSE(edit.can_redo());
}

TEST(EditorTest, AddItemUndoRemovesFromCatalog) {
  Project p = imported_project();
  Editor edit(&p);
  ItemDef def;
  def.name = "gem";
  auto id = edit.add_item(def);
  ASSERT_TRUE(id.ok());
  EXPECT_NE(p.items.find(id.value()), nullptr);
  (void)edit.undo();
  EXPECT_EQ(p.items.find(id.value()), nullptr);
}

/// Property: applying N random commands then undoing all of them restores
/// the exact serialized project.
class EditorUndoAllTest : public ::testing::TestWithParam<u64> {};

TEST_P(EditorUndoAllTest, UndoAllRestoresOriginal) {
  Project p = imported_project(3);
  const std::string baseline = save_project_text(p);

  Editor edit(&p);
  Rng rng(GetParam());
  std::vector<ObjectId> objects;
  int applied = 0;
  for (int i = 0; i < 60; ++i) {
    const auto& scenarios = p.graph.scenarios();
    const ScenarioId scenario =
        scenarios[rng.below(scenarios.size())].id;
    switch (rng.below(6)) {
      case 0: {
        InteractiveObject proto;
        proto.name = "obj" + std::to_string(i);
        proto.scenario = scenario;
        proto.placement.rect = {static_cast<i32>(rng.range(0, 100)),
                                static_cast<i32>(rng.range(0, 100)), 10, 10};
        auto id = edit.place_object(proto);
        if (id.ok()) {
          objects.push_back(id.value());
          ++applied;
        }
        break;
      }
      case 1:
        if (!objects.empty() &&
            edit.move_object(objects[rng.below(objects.size())],
                             {static_cast<i32>(rng.range(0, 150)),
                              static_cast<i32>(rng.range(0, 150))})
                .ok()) {
          ++applied;
        }
        break;
      case 2:
        if (edit.rename_scenario(scenario, "name" + std::to_string(i)).ok()) {
          ++applied;
        }
        break;
      case 3: {
        ItemDef def;
        def.name = "item" + std::to_string(i);
        if (edit.add_item(def).ok()) ++applied;
        break;
      }
      case 4:
        if (edit.set_terminal(scenario, rng.chance(0.5)).ok()) ++applied;
        break;
      default:
        if (!objects.empty() &&
            edit.remove_object(objects[rng.below(objects.size())]).ok()) {
          ++applied;
        }
        break;
    }
  }
  EXPECT_GT(applied, 10);
  while (edit.can_undo()) {
    ASSERT_TRUE(edit.undo().ok());
  }
  // Note: id allocators advance (by design — ids are never reused), so we
  // compare the serialized *content*, which does not include allocator
  // state beyond the live entities.
  EXPECT_EQ(save_project_text(p), baseline);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EditorUndoAllTest,
                         ::testing::Values(10, 20, 30));

// --- Lint ------------------------------------------------------------------------

bool has_error(const std::vector<LintIssue>& issues,
               const std::string& needle) {
  for (const auto& i : issues) {
    if (i.message.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(LintTest, DemoGamesAreClean) {
  auto classroom = build_classroom_repair_project();
  ASSERT_TRUE(classroom.ok());
  for (const auto& issue : classroom.value().lint()) {
    EXPECT_NE(issue.level, LintLevel::kError) << issue.message;
  }
  EXPECT_TRUE(classroom.value().bundleable());

  auto hunt = build_treasure_hunt_project();
  ASSERT_TRUE(hunt.ok());
  EXPECT_TRUE(hunt.value().bundleable());
}

TEST(LintTest, MissingSegmentReported) {
  Project p = imported_project();
  p.graph.find_mutable(p.graph.scenarios()[0].id)->segment = SegmentId{99};
  EXPECT_TRUE(has_error(p.lint(), "references missing segment"));
  EXPECT_FALSE(p.bundleable());
}

TEST(LintTest, ObjectInMissingScenario) {
  Project p = imported_project();
  InteractiveObject o;
  o.id = ObjectId{1};
  o.name = "ghost";
  o.scenario = ScenarioId{999};
  o.placement.rect = {0, 0, 10, 10};
  p.objects.push_back(o);
  EXPECT_TRUE(has_error(p.lint(), "belongs to missing scenario"));
}

TEST(LintTest, ItemObjectWithoutGrant) {
  Project p = imported_project();
  InteractiveObject o;
  o.id = ObjectId{1};
  o.name = "fake item";
  o.kind = ObjectKind::kItem;
  o.scenario = p.graph.scenarios()[0].id;
  o.placement.rect = {0, 0, 10, 10};
  p.objects.push_back(o);
  EXPECT_TRUE(has_error(p.lint(), "grants no inventory item"));
}

TEST(LintTest, RuleReferencingMissingEntities) {
  Project p = imported_project();
  EventRule r;
  r.id = RuleId{1};
  r.name = "bad";
  r.trigger.type = TriggerType::kClick;
  r.trigger.object = ObjectId{77};
  r.actions = {Action::switch_scenario(ScenarioId{88}),
               Action::give_item(ItemId{66})};
  r.condition = Condition::has_item(ItemId{55});
  p.rules.push_back(r);
  const auto issues = p.lint();
  EXPECT_TRUE(has_error(issues, "trigger references missing object 77"));
  EXPECT_TRUE(has_error(issues, "switches to missing scenario 88"));
  EXPECT_TRUE(has_error(issues, "moves missing item 66"));
  EXPECT_TRUE(has_error(issues, "condition references missing item 55"));
}

TEST(LintTest, UnobtainableItemWarned) {
  Project p = imported_project();
  // Make the base project otherwise clean: wire a path to a terminal.
  {
    Editor edit(&p);
    const auto& scenarios = p.graph.scenarios();
    (void)edit.add_transition({scenarios[0].id, scenarios[1].id, "go", "", 1.0});
    (void)edit.set_terminal(scenarios[1].id, true);
  }
  ItemDef def;
  def.id = ItemId{1};
  def.name = "mystery";
  (void)p.items.add(def);
  bool warned = false;
  for (const auto& issue : p.lint()) {
    if (issue.message.find("can never be obtained") != std::string::npos) {
      warned = true;
      EXPECT_EQ(issue.level, LintLevel::kWarning);
    }
  }
  EXPECT_TRUE(warned);
  EXPECT_TRUE(p.bundleable());  // warnings do not block bundling
}

TEST(LintTest, OffFrameObjectWarned) {
  Project p = imported_project();
  InteractiveObject o;
  o.id = ObjectId{1};
  o.name = "lost";
  o.scenario = p.graph.scenarios()[0].id;
  o.placement.rect = {5000, 5000, 10, 10};
  p.objects.push_back(o);
  bool warned = false;
  for (const auto& issue : p.lint()) {
    warned |= issue.message.find("off-frame") != std::string::npos;
  }
  EXPECT_TRUE(warned);
}

// --- Serialization ---------------------------------------------------------------

TEST(SerializeTest, DemoProjectsRoundTripExactly) {
  for (auto builder : {build_classroom_repair_project,
                       build_treasure_hunt_project}) {
    auto project = builder(42);
    ASSERT_TRUE(project.ok());
    const std::string text = save_project_text(project.value());
    auto reloaded = load_project_text(text);
    ASSERT_TRUE(reloaded.ok());
    EXPECT_EQ(save_project_text(reloaded.value()), text);
  }
}

TEST(SerializeTest, QuickstartRoundTrip) {
  auto project = build_quickstart_project();
  ASSERT_TRUE(project.ok());
  const std::string text = save_project_text(project.value());
  auto reloaded = load_project_text(text);
  ASSERT_TRUE(reloaded.ok());
  // Structural checks beyond byte equality.
  const Project& p = reloaded.value();
  EXPECT_EQ(p.meta.title, "Quickstart");
  EXPECT_EQ(p.graph.size(), 2u);
  EXPECT_EQ(p.objects.size(), 2u);
  EXPECT_EQ(p.items.size(), 1u);
  EXPECT_EQ(p.rules.size(), 1u);
  ASSERT_TRUE(p.clip_spec.has_value());
  EXPECT_EQ(p.clip_spec->scenes.size(), 2u);
}

TEST(SerializeTest, PropertyBagRoundTripPreservesTypes) {
  // Regression: whole-valued doubles used to dump as "2", which the parser
  // re-typed as an integer, so a double-typed property came back as i64 and
  // PropertyBag equality (and byte-stable re-save) broke. Surfaced by the
  // generated corpus (gen decorate_properties emits whole-valued doubles).
  Project p = imported_project();
  Editor edit(&p);
  InteractiveObject proto;
  proto.name = "typed";
  proto.kind = ObjectKind::kImage;
  proto.scenario = p.graph.scenarios()[0].id;
  proto.placement.rect = {10, 10, 30, 30};
  proto.sprite_spec = "icon:coin:30";
  proto.properties.set_double("shine", 2.0);   // whole-valued double
  proto.properties.set_double("minus", -0.0);  // also printed without '.'
  proto.properties.set_int("weight", 7);
  proto.properties.set_bool("fragile", true);
  proto.properties.set_string("note", "n");
  auto id = edit.place_object(proto);
  ASSERT_TRUE(id.ok());

  const std::string text = save_project_text(p);
  auto reloaded = load_project_text(text);
  ASSERT_TRUE(reloaded.ok());
  const InteractiveObject* placed = reloaded.value().find_object(id.value());
  ASSERT_NE(placed, nullptr);
  EXPECT_EQ(placed->properties, p.find_object(id.value())->properties);
  auto shine = placed->properties.get("shine");
  ASSERT_TRUE(shine.has_value());
  EXPECT_TRUE(std::holds_alternative<f64>(*shine));
  auto weight = placed->properties.get("weight");
  ASSERT_TRUE(weight.has_value());
  EXPECT_TRUE(std::holds_alternative<i64>(*weight));
  EXPECT_EQ(save_project_text(reloaded.value()), text);
}

TEST(SerializeTest, ItemMaxStackRoundTripsForEveryStackableCombination) {
  // The generated corpus emits non-default max_stack on both stackable and
  // non-stackable items. ItemCatalog::add canonicalises (non-stackable ->
  // max_stack 1, stackable without a real max -> 99); the serializer must
  // round-trip the canonical form exactly, with max_stack written
  // independently of the stackable flag.
  Project p = imported_project();
  Editor edit(&p);
  ItemDef stacked;
  stacked.name = "coins";
  stacked.stackable = true;
  stacked.max_stack = 4;
  auto stacked_id = edit.add_item(stacked);
  ASSERT_TRUE(stacked_id.ok());
  ItemDef single;
  single.name = "bundle-of-sticks";
  single.stackable = false;
  single.max_stack = 3;  // canonicalised to 1 by the catalog
  auto single_id = edit.add_item(single);
  ASSERT_TRUE(single_id.ok());

  const std::string text = save_project_text(p);
  auto reloaded = load_project_text(text);
  ASSERT_TRUE(reloaded.ok());
  const ItemDef* coins = reloaded.value().items.find(stacked_id.value());
  ASSERT_NE(coins, nullptr);
  EXPECT_TRUE(coins->stackable);
  EXPECT_EQ(coins->max_stack, 4);
  const ItemDef* sticks = reloaded.value().items.find(single_id.value());
  ASSERT_NE(sticks, nullptr);
  EXPECT_FALSE(sticks->stackable);
  EXPECT_EQ(sticks->max_stack, 1);
  EXPECT_EQ(save_project_text(reloaded.value()), text);
}

TEST(SerializeTest, IdAllocatorsSurviveReload) {
  auto project = build_quickstart_project();
  auto reloaded = load_project_text(save_project_text(project.value()));
  ASSERT_TRUE(reloaded.ok());
  Editor edit(&reloaded.value());
  // New entities must not collide with loaded ids.
  auto id = edit.add_scenario("extra", reloaded.value().segment_ids[0]);
  ASSERT_TRUE(id.ok());
  for (const auto& s : reloaded.value().graph.scenarios()) {
    if (s.name != "extra") EXPECT_NE(s.id, id.value());
  }
}

TEST(SerializeTest, ConditionRoundTripDeep) {
  const Condition c = Condition::any_of(
      {Condition::all_of({Condition::has_item(ItemId{1}),
                          Condition::negate(Condition::flag_set("f"))}),
       Condition::score_at_least(-5),
       Condition::item_count_at_least(ItemId{2}, 3),
       Condition::visited(ScenarioId{4})});
  auto parsed = condition_from_json(condition_to_json(c));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), c);
}

/// A guard `levels` conditions deep along its deepest path: NOT, AND and OR
/// in turn above a flag leaf, each AND/OR with one leaf sibling so the
/// short-circuits matter.
Condition nested_guard(int levels) {
  Condition c = Condition::flag_set("leaf");
  for (int i = 1; i < levels; ++i) {
    switch (i % 3) {
      case 0:
        c = Condition::negate(std::move(c));
        break;
      case 1:
        c = Condition::all_of(
            {std::move(c), Condition::has_item(ItemId{static_cast<u32>(1 + i % 4)})});
        break;
      default:
        c = Condition::any_of(
            {Condition::flag_set("f" + std::to_string(i % 2)), std::move(c)});
        break;
    }
  }
  return c;
}

/// The quickstart project text with its one rule guarded by `guard`.
std::string project_with_guard(const Condition& guard) {
  auto project = build_quickstart_project();
  EXPECT_TRUE(project.ok());
  EXPECT_EQ(project.value().rules.size(), 1u);
  project.value().rules[0].condition = guard;
  return save_project_text(project.value());
}

// Json::parse's depth cap (128 levels below the document) is the only bound
// on how deep a loaded guard nests, and so on the recursion of `evaluate`.
// A guard sits 3 levels down (document, "rules", rule), and each nested
// condition adds 2 (its parent's "children" array and its own object), so
// a guard of n levels puts its leaf's fields at 2n + 2: n = 63 is the
// deepest the parser admits.
constexpr int kDeepestGuardLevels = 63;

TEST(SerializeTest, DeepestAdmittedGuardLoadsAndEvaluates) {
  const Condition guard = nested_guard(kDeepestGuardLevels);
  ASSERT_EQ(guard.node_count(), 105u);
  auto loaded = load_project_text(project_with_guard(guard));
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  const Condition& reloaded = loaded.value().rules[0].condition;
  EXPECT_EQ(reloaded, guard);

  int passes = 0;
  Rng rng(63);
  for (int trial = 0; trial < 64; ++trial) {
    SimpleStateView s;
    for (u32 item = 1; item <= 4; ++item) {
      if (rng.chance(0.8)) s.items[item] = 1;
    }
    for (const char* flag : {"leaf", "f0", "f1"}) {
      if (rng.chance(0.5)) s.flags.insert(flag);
    }
    const bool want = evaluate(guard, s);
    EXPECT_EQ(evaluate(reloaded, s), want) << "trial " << trial;
    passes += want ? 1 : 0;
  }
  // Both outcomes occur, so the sweep is not a constant guard.
  EXPECT_GT(passes, 0);
  EXPECT_LT(passes, 64);
}

TEST(SerializeTest, GuardOneLevelPastParserCapIsTypedError) {
  auto loaded =
      load_project_text(project_with_guard(nested_guard(kDeepestGuardLevels + 1)));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, ErrorCode::kCorruptData);
  EXPECT_NE(loaded.error().message.find("nesting too deep"), std::string::npos)
      << loaded.error().message;
}

TEST(SerializeTest, MalformedProjectRejected) {
  EXPECT_FALSE(load_project_text("not json").ok());
  EXPECT_FALSE(load_project_text("[]").ok());
  EXPECT_FALSE(load_project_text(R"({"format_version": 99})").ok());
  // Scenario referencing nothing parses but a transition to a missing
  // scenario must fail.
  EXPECT_FALSE(
      load_project_text(
          R"({"format_version":2,"scenarios":[{"id":1,"name":"a","segment":1}],
              "transitions":[{"from":1,"to":9,"label":"x"}]})")
          .ok());
}

TEST(SerializeTest, V1MigrationDefaultsWeight) {
  const char* v1 = R"({
    "format_version": 1,
    "scenarios": [{"id":1,"name":"a","segment":1},{"id":2,"name":"b","segment":1}],
    "segments": [{"id":1,"name":"s","first_frame":0,"frame_count":10}],
    "transitions": [{"from":1,"to":2,"label":"go"}],
    "start_scenario": 1
  })";
  auto p = load_project_text(v1);
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(p.value().graph.transitions().size(), 1u);
  EXPECT_DOUBLE_EQ(p.value().graph.transitions()[0].weight, 1.0);
}

TEST(SerializeTest, TriggerAndActionRoundTrip) {
  Trigger t;
  t.type = TriggerType::kUseItemOn;
  t.object = ObjectId{3};
  t.item = ItemId{4};
  t.scenario = ScenarioId{5};
  t.delay = milliseconds(250);
  auto t2 = trigger_from_json(trigger_to_json(t));
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2.value().type, t.type);
  EXPECT_EQ(t2.value().object, t.object);
  EXPECT_EQ(t2.value().item, t.item);
  EXPECT_EQ(t2.value().scenario, t.scenario);
  EXPECT_EQ(t2.value().delay, t.delay);

  const Action a = Action::end_game(false);
  auto a2 = action_from_json(action_to_json(a));
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a2.value().type, ActionType::kEndGame);
  EXPECT_FALSE(a2.value().success_outcome);
}

}  // namespace
}  // namespace vgbl
