// Event system tests: trigger matching, condition evaluation, the bytecode
// VM (with a random-tree equivalence property against the interpreter),
// and rule-book dispatch.
#include <gtest/gtest.h>

#include "event/condition.hpp"
#include "event/rule.hpp"
#include "event/trigger.hpp"
#include "event/vm.hpp"
#include "util/rng.hpp"

namespace vgbl {
namespace {

// --- Trigger matching --------------------------------------------------------

TriggerEvent click_event(u32 object, u32 scenario = 1) {
  TriggerEvent e;
  e.type = TriggerType::kClick;
  e.object = ObjectId{object};
  e.scenario = ScenarioId{scenario};
  return e;
}

TEST(TriggerTest, ExactObjectMatch) {
  Trigger t;
  t.type = TriggerType::kClick;
  t.object = ObjectId{5};
  EXPECT_TRUE(trigger_matches(t, click_event(5)));
  EXPECT_FALSE(trigger_matches(t, click_event(6)));
}

TEST(TriggerTest, WildcardObjectMatchesAny) {
  Trigger t;
  t.type = TriggerType::kClick;
  EXPECT_TRUE(trigger_matches(t, click_event(5)));
  EXPECT_TRUE(trigger_matches(t, click_event(123)));
}

TEST(TriggerTest, TypeMustMatch) {
  Trigger t;
  t.type = TriggerType::kExamine;
  EXPECT_FALSE(trigger_matches(t, click_event(5)));
}

TEST(TriggerTest, ScenarioScope) {
  Trigger t;
  t.type = TriggerType::kClick;
  t.scenario = ScenarioId{2};
  EXPECT_FALSE(trigger_matches(t, click_event(5, 1)));
  EXPECT_TRUE(trigger_matches(t, click_event(5, 2)));
}

TEST(TriggerTest, UseItemOnMatchesBothFields) {
  Trigger t;
  t.type = TriggerType::kUseItemOn;
  t.object = ObjectId{1};
  t.item = ItemId{7};
  TriggerEvent e;
  e.type = TriggerType::kUseItemOn;
  e.object = ObjectId{1};
  e.item = ItemId{7};
  e.scenario = ScenarioId{1};
  EXPECT_TRUE(trigger_matches(t, e));
  e.item = ItemId{8};
  EXPECT_FALSE(trigger_matches(t, e));
  e.item = ItemId{7};
  e.object = ObjectId{2};
  EXPECT_FALSE(trigger_matches(t, e));
}

TEST(TriggerTest, CombineIsOrderInsensitive) {
  Trigger t;
  t.type = TriggerType::kCombineItems;
  t.item = ItemId{1};
  t.second_item = ItemId{2};
  TriggerEvent e;
  e.type = TriggerType::kCombineItems;
  e.item = ItemId{2};
  e.second_item = ItemId{1};
  EXPECT_TRUE(trigger_matches(t, e));
  e.item = ItemId{1};
  e.second_item = ItemId{2};
  EXPECT_TRUE(trigger_matches(t, e));
  e.second_item = ItemId{3};
  EXPECT_FALSE(trigger_matches(t, e));
}

TEST(TriggerTest, DialogueTagMatch) {
  Trigger t;
  t.type = TriggerType::kDialogueTag;
  t.tag = "accept";
  TriggerEvent e;
  e.type = TriggerType::kDialogueTag;
  e.tag = "accept";
  EXPECT_TRUE(trigger_matches(t, e));
  e.tag = "decline";
  EXPECT_FALSE(trigger_matches(t, e));
  t.tag.clear();  // wildcard tag
  EXPECT_TRUE(trigger_matches(t, e));
}

TEST(TriggerTest, NamesRoundTrip) {
  for (u8 i = 0; i <= static_cast<u8>(TriggerType::kDialogueTag); ++i) {
    const auto type = static_cast<TriggerType>(i);
    auto parsed = trigger_type_from_name(trigger_type_name(type));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), type);
  }
  EXPECT_FALSE(trigger_type_from_name("sneeze").ok());
}

// --- Condition evaluation ---------------------------------------------------------

SimpleStateView rich_state() {
  SimpleStateView s;
  s.items[1] = 2;   // two of item 1
  s.items[2] = 1;
  s.flags = {"mission_accepted", "found_problem"};
  s.score_value = 50;
  s.visited_scenarios = {1, 3};
  return s;
}

TEST(ConditionTest, Leaves) {
  const SimpleStateView s = rich_state();
  EXPECT_TRUE(evaluate(Condition::always(), s));
  EXPECT_TRUE(evaluate(Condition::has_item(ItemId{1}), s));
  EXPECT_FALSE(evaluate(Condition::has_item(ItemId{9}), s));
  EXPECT_TRUE(evaluate(Condition::item_count_at_least(ItemId{1}, 2), s));
  EXPECT_FALSE(evaluate(Condition::item_count_at_least(ItemId{1}, 3), s));
  EXPECT_TRUE(evaluate(Condition::flag_set("found_problem"), s));
  EXPECT_FALSE(evaluate(Condition::flag_set("computer_fixed"), s));
  EXPECT_TRUE(evaluate(Condition::score_at_least(50), s));
  EXPECT_FALSE(evaluate(Condition::score_at_least(51), s));
  EXPECT_TRUE(evaluate(Condition::visited(ScenarioId{3}), s));
  EXPECT_FALSE(evaluate(Condition::visited(ScenarioId{2}), s));
}

TEST(ConditionTest, Combinators) {
  const SimpleStateView s = rich_state();
  EXPECT_FALSE(evaluate(Condition::negate(Condition::always()), s));
  EXPECT_TRUE(evaluate(
      Condition::all_of({Condition::has_item(ItemId{1}),
                         Condition::score_at_least(10)}),
      s));
  EXPECT_FALSE(evaluate(
      Condition::all_of({Condition::has_item(ItemId{1}),
                         Condition::score_at_least(1000)}),
      s));
  EXPECT_TRUE(evaluate(
      Condition::any_of({Condition::has_item(ItemId{9}),
                         Condition::flag_set("mission_accepted")}),
      s));
  EXPECT_FALSE(evaluate(
      Condition::any_of({Condition::has_item(ItemId{9}),
                         Condition::flag_set("nope")}),
      s));
}

TEST(ConditionTest, EmptyCombinatorIdentities) {
  const SimpleStateView s;
  EXPECT_TRUE(evaluate(Condition::all_of({}), s));   // empty AND = true
  EXPECT_FALSE(evaluate(Condition::any_of({}), s));  // empty OR = false
  Condition childless_not;
  childless_not.op = ConditionOp::kNot;
  EXPECT_FALSE(evaluate(childless_not, s));
}

TEST(ConditionTest, NodeCount) {
  const Condition c = Condition::all_of(
      {Condition::has_item(ItemId{1}),
       Condition::negate(Condition::flag_set("x"))});
  EXPECT_EQ(c.node_count(), 4u);
}

TEST(ConditionTest, OpNamesRoundTrip) {
  for (u8 i = 0; i <= static_cast<u8>(ConditionOp::kOr); ++i) {
    const auto op = static_cast<ConditionOp>(i);
    auto parsed = condition_op_from_name(condition_op_name(op));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), op);
  }
}

// --- Bytecode VM -------------------------------------------------------------------

TEST(VmTest, CompilesLeaves) {
  const Program p = compile_condition(Condition::has_item(ItemId{3}));
  ASSERT_EQ(p.code.size(), 1u);
  EXPECT_EQ(p.code[0].op, OpCode::kHasItem);
  EXPECT_EQ(p.code[0].a, 3u);
}

TEST(VmTest, InternsFlagsOnce) {
  const Program p = compile_condition(Condition::all_of(
      {Condition::flag_set("x"), Condition::flag_set("y"),
       Condition::flag_set("x")}));
  EXPECT_EQ(p.flag_names.size(), 2u);
}

TEST(VmTest, ShortCircuitAndJumps) {
  // AND with a false first child must skip the rest (observable through
  // the jump ops in the program).
  const Program p = compile_condition(Condition::all_of(
      {Condition::flag_set("a"), Condition::flag_set("b")}));
  bool has_jump = false;
  for (const auto& in : p.code) {
    has_jump |= in.op == OpCode::kJumpIfFalse;
  }
  EXPECT_TRUE(has_jump);
  SimpleStateView s;  // both flags false
  EXPECT_FALSE(CompiledCondition(Condition::all_of(
                   {Condition::flag_set("a"), Condition::flag_set("b")}))
                   .evaluate(s));
}

TEST(VmTest, CorruptProgramsRejected) {
  const SimpleStateView s;
  Program underflow;
  underflow.code.push_back({OpCode::kNot, 0, 0});
  EXPECT_FALSE(run_program(underflow, s).ok());

  Program bad_flag;
  bad_flag.code.push_back({OpCode::kFlag, 7, 0});  // no interned names
  EXPECT_FALSE(run_program(bad_flag, s).ok());

  Program bad_jump;
  bad_jump.code.push_back({OpCode::kPushTrue, 0, 0});
  bad_jump.code.push_back({OpCode::kJumpIfTrue, 99, 0});
  EXPECT_FALSE(run_program(bad_jump, s).ok());

  Program leftovers;
  leftovers.code.push_back({OpCode::kPushTrue, 0, 0});
  leftovers.code.push_back({OpCode::kPushTrue, 0, 0});
  EXPECT_FALSE(run_program(leftovers, s).ok());
}

/// Random condition trees for the equivalence sweep.
Condition random_condition(Rng& rng, int depth) {
  const u64 pick = depth <= 0 ? rng.below(6) : rng.below(9);
  switch (pick) {
    case 0:
      return Condition::always();
    case 1:
      return Condition::has_item(ItemId{static_cast<u32>(rng.range(1, 5))});
    case 2:
      return Condition::item_count_at_least(
          ItemId{static_cast<u32>(rng.range(1, 5))}, rng.range(0, 3));
    case 3:
      return Condition::flag_set("flag" + std::to_string(rng.below(4)));
    case 4:
      return Condition::score_at_least(rng.range(-10, 100));
    case 5:
      return Condition::visited(ScenarioId{static_cast<u32>(rng.range(1, 5))});
    case 6:
      return Condition::negate(random_condition(rng, depth - 1));
    case 7: {
      std::vector<Condition> children;
      const int n = static_cast<int>(rng.below(4));
      for (int i = 0; i < n; ++i) {
        children.push_back(random_condition(rng, depth - 1));
      }
      return Condition::all_of(std::move(children));
    }
    default: {
      std::vector<Condition> children;
      const int n = static_cast<int>(rng.below(4));
      for (int i = 0; i < n; ++i) {
        children.push_back(random_condition(rng, depth - 1));
      }
      return Condition::any_of(std::move(children));
    }
  }
}

SimpleStateView random_state(Rng& rng) {
  SimpleStateView s;
  for (u32 i = 1; i <= 4; ++i) {
    if (rng.chance(0.5)) s.items[i] = static_cast<int>(rng.below(4));
  }
  for (int i = 0; i < 4; ++i) {
    if (rng.chance(0.5)) s.flags.insert("flag" + std::to_string(i));
  }
  s.score_value = rng.range(-20, 120);
  for (u32 i = 1; i <= 4; ++i) {
    if (rng.chance(0.5)) s.visited_scenarios.insert(i);
  }
  return s;
}

/// THE equivalence property: compiled VM == AST interpreter, exactly, for
/// random trees × random states.
class VmEquivalenceTest : public ::testing::TestWithParam<u64> {};

TEST_P(VmEquivalenceTest, VmMatchesInterpreter) {
  Rng rng(GetParam());
  for (int t = 0; t < 100; ++t) {
    const Condition tree = random_condition(rng, 4);
    const CompiledCondition compiled(tree);
    for (int s = 0; s < 20; ++s) {
      const SimpleStateView state = random_state(rng);
      const bool interpreted = evaluate(tree, state);
      auto vm = run_program(compiled.program(), state);
      ASSERT_TRUE(vm.ok());
      EXPECT_EQ(vm.value(), interpreted)
          << "tree nodes=" << tree.node_count() << " trial=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmEquivalenceTest,
                         ::testing::Values(101, 202, 303, 404, 505));

// --- RuleBook ---------------------------------------------------------------------

EventRule make_rule(u32 id, Trigger trigger, Condition condition = {},
                    bool once = false) {
  EventRule r;
  r.id = RuleId{id};
  r.name = "rule" + std::to_string(id);
  r.trigger = trigger;
  r.condition = std::move(condition);
  r.once = once;
  r.actions = {Action::add_score(1)};
  return r;
}

Trigger click_trigger(u32 object) {
  Trigger t;
  t.type = TriggerType::kClick;
  t.object = ObjectId{object};
  return t;
}

TEST(RuleBookTest, MatchesByObjectIndex) {
  RuleBook book({make_rule(1, click_trigger(1)), make_rule(2, click_trigger(2)),
                 make_rule(3, click_trigger(1))});
  SimpleStateView s;
  std::unordered_set<u32> disarmed;
  const auto hits = book.match(click_event(1), s, disarmed);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0]->id, RuleId{1});  // declaration order preserved
  EXPECT_EQ(hits[1]->id, RuleId{3});
}

TEST(RuleBookTest, MatchesPastInlineCapacityKeepDeclarationOrder) {
  // Interleave exact-bucket and wildcard rules so the merge alternates, and
  // match more than RuleMatches keeps in place.
  Trigger any_click;
  any_click.type = TriggerType::kClick;
  std::vector<EventRule> rules;
  for (u32 id = 1; id <= 20; ++id) {
    rules.push_back(make_rule(id, id % 2 ? click_trigger(7) : any_click, {},
                              /*once=*/id == 4));
  }
  RuleBook book(std::move(rules));
  SimpleStateView s;
  std::unordered_set<u32> disarmed{4};
  const RuleMatches hits = book.match(click_event(7), s, disarmed);
  ASSERT_EQ(hits.size(), 19u);
  u32 want = 1;
  for (const EventRule* r : hits) {
    if (want == 4) ++want;  // disarmed
    EXPECT_EQ(r->id, RuleId{want++});
  }
}

TEST(RuleBookTest, WildcardRulesSeeEveryObject) {
  Trigger any_click;
  any_click.type = TriggerType::kClick;
  RuleBook book({make_rule(1, click_trigger(5)), make_rule(2, any_click)});
  SimpleStateView s;
  std::unordered_set<u32> disarmed;
  EXPECT_EQ(book.match(click_event(5), s, disarmed).size(), 2u);
  EXPECT_EQ(book.match(click_event(9), s, disarmed).size(), 1u);
}

TEST(RuleBookTest, GuardFiltersMatches) {
  RuleBook book({make_rule(1, click_trigger(1), Condition::flag_set("go"))});
  SimpleStateView s;
  std::unordered_set<u32> disarmed;
  EXPECT_TRUE(book.match(click_event(1), s, disarmed).empty());
  s.flags.insert("go");
  EXPECT_EQ(book.match(click_event(1), s, disarmed).size(), 1u);
}

TEST(RuleBookTest, DisarmedOnceRulesSkipped) {
  RuleBook book({make_rule(1, click_trigger(1), {}, /*once=*/true)});
  SimpleStateView s;
  std::unordered_set<u32> disarmed;
  EXPECT_EQ(book.match(click_event(1), s, disarmed).size(), 1u);
  disarmed.insert(1);
  EXPECT_TRUE(book.match(click_event(1), s, disarmed).empty());
}

TEST(RuleBookTest, EnginesAgree) {
  std::vector<EventRule> rules{
      make_rule(1, click_trigger(1),
                Condition::all_of({Condition::flag_set("a"),
                                   Condition::score_at_least(5)}))};
  RuleBook vm_book(rules, GuardEngine::kCompiledVm);
  RuleBook interp_book(rules, GuardEngine::kInterpreter);
  SimpleStateView s;
  s.flags.insert("a");
  s.score_value = 5;
  std::unordered_set<u32> disarmed;
  EXPECT_EQ(vm_book.match(click_event(1), s, disarmed).size(),
            interp_book.match(click_event(1), s, disarmed).size());
}

TEST(RuleBookTest, TimersForScenario) {
  Trigger timer_any;
  timer_any.type = TriggerType::kTimer;
  timer_any.delay = seconds(1);
  Trigger timer_scoped = timer_any;
  timer_scoped.scenario = ScenarioId{2};
  RuleBook book({make_rule(1, timer_any), make_rule(2, timer_scoped),
                 make_rule(3, click_trigger(1))});
  const auto timers = [&](u32 scenario) {
    std::vector<RuleId> ids;
    book.for_each_timer(ScenarioId{scenario},
                        [&](const EventRule& r) { ids.push_back(r.id); });
    return ids;
  };
  EXPECT_EQ(timers(1), (std::vector<RuleId>{RuleId{1}}));
  EXPECT_EQ(timers(2), (std::vector<RuleId>{RuleId{1}, RuleId{2}}));
}

TEST(RuleBookTest, FindById) {
  RuleBook book({make_rule(7, click_trigger(1))});
  EXPECT_NE(book.find(RuleId{7}), nullptr);
  EXPECT_EQ(book.find(RuleId{8}), nullptr);
}

TEST(ActionTest, NamesRoundTrip) {
  for (u8 i = 0; i <= static_cast<u8>(ActionType::kEndGame); ++i) {
    const auto type = static_cast<ActionType>(i);
    auto parsed = action_type_from_name(action_type_name(type));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), type);
  }
  EXPECT_FALSE(action_type_from_name("dance").ok());
}

TEST(ActionTest, BuildersSetFields) {
  const Action a = Action::switch_scenario(ScenarioId{3});
  EXPECT_EQ(a.type, ActionType::kSwitchScenario);
  EXPECT_EQ(a.scenario, ScenarioId{3});
  const Action b = Action::give_item(ItemId{2}, 5);
  EXPECT_EQ(b.amount, 5);
  const Action c = Action::end_game(false);
  EXPECT_FALSE(c.success_outcome);
}

}  // namespace
}  // namespace vgbl
