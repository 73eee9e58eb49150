// Guard conditions on event rules: a small boolean expression language over
// game state (inventory, flags, score, visited scenarios). Designers build
// these in the object editor ("players get different feedback after they
// install components ... by the content providers' authoring", §3.2).
//
// `evaluate` walks the tree directly, at authoring time and on every rule
// dispatch: guards are tiny (1.06 nodes on average over the gen corpus),
// and at that size a tree walk beats a compiled program (E6).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/result.hpp"
#include "util/types.hpp"

namespace vgbl {

enum class ConditionOp : u8 {
  kTrue = 0,          // always satisfied
  kHasItem,           // item_id held (count >= 1)
  kItemCountAtLeast,  // count_of(item_id) >= value
  kFlag,              // named boolean flag set
  kScoreAtLeast,      // score >= value
  kVisited,           // scenario_id has been entered at least once
  kNot,               // !child[0]
  kAnd,               // conjunction of children (empty = true)
  kOr,                // disjunction of children (empty = false)
};

const char* condition_op_name(ConditionOp op);
[[nodiscard]] Result<ConditionOp> condition_op_from_name(std::string_view name);

/// Expression tree with value semantics.
struct Condition {
  ConditionOp op = ConditionOp::kTrue;
  ItemId item;
  ScenarioId scenario;
  std::string flag;
  i64 value = 0;
  std::vector<Condition> children;

  bool operator==(const Condition&) const = default;

  // Builders (compose freely):
  static Condition always() { return {}; }
  static Condition has_item(ItemId id) {
    Condition c;
    c.op = ConditionOp::kHasItem;
    c.item = id;
    return c;
  }
  static Condition item_count_at_least(ItemId id, i64 n) {
    Condition c;
    c.op = ConditionOp::kItemCountAtLeast;
    c.item = id;
    c.value = n;
    return c;
  }
  static Condition flag_set(std::string name) {
    Condition c;
    c.op = ConditionOp::kFlag;
    c.flag = std::move(name);
    return c;
  }
  static Condition score_at_least(i64 n) {
    Condition c;
    c.op = ConditionOp::kScoreAtLeast;
    c.value = n;
    return c;
  }
  static Condition visited(ScenarioId id) {
    Condition c;
    c.op = ConditionOp::kVisited;
    c.scenario = id;
    return c;
  }
  static Condition negate(Condition inner) {
    Condition c;
    c.op = ConditionOp::kNot;
    c.children.push_back(std::move(inner));
    return c;
  }
  static Condition all_of(std::vector<Condition> children) {
    Condition c;
    c.op = ConditionOp::kAnd;
    c.children = std::move(children);
    return c;
  }
  static Condition any_of(std::vector<Condition> children) {
    Condition c;
    c.op = ConditionOp::kOr;
    c.children = std::move(children);
    return c;
  }

  /// Node count (for complexity limits in the authoring lint).
  [[nodiscard]] size_t node_count() const;
};

/// Read-only view of the game state a condition is evaluated against.
/// The runtime owns the real containers; tests can stub them directly.
class GameStateView {
 public:
  virtual ~GameStateView() = default;
  [[nodiscard]] virtual int item_count(ItemId id) const = 0;
  [[nodiscard]] virtual bool flag(const std::string& name) const = 0;
  [[nodiscard]] virtual i64 score() const = 0;
  [[nodiscard]] virtual bool visited(ScenarioId id) const = 0;
};

/// Simple concrete view backed by plain containers (tests, benches).
class SimpleStateView final : public GameStateView {
 public:
  std::unordered_map<u32, int> items;          // item id -> count
  std::unordered_set<std::string> flags;
  i64 score_value = 0;
  std::unordered_set<u32> visited_scenarios;

  [[nodiscard]] int item_count(ItemId id) const override {
    auto it = items.find(id.value);
    return it == items.end() ? 0 : it->second;
  }
  [[nodiscard]] bool flag(const std::string& name) const override {
    return flags.count(name) > 0;
  }
  [[nodiscard]] i64 score() const override { return score_value; }
  [[nodiscard]] bool visited(ScenarioId id) const override {
    return visited_scenarios.count(id.value) > 0;
  }
};

/// AST interpreter: short-circuits AND/OR left to right; recursion depth
/// equals nesting depth, which Json::parse's depth cap bounds for loaded
/// projects.
[[nodiscard]] bool evaluate(const Condition& condition,
                            const GameStateView& state);

}  // namespace vgbl
