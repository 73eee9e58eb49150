// Event rules bind a trigger pattern + guard condition to an action list,
// and the RuleBook indexes them for dispatch. This is the runtime half of
// the paper's object editor output: "Users can set the properties and
// events of objects in video and produce adequate feedback when users
// trigger them" (§4.2).
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "event/action.hpp"
#include "event/condition.hpp"
#include "event/trigger.hpp"
#include "util/small_vector.hpp"

namespace vgbl {

struct EventRule {
  RuleId id;
  std::string name;
  Trigger trigger;
  Condition condition;  // guard; Condition::always() when absent
  std::vector<Action> actions;
  /// One-shot rules disarm after firing (typical for pickups and missions).
  bool once = false;
};

/// The rules one dispatch fired, in declaration order. Up to 8 sit in
/// place, in the caller's frame; more spill to the heap. (Neither the
/// session nor the shared book can hold this scratch: dispatch re-enters
/// through scenario entry, and threads share the book.)
using RuleMatches = SmallVector<const EventRule*, 8>;

/// Immutable, indexed rule collection. Built once per loaded game
/// (`load_bundle` keeps it in the bundle, and every session of that bundle
/// reads the one copy, from any thread). The index buckets rules by
/// (trigger type, primary key) so dispatch touches only plausible
/// candidates instead of scanning every rule.
class RuleBook {
 public:
  RuleBook() = default;
  explicit RuleBook(std::vector<EventRule> rules);

  [[nodiscard]] const std::vector<EventRule>& rules() const { return rules_; }
  [[nodiscard]] size_t size() const { return rules_.size(); }

  /// Rules whose trigger pattern matches `event` AND whose guard passes
  /// against `state`, in declaration order. `disarmed` carries the fired
  /// one-shot rule ids (owned by the caller/session so RuleBook stays
  /// immutable and shareable).
  [[nodiscard]] RuleMatches match(
      const TriggerEvent& event, const GameStateView& state,
      const std::unordered_set<u32>& disarmed) const;

  /// Calls `fn(rule)` for every timer trigger scoped to `scenario`, in
  /// declaration order (the session arms these on scenario entry).
  template <typename Fn>
  void for_each_timer(ScenarioId scenario, Fn&& fn) const {
    for (u32 i : timers_) {
      const EventRule& r = rules_[i];
      if (r.trigger.scenario.valid() && r.trigger.scenario != scenario) {
        continue;
      }
      fn(r);
    }
  }

  [[nodiscard]] const EventRule* find(RuleId id) const;

 private:
  /// Index key: trigger type ⊕ primary entity. Wildcard rules land in a
  /// type-only bucket checked in addition to the exact bucket.
  static u64 key(TriggerType type, u32 entity) {
    return (static_cast<u64>(type) << 32) | entity;
  }

  std::vector<EventRule> rules_;
  std::unordered_map<u64, std::vector<u32>> index_;   // key -> rule indices
  std::vector<u32> type_wildcards_[16];               // per trigger type
  std::vector<u32> timers_;                           // timer rule indices
};

}  // namespace vgbl
