#include "event/rule.hpp"

#include <algorithm>

#include "event/action.hpp"

namespace vgbl {

const char* action_type_name(ActionType type) {
  switch (type) {
    case ActionType::kSwitchScenario:
      return "switch_scenario";
    case ActionType::kShowMessage:
      return "show_message";
    case ActionType::kShowImage:
      return "show_image";
    case ActionType::kOpenUrl:
      return "open_url";
    case ActionType::kGiveItem:
      return "give_item";
    case ActionType::kRemoveItem:
      return "remove_item";
    case ActionType::kSetFlag:
      return "set_flag";
    case ActionType::kClearFlag:
      return "clear_flag";
    case ActionType::kAddScore:
      return "add_score";
    case ActionType::kStartDialogue:
      return "start_dialogue";
    case ActionType::kGrantReward:
      return "grant_reward";
    case ActionType::kRevealObject:
      return "reveal_object";
    case ActionType::kHideObject:
      return "hide_object";
    case ActionType::kReplaySegment:
      return "replay_segment";
    case ActionType::kEndGame:
      return "end_game";
    case ActionType::kStartQuiz:
      return "start_quiz";
  }
  return "?";
}

Result<ActionType> action_type_from_name(std::string_view name) {
  for (u8 i = 0; i <= static_cast<u8>(ActionType::kStartQuiz); ++i) {
    const auto t = static_cast<ActionType>(i);
    if (name == action_type_name(t)) return t;
  }
  return corrupt_data("unknown action type '" + std::string(name) + "'");
}

namespace {

/// The entity whose id keys the dispatch index for each trigger type.
u32 primary_entity(const Trigger& t) {
  switch (t.type) {
    case TriggerType::kClick:
    case TriggerType::kExamine:
    case TriggerType::kDragToInventory:
    case TriggerType::kUseItemOn:
      return t.object.value;
    case TriggerType::kCombineItems:
      return t.item.value;
    case TriggerType::kEnterScenario:
    case TriggerType::kSegmentEnd:
    case TriggerType::kTimer:
      return t.scenario.value;
    case TriggerType::kDialogueTag:
      return 0;  // tags are strings; matched in trigger_matches
  }
  return 0;
}

u32 primary_entity(const TriggerEvent& e) {
  switch (e.type) {
    case TriggerType::kClick:
    case TriggerType::kExamine:
    case TriggerType::kDragToInventory:
    case TriggerType::kUseItemOn:
      return e.object.value;
    case TriggerType::kCombineItems:
      return e.item.value;
    case TriggerType::kEnterScenario:
    case TriggerType::kSegmentEnd:
    case TriggerType::kTimer:
      return e.scenario.value;
    case TriggerType::kDialogueTag:
      return 0;
  }
  return 0;
}

}  // namespace

RuleBook::RuleBook(std::vector<EventRule> rules, GuardEngine engine)
    : rules_(std::move(rules)), engine_(engine) {
  compiled_.reserve(rules_.size());
  for (u32 i = 0; i < rules_.size(); ++i) {
    const EventRule& r = rules_[i];
    compiled_.emplace_back(r.condition);
    if (r.trigger.type == TriggerType::kTimer) timers_.push_back(i);
    const u32 entity = primary_entity(r.trigger);
    if (entity == 0) {
      type_wildcards_[static_cast<size_t>(r.trigger.type)].push_back(i);
    } else {
      index_[key(r.trigger.type, entity)].push_back(i);
    }
  }
}

bool RuleBook::guard_passes(size_t rule_index,
                            const GameStateView& state) const {
  if (engine_ == GuardEngine::kCompiledVm) {
    return compiled_[rule_index].evaluate(state);
  }
  return evaluate(rules_[rule_index].condition, state);
}

RuleMatches RuleBook::match(const TriggerEvent& event,
                            const GameStateView& state,
                            const std::unordered_set<u32>& disarmed) const {
  // Candidates come from up to three buckets: the exact one, the second
  // item's for combine events, and the type wildcards. Each lists rule
  // indices in ascending order, so merging them visits every candidate
  // once, in declaration order (designers rely on it for layering
  // "specific rule shadows generic rule" behaviour).
  struct Bucket {
    const u32* at = nullptr;
    const u32* end = nullptr;
  };
  const auto bucket = [&](u32 entity) {
    const auto it = index_.find(key(event.type, entity));
    return it == index_.end()
               ? Bucket{}
               : Bucket{it->second.data(),
                        it->second.data() + it->second.size()};
  };
  Bucket buckets[3];
  const u32 entity = primary_entity(event);
  if (entity != 0) buckets[0] = bucket(entity);
  if (event.type == TriggerType::kCombineItems && event.second_item.valid() &&
      event.second_item.value != entity) {
    buckets[1] = bucket(event.second_item.value);
  }
  const auto& wild = type_wildcards_[static_cast<size_t>(event.type)];
  buckets[2] = {wild.data(), wild.data() + wild.size()};

  RuleMatches out;
  for (;;) {
    u32 i = ~0u;
    for (const Bucket& b : buckets) {
      if (b.at != b.end && *b.at < i) i = *b.at;
    }
    if (i == ~0u) break;
    for (Bucket& b : buckets) {
      if (b.at != b.end && *b.at == i) ++b.at;
    }
    const EventRule& r = rules_[i];
    if (r.once && disarmed.count(r.id.value)) continue;
    if (!trigger_matches(r.trigger, event)) continue;
    if (!guard_passes(i, state)) continue;
    out.push_back(&r);
  }
  return out;
}

const EventRule* RuleBook::find(RuleId id) const {
  for (const auto& r : rules_) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

}  // namespace vgbl
