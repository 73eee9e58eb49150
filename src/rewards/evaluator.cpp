#include "rewards/evaluator.hpp"

#include <algorithm>
#include <utility>

#include "obs/macros.hpp"
#include "obs/metrics.hpp"

namespace vgbl::rewards {
namespace {

struct EvaluatorMetrics {
  obs::Counter& events;
  obs::Counter& rule_evals;
  obs::Counter& unlocks;

  static EvaluatorMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static EvaluatorMetrics m{
        reg.counter("rewards_events_total",
                    "session events fed to reward evaluators"),
        reg.counter("rewards_rule_evals_total",
                    "reward rule evaluations (subscribed, not yet unlocked)"),
        reg.counter("rewards_unlocks_total", "badges unlocked in sessions")};
    return m;
  }
};

/// Whether `rule.target` accepts an event with subject `name` and
/// secondary attribute `detail`. Empty target = accept everything.
bool target_matches(const RewardRule& rule, std::string_view name,
                    std::string_view detail) {
  return rule.target.empty() || rule.target == name || rule.target == detail;
}

}  // namespace

RewardEvaluator::RewardEvaluator(const RewardRuleSet* rules) : rules_(rules) {
  if (rules_ != nullptr) {
    state_.progress.assign(rules_->size(), 0);
    state_.unlocked.assign(rules_->size(), 0);
  }
}

void RewardEvaluator::unlock(size_t index, MicroTime now) {
  state_.unlocked[index] = 1;
  const RewardRule& rule = rules_->at(index);
  state_.unlocks.push_back(
      {now, rule.id, rule.badge, rule.bonus_points});
  VGBL_COUNT(EvaluatorMetrics::get().unlocks);
}

void RewardEvaluator::bump(size_t index, i64 amount, MicroTime now) {
  state_.progress[index] += amount;
  if (state_.progress[index] >= rules_->at(index).threshold) {
    unlock(index, now);
  }
}

void RewardEvaluator::feed(const RewardEvent& event) {
  if (rules_ == nullptr) return;
  EvaluatorMetrics& metrics = EvaluatorMetrics::get();
  VGBL_COUNT(metrics.events);

  // Kind-specific shared bookkeeping, before per-rule matching.
  TriggerKind primary;
  switch (event.kind) {
    case RewardEvent::Kind::kScenarioEntered: {
      primary = TriggerKind::kScenarioEntered;
      const auto it = std::lower_bound(state_.scenarios_explored.begin(),
                                       state_.scenarios_explored.end(),
                                       event.name);
      if (it == state_.scenarios_explored.end() || *it != event.name) {
        state_.scenarios_explored.insert(it, std::string(event.name));
      }
      for (u32 index : rules_->subscribed(TriggerKind::kScenariosExplored)) {
        if (state_.unlocked[index] != 0) continue;
        VGBL_COUNT(metrics.rule_evals);
        state_.progress[index] =
            static_cast<i64>(state_.scenarios_explored.size());
        if (state_.progress[index] >= rules_->at(index).threshold) {
          unlock(index, event.when);
        }
      }
      break;
    }
    case RewardEvent::Kind::kGameCompleted:
      primary = TriggerKind::kGameCompleted;
      if (state_.completion_seen) return;
      state_.completion_seen = true;
      if (!event.success) return;
      break;
    case RewardEvent::Kind::kInteraction: {
      primary = TriggerKind::kObjectInteracted;
      // Streak rules ride every interaction regardless of target.
      if (state_.streak_active) {
        state_.streak_length += 1;
      } else {
        state_.streak_active = true;
        state_.streak_length = 1;
      }
      for (u32 index : rules_->subscribed(TriggerKind::kInteractionStreak)) {
        if (state_.unlocked[index] != 0) continue;
        VGBL_COUNT(metrics.rule_evals);
        const RewardRule& rule = rules_->at(index);
        if (state_.streak_length > 1 &&
            event.when - state_.streak_last > rule.window) {
          // Gap too long for this rule: its streak restarts here. Streak
          // state is shared (one chain of interactions), so the chain is
          // reset for every streak rule; with one streak rule per set —
          // the common case — that is exact.
          state_.streak_length = 1;
        }
        state_.progress[index] = state_.streak_length;
        if (state_.streak_length >= rule.threshold) {
          unlock(index, event.when);
        }
      }
      state_.streak_last = event.when;
      break;
    }
    case RewardEvent::Kind::kItemCollected:
      primary = TriggerKind::kItemCollected;
      break;
    case RewardEvent::Kind::kItemUsed:
      primary = TriggerKind::kItemUsed;
      break;
    case RewardEvent::Kind::kDialogueDecision:
      primary = TriggerKind::kDialogueDecision;
      break;
    case RewardEvent::Kind::kQuizOutcome:
      primary = TriggerKind::kQuizPassed;
      if (!event.success) return;
      break;
  }

  for (u32 index : rules_->subscribed(primary)) {
    if (state_.unlocked[index] != 0) continue;
    VGBL_COUNT(metrics.rule_evals);
    if (!target_matches(rules_->at(index), event.name, event.detail)) continue;
    bump(index, 1, event.when);
  }
}

void RewardEvaluator::observe_score(i64 total, MicroTime now) {
  if (rules_ == nullptr) return;
  for (u32 index : rules_->subscribed(TriggerKind::kScoreReached)) {
    if (state_.unlocked[index] != 0) continue;
    VGBL_COUNT(EvaluatorMetrics::get().rule_evals);
    state_.progress[index] = total;
    if (total >= rules_->at(index).threshold) {
      unlock(index, now);
    }
  }
}

void RewardEvaluator::mark_consumed(u32 interactions, u32 items,
                                    u32 decisions, u32 visits) {
  state_.interactions_seen = interactions;
  state_.items_seen = items;
  state_.decisions_seen = decisions;
  state_.visits_seen = visits;
}

std::vector<Unlock> RewardEvaluator::take_pending() {
  std::vector<Unlock> fresh(state_.unlocks.begin() +
                                static_cast<std::ptrdiff_t>(pending_from_),
                            state_.unlocks.end());
  pending_from_ = state_.unlocks.size();
  return fresh;
}

i64 RewardEvaluator::total_bonus_points() const {
  i64 total = 0;
  for (const Unlock& u : state_.unlocks) total += u.points;
  return total;
}

Status RewardEvaluator::restore_state(EvaluatorState state) {
  const size_t rule_count = rules_ != nullptr ? rules_->size() : 0;
  if (state.progress.size() != rule_count ||
      state.unlocked.size() != rule_count) {
    return failed_precondition(
        "rewards state does not match the configured rule set (" +
        std::to_string(state.progress.size()) + " rules saved, " +
        std::to_string(rule_count) + " configured)");
  }
  if (!std::is_sorted(state.scenarios_explored.begin(),
                      state.scenarios_explored.end())) {
    return corrupt_data("rewards state: explored scenarios not sorted");
  }
  state_ = std::move(state);
  // Everything already in the restored log was awarded before the capture;
  // only unlocks appended after this point are new.
  pending_from_ = state_.unlocks.size();
  return {};
}

Bytes encode_unlock_log(const std::vector<Unlock>& unlocks) {
  ByteWriter w;
  w.put_varint(unlocks.size());
  for (const Unlock& u : unlocks) {
    w.put_i64(u.sim_time);
    w.put_u32(u.rule_id);
    w.put_string(u.badge);
    w.put_svarint(u.points);
  }
  return std::move(w).take();
}

Result<std::vector<Unlock>> decode_unlock_log(std::span<const u8> data) {
  ByteReader r(data);
  auto count = r.varint();
  if (!count.ok()) return count.error();
  if (count.value() > data.size()) {
    return corrupt_data("unlock log count exceeds payload");
  }
  std::vector<Unlock> out;
  out.reserve(count.value());
  for (u64 i = 0; i < count.value(); ++i) {
    auto when = r.i64_();
    auto rule = r.u32_();
    auto badge = r.string();
    auto points = r.svarint();
    if (!when.ok()) return when.error();
    if (!rule.ok()) return rule.error();
    if (!badge.ok()) return badge.error();
    if (!points.ok()) return points.error();
    out.push_back({when.value(), rule.value(), std::move(badge).value(),
                   points.value()});
  }
  if (!r.at_end()) return corrupt_data("trailing bytes after unlock log");
  return out;
}

}  // namespace vgbl::rewards
