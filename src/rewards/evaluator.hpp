// RewardEvaluator: per-session, inline evaluation of a RewardRuleSet
// against the session's event stream (modeled on the Octelys
// achievements-tracker: current-game state lives with the session, the
// durable store is elsewhere — see badge_store.hpp).
//
// Ownership / threading contract. An evaluator belongs to exactly one
// GameSession and is only touched from that session's thread — never
// shared, never locked. The rule set it points at is immutable and shared
// read-only across every session in a classroom.
//
// Determinism contract (DESIGN.md §5g). The unlock log is a pure function
// of the fed event stream: every event carries its sim-time, the evaluator
// never reads a clock or RNG, and per-rule state lives in vectors ordered
// by the rule set's canonical (id-sorted) order. encode_unlock_log()
// renders the log as canonical bytes — the byte-identity artifact the
// tier1 suite and bench_rewards compare across thread counts, metrics
// on/off, and save/resume splits.
//
// Hot path. feed() walks only the rules subscribed to the event's trigger
// kind; rules that already fired are skipped via a per-rule unlocked
// bitset, so a long-running session pays O(1) per event once its badges
// are exhausted.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "rewards/rules.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"
#include "util/sim_clock.hpp"
#include "util/types.hpp"

namespace vgbl::rewards {

/// One semantic session event, as fed by GameSession. `name` is the
/// primary subject (object/item/scenario/quiz name); `detail` is the
/// secondary one (interaction kind, chosen reply text). Both are views
/// (usually into the session's learning-tracker text) that must outlive
/// the feed() call; the evaluator copies what it keeps.
struct RewardEvent {
  enum class Kind : u8 {
    kScenarioEntered = 0,
    kGameCompleted,
    kInteraction,
    kItemCollected,
    kItemUsed,
    kDialogueDecision,
    kQuizOutcome,
  };
  Kind kind = Kind::kInteraction;
  std::string_view name;
  std::string_view detail;
  bool success = false;  ///< completion / quiz outcome
  MicroTime when = 0;    ///< sim-time of the event
};

/// One unlocked badge: an entry of the ordered per-student unlock stream.
struct Unlock {
  MicroTime sim_time = 0;
  u32 rule_id = 0;
  std::string badge;
  i64 points = 0;  ///< bonus points awarded with the badge

  friend bool operator==(const Unlock&, const Unlock&) = default;
};

/// Full mutable evaluator state as plain data, captured into SessionState
/// and serialised by the persist snapshot (suspend/resume keeps the
/// unlock stream byte-identical to the uninterrupted run). All containers
/// are ordered — the replay-state lint rule bans unordered maps/sets here
/// because their iteration order would leak into snapshot bytes.
struct EvaluatorState {
  // Consumed prefix of the session's LearningTracker records: the session
  // feeds records incrementally from these offsets (see session.cpp's
  // drain_rewards), so the counters must survive suspend/resume.
  u32 interactions_seen = 0;
  u32 items_seen = 0;
  u32 decisions_seen = 0;
  u32 visits_seen = 0;

  // Streak bookkeeping across interaction events.
  i64 streak_length = 0;
  MicroTime streak_last = 0;
  bool streak_active = false;
  bool completion_seen = false;

  std::vector<std::string> scenarios_explored;  ///< sorted, distinct
  std::vector<i64> progress;   ///< per rule, canonical rule-set order
  std::vector<u8> unlocked;    ///< per rule, 0/1 cached unlock set
  std::vector<Unlock> unlocks; ///< ordered unlock log (the contract)
};

class RewardEvaluator {
 public:
  /// An evaluator with no rule set is inert: every call is a cheap no-op,
  /// so sessions without rewards configured pay one null check.
  RewardEvaluator() = default;
  explicit RewardEvaluator(const RewardRuleSet* rules);

  [[nodiscard]] bool active() const { return rules_ != nullptr; }
  [[nodiscard]] const RewardRuleSet* rules() const { return rules_; }

  /// Evaluates one event against the subscribed rules; newly satisfied
  /// rules append to the unlock log and the pending queue.
  void feed(const RewardEvent& event);

  /// Re-evaluates score-threshold rules against the ledger total. Called
  /// after every score change, including badge bonus points themselves
  /// (a bonus may therefore chain into a score badge; each rule fires at
  /// most once, so the cascade always terminates).
  void observe_score(i64 total, MicroTime now);

  /// Records how far into the session's tracker record streams events have
  /// been fed. The counters live in evaluator state so a resumed session
  /// continues feeding exactly where the captured one stopped.
  void mark_consumed(u32 interactions, u32 items, u32 decisions, u32 visits);

  /// Unlocks recorded since the last call — what the session turns into
  /// ledger awards and log lines.
  [[nodiscard]] std::vector<Unlock> take_pending();

  [[nodiscard]] const std::vector<Unlock>& unlock_log() const {
    return state_.unlocks;
  }
  /// Whether the rule at `index` (rule-set order) has fired.
  [[nodiscard]] bool unlocked(size_t index) const {
    return index < state_.unlocked.size() && state_.unlocked[index] != 0;
  }
  /// Matching-event count (or last observed score) for the rule at `index`.
  [[nodiscard]] i64 progress(size_t index) const {
    return index < state_.progress.size() ? state_.progress[index] : 0;
  }
  [[nodiscard]] i64 total_bonus_points() const;

  [[nodiscard]] const EvaluatorState& state() const { return state_; }
  /// Restores captured state. Fails when the state's per-rule vectors do
  /// not match this evaluator's rule set (wrong rule set for the save).
  [[nodiscard]] Status restore_state(EvaluatorState state);

 private:
  void unlock(size_t index, MicroTime now);
  void bump(size_t index, i64 amount, MicroTime now);

  const RewardRuleSet* rules_ = nullptr;
  EvaluatorState state_;
  size_t pending_from_ = 0;  ///< unlocks already handed out via take_pending
};

/// Canonical byte encoding of an unlock stream: varint count, then per
/// unlock (sim_time i64, rule_id u32, badge string, points svarint). Two
/// runs are byte-identical here iff their unlock streams match exactly —
/// the comparison object for the determinism suite and bench_rewards.
[[nodiscard]] Bytes encode_unlock_log(const std::vector<Unlock>& unlocks);

/// Decodes encode_unlock_log bytes (store inspection, tests).
[[nodiscard]] Result<std::vector<Unlock>> decode_unlock_log(
    std::span<const u8> data);

}  // namespace vgbl::rewards
