// GameSession: the interactive VGBL runtime environment (paper §4.3) — an
// augmented video player. It owns all mutable play state (current scenario,
// backpack, flags, score, dialogue, UI), turns player gestures into trigger
// events, dispatches them through the rule book, and applies the resulting
// actions. Built-in default behaviours keep authoring light:
//   - clicking an item object picks it up (grants its item, hides it)
//   - examining any object shows its description
//   - clicking an NPC starts its dialogue
//   - dragging a draggable item into the inventory window collects it
// Designer rules run first and may add to or replace these defaults.
#pragma once

#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "author/bundle.hpp"
#include "dialogue/dialogue.hpp"
#include "event/rule.hpp"
#include "inventory/inventory.hpp"
#include "media/player.hpp"
#include "rewards/evaluator.hpp"
#include "rewards/rules.hpp"
#include "runtime/analytics.hpp"
#include "runtime/avatar.hpp"
#include "runtime/resource_catalog.hpp"
#include "runtime/session_state.hpp"
#include "runtime/ui.hpp"
#include "util/sim_clock.hpp"
#include "util/text.hpp"

namespace vgbl {

struct SessionOptions {
  int inventory_capacity = 12;
  /// Decode pool size for the session's playback pipeline. 0 means no
  /// pool at all — frames decode synchronously on the caller's thread
  /// (see DecodePipeline); simulation engines use that so district-scale
  /// cohorts don't spawn a thread per session.
  unsigned decode_threads = 1;
  bool enable_default_behaviours = true;
  /// Avatar mode (paper §4.3): interactions require walking within reach;
  /// clicking empty ground walks the avatar there. Off by default so
  /// pointer-style games behave like Fig.2's direct manipulation.
  bool enable_avatar = false;
  Avatar::Options avatar;
  /// Reward rules evaluated inline against the session's event stream
  /// (src/rewards). Null disables rewards entirely — the evaluator is
  /// inert and the session behaves exactly as before. The rule set must
  /// outlive the session (typically RewardRuleSet::standard() or a set
  /// owned by the classroom/test driving it).
  const rewards::RewardRuleSet* reward_rules = nullptr;
};

/// One entry of the session's human-readable event log (tests and the
/// examples assert on these).
struct SessionEvent {
  MicroTime when;
  std::string text;
};

class GameSession {
 public:
  GameSession(std::shared_ptr<const GameBundle> bundle, const Clock* clock,
              SessionOptions options);
  GameSession(std::shared_ptr<const GameBundle> bundle, const Clock* clock)
      : GameSession(std::move(bundle), clock, SessionOptions{}) {}

  /// Enters the start scenario; must be called once before any input.
  Status start();

  // --- Player input (canvas coordinates; see UiLayout) ---------------------
  Status click(Point canvas_point);
  Status examine(Point canvas_point);
  Status drag(Point canvas_from, Point canvas_to);
  /// Applies a held item to the object at `canvas_point`.
  Status use_item_on(ItemId item, Point canvas_point);
  /// Combines two held items via the bundle's combine table.
  Status combine_items(ItemId a, ItemId b);
  /// Dismisses the active message/image popup (a click anywhere does too).
  void dismiss_popups();

  // --- Dialogue -------------------------------------------------------------
  [[nodiscard]] bool in_dialogue() const { return dialogue_.has_value(); }
  Status advance_dialogue();
  Status choose_dialogue(size_t index);

  // --- Quiz (knowledge check, §3.2 extension) --------------------------------
  [[nodiscard]] bool in_quiz() const { return quiz_.has_value(); }
  /// Answers the current quiz question. On the last question the quiz
  /// completes: points are awarded, the outcome message is shown and a
  /// quiz_passed:<name> / quiz_failed:<name> flag is set.
  Status answer_quiz(size_t option);

  // --- Time ----------------------------------------------------------------
  /// Processes timers, segment-end events and UI timeouts at the clock's
  /// current time. Call once per game-loop iteration.
  void tick();

  // --- State ---------------------------------------------------------------
  [[nodiscard]] ScenarioId current_scenario() const { return current_; }
  [[nodiscard]] const Scenario* current_scenario_info() const;
  [[nodiscard]] bool game_over() const { return game_over_; }
  [[nodiscard]] bool succeeded() const { return success_; }
  [[nodiscard]] i64 score() const { return ledger_.total(); }
  [[nodiscard]] const Inventory& inventory() const { return inventory_; }
  [[nodiscard]] const ScoreLedger& ledger() const { return ledger_; }
  [[nodiscard]] bool flag(const std::string& name) const {
    return flags_.count(name) > 0;
  }
  [[nodiscard]] const std::unordered_set<std::string>& flags() const {
    return flags_;
  }
  [[nodiscard]] bool visited(ScenarioId id) const {
    return visited_.count(id.value) > 0;
  }
  [[nodiscard]] const UiState& ui() const { return ui_; }
  [[nodiscard]] const SessionOptions& options() const { return options_; }
  /// Avatar state (meaningful only when options().enable_avatar).
  [[nodiscard]] const Avatar& avatar() const { return avatar_; }
  /// True while the avatar is walking toward a deferred interaction.
  [[nodiscard]] bool interaction_pending() const {
    return pending_interaction_.has_value();
  }
  [[nodiscard]] const LearningTracker& tracker() const { return tracker_; }
  [[nodiscard]] LearningTracker& tracker_mutable() { return tracker_; }
  /// Reward evaluator (inert unless options().reward_rules was set). The
  /// unlock log it holds is the session's canonical badge stream.
  [[nodiscard]] const rewards::RewardEvaluator& rewards() const {
    return rewards_;
  }
  /// The event log, rendered from the session's one text buffer.
  [[nodiscard]] std::vector<SessionEvent> event_log() const;
  [[nodiscard]] const GameBundle& bundle() const { return *bundle_; }
  /// The bundle's rule book, which this session dispatches through.
  [[nodiscard]] const RuleBook& rule_book() const {
    return bundle_->rule_book;
  }
  /// The pages OpenUrl actions resolve against (shared, read-only).
  [[nodiscard]] const ResourceCatalog& resources() const {
    return ResourceCatalog::default_pages();
  }
  /// Every OpenUrl lookup this session made, in order.
  [[nodiscard]] const std::vector<ResourceAccess>& resource_log() const {
    return resource_log_;
  }

  /// Objects of the current scenario visible at the current video frame,
  /// in paint order (ascending z) — what the compositor draws. Filtered
  /// from the bundle's per-scenario list into storage the session reuses,
  /// which is why this is not const: the reference stays valid until the
  /// next call.
  [[nodiscard]] const std::vector<const InteractiveObject*>&
  visible_objects();

  /// The topmost object visible now under a canvas point (the current
  /// scenario's hit grid, built by load_bundle); invalid id when none or
  /// when the point is outside the video.
  [[nodiscard]] ObjectId object_at(Point canvas_point) const;

  /// Current video frame (decoded through the segment player).
  std::optional<Frame> current_video_frame();

  /// The video player's frame index within the current segment.
  [[nodiscard]] int current_frame_index() const;

  // --- Session persistence (src/persist) -------------------------------------
  /// Captures the complete mutable state — scenario position, backpack,
  /// score ledger, flags, armed timers, avatar pose, mid-dialogue/quiz
  /// position, UI popups, analytics and the event log — as plain data.
  /// A session restored from this state and driven with the same inputs
  /// produces a bit-identical SessionEvent log.
  [[nodiscard]] SessionState capture_state() const;
  /// Re-applies a captured state against the same bundle. The session's
  /// clock must already read `state.now` (advance it first) so timers and
  /// video playback resume in phase. Fails with a typed error on bundle
  /// mismatch or inconsistent state; the session is then unspecified and
  /// should be discarded (restore into a fresh session).
  Status restore_state(const SessionState& state);

 private:
  class StateView;

  /// Dispatches a trigger event: designer rules first, then (if nothing
  /// fired and defaults are enabled) the built-in behaviour.
  void dispatch(const TriggerEvent& event);
  /// Applies one action; returns true if the action ended the scenario
  /// (switch/replay/end) so callers stop applying the remainder.
  bool apply_action(const Action& action, const EventRule* source);
  /// Feeds tracker records accumulated since the last drain into the
  /// reward evaluator, then turns any fresh unlocks into score awards and
  /// log lines. Called at the end of every state-mutating entry point.
  void drain_rewards();
  /// One sync pass: feed unconsumed tracker records to the evaluator.
  void sync_rewards_from_tracker();
  void enter_scenario(ScenarioId id);
  void arm_timers();
  void drain_dialogue_tags();
  void refresh_dialogue_view();
  /// Logs one line made of `pieces` back to back, appended straight into
  /// the log buffer.
  void log(std::initializer_list<std::string_view> pieces);
  [[nodiscard]] bool visible_at(const InteractiveObject& o, int frame) const;
  [[nodiscard]] bool object_effectively_visible(
      const InteractiveObject& o) const;
  [[nodiscard]] Point to_video(Point canvas) const;

  std::shared_ptr<const GameBundle> bundle_;
  const Clock* clock_;
  SessionOptions options_;

  SegmentPlayer player_;
  UiState ui_;
  std::vector<ResourceAccess> resource_log_;

  ScenarioId current_;
  /// The current scenario's object list and hit grid, in the bundle.
  const ScenarioObjects* scene_ = nullptr;
  /// visible_objects()'s result, reused call to call.
  std::vector<const InteractiveObject*> visible_;
  bool started_ = false;
  bool game_over_ = false;
  bool success_ = false;

  Inventory inventory_;
  ScoreLedger ledger_;
  std::unordered_set<std::string> flags_;
  std::unordered_set<u32> visited_;
  std::unordered_set<u32> disarmed_;  // fired once-rules
  /// Designer actions can reveal/hide objects at runtime; overrides the
  /// authored placement visibility.
  std::unordered_map<u32, bool> visibility_override_;

  struct ArmedTimer {
    RuleId rule;
    MicroTime fire_at;
  };
  std::vector<ArmedTimer> timers_;
  MicroTime scenario_entered_at_ = 0;
  bool segment_end_fired_ = false;

  /// Interaction deferred until the avatar reaches its target.
  struct PendingInteraction {
    TriggerType type = TriggerType::kClick;
    ObjectId object;
    ItemId item;
  };
  void perform_object_interaction(TriggerType type, ObjectId object,
                                  ItemId item);
  /// Returns true when the interaction was deferred (avatar must walk).
  bool defer_if_out_of_reach(TriggerType type, ObjectId object, ItemId item);

  Avatar avatar_;
  std::optional<PendingInteraction> pending_interaction_;

  struct ActiveDialogue {
    DialogueId id;
    DialogueRunner runner;
    size_t consumed_tags = 0;
    /// Inputs applied so far (kDialogueAdvance or choice index) — lets a
    /// snapshot restore the runner mid-conversation by replaying them.
    std::vector<u32> path;
  };
  std::optional<ActiveDialogue> dialogue_;

  struct ActiveQuiz {
    QuizId id;
    QuizRunner runner;
    /// Options answered so far (snapshot restore replays these).
    std::vector<u32> answers;
  };
  void refresh_quiz_view();
  std::optional<ActiveQuiz> quiz_;

  LearningTracker tracker_;
  rewards::RewardEvaluator rewards_;

  /// The event log: every line's text in one TextBuffer, and one
  /// fixed-size entry per line locating it. event_log() and capture_state()
  /// render SessionEvents from these, byte for byte what was logged.
  struct LogEntry {
    MicroTime when;
    TextBuffer::Ref text;
  };
  TextBuffer log_text_;
  std::vector<LogEntry> log_entries_;
};

}  // namespace vgbl
