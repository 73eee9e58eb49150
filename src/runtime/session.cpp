#include "runtime/session.hpp"

#include <algorithm>

#include "util/text.hpp"

namespace vgbl {

/// Adapter exposing session state to the condition evaluators.
class GameSession::StateView final : public GameStateView {
 public:
  explicit StateView(const GameSession* s) : s_(s) {}
  [[nodiscard]] int item_count(ItemId id) const override {
    return s_->inventory_.count_of(id);
  }
  [[nodiscard]] bool flag(const std::string& name) const override {
    return s_->flags_.count(name) > 0;
  }
  [[nodiscard]] i64 score() const override { return s_->ledger_.total(); }
  [[nodiscard]] bool visited(ScenarioId id) const override {
    return s_->visited_.count(id.value) > 0;
  }

 private:
  const GameSession* s_;
};

GameSession::GameSession(std::shared_ptr<const GameBundle> bundle,
                         const Clock* clock, SessionOptions options)
    : bundle_(std::move(bundle)),
      clock_(clock),
      options_(options),
      player_(bundle_->video, options.decode_threads),
      ui_(UiLayout::standard(
          {bundle_->video->width(), bundle_->video->height()})),
      inventory_(&bundle_->items, options.inventory_capacity),
      avatar_(options.avatar),
      rewards_(options.reward_rules) {
  // The log lines and text the median session of the classroom-repair
  // district logs (93 lines, 2.4 KB; DESIGN.md §5i), rounded up to a power
  // of two. visible_objects() never outgrows the largest scenario.
  log_text_.reserve(4096);
  log_entries_.reserve(128);
  visible_.reserve(bundle_->max_scenario_objects);
}

Status GameSession::start() {
  if (started_) return failed_precondition("session already started");
  const ScenarioId start = bundle_->graph.start();
  if (!start.valid()) {
    return failed_precondition("bundle has no start scenario");
  }
  started_ = true;
  enter_scenario(start);
  drain_rewards();
  return {};
}

const Scenario* GameSession::current_scenario_info() const {
  return bundle_->graph.find(current_);
}

Point GameSession::to_video(Point canvas) const {
  const Point origin = ui_.layout().video_area.origin();
  return {canvas.x - origin.x, canvas.y - origin.y};
}

bool GameSession::visible_at(const InteractiveObject& o, int frame) const {
  auto it = visibility_override_.find(o.id.value);
  const bool authored = it != visibility_override_.end()
                            ? it->second
                            : o.placement.visible;
  return authored && o.placement.active_at(frame);
}

bool GameSession::object_effectively_visible(
    const InteractiveObject& o) const {
  return visible_at(o, current_frame_index());
}

int GameSession::current_frame_index() const {
  return player_.playing() ? player_.frame_index_at(clock_->now()) : 0;
}

const std::vector<const InteractiveObject*>& GameSession::visible_objects() {
  visible_.clear();
  if (scene_ == nullptr) return visible_;
  const int frame = current_frame_index();
  for (u32 i : scene_->paint_order) {
    const InteractiveObject& o = bundle_->objects[i];
    if (visible_at(o, frame)) visible_.push_back(&o);
  }
  return visible_;
}

ObjectId GameSession::object_at(Point canvas_point) const {
  if (scene_ == nullptr || !ui_.layout().video_area.contains(canvas_point)) {
    return {};
  }
  const int frame = current_frame_index();
  return scene_->hits.hit_where(to_video(canvas_point), [&](u32 target) {
    return visible_at(bundle_->objects[scene_->paint_order[target]], frame);
  });
}

std::optional<Frame> GameSession::current_video_frame() {
  if (!player_.playing()) return std::nullopt;
  return player_.current_frame(clock_->now());
}

void GameSession::log(std::initializer_list<std::string_view> pieces) {
  log_entries_.push_back({clock_->now(), log_text_.append(pieces)});
}

std::vector<SessionEvent> GameSession::event_log() const {
  std::vector<SessionEvent> out;
  out.reserve(log_entries_.size());
  for (const LogEntry& e : log_entries_) {
    out.push_back({e.when, std::string(log_text_.view(e.text))});
  }
  return out;
}

// --- Rewards -----------------------------------------------------------------------

void GameSession::sync_rewards_from_tracker() {
  using rewards::RewardEvent;
  // Snapshot the consumed offsets first: feed() mutates evaluator state,
  // and mark_consumed below records the new high-water marks.
  const u32 visits_from = rewards_.state().visits_seen;
  const u32 interactions_from = rewards_.state().interactions_seen;
  const u32 items_from = rewards_.state().items_seen;
  const u32 decisions_from = rewards_.state().decisions_seen;

  const size_t visits = tracker_.visit_count();
  for (size_t i = visits_from; i < visits; ++i) {
    const LearningTracker::Visit v = tracker_.visit(i);
    RewardEvent ev;
    ev.kind = RewardEvent::Kind::kScenarioEntered;
    ev.name = v.name;
    ev.when = v.entered;
    rewards_.feed(ev);
  }

  const size_t interactions = tracker_.interaction_count();
  for (size_t i = interactions_from; i < interactions; ++i) {
    const LearningTracker::Interaction rec = tracker_.interaction(i);
    RewardEvent ev;
    ev.kind = RewardEvent::Kind::kInteraction;
    ev.name = rec.target;
    ev.detail = rec.kind;
    ev.when = rec.when;
    rewards_.feed(ev);
    if (rec.kind == "use_item") {
      // The same record doubles as an item-used event for rules keyed on
      // TriggerKind::kItemUsed.
      RewardEvent used;
      used.kind = RewardEvent::Kind::kItemUsed;
      used.name = rec.target;
      used.when = rec.when;
      rewards_.feed(used);
    }
  }

  // Item records carry no timestamp; they are drained within the entry
  // point that collected them, so the clock still reads that moment.
  const size_t items = tracker_.item_count();
  for (size_t i = items_from; i < items; ++i) {
    RewardEvent ev;
    ev.kind = RewardEvent::Kind::kItemCollected;
    ev.name = tracker_.item(i);
    ev.when = clock_->now();
    rewards_.feed(ev);
  }

  const size_t decisions = tracker_.decision_count();
  for (size_t i = decisions_from; i < decisions; ++i) {
    const LearningTracker::Decision d = tracker_.decision(i);
    RewardEvent ev;
    ev.kind = RewardEvent::Kind::kDialogueDecision;
    ev.name = d.context;
    ev.detail = d.choice;
    ev.when = d.when;
    rewards_.feed(ev);
  }

  if (tracker_.finished() && !rewards_.state().completion_seen) {
    RewardEvent ev;
    ev.kind = RewardEvent::Kind::kGameCompleted;
    ev.success = tracker_.succeeded();
    ev.when = tracker_.finished_at() >= 0 ? tracker_.finished_at()
                                          : clock_->now();
    rewards_.feed(ev);
  }

  rewards_.mark_consumed(static_cast<u32>(interactions),
                         static_cast<u32>(items),
                         static_cast<u32>(decisions),
                         static_cast<u32>(visits));
}

void GameSession::drain_rewards() {
  if (!rewards_.active()) return;
  // Badge bonus points feed the ledger, and the new total can itself
  // unlock a score badge — so loop until a pass produces nothing. Each
  // rule fires at most once, so the cascade terminates.
  for (;;) {
    sync_rewards_from_tracker();
    rewards_.observe_score(ledger_.total(), clock_->now());
    const std::vector<rewards::Unlock> fresh = rewards_.take_pending();
    if (fresh.empty()) break;
    for (const rewards::Unlock& u : fresh) {
      if (u.points != 0) {
        ledger_.award(u.points, {"badge '", u.badge, "'"}, clock_->now());
        tracker_.on_score(u.points, {"badge '", u.badge, "'"}, clock_->now());
      }
      tracker_.on_reward({"badge:", u.badge}, clock_->now());
      ui_.show_message({"Badge unlocked: ", u.badge, "!"}, clock_->now(),
                       seconds(4));
      log({"badge '", u.badge, "' unlocked"});
    }
  }
}

void GameSession::enter_scenario(ScenarioId id) {
  const Scenario* s = bundle_->graph.find(id);
  if (!s) {
    log({"ERROR: switch to missing scenario ", DecimalText(id.value)});
    return;
  }
  current_ = id;
  scene_ = bundle_->objects_of(id);
  visited_.insert(id.value);
  scenario_entered_at_ = clock_->now();
  segment_end_fired_ = false;
  pending_interaction_.reset();
  if (options_.enable_avatar) {
    // The avatar enters each scene at its doorway (bottom-left corner).
    avatar_.set_position({40, bundle_->video->height() - 20});
  }
  if (auto st = player_.play_segment(s->segment, clock_->now()); !st.ok()) {
    log({"ERROR: cannot play segment for '", s->name, "': ",
         st.error().to_string()});
  }
  tracker_.on_scenario_entered(id, s->name, clock_->now());
  log({"entered scenario '", s->name, "'"});
  arm_timers();

  TriggerEvent ev;
  ev.type = TriggerType::kEnterScenario;
  ev.scenario = id;
  ev.when = clock_->now();
  dispatch(ev);

  // Terminal scenarios end the game on entry (unless a rule already did).
  if (s->terminal && !game_over_) {
    game_over_ = true;
    success_ = true;
    tracker_.on_game_over(true, clock_->now());
    log({"game over: reached terminal scenario '", s->name, "'"});
  }
}

void GameSession::arm_timers() {
  timers_.clear();
  rule_book().for_each_timer(current_, [&](const EventRule& r) {
    if (r.once && disarmed_.count(r.id.value)) return;
    timers_.push_back({r.id, scenario_entered_at_ + r.trigger.delay});
  });
}

void GameSession::dispatch(const TriggerEvent& event) {
  if (game_over_) return;
  StateView view(this);
  const RuleMatches fired = rule_book().match(event, view, disarmed_);
  bool scenario_ended = false;
  for (const EventRule* rule : fired) {
    if (scenario_ended) break;
    log({"rule '", rule->name, "' fired"});
    if (rule->once) disarmed_.insert(rule->id.value);
    for (const Action& action : rule->actions) {
      if (apply_action(action, rule)) {
        scenario_ended = true;
        break;
      }
    }
  }
  if (!fired.empty() || scenario_ended || !options_.enable_default_behaviours) {
    return;
  }

  // Built-in defaults when no designer rule claimed the event.
  const InteractiveObject* obj =
      event.object.valid() ? bundle_->find_object(event.object) : nullptr;
  switch (event.type) {
    case TriggerType::kExamine:
      if (obj) {
        if (obj->description.empty()) {
          ui_.show_message({"You see ", obj->name, "."}, clock_->now(),
                           seconds(4));
        } else {
          ui_.show_message({obj->description}, clock_->now(), seconds(4));
        }
        tracker_.on_interaction("examine", {obj->name}, clock_->now());
        log({"examined '", obj->name, "'"});
      }
      break;
    case TriggerType::kClick:
      if (obj && obj->kind == ObjectKind::kNpc && obj->dialogue.valid()) {
        (void)apply_action(Action::start_dialogue(obj->dialogue), nullptr);
      } else if (obj && obj->kind == ObjectKind::kItem &&
                 obj->grants_item.valid()) {
        (void)apply_action(Action::give_item(obj->grants_item), nullptr);
        (void)apply_action(Action::hide_object(obj->id), nullptr);
      } else if (obj) {
        tracker_.on_interaction("click", {obj->name}, clock_->now());
        log({"clicked '", obj->name, "' (no effect)"});
      }
      break;
    case TriggerType::kDragToInventory:
      if (obj && obj->draggable && obj->grants_item.valid()) {
        (void)apply_action(Action::give_item(obj->grants_item), nullptr);
        (void)apply_action(Action::hide_object(obj->id), nullptr);
      }
      break;
    default:
      break;
  }
}

bool GameSession::apply_action(const Action& action, const EventRule* source) {
  const MicroTime now = clock_->now();
  switch (action.type) {
    case ActionType::kSwitchScenario:
      enter_scenario(action.scenario);
      return true;
    case ActionType::kShowMessage:
      ui_.show_message({action.text}, now, seconds(6));
      log({"message: ", action.text});
      break;
    case ActionType::kShowImage:
      ui_.show_image(action.text, now);
      log({"image popup: ", action.text});
      break;
    case ActionType::kOpenUrl: {
      const WebResource* page = resources().find(action.text);
      resource_log_.push_back({action.text, now, page != nullptr});
      if (page) {
        ui_.show_message({"[", page->title, "] ", page->summary}, now,
                         seconds(8));
        tracker_.on_resource_opened(page->title, now);
        log({"opened resource '", page->title, "'"});
      } else {
        ui_.show_message({"Page not found: ", action.text}, now, seconds(4));
        log({"resource not found: ", action.text});
      }
      break;
    }
    case ActionType::kGiveItem: {
      const int count = action.amount > 0 ? static_cast<int>(action.amount) : 1;
      const ItemDef* def = bundle_->items.find(action.item);
      if (auto st = inventory_.add(action.item, count); !st.ok()) {
        ui_.show_message({"Your backpack is full."}, now, seconds(4));
        log({"give_item failed: ", st.error().to_string()});
        break;
      }
      const std::string_view name = def ? std::string_view(def->name) : "item";
      tracker_.on_item_collected(name, now);
      if (def && def->bonus_points != 0) {
        ledger_.award(def->bonus_points, {"collected ", name}, now);
        tracker_.on_score(def->bonus_points, {"collected ", name}, now);
      }
      ui_.show_message({"Got ", name, "."}, now, seconds(3));
      log({"item '", name, "' added to backpack"});
      break;
    }
    case ActionType::kRemoveItem: {
      const int count = action.amount > 0 ? static_cast<int>(action.amount) : 1;
      if (auto st = inventory_.remove(action.item, count); !st.ok()) {
        log({"remove_item failed: ", st.error().to_string()});
      }
      break;
    }
    case ActionType::kSetFlag:
      flags_.insert(action.text);
      log({"flag '", action.text, "' set"});
      break;
    case ActionType::kClearFlag:
      flags_.erase(action.text);
      log({"flag '", action.text, "' cleared"});
      break;
    case ActionType::kAddScore: {
      // The reason, in up to three pieces: the action's text, else the
      // firing rule's name, else "bonus".
      std::string_view reason[3] = {"bonus", "", ""};
      if (!action.text.empty()) {
        reason[0] = action.text;
      } else if (source) {
        reason[0] = "rule '";
        reason[1] = source->name;
        reason[2] = "'";
      }
      ledger_.award(action.amount, {reason[0], reason[1], reason[2]}, now);
      tracker_.on_score(action.amount, {reason[0], reason[1], reason[2]}, now);
      log({"score ", DecimalText(action.amount), " (", reason[0], reason[1],
           reason[2], ")"});
      break;
    }
    case ActionType::kStartDialogue: {
      const DialogueTree* tree = bundle_->find_dialogue(action.dialogue);
      if (!tree) {
        log({"ERROR: missing dialogue ", DecimalText(action.dialogue.value)});
        break;
      }
      dialogue_ = ActiveDialogue{action.dialogue, DialogueRunner(tree), 0};
      dialogue_->path.reserve(8);
      log({"dialogue '", tree->name(), "' started"});
      drain_dialogue_tags();
      refresh_dialogue_view();
      break;
    }
    case ActionType::kGrantReward: {
      const ItemDef* def = bundle_->items.find(action.item);
      if (auto st = inventory_.add(action.item); !st.ok()) {
        log({"grant_reward failed: ", st.error().to_string()});
        break;
      }
      const std::string_view name =
          def ? std::string_view(def->name) : "reward";
      tracker_.on_reward({name}, now);
      if (def && def->bonus_points != 0) {
        ledger_.award(def->bonus_points, {"reward: ", name}, now);
        tracker_.on_score(def->bonus_points, {"reward: ", name}, now);
      }
      ui_.show_message({"Achievement unlocked: ", name, "!"}, now, seconds(5));
      log({"reward '", name, "' granted"});
      break;
    }
    case ActionType::kRevealObject:
      visibility_override_[action.object.value] = true;
      log({"object ", DecimalText(action.object.value), " revealed"});
      break;
    case ActionType::kHideObject:
      visibility_override_[action.object.value] = false;
      log({"object ", DecimalText(action.object.value), " hidden"});
      break;
    case ActionType::kReplaySegment:
      (void)player_.replay(now);
      segment_end_fired_ = false;
      log({"segment replayed"});
      return true;
    case ActionType::kStartQuiz: {
      const Quiz* quiz = bundle_->find_quiz(action.quiz);
      if (!quiz) {
        log({"ERROR: missing quiz ", DecimalText(action.quiz.value)});
        break;
      }
      quiz_ = ActiveQuiz{action.quiz, QuizRunner(quiz)};
      log({"quiz '", quiz->name(), "' started"});
      refresh_quiz_view();
      break;
    }
    case ActionType::kEndGame:
      game_over_ = true;
      success_ = action.success_outcome;
      tracker_.on_game_over(success_, now);
      log({success_ ? "game over: success" : "game over: failure"});
      return true;
  }
  return false;
}

// --- Input -------------------------------------------------------------------

Status GameSession::click(Point canvas_point) {
  if (!started_) return failed_precondition("session not started");
  if (game_over_) return failed_precondition("game is over");
  if (in_quiz()) {
    return failed_precondition("a quiz is active; call answer_quiz()");
  }
  if (in_dialogue()) {
    // A click during an auto-advance node advances the conversation.
    return advance_dialogue();
  }
  ui_.dismiss_image();

  const ObjectId id = object_at(canvas_point);
  if (!id.valid()) {
    if (options_.enable_avatar &&
        ui_.layout().video_area.contains(canvas_point)) {
      // Clicking the ground walks the avatar there (§4.3).
      const Rect va{0, 0, bundle_->video->width(), bundle_->video->height()};
      Point target = to_video(canvas_point);
      target.x = std::clamp(target.x, 0, va.width - 1);
      target.y = std::clamp(target.y, 0, va.height - 1);
      avatar_.walk_to(target, clock_->now());
      pending_interaction_.reset();
      log({"avatar walking to ", to_string(target)});
      return {};
    }
    log({"clicked empty space at ", to_string(to_video(canvas_point))});
    return {};
  }
  if (defer_if_out_of_reach(TriggerType::kClick, id, ItemId{})) return {};
  perform_object_interaction(TriggerType::kClick, id, ItemId{});
  return {};
}

bool GameSession::defer_if_out_of_reach(TriggerType type, ObjectId object,
                                        ItemId item) {
  if (!options_.enable_avatar) return false;
  const InteractiveObject* obj = bundle_->find_object(object);
  if (!obj || avatar_.can_reach(obj->placement.rect)) return false;
  // Walk to the object first; the interaction fires on arrival (tick()).
  const Rect va{0, 0, bundle_->video->width(), bundle_->video->height()};
  Point stand = avatar_.stand_point_for(obj->placement.rect);
  stand.x = std::clamp(stand.x, 0, va.width - 1);
  stand.y = std::clamp(stand.y, 0, va.height - 1);
  avatar_.walk_to(stand, clock_->now());
  pending_interaction_ = PendingInteraction{type, object, item};
  log({"avatar walking to '", obj->name, "'"});
  return true;
}

void GameSession::perform_object_interaction(TriggerType type, ObjectId id,
                                             ItemId item) {
  const InteractiveObject* obj = bundle_->find_object(id);
  const char* verb = type == TriggerType::kClick      ? "click"
                     : type == TriggerType::kExamine  ? "examine"
                     : type == TriggerType::kUseItemOn ? "use_item"
                                                       : "interact";
  if (type != TriggerType::kExamine) {
    // Examine default behaviour records itself; avoid double counting.
    tracker_.on_interaction(verb, {obj ? std::string_view(obj->name) : "?"},
                            clock_->now());
  }
  TriggerEvent ev;
  ev.type = type;
  ev.object = id;
  ev.item = item;
  ev.scenario = current_;
  ev.when = clock_->now();
  dispatch(ev);
  drain_rewards();
}

Status GameSession::examine(Point canvas_point) {
  if (!started_) return failed_precondition("session not started");
  if (game_over_) return failed_precondition("game is over");
  const ObjectId id = object_at(canvas_point);
  if (!id.valid()) return {};
  if (defer_if_out_of_reach(TriggerType::kExamine, id, ItemId{})) return {};
  perform_object_interaction(TriggerType::kExamine, id, ItemId{});
  return {};
}

Status GameSession::drag(Point canvas_from, Point canvas_to) {
  if (!started_) return failed_precondition("session not started");
  if (game_over_) return failed_precondition("game is over");
  const ObjectId id = object_at(canvas_from);
  if (!id.valid()) return {};
  const InteractiveObject* obj = bundle_->find_object(id);
  if (!ui_.in_inventory_window(canvas_to)) {
    log({"dragged '", obj ? std::string_view(obj->name) : "?",
         "' nowhere useful"});
    return {};
  }
  tracker_.on_interaction("drag_to_inventory",
                          {obj ? std::string_view(obj->name) : "?"},
                          clock_->now());
  TriggerEvent ev;
  ev.type = TriggerType::kDragToInventory;
  ev.object = id;
  ev.scenario = current_;
  ev.when = clock_->now();
  dispatch(ev);
  drain_rewards();
  return {};
}

Status GameSession::use_item_on(ItemId item, Point canvas_point) {
  if (!started_) return failed_precondition("session not started");
  if (game_over_) return failed_precondition("game is over");
  if (!inventory_.has(item)) {
    return failed_precondition("player does not hold item " +
                               std::to_string(item.value));
  }
  const ObjectId id = object_at(canvas_point);
  if (!id.valid()) return {};
  if (defer_if_out_of_reach(TriggerType::kUseItemOn, id, item)) return {};
  const InteractiveObject* obj = bundle_->find_object(id);
  const ItemDef* def = bundle_->items.find(item);
  tracker_.on_interaction("use_item",
                          {def ? std::string_view(def->name) : "?", " on ",
                           obj ? std::string_view(obj->name) : "?"},
                          clock_->now());
  TriggerEvent ev;
  ev.type = TriggerType::kUseItemOn;
  ev.object = id;
  ev.item = item;
  ev.scenario = current_;
  ev.when = clock_->now();
  dispatch(ev);
  drain_rewards();
  return {};
}

Status GameSession::combine_items(ItemId a, ItemId b) {
  if (!started_) return failed_precondition("session not started");
  if (game_over_) return failed_precondition("game is over");

  // Designer rules may intercept the combination first.
  TriggerEvent ev;
  ev.type = TriggerType::kCombineItems;
  ev.item = a;
  ev.second_item = b;
  ev.scenario = current_;
  ev.when = clock_->now();
  StateView view(this);
  if (!rule_book().match(ev, view, disarmed_).empty()) {
    dispatch(ev);
    drain_rewards();
    return {};
  }

  // Otherwise use the combine table.
  auto result = bundle_->combines.combine(inventory_, a, b);
  if (!result.ok()) return result.error();
  const ItemDef* def = bundle_->items.find(result.value());
  const std::string_view name = def ? std::string_view(def->name) : "item";
  tracker_.on_interaction("combine", {name}, clock_->now());
  ui_.show_message({"Created ", name, "."}, clock_->now(), seconds(3));
  log({"combined items into '", name, "'"});
  drain_rewards();
  return {};
}

void GameSession::dismiss_popups() {
  ui_.dismiss_message();
  ui_.dismiss_image();
}

// --- Dialogue ------------------------------------------------------------------

void GameSession::drain_dialogue_tags() {
  if (!dialogue_) return;
  // Tags may fire rules which start another dialogue; iterate carefully.
  while (dialogue_ &&
         dialogue_->consumed_tags < dialogue_->runner.fired_tags().size()) {
    // The tag views the bundle's dialogue tree, so it outlives the runner
    // that a rule fired by it may replace.
    const std::string_view tag =
        dialogue_->runner.fired_tags()[dialogue_->consumed_tags++];
    TriggerEvent ev;
    ev.type = TriggerType::kDialogueTag;
    ev.scenario = current_;
    ev.tag = tag;
    ev.when = clock_->now();
    dispatch(ev);
  }
}

void GameSession::refresh_dialogue_view() {
  if (!dialogue_ || !dialogue_->runner.active()) {
    ui_.hide_dialogue();
    if (dialogue_ && !dialogue_->runner.active()) dialogue_.reset();
    return;
  }
  const DialogueNode* node = dialogue_->runner.current();
  DialogueView& view = ui_.show_dialogue();
  view.speaker.assign(node->speaker);
  view.line.assign(node->line);
  view.choices.resize(node->choices.size());
  for (size_t i = 0; i < node->choices.size(); ++i) {
    view.choices[i].assign(node->choices[i].text);
  }
}

Status GameSession::advance_dialogue() {
  if (!dialogue_) return failed_precondition("no active dialogue");
  auto st = dialogue_->runner.advance();
  if (!st.ok()) return st;
  dialogue_->path.push_back(kDialogueAdvance);
  drain_dialogue_tags();
  refresh_dialogue_view();
  drain_rewards();
  return {};
}

Status GameSession::choose_dialogue(size_t index) {
  if (!dialogue_) return failed_precondition("no active dialogue");
  const DialogueNode* node = dialogue_->runner.current();
  const std::string_view context = node ? std::string_view(node->line) : "";
  auto st = dialogue_->runner.choose(index);
  if (!st.ok()) return st;
  dialogue_->path.push_back(static_cast<u32>(index));
  // Record the decision for the learning report (§3.2: knowledge from the
  // process of making decisions).
  const auto& transcript = dialogue_->runner.transcript();
  const std::string_view chosen =
      transcript.empty() ? "" : std::string_view(transcript.back().chosen);
  tracker_.on_decision({context}, chosen, clock_->now());
  drain_dialogue_tags();
  refresh_dialogue_view();
  drain_rewards();
  return {};
}

void GameSession::refresh_quiz_view() {
  if (!quiz_ || quiz_->runner.finished()) {
    ui_.hide_quiz();
    return;
  }
  const Quiz* quiz = bundle_->find_quiz(quiz_->id);
  const QuizQuestion* q = quiz_->runner.current();
  QuizView& view = ui_.show_quiz();
  view.quiz_name.assign(quiz->name());
  view.prompt.assign(q->prompt);
  view.options.resize(q->options.size());
  for (size_t i = 0; i < q->options.size(); ++i) {
    view.options[i].assign(q->options[i]);
  }
  view.question_number = quiz_->runner.question_number();
  view.total_questions = quiz->size();
}

Status GameSession::answer_quiz(size_t option) {
  if (!quiz_) return failed_precondition("no active quiz");
  const Quiz* quiz = bundle_->find_quiz(quiz_->id);
  const QuizQuestion* q = quiz_->runner.current();
  const std::string_view prompt = q ? std::string_view(q->prompt) : "";
  auto correct = quiz_->runner.answer(option);
  if (!correct.ok()) return correct.error();
  quiz_->answers.push_back(static_cast<u32>(option));

  const std::string_view chosen =
      q && option < q->options.size() ? std::string_view(q->options[option])
                                      : "?";
  tracker_.on_decision({"[quiz] ", prompt}, chosen, clock_->now());
  if (q && !q->explanation.empty()) {
    ui_.show_message(
        {correct.value() ? "Correct! " : "Not quite. ", q->explanation},
        clock_->now(), seconds(5));
  }
  log({"quiz answer ", correct.value() ? "correct" : "wrong", ": ", chosen});

  if (quiz_->runner.finished()) {
    const QuizOutcome outcome = quiz_->runner.outcome();
    if (outcome.points_earned != 0) {
      ledger_.award(outcome.points_earned, {"quiz '", quiz->name(), "'"},
                    clock_->now());
      tracker_.on_score(outcome.points_earned, {"quiz '", quiz->name(), "'"},
                        clock_->now());
    }
    flags_.insert((outcome.passed ? "quiz_passed:" : "quiz_failed:") +
                  quiz->name());
    const DecimalText correct_count(outcome.correct_count);
    const DecimalText total(outcome.total);
    ui_.show_message({"Quiz '", quiz->name(), "': ", correct_count, "/", total,
                      outcome.passed ? " - passed!" : " - try again."},
                     clock_->now(), seconds(6));
    tracker_.on_interaction("quiz_result",
                            {quiz->name(), " ", correct_count, "/", total},
                            clock_->now());
    log({"quiz '", quiz->name(), "' finished: ", correct_count, "/", total});
    quiz_.reset();
    // Quiz outcomes never surface as tracker records with a pass bit, so
    // the reward evaluator hears about them directly.
    rewards::RewardEvent reward_ev;
    reward_ev.kind = rewards::RewardEvent::Kind::kQuizOutcome;
    reward_ev.name = quiz->name();
    reward_ev.success = outcome.passed;
    reward_ev.when = clock_->now();
    rewards_.feed(reward_ev);
    // Completing a quiz may unlock rules gated on the pass flag; give
    // dialogue-tag-style rules a chance to react.
    TriggerEvent ev;
    ev.type = TriggerType::kDialogueTag;
    ev.scenario = current_;
    ev.tag = "quiz_done";
    ev.when = clock_->now();
    dispatch(ev);
  }
  refresh_quiz_view();
  drain_rewards();
  return {};
}

// --- Tick ------------------------------------------------------------------------

void GameSession::tick() {
  if (!started_ || game_over_) return;
  const MicroTime now = clock_->now();
  ui_.update(now);

  if (options_.enable_avatar) {
    const bool arrived = avatar_.update(now);
    if (arrived && pending_interaction_) {
      const PendingInteraction pending = *pending_interaction_;
      pending_interaction_.reset();
      const InteractiveObject* obj = bundle_->find_object(pending.object);
      // The world may have moved on mid-walk (object hidden, scenario
      // switched by a timer); only interact if it is still valid & near.
      if (obj && obj->scenario == current_ && object_effectively_visible(*obj) &&
          avatar_.can_reach(obj->placement.rect)) {
        perform_object_interaction(pending.type, pending.object, pending.item);
      } else {
        log({"pending interaction dropped (target gone)"});
      }
      if (game_over_) {
        drain_rewards();
        return;
      }
    }
  }

  // Timers.
  std::vector<ArmedTimer> due;
  std::erase_if(timers_, [&](const ArmedTimer& t) {
    if (t.fire_at <= now) {
      due.push_back(t);
      return true;
    }
    return false;
  });
  for (const auto& t : due) {
    TriggerEvent ev;
    ev.type = TriggerType::kTimer;
    ev.scenario = current_;
    ev.when = now;
    // Route through the specific rule: match() would fire all due timer
    // rules at once, which is fine, but we keep per-timer granularity.
    const EventRule* rule = rule_book().find(t.rule);
    if (!rule) continue;
    if (rule->once && disarmed_.count(rule->id.value)) continue;
    if (!trigger_matches(rule->trigger, ev)) continue;
    if (!rule_book().guard_passes(*rule, StateView(this))) continue;
    log({"timer rule '", rule->name, "' fired"});
    if (rule->once) disarmed_.insert(rule->id.value);
    for (const Action& action : rule->actions) {
      if (apply_action(action, rule)) break;
    }
    if (game_over_) {
      drain_rewards();
      return;
    }
  }

  // Segment end (fires once per scenario entry).
  if (!segment_end_fired_ && player_.playing() && player_.finished(now)) {
    segment_end_fired_ = true;
    TriggerEvent ev;
    ev.type = TriggerType::kSegmentEnd;
    ev.scenario = current_;
    ev.when = now;
    dispatch(ev);
  }
  drain_rewards();
}

// --- Save games --------------------------------------------------------------------

Json GameSession::save_state() const {
  Json out = Json::object();
  auto& o = out.mutable_object();
  o.set("current_scenario", Json(current_.value));
  o.set("score", Json(ledger_.total()));
  o.set("game_over", Json(game_over_));
  o.set("success", Json(success_));
  JsonArray inv;
  for (const auto& slot : inventory_.slots()) {
    Json sj = Json::object();
    auto& so = sj.mutable_object();
    so.set("item", Json(slot.item.value));
    so.set("count", Json(slot.count));
    inv.push_back(std::move(sj));
  }
  o.set("inventory", Json(std::move(inv)));
  JsonArray flags;
  std::vector<std::string> sorted_flags(flags_.begin(), flags_.end());
  std::sort(sorted_flags.begin(), sorted_flags.end());
  for (const auto& f : sorted_flags) flags.push_back(Json(f));
  o.set("flags", Json(std::move(flags)));
  JsonArray visited;
  std::vector<u32> sorted_visited(visited_.begin(), visited_.end());
  std::sort(sorted_visited.begin(), sorted_visited.end());
  for (u32 v : sorted_visited) visited.push_back(Json(v));
  o.set("visited", Json(std::move(visited)));
  JsonArray disarmed;
  std::vector<u32> sorted_disarmed(disarmed_.begin(), disarmed_.end());
  std::sort(sorted_disarmed.begin(), sorted_disarmed.end());
  for (u32 d : sorted_disarmed) disarmed.push_back(Json(d));
  o.set("disarmed", Json(std::move(disarmed)));
  JsonArray overrides;
  std::vector<std::pair<u32, bool>> sorted_overrides(
      visibility_override_.begin(), visibility_override_.end());
  std::sort(sorted_overrides.begin(), sorted_overrides.end());
  for (const auto& [id, vis] : sorted_overrides) {
    Json oj = Json::object();
    auto& oo = oj.mutable_object();
    oo.set("object", Json(id));
    oo.set("visible", Json(vis));
    overrides.push_back(std::move(oj));
  }
  o.set("visibility", Json(std::move(overrides)));
  return out;
}

Status GameSession::load_state(const Json& snapshot) {
  if (!snapshot.is_object()) return corrupt_data("save state must be an object");
  const ScenarioId scenario{
      static_cast<u32>(snapshot["current_scenario"].as_int())};
  if (!bundle_->graph.find(scenario)) {
    return corrupt_data("save references missing scenario " +
                        std::to_string(scenario.value));
  }

  // Rebuild mutable state from the snapshot.
  inventory_ = Inventory(&bundle_->items, options_.inventory_capacity);
  for (const auto& sj : snapshot["inventory"].as_array()) {
    const ItemId item{static_cast<u32>(sj["item"].as_int())};
    const int count = static_cast<int>(sj["count"].as_int());
    if (auto st = inventory_.add(item, count); !st.ok()) return st;
  }
  flags_.clear();
  for (const auto& f : snapshot["flags"].as_array()) {
    flags_.insert(f.as_string());
  }
  visited_.clear();
  for (const auto& v : snapshot["visited"].as_array()) {
    visited_.insert(static_cast<u32>(v.as_int()));
  }
  disarmed_.clear();
  for (const auto& d : snapshot["disarmed"].as_array()) {
    disarmed_.insert(static_cast<u32>(d.as_int()));
  }
  visibility_override_.clear();
  for (const auto& oj : snapshot["visibility"].as_array()) {
    visibility_override_[static_cast<u32>(oj["object"].as_int())] =
        oj["visible"].as_bool();
  }

  ledger_ = ScoreLedger{};
  const i64 score = snapshot["score"].as_int();
  if (score != 0) ledger_.award(score, {"restored save"}, clock_->now());

  game_over_ = snapshot["game_over"].as_bool(false);
  success_ = snapshot["success"].as_bool(false);
  started_ = true;
  dialogue_.reset();
  ui_.hide_dialogue();

  // Re-enter the saved scenario without re-firing enter events (the save
  // was taken mid-scenario; re-firing would duplicate one-shot effects —
  // but disarmed_ already guards the once-rules, and non-once enter rules
  // are expected to be idempotent scene dressing; we restart the video).
  const Scenario* s = bundle_->graph.find(scenario);
  current_ = scenario;
  scene_ = bundle_->objects_of(scenario);
  scenario_entered_at_ = clock_->now();
  segment_end_fired_ = false;
  if (auto st = player_.play_segment(s->segment, clock_->now()); !st.ok()) {
    return st;
  }
  arm_timers();
  log({"save state restored"});
  return {};
}

// --- Session persistence -----------------------------------------------------------

SessionState GameSession::capture_state() const {
  SessionState s;
  s.now = clock_->now();
  s.scenario = current_;
  s.started = started_;
  s.game_over = game_over_;
  s.success = success_;
  s.scenario_entered_at = scenario_entered_at_;
  s.segment_end_fired = segment_end_fired_;
  s.player_active = player_.playing();
  s.player_start = player_.start_time();

  for (const auto& slot : inventory_.slots()) {
    s.inventory.push_back({slot.item.value, slot.count});
  }
  s.ledger.reserve(ledger_.size());
  for (size_t i = 0; i < ledger_.size(); ++i) {
    const ScoreLedger::Entry e = ledger_.entry(i);
    s.ledger.push_back({e.points, std::string(e.reason), e.when});
  }

  // Sets are sorted so snapshots of equal states are byte-identical.
  s.flags.assign(flags_.begin(), flags_.end());
  std::sort(s.flags.begin(), s.flags.end());
  s.visited.assign(visited_.begin(), visited_.end());
  std::sort(s.visited.begin(), s.visited.end());
  s.disarmed.assign(disarmed_.begin(), disarmed_.end());
  std::sort(s.disarmed.begin(), s.disarmed.end());
  for (const auto& [id, visible] : visibility_override_) {
    s.visibility.push_back({id, visible});
  }
  std::sort(s.visibility.begin(), s.visibility.end(),
            [](const auto& a, const auto& b) { return a.object < b.object; });
  for (const auto& t : timers_) {
    s.timers.push_back({t.rule.value, t.fire_at});
  }

  s.avatar_position = avatar_.position();
  s.avatar_walking = avatar_.walking();
  if (s.avatar_walking) s.avatar_target = *avatar_.target();
  if (pending_interaction_) {
    s.has_pending_interaction = true;
    s.pending_trigger = static_cast<u8>(pending_interaction_->type);
    s.pending_object = pending_interaction_->object.value;
    s.pending_item = pending_interaction_->item.value;
  }

  if (dialogue_) {
    s.in_dialogue = true;
    s.dialogue_id = dialogue_->id.value;
    s.dialogue_path = dialogue_->path;
    s.dialogue_consumed_tags = static_cast<u32>(dialogue_->consumed_tags);
  }
  if (quiz_) {
    s.in_quiz = true;
    s.quiz_id = quiz_->id.value;
    s.quiz_answers = quiz_->answers;
  }

  if (ui_.message()) {
    s.has_message = true;
    s.message_text = ui_.message()->text;
    s.message_shown_at = ui_.message()->shown_at;
    s.message_timeout = ui_.message()->timeout;
  }
  if (ui_.image()) {
    s.has_image = true;
    s.image_icon = ui_.image()->icon;
    s.image_shown_at = ui_.image()->shown_at;
  }

  s.tracker = tracker_.state();
  s.rewards = rewards_.state();
  s.log.reserve(log_entries_.size());
  for (const LogEntry& e : log_entries_) {
    s.log.push_back({e.when, std::string(log_text_.view(e.text))});
  }
  return s;
}

Status GameSession::restore_state(const SessionState& state) {
  if (clock_->now() != state.now) {
    return failed_precondition(
        "clock must read the snapshot time before restore (expected " +
        std::to_string(state.now) + ", is " +
        std::to_string(clock_->now()) + ")");
  }
  const Scenario* scenario = bundle_->graph.find(state.scenario);
  if (!scenario) {
    return corrupt_data("snapshot references missing scenario " +
                        std::to_string(state.scenario.value));
  }

  // Rebuild all fallible pieces into locals first so a corrupt snapshot
  // rejects without half-mutating the session.
  Inventory inventory(&bundle_->items, options_.inventory_capacity);
  for (const auto& slot : state.inventory) {
    if (auto st = inventory.add(ItemId{slot.item}, slot.count); !st.ok()) {
      return corrupt_data("snapshot inventory invalid: " +
                          st.error().to_string());
    }
  }

  std::optional<ActiveDialogue> dialogue;
  if (state.in_dialogue) {
    const DialogueTree* tree =
        bundle_->find_dialogue(DialogueId{state.dialogue_id});
    if (!tree) {
      return corrupt_data("snapshot references missing dialogue " +
                          std::to_string(state.dialogue_id));
    }
    dialogue = ActiveDialogue{DialogueId{state.dialogue_id},
                              DialogueRunner(tree), 0, {}};
    for (u32 input : state.dialogue_path) {
      auto st = input == kDialogueAdvance
                    ? dialogue->runner.advance()
                    : dialogue->runner.choose(input);
      if (!st.ok()) {
        return corrupt_data("snapshot dialogue path does not replay: " +
                            st.error().to_string());
      }
    }
    if (!dialogue->runner.active()) {
      return corrupt_data("snapshot dialogue path ends the conversation");
    }
    if (state.dialogue_consumed_tags > dialogue->runner.fired_tags().size()) {
      return corrupt_data("snapshot dialogue consumed-tag count too large");
    }
    dialogue->consumed_tags = state.dialogue_consumed_tags;
    dialogue->path = state.dialogue_path;
  }

  std::optional<ActiveQuiz> quiz;
  if (state.in_quiz) {
    const Quiz* q = bundle_->find_quiz(QuizId{state.quiz_id});
    if (!q) {
      return corrupt_data("snapshot references missing quiz " +
                          std::to_string(state.quiz_id));
    }
    quiz = ActiveQuiz{QuizId{state.quiz_id}, QuizRunner(q), {}};
    for (u32 option : state.quiz_answers) {
      auto answered = quiz->runner.answer(option);
      if (!answered.ok()) {
        return corrupt_data("snapshot quiz answers do not replay: " +
                            answered.error().to_string());
      }
    }
    if (quiz->runner.finished()) {
      return corrupt_data("snapshot quiz answers finish the quiz");
    }
    quiz->answers = state.quiz_answers;
  }

  // An empty per-rule vector means the snapshot carries no rewards state
  // (captured by an older build, or with rewards disabled); a populated
  // one must match this session's rule set exactly.
  rewards::RewardEvaluator restored_rewards(options_.reward_rules);
  const bool rewards_state_present =
      !state.rewards.progress.empty() || !state.rewards.unlocks.empty();
  if (restored_rewards.active() && rewards_state_present) {
    if (auto st = restored_rewards.restore_state(state.rewards); !st.ok()) {
      return st;
    }
  }

  // The log, the ledger and the tracker each keep their text in one
  // TextBuffer.
  u64 log_bytes = 0;
  for (const auto& e : state.log) log_bytes += e.text.size();
  u64 ledger_bytes = 0;
  for (const auto& e : state.ledger) ledger_bytes += e.reason.size();
  if (!TextBuffer::fits(log_bytes) || !TextBuffer::fits(ledger_bytes) ||
      !TextBuffer::fits(state.tracker.text_bytes())) {
    return corrupt_data("snapshot text exceeds a 4 GiB text buffer");
  }

  // Commit.
  inventory_ = std::move(inventory);
  ledger_ = ScoreLedger{};
  for (const auto& e : state.ledger) {
    ledger_.award(e.points, {e.reason}, e.when);
  }
  flags_.clear();
  flags_.insert(state.flags.begin(), state.flags.end());
  visited_.clear();
  visited_.insert(state.visited.begin(), state.visited.end());
  disarmed_.clear();
  disarmed_.insert(state.disarmed.begin(), state.disarmed.end());
  visibility_override_.clear();
  for (const auto& v : state.visibility) {
    visibility_override_[v.object] = v.visible;
  }
  timers_.clear();
  for (const auto& t : state.timers) {
    timers_.push_back({RuleId{t.rule}, t.fire_at});
  }

  current_ = state.scenario;
  scene_ = bundle_->objects_of(state.scenario);
  started_ = state.started;
  game_over_ = state.game_over;
  success_ = state.success;
  scenario_entered_at_ = state.scenario_entered_at;
  segment_end_fired_ = state.segment_end_fired;

  avatar_.set_position(state.avatar_position);
  if (state.avatar_walking) {
    avatar_.walk_to(state.avatar_target, clock_->now());
  }
  pending_interaction_.reset();
  if (state.has_pending_interaction) {
    pending_interaction_ =
        PendingInteraction{static_cast<TriggerType>(state.pending_trigger),
                           ObjectId{state.pending_object},
                           ItemId{state.pending_item}};
  }

  dialogue_ = std::move(dialogue);
  quiz_ = std::move(quiz);

  if (state.has_message) {
    ui_.show_message({state.message_text}, state.message_shown_at,
                     state.message_timeout);
  } else {
    ui_.dismiss_message();
  }
  if (state.has_image) {
    ui_.show_image(state.image_icon, state.image_shown_at);
  } else {
    ui_.dismiss_image();
  }
  refresh_dialogue_view();
  refresh_quiz_view();

  tracker_.restore(state.tracker);
  rewards_ = std::move(restored_rewards);
  if (rewards_.active() && !rewards_state_present) {
    // No rewards state to resume: skip the replayed tracker history so the
    // restored session does not retroactively unlock badges for it.
    rewards_.mark_consumed(static_cast<u32>(tracker_.interaction_count()),
                           static_cast<u32>(tracker_.item_count()),
                           static_cast<u32>(tracker_.decision_count()),
                           static_cast<u32>(tracker_.visit_count()));
  }
  log_text_.clear();
  log_entries_.clear();
  log_entries_.reserve(state.log.size());
  for (const auto& e : state.log) {
    log_entries_.push_back({e.when, log_text_.append({e.text})});
  }

  if (state.player_active) {
    if (auto st = player_.play_segment(scenario->segment, state.player_start);
        !st.ok()) {
      return st;
    }
  } else {
    player_.stop();
  }

  return {};
}

}  // namespace vgbl
