#include "runtime/script.hpp"

#include <algorithm>
#include <string_view>

#include "util/text.hpp"

namespace vgbl {

Result<Point> ScriptRunner::locate(const std::string& object_name) const {
  for (const InteractiveObject* o : session_->visible_objects()) {
    if (o->name == object_name) {
      const Point video_center = o->placement.rect.center();
      const Point origin = session_->ui().layout().video_area.origin();
      return Point{video_center.x + origin.x, video_center.y + origin.y};
    }
  }
  return not_found("no visible object named '" + object_name +
                   "' in the current scenario");
}

Result<ItemId> ScriptRunner::item_by_name(const std::string& name) const {
  const ItemDef* def = session_->bundle().items.find_by_name(name);
  if (!def) return not_found("no item named '" + name + "'");
  return def->id;
}

Status ScriptRunner::run_step(const ScriptStep& step) {
  switch (step.op) {
    case ScriptStep::Op::kClickObject: {
      auto p = locate(step.object_name);
      if (!p.ok()) return p.error();
      return session_->click(p.value());
    }
    case ScriptStep::Op::kExamineObject: {
      auto p = locate(step.object_name);
      if (!p.ok()) return p.error();
      return session_->examine(p.value());
    }
    case ScriptStep::Op::kDragObjectToInventory: {
      auto p = locate(step.object_name);
      if (!p.ok()) return p.error();
      const Rect inv = session_->ui().layout().inventory_window;
      return session_->drag(p.value(), inv.center());
    }
    case ScriptStep::Op::kUseItemOn: {
      auto item = item_by_name(step.item_name);
      if (!item.ok()) return item.error();
      auto p = locate(step.object_name);
      if (!p.ok()) return p.error();
      return session_->use_item_on(item.value(), p.value());
    }
    case ScriptStep::Op::kCombineItems: {
      auto a = item_by_name(step.item_name);
      if (!a.ok()) return a.error();
      auto b = item_by_name(step.second_item_name);
      if (!b.ok()) return b.error();
      return session_->combine_items(a.value(), b.value());
    }
    case ScriptStep::Op::kChooseDialogue:
      return session_->choose_dialogue(step.choice);
    case ScriptStep::Op::kAdvanceDialogue:
      return session_->advance_dialogue();
    case ScriptStep::Op::kAnswerQuiz:
      return session_->answer_quiz(step.choice);
    case ScriptStep::Op::kWait: {
      // Tick in frame-sized increments so timers fire at accurate times.
      MicroTime remaining = step.wait_time;
      const MicroTime quantum = milliseconds(50);
      while (remaining > 0) {
        const MicroTime d = std::min(remaining, quantum);
        clock_->advance(d);
        remaining -= d;
        session_->tick();
      }
      return {};
    }
    case ScriptStep::Op::kClickPoint:
      return session_->click(step.point);
  }
  return internal_error("unknown script op");
}

Status ScriptRunner::run(const InputScript& script) {
  for (const auto& step : script) {
    if (options_.stop_on_game_over && session_->game_over()) return {};
    if (auto st = run_step(step); !st.ok()) return st;
    clock_->advance(options_.step_pause);
    session_->tick();
  }
  return {};
}

namespace {

/// Signature of the mutable state a retry decision depends on: if it
/// changed, previously fruitless interactions may now fire (a guard's
/// has_item/flag may pass), so the explorer retries them. Deliberately
/// excludes the current scenario — otherwise every navigation hop would
/// re-arm all interactions and the bot would ping-pong between scenes.
u64 state_signature(const GameSession& s) {
  u64 h = 1469598103934665603ULL;
  const auto mix = [&h](u64 v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  };
  for (const auto& slot : s.inventory().slots()) {
    mix(slot.item.value);
    mix(static_cast<u64>(slot.count));
  }
  mix(static_cast<u64>(s.score()));
  // Flags, order-independently (XOR of name hashes).
  u64 flag_mix = 0;
  for (const auto& f : s.flags()) {
    flag_mix ^= std::hash<std::string>{}(f);
  }
  mix(flag_mix);
  return h;
}

/// An open-addressed hash set: linear probing over a power-of-two table
/// kept at most half full, so a lookup or an insert allocates nothing until
/// the table doubles. `Keys` hashes stored keys and probes (`hash`),
/// compares a stored key with a probe (`equal`) and makes the key a new
/// probe is stored as (`store`); a probe may be another type than the key.
template <typename Key, typename Keys>
class OpenSet {
 public:
  template <typename Probe>
  [[nodiscard]] bool contains(const Probe& probe) const {
    return !slots_.empty() && slots_[slot_for(probe)].used;
  }
  /// Adds `probe` unless an equal key is there; returns whether it did.
  template <typename Probe>
  bool insert(const Probe& probe) {
    if ((size_ + 1) * 2 > slots_.size()) grow();
    Slot& slot = slots_[slot_for(probe)];
    if (slot.used) return false;
    slot = {keys_.store(probe), true};
    ++size_;
    return true;
  }
  [[nodiscard]] size_t size() const { return size_; }

 private:
  struct Slot {
    Key key{};
    bool used = false;
  };

  /// The slot holding a key equal to `probe`, else the free slot that
  /// ends its probe sequence.
  template <typename Probe>
  [[nodiscard]] size_t slot_for(const Probe& probe) const {
    const size_t mask = slots_.size() - 1;
    size_t i = keys_.hash(probe) & mask;
    while (slots_[i].used && !keys_.equal(slots_[i].key, probe)) {
      i = (i + 1) & mask;
    }
    return i;
  }
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    const size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (!s.used) continue;
      size_t i = keys_.hash(s.key) & mask;
      while (slots_[i].used) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  Keys keys_;
  std::vector<Slot> slots_;
  size_t size_ = 0;
};

/// One attempted explorer action: what was done, to which object/item ids
/// (`a` is the object, or the held item for use/combine; `b` the object
/// used on or the second item, else 0), under which state signature.
struct Tried {
  enum Op : u8 { kExamine, kTake, kClick, kUse, kCombine };
  Op op;
  u32 a;
  u32 b;
  u64 sig;
  bool operator==(const Tried&) const = default;
};

struct TriedKeys {
  [[nodiscard]] u64 hash(const Tried& t) const {
    u64 h = t.sig ^ (static_cast<u64>(t.op) << 56);
    h ^= (static_cast<u64>(t.a) << 32 | t.b) * 0x9E3779B97F4A7C15ULL;
    return h ^ (h >> 29);
  }
  [[nodiscard]] bool equal(const Tried& a, const Tried& b) const {
    return a == b;
  }
  [[nodiscard]] Tried store(const Tried& t) const { return t; }
};

/// A dialogue reply the explorer has chosen: a line and the choice taken.
struct Reply {
  std::string_view line;
  std::string_view choice;
};

/// Tried replies, stored as `line + "|" + choice` in one TextBuffer and
/// probed by views, so a lookup builds no string.
struct ReplyKeys {
  TextBuffer text;

  [[nodiscard]] static u64 fnv(u64 h, std::string_view s) {
    for (char c : s) {
      h ^= static_cast<u8>(c);
      h *= 1099511628211ULL;
    }
    return h;
  }
  [[nodiscard]] u64 hash(TextBuffer::Ref key) const {
    return fnv(14695981039346656037ULL, text.view(key));
  }
  [[nodiscard]] u64 hash(const Reply& r) const {
    return fnv(fnv(fnv(14695981039346656037ULL, r.line), "|"), r.choice);
  }
  [[nodiscard]] bool equal(TextBuffer::Ref key, const Reply& r) const {
    const std::string_view k = text.view(key);
    return k.size() == r.line.size() + 1 + r.choice.size() &&
           k.starts_with(r.line) && k[r.line.size()] == '|' &&
           k.ends_with(r.choice);
  }
  TextBuffer::Ref store(const Reply& r) {
    return text.append({r.line, "|", r.choice});
  }
};

class ExplorerBot {
 public:
  ExplorerBot(GameSession& session, SimClock& clock, Rng rng, bool examine)
      : session_(session), clock_(clock), rng_(rng), examine_(examine) {}

  /// One action; returns false when the bot is out of ideas this round
  /// (caller then waits to let timers / segment-end advance the world).
  bool step() {
    if (session_.in_quiz()) {
      const auto& q = session_.ui().quiz();
      // The explorer "studied": it answers deterministically by prompt
      // hash, which is stable but not always right — like a real student.
      const size_t n = q ? q->options.size() : 1;
      (void)session_.answer_quiz(
          std::hash<std::string_view>{}(q ? std::string_view(q->prompt) : "") %
          n);
      return true;
    }
    if (session_.in_dialogue()) {
      const auto& d = session_.ui().dialogue();
      if (d && !d->choices.empty()) {
        // Systematic: take the first untried choice of this line; once all
        // were tried across conversations, fall back to random.
        size_t pick = rng_.below(d->choices.size());
        for (size_t i = 0; i < d->choices.size(); ++i) {
          if (!dialogue_tried_.contains(Reply{d->line, d->choices[i]})) {
            pick = i;
            break;
          }
        }
        dialogue_tried_.insert(Reply{d->line, d->choices[pick]});
        (void)session_.choose_dialogue(pick);
      } else {
        (void)session_.advance_dialogue();
      }
      return true;
    }

    const u64 sig = state_signature(session_) ^
                    (dialogue_tried_.size() * 0x9E3779B97F4A7C15ULL);
    const Point origin = session_.ui().layout().video_area.origin();
    auto canvas_center = [&](const InteractiveObject* o) {
      const Point c = o->placement.rect.center();
      return Point{c.x + origin.x, c.y + origin.y};
    };

    const auto& objects = session_.visible_objects();

    // 1. Untried examines (knowledge first — this is a learning game).
    //    State-dependent so guarded examines (e.g. "reveals a hidden
    //    object once you heard the hint") are retried after state changes.
    if (examine_) {
      for (const auto* o : objects) {
        if (mark({Tried::kExamine, o->id.value, 0, sig})) {
          (void)session_.examine(canvas_center(o));
          return true;
        }
      }
    }
    // 2. Collect collectables.
    for (const auto* o : objects) {
      if ((o->kind == ObjectKind::kItem || o->draggable) &&
          mark({Tried::kTake, o->id.value, 0, sig})) {
        if (o->draggable) {
          (void)session_.drag(canvas_center(o),
                              session_.ui().layout().inventory_window.center());
        } else {
          (void)session_.click(canvas_center(o));
        }
        return true;
      }
    }
    // 3. Talk / click non-navigation objects (state-dependent retry).
    for (const auto* o : objects) {
      if (o->kind == ObjectKind::kButton) continue;
      if (mark({Tried::kClick, o->id.value, 0, sig})) {
        (void)session_.click(canvas_center(o));
        return true;
      }
    }
    // 4. Use each held item on each object.
    for (const auto& slot : session_.inventory().slots()) {
      for (const auto* o : objects) {
        if (mark({Tried::kUse, slot.item.value, o->id.value, sig})) {
          (void)session_.use_item_on(slot.item, canvas_center(o));
          return true;
        }
      }
    }
    // 5. Combine held item pairs.
    const auto& slots = session_.inventory().slots();
    for (size_t i = 0; i < slots.size(); ++i) {
      for (size_t j = i; j < slots.size(); ++j) {
        if (i == j && slots[i].count < 2) continue;
        if (mark({Tried::kCombine, slots[i].item.value, slots[j].item.value,
                  sig})) {
          (void)session_.combine_items(slots[i].item, slots[j].item);
          return true;
        }
      }
    }
    // 6. Navigate: click the least-used button so exploration round-robins
    //    across all reachable scenarios instead of ping-ponging.
    const InteractiveObject* best_button = nullptr;
    int best_count = 0;
    for (const auto* o : objects) {
      if (o->kind != ObjectKind::kButton) continue;
      const int count = button_clicks(o->id.value);
      if (!best_button || count < best_count) {
        best_button = o;
        best_count = count;
      }
    }
    if (best_button) {
      ++button_clicks(best_button->id.value);
      (void)session_.click(canvas_center(best_button));
      return true;
    }
    return false;
  }

 private:
  /// Returns true (and records the attempt) when `action` has not been
  /// tried under its state signature yet.
  bool mark(const Tried& action) { return tried_.insert(action); }

  /// Navigation clicks per button object so far (zero when absent).
  int& button_clicks(u32 object) {
    for (auto& [id, count] : button_clicks_) {
      if (id == object) return count;
    }
    return button_clicks_.emplace_back(object, 0).second;
  }

  GameSession& session_;
  SimClock& clock_;
  Rng rng_;
  bool examine_;
  OpenSet<Tried, TriedKeys> tried_;
  OpenSet<TextBuffer::Ref, ReplyKeys> dialogue_tried_;
  std::vector<std::pair<u32, int>> button_clicks_;
};

class RandomBot {
 public:
  RandomBot(GameSession& session, Rng rng) : session_(session), rng_(rng) {}

  bool step() {
    if (session_.in_quiz()) {
      const auto& q = session_.ui().quiz();
      (void)session_.answer_quiz(rng_.below(q ? q->options.size() : 1));
      return true;
    }
    if (session_.in_dialogue()) {
      const auto& d = session_.ui().dialogue();
      if (d && !d->choices.empty()) {
        (void)session_.choose_dialogue(rng_.below(d->choices.size()));
      } else {
        (void)session_.advance_dialogue();
      }
      return true;
    }
    const auto& objects = session_.visible_objects();
    const Point origin = session_.ui().layout().video_area.origin();
    const u64 dice = rng_.below(10);
    if (!objects.empty() && dice < 7) {
      const auto* o = objects[rng_.below(objects.size())];
      const Point c = o->placement.rect.center();
      const Point p{c.x + origin.x, c.y + origin.y};
      switch (rng_.below(3)) {
        case 0:
          (void)session_.click(p);
          break;
        case 1:
          (void)session_.examine(p);
          break;
        default:
          (void)session_.drag(
              p, session_.ui().layout().inventory_window.center());
      }
      return true;
    }
    const auto& slots = session_.inventory().slots();
    if (!slots.empty() && !objects.empty()) {
      const auto* o = objects[rng_.below(objects.size())];
      const Point c = o->placement.rect.center();
      (void)session_.use_item_on(slots[rng_.below(slots.size())].item,
                                 {c.x + origin.x, c.y + origin.y});
      return true;
    }
    return false;
  }

 private:
  GameSession& session_;
  Rng rng_;
};

}  // namespace

struct BotDriver::Impl {
  GameSession& session;
  SimClock& clock;
  BotPolicy policy;
  int max_steps;
  Rng rng;
  ExplorerBot explorer;
  RandomBot random;
  BotResult partial;

  Impl(GameSession& session_in, SimClock& clock_in, BotPolicy policy_in,
       int max_steps_in, u64 seed)
      : session(session_in),
        clock(clock_in),
        policy(policy_in),
        max_steps(max_steps_in),
        rng(seed),
        // Fork order matches the historical run_bot body: explorer first,
        // then random — both bots exist regardless of policy so the RNG
        // stream consumed per seed is policy-independent.
        explorer(session_in, clock_in, rng.fork(),
                 policy_in == BotPolicy::kExplorer),
        random(session_in, rng.fork()) {}
};

BotDriver::BotDriver(GameSession& session, SimClock& clock, BotPolicy policy,
                     int max_steps, u64 seed)
    : impl_(std::make_unique<Impl>(session, clock, policy, max_steps, seed)),
      done_(max_steps <= 0 || session.game_over()) {}

BotDriver::~BotDriver() = default;

bool BotDriver::run_iteration() {
  if (done_) return false;
  Impl& im = *impl_;
  const bool acted = im.policy == BotPolicy::kRandom ? im.random.step()
                                                     : im.explorer.step();
  ++im.partial.steps;
  im.clock.advance(milliseconds(300));
  im.session.tick();
  if (!acted) {
    // Out of ideas: let the video run (segment-end / timer rules may
    // change the world) before the next sweep.
    for (int t = 0; t < 10 && !im.session.game_over(); ++t) {
      im.clock.advance(milliseconds(200));
      im.session.tick();
    }
  }
  done_ = im.partial.steps >= im.max_steps || im.session.game_over();
  return true;
}

BotResult BotDriver::result() const {
  BotResult result = impl_->partial;
  result.completed = impl_->session.game_over();
  result.succeeded = impl_->session.succeeded();
  return result;
}

BotResult run_bot(GameSession& session, SimClock& clock, BotPolicy policy,
                  int max_steps, u64 seed) {
  BotDriver driver(session, clock, policy, max_steps, seed);
  while (driver.run_iteration()) {
  }
  return driver.result();
}

}  // namespace vgbl
