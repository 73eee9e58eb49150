// Scripted players and autonomous bots — the headless stand-ins for human
// mouse/keyboard input (DESIGN.md §2). Scripts drive deterministic
// walkthroughs (tests, figure rendering); bots generate emergent play for
// the classroom simulation and robustness tests.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "runtime/session.hpp"
#include "util/rng.hpp"

namespace vgbl {

/// One scripted player step. Objects and items are addressed by name so
/// scripts survive id re-allocation across authoring edits.
struct ScriptStep {
  enum class Op : u8 {
    kClickObject,
    kExamineObject,
    kDragObjectToInventory,
    kUseItemOn,        // item_name on object_name
    kCombineItems,     // item_name + second_item_name
    kChooseDialogue,   // choice (0-based)
    kAdvanceDialogue,
    kAnswerQuiz,       // quiz option (0-based)
    kWait,             // advance the sim clock by wait_time, ticking
    kClickPoint,       // raw canvas click (for miss/edge tests)
  };

  Op op = Op::kWait;
  std::string object_name;
  std::string item_name;
  std::string second_item_name;
  size_t choice = 0;
  MicroTime wait_time = 0;
  Point point;

  static ScriptStep click(std::string object) {
    ScriptStep s;
    s.op = Op::kClickObject;
    s.object_name = std::move(object);
    return s;
  }
  static ScriptStep examine(std::string object) {
    ScriptStep s;
    s.op = Op::kExamineObject;
    s.object_name = std::move(object);
    return s;
  }
  static ScriptStep drag_to_inventory(std::string object) {
    ScriptStep s;
    s.op = Op::kDragObjectToInventory;
    s.object_name = std::move(object);
    return s;
  }
  static ScriptStep use_item(std::string item, std::string object) {
    ScriptStep s;
    s.op = Op::kUseItemOn;
    s.item_name = std::move(item);
    s.object_name = std::move(object);
    return s;
  }
  static ScriptStep combine(std::string a, std::string b) {
    ScriptStep s;
    s.op = Op::kCombineItems;
    s.item_name = std::move(a);
    s.second_item_name = std::move(b);
    return s;
  }
  static ScriptStep choose(size_t index) {
    ScriptStep s;
    s.op = Op::kChooseDialogue;
    s.choice = index;
    return s;
  }
  static ScriptStep advance() {
    ScriptStep s;
    s.op = Op::kAdvanceDialogue;
    return s;
  }
  static ScriptStep answer_quiz(size_t option) {
    ScriptStep s;
    s.op = Op::kAnswerQuiz;
    s.choice = option;
    return s;
  }
  static ScriptStep wait(MicroTime t) {
    ScriptStep s;
    s.op = Op::kWait;
    s.wait_time = t;
    return s;
  }
  static ScriptStep click_at(Point p) {
    ScriptStep s;
    s.op = Op::kClickPoint;
    s.point = p;
    return s;
  }
};

using InputScript = std::vector<ScriptStep>;

/// Executes a script against a session driven by a SimClock. Each step
/// advances the clock a little (human-scale pacing) and ticks the session.
/// Fails fast on the first step that cannot be performed (missing object,
/// invalid dialogue choice, ...).
class ScriptRunner {
 public:
  struct Options {
    MicroTime step_pause = milliseconds(400);  // thinking time between steps
    bool stop_on_game_over = true;
  };

  ScriptRunner(GameSession* session, SimClock* clock)
      : ScriptRunner(session, clock, Options{}) {}
  ScriptRunner(GameSession* session, SimClock* clock, Options options)
      : session_(session), clock_(clock), options_(options) {}

  Status run(const InputScript& script);
  Status run_step(const ScriptStep& step);

 private:
  /// Canvas-space centre of a named visible object in the current scenario.
  [[nodiscard]] Result<Point> locate(const std::string& object_name) const;
  [[nodiscard]] Result<ItemId> item_by_name(const std::string& name) const;

  GameSession* session_;
  SimClock* clock_;
  Options options_;
};

/// Behavioural policies for autonomous players.
enum class BotPolicy {
  kExplorer,  // systematic: examine everything, pick up items, talk, retry
  kRandom,    // uniformly random legal actions
  kSpeedrun,  // like explorer but skips examining (fastest completion)
};

/// Drives a session with an autonomous player until the game ends or the
/// step budget is exhausted. Returns the number of steps taken.
struct BotResult {
  int steps = 0;
  bool completed = false;
  bool succeeded = false;
};

BotResult run_bot(GameSession& session, SimClock& clock, BotPolicy policy,
                  int max_steps, u64 seed = 1);

/// Incremental form of `run_bot`: the same loop, surfaced one iteration at
/// a time so a discrete-event scheduler (src/sim) can interleave thousands
/// of students on a single timeline. `run_bot` itself is implemented on
/// this driver, which keeps the blocking path and the event-stream path
/// step-for-step identical by construction — the differential-testing
/// contract behind the DES classroom engine (DESIGN.md §5i).
class BotDriver {
 public:
  BotDriver(GameSession& session, SimClock& clock, BotPolicy policy,
            int max_steps, u64 seed);
  ~BotDriver();
  BotDriver(const BotDriver&) = delete;
  BotDriver& operator=(const BotDriver&) = delete;

  /// True once the step budget is exhausted or the game ended. Read from a
  /// flag run_iteration() keeps, so the check costs no pointer chase: the
  /// driver is what advances its session.
  [[nodiscard]] bool done() const { return done_; }

  /// Executes exactly one loop iteration: one bot action, the 300 ms
  /// advance + tick, and the idle-tick recovery when the bot was out of
  /// ideas. The session clock ends at the sim time of the next iteration.
  /// Returns false (doing nothing) when already done().
  bool run_iteration();

  /// Steps taken and completion flags so far; final once done().
  [[nodiscard]] BotResult result() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  bool done_;
};

}  // namespace vgbl
