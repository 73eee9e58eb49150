// Classroom cohort on the DES core (DESIGN.md §5i): each student is a
// StudentActor whose events are single BotDriver iterations, so thousands
// of classrooms' worth of students share one timeline instead of one
// thread each. Actors fill pre-allocated result slots that
// classroom_engine::aggregate_classroom_results folds in index order, so
// shard and thread placement cannot leak into summary bits.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/classroom.hpp"
#include "sim/scheduler.hpp"

namespace vgbl::sim {

/// One simulated student as an event stream. Every firing executes exactly
/// one BotDriver iteration (one bot action plus its clock advance/ticks)
/// and reschedules at the session clock's new time — the student's local
/// clock and the shared timeline are the same axis. Store-backed students
/// run in two phases: half the budget, checkpoint + teardown, reopen,
/// remaining budget under seed+1.
///
/// Session state is allocated lazily at the first firing and released at
/// the last, so a district run's footprint tracks *live* students.
class StudentActor : public Actor {
 public:
  /// `options` and `slot` must outlive the scheduler run. `slot` is this
  /// student's pre-allocated result cell; it stays nullopt when a session
  /// cannot be opened/started (the student is skipped).
  StudentActor(std::shared_ptr<const GameBundle> bundle,
               const ClassroomOptions& options, int index,
               std::optional<StudentResult>* slot);
  ~StudentActor() override;

  void on_event(Context& ctx) override;

  [[nodiscard]] bool finished() const { return phase_ == Phase::kDone; }

 private:
  enum class Phase : u8 {
    kStart,        // allocate the session, run the first iteration
    kPlay,         // direct (storeless) run
    kPlayFirst,    // store-backed: first half of the budget
    kPlaySecond,   // store-backed: resumed second half
    kDone,
  };

  void begin(Context& ctx);
  void step(Context& ctx);
  /// Checkpoint + teardown + reopen between the store-backed halves.
  void suspend_and_resume(Context& ctx);
  void finish(Context& ctx);
  void abandon();

  [[nodiscard]] std::string student_name() const;
  [[nodiscard]] SimClock& active_clock() const;
  [[nodiscard]] GameSession& active_session() const;

  std::shared_ptr<const GameBundle> bundle_;
  const ClassroomOptions* options_;
  int index_ = 0;
  std::optional<StudentResult>* slot_ = nullptr;

  Phase phase_ = Phase::kStart;
  BotPolicy policy_ = BotPolicy::kExplorer;
  u64 bot_seed_ = 0;

  // Direct-run state (storeless).
  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<GameSession> session_;
  // Store-backed state.
  std::unique_ptr<PersistedSession> persisted_;
  BotResult first_half_;
  /// In place, so the per-event done() check reads this actor's own memory.
  std::optional<BotDriver> driver_;
  /// Wall time attributed to this student's events; accumulated only while
  /// metrics are on (measurement-only field, excluded from fingerprints).
  i64 wall_us_ = 0;
};

/// Runs `options.student_count` students on the DES scheduler and fills
/// `results` (size must equal the student count). Shard count comes from
/// options.des_shards (0: one shard per worker thread); every shard/thread
/// combination is bit-identical.
void run_classroom_des(const std::shared_ptr<const GameBundle>& bundle,
                       const ClassroomOptions& options,
                       std::vector<std::optional<StudentResult>>& results);

}  // namespace vgbl::sim
