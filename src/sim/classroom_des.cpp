#include "sim/classroom_des.hpp"

#include <algorithm>
#include <utility>

#include "core/classroom_engine.hpp"
#include "obs/wall_clock.hpp"

namespace vgbl::sim {

StudentActor::StudentActor(std::shared_ptr<const GameBundle> bundle,
                           const ClassroomOptions& options, int index,
                           std::optional<StudentResult>* slot)
    : bundle_(std::move(bundle)),
      options_(&options),
      index_(index),
      slot_(slot) {}

StudentActor::~StudentActor() = default;

std::string StudentActor::student_name() const {
  return "student-" + std::to_string(index_ + 1);
}

SimClock& StudentActor::active_clock() const {
  return persisted_ != nullptr ? persisted_->clock() : *clock_;
}

GameSession& StudentActor::active_session() const {
  return persisted_ != nullptr ? persisted_->session() : *session_;
}

void StudentActor::abandon() {
  // Session open/start failed: the slot stays nullopt (skipped student)
  // and all session state is released now.
  driver_.reset();
  persisted_.reset();
  session_.reset();
  clock_.reset();
  phase_ = Phase::kDone;
}

void StudentActor::begin(Context& ctx) {
  policy_ = classroom_engine::student_policy(*options_, index_);
  bot_seed_ = classroom_student_seed(options_->seed, index_ + 1);

  if (options_->store == nullptr) {
    clock_ = std::make_unique<SimClock>();
    SessionOptions session_options;
    session_options.reward_rules = options_->reward_rules;
    // Synchronous decode: a DES cohort keeps every student's session alive
    // at once, so per-session decode pools would exhaust OS threads at
    // district scale (100k+ students).
    session_options.decode_threads = 0;
    session_ =
        std::make_unique<GameSession>(bundle_, clock_.get(), session_options);
    if (!session_->start().ok()) {
      abandon();
      return;
    }
    driver_.emplace(*session_, *clock_, policy_,
                    options_->max_steps_per_student, bot_seed_);
    phase_ = Phase::kPlay;
  } else {
    // Store-backed run, first half: fresh session through the store
    // (remove + open), clock at zero like the timeline.
    (void)options_->store->remove_session(student_name());
    auto opened = options_->store->open_session(bundle_, student_name());
    if (!opened.ok()) {
      abandon();
      return;
    }
    persisted_ = std::move(opened.value());
    driver_.emplace(persisted_->session(), persisted_->clock(), policy_,
                    options_->max_steps_per_student / 2, bot_seed_);
    phase_ = Phase::kPlayFirst;
  }
  step(ctx);
}

void StudentActor::suspend_and_resume(Context& ctx) {
  // Checkpoint, tear the live session down, reopen from disk, then
  // (unless already complete) spend the remaining budget under
  // bot_seed + 1. The restored clock continues
  // at the checkpointed sim time, which *is* the current timeline time —
  // suspension consumes no sim time.
  first_half_ = driver_->result();
  driver_.reset();
  if (!persisted_->checkpoint().ok()) {
    abandon();
    return;
  }
  persisted_.reset();  // suspend: the live session is gone

  auto resumed = options_->store->open_session(bundle_, student_name());
  if (!resumed.ok()) {
    abandon();
    return;
  }
  persisted_ = std::move(resumed.value());
  if (first_half_.completed) {
    finish(ctx);
    return;
  }
  const int first_half_budget = options_->max_steps_per_student / 2;
  driver_.emplace(persisted_->session(), persisted_->clock(), policy_,
                  options_->max_steps_per_student - first_half_budget,
                  bot_seed_ + 1);
  phase_ = Phase::kPlaySecond;
  step(ctx);
}

void StudentActor::step(Context& ctx) {
  if (driver_ && !driver_->done()) {
    driver_->run_iteration();
  }
  if (!driver_ || driver_->done()) {
    switch (phase_) {
      case Phase::kPlay:
      case Phase::kPlaySecond:
        finish(ctx);
        return;
      case Phase::kPlayFirst:
        suspend_and_resume(ctx);
        return;
      default:
        return;
    }
  }
  // The driver left the session clock at the next iteration's sim time;
  // that is this actor's next firing.
  ctx.schedule(active_clock().now());
}

void StudentActor::finish(Context& ctx) {
  (void)ctx;
  StudentResult r;
  r.student_id = index_ + 1;
  r.policy = policy_;

  BotResult bot;
  if (phase_ == Phase::kPlay) {
    bot = driver_->result();
  } else if (phase_ == Phase::kPlaySecond) {
    const BotResult rest = driver_->result();
    bot = first_half_;
    bot.steps += rest.steps;
    bot.completed = rest.completed;
    bot.succeeded = rest.succeeded;
  } else {
    bot = first_half_;  // completed within the first half
  }

  if (persisted_ != nullptr) {
    (void)persisted_->checkpoint();
    r.resumed = persisted_->resumed();
  }
  classroom_engine::fill_student_result(r, active_session(), active_clock(),
                                        bot);
  classroom_engine::commit_unlocks(options_->badge_store, student_name(), r);
  r.wall_ms = static_cast<f64>(wall_us_) / 1000.0;
  *slot_ = std::move(r);

  driver_.reset();
  persisted_.reset();
  session_.reset();
  clock_.reset();
  phase_ = Phase::kDone;
}

void StudentActor::on_event(Context& ctx) {
  const bool timed = obs::enabled();
  const i64 t0_us = timed ? obs::wall_now_us() : 0;
  switch (phase_) {
    case Phase::kStart:
      begin(ctx);
      break;
    case Phase::kPlay:
    case Phase::kPlayFirst:
    case Phase::kPlaySecond:
      step(ctx);
      break;
    case Phase::kDone:
      break;
  }
  if (timed && phase_ != Phase::kDone) {
    wall_us_ += obs::wall_now_us() - t0_us;
  }
}

void run_classroom_des(const std::shared_ptr<const GameBundle>& bundle,
                       const ClassroomOptions& options,
                       std::vector<std::optional<StudentResult>>& results) {
  const int count = std::max(0, options.student_count);
  SchedulerOptions sched;
  sched.shards = options.des_shards > 0
                     ? static_cast<u32>(options.des_shards)
                     : static_cast<u32>(std::max(1, options.worker_threads));
  sched.worker_threads = options.worker_threads;
  Scheduler scheduler(sched);

  std::vector<std::unique_ptr<StudentActor>> actors;
  actors.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    actors.push_back(std::make_unique<StudentActor>(
        bundle, options, i, &results[static_cast<size_t>(i)]));
    const ActorId id = scheduler.add_actor(actors.back().get());
    scheduler.schedule(id, 0);
  }
  (void)scheduler.run();
}

}  // namespace vgbl::sim
