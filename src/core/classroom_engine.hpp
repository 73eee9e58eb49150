// Building blocks of the classroom engine (DESIGN.md §5i): per-student
// policy and result helpers used by the DES actors in
// src/sim/classroom_des.cpp, and the post-barrier aggregation shared by
// simulate_classroom and the district runner. Everything here is inline on
// purpose — src/sim uses these helpers without linking the classroom
// engine itself (vgbl_core links vgbl_sim, not the other way around).
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/classroom.hpp"
#include "obs/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/wall_clock.hpp"

namespace vgbl::classroom_engine {

/// Classroom-subsystem metrics, including the LearningTracker aggregates
/// (interactions, decisions, rewards) so the lecturer-facing §3.3 reward
/// view and the ops view share one export path. All increments happen in
/// the deterministic post-barrier aggregation loop — never on worker
/// threads mid-run — so instrumentation cannot perturb scheduling.
struct ClassroomMetrics {
  obs::Counter& students;
  obs::Counter& steps;
  obs::Counter& completions;
  obs::Counter& successes;
  obs::Counter& resumed;
  obs::Counter& interactions;
  obs::Counter& decisions;
  obs::Counter& rewards;
  obs::Counter& items_collected;
  obs::Histogram& student_wall_ms;
  obs::Histogram& rewards_per_student;
  obs::Gauge& steps_per_sec;

  static ClassroomMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static ClassroomMetrics m{
        reg.counter("classroom_students_total", "students simulated"),
        reg.counter("classroom_steps_total", "bot steps executed"),
        reg.counter("classroom_completions_total",
                    "students who finished their game"),
        reg.counter("classroom_successes_total",
                    "students who finished successfully"),
        reg.counter("classroom_resumed_total",
                    "students whose run resumed from a session store"),
        reg.counter("classroom_interactions_total",
                    "LearningTracker interactions across students"),
        reg.counter("classroom_decisions_total",
                    "LearningTracker decisions across students"),
        reg.counter("classroom_rewards_total",
                    "LearningTracker rewards earned across students"),
        reg.counter("classroom_items_collected_total",
                    "LearningTracker items collected across students"),
        reg.histogram("classroom_student_wall_ms",
                      obs::exponential_buckets(0.25, 2.0, 14),
                      "wall time to simulate one student"),
        reg.histogram("classroom_rewards_per_student",
                      obs::linear_buckets(0, 1, 16),
                      "rewards earned by one student"),
        reg.gauge("classroom_steps_per_sec",
                  "bot-step throughput of the latest classroom run")};
    return m;
  }
};

/// Policy for the 0-based student `index` under the options' policy mix.
inline BotPolicy student_policy(const ClassroomOptions& options, int index) {
  return options.policies.empty()
             ? BotPolicy::kExplorer
             : options.policies[static_cast<size_t>(index) %
                                options.policies.size()];
}

/// Fills the summary-facing fields of `r` from a finished session.
inline void fill_student_result(StudentResult& r, const GameSession& session,
                                const SimClock& clock, const BotResult& bot) {
  r.completed = bot.completed;
  r.succeeded = bot.succeeded;
  r.steps = bot.steps;
  r.score = session.score();
  r.play_seconds = to_seconds(clock.now());
  r.decisions = static_cast<int>(session.tracker().decision_count());
  r.items_collected = static_cast<int>(session.tracker().item_count());
  r.rewards = static_cast<int>(session.tracker().reward_count());
  r.interactions = static_cast<int>(session.tracker().interaction_count());
  r.unlocks = session.rewards().unlock_log();
  r.badge_points = session.rewards().total_bonus_points();
}

/// Commits a finished student's unlock log to the shared badge store from
/// whichever worker finished it (the concurrency the store's sharded locks
/// exist for). Durable-store failures do not fail the simulation — the
/// in-memory summary is already complete.
inline void commit_unlocks(rewards::BadgeStore* badge_store,
                           const std::string& student,
                           const StudentResult& r) {
  if (badge_store == nullptr || r.unlocks.empty()) return;
  auto committed = badge_store->commit(student, r.unlocks);
  (void)committed;
}

/// Post-barrier aggregation over the per-student result slots: metrics,
/// cohort means and the ranked leaderboard, all in index order. Actors
/// fill slots in whatever order the event shards run them; this one
/// function funnels them into the summary, so summary bits cannot depend
/// on shard or thread placement. `run_started_us` is the
/// obs::wall_now_us() stamp from before the run (throughput gauge only —
/// observe-only by contract).
inline ClassroomSummary aggregate_classroom_results(
    std::vector<std::optional<StudentResult>> results,
    const ClassroomOptions& options, i64 run_started_us) {
  ClassroomSummary summary;
  f64 interactions = 0;
  ClassroomMetrics& metrics = ClassroomMetrics::get();
  for (auto& slot : results) {
    if (!slot.has_value()) continue;
    interactions += static_cast<f64>(slot->interactions);
    VGBL_COUNT(metrics.students);
    VGBL_COUNT(metrics.steps, static_cast<u64>(std::max(0, slot->steps)));
    if (slot->completed) VGBL_COUNT(metrics.completions);
    if (slot->succeeded) VGBL_COUNT(metrics.successes);
    if (slot->resumed) VGBL_COUNT(metrics.resumed);
    VGBL_COUNT(metrics.interactions, static_cast<u64>(slot->interactions));
    VGBL_COUNT(metrics.decisions, static_cast<u64>(slot->decisions));
    VGBL_COUNT(metrics.rewards, static_cast<u64>(slot->rewards));
    VGBL_COUNT(metrics.items_collected,
               static_cast<u64>(slot->items_collected));
    VGBL_OBSERVE(metrics.student_wall_ms, slot->wall_ms);
    VGBL_OBSERVE(metrics.rewards_per_student, static_cast<f64>(slot->rewards));
    summary.students.push_back(std::move(*slot));
  }
  if (obs::enabled()) {
    const f64 elapsed =
        static_cast<f64>(obs::wall_now_us() - run_started_us) / 1e6;
    u64 total_steps = 0;
    for (const auto& s : summary.students) {
      total_steps += static_cast<u64>(std::max(0, s.steps));
    }
    VGBL_GAUGE_SET(metrics.steps_per_sec,
                   elapsed > 0 ? static_cast<f64>(total_steps) / elapsed : 0);
  }

  const f64 n = static_cast<f64>(
      std::max<size_t>(1, summary.students.size()));
  for (const auto& s : summary.students) {
    summary.completion_rate += s.completed ? 1.0 : 0.0;
    summary.mean_score += static_cast<f64>(s.score);
    summary.mean_play_seconds += s.play_seconds;
  }
  summary.completion_rate /= n;
  summary.mean_score /= n;
  summary.mean_play_seconds /= n;
  summary.mean_interactions = interactions / n;

  if (options.reward_rules != nullptr) {
    std::vector<rewards::LeaderboardRow> rows;
    for (const auto& s : summary.students) {
      rewards::LeaderboardRow row;
      row.student_id = "student-" + std::to_string(s.student_id);
      row.badges = static_cast<int>(s.unlocks.size());
      row.badge_points = s.badge_points;
      // Ledger totals already include badge bonuses; the row keeps the
      // gameplay score separate so total_points() counts bonuses once.
      row.score = s.score - s.badge_points;
      for (const auto& u : s.unlocks) row.badge_names.push_back(u.badge);
      rows.push_back(std::move(row));
    }
    summary.leaderboard = rewards::build_leaderboard(std::move(rows));
    rewards::export_leaderboard_metrics(summary.leaderboard);
  }
  return summary;
}

}  // namespace vgbl::classroom_engine
