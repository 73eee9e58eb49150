#include "core/classroom.hpp"

#include <algorithm>
#include <optional>

#include "core/classroom_engine.hpp"
#include "obs/wall_clock.hpp"
#include "sim/classroom_des.hpp"
#include "util/text.hpp"

namespace vgbl {

ClassroomSummary simulate_classroom(std::shared_ptr<const GameBundle> bundle,
                                    const ClassroomOptions& options) {
  // Every student writes only its own pre-allocated slot; aggregation
  // happens once the run has drained, in index order. That plus the pure
  // per-student seeding makes every thread/shard combination bit-identical.
  const i64 run_started_us = obs::wall_now_us();
  std::vector<std::optional<StudentResult>> results(
      static_cast<size_t>(std::max(0, options.student_count)));
  sim::run_classroom_des(bundle, options, results);
  return classroom_engine::aggregate_classroom_results(std::move(results),
                                                       options,
                                                       run_started_us);
}

namespace {

const char* policy_name(BotPolicy p) {
  switch (p) {
    case BotPolicy::kExplorer:
      return "explorer";
    case BotPolicy::kRandom:
      return "random";
    case BotPolicy::kSpeedrun:
      return "speedrun";
  }
  return "?";
}

}  // namespace

StreamReplaySummary replay_classroom_stream(
    const GameBundle& bundle, const StreamReplayOptions& options) {
  StreamServer server(
      bundle.video.get(),
      classroom_stream_link(options.streaming, options.fault_profile),
      options.seed);
  for (int i = 0; i < options.client_count; ++i) {
    server.add_client(classroom_client_path(bundle.graph, options.seed, i,
                                            options.max_hops));
  }
  const MicroTime end_time = server.run(options.deadline);
  return stream_replay_summary(server, end_time);
}

std::string ClassroomSummary::report() const {
  std::string out;
  out += "=== Classroom summary (" + std::to_string(students.size()) +
         " students) ===\n";
  out += "completion rate: " + format_double(completion_rate * 100, 1) + "%\n";
  out += "mean score:      " + format_double(mean_score, 1) + "\n";
  out += "mean play time:  " + format_double(mean_play_seconds, 1) + " s\n";
  out += "mean actions:    " + format_double(mean_interactions, 1) + "\n";
  out += pad_right("student", 9) + pad_right("policy", 10) +
         pad_right("done", 6) + pad_right("score", 7) + pad_right("steps", 7) +
         pad_right("items", 7) + pad_right("rewards", 8) + "decisions\n";
  for (const auto& s : students) {
    out += pad_right("#" + std::to_string(s.student_id), 9) +
           pad_right(policy_name(s.policy), 10) +
           pad_right(s.completed ? (s.succeeded ? "yes" : "fail") : "no", 6) +
           pad_right(std::to_string(s.score), 7) +
           pad_right(std::to_string(s.steps), 7) +
           pad_right(std::to_string(s.items_collected), 7) +
           pad_right(std::to_string(s.rewards), 8) +
           std::to_string(s.decisions) + "\n";
  }
  if (!leaderboard.rows.empty()) {
    out += "=== Leaderboard ===\n";
    out += leaderboard.report();
  }
  return out;
}

}  // namespace vgbl
