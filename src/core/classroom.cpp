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
  // happens after the run barrier, in index order. That plus the pure
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
  StreamingConfig config = options.streaming;
  config.faults = FaultSchedule::profile(options.fault_profile);
  if (options.fault_profile == "iid2") {
    config.network.loss_rate = std::max(config.network.loss_rate, 0.02);
  }
  StreamServer server(bundle.video.get(), config, options.seed);
  for (int i = 0; i < options.client_count; ++i) {
    // Path derivation reuses the gameplay engine's per-student seed scheme
    // so the delivery cohort walks the same kind of scenario paths.
    Rng rng(classroom_student_seed(options.seed, i + 1));
    server.add_client(random_student_path(bundle.graph, options.max_hops, rng));
  }
  StreamReplaySummary out;
  out.end_time = server.run(options.deadline);
  out.aggregate = server.aggregate();
  out.arq = server.arq_stats();
  out.packets_sent = server.network().stats().packets_sent;
  out.packets_lost = server.network().stats().packets_lost;
  return out;
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
