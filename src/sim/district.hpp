// District-scale workload (DESIGN.md §5i): N classrooms × M students on
// one DES timeline. Each classroom keeps its own seed lineage, optional
// SessionStore shard + journal + BadgeStore, and optional streaming
// cohort; classrooms map to event-queue shards, so a district run is the
// scheduler's natural parallel shape. After the final barrier the
// per-classroom summaries aggregate into a district-wide ranked
// leaderboard and a combined fingerprint that must be bit-identical
// across shard counts, worker-thread counts and reruns.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/classroom.hpp"
#include "sim/scheduler.hpp"

namespace vgbl::sim {

struct DistrictOptions {
  int classrooms = 4;
  int students_per_classroom = 8;
  int max_steps_per_student = 400;
  /// Policy mix per classroom; students cycle through these.
  std::vector<BotPolicy> policies{BotPolicy::kExplorer, BotPolicy::kSpeedrun,
                                  BotPolicy::kRandom};
  /// District seed. Classroom c's seed is
  /// classroom_student_seed(seed, c + 1) — the same pure derivation the
  /// classroom applies to its students, one level up.
  u64 seed = 99;
  /// Worker threads driving the scheduler (0: calling thread only).
  int worker_threads = 0;
  /// Event-queue shards (0: one per classroom). Bit-identical across any
  /// value.
  int shards = 0;
  /// Scheduler epoch width (part of the cross-shard message contract).
  MicroTime epoch_width = milliseconds(100);

  /// Reward rules evaluated in every session; also enables classroom and
  /// district leaderboards. Null keeps rewards off everywhere.
  const rewards::RewardRuleSet* reward_rules = nullptr;

  /// When non-empty, every classroom gets its own durable state under
  /// `<persist_dir>/classroom-<c>`: a SessionStore shard (snapshot +
  /// journal per student, suspend/resume mid-run) and a BadgeStore the
  /// finished students commit their unlock logs to.
  std::string persist_dir;

  /// Adds a streaming cohort per classroom on the same timeline: each
  /// classroom runs a StreamServer whose delivery steps (on the 2 ms grid,
  /// where something is due) interleave with gameplay events.
  bool stream = false;
  /// Streaming clients per classroom (0: one per student).
  int stream_clients = 0;
  /// FaultSchedule::profile applied to every classroom's link.
  std::string fault_profile = "clean";
  /// Scenario-walk length cap per streaming client.
  int stream_max_hops = 12;
  /// Streaming cutoff in sim time.
  MicroTime stream_deadline = seconds(600);
};

/// One classroom's share of the district run.
struct DistrictClassroomResult {
  ClassroomSummary summary;
  /// classroom_fingerprint(summary) — the per-classroom determinism
  /// artifact.
  u64 fingerprint = 0;
  /// Present when the district streamed (DistrictOptions::stream).
  std::optional<StreamReplaySummary> stream;
};

struct DistrictSummary {
  std::vector<DistrictClassroomResult> classrooms;
  /// District-wide standings (empty without reward rules). Rows carry
  /// classroom-qualified ids ("c3/student-7"); built post-barrier in
  /// (classroom, student) order, so ranking ties resolve identically on
  /// every run.
  rewards::Leaderboard leaderboard;
  /// Combined determinism artifact: per-classroom fingerprints + the
  /// district leaderboard, mixed in classroom order. Must be bit-identical
  /// across shard counts, thread counts and reruns.
  u64 fingerprint = 0;
  SchedulerStats scheduler;
  /// Wall-clock time of the whole run (measurement only).
  f64 wall_ms = 0;

  [[nodiscard]] int total_students() const;
  [[nodiscard]] std::string report() const;
};

/// Runs the district on one sharded DES timeline. Fails (error Status) only
/// on setup problems — a persist directory that cannot be created, a badge
/// store that cannot open; individual students that fail to start are
/// skipped exactly as in simulate_classroom.
[[nodiscard]] Result<DistrictSummary> run_district(std::shared_ptr<const GameBundle> bundle,
                                     const DistrictOptions& options);

}  // namespace vgbl::sim
