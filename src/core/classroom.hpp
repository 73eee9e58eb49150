// Classroom simulation: many simulated students playing one bundle, each
// with their own session, clock and behavioural policy. Produces the
// class-level learning summary a lecturer would review (and the workload
// for the multi-client experiments).
#pragma once

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "author/bundle.hpp"
#include "net/streaming.hpp"
#include "persist/session_store.hpp"
#include "rewards/badge_store.hpp"
#include "rewards/evaluator.hpp"
#include "rewards/leaderboard.hpp"
#include "rewards/rules.hpp"
#include "runtime/script.hpp"
#include "util/text.hpp"

namespace vgbl {

struct StudentResult {
  int student_id = 0;
  BotPolicy policy = BotPolicy::kExplorer;
  bool completed = false;
  bool succeeded = false;
  int steps = 0;
  i64 score = 0;
  f64 play_seconds = 0;
  int decisions = 0;
  int items_collected = 0;
  int rewards = 0;
  int interactions = 0;
  /// True when the student's run was suspended to a SessionStore mid-way
  /// and finished in a second, resumed session.
  bool resumed = false;
  /// Badges unlocked during the run (empty unless ClassroomOptions
  /// carried a reward rule set). The ordered unlock log is the student's
  /// canonical badge stream — encode_unlock_log() bytes over it are the
  /// determinism-contract artifact.
  std::vector<rewards::Unlock> unlocks;
  i64 badge_points = 0;  ///< bonus points across `unlocks`
  /// Wall-clock time spent simulating this student. Measurement only —
  /// every other field is covered by the determinism contract, this one
  /// varies run to run by construction.
  f64 wall_ms = 0;
};

struct ClassroomSummary {
  std::vector<StudentResult> students;
  f64 completion_rate = 0;
  f64 mean_score = 0;
  f64 mean_play_seconds = 0;
  f64 mean_interactions = 0;
  /// Ranked standings over the cohort (empty without reward rules).
  /// Built post-barrier in student-id order, so it is bit-identical
  /// across worker-thread counts like every other summary field.
  rewards::Leaderboard leaderboard;

  [[nodiscard]] std::string report() const;
};

struct ClassroomOptions {
  int student_count = 8;
  int max_steps_per_student = 400;
  /// Policy mix: students cycle through these.
  std::vector<BotPolicy> policies{BotPolicy::kExplorer, BotPolicy::kSpeedrun,
                                  BotPolicy::kRandom};
  u64 seed = 99;
  /// When set, every student plays through the store (lesson-interrupted
  /// classroom): half the step budget, checkpoint + session teardown, then
  /// resume from disk for the remaining half. Exercises the full
  /// suspend/recover path under emergent bot play.
  SessionStore* store = nullptr;
  /// Worker threads executing the DES scheduler's shards within each
  /// epoch. 0 runs everything on the calling thread; N spins up a
  /// ThreadPool of N workers (the caller participates too). Every value
  /// produces the same ClassroomSummary: each student's RNG seed is a pure
  /// function of (seed, student_id), so no thread count, scheduling order
  /// or interleaving can leak into the results.
  int worker_threads = 0;
  /// Reward rules evaluated inline in every student's session. Null keeps
  /// rewards off (empty leaderboard, exactly the pre-rewards behaviour).
  /// For store-backed runs the SessionStore's own SessionOptions must
  /// carry the same rule set — the store constructs the sessions.
  const rewards::RewardRuleSet* reward_rules = nullptr;
  /// Durable badge store; when set, each worker commits its student's
  /// unlock log as the run finishes (commits are idempotent per rule, so
  /// re-running a classroom over the same store does not double-grant).
  rewards::BadgeStore* badge_store = nullptr;
  /// Event-queue shards. 0 derives one shard per worker thread (minimum
  /// 1). Any value is bit-identical to any other.
  int des_shards = 0;
};

/// Derives the bot seed for one student purely from the classroom seed and
/// the 1-based student id — the determinism contract behind the classroom
/// engine (DESIGN.md §5c). Exposed so tests can pin the scheme. Inline so
/// src/sim can derive seeds without linking the classroom engine itself:
/// one splitmix step decorrelates adjacent classroom seeds, a golden-ratio
/// stride separates adjacent students, and a second splitmix step whitens
/// the result. No shared generator is consulted, so the seed — and
/// therefore the whole student run — is independent of execution order.
inline u64 classroom_student_seed(u64 classroom_seed, int student_id) {
  u64 state = classroom_seed;
  (void)splitmix64(state);
  state += static_cast<u64>(static_cast<u32>(student_id)) *
           0x9E3779B97F4A7C15ULL;
  return splitmix64(state);
}

/// Order-sensitive FNV-1a fingerprint over every ClassroomSummary field the
/// determinism contract covers — per-student results, encoded unlock logs
/// and the ranked leaderboard; wall_ms is excluded by contract. The
/// classroom golden test, bench_district and `vgbl district` all compare
/// runs through this one helper. Inline so src/sim can fingerprint
/// per-classroom summaries without linking the classroom engine.
inline u64 classroom_fingerprint(const ClassroomSummary& summary) {
  u64 h = 14695981039346656037ULL;  // FNV-1a 64-bit offset basis
  auto mix_byte = [&h](u8 b) {
    h ^= b;
    h *= 1099511628211ULL;
  };
  auto mix = [&mix_byte](u64 v) {
    for (int i = 0; i < 8; ++i) {
      mix_byte(static_cast<u8>(v >> (i * 8)));
    }
  };
  auto mix_f = [&mix](f64 v) {
    u64 bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  };
  auto mix_s = [&mix, &mix_byte](const std::string& s) {
    mix(s.size());
    for (char c : s) mix_byte(static_cast<u8>(c));
  };
  mix(summary.students.size());
  for (const StudentResult& s : summary.students) {
    mix(static_cast<u64>(s.student_id));
    mix(static_cast<u64>(s.policy));
    mix((s.completed ? 1u : 0u) | (s.succeeded ? 2u : 0u) |
        (s.resumed ? 4u : 0u));
    mix(static_cast<u64>(s.steps));
    mix(static_cast<u64>(s.score));
    mix_f(s.play_seconds);
    mix(static_cast<u64>(s.decisions));
    mix(static_cast<u64>(s.items_collected));
    mix(static_cast<u64>(s.rewards));
    mix(static_cast<u64>(s.interactions));
    mix(static_cast<u64>(s.badge_points));
    for (u8 byte : rewards::encode_unlock_log(s.unlocks)) mix_byte(byte);
  }
  mix_f(summary.completion_rate);
  mix_f(summary.mean_score);
  mix_f(summary.mean_play_seconds);
  mix_f(summary.mean_interactions);
  mix(summary.leaderboard.rows.size());
  for (const rewards::LeaderboardRow& row : summary.leaderboard.rows) {
    mix(static_cast<u64>(row.rank));
    mix_s(row.student_id);
    mix(static_cast<u64>(row.badges));
    mix(static_cast<u64>(row.badge_points));
    mix(static_cast<u64>(row.score));
    for (const std::string& badge : row.badge_names) mix_s(badge);
  }
  return h;
}

/// Runs every student to completion (or step budget) as an event stream on
/// the DES scheduler (src/sim) — on the calling thread, or across
/// `options.worker_threads` workers with bit-identical results.
ClassroomSummary simulate_classroom(std::shared_ptr<const GameBundle> bundle,
                                    const ClassroomOptions& options);

/// Delivery half of the classroom story: the cohort streams its scenario
/// walks over the simulated shared link, under an injectable fault profile.
struct StreamReplayOptions {
  int client_count = 16;
  u64 seed = 99;
  /// Scenario-walk length cap per student (see random_student_path).
  int max_hops = 12;
  /// FaultSchedule::profile name: "clean", "iid2", "bursty", "flap",
  /// "degraded" or "stress". "iid2" also raises the iid loss rate to 2%.
  std::string fault_profile = "clean";
  /// Base delivery config (link shape, ARQ knobs); the fault profile is
  /// applied on top. Defaults to the 40 Mbit school downlink.
  StreamingConfig streaming = classroom_link_defaults();
  MicroTime deadline = seconds(600);

  static StreamingConfig classroom_link_defaults();
};

struct StreamReplaySummary {
  StreamServer::Aggregate aggregate;
  StreamServer::ArqStats arq;
  MicroTime end_time = 0;   // sim time when the last client finished
  u64 packets_sent = 0;
  u64 packets_lost = 0;

  [[nodiscard]] std::string report() const;
};

// Inline (like the fingerprint helpers above) so src/sim's district runner
// can shape links and print streaming lines without linking vgbl_core.
inline StreamingConfig StreamReplayOptions::classroom_link_defaults() {
  StreamingConfig config;
  config.network.bandwidth_bps = 40'000'000;  // 40 Mbit school downlink
  config.network.base_latency = milliseconds(15);
  config.network.jitter = milliseconds(5);
  config.network.loss_rate = 0.002;
  config.prefetch_enabled = true;
  return config;
}

inline std::string StreamReplaySummary::report() const {
  std::string out;
  out += "startup " + format_double(aggregate.mean_startup_ms, 1) + " ms (p95 " +
         format_double(aggregate.p95_startup_ms, 1) + "), rebuffer ratio " +
         format_double(aggregate.mean_rebuffer_ratio, 3) + ", " +
         std::to_string(aggregate.total_rebuffer_events) + " stall(s), " +
         std::to_string(aggregate.prefetch_hits) + " prefetch hit(s)\n";
  out += "delivery: " + std::to_string(packets_sent) + " packet(s) sent, " +
         std::to_string(packets_lost) + " lost, " +
         std::to_string(aggregate.retransmits) + " retransmit(s), " +
         std::to_string(aggregate.nacks_sent) + " nack(s), " +
         std::to_string(arq.abandoned) + " abandoned, " +
         std::to_string(aggregate.frames_skipped) + " frame(s) skipped, " +
         std::to_string(aggregate.unfinished_clients) +
         " unfinished client(s)\n";
  return out;
}

/// Streams the cohort over the simulated link. Each client's path is
/// derived from classroom_student_seed(seed, id) — the same seed that
/// drives the gameplay cohort drives the delivery cohort, and results are
/// bit-identical across reruns of a seed.
StreamReplaySummary replay_classroom_stream(const GameBundle& bundle,
                                            const StreamReplayOptions& options);

}  // namespace vgbl
