// E12 — district-scale DES benchmark: 100k+ concurrent simulated students
// (1000 classrooms × 100 students) on one sharded timeline, with reward
// rules live so the fingerprint covers unlock streams and leaderboards.
// Arms sweep the shard count {1, 2, 8} plus a rerun of the widest arm;
// every arm's district fingerprint must be bit-identical (the bench exits
// nonzero on any divergence — it is a determinism gate, not just a timer).
// A smaller streaming arm exercises the mixed gameplay + delivery
// timeline. Emits BENCH_district.json; headline is the best
// students-per-second across the shard sweep.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "rewards/rules.hpp"
#include "sim/district.hpp"

namespace {

using namespace vgbl;

std::string hex64(u64 v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct ArmResult {
  std::string name;
  int shards = 0;
  sim::DistrictSummary summary;
  double students_per_sec = 0;
  double events_per_sec = 0;
};

ArmResult run_arm(const std::string& name,
                  const std::shared_ptr<const GameBundle>& bundle,
                  const sim::DistrictOptions& options) {
  ArmResult arm;
  arm.name = name;
  arm.shards = options.shards;
  auto summary = sim::run_district(bundle, options);
  if (!summary.ok()) {
    std::fprintf(stderr, "district run '%s' failed: %s\n", name.c_str(),
                 summary.error().message.c_str());
    std::exit(1);
  }
  arm.summary = std::move(summary).value();
  const double seconds = arm.summary.wall_ms / 1e3;
  if (seconds > 0) {
    arm.students_per_sec = arm.summary.total_students() / seconds;
    arm.events_per_sec =
        static_cast<double>(arm.summary.scheduler.events) / seconds;
  }
  std::printf("%-14s %8d students  %2d shard(s)  %7.2f s  "
              "%8.0f students/s  %10.0f events/s  fingerprint %s\n",
              name.c_str(), arm.summary.total_students(), arm.shards,
              seconds, arm.students_per_sec, arm.events_per_sec,
              hex64(arm.summary.fingerprint).c_str());
  return arm;
}

std::string arm_json(const ArmResult& arm) {
  char row[512];
  std::snprintf(
      row, sizeof row,
      "{\"arm\": \"%s\", \"shards\": %d, \"students\": %d, "
      "\"seconds\": %.3f, \"students_per_sec\": %.1f, "
      "\"events\": %llu, \"events_per_sec\": %.0f, "
      "\"max_queue_depth\": %llu, \"fingerprint\": \"%s\"}",
      arm.name.c_str(), arm.shards, arm.summary.total_students(),
      arm.summary.wall_ms / 1e3, arm.students_per_sec,
      static_cast<unsigned long long>(arm.summary.scheduler.events),
      arm.events_per_sec,
      static_cast<unsigned long long>(arm.summary.scheduler.max_queue_depth),
      hex64(arm.summary.fingerprint).c_str());
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_district.json";
  int classrooms = 1000;
  int students = 100;
  int steps = 25;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) out_path = argv[++i];
    if (arg == "--classrooms" && i + 1 < argc) classrooms = atoi(argv[++i]);
    if (arg == "--students" && i + 1 < argc) students = atoi(argv[++i]);
    if (arg == "--steps" && i + 1 < argc) steps = atoi(argv[++i]);
  }

  auto bundle = vgbl::bench::cached_bundle("quickstart");
  sim::DistrictOptions base;
  base.classrooms = classrooms;
  base.students_per_classroom = students;
  base.max_steps_per_student = steps;
  base.seed = 4242;
  base.worker_threads = 2;
  base.reward_rules = &rewards::RewardRuleSet::standard();

  std::printf("district sweep: %d classrooms x %d students, %d steps\n",
              classrooms, students, steps);
  std::vector<ArmResult> arms;
  for (int shards : {1, 2, 8}) {
    sim::DistrictOptions options = base;
    options.shards = shards;
    arms.push_back(
        run_arm("shards-" + std::to_string(shards), bundle, options));
  }
  {
    // Rerun of the widest arm: same options object, fresh run — catches
    // state leaking between runs (static RNGs, reused stores).
    sim::DistrictOptions options = base;
    options.shards = 8;
    arms.push_back(run_arm("shards-8-rerun", bundle, options));
  }

  bool deterministic = true;
  for (const ArmResult& arm : arms) {
    if (arm.summary.fingerprint != arms.front().summary.fingerprint) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: arm '%s' fingerprint %s != %s\n",
                   arm.name.c_str(), hex64(arm.summary.fingerprint).c_str(),
                   hex64(arms.front().summary.fingerprint).c_str());
      deterministic = false;
    }
  }
  std::printf("determinism across shard arms + rerun: %s\n",
              deterministic ? "OK" : "MISMATCH");

  // Streaming arm (smaller): gameplay + per-classroom delivery cohorts
  // interleaved on the same timeline, under iid loss.
  sim::DistrictOptions streaming = base;
  streaming.classrooms = std::min(classrooms, 16);
  streaming.students_per_classroom = std::min(students, 8);
  streaming.shards = 4;
  streaming.stream = true;
  streaming.fault_profile = "iid2";
  const ArmResult stream_arm = run_arm("streaming", bundle, streaming);

  double best_throughput = 0;
  for (const ArmResult& arm : arms) {
    best_throughput = std::max(best_throughput, arm.students_per_sec);
  }

  vgbl::bench::JsonArtifact artifact("district", "arms");
  artifact.field("workload",
                 "{\"classrooms\": " + std::to_string(classrooms) +
                     ", \"students_per_classroom\": " +
                     std::to_string(students) +
                     ", \"max_steps_per_student\": " + std::to_string(steps) +
                     ", \"bundle\": \"quickstart\", \"seed\": 4242, "
                     "\"rewards\": true}");
  artifact.field("total_students",
                 std::to_string(arms.front().summary.total_students()));
  artifact.field("deterministic", deterministic ? "true" : "false");
  artifact.field("fingerprint",
                 "\"" + hex64(arms.front().summary.fingerprint) + "\"");
  artifact.field("headline_metric", "\"students_per_sec\"");
  artifact.field("headline_direction", "\"higher\"");
  artifact.field("headline_value",
                 vgbl::bench::json_number(best_throughput, 1));
  for (const ArmResult& arm : arms) artifact.row(arm_json(arm));
  artifact.row(arm_json(stream_arm));
  if (!artifact.write(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);
  return deterministic ? 0 : 1;
}
