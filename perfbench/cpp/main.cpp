// The benchmark binary (built and run by perfbench/run.py):
//
//   vgbl_perfbench --workload district|lesson|playback --seed N
//                  --seconds S --trace 0|1 --work-dir DIR
//   vgbl_perfbench --self-test
//   vgbl_perfbench --catalog
//
// Prints human-readable report lines, then the result line: one JSON
// object with "correct", "attempted", "failed" and "metrics" — the
// end-to-end metrics untraced, the per-layer metrics traced. Exits 1 when
// an output check failed, 2 on bad arguments.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "catalog.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: vgbl_perfbench --workload district|lesson|playback "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n"
               "       vgbl_perfbench --self-test | --catalog\n");
  return 2;
}

int print_catalog() {
  std::printf("[");
  bool first = true;
  for (const MetricDef& def : catalog()) {
    std::printf("%s\n {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", "
                "\"kind\": \"%s\"}",
                first ? "" : ",", def.name, def.unit, def.better,
                def.kind == MetricKind::kEndToEnd ? "end_to_end" : "per_layer");
    first = false;
  }
  std::printf("\n]\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--self-test") {
      const int failures = run_self_tests();
      std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
      return failures == 0 ? 0 : 1;
    }
    if (arg == "--catalog") return print_catalog();
    const char* value = next();
    if (value == nullptr) return usage();
    if (arg == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(value);
    } else if (arg == "--trace") {
      cfg.trace = std::string(value) == "1";
    } else if (arg == "--work-dir") {
      cfg.work_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || cfg.work_dir.empty() || cfg.seconds <= 0) return usage();
  std::error_code ec;
  std::filesystem::create_directories(cfg.work_dir, ec);

  // Metrics stay off except inside traced reps.
  vgbl::obs::set_enabled(false);
  Report report;
  if (cfg.workload == "district") {
    report = run_district_workload(cfg);
  } else if (cfg.workload == "lesson") {
    report = run_lesson_workload(cfg);
  } else if (cfg.workload == "playback") {
    report = run_playback_workload(cfg);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", cfg.workload.c_str());
    return 2;
  }
  if (report.attempted == 0) {  // set-up failed: that one attempt failed
    report.attempted = 1;
    report.failed = std::max<u64>(report.failed, 1);
  }
  for (const std::string& line : report.lines) std::printf("%s\n", line.c_str());
  std::printf("%s\n",
              result_json(report.correct, report.attempted, report.failed,
                          report.metrics,
                          cfg.trace ? MetricKind::kLayer : MetricKind::kEndToEnd)
                  .c_str());
  return report.correct ? 0 : 1;
}
