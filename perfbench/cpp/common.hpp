// Pieces every workload shares: the run configuration, the run report
// (checks, attempted/failed counts, metric values, notes), bundle
// publishing for set-up, obs scrape deltas and process statistics.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "author/bundle.hpp"
#include "author/project.hpp"
#include "catalog.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  u64 seed = 1;
  f64 seconds = 10;
  bool trace = false;
  /// Scratch directory for stores and span files (inside the checkout).
  std::string work_dir;
};

/// What one workload run found.
struct Report {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  MetricValues metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> lines;

  /// Records a failed output check (the run exits nonzero).
  void check(bool ok, const std::string& what);
  void note(const std::string& line) { lines.push_back(line); }
};

/// Derives an independent 64-bit seed for input stream `stream` of a run.
[[nodiscard]] u64 derive_seed(u64 seed, u64 stream);

[[nodiscard]] u64 fnv1a(std::span<const vgbl::u8> bytes);
/// Word-at-a-time FNV-style hash of a frame's pixels (fast enough to run
/// on every presented frame).
[[nodiscard]] u64 pixel_hash(std::span<const vgbl::u8> bytes);

enum class Demo { kClassroomRepair, kTreasureHunt };

/// A demo project published the way a designer ships it.
struct Published {
  vgbl::Project project;
  std::shared_ptr<const vgbl::GameBundle> bundle;
  u64 fingerprint = 0;  ///< FNV-1a over the bundle bytes
  f64 build_ms = 0;     ///< build_bundle
  f64 load_ms = 0;      ///< load_bundle
};

/// Timings of a workload's repeated set-ups.
struct SetupTimes {
  std::vector<f64> total_ms;  ///< publishing + the workload's own preparation
  std::vector<f64> build_ms;
  std::vector<f64> load_ms;
};

/// Sets the workload up `times` times: authors the demo project, times
/// build_bundle and load_bundle, then runs `prepare` (store directory,
/// inputs). Returns the last publication.
[[nodiscard]] vgbl::Result<Published> set_up(
    Demo demo, u64 project_seed, int times, SpanLog& spans,
    const std::function<vgbl::Status()>& prepare, SetupTimes& timing);

/// Counter and histogram-sum movement between two scrapes of the global
/// registry.
struct ObsDelta {
  std::map<std::string, u64> counters;
  std::map<std::string, f64> histogram_sums;

  [[nodiscard]] u64 counter(const std::string& name) const;
  [[nodiscard]] f64 sum(const std::string& name) const;
  void add(const ObsDelta& other);
};

[[nodiscard]] ObsDelta obs_delta(const vgbl::obs::MetricsSnapshot& before,
                                 const vgbl::obs::MetricsSnapshot& after);

/// Peak and current resident set of this process, in KiB.
[[nodiscard]] f64 peak_rss_kb();
/// Returns freed heap to the OS (the set-up's rendered clip frames), so the
/// resident set that follows is the workload's own.
void release_free_heap();
/// Restarts the peak at the current resident set (Linux clear_refs);
/// false when the kernel does not support it.
bool reset_peak_rss();
[[nodiscard]] f64 current_rss_kb();
/// Threads of this process right now (/proc), 0 when unknown.
[[nodiscard]] int live_threads();

/// Adds the traced total per rep, the reconciliation error and each
/// layer's share of the traced total to the report.
void note_attribution(Report& report, const Attribution& attr, f64 n_traced);

/// Writes each span log to <work_dir>/<workload>.<name>.spans.tsv.
void write_spans(const RunConfig& cfg, const std::vector<const SpanLog*>& logs,
                 const std::vector<std::string>& names);

/// Writes back every pending change of the filesystem holding `dir`
/// (syncfs); does nothing when `dir` cannot be opened.
void sync_filesystem(const std::string& dir);
/// Removes and recreates `dir`.
[[nodiscard]] bool fresh_directory(const std::string& dir);
/// Regular files below `dir`.
[[nodiscard]] u64 count_files(const std::string& dir);

[[nodiscard]] std::string hex64(u64 v);
[[nodiscard]] std::string fixed(f64 v, int digits);

}  // namespace perfbench
