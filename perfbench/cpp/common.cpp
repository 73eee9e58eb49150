#include "common.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "core/demo_games.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace vgbl;

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  lines.push_back("CHECK FAILED: " + what);
}

u64 derive_seed(u64 seed, u64 stream) {
  u64 state = seed ^ (stream * 0xD1B54A32D192ED03ULL);
  (void)splitmix64(state);
  return splitmix64(state);
}

u64 fnv1a(std::span<const u8> bytes) {
  u64 h = 14695981039346656037ULL;
  for (u8 b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

u64 pixel_hash(std::span<const u8> bytes) {
  u64 h = 14695981039346656037ULL ^ bytes.size();
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    u64 word = 0;
    std::memcpy(&word, bytes.data() + i, sizeof word);
    h = (h ^ word) * 1099511628211ULL;
    h ^= h >> 29;
  }
  for (; i < bytes.size(); ++i) h = (h ^ bytes[i]) * 1099511628211ULL;
  return h;
}

namespace {

Result<Published> publish(Demo demo, u64 project_seed, SpanLog& spans) {
  auto project = demo == Demo::kClassroomRepair
                     ? build_classroom_repair_project(project_seed)
                     : build_treasure_hunt_project(project_seed);
  if (!project.ok()) return project.error();
  Published out;
  out.project = std::move(project.value());

  i64 t0 = now_us();
  u32 build_span = spans.open("author.build_bundle", "author");
  auto bytes = build_bundle(out.project);
  spans.close(build_span);
  i64 t1 = now_us();
  out.build_ms = static_cast<f64>(t1 - t0) / 1000.0;
  if (!bytes.ok()) return bytes.error();
  out.fingerprint = fnv1a(bytes.value());

  t0 = now_us();
  u32 load_span = spans.open("author.load_bundle", "author");
  auto bundle = load_bundle(std::move(bytes.value()));
  spans.close(load_span);
  t1 = now_us();
  out.load_ms = static_cast<f64>(t1 - t0) / 1000.0;
  if (!bundle.ok()) return bundle.error();
  out.bundle = std::make_shared<const GameBundle>(std::move(bundle.value()));
  return out;
}

}  // namespace

Result<Published> set_up(Demo demo, u64 project_seed, int times,
                         SpanLog& spans, const std::function<Status()>& prepare,
                         SetupTimes& timing) {
  std::optional<Published> last;
  for (int s = 0; s < times; ++s) {
    const i64 t0 = now_us();
    auto pub = publish(demo, project_seed, spans);
    if (!pub.ok()) return pub.error();
    if (auto st = prepare(); !st.ok()) return st.error();
    const i64 t1 = now_us();
    timing.total_ms.push_back(static_cast<f64>(t1 - t0) / 1000.0);
    timing.build_ms.push_back(pub.value().build_ms);
    timing.load_ms.push_back(pub.value().load_ms);
    last = std::move(pub.value());
  }
  if (!last.has_value()) return invalid_argument("no set-up ran");
  return std::move(*last);
}

u64 ObsDelta::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

f64 ObsDelta::sum(const std::string& name) const {
  auto it = histogram_sums.find(name);
  return it == histogram_sums.end() ? 0.0 : it->second;
}

void ObsDelta::add(const ObsDelta& other) {
  for (const auto& [k, v] : other.counters) counters[k] += v;
  for (const auto& [k, v] : other.histogram_sums) histogram_sums[k] += v;
}

ObsDelta obs_delta(const obs::MetricsSnapshot& before,
                   const obs::MetricsSnapshot& after) {
  ObsDelta d;
  for (const auto& c : after.counters) {
    const auto* prev = before.find_counter(c.name);
    d.counters[c.name] = c.value - (prev != nullptr ? prev->value : 0);
  }
  for (const auto& h : after.histograms) {
    const auto* prev = before.find_histogram(h.name);
    d.histogram_sums[h.name] = h.sum - (prev != nullptr ? prev->sum : 0.0);
  }
  return d;
}

namespace {

/// Value of a "Key:   123 ..." line of /proc/self/status, or -1.
long long proc_status_field(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::atoll(line.c_str() + key_len + 1);
    }
  }
  return -1;
}

}  // namespace

f64 peak_rss_kb() {
  const long long kb = proc_status_field("VmHWM");
  if (kb >= 0) return static_cast<f64>(kb);
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<f64>(usage.ru_maxrss);  // KiB on Linux
}

void release_free_heap() { (void)malloc_trim(0); }

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

f64 current_rss_kb() {
  const long long kb = proc_status_field("VmRSS");
  return kb < 0 ? 0.0 : static_cast<f64>(kb);
}

int live_threads() {
  const long long n = proc_status_field("Threads");
  return n < 0 ? 0 : static_cast<int>(n);
}

void sync_filesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)::syncfs(fd);
  (void)::close(fd);
}

bool fresh_directory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (ec) return false;
  return std::filesystem::create_directories(dir, ec) && !ec;
}

u64 count_files(const std::string& dir) {
  std::error_code ec;
  u64 n = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) ++n;
  }
  return n;
}

void note_attribution(Report& report, const Attribution& attr, f64 n_traced) {
  report.note("traced total per rep: " + fixed(attr.total_ms / n_traced, 1) +
              " ms; reconciliation error " +
              fixed(attr.reconciliation_error_ms, 3) + " ms (slack " +
              fixed(reconciliation_slack_ms(attr.total_ms), 3) + " ms)");
  std::string shares = "layer shares:";
  for (const auto& [name, ms] : attr.layer_ms) {
    shares += " " + name + " " + fixed(100.0 * ms / attr.total_ms, 1) + "%";
  }
  shares += " unattributed " +
            fixed(100.0 * attr.unattributed_ms / attr.total_ms, 1) + "%";
  report.note(shares);
}

void write_spans(const RunConfig& cfg, const std::vector<const SpanLog*>& logs,
                 const std::vector<std::string>& names) {
  for (size_t i = 0; i < logs.size() && i < names.size(); ++i) {
    const std::string path =
        cfg.work_dir + "/" + cfg.workload + "." + names[i] + ".spans.tsv";
    (void)logs[i]->write_tsv(path);
  }
}

std::string hex64(u64 v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string fixed(f64 v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

}  // namespace perfbench
