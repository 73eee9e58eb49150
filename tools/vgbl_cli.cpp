// vgbl — command-line front-end for the VGBL platform.
//
//   vgbl demo <classroom|treasure|quickstart|quiz> <out.vgbl>
//   vgbl lint <project.vgbl>
//   vgbl bundle <project.vgbl> <out.vgblb> [rle|dct] [quality]
//   vgbl info <bundle.vgblb>
//   vgbl play <bundle.vgblb> [explorer|random|speedrun] [max_steps]
//   vgbl figure1 <project.vgbl>
//   vgbl figure2 <bundle.vgblb>
//   vgbl screenshot <bundle.vgblb> <out.ppm>
//   vgbl save <bundle.vgblb> <store_dir> <student> [steps] [policy]
//   vgbl resume <bundle.vgblb> <store_dir> <student> [max_steps] [policy]
//   vgbl inspect-snapshot <store_dir> <student>
//   vgbl classroom <bundle.vgblb> [students] [max_steps] [--threads N]
//                  [--seed S] [--store <dir>] [--stream] [--fault <profile>]
//                  [--metrics-out <file.json|file.prom>]
//                  [--rewards] [--badge-store <dir>] [--shards N]
//   vgbl district <bundle.vgblb> [--classrooms N] [--students M] [--steps K]
//                 [--seed S] [--threads T] [--shards N] [--stream]
//                 [--clients C] [--fault <profile>] [--rewards]
//                 [--persist <dir>] [--metrics-out <file>]
//   vgbl rewards inspect <store_dir>
//   vgbl metrics <scrape.json>
//   vgbl gen [--seed S] [--count N] [--out <dir>] [--threads N]
//            [--projects] [--repro <failure.json>]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "core/classroom.hpp"
#include "core/platform.hpp"
#include "sim/district.hpp"
#include "gen/generator.hpp"
#include "net/streaming.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "persist/session_store.hpp"
#include "rewards/badge_store.hpp"
#include "rewards/leaderboard.hpp"
#include "rewards/rules.hpp"
#include "runtime/compositor.hpp"
#include "util/text.hpp"

namespace {

using namespace vgbl;

[[nodiscard]] Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return io_error("cannot open '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Status write_file(const std::string& path, const void* data, size_t size) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return io_error("cannot create '" + path + "'");
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  return out.good() ? Status{} : Status(io_error("write failed for '" + path + "'"));
}

[[nodiscard]] Result<Project> load_project_file(const std::string& path) {
  auto text = read_file(path);
  if (!text.ok()) return text.error();
  return load_project_text(text.value());
}

[[nodiscard]] Result<GameBundle> load_bundle_file(const std::string& path) {
  auto data = read_file(path);
  if (!data.ok()) return data.error();
  Bytes bytes(data.value().begin(), data.value().end());
  return load_bundle(std::move(bytes));
}

int fail(const Error& error) {
  std::fprintf(stderr, "error: %s\n", error.to_string().c_str());
  return 1;
}

int cmd_demo(const std::string& which, const std::string& out) {
  Result<Project> project = which == "classroom" ? build_classroom_repair_project()
                            : which == "treasure" ? build_treasure_hunt_project()
                            : which == "quiz"     ? build_science_quiz_project()
                                                  : build_quickstart_project();
  if (!project.ok()) return fail(project.error());
  const std::string text = save_project_text(project.value());
  if (auto st = write_file(out, text.data(), text.size()); !st.ok()) {
    return fail(st.error());
  }
  std::printf("wrote %s (%s, %zu scenarios, %zu rules)\n", out.c_str(),
              format_bytes(text.size()).c_str(), project.value().graph.size(),
              project.value().rules.size());
  return 0;
}

int cmd_lint(const std::string& path) {
  auto project = load_project_file(path);
  if (!project.ok()) return fail(project.error());
  int errors = 0;
  for (const auto& issue : project.value().lint()) {
    std::printf("%s %s\n", issue.level == LintLevel::kError ? "E" : "W",
                issue.message.c_str());
    errors += issue.level == LintLevel::kError;
  }
  std::printf("%d error(s); project is %s\n", errors,
              errors == 0 ? "bundleable" : "NOT bundleable");
  return errors == 0 ? 0 : 2;
}

int cmd_bundle(const std::string& in, const std::string& out,
               const std::string& codec, int quality) {
  auto project = load_project_file(in);
  if (!project.ok()) return fail(project.error());
  BundleOptions options;
  options.codec.mode = codec == "rle" ? CodecMode::kRle : CodecMode::kDct;
  if (quality > 0) options.codec.quality = quality;
  auto bytes = build_bundle(project.value(), options);
  if (!bytes.ok()) return fail(bytes.error());
  if (auto st = write_file(out, bytes.value().data(), bytes.value().size());
      !st.ok()) {
    return fail(st.error());
  }
  std::printf("wrote %s (%s, codec=%s q=%d)\n", out.c_str(),
              format_bytes(bytes.value().size()).c_str(),
              codec_mode_name(options.codec.mode), options.codec.quality);
  return 0;
}

int cmd_info(const std::string& path) {
  auto bundle = load_bundle_file(path);
  if (!bundle.ok()) return fail(bundle.error());
  const GameBundle& b = bundle.value();
  std::printf("title:      %s\n", b.meta.title.c_str());
  std::printf("author:     %s\n", b.meta.author.c_str());
  std::printf("video:      %dx%d @%d fps, %d frames, %s (%s, gop %d)\n",
              b.video->width(), b.video->height(), b.video->fps(),
              b.video->frame_count(),
              format_bytes(b.video->total_bytes()).c_str(),
              codec_mode_name(b.video->codec_config().mode),
              b.video->codec_config().gop_size);
  std::printf("scenarios:  %zu (start: %s)\n", b.graph.size(),
              b.graph.find(b.graph.start())
                  ? b.graph.find(b.graph.start())->name.c_str()
                  : "-");
  std::printf("objects:    %zu\n", b.objects.size());
  std::printf("items:      %zu\n", b.items.size());
  std::printf("rules:      %zu\n", b.rules.size());
  std::printf("dialogues:  %zu\n", b.dialogues.size());
  std::printf("quizzes:    %zu\n", b.quizzes.size());
  return 0;
}

int cmd_play(const std::string& path, const std::string& policy_name,
             int max_steps) {
  auto bundle = load_bundle_file(path);
  if (!bundle.ok()) return fail(bundle.error());
  auto shared = std::make_shared<GameBundle>(std::move(bundle.value()));

  const BotPolicy policy = policy_name == "random"    ? BotPolicy::kRandom
                           : policy_name == "speedrun" ? BotPolicy::kSpeedrun
                                                       : BotPolicy::kExplorer;
  SimClock clock;
  GameSession session(shared, &clock);
  if (auto st = session.start(); !st.ok()) return fail(st.error());
  const BotResult result = run_bot(session, clock, policy, max_steps, 42);

  std::printf("%s\n", render_runtime_view(session).c_str());
  std::printf("%s\n", session.tracker().report(clock.now()).c_str());
  std::printf("bot: %s, %d steps, %s\n", policy_name.c_str(), result.steps,
              result.completed ? (result.succeeded ? "succeeded" : "failed")
                               : "did not finish");
  return result.succeeded ? 0 : 3;
}

int cmd_figure1(const std::string& path) {
  auto project = load_project_file(path);
  if (!project.ok()) return fail(project.error());
  std::printf("%s", render_authoring_view(project.value()).c_str());
  return 0;
}

int cmd_figure2(const std::string& path) {
  auto bundle = load_bundle_file(path);
  if (!bundle.ok()) return fail(bundle.error());
  auto shared = std::make_shared<GameBundle>(std::move(bundle.value()));
  SimClock clock;
  GameSession session(shared, &clock);
  if (auto st = session.start(); !st.ok()) return fail(st.error());
  std::printf("%s", render_runtime_view(session).c_str());
  return 0;
}

int cmd_screenshot(const std::string& path, const std::string& out) {
  auto bundle = load_bundle_file(path);
  if (!bundle.ok()) return fail(bundle.error());
  auto shared = std::make_shared<GameBundle>(std::move(bundle.value()));
  SimClock clock;
  GameSession session(shared, &clock);
  if (auto st = session.start(); !st.ok()) return fail(st.error());
  Compositor compositor;
  const Frame screen = compositor.render(session);
  if (!write_ppm(screen, out)) {
    return fail(io_error("cannot write '" + out + "'"));
  }
  std::printf("wrote %s (%dx%d)\n", out.c_str(), screen.width(),
              screen.height());
  return 0;
}

BotPolicy parse_policy(const std::string& name) {
  return name == "random"     ? BotPolicy::kRandom
         : name == "speedrun" ? BotPolicy::kSpeedrun
                              : BotPolicy::kExplorer;
}

int cmd_save(const std::string& path, const std::string& dir,
             const std::string& student, int steps,
             const std::string& policy_name) {
  auto bundle = load_bundle_file(path);
  if (!bundle.ok()) return fail(bundle.error());
  auto shared = std::make_shared<GameBundle>(std::move(bundle.value()));

  SessionStore store({.directory = dir});
  auto opened = store.open_session(shared, student);
  if (!opened.ok()) return fail(opened.error());
  PersistedSession& ps = *opened.value();
  if (ps.resumed()) {
    std::printf("resuming '%s' at checkpoint %llu (%llu steps so far)\n",
                student.c_str(),
                static_cast<unsigned long long>(ps.checkpoint_sequence()),
                static_cast<unsigned long long>(ps.step_count()));
  }
  const BotResult bot = run_bot(ps.session(), ps.clock(),
                                parse_policy(policy_name), steps, 42);
  if (auto st = ps.checkpoint(); !st.ok()) return fail(st.error());
  std::printf(
      "saved '%s' after %d step(s): scenario '%s', score %lld, t=%.1fs\n",
      student.c_str(), bot.steps,
      ps.session().current_scenario_info()
          ? ps.session().current_scenario_info()->name.c_str()
          : "-",
      static_cast<long long>(ps.session().score()),
      to_seconds(ps.clock().now()));
  std::printf("log: %s (snapshot sequence %llu)\n", store.log_path().c_str(),
              static_cast<unsigned long long>(ps.checkpoint_sequence()));
  return 0;
}

int cmd_resume(const std::string& path, const std::string& dir,
               const std::string& student, int max_steps,
               const std::string& policy_name) {
  auto bundle = load_bundle_file(path);
  if (!bundle.ok()) return fail(bundle.error());
  auto shared = std::make_shared<GameBundle>(std::move(bundle.value()));

  SessionStore store({.directory = dir});
  if (auto st = store.status(); !st.ok()) return fail(st.error());
  if (!store.has_session(student)) {
    return fail(not_found("no saved session for '" + student + "' in '" +
                          dir + "'"));
  }
  auto opened = store.open_session(shared, student);
  if (!opened.ok()) return fail(opened.error());
  PersistedSession& ps = *opened.value();
  std::printf("resumed '%s': scenario '%s', score %lld, t=%.1fs"
              " (%llu logged step(s) replayed)\n",
              student.c_str(),
              ps.session().current_scenario_info()
                  ? ps.session().current_scenario_info()->name.c_str()
                  : "-",
              static_cast<long long>(ps.session().score()),
              to_seconds(ps.clock().now()),
              static_cast<unsigned long long>(ps.replayed_steps()));
  std::printf("log: %s\n", store.log_path().c_str());

  const BotResult result = run_bot(ps.session(), ps.clock(),
                                   parse_policy(policy_name), max_steps, 43);
  if (auto st = ps.checkpoint(); !st.ok()) return fail(st.error());
  std::printf("%s\n", ps.session().tracker().report(ps.clock().now()).c_str());
  std::printf("bot: %s, %d step(s) after resume, %s\n", policy_name.c_str(),
              result.steps,
              result.completed ? (result.succeeded ? "succeeded" : "failed")
                               : "did not finish");
  return result.succeeded ? 0 : 3;
}

/// Delivery half of the multi-client story: the same cohort streams its
/// video over the simulated shared link (populating the net_* and
/// stream_* metrics — gameplay alone never touches the link), under the
/// selected fault profile.
void run_stream_cohort(const GameBundle& bundle, int clients, u64 seed,
                       const std::string& fault_profile) {
  StreamReplayOptions options;
  options.client_count = clients;
  options.seed = seed;
  options.fault_profile = fault_profile;
  options.deadline = seconds(300);
  const StreamReplaySummary summary = replay_classroom_stream(bundle, options);
  std::printf("streamed to %d client(s) under '%s' profile: %s sent\n%s",
              clients, fault_profile.c_str(),
              format_bytes(summary.aggregate.bytes_sent).c_str(),
              summary.report().c_str());
}

int write_metrics_scrape(const std::string& out) {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().scrape();
  const std::string body = out.ends_with(".json")
                               ? obs::to_json(snap).dump(2) + "\n"
                               : obs::to_prometheus(snap);
  if (auto st = write_file(out, body.data(), body.size()); !st.ok()) {
    return fail(st.error());
  }
  std::string subsystems;
  for (const auto& s : snap.subsystems()) {
    subsystems += (subsystems.empty() ? "" : ", ") + s;
  }
  std::printf("wrote metrics scrape to %s (%zu counters, subsystems: %s)\n",
              out.c_str(), snap.counters.size(), subsystems.c_str());
  const auto spans = obs::TraceLog::global().totals();
  if (!spans.empty()) {
    std::printf("%s", obs::render_trace_summary(spans).c_str());
  }
  if (const u64 dropped = obs::TraceLog::global().dropped(); dropped > 0) {
    std::printf("trace: %llu older span(s) dropped (rings hold %zu per "
                "thread)\n",
                static_cast<unsigned long long>(dropped),
                obs::TraceLog::kRingCapacity);
  }
  return 0;
}

int cmd_classroom(const std::string& path,
                  const std::vector<std::string>& rest) {
  ClassroomOptions options;
  options.student_count = 16;
  options.max_steps_per_student = 200;
  std::string store_dir;
  std::string badge_store_dir;
  std::string metrics_out;
  std::string fault_profile = "clean";
  bool stream = false;
  bool with_rewards = false;
  int positional = 0;
  for (size_t i = 0; i < rest.size(); ++i) {
    const std::string& a = rest[i];
    if (a == "--threads" && i + 1 < rest.size()) {
      options.worker_threads = std::atoi(rest[++i].c_str());
    } else if (a == "--seed" && i + 1 < rest.size()) {
      options.seed = std::strtoull(rest[++i].c_str(), nullptr, 10);
    } else if (a == "--shards" && i + 1 < rest.size()) {
      options.des_shards = std::atoi(rest[++i].c_str());
    } else if (a == "--store" && i + 1 < rest.size()) {
      store_dir = rest[++i];
    } else if (a == "--rewards") {
      with_rewards = true;
    } else if (a == "--badge-store" && i + 1 < rest.size()) {
      badge_store_dir = rest[++i];
      with_rewards = true;  // a badge store implies rewards
    } else if (a == "--metrics-out" && i + 1 < rest.size()) {
      metrics_out = rest[++i];
    } else if (a == "--stream") {
      stream = true;
    } else if (a == "--fault" && i + 1 < rest.size()) {
      fault_profile = rest[++i];
      stream = true;  // a fault profile only makes sense when streaming
    } else if (positional == 0) {
      options.student_count = std::atoi(a.c_str());
      ++positional;
    } else if (positional == 1) {
      options.max_steps_per_student = std::atoi(a.c_str());
      ++positional;
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n", a.c_str());
      return 64;
    }
  }
  if (options.student_count <= 0 || options.max_steps_per_student <= 0 ||
      options.worker_threads < 0) {
    std::fprintf(stderr, "students, max_steps must be > 0; threads >= 0\n");
    return 64;
  }

  auto bundle = load_bundle_file(path);
  if (!bundle.ok()) return fail(bundle.error());
  auto shared = std::make_shared<GameBundle>(std::move(bundle.value()));

  if (with_rewards) {
    options.reward_rules = &rewards::RewardRuleSet::standard();
  }
  std::optional<SessionStore> store;
  if (!store_dir.empty()) {
    SessionStoreOptions store_options;
    store_options.directory = store_dir;
    // Store-backed sessions are constructed by the store, so the rule set
    // rides its session options.
    store_options.session.reward_rules = options.reward_rules;
    store.emplace(store_options);
    options.store = &*store;
  }
  std::unique_ptr<rewards::BadgeStore> badge_store;
  if (!badge_store_dir.empty()) {
    auto opened = rewards::BadgeStore::open({.directory = badge_store_dir});
    if (!opened.ok()) return fail(opened.error());
    badge_store = std::move(opened.value());
    options.badge_store = badge_store.get();
  }
  if (!metrics_out.empty()) obs::set_enabled(true);

  const auto t0 = std::chrono::steady_clock::now();
  const ClassroomSummary summary = simulate_classroom(shared, options);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("%s", summary.report().c_str());
  std::printf(
      "simulated %zu student(s) in %.2fs on %d worker thread(s)%s "
      "(%.1f students/s)\n",
      summary.students.size(), elapsed, options.worker_threads,
      store_dir.empty() ? "" : " via session store",
      elapsed > 0 ? static_cast<double>(summary.students.size()) / elapsed
                  : 0.0);
  if (badge_store) {
    if (auto st = badge_store->checkpoint(); !st.ok()) return fail(st.error());
    std::printf("badge store: %s (%zu student(s), sequence %llu)\n",
                badge_store->directory().c_str(), badge_store->student_count(),
                static_cast<unsigned long long>(badge_store->sequence()));
  }
  if (stream) {
    run_stream_cohort(*shared, options.student_count, options.seed,
                      fault_profile);
  }
  if (!metrics_out.empty()) return write_metrics_scrape(metrics_out);
  return 0;
}

int cmd_district(const std::string& path,
                 const std::vector<std::string>& rest) {
  sim::DistrictOptions options;
  std::string metrics_out;
  for (size_t i = 0; i < rest.size(); ++i) {
    const std::string& a = rest[i];
    if (a == "--classrooms" && i + 1 < rest.size()) {
      options.classrooms = std::atoi(rest[++i].c_str());
    } else if (a == "--students" && i + 1 < rest.size()) {
      options.students_per_classroom = std::atoi(rest[++i].c_str());
    } else if (a == "--steps" && i + 1 < rest.size()) {
      options.max_steps_per_student = std::atoi(rest[++i].c_str());
    } else if (a == "--seed" && i + 1 < rest.size()) {
      options.seed = std::strtoull(rest[++i].c_str(), nullptr, 10);
    } else if (a == "--threads" && i + 1 < rest.size()) {
      options.worker_threads = std::atoi(rest[++i].c_str());
    } else if (a == "--shards" && i + 1 < rest.size()) {
      options.shards = std::atoi(rest[++i].c_str());
    } else if (a == "--rewards") {
      options.reward_rules = &rewards::RewardRuleSet::standard();
    } else if (a == "--persist" && i + 1 < rest.size()) {
      options.persist_dir = rest[++i];
    } else if (a == "--stream") {
      options.stream = true;
    } else if (a == "--clients" && i + 1 < rest.size()) {
      options.stream_clients = std::atoi(rest[++i].c_str());
      options.stream = true;
    } else if (a == "--fault" && i + 1 < rest.size()) {
      options.fault_profile = rest[++i];
      options.stream = true;  // a fault profile only makes sense streaming
    } else if (a == "--metrics-out" && i + 1 < rest.size()) {
      metrics_out = rest[++i];
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n", a.c_str());
      return 64;
    }
  }
  if (options.classrooms <= 0 || options.students_per_classroom <= 0 ||
      options.max_steps_per_student <= 0 || options.worker_threads < 0) {
    std::fprintf(stderr,
                 "classrooms, students, steps must be > 0; threads >= 0\n");
    return 64;
  }

  auto bundle = load_bundle_file(path);
  if (!bundle.ok()) return fail(bundle.error());
  auto shared = std::make_shared<GameBundle>(std::move(bundle.value()));
  if (!metrics_out.empty()) obs::set_enabled(true);

  auto summary = sim::run_district(shared, options);
  if (!summary.ok()) return fail(summary.error());
  const sim::DistrictSummary& district = summary.value();
  std::printf("%s", district.report().c_str());
  std::printf(
      "simulated %d student(s) across %zu classroom(s) in %.2fs on "
      "%d worker thread(s), %u shard(s) (%.1f students/s, %.0f events/s)\n",
      district.total_students(), district.classrooms.size(),
      district.wall_ms / 1000.0, options.worker_threads,
      options.shards > 0 ? static_cast<unsigned>(options.shards)
                         : static_cast<unsigned>(options.classrooms),
      district.wall_ms > 0
          ? static_cast<double>(district.total_students()) /
                (district.wall_ms / 1000.0)
          : 0.0,
      district.wall_ms > 0
          ? static_cast<double>(district.scheduler.events) /
                (district.wall_ms / 1000.0)
          : 0.0);
  if (!metrics_out.empty()) return write_metrics_scrape(metrics_out);
  return 0;
}

int cmd_metrics(const std::string& path) {
  auto text = read_file(path);
  if (!text.ok()) return fail(text.error());
  auto json = Json::parse(text.value());
  if (!json.ok()) return fail(json.error());
  auto snap = obs::snapshot_from_json(json.value());
  if (!snap.ok()) return fail(snap.error());
  std::printf("%s", obs::render_snapshot(snap.value()).c_str());
  return 0;
}

int cmd_inspect_snapshot(const std::string& dir, const std::string& student) {
  SessionStore store({.directory = dir});
  auto data = store.latest_snapshot(student);
  if (!data.ok()) return fail(data.error());
  auto info = inspect_snapshot(data.value());
  if (!info.ok()) return fail(info.error());
  const SnapshotInfo& s = info.value();
  std::printf("snapshot:  latest for '%s' in %s (%s, format v%u)\n",
              student.c_str(), store.log_path().c_str(),
              format_bytes(s.total_bytes).c_str(), s.version);
  std::printf("student:   %s\n", s.meta.student_id.c_str());
  std::printf("bundle:    %s\n", s.meta.bundle_title.c_str());
  std::printf("sequence:  %llu (after %llu input step(s))\n",
              static_cast<unsigned long long>(s.meta.sequence),
              static_cast<unsigned long long>(s.meta.step_count));
  std::printf("sim time:  %.1fs\n", to_seconds(s.meta.sim_time));
  std::printf("sections:\n");
  for (const auto& section : s.sections) {
    std::printf("  %s  %s\n", section.name.c_str(),
                format_bytes(section.payload_bytes).c_str());
  }
  return 0;
}

int cmd_rewards_inspect(const std::string& dir) {
  auto opened = rewards::BadgeStore::open({.directory = dir});
  if (!opened.ok()) return fail(opened.error());
  const rewards::BadgeStore& store = *opened.value();
  std::printf("badge store: %s (sequence %llu, %zu student(s))\n",
              store.directory().c_str(),
              static_cast<unsigned long long>(store.sequence()),
              store.student_count());
  for (const auto& record : store.all()) {
    std::printf("%s: %zu badge(s), %lld bonus point(s), %llu commit(s)\n",
                record.student_id.c_str(), record.grants.size(),
                static_cast<long long>(record.total_points),
                static_cast<unsigned long long>(record.commits));
    for (const auto& grant : record.grants) {
      std::printf("  %-20s rule %-3u %+5lld pts  t=%.1fs\n",
                  grant.badge.c_str(), grant.rule_id,
                  static_cast<long long>(grant.points),
                  to_seconds(grant.sim_time));
    }
  }
  std::printf("%s", rewards::leaderboard_from_store(store).report().c_str());
  return 0;
}

// FNV-1a over the bundle bytes — printed so two `vgbl gen` runs (or runs
// with different --threads) can be compared for bit-identity at a glance.
u64 fingerprint64(const Bytes& bytes) {
  u64 h = 0xcbf29ce484222325ULL;
  for (u8 b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

int cmd_gen(const std::vector<std::string>& args) {
  u64 seed = 1;
  int count = 1;
  int threads = 0;
  std::string out_dir = "gen-out";
  std::string repro_path;
  bool emit_projects = false;
  for (size_t i = 0; i < args.size(); ++i) {
    auto next = [&]() -> std::string {
      return i + 1 < args.size() ? args[++i] : std::string();
    };
    if (args[i] == "--seed") {
      seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (args[i] == "--count") {
      count = std::atoi(next().c_str());
    } else if (args[i] == "--threads") {
      threads = std::atoi(next().c_str());
    } else if (args[i] == "--out") {
      out_dir = next();
    } else if (args[i] == "--repro") {
      repro_path = next();
    } else if (args[i] == "--projects") {
      emit_projects = true;
    } else {
      std::fprintf(stderr, "error: unknown gen flag '%s'\n", args[i].c_str());
      return 64;
    }
  }

  if (!repro_path.empty()) {
    auto dump = gen::read_failure_dump(repro_path);
    if (!dump.ok()) return fail(dump.error());
    const gen::FailureDump& d = dump.value();
    std::printf("repro: property '%s' seed %llu\nparams: %s\n",
                d.property.c_str(), static_cast<unsigned long long>(d.seed),
                d.params.to_json().dump(-1).c_str());
    auto course = gen::generate_course(d.params, d.seed);
    if (!course.ok()) return fail(course.error());
    const std::string text = save_project_text(course.value().project);
    std::printf("regenerated project %s dump text (%zu bytes)\n",
                text == d.project_text ? "MATCHES" : "DIFFERS FROM",
                text.size());
    auto bundle = build_bundle(course.value().project);
    if (!bundle.ok()) return fail(bundle.error());
    std::printf("bundle: %s, fingerprint %016llx, solver %zu steps\n",
                format_bytes(bundle.value().size()).c_str(),
                static_cast<unsigned long long>(
                    fingerprint64(bundle.value())),
                course.value().solver.size());
    return text == d.project_text ? 0 : 3;
  }

  if (count < 1) {
    std::fprintf(stderr, "error: --count must be >= 1\n");
    return 64;
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create '%s': %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  auto corpus = gen::generate_corpus(seed, count, threads);
  if (!corpus.ok()) return fail(corpus.error());
  for (int i = 0; i < count; ++i) {
    const gen::GeneratedCourse& course = corpus.value()[static_cast<size_t>(i)];
    auto bytes = build_bundle(course.project);
    if (!bytes.ok()) return fail(bytes.error());
    char name[64];
    std::snprintf(name, sizeof(name), "gen-%llu-%03d",
                  static_cast<unsigned long long>(seed), i);
    const std::string base = out_dir + "/" + name;
    if (auto st = write_file(base + ".vgblb", bytes.value().data(),
                             bytes.value().size());
        !st.ok()) {
      return fail(st.error());
    }
    if (emit_projects) {
      const std::string text = save_project_text(course.project);
      if (auto st = write_file(base + ".vgbl", text.data(), text.size());
          !st.ok()) {
        return fail(st.error());
      }
    }
    std::printf("%s.vgblb  %9s  fingerprint %016llx  scenarios %zu  "
                "solver %zu steps  rules %zu\n",
                base.c_str(), format_bytes(bytes.value().size()).c_str(),
                static_cast<unsigned long long>(fingerprint64(bytes.value())),
                course.project.graph.size(), course.solver.size(),
                course.reward_rules.rules().size());
  }
  std::printf("wrote %d bundle(s) to %s/ (seed %llu, threads %d)\n", count,
              out_dir.c_str(), static_cast<unsigned long long>(seed), threads);
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: vgbl <command> ...\n"
               "  demo <classroom|treasure|quickstart|quiz> <out.vgbl>\n"
               "  lint <project.vgbl>\n"
               "  bundle <project.vgbl> <out.vgblb> [rle|dct] [quality]\n"
               "  info <bundle.vgblb>\n"
               "  play <bundle.vgblb> [explorer|random|speedrun] [max_steps]\n"
               "  figure1 <project.vgbl>\n"
               "  figure2 <bundle.vgblb>\n"
               "  screenshot <bundle.vgblb> <out.ppm>\n"
               "  save <bundle.vgblb> <store_dir> <student> [steps] "
               "[policy]\n"
               "  resume <bundle.vgblb> <store_dir> <student> [max_steps] "
               "[policy]\n"
               "  inspect-snapshot <store_dir> <student>\n"
               "  classroom <bundle.vgblb> [students] [max_steps] "
               "[--threads N] [--seed S] [--store <dir>] [--stream]\n"
               "            [--fault clean|iid2|bursty|flap|degraded|stress]\n"
               "            [--metrics-out <file.json|file.prom>]\n"
               "            [--rewards] [--badge-store <dir>] [--shards N]\n"
               "  district <bundle.vgblb> [--classrooms N] [--students M]\n"
               "            [--steps K] [--seed S] [--threads T] [--shards N]\n"
               "            [--stream] [--clients C] [--fault <profile>]\n"
               "            [--rewards] [--persist <dir>]\n"
               "            [--metrics-out <file.json|file.prom>]\n"
               "  rewards inspect <store_dir>\n"
               "  metrics <scrape.json>\n"
               "  gen [--seed S] [--count N] [--out <dir>] [--threads N]\n"
               "      [--projects] [--repro <failure.json>]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 64;
  }
  const std::string cmd = argv[1];
  auto arg = [&](int i, const char* fallback = "") {
    return std::string(argc > i ? argv[i] : fallback);
  };
  if (cmd == "demo" && argc >= 4) return cmd_demo(arg(2), arg(3));
  if (cmd == "lint" && argc >= 3) return cmd_lint(arg(2));
  if (cmd == "bundle" && argc >= 4) {
    return cmd_bundle(arg(2), arg(3), arg(4, "dct"),
                      argc > 5 ? std::atoi(argv[5]) : 0);
  }
  if (cmd == "info" && argc >= 3) return cmd_info(arg(2));
  if (cmd == "play" && argc >= 3) {
    return cmd_play(arg(2), arg(3, "explorer"),
                    argc > 4 ? std::atoi(argv[4]) : 500);
  }
  if (cmd == "figure1" && argc >= 3) return cmd_figure1(arg(2));
  if (cmd == "figure2" && argc >= 3) return cmd_figure2(arg(2));
  if (cmd == "screenshot" && argc >= 4) return cmd_screenshot(arg(2), arg(3));
  if (cmd == "save" && argc >= 5) {
    return cmd_save(arg(2), arg(3), arg(4),
                    argc > 5 ? std::atoi(argv[5]) : 40, arg(6, "explorer"));
  }
  if (cmd == "resume" && argc >= 5) {
    return cmd_resume(arg(2), arg(3), arg(4),
                      argc > 5 ? std::atoi(argv[5]) : 500,
                      arg(6, "explorer"));
  }
  if (cmd == "inspect-snapshot" && argc >= 4) {
    return cmd_inspect_snapshot(arg(2), arg(3));
  }
  if (cmd == "classroom" && argc >= 3) {
    return cmd_classroom(arg(2),
                         std::vector<std::string>(argv + 3, argv + argc));
  }
  if (cmd == "district" && argc >= 3) {
    return cmd_district(arg(2),
                        std::vector<std::string>(argv + 3, argv + argc));
  }
  if (cmd == "rewards" && argc >= 4 && arg(2) == "inspect") {
    return cmd_rewards_inspect(arg(3));
  }
  if (cmd == "metrics" && argc >= 3) return cmd_metrics(arg(2));
  if (cmd == "gen") {
    return cmd_gen(std::vector<std::string>(argv + 2, argv + argc));
  }
  usage();
  return 64;
}
