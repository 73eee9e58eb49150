// The `district` and `lesson` workloads: the classroom-repair game (the
// paper's §3.2 worked example) played by whole classes through
// sim::run_district, driven from the calling thread.
//
// district: many classrooms of 40 students with rewards on and no
//   persistence or streaming, so session steps, event dispatch, inline
//   reward evaluation and the scheduler do the work.
// lesson: classes of 16 that suspend to their classroom SessionStore
//   halfway, resume from disk and commit badges to the classroom
//   BadgeStore, while a 32-client cohort per classroom streams over the
//   classroom's saturated 40 Mbit link under the degraded fault profile.
//   (Under bursty, about one seed in 30 skips frames, which counts as a
//   failed operation; degraded skips none.)
//
// The traced run re-executes the same work outside the scheduler — every
// student through GameSession/BotDriver (and the stores, for lesson) and
// every classroom's cohort through StreamServer::step — with a span
// around each call. Those replays must reproduce the district's own
// results bit for bit, and their times are what the sim.run span is
// broken into.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <set>
#include <thread>

#include "common.hpp"
#include "host_speed.hpp"
#include "core/classroom_engine.hpp"
#include "net/streaming.hpp"
#include "obs/metrics.hpp"
#include "persist/session_store.hpp"
#include "rewards/badge_store.hpp"
#include "rewards/rules.hpp"
#include "runtime/script.hpp"
#include "sim/district.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace vgbl;

namespace {

struct Shape {
  const char* name;
  int classrooms;
  int students;
  int steps;
  int shards;
  bool lesson;  ///< persistence + streaming on
  int stream_clients;
  const char* fault;
};

// Sizes keep one rep near a second or two on one core, so a run holds
// enough reps for a steady median.
constexpr Shape kDistrictShape{"district", 40, 40, 150, 4, false, 0, "clean"};
// Lesson classes are 16 students (with a 32-client stream cohort each):
// persist time is mostly filesystem work in the kernel, which no host
// reference tracks, so it is kept to about a third of the rep.
constexpr Shape kLessonShape{"lesson", 8, 16, 150, 4, true, 32, "degraded"};

constexpr int kSetups = 3;
constexpr int kSampledStudents = 24;
constexpr int kStreamMaxHops = 12;
constexpr MicroTime kStreamDeadline = seconds(600);

sim::DistrictOptions district_options(const Shape& shape, u64 seed) {
  sim::DistrictOptions o;
  o.classrooms = shape.classrooms;
  o.students_per_classroom = shape.students;
  o.max_steps_per_student = shape.steps;
  o.seed = seed;
  o.worker_threads = 0;
  o.shards = shape.shards;
  o.reward_rules = &rewards::RewardRuleSet::standard();
  if (shape.lesson) {
    o.stream = true;
    o.stream_clients = shape.stream_clients;
    o.fault_profile = shape.fault;
    o.stream_max_hops = kStreamMaxHops;
    o.stream_deadline = kStreamDeadline;
  }
  return o;
}

/// The per-classroom options run_district derives from the district's.
ClassroomOptions room_options(const sim::DistrictOptions& d, int classroom) {
  ClassroomOptions o;
  o.student_count = d.students_per_classroom;
  o.max_steps_per_student = d.max_steps_per_student;
  o.policies = d.policies;
  o.seed = classroom_student_seed(d.seed, classroom + 1);
  o.reward_rules = d.reward_rules;
  return o;
}

std::string student_name(int index) {
  return "student-" + std::to_string(index + 1);
}

bool same_result(const StudentResult& a, const StudentResult& b) {
  return a.student_id == b.student_id && a.policy == b.policy &&
         a.completed == b.completed && a.succeeded == b.succeeded &&
         a.steps == b.steps && a.score == b.score &&
         a.play_seconds == b.play_seconds && a.decisions == b.decisions &&
         a.items_collected == b.items_collected && a.rewards == b.rewards &&
         a.interactions == b.interactions && a.resumed == b.resumed &&
         a.unlocks == b.unlocks && a.badge_points == b.badge_points;
}

bool same_stream(const StreamReplaySummary& a, const StreamReplaySummary& b) {
  const auto& x = a.aggregate;
  const auto& y = b.aggregate;
  return a.end_time == b.end_time && a.packets_sent == b.packets_sent &&
         a.packets_lost == b.packets_lost &&
         a.arq.retransmits == b.arq.retransmits &&
         a.arq.nacks_received == b.arq.nacks_received &&
         a.arq.feedback_received == b.arq.feedback_received &&
         a.arq.timeouts == b.arq.timeouts && a.arq.abandoned == b.arq.abandoned &&
         a.arq.queue_overflow == b.arq.queue_overflow &&
         x.mean_startup_ms == y.mean_startup_ms &&
         x.p95_startup_ms == y.p95_startup_ms &&
         x.mean_rebuffer_ratio == y.mean_rebuffer_ratio &&
         x.mean_switch_ms == y.mean_switch_ms &&
         x.prefetch_hits == y.prefetch_hits &&
         x.total_rebuffer_events == y.total_rebuffer_events &&
         x.frames_skipped == y.frames_skipped &&
         x.unfinished_clients == y.unfinished_clients &&
         x.retransmits == y.retransmits && x.nacks_sent == y.nacks_sent &&
         x.bytes_sent == y.bytes_sent;
}

/// Call timings gathered by a replay, plus its per-layer totals.
struct ReplayTimes {
  std::vector<f64> open_us;  ///< GameSession construction + start
  std::vector<f64> step_us;  ///< BotDriver::run_iteration
  std::vector<f64> net_step_us;
  std::map<std::string, f64> layer_ms;
  /// Part of layer_ms spent in each student's last scheduler event. The
  /// district times every event of a student except the last
  /// (StudentActor stops timing once the student is done), so
  /// runtime.student_ms leaves this part out.
  std::map<std::string, f64> last_event_ms;
};

/// Times the replayed calls of one student and groups them into the
/// scheduler events sim::StudentActor runs them in.
class EventLedger {
 public:
  EventLedger(SpanLog& log, ReplayTimes* times) : log_(log), times_(times) {}

  template <typename Fn>
  auto call(const char* name, const char* layer, std::vector<f64>* samples,
            Fn&& fn) {
    const i64 t0 = now_us();
    auto result = fn();
    const i64 t1 = now_us();
    log_.add(name, layer, kNoParent, t0, t1);
    const f64 us = static_cast<f64>(t1 - t0);
    pending_.emplace_back(layer, us / 1000.0);
    if (samples != nullptr) samples->push_back(us);
    return result;
  }

  /// Closes the current event; `last` marks the event that finishes (or
  /// abandons) the student.
  void end_event(bool last) {
    if (times_ != nullptr) {
      for (const auto& [layer, ms] : pending_) {
        times_->layer_ms[layer] += ms;
        if (last) times_->last_event_ms[layer] += ms;
      }
    }
    pending_.clear();
  }

  std::vector<f64>* open_samples() { return times_ ? &times_->open_us : nullptr; }
  std::vector<f64>* step_samples() { return times_ ? &times_->step_us : nullptr; }

 private:
  SpanLog& log_;
  ReplayTimes* times_;
  std::vector<std::pair<const char*, f64>> pending_;
};

/// Replays one storeless student exactly as sim::StudentActor runs it:
/// the first event opens the session and runs one iteration, every later
/// event runs one iteration.
std::optional<StudentResult> replay_student(
    const std::shared_ptr<const GameBundle>& bundle,
    const ClassroomOptions& options, int index, SpanLog& log,
    ReplayTimes* times) {
  EventLedger ev(log, times);
  const BotPolicy policy = classroom_engine::student_policy(options, index);
  const u64 bot_seed = classroom_student_seed(options.seed, index + 1);
  SimClock clock;
  SessionOptions session_options;
  session_options.reward_rules = options.reward_rules;
  session_options.decode_threads = 0;
  std::unique_ptr<GameSession> session;
  const bool started =
      ev.call("runtime.open", "runtime", ev.open_samples(), [&] {
        session = std::make_unique<GameSession>(bundle, &clock, session_options);
        return session->start().ok();
      });
  if (!started) {
    ev.end_event(true);
    return std::nullopt;
  }
  BotDriver driver(*session, clock, policy, options.max_steps_per_student,
                   bot_seed);
  bool done = driver.done();
  while (!done) {
    (void)ev.call("runtime.step", "runtime", ev.step_samples(),
                  [&] { return driver.run_iteration(); });
    done = driver.done();
    ev.end_event(done);
  }
  StudentResult r;
  r.student_id = index + 1;
  r.policy = policy;
  classroom_engine::fill_student_result(r, *session, clock, driver.result());
  return r;
}

/// Replays one store-backed student with the calls sim::StudentActor
/// makes, event by event: half the budget, checkpoint and teardown, reopen
/// from disk, the rest under seed + 1, final checkpoint and badge commit.
std::optional<StudentResult> replay_store_student(
    const std::shared_ptr<const GameBundle>& bundle,
    const ClassroomOptions& options, int index, SessionStore& store,
    rewards::BadgeStore& badges, SpanLog& log, ReplayTimes* times,
    u64* store_errors) {
  EventLedger ev(log, times);
  const BotPolicy policy = classroom_engine::student_policy(options, index);
  const u64 bot_seed = classroom_student_seed(options.seed, index + 1);
  const std::string name = student_name(index);
  const int first_budget = options.max_steps_per_student / 2;
  auto fail = [&]() -> std::optional<StudentResult> {
    ++*store_errors;
    ev.end_event(true);
    return std::nullopt;
  };
  auto step = [&](BotDriver& driver) {
    (void)ev.call("runtime.step", "runtime", ev.step_samples(),
                  [&] { return driver.run_iteration(); });
  };

  (void)ev.call("persist.remove", "persist", nullptr,
                [&] { return store.remove_session(name).ok(); });
  auto opened = ev.call("persist.open", "persist", nullptr,
                        [&] { return store.open_session(bundle, name); });
  if (!opened.ok()) return fail();
  std::unique_ptr<PersistedSession> persisted = std::move(opened.value());
  BotResult first;
  {
    BotDriver driver(persisted->session(), persisted->clock(), policy,
                     first_budget, bot_seed);
    step(driver);
    while (!driver.done()) {
      ev.end_event(false);
      step(driver);
    }
    first = driver.result();
  }
  // Suspend and resume run in the event that exhausted the first half.
  if (!ev.call("persist.checkpoint", "persist", nullptr,
               [&] { return persisted->checkpoint().ok(); })) {
    return fail();
  }
  persisted.reset();
  auto resumed = ev.call("persist.open", "persist", nullptr,
                         [&] { return store.open_session(bundle, name); });
  if (!resumed.ok()) return fail();
  persisted = std::move(resumed.value());
  BotResult bot = first;
  if (!first.completed) {
    BotDriver driver(persisted->session(), persisted->clock(), policy,
                     options.max_steps_per_student - first_budget,
                     bot_seed + 1);
    step(driver);
    while (!driver.done()) {
      ev.end_event(false);
      step(driver);
    }
    const BotResult rest = driver.result();
    bot.steps += rest.steps;
    bot.completed = rest.completed;
    bot.succeeded = rest.succeeded;
  }
  if (!ev.call("persist.checkpoint", "persist", nullptr,
               [&] { return persisted->checkpoint().ok(); })) {
    ++*store_errors;
  }
  StudentResult r;
  r.student_id = index + 1;
  r.policy = policy;
  r.resumed = persisted->resumed();
  classroom_engine::fill_student_result(r, persisted->session(),
                                        persisted->clock(), bot);
  if (!r.unlocks.empty()) {
    const bool committed =
        ev.call("rewards.commit", "rewards", nullptr,
                [&] { return badges.commit(name, r.unlocks).ok(); });
    if (!committed) ++*store_errors;
  }
  ev.end_event(true);
  return r;
}

/// Streams one classroom's cohort exactly as its sim::StreamActor does.
/// `payload_bytes` grows by the bytes of every distinct segment on each
/// client's path (the server sends a segment to a client once).
StreamReplaySummary replay_stream(const GameBundle& bundle,
                                  const sim::DistrictOptions& d,
                                  int classroom, SpanLog& log,
                                  ReplayTimes* times, u64* payload_bytes) {
  const u64 room_seed = classroom_student_seed(d.seed, classroom + 1);
  StreamingConfig config = StreamReplayOptions::classroom_link_defaults();
  config.faults = FaultSchedule::profile(d.fault_profile);
  StreamServer server(bundle.video.get(), config, room_seed);
  const int clients =
      d.stream_clients > 0 ? d.stream_clients : d.students_per_classroom;
  for (int i = 0; i < clients; ++i) {
    Rng rng(classroom_student_seed(room_seed, i + 1));
    std::vector<SegmentId> path =
        random_student_path(bundle.graph, d.stream_max_hops, rng);
    std::set<u32> distinct;
    if (payload_bytes != nullptr) {
      for (SegmentId seg : path) distinct.insert(seg.value);
    }
    for (u32 id : distinct) {
      const ContainerSegment* s = bundle.video->segment_by_id(SegmentId{id});
      if (s == nullptr) continue;
      for (int f = s->first_frame; f < s->first_frame + s->frame_count; ++f) {
        auto data = bundle.video->frame_data(f);
        if (data.ok()) *payload_bytes += data.value().size();
      }
    }
    server.add_client(std::move(path));
  }
  StreamReplaySummary out;
  f64 total_us = 0;
  for (MicroTime t = 0;; t += StreamServer::kStepInterval) {
    if (t >= d.stream_deadline) {
      out.end_time = t;
      break;
    }
    const i64 t0 = now_us();
    const bool done = server.step(t);
    const i64 t1 = now_us();
    log.add("net.step", "net", kNoParent, t0, t1);
    total_us += static_cast<f64>(t1 - t0);
    if (times != nullptr) times->net_step_us.push_back(static_cast<f64>(t1 - t0));
    if (done) {
      out.end_time = t;
      break;
    }
  }
  if (times != nullptr) times->layer_ms["net"] += total_us / 1000.0;
  out.aggregate = server.aggregate();
  out.arq = server.arq_stats();
  out.packets_sent = server.network().stats().packets_sent;
  out.packets_lost = server.network().stats().packets_lost;
  return out;
}

/// Replays every classroom's stream cohort and checks each against the
/// district's own summary for that classroom.
std::vector<StreamReplaySummary> replay_streams(
    const GameBundle& bundle, const sim::DistrictOptions& d,
    const sim::DistrictSummary& district, SpanLog& log, ReplayTimes* times,
    u64* payload_bytes, Report& report) {
  std::vector<StreamReplaySummary> out;
  for (int c = 0; c < d.classrooms; ++c) {
    out.push_back(replay_stream(bundle, d, c, log, times, payload_bytes));
    const auto& original = district.classrooms[static_cast<size_t>(c)].stream;
    report.check(original.has_value() && same_stream(*original, out.back()),
                 "classroom " + std::to_string(c + 1) +
                     " stream aggregate differs from its StreamServer replay");
  }
  return out;
}

/// Reopens a classroom's BadgeStore and checks it holds exactly the unlock
/// logs its students reported.
bool badge_store_matches(const std::string& dir,
                         const ClassroomSummary& summary, std::string* why) {
  auto store = rewards::BadgeStore::open({.directory = dir});
  if (!store.ok()) {
    *why = "cannot reopen " + dir + ": " + store.error().message;
    return false;
  }
  size_t with_unlocks = 0;
  for (const StudentResult& s : summary.students) {
    const auto record = store.value()->student(student_name(s.student_id - 1));
    if (s.unlocks.empty()) {
      if (!record.grants.empty()) {
        *why = "unexpected grants for " + record.student_id;
        return false;
      }
      continue;
    }
    ++with_unlocks;
    if (record.grants.size() != s.unlocks.size()) {
      *why = "grant count differs for student " + std::to_string(s.student_id);
      return false;
    }
    for (size_t i = 0; i < s.unlocks.size(); ++i) {
      const rewards::Unlock& u = s.unlocks[i];
      const rewards::BadgeGrant& g = record.grants[i];
      if (g.rule_id != u.rule_id || g.badge != u.badge ||
          g.points != u.points || g.sim_time != u.sim_time) {
        *why = "grant differs for student " + std::to_string(s.student_id);
        return false;
      }
    }
  }
  if (store.value()->student_count() != with_unlocks) {
    *why = "store holds " + std::to_string(store.value()->student_count()) +
           " students, expected " + std::to_string(with_unlocks);
    return false;
  }
  return true;
}

/// What replaying students found, and what it cost per layer.
struct StudentReplay {
  bool ready = true;  ///< false when the replay stores could not be set up
  size_t replayed = 0;
  int mismatches = 0;
  u64 store_errors = 0;
  /// Program timers during a traced lesson replay: its persist timers
  /// against its own spans show how much checkpoint time open_session
  /// nests.
  ObsDelta obs;
};

/// Replays students and compares them with `district`'s results: a seeded
/// sample on the untraced run, everyone on the traced run (whose replay
/// times break sim.run down). Lesson students replay through their own
/// stores, so only the traced run replays them.
StudentReplay replay_students(const RunConfig& cfg, const Shape& shape,
                              const std::shared_ptr<const GameBundle>& bundle,
                              const sim::DistrictOptions& options,
                              const sim::DistrictSummary& district,
                              SpanLog& log, ReplayTimes& times) {
  StudentReplay out;
  std::vector<std::pair<int, int>> picks;
  if (cfg.trace) {
    for (int c = 0; c < shape.classrooms; ++c) {
      for (int i = 0; i < shape.students; ++i) picks.emplace_back(c, i);
    }
  } else if (!shape.lesson) {
    Rng rng(derive_seed(cfg.seed, 3));
    for (int k = 0; k < kSampledStudents; ++k) {
      picks.emplace_back(static_cast<int>(rng.below(static_cast<u64>(shape.classrooms))),
                         static_cast<int>(rng.below(static_cast<u64>(shape.students))));
    }
  }
  if (picks.empty()) return out;

  const std::string replay_root = cfg.work_dir + "/" + shape.name + "-replay";
  std::vector<std::unique_ptr<SessionStore>> stores;
  std::vector<std::unique_ptr<rewards::BadgeStore>> badges;
  if (shape.lesson) {
    if (!fresh_directory(replay_root)) {
      out.ready = false;
      return out;
    }
    for (int c = 0; c < shape.classrooms; ++c) {
      const std::string room = replay_root + "/classroom-" + std::to_string(c + 1);
      SessionStoreOptions so;
      so.directory = room + "/sessions";
      so.session.reward_rules = options.reward_rules;
      so.session.decode_threads = 0;
      stores.push_back(std::make_unique<SessionStore>(so));
      auto opened = rewards::BadgeStore::open({.directory = room + "/badges"});
      if (!opened.ok()) {
        out.ready = false;
        return out;
      }
      badges.push_back(std::move(opened.value()));
    }
  }
  const bool with_obs = cfg.trace && shape.lesson;
  obs::MetricsSnapshot before;
  if (with_obs) {
    obs::set_enabled(true);
    before = obs::MetricsRegistry::global().scrape();
  }
  for (const auto& [c, i] : picks) {
    const ClassroomOptions room = room_options(options, c);
    const size_t cc = static_cast<size_t>(c);
    std::optional<StudentResult> replayed =
        shape.lesson ? replay_store_student(bundle, room, i, *stores[cc], *badges[cc],
                                            log, &times, &out.store_errors)
                     : replay_student(bundle, room, i, log, &times);
    const StudentResult* original = nullptr;
    for (const StudentResult& s : district.classrooms[cc].summary.students) {
      if (s.student_id == i + 1) original = &s;
    }
    if (!replayed.has_value() || original == nullptr ||
        !same_result(*replayed, *original)) {
      ++out.mismatches;
    }
  }
  out.replayed = picks.size();
  if (with_obs) {
    out.obs = obs_delta(before, obs::MetricsRegistry::global().scrape());
    obs::set_enabled(false);
  }
  badges.clear();
  stores.clear();
  if (shape.lesson) {
    std::error_code ec;
    std::filesystem::remove_all(replay_root, ec);
  }
  return out;
}

struct RepStats {
  f64 wall_ms = 0;
  int students = 0;
  f64 play_seconds = 0;
  bool traced = false;
  u32 run_span = kNoParent;
  ObsDelta obs;  ///< program timers and counters (traced reps)
  f64 net_ms = 0;  ///< stream replay right after the rep (traced lesson)
  f64 peak_kb = 0;  ///< peak resident set during the rep
};

Report run_classroom_workload(const RunConfig& cfg, const Shape& shape) {
  Report report;
  const bool trace = cfg.trace;
  SpanLog setup_spans(trace);
  SpanLog rep_spans(trace);
  SpanLog replay_spans(trace);

  // --- set-up, several times; the last one is used -----------------------
  SetupTimes setup;
  sim::DistrictOptions options;
  const std::string store_root = cfg.work_dir + "/" + shape.name + "-stores";
  auto published = set_up(
      Demo::kClassroomRepair, derive_seed(cfg.seed, 1), kSetups, setup_spans,
      [&]() -> Status {
        if (shape.lesson && !fresh_directory(store_root)) {
          return io_error("cannot create " + store_root);
        }
        options = district_options(shape, derive_seed(cfg.seed, 2));
        return {};
      },
      setup);
  if (!published.ok()) {
    report.check(false, "set-up: " + published.error().message);
    return report;
  }
  const std::shared_ptr<const GameBundle> bundle = published.value().bundle;
  HostSpeed host;
  release_free_heap();
  const bool peak_reset = reset_peak_rss();
  const f64 rss_after_setup_kb = current_rss_kb();
  const int per_rep_students = shape.classrooms * shape.students;
  const int per_rep_clients = shape.lesson ? shape.classrooms * shape.stream_clients : 0;

  // --- timed reps ---------------------------------------------------------
  // Every rep runs the same inputs; a traced run alternates untraced and
  // traced reps so both see the same host conditions.
  std::vector<RepStats> reps;
  std::optional<sim::DistrictSummary> first;
  ReplayTimes times;
  u64 payload_bytes = 0;
  std::vector<StreamReplaySummary> streams;
  ObsDelta traced_obs;
  u64 abandoned = 0;
  u64 not_resumed = 0;
  u64 badge_mismatches = 0;
  u64 frames_skipped = 0;
  u64 unfinished_clients = 0;
  u64 files_per_rep = 0;
  const i64 deadline = now_us() + static_cast<i64>(cfg.seconds * 1e6);
  for (int rep = 0;; ++rep) {
    RepStats stats;
    stats.traced = trace && rep % 2 == 1;
    sim::DistrictOptions rep_options = options;
    std::string rep_dir;
    if (shape.lesson) {
      rep_dir = store_root + "/rep-" + std::to_string(rep);
      rep_options.persist_dir = rep_dir;
      // Write back what earlier reps left (including the deletion of their
      // stores) first, so that every rep starts from the same filesystem
      // state: without this, persist time per rep grew about 3x over a run
      // as unwritten deletions piled up.
      sync_filesystem(store_root);
    }
    obs::MetricsSnapshot before;
    if (stats.traced) {
      obs::set_enabled(true);
      before = obs::MetricsRegistry::global().scrape();
    }
    if (peak_reset) (void)reset_peak_rss();
    const u32 root = stats.traced ? rep_spans.open("rep", "-") : kNoParent;
    const u32 run_span =
        stats.traced ? rep_spans.open("sim.run", "sim", root) : kNoParent;
    const i64 t0 = now_us();
    auto result = sim::run_district(bundle, rep_options);
    const i64 t1 = now_us();
    rep_spans.close(run_span);
    rep_spans.close(root);
    stats.peak_kb = peak_rss_kb();
    if (stats.traced) {
      const ObsDelta delta =
          obs_delta(before, obs::MetricsRegistry::global().scrape());
      obs::set_enabled(false);
      stats.run_span = run_span;
      stats.obs = delta;
      traced_obs.add(delta);
    }
    if (!result.ok()) {
      report.check(false, "run_district: " + result.error().message);
      report.failed += static_cast<u64>(per_rep_students);
      return report;
    }
    sim::DistrictSummary& summary = result.value();
    stats.wall_ms = static_cast<f64>(t1 - t0) / 1000.0;
    stats.students = summary.total_students();
    for (const auto& room : summary.classrooms) {
      for (const StudentResult& s : room.summary.students) {
        stats.play_seconds += s.play_seconds;
      }
    }

    // Output checks (outside the timed call).
    report.attempted += static_cast<u64>(per_rep_students + per_rep_clients);
    abandoned += static_cast<u64>(per_rep_students - stats.students);
    if (!first.has_value()) {
      first = summary;
    } else {
      report.check(summary.fingerprint == first->fingerprint,
                   "district fingerprint of rep " + std::to_string(rep) +
                       " differs from rep 0" +
                       (stats.traced ? " (traced rep)" : ""));
      for (size_t c = 0; c < summary.classrooms.size(); ++c) {
        report.check(c < first->classrooms.size() &&
                         summary.classrooms[c].fingerprint ==
                             first->classrooms[c].fingerprint,
                     "classroom " + std::to_string(c + 1) +
                         " fingerprint differs in rep " + std::to_string(rep));
      }
    }
    if (shape.lesson) {
      for (size_t c = 0; c < summary.classrooms.size(); ++c) {
        const auto& room = summary.classrooms[c];
        for (const StudentResult& s : room.summary.students) {
          if (!s.resumed) ++not_resumed;
        }
        std::string why;
        const bool ok = badge_store_matches(
            rep_dir + "/classroom-" + std::to_string(c + 1) + "/badges",
            room.summary, &why);
        report.check(ok, "classroom " + std::to_string(c + 1) +
                             " badge store: " + why);
        if (!ok) ++badge_mismatches;
        if (room.stream.has_value()) {
          const auto& agg = room.stream->aggregate;
          frames_skipped += static_cast<u64>(agg.frames_skipped);
          unfinished_clients += static_cast<u64>(agg.unfinished_clients);
          if (first.has_value() && c < first->classrooms.size() &&
              first->classrooms[c].stream.has_value()) {
            report.check(same_stream(*room.stream, *first->classrooms[c].stream),
                         "classroom " + std::to_string(c + 1) +
                             " stream summary differs between reps");
          }
        } else {
          report.check(false, "classroom " + std::to_string(c + 1) +
                                  " has no stream summary");
        }
      }
      if (rep == 0) files_per_rep = count_files(rep_dir);
      std::error_code ec;
      std::filesystem::remove_all(rep_dir, ec);
      if (stats.traced) {
        // Replayed next to the rep it breaks down, so both see the same
        // host speed.
        ReplayTimes net;
        streams = replay_streams(*bundle, options, summary, replay_spans, &net,
                                 streams.empty() ? &payload_bytes : nullptr,
                                 report);
        stats.net_ms = net.layer_ms["net"];
        times.net_step_us.insert(times.net_step_us.end(),
                                 net.net_step_us.begin(), net.net_step_us.end());
      }
    }
    reps.push_back(stats);
    host.sample();

    int untraced = 0;
    int traced = 0;
    for (const RepStats& r : reps) (r.traced ? traced : untraced) += 1;
    if (now_us() >= deadline && untraced > 0 && (!trace || traced > 0)) break;
  }

  // --- replays and their checks ------------------------------------------
  if (shape.lesson && streams.empty()) {
    streams = replay_streams(*bundle, options, *first, replay_spans, nullptr,
                             nullptr, report);
  }
  const StudentReplay students = replay_students(cfg, shape, bundle, options,
                                                 *first, replay_spans, times);
  if (!students.ready) {
    report.check(false, "cannot set up the replay stores under " + cfg.work_dir);
    return report;
  }
  const int replay_mismatches = students.mismatches;
  const u64 store_errors = students.store_errors;
  const ObsDelta& replay_delta = students.obs;
  report.check(replay_mismatches == 0,
               std::to_string(replay_mismatches) + " of " +
                   std::to_string(students.replayed) +
                   " replayed students differ from the district's results");
  report.failed += abandoned + not_resumed + badge_mismatches + store_errors +
                   frames_skipped + unfinished_clients;
  if (report.failed > 0) {
    report.note("failed: " + std::to_string(abandoned) + " students abandoned, " +
                std::to_string(not_resumed) + " not resumed, " +
                std::to_string(badge_mismatches) + " badge stores wrong, " +
                std::to_string(store_errors) + " replay store errors, " +
                std::to_string(frames_skipped) + " stream frames skipped, " +
                std::to_string(unfinished_clients) + " clients unfinished");
  }
  if (shape.lesson) {
    std::error_code ec;
    std::filesystem::remove_all(store_root, ec);
  }

  // --- numbers ------------------------------------------------------------
  std::vector<f64> students_per_s;
  std::vector<f64> realtime;
  std::vector<f64> untraced_ms;
  std::vector<f64> traced_ms;
  for (const RepStats& r : reps) {
    (r.traced ? traced_ms : untraced_ms).push_back(r.wall_ms);
    if (r.traced) continue;
    students_per_s.push_back(r.students / (r.wall_ms / 1000.0));
    realtime.push_back(r.play_seconds / (r.wall_ms / 1000.0));
  }
  // Untraced reps only: a traced run keeps its spans in memory.
  std::vector<f64> rep_peaks_kb;
  for (const RepStats& r : reps) {
    if (!r.traced) rep_peaks_kb.push_back(r.peak_kb);
  }
  const f64 peak_kb = median(rep_peaks_kb);
  MetricValues& m = report.metrics;
  const f64 setup_measured_s = median(setup.total_ms) / 1000.0;
  const f64 students_measured = median(students_per_s);
  m["setup_s"] = setup_measured_s / host.slowdown();
  m["peak_rss_mb"] = peak_kb / 1024.0;
  m["students_per_s"] = students_measured * host.slowdown();
  m["realtime_factor"] = median(realtime);

  f64 startup_p95 = 0;
  f64 rebuffer = 0;
  for (const auto& room : first->classrooms) {
    if (!room.stream.has_value()) continue;
    startup_p95 += room.stream->aggregate.p95_startup_ms;
    rebuffer += room.stream->aggregate.mean_rebuffer_ratio;
  }
  if (shape.lesson) {
    startup_p95 /= shape.classrooms;
    rebuffer /= shape.classrooms;
  }

  const u64 nproc = std::thread::hardware_concurrency();
  report.note("workload: " + std::string(shape.name) + "  seed: " +
              std::to_string(cfg.seed) + "  bundle: classroom-repair fnv1a " +
              hex64(published.value().fingerprint) + "  nproc: " +
              std::to_string(nproc) + "  threads: 1 (observed " +
              std::to_string(live_threads()) + ")");
  report.note("shape: " + std::to_string(shape.classrooms) + " classrooms x " +
              std::to_string(shape.students) + " students, " +
              std::to_string(shape.steps) + "-step budget, " +
              std::to_string(shape.shards) + " shards, rewards on, " +
              (shape.lesson ? "persist on, stream " +
                                  std::to_string(shape.stream_clients) +
                                  " clients/classroom under " + shape.fault
                            : std::string("persist off, stream off")));
  report.note("district fingerprint: " + hex64(first->fingerprint));
  report.note("reps: " + std::to_string(untraced_ms.size()) + " untraced, " +
              std::to_string(traced_ms.size()) + " traced; students per rep " +
              std::to_string(per_rep_students));
  report.note(host.note());
  report.note("setup_s: " + fixed(m["setup_s"], 3) + " s at reference speed (" +
              fixed(setup_measured_s, 3) + " s measured, median of " +
              std::to_string(kSetups) + ")");
  report.note("peak_rss_mb: " + fixed(m["peak_rss_mb"], 1) + " MB (" +
              (peak_reset ? "median rep" : "whole process") + ")");
  if (!students_per_s.empty()) {
    report.note("students_per_s: " + fixed(m["students_per_s"], 1) +
                " 1/s at reference speed (" + fixed(students_measured, 1) +
                " 1/s measured, median of " + std::to_string(students_per_s.size()) +
                " reps)");
    report.note("realtime_factor: " + fixed(m["realtime_factor"], 1) +
                " x (simulated play seconds per host second)");
  }
  if (shape.lesson) {
    report.note("stream_startup_p95_ms: " + fixed(startup_p95, 1) +
                " ms (sim time, mean over classrooms)");
    report.note("stream_rebuffer_ratio: " + fixed(rebuffer, 4) +
                " ratio (mean over classrooms)");
  }
  report.note("replayed students: " + std::to_string(students.replayed) +
              (shape.lesson ? ", replayed stream cohorts: " +
                                  std::to_string(streams.size())
                            : std::string()));

  if (!trace) return report;

  // --- per-layer (traced run) ----------------------------------------------
  const f64 n_traced = static_cast<f64>(std::max<size_t>(1, traced_ms.size()));
  // Break each traced sim.run span into layers, from the run's own timers
  // where the program has them: student events (runtime.student_ms, which
  // also holds the persist calls made in them), persist_open_ms and
  // persist_checkpoint_ms (open_session nests a checkpoint when it
  // resumes), rewards_store_commit_ms. The replay, which made the same
  // calls once, supplies the shares those timers cannot split — how much
  // checkpoint time the opens nest, and how much persist work falls in
  // each student's last (untimed) event — and the stream cohorts' time.
  // What remains of sim.run is sim.self.
  auto replayed = [&](const std::map<std::string, f64>& by_layer,
                      const std::string& layer) {
    auto it = by_layer.find(layer);
    return it == by_layer.end() ? 0.0 : it->second;
  };
  f64 replay_direct_checkpoint_ms = 0;
  for (const Span& sp : replay_spans.spans()) {
    if (std::string(sp.name) == "persist.checkpoint") {
      replay_direct_checkpoint_ms += sp.duration_ms();
    }
  }
  const f64 replay_open_ms = replay_delta.sum("persist_open_ms");
  const f64 nested_share =
      replay_open_ms > 0
          ? std::clamp((replay_delta.sum("persist_checkpoint_ms") -
                        replay_direct_checkpoint_ms) / replay_open_ms,
                       0.0, 1.0)
          : 0.0;
  const f64 replay_persist_ms = replayed(times.layer_ms, "persist");
  const f64 last_event_persist_share =
      replay_persist_ms > 0
          ? replayed(times.last_event_ms, "persist") / replay_persist_ms
          : 0.0;
  for (const RepStats& r : reps) {
    if (!r.traced) continue;
    const f64 open_ms = r.obs.sum("persist_open_ms");
    const f64 persist_ms = open_ms * (1.0 - nested_share) +
                           r.obs.sum("persist_checkpoint_ms");
    const f64 runtime_ms = r.obs.sum("classroom_student_wall_ms") -
                           persist_ms * (1.0 - last_event_persist_share) +
                           replayed(times.last_event_ms, "runtime");
    rep_spans.add_virtual_child(r.run_span, "runtime", std::max(0.0, runtime_ms));
    rep_spans.add_virtual_child(r.run_span, "persist", persist_ms);
    rep_spans.add_virtual_child(r.run_span, "rewards",
                                r.obs.sum("rewards_store_commit_ms"));
    rep_spans.add_virtual_child(r.run_span, "net", r.net_ms);
  }
  const Attribution attr = attribute(rep_spans.spans(), rep_spans.virtual_children());
  if (attr.reconciliation_error_ms > reconciliation_slack_ms(attr.total_ms)) {
    report.note("WARNING: replay-estimated layer time exceeds sim.run by " +
                fixed(attr.reconciliation_error_ms, 1) + " ms");
  }
  auto layer = [&](const char* name) {
    auto it = attr.layer_ms.find(name);
    return it == attr.layer_ms.end() ? 0.0 : it->second / n_traced;
  };
  const auto& sched = first->scheduler;
  m["sim.events"] = static_cast<f64>(sched.events);
  m["sim.epochs"] = static_cast<f64>(sched.epochs);
  m["sim.mails"] = static_cast<f64>(sched.mails_delivered);
  m["sim.max_queue_depth"] = static_cast<f64>(sched.max_queue_depth);
  m["sim.self_ms"] = layer("sim");
  m["runtime.student_ms.total"] =
      traced_obs.sum("classroom_student_wall_ms") / n_traced;
  m["runtime.open_us.p50"] = median(times.open_us);
  const Percentile step_p50 = percentile(times.step_us, 50);
  const Percentile step_p99 = percentile(times.step_us, 99);
  m["runtime.step_us.p50"] = step_p50.value;
  m["runtime.step_us.p99"] = step_p99.value;
  // Rep 0: untraced, and no replay has grown the span logs yet.
  m["runtime.kb_per_student"] =
      std::max(0.0, reps.front().peak_kb - rss_after_setup_kb) / per_rep_students;
  m["rewards.events"] =
      static_cast<f64>(traced_obs.counter("rewards_events_total")) / n_traced;
  m["rewards.rule_evals"] =
      static_cast<f64>(traced_obs.counter("rewards_rule_evals_total")) / n_traced;
  m["rewards.unlocks"] =
      static_cast<f64>(traced_obs.counter("rewards_unlocks_total")) / n_traced;
  m["rewards.commit_ms.total"] = traced_obs.sum("rewards_store_commit_ms") / n_traced;
  m["persist.checkpoint_ms.total"] = traced_obs.sum("persist_checkpoint_ms") / n_traced;
  m["persist.open_ms.total"] = traced_obs.sum("persist_open_ms") / n_traced;
  m["persist.journal_append_ms.total"] =
      traced_obs.sum("persist_journal_append_ms") / n_traced;
  m["persist.bytes_written"] =
      static_cast<f64>(traced_obs.counter("persist_snapshot_bytes_total") +
                       traced_obs.counter("persist_journal_bytes_total")) /
      n_traced;
  m["persist.files"] = static_cast<f64>(files_per_rep);
  u64 packets = 0;
  u64 retransmits = 0;
  u64 nacks = 0;
  u64 bytes_sent = 0;
  for (const StreamReplaySummary& s : streams) {
    packets += s.packets_sent;
    retransmits += s.aggregate.retransmits;
    nacks += s.aggregate.nacks_sent;
    bytes_sent += s.aggregate.bytes_sent;
  }
  m["net.step_us.p50"] = percentile(times.net_step_us, 50).value;
  m["net.step_us.p99"] = percentile(times.net_step_us, 99).value;
  f64 net_ms = 0;
  for (const RepStats& r : reps) net_ms += r.net_ms;
  m["net.step_ms.total"] = net_ms / n_traced;
  m["net.packets_sent"] = static_cast<f64>(packets);
  m["net.retransmits"] = static_cast<f64>(retransmits);
  m["net.nacks_sent"] = static_cast<f64>(nacks);
  m["net.goodput_ratio"] =
      bytes_sent > 0 ? static_cast<f64>(payload_bytes) / static_cast<f64>(bytes_sent)
                     : 0.0;
  m["stream_startup_p95_ms"] = startup_p95;
  m["stream_rebuffer_ratio"] = rebuffer;
  m["unattributed_ms"] = attr.unattributed_ms / n_traced;
  const f64 untraced_median = median(untraced_ms);
  m["trace_overhead_pct"] =
      untraced_median > 0
          ? (median(traced_ms) - untraced_median) / untraced_median * 100.0
          : 0.0;
  m["author.build_ms"] = median(setup.build_ms);
  m["author.load_ms"] = median(setup.load_ms);
  add_video_layer_metrics(published.value(), report);

  note_attribution(report, attr, n_traced);
  {
    std::string line = "replay ms (in last student events):";
    for (const auto& [name, ms] : times.layer_ms) {
      line += " " + name + " " + fixed(ms, 1) + " (" +
              fixed(replayed(times.last_event_ms, name), 1) + ")";
    }
    report.note(line + "; in-run student_ms per traced rep " +
                fixed(m["runtime.student_ms.total"], 1));
  }
  report.note("runtime.step_us: p50 " + fixed(step_p50.value, 2) + ", p" +
              fixed(step_p99.reported, 1) + " " + fixed(step_p99.value, 2) +
              " (n=" + std::to_string(step_p99.samples) + ")");
  report.note("layer spans: " +
              std::to_string(rep_spans.spans().size() +
                             replay_spans.spans().size() +
                             setup_spans.spans().size()));
  write_spans(cfg, {&setup_spans, &rep_spans, &replay_spans},
              {"setup", "reps", "replay"});
  return report;
}

}  // namespace

Report run_district_workload(const RunConfig& cfg) {
  return run_classroom_workload(cfg, kDistrictShape);
}

Report run_lesson_workload(const RunConfig& cfg) {
  return run_classroom_workload(cfg, kLessonShape);
}

}  // namespace perfbench
