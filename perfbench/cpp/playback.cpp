// The `playback` workload: treasure-hunt sessions played one after another
// the way `vgbl play` builds them (default SessionOptions: the player's
// single decode worker). Every frame period of sim time is rendered
// through Compositor::render, and about every 300 ms a seeded input is
// applied, biased toward objects whose rules switch scenario. It is the
// only workload that decodes and composites.
//
// Every presented frame is hashed and compared with the same frame decoded
// independently by VideoReader::read_frame, so a cache or codec change
// that serves a wrong frame fails the run.
#include <algorithm>
#include <set>
#include <thread>

#include "common.hpp"
#include "host_speed.hpp"
#include "event/trigger.hpp"
#include "obs/metrics.hpp"
#include "runtime/compositor.hpp"
#include "runtime/session.hpp"
#include "util/rng.hpp"
#include "video/container.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace vgbl;

namespace {

constexpr int kSetups = 3;
constexpr int kSessionsPerRep = 2;
constexpr MicroTime kSessionLength = seconds(12);
/// Inputs arrive every 200-400 ms of sim time (300 ms on average).
constexpr MicroTime kInputGapMin = milliseconds(200);
constexpr MicroTime kInputGapMax = milliseconds(400);
/// Share of object clicks aimed at objects whose rules switch scenario.
constexpr f64 kSwitchBias = 0.75;

/// Objects with a click rule that switches scenario.
std::set<u32> scenario_switchers(const GameBundle& bundle) {
  std::set<u32> out;
  for (const EventRule& rule : bundle.rules) {
    if (rule.trigger.type != TriggerType::kClick) continue;
    for (const Action& a : rule.actions) {
      if (a.type == ActionType::kSwitchScenario) out.insert(rule.trigger.object.value);
    }
  }
  return out;
}

/// One seeded player input: answers the quiz, advances the dialogue, or
/// clicks a visible object.
void apply_input(GameSession& session, Rng& rng, const std::set<u32>& switchers) {
  if (session.in_quiz()) {
    const auto& quiz = session.ui().quiz();
    const size_t n = quiz.has_value() ? quiz->options.size() : 0;
    (void)session.answer_quiz(n > 0 ? rng.below(n) : 0);
    return;
  }
  if (session.in_dialogue()) {
    const auto& dialogue = session.ui().dialogue();
    if (dialogue.has_value() && !dialogue->choices.empty()) {
      (void)session.choose_dialogue(rng.below(dialogue->choices.size()));
    } else {
      (void)session.advance_dialogue();
    }
    return;
  }
  const std::vector<const InteractiveObject*> visible = session.visible_objects();
  if (visible.empty()) return;
  std::vector<const InteractiveObject*> switching;
  for (const InteractiveObject* o : visible) {
    if (switchers.count(o->id.value) > 0) switching.push_back(o);
  }
  const auto& pool =
      !switching.empty() && rng.chance(kSwitchBias) ? switching : visible;
  const InteractiveObject* target = pool[rng.below(pool.size())];
  const Point center = target->placement.rect.center();
  const Point origin = session.ui().layout().video_area.origin();
  (void)session.click({center.x + origin.x, center.y + origin.y});
}

/// Container index of the frame the session should be presenting now.
int presented_index(const GameSession& session, const VideoContainer& video) {
  const Scenario* scenario = session.current_scenario_info();
  if (scenario == nullptr) return -1;
  const ContainerSegment* seg = video.segment_by_id(scenario->segment);
  if (seg == nullptr) return -1;
  return seg->first_frame + session.current_frame_index();
}

struct RepStats {
  bool traced = false;
  f64 wall_ms = 0;
  f64 check_ms = 0;  ///< frame hashing, excluded from host time
  f64 video_s = 0;
  int sessions = 0;
  f64 peak_kb = 0;  ///< peak resident set during the rep
};

struct Samples {
  std::vector<f64> frame_ms;
  std::vector<f64> switch_ms;
};

struct Checks {
  u64 periods = 0;
  u64 missing = 0;
  u64 mismatched = 0;
  u64 presented = 0;  ///< periods that showed a new frame
  u64 switches = 0;
  u64 inputs = 0;
  int max_threads = 0;
};

/// Plays one session for kSessionLength of sim time (or until game over).
void play_session(const std::shared_ptr<const GameBundle>& bundle,
                  u64 input_seed, const std::set<u32>& switchers,
                  const std::vector<u64>& reference, SpanLog& log, u32 root,
                  Samples& samples, Checks& checks, RepStats& rep) {
  const VideoContainer& video = *bundle->video;
  const int fps = std::max(1, video.fps());
  SimClock clock;
  std::unique_ptr<GameSession> session;
  {
    Scoped span(log, "runtime.open", "runtime", root);
    session = std::make_unique<GameSession>(bundle, &clock);
    (void)session->start();
  }
  Compositor compositor;
  Rng rng(input_seed);
  MicroTime next_input =
      kInputGapMin + static_cast<MicroTime>(rng.below(
                         static_cast<u64>(kInputGapMax - kInputGapMin + 1)));
  const i64 periods = kSessionLength * fps / 1'000'000;
  int last_index = -1;
  i64 k = 0;
  for (; k < periods; ++k) {
    clock.advance_to(k * 1'000'000 / fps);
    const i64 t0 = now_us();
    bool switched = false;
    if (clock.now() >= next_input) {
      const u32 before = session->current_scenario().value;
      {
        Scoped span(log, "runtime.input", "runtime", root);
        apply_input(*session, rng, switchers);
      }
      switched = session->current_scenario().value != before;
      ++checks.inputs;
      next_input = clock.now() + kInputGapMin +
                   static_cast<MicroTime>(rng.below(
                       static_cast<u64>(kInputGapMax - kInputGapMin + 1)));
    }
    const i64 t1 = now_us();
    {
      Scoped span(log, "runtime.tick", "runtime", root);
      session->tick();
    }
    std::optional<Frame> frame;
    {
      Scoped span(log, "media.frame", "media", root);
      frame = session->current_video_frame();
    }
    {
      Scoped span(log, "runtime.compose", "runtime", root);
      const Frame screen = compositor.render(*session);
      (void)screen;
    }
    const i64 t2 = now_us();
    samples.frame_ms.push_back(static_cast<f64>(t2 - t1) / 1000.0);
    if (switched) {
      samples.switch_ms.push_back(static_cast<f64>(t2 - t0) / 1000.0);
      ++checks.switches;
    }

    Scoped check_span(log, "check.frame", "check", root);
    const i64 h0 = now_us();
    ++checks.periods;
    if (!frame.has_value()) {
      ++checks.missing;
    } else {
      const int index = presented_index(*session, video);
      if (index < 0 || static_cast<size_t>(index) >= reference.size() ||
          pixel_hash(frame->data()) != reference[static_cast<size_t>(index)]) {
        ++checks.mismatched;
      }
      if (index != last_index || switched) ++checks.presented;
      last_index = index;
    }
    if (k == 0) checks.max_threads = std::max(checks.max_threads, live_threads());
    rep.check_ms += static_cast<f64>(now_us() - h0) / 1000.0;
    if (session->game_over()) {
      ++k;
      break;
    }
  }
  rep.video_s += static_cast<f64>(k) / fps;
  Scoped span(log, "runtime.close", "runtime", root);
  session.reset();
}

}  // namespace

Report run_playback_workload(const RunConfig& cfg) {
  Report report;
  const bool trace = cfg.trace;
  SpanLog setup_spans(trace);
  SpanLog rep_spans(trace);

  SetupTimes setup;
  std::vector<u64> input_seeds;
  auto published = set_up(
      Demo::kTreasureHunt, derive_seed(cfg.seed, 1), kSetups, setup_spans,
      [&]() -> Status {
        input_seeds.clear();
        for (int i = 0; i < kSessionsPerRep; ++i) {
          input_seeds.push_back(derive_seed(cfg.seed, 10 + static_cast<u64>(i)));
        }
        return {};
      },
      setup);
  if (!published.ok()) {
    report.check(false, "set-up: " + published.error().message);
    return report;
  }
  const std::shared_ptr<const GameBundle> bundle = published.value().bundle;
  // Reference hashes of every frame, decoded independently of the player.
  std::vector<u64> reference;
  {
    VideoReader reader(*bundle->video);
    for (int i = 0; i < bundle->video->frame_count(); ++i) {
      auto frame = reader.read_frame(i);
      if (!frame.ok()) {
        report.check(false, "VideoReader::read_frame(" + std::to_string(i) +
                                "): " + frame.error().message);
        return report;
      }
      reference.push_back(pixel_hash(frame.value().data()));
    }
  }

  HostSpeed host;
  release_free_heap();
  const bool peak_reset = reset_peak_rss();
  const f64 rss_after_setup_kb = current_rss_kb();
  const std::set<u32> switchers = scenario_switchers(*bundle);

  std::vector<RepStats> reps;
  Samples untraced_samples;  // traced reps' call timings come from spans
  Samples discarded;
  Checks checks;
  ObsDelta traced_obs;
  u64 traced_presented = 0;
  // One untimed rep first (its frames are still checked): the heap and
  // the player's caches grow to their working size before anything is
  // measured. Without it the per-rep peak RSS crept up over a run's first
  // reps, by up to 1 MB.
  {
    SpanLog off(false);
    Samples unused;
    RepStats warm;
    for (int i = 0; i < kSessionsPerRep; ++i) {
      play_session(bundle, input_seeds[static_cast<size_t>(i)], switchers,
                   reference, off, kNoParent, unused, checks, warm);
    }
    host.sample();
  }
  const i64 deadline = now_us() + static_cast<i64>(cfg.seconds * 1e6);
  for (int rep = 0;; ++rep) {
    RepStats stats;
    stats.traced = trace && rep % 2 == 1;
    SpanLog untraced_log(false);
    SpanLog& log = stats.traced ? rep_spans : untraced_log;
    obs::MetricsSnapshot before;
    if (stats.traced) {
      obs::set_enabled(true);
      before = obs::MetricsRegistry::global().scrape();
    }
    const u64 presented_before = checks.presented;
    if (peak_reset) (void)reset_peak_rss();
    const u32 root = log.open("rep", "-");
    const i64 t0 = now_us();
    for (int i = 0; i < kSessionsPerRep; ++i) {
      play_session(bundle, input_seeds[static_cast<size_t>(i)], switchers,
                   reference, log, root,
                   stats.traced ? discarded : untraced_samples, checks,
                   stats);
      ++stats.sessions;
    }
    const i64 t1 = now_us();
    log.close(root);
    stats.peak_kb = peak_rss_kb();
    if (stats.traced) {
      traced_obs.add(obs_delta(before, obs::MetricsRegistry::global().scrape()));
      obs::set_enabled(false);
      traced_presented += checks.presented - presented_before;
    }
    stats.wall_ms = static_cast<f64>(t1 - t0) / 1000.0;
    reps.push_back(stats);
    host.sample();

    int untraced = 0;
    int traced = 0;
    for (const RepStats& r : reps) (r.traced ? traced : untraced) += 1;
    if (now_us() >= deadline && untraced > 0 && (!trace || traced > 0)) break;
  }

  report.attempted = checks.periods;
  report.failed = checks.missing + checks.mismatched;
  report.check(checks.missing == 0,
               std::to_string(checks.missing) +
                   " frame periods had no video frame while playing");
  report.check(checks.mismatched == 0,
               std::to_string(checks.mismatched) +
                   " presented frames differ from VideoReader::read_frame");

  std::vector<f64> students_per_s;
  std::vector<f64> realtime;
  std::vector<f64> untraced_ms;
  std::vector<f64> traced_ms;
  for (const RepStats& r : reps) {
    const f64 host_ms = r.wall_ms - r.check_ms;
    (r.traced ? traced_ms : untraced_ms).push_back(host_ms);
    if (r.traced) continue;
    students_per_s.push_back(r.sessions / (host_ms / 1000.0));
    realtime.push_back(r.video_s / (host_ms / 1000.0));
  }
  // Untraced reps only: a traced run keeps its spans in memory.
  std::vector<f64> rep_peaks_kb;
  for (const RepStats& r : reps) {
    if (!r.traced) rep_peaks_kb.push_back(r.peak_kb);
  }
  const f64 peak_kb = median(rep_peaks_kb);
  MetricValues& m = report.metrics;
  const f64 setup_measured_s = median(setup.total_ms) / 1000.0;
  const f64 sessions_measured = median(students_per_s);
  m["setup_s"] = setup_measured_s / host.slowdown();
  m["peak_rss_mb"] = peak_kb / 1024.0;
  m["students_per_s"] = sessions_measured * host.slowdown();
  m["realtime_factor"] = median(realtime);
  const Percentile frame_p50 = percentile(untraced_samples.frame_ms, 50);
  const Percentile frame_p99 = percentile(untraced_samples.frame_ms, 99);
  const Percentile switch_p50 = percentile(untraced_samples.switch_ms, 50);
  const Percentile switch_p95 = percentile(untraced_samples.switch_ms, 95);

  const u64 nproc = std::thread::hardware_concurrency();
  report.note("workload: playback  seed: " + std::to_string(cfg.seed) +
              "  bundle: treasure-hunt fnv1a " + hex64(published.value().fingerprint) +
              "  nproc: " + std::to_string(nproc) +
              "  threads: 2 (observed " + std::to_string(checks.max_threads) +
              ")");
  report.note("shape: " + std::to_string(bundle->video->frame_count()) +
              " frames " + std::to_string(bundle->video->width()) + "x" +
              std::to_string(bundle->video->height()) + " @" +
              std::to_string(bundle->video->fps()) + " fps, " +
              std::to_string(bundle->video->segments().size()) +
              " segments; " + std::to_string(kSessionsPerRep) +
              " sessions of " + std::to_string(kSessionLength / 1'000'000) +
              " s per rep");
  report.note("reps: " + std::to_string(untraced_ms.size()) + " untraced, " +
              std::to_string(traced_ms.size()) + " traced; " +
              std::to_string(checks.periods) + " frame periods checked, " +
              std::to_string(checks.inputs) + " inputs, " +
              std::to_string(checks.switches) + " scenario switches");
  report.note(host.note());
  report.note("setup_s: " + fixed(m["setup_s"], 3) + " s at reference speed (" +
              fixed(setup_measured_s, 3) + " s measured, median of " +
              std::to_string(kSetups) + ")");
  report.note("peak_rss_mb: " + fixed(m["peak_rss_mb"], 1) + " MB (" +
              (peak_reset ? "median rep" : "whole process") + ")");
  report.note("students_per_s: " + fixed(m["students_per_s"], 3) +
              " 1/s at reference speed (sessions per host second; " +
              fixed(sessions_measured, 3) + " 1/s measured, median of " +
              std::to_string(students_per_s.size()) + " reps)");
  report.note("realtime_factor: " + fixed(m["realtime_factor"], 2) +
              " x (video seconds presented per host second)");
  report.note("frame_p50_ms: " + fixed(frame_p50.value, 3) + " ms, frame_p" +
              fixed(frame_p99.reported, 1) + "_ms: " + fixed(frame_p99.value, 3) +
              " ms (n=" + std::to_string(frame_p99.samples) + ")");
  report.note("switch_p50_ms: " + fixed(switch_p50.value, 3) + " ms, switch_p" +
              fixed(switch_p95.reported, 1) + "_ms: " +
              fixed(switch_p95.value, 3) + " ms (n=" +
              std::to_string(switch_p95.samples) + ")");

  if (!trace) return report;

  const f64 n_traced = static_cast<f64>(std::max<size_t>(1, traced_ms.size()));
  const Attribution attr = attribute(rep_spans.spans(), rep_spans.virtual_children());
  report.check(attr.reconciliation_error_ms <= reconciliation_slack_ms(attr.total_ms),
               "layers + unattributed do not reconcile with the traced total");
  std::map<std::string, std::vector<f64>> by_name;
  for (const Span& s : rep_spans.spans()) {
    by_name[s.name].push_back(s.duration_ms());
  }
  auto total_of = [&](const char* name) {
    f64 t = 0;
    for (f64 v : by_name[name]) t += v;
    return t;
  };
  m["frame_p50_ms"] = frame_p50.value;
  m["frame_p99_ms"] = frame_p99.value;
  m["switch_p50_ms"] = switch_p50.value;
  m["switch_p95_ms"] = switch_p95.value;
  m["runtime.open_us.p50"] = median(by_name["runtime.open"]) * 1000.0;
  m["runtime.input_ms.p50"] = percentile(by_name["runtime.input"], 50).value;
  m["runtime.input_ms.p99"] = percentile(by_name["runtime.input"], 99).value;
  m["runtime.compose_ms.p50"] = percentile(by_name["runtime.compose"], 50).value;
  m["runtime.compose_ms.p99"] = percentile(by_name["runtime.compose"], 99).value;
  // Rep 0: untraced, before any traced rep grew the span log.
  m["runtime.kb_per_student"] =
      std::max(0.0, reps.front().peak_kb - rss_after_setup_kb);
  m["media.frame_ms.p50"] = percentile(by_name["media.frame"], 50).value;
  m["media.frame_ms.p99"] = percentile(by_name["media.frame"], 99).value;
  m["media.frame_ms.total"] = total_of("media.frame") / n_traced;
  m["media.gop_decode_ms.total"] = traced_obs.sum("media_gop_decode_ms") / n_traced;
  const u64 decoded = traced_obs.counter("media_frames_decoded_total");
  m["media.frames_decoded"] = static_cast<f64>(decoded) / n_traced;
  m["media.present_ratio"] =
      decoded > 0 ? static_cast<f64>(traced_presented) / static_cast<f64>(decoded)
                  : 0.0;
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
  std::string calls = "call shares:";
  for (const char* name : {"runtime.compose", "media.frame", "runtime.input",
                           "runtime.tick", "runtime.open", "runtime.close",
                           "check.frame"}) {
    calls += std::string(" ") + name + " " +
             fixed(100.0 * total_of(name) / attr.total_ms, 1) + "%";
  }
  report.note(calls);
  report.note("decode worker (concurrent with the main thread): " +
              fixed(m["media.gop_decode_ms.total"] * n_traced / attr.total_ms * 100.0, 1) +
              "% of traced wall time");
  write_spans(cfg, {&setup_spans, &rep_spans}, {"setup", "reps"});
  return report;
}

}  // namespace perfbench
