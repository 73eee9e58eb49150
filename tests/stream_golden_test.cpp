// Golden bit-identity gate for stream delivery: StreamServer's delivery
// step, StreamClient's playback model and the ARQ loop between them. Each
// row streams one cohort over the classroom link and pins an FNV-1a
// fingerprint of everything delivery decides:
//
//   every client's ClientStats fields and finished(), the server's
//   ArqStats, both links' Stats (downlink and feedback uplink),
//   aggregate(), and the end time run() returns.
//
// The base grid is classroom-repair and treasure-hunt × every
// FaultSchedule::profile × 2 seeds × {4, 32} clients with prefetch on.
// Variant rows turn prefetch off, set prefetch_fanout to 0 and 5, and
// shrink max_unacked_per_flow to 8 so that window-full returns interleave
// with idle ones. A last table pins each classroom's StreamReplaySummary
// from one streaming sim::run_district, the StreamActor drive mode.
//
// The rows were captured when step() ran at every 2 ms grid point and
// ticked every client. run() and the actor step only where
// next_step_at() says a step can change something, so the table is
// checked through both drives, and so are six deadline cut-offs. A
// lesson-shaped cohort also pins how few grid points the sparse drive
// steps, and the actor's step counter is checked against its firings.
//
// Regenerating after an *intentional* delivery change:
//   VGBL_GOLDEN_PRINT=1 ./build/tests/stream_golden_test
// prints the replacement tables; paste them below and say why in the
// commit message.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "net/streaming.hpp"
#include "obs/metrics.hpp"
#include "sim/district.hpp"
#include "sim/scheduler.hpp"
#include "sim/stream_actor.hpp"

namespace vgbl {
namespace {

/// FNV-1a over the little-endian bytes of each mixed value.
class Fnv {
 public:
  void mix(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= static_cast<u8>(v >> (i * 8));
      h_ *= 1099511628211ULL;
    }
  }
  void mix(f64 v) { mix(std::bit_cast<u64>(v)); }
  void mix(bool v) { mix(static_cast<u64>(v)); }
  void mix(int v) { mix(static_cast<u64>(static_cast<i64>(v))); }
  void mix(i64 v) { mix(static_cast<u64>(v)); }
  [[nodiscard]] u64 value() const { return h_; }

 private:
  u64 h_ = 14695981039346656037ULL;
};

void mix_aggregate(Fnv& h, const StreamServer::Aggregate& a) {
  h.mix(a.mean_startup_ms);
  h.mix(a.p95_startup_ms);
  h.mix(a.mean_rebuffer_ratio);
  h.mix(a.mean_switch_ms);
  h.mix(a.prefetch_hits);
  h.mix(a.total_rebuffer_events);
  h.mix(a.frames_skipped);
  h.mix(a.unfinished_clients);
  h.mix(a.retransmits);
  h.mix(a.nacks_sent);
  h.mix(a.bytes_sent);
}

void mix_arq(Fnv& h, const StreamServer::ArqStats& s) {
  h.mix(s.retransmits);
  h.mix(s.nacks_received);
  h.mix(s.feedback_received);
  h.mix(s.timeouts);
  h.mix(s.abandoned);
  h.mix(s.queue_overflow);
}

template <typename LinkStats>
void mix_link(Fnv& h, const LinkStats& s) {
  h.mix(s.packets_sent);
  h.mix(s.packets_lost);
  h.mix(s.bytes_sent);
}

void mix_client(Fnv& h, const StreamClient& c) {
  const ClientStats& s = c.stats();
  h.mix(c.finished());
  h.mix(s.startup_delay);
  h.mix(s.started);
  h.mix(s.rebuffer_events);
  h.mix(s.rebuffer_time);
  h.mix(s.play_time);
  h.mix(s.frames_presented);
  h.mix(s.frames_skipped);
  h.mix(s.segments_played);
  h.mix(s.bytes_received);
  h.mix(s.prefetch_hits);
  h.mix(s.segment_switches);
  h.mix(s.switch_delay_total);
  h.mix(s.nacks_sent);
  h.mix(s.feedback_packets);
}

struct Game {
  const char* name;
  std::shared_ptr<const GameBundle> bundle;
};

const std::vector<Game>& games() {
  static const std::vector<Game> all = [] {
    std::vector<Game> out;
    auto repair = publish(build_classroom_repair_project().value());
    auto hunt = publish(build_treasure_hunt_project().value());
    EXPECT_TRUE(repair.ok() && hunt.ok());
    if (repair.ok()) out.push_back({"classroom-repair", repair.value()});
    if (hunt.ok()) out.push_back({"treasure-hunt", hunt.value()});
    return out;
  }();
  return all;
}

/// One delivery configuration: the classroom link defaults with the
/// profile's faults on top (exactly as replay_classroom_stream builds it),
/// then the variant's knob.
struct Variant {
  const char* name;
  void (*apply)(StreamingConfig&);
};

const Variant kBase{"base", [](StreamingConfig&) {}};
const Variant kVariants[] = {
    {"noprefetch", [](StreamingConfig& c) { c.prefetch_enabled = false; }},
    {"fanout0", [](StreamingConfig& c) { c.prefetch_fanout = 0; }},
    {"fanout5", [](StreamingConfig& c) { c.prefetch_fanout = 5; }},
    {"window8", [](StreamingConfig& c) { c.max_unacked_per_flow = 8; }},
};

const char* const kProfiles[] = {"clean", "iid2",     "bursty",
                                 "flap",  "degraded", "stress"};
constexpr u64 kSeeds[] = {99, 7};
constexpr int kClientCounts[] = {4, 32};

/// One cohort over the classroom link with `profile`'s faults, built as
/// replay_classroom_stream builds it, then the variant's knob.
std::unique_ptr<StreamServer> make_cohort(const GameBundle& bundle,
                                          const std::string& profile, u64 seed,
                                          int clients,
                                          const Variant& variant) {
  StreamingConfig config = StreamReplayOptions::classroom_link_defaults();
  config.faults = FaultSchedule::profile(profile);
  if (profile == "iid2") config.network.loss_rate = 0.02;
  variant.apply(config);
  auto server = std::make_unique<StreamServer>(bundle.video.get(), config,
                                               seed);
  for (int i = 0; i < clients; ++i) {
    Rng rng(classroom_student_seed(seed, i + 1));
    server->add_client(random_student_path(bundle.graph, 12, rng));
  }
  return server;
}

u64 fingerprint(const StreamServer& server, MicroTime end) {
  Fnv h;
  for (const auto& c : server.clients()) mix_client(h, *c);
  mix_arq(h, server.arq_stats());
  mix_link(h, server.network().stats());
  mix_link(h, server.feedback_link().stats());
  mix_aggregate(h, server.aggregate());
  h.mix(end);
  return h.value();
}

constexpr MicroTime kDeadline = seconds(600);

/// The drive the rows were captured with: step() at every grid point
/// until every client finished, or cut_off() at the deadline (perfbench's
/// replay steps the same way; its cohorts never reach the deadline).
/// Returns the end time run() would report; `steps` counts the calls.
MicroTime step_every_grid_point(StreamServer& server,
                                MicroTime deadline = kDeadline,
                                u64* steps = nullptr) {
  for (MicroTime t = 0;; t += StreamServer::kStepInterval) {
    if (t >= deadline) return server.cut_off(deadline);
    if (steps != nullptr) ++*steps;
    if (server.step(t)) return t;
  }
}

/// run()'s drive, counting its steps: only the grid points
/// next_step_at() names.
MicroTime step_when_due(StreamServer& server, u64* steps) {
  for (MicroTime now = 0;;) {
    ++*steps;
    if (server.step(now)) return now;
    now = server.next_step_at(now);
    if (now >= kDeadline) return server.cut_off(kDeadline);
  }
}

/// The StreamActor drive: the server alone on a scheduler's timeline.
/// Returns the actor's end time.
MicroTime run_actor(StreamServer& server, MicroTime deadline,
                    sim::SchedulerStats* stats = nullptr) {
  sim::StreamActor actor(&server, deadline);
  sim::Scheduler scheduler(sim::SchedulerOptions{});
  scheduler.schedule(scheduler.add_actor(&actor), 0);
  const sim::SchedulerStats run = scheduler.run();
  if (stats != nullptr) *stats = run;
  EXPECT_TRUE(actor.finished());
  return actor.end_time();
}

enum class Drive { kRun, kActor, kEveryGridPoint };

MicroTime drive_to(StreamServer& server, MicroTime deadline, Drive drive) {
  switch (drive) {
    case Drive::kRun:
      return server.run(deadline);
    case Drive::kActor:
      return run_actor(server, deadline);
    case Drive::kEveryGridPoint:
      return step_every_grid_point(server, deadline);
  }
  return 0;
}

u64 stream_fingerprint(const GameBundle& bundle, const std::string& profile,
                       u64 seed, int clients, const Variant& variant,
                       Drive drive) {
  auto server = make_cohort(bundle, profile, seed, clients, variant);
  const MicroTime end = drive_to(*server, kDeadline, drive);
  return fingerprint(*server, end);
}

std::string row_key(const char* game, const std::string& profile, u64 seed,
                    int clients, const char* variant) {
  return std::string(game) + "/" + profile + "/s" + std::to_string(seed) +
         "/c" + std::to_string(clients) + "/" + variant;
}

/// Every row of the grid, keyed as row_key() spells it.
std::map<std::string, u64> capture_rows(Drive drive) {
  std::map<std::string, u64> rows;
  for (const Game& game : games()) {
    for (const char* profile : kProfiles) {
      for (u64 seed : kSeeds) {
        for (int clients : kClientCounts) {
          rows[row_key(game.name, profile, seed, clients, kBase.name)] =
              stream_fingerprint(*game.bundle, profile, seed, clients, kBase,
                                 drive);
        }
      }
    }
    // Variants: the lesson profile and the harshest one, first seed.
    for (const Variant& variant : kVariants) {
      for (const char* profile : {"degraded", "stress"}) {
        for (int clients : kClientCounts) {
          rows[row_key(game.name, profile, kSeeds[0], clients, variant.name)] =
              stream_fingerprint(*game.bundle, profile, kSeeds[0], clients,
                                 variant, drive);
        }
      }
    }
  }
  return rows;
}

struct GoldenRow {
  const char* key;
  u64 hash;
};

// Captured before the flat per-flow state, the idle-flow marker and the
// cached client segment lookups landed.
constexpr GoldenRow kGolden[] = {
    // clang-format off
    {"classroom-repair/bursty/s7/c32/base", 16467515692416049359ULL},
    {"classroom-repair/bursty/s7/c4/base", 16912976312380121882ULL},
    {"classroom-repair/bursty/s99/c32/base", 3597953088589935538ULL},
    {"classroom-repair/bursty/s99/c4/base", 6485091228379807963ULL},
    {"classroom-repair/clean/s7/c32/base", 17492207994460572963ULL},
    {"classroom-repair/clean/s7/c4/base", 3447661753990713560ULL},
    {"classroom-repair/clean/s99/c32/base", 7611700184478465826ULL},
    {"classroom-repair/clean/s99/c4/base", 12175187618505354973ULL},
    {"classroom-repair/degraded/s7/c32/base", 17492207994460572963ULL},
    {"classroom-repair/degraded/s7/c4/base", 3447661753990713560ULL},
    {"classroom-repair/degraded/s99/c32/base", 7611700184478465826ULL},
    {"classroom-repair/degraded/s99/c32/fanout0", 15460772194263899867ULL},
    {"classroom-repair/degraded/s99/c32/fanout5", 7611700184478465826ULL},
    {"classroom-repair/degraded/s99/c32/noprefetch", 15460772194263899867ULL},
    {"classroom-repair/degraded/s99/c32/window8", 7611700184478465826ULL},
    {"classroom-repair/degraded/s99/c4/base", 12175187618505354973ULL},
    {"classroom-repair/degraded/s99/c4/fanout0", 2476484310569797890ULL},
    {"classroom-repair/degraded/s99/c4/fanout5", 12175187618505354973ULL},
    {"classroom-repair/degraded/s99/c4/noprefetch", 2476484310569797890ULL},
    {"classroom-repair/degraded/s99/c4/window8", 14859157703048245599ULL},
    {"classroom-repair/flap/s7/c32/base", 1001620439190125980ULL},
    {"classroom-repair/flap/s7/c4/base", 3447661753990713560ULL},
    {"classroom-repair/flap/s99/c32/base", 15135333273647884737ULL},
    {"classroom-repair/flap/s99/c4/base", 12175187618505354973ULL},
    {"classroom-repair/iid2/s7/c32/base", 4467327653123942609ULL},
    {"classroom-repair/iid2/s7/c4/base", 16578840690705576600ULL},
    {"classroom-repair/iid2/s99/c32/base", 7161432868999318631ULL},
    {"classroom-repair/iid2/s99/c4/base", 3829517560220863290ULL},
    {"classroom-repair/stress/s7/c32/base", 16558184468897798741ULL},
    {"classroom-repair/stress/s7/c4/base", 16912976312380121882ULL},
    {"classroom-repair/stress/s99/c32/base", 733539234562453444ULL},
    {"classroom-repair/stress/s99/c32/fanout0", 6645198958545807949ULL},
    {"classroom-repair/stress/s99/c32/fanout5", 733539234562453444ULL},
    {"classroom-repair/stress/s99/c32/noprefetch", 6645198958545807949ULL},
    {"classroom-repair/stress/s99/c32/window8", 733539234562453444ULL},
    {"classroom-repair/stress/s99/c4/base", 6485091228379807963ULL},
    {"classroom-repair/stress/s99/c4/fanout0", 9973481707211705682ULL},
    {"classroom-repair/stress/s99/c4/fanout5", 6485091228379807963ULL},
    {"classroom-repair/stress/s99/c4/noprefetch", 9973481707211705682ULL},
    {"classroom-repair/stress/s99/c4/window8", 18333792140197797716ULL},
    {"treasure-hunt/bursty/s7/c32/base", 16428834784069287737ULL},
    {"treasure-hunt/bursty/s7/c4/base", 14504134538309406507ULL},
    {"treasure-hunt/bursty/s99/c32/base", 14608539887669945020ULL},
    {"treasure-hunt/bursty/s99/c4/base", 1973315055903474340ULL},
    {"treasure-hunt/clean/s7/c32/base", 17444123024473939186ULL},
    {"treasure-hunt/clean/s7/c4/base", 12501892645152750688ULL},
    {"treasure-hunt/clean/s99/c32/base", 18211262565075182083ULL},
    {"treasure-hunt/clean/s99/c4/base", 14591778842809349438ULL},
    {"treasure-hunt/degraded/s7/c32/base", 4299464813835934067ULL},
    {"treasure-hunt/degraded/s7/c4/base", 12501892645152750688ULL},
    {"treasure-hunt/degraded/s99/c32/base", 8604427476197315642ULL},
    {"treasure-hunt/degraded/s99/c32/fanout0", 9733388891413216910ULL},
    {"treasure-hunt/degraded/s99/c32/fanout5", 3504895489663842351ULL},
    {"treasure-hunt/degraded/s99/c32/noprefetch", 9733388891413216910ULL},
    {"treasure-hunt/degraded/s99/c32/window8", 6567445864665115773ULL},
    {"treasure-hunt/degraded/s99/c4/base", 12585556189964886149ULL},
    {"treasure-hunt/degraded/s99/c4/fanout0", 12436767856004428123ULL},
    {"treasure-hunt/degraded/s99/c4/fanout5", 13182387934533663679ULL},
    {"treasure-hunt/degraded/s99/c4/noprefetch", 12436767856004428123ULL},
    {"treasure-hunt/degraded/s99/c4/window8", 6003421885680970423ULL},
    {"treasure-hunt/flap/s7/c32/base", 9804279613149681197ULL},
    {"treasure-hunt/flap/s7/c4/base", 12194945027676883990ULL},
    {"treasure-hunt/flap/s99/c32/base", 11405915263285813187ULL},
    {"treasure-hunt/flap/s99/c4/base", 2701767306078461872ULL},
    {"treasure-hunt/iid2/s7/c32/base", 2705970036256351515ULL},
    {"treasure-hunt/iid2/s7/c4/base", 5020989858669190607ULL},
    {"treasure-hunt/iid2/s99/c32/base", 3832273072620980591ULL},
    {"treasure-hunt/iid2/s99/c4/base", 4038106046790673288ULL},
    {"treasure-hunt/stress/s7/c32/base", 4037404980258920887ULL},
    {"treasure-hunt/stress/s7/c4/base", 11839095546600434150ULL},
    {"treasure-hunt/stress/s99/c32/base", 2242658457581272216ULL},
    {"treasure-hunt/stress/s99/c32/fanout0", 16711700389508601096ULL},
    {"treasure-hunt/stress/s99/c32/fanout5", 7669901267326325311ULL},
    {"treasure-hunt/stress/s99/c32/noprefetch", 16711700389508601096ULL},
    {"treasure-hunt/stress/s99/c32/window8", 15261757337481202649ULL},
    {"treasure-hunt/stress/s99/c4/base", 15031151318147757214ULL},
    {"treasure-hunt/stress/s99/c4/fanout0", 11526481096722860336ULL},
    {"treasure-hunt/stress/s99/c4/fanout5", 6312562722878284022ULL},
    {"treasure-hunt/stress/s99/c4/noprefetch", 11526481096722860336ULL},
    {"treasure-hunt/stress/s99/c4/window8", 11877789997836779858ULL},
    // clang-format on
};

/// Cohorts a deadline cuts off mid-play, on and off the 2 ms grid.
struct CutOff {
  size_t game;  // index into games()
  const char* profile;
  u64 seed;
  int clients;
  MicroTime deadline;
};
const CutOff kCutOffs[] = {
    {0, "degraded", 99, 32, seconds(25)},
    {0, "degraded", 99, 32, seconds(25) + 1},
    {0, "degraded", 99, 32, seconds(25) + milliseconds(3)},
    {0, "bursty", 7, 4, seconds(3) + 1},
    {1, "stress", 7, 32, seconds(12) + 345},
    {1, "flap", 99, 4, seconds(11) + milliseconds(1)},
};

// Captured when every step ticked every client.
constexpr GoldenRow kGoldenCutOff[] = {
    // clang-format off
    {"classroom-repair/bursty/s7/c4/t3000001", 6255327694144432779ULL},
    {"classroom-repair/degraded/s99/c32/t25000000", 15003442560120954191ULL},
    {"classroom-repair/degraded/s99/c32/t25000001", 13168071254544808677ULL},
    {"classroom-repair/degraded/s99/c32/t25003000", 12861141148217086149ULL},
    {"treasure-hunt/flap/s99/c4/t11001000", 10122664773137266047ULL},
    {"treasure-hunt/stress/s7/c32/t12000345", 17824561657588971553ULL},
    // clang-format on
};

constexpr GoldenRow kGoldenDistrict[] = {
    // clang-format off
    {"classroom-0", 3667927076998874221ULL},
    {"classroom-1", 13980296588517113909ULL},
    {"classroom-2", 14569761937114514692ULL},
    // clang-format on
};

/// Compares `got` against `table`, or prints `got` as a replacement table
/// under VGBL_GOLDEN_PRINT.
template <size_t N>
void check_table(const std::map<std::string, u64>& got,
                 const GoldenRow (&table)[N], const char* table_name) {
  if (std::getenv("VGBL_GOLDEN_PRINT") != nullptr) {
    std::printf("constexpr GoldenRow %s[] = {\n", table_name);
    for (const auto& [key, hash] : got) {
      std::printf("    {\"%s\", %lluULL},\n", key.c_str(),
                  static_cast<unsigned long long>(hash));
    }
    std::printf("};\n");
    return;
  }
  std::map<std::string, u64> expected;
  for (const GoldenRow& row : table) expected[row.key] = row.hash;
  EXPECT_EQ(expected.size(), got.size())
      << table_name << " and the grid disagree on the row set — regenerate "
      << "with VGBL_GOLDEN_PRINT=1";
  for (const auto& [key, hash] : got) {
    const auto it = expected.find(key);
    ASSERT_NE(it, expected.end())
        << "no golden hash for " << key
        << " — regenerate with VGBL_GOLDEN_PRINT=1";
    EXPECT_EQ(hash, it->second) << "stream delivery changed in " << key;
  }
}

u64 golden_hash(const std::string& key) {
  for (const GoldenRow& row : kGolden) {
    if (key == row.key) return row.hash;
  }
  ADD_FAILURE() << "no golden row " << key;
  return 0;
}

u64 counter_value(const char* name) {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().scrape();
  const obs::CounterSample* c = snap.find_counter(name);
  return c != nullptr ? c->value : 0;
}

u64 histogram_count(const char* name) {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().scrape();
  const obs::HistogramSample* h = snap.find_histogram(name);
  return h != nullptr ? h->count : 0;
}

TEST(StreamGoldenTest, ServerRunsAreStable) {
  ASSERT_EQ(games().size(), 2u);
  check_table(capture_rows(Drive::kRun), kGolden, "kGolden");
}

TEST(StreamGoldenTest, DenseStepsMatchTheGoldenRows) {
  // Stepping grid points next_step_at() skips must change nothing.
  ASSERT_EQ(games().size(), 2u);
  check_table(capture_rows(Drive::kEveryGridPoint), kGolden, "kGolden");
}

TEST(StreamGoldenTest, LessonCohortStepsFewGridPoints) {
  // perfbench `lesson`'s cohort shape: classroom-repair, 32 clients,
  // `degraded`, the classroom link. Its link goes quiet once every
  // segment is delivered, well before playback ends, and from then on
  // only segment ends need a step.
  const Game& game = games().front();
  ASSERT_STREQ(game.name, "classroom-repair");
  const std::string key =
      row_key(game.name, "degraded", kSeeds[0], 32, kBase.name);

  u64 dense_steps = 0;
  auto dense = make_cohort(*game.bundle, "degraded", kSeeds[0], 32, kBase);
  const MicroTime dense_end =
      step_every_grid_point(*dense, kDeadline, &dense_steps);
  u64 sparse_steps = 0;
  auto sparse = make_cohort(*game.bundle, "degraded", kSeeds[0], 32, kBase);
  const MicroTime sparse_end = step_when_due(*sparse, &sparse_steps);

  EXPECT_EQ(sparse_end, dense_end);
  EXPECT_EQ(fingerprint(*sparse, sparse_end), fingerprint(*dense, dense_end));
  EXPECT_EQ(fingerprint(*sparse, sparse_end), golden_hash(key));
  EXPECT_EQ(dense_steps,
            static_cast<u64>(dense_end / StreamServer::kStepInterval) + 1);
  EXPECT_LT(static_cast<f64>(sparse_steps),
            0.4 * static_cast<f64>(dense_steps))
      << sparse_steps << " of " << dense_steps << " grid points stepped";
}

TEST(StreamGoldenTest, DeadlineCutOffsAreStable) {
  // Each drive must count a cut-off client's play time and presented
  // frames up to the last grid point before the deadline.
  for (const Drive drive :
       {Drive::kRun, Drive::kActor, Drive::kEveryGridPoint}) {
    std::map<std::string, u64> got;
    for (const CutOff& cut : kCutOffs) {
      const Game& game = games()[cut.game];
      auto server = make_cohort(*game.bundle, cut.profile, cut.seed,
                                cut.clients, kBase);
      const MicroTime end = drive_to(*server, cut.deadline, drive);
      ASSERT_GT(server->aggregate().unfinished_clients, 0) << cut.deadline;
      got[row_key(game.name, cut.profile, cut.seed, cut.clients, "t") +
          std::to_string(cut.deadline)] = fingerprint(*server, end);
    }
    check_table(got, kGoldenCutOff, "kGoldenCutOff");
  }
}

TEST(StreamActorTest, StepCounterMatchesTheActorsFirings) {
  const Game& game = games().front();
  auto drive = [&](bool obs_on, sim::SchedulerStats* stats) {
    obs::ScopedEnable scope(obs_on);
    auto server = make_cohort(*game.bundle, "degraded", kSeeds[0], 4, kBase);
    const MicroTime end = run_actor(*server, kDeadline, stats);
    return fingerprint(*server, end);
  };
  const u64 golden =
      golden_hash(row_key(game.name, "degraded", kSeeds[0], 4, kBase.name));

  // Idle when obs is off: nothing counted, nothing timed.
  const u64 steps_before = counter_value("sim_stream_steps_total");
  const u64 timed_before = histogram_count("sim_stream_step_ms");
  sim::SchedulerStats off;
  EXPECT_EQ(drive(false, &off), golden);
  EXPECT_EQ(counter_value("sim_stream_steps_total"), steps_before);
  EXPECT_EQ(histogram_count("sim_stream_step_ms"), timed_before);

  // On: one count and one timing per firing (every firing steps, since
  // the cohort finishes before the deadline), and the same outcome.
  sim::SchedulerStats on;
  EXPECT_EQ(drive(true, &on), golden);
  EXPECT_EQ(on.events, off.events);
  EXPECT_EQ(counter_value("sim_stream_steps_total") - steps_before, on.events);
  EXPECT_EQ(histogram_count("sim_stream_step_ms") - timed_before, on.events);
}

TEST(StreamGoldenTest, DistrictStreamSummariesAreStable) {
  const Game& game = games().front();
  sim::DistrictOptions options;
  options.classrooms = 3;
  options.students_per_classroom = 4;
  options.max_steps_per_student = 80;
  options.seed = 2024;
  options.shards = 2;
  options.stream = true;
  options.stream_clients = 12;
  options.fault_profile = "bursty";
  auto summary = sim::run_district(game.bundle, options);
  ASSERT_TRUE(summary.ok()) << summary.error().to_string();

  std::map<std::string, u64> got;
  for (size_t c = 0; c < summary.value().classrooms.size(); ++c) {
    const auto& stream = summary.value().classrooms[c].stream;
    ASSERT_TRUE(stream.has_value()) << "classroom " << c;
    Fnv h;
    mix_aggregate(h, stream->aggregate);
    mix_arq(h, stream->arq);
    h.mix(stream->end_time);
    h.mix(stream->packets_sent);
    h.mix(stream->packets_lost);
    got["classroom-" + std::to_string(c)] = h.value();
  }
  check_table(got, kGoldenDistrict, "kGoldenDistrict");
}

}  // namespace
}  // namespace vgbl
