// Unit coverage for the DES core (src/sim/scheduler): the
// (time, actor, seq) ordering contract, timeline clamping, shards drained
// to completion one after another, and — the load-bearing property —
// bit-identical execution traces across shard counts and worker-thread
// counts.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"

namespace vgbl::sim {
namespace {

/// Records every firing into a shared, globally ordered log (safe only
/// without worker threads, where execution is fully serial).
struct GlobalLogActor : Actor {
  std::vector<std::pair<ActorId, MicroTime>>* log = nullptr;
  int repeats = 0;
  MicroTime interval = 0;

  void on_event(Context& ctx) override {
    log->emplace_back(ctx.self(), ctx.now());
    if (repeats-- > 0) ctx.schedule(ctx.now() + interval);
  }
};

/// Records its own firings locally (safe on any shard layout: an actor's
/// state is only ever touched by its own events).
struct LocalLogActor : Actor {
  std::vector<MicroTime> log;
  int repeats = 0;
  MicroTime interval = milliseconds(1);

  void on_event(Context& ctx) override {
    log.push_back(ctx.now());
    if (repeats-- > 0) ctx.schedule(ctx.now() + interval);
  }
};

TEST(SimScheduler, SameTimeFiringsOrderByActorThenSeq) {
  Scheduler scheduler(SchedulerOptions{.shards = 1});
  std::vector<std::pair<ActorId, MicroTime>> log;
  GlobalLogActor a;
  a.log = &log;
  GlobalLogActor b;
  b.log = &log;
  const ActorId ida = scheduler.add_actor(&a);
  const ActorId idb = scheduler.add_actor(&b);
  // Schedule b before a at the same instant: the key orders by actor id,
  // not insertion order.
  scheduler.schedule(idb, milliseconds(5));
  scheduler.schedule(ida, milliseconds(5));
  scheduler.schedule(idb, milliseconds(1));
  scheduler.run();

  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], std::make_pair(idb, milliseconds(1)));
  EXPECT_EQ(log[1], std::make_pair(ida, milliseconds(5)));
  EXPECT_EQ(log[2], std::make_pair(idb, milliseconds(5)));
}

TEST(SimScheduler, ScheduleIntoThePastClampsToNow) {
  struct Rewinder : Actor {
    std::vector<MicroTime> fired;
    void on_event(Context& ctx) override {
      fired.push_back(ctx.now());
      if (fired.size() == 1) {
        ctx.schedule(0);  // in the past: must fire at now, not at 0
      }
    }
  };
  Scheduler scheduler(SchedulerOptions{.shards = 1});
  Rewinder actor;
  const ActorId id = scheduler.add_actor(&actor);
  scheduler.schedule(id, milliseconds(30));
  scheduler.run();
  ASSERT_EQ(actor.fired.size(), 2u);
  EXPECT_EQ(actor.fired[0], milliseconds(30));
  EXPECT_EQ(actor.fired[1], milliseconds(30));
}

TEST(SimScheduler, StatsCountEventsEndTimeAndQueueDepth) {
  Scheduler scheduler(SchedulerOptions{.shards = 2});
  LocalLogActor a;
  a.repeats = 9;
  LocalLogActor b;
  LocalLogActor c;
  const ActorId ida = scheduler.add_actor(&a, 0);
  const ActorId idb = scheduler.add_actor(&b, 1);
  const ActorId idc = scheduler.add_actor(&c, 1);
  scheduler.schedule(ida, 0);
  // Shard 1 holds four pending events at once; shard 0 never more than one.
  for (const ActorId id : {idb, idc}) {
    scheduler.schedule(id, 0);
    scheduler.schedule(id, milliseconds(5));
  }
  const SchedulerStats stats = scheduler.run();
  EXPECT_EQ(stats.events, 14u);
  EXPECT_EQ(stats.end_time, milliseconds(9));
  EXPECT_EQ(stats.end_time, a.log.back());
  EXPECT_EQ(stats.max_queue_depth, 4u);
  EXPECT_EQ(scheduler.stats().events, stats.events);
}

TEST(SimScheduler, ShardsDrainToCompletionInShardOrder) {
  // With no worker threads, shard 0 drains completely before shard 1
  // starts, even though shard 1's only event is earlier than shard 0's
  // last: shards are independent queues, so one shard's actors are done
  // (and their sessions released) before the next shard's begin.
  Scheduler scheduler(SchedulerOptions{.shards = 2});
  std::vector<std::pair<ActorId, MicroTime>> log;
  GlobalLogActor first;
  first.log = &log;
  GlobalLogActor second;
  second.log = &log;
  const ActorId id0 = scheduler.add_actor(&first, 0);
  const ActorId id1 = scheduler.add_actor(&second, 1);
  scheduler.schedule(id0, 0);
  scheduler.schedule(id0, milliseconds(200));
  scheduler.schedule(id1, milliseconds(100));
  scheduler.run();

  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], std::make_pair(id0, MicroTime{0}));
  EXPECT_EQ(log[1], std::make_pair(id0, milliseconds(200)));
  EXPECT_EQ(log[2], std::make_pair(id1, milliseconds(100)));
}

/// The contract bench_district leans on: per-actor event streams are
/// bit-identical across shard counts and worker-thread counts. Each actor
/// picks its next interval from its own history, so a stream that saw
/// another actor's state would diverge.
TEST(SimScheduler, TracesAreInvariantAcrossShardsAndThreads) {
  struct Walker : Actor {
    int id = 0;
    int remaining = 0;
    std::vector<MicroTime> fired;
    void on_event(Context& ctx) override {
      fired.push_back(ctx.now());
      if (remaining-- > 0) {
        const auto step = static_cast<MicroTime>(
            1 + (id * 7 + static_cast<int>(fired.size()) * 3) % 5);
        ctx.schedule(ctx.now() + milliseconds(step));
      }
    }
  };
  constexpr int kActors = 12;

  auto run = [&](u32 shards, int threads) {
    Scheduler scheduler(
        SchedulerOptions{.shards = shards, .worker_threads = threads});
    std::vector<std::unique_ptr<Walker>> actors;
    for (int i = 0; i < kActors; ++i) {
      actors.push_back(std::make_unique<Walker>());
      actors.back()->id = i;
      actors.back()->remaining = 5 + i % 3;
      scheduler.schedule(scheduler.add_actor(actors.back().get()),
                         milliseconds(i % 4));
    }
    scheduler.run();
    std::vector<std::vector<MicroTime>> traces;
    for (const auto& actor : actors) traces.push_back(actor->fired);
    return traces;
  };

  const auto baseline = run(1, 0);
  for (u32 shards : {1u, 2u, 3u, 8u}) {
    for (int threads : {0, 2}) {
      EXPECT_EQ(run(shards, threads), baseline)
          << shards << " shards, " << threads << " threads diverged";
    }
  }
}

}  // namespace
}  // namespace vgbl::sim
