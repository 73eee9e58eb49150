// Discrete-event simulation core (DESIGN.md §5i): one virtual timeline, a
// sharded event queue, and actors that advance by scheduling their own
// next firing. A simulated student is an event stream, not a thread —
// which is what lets a district workload hold 100k+ concurrent students
// in one process (ROADMAP: district-scale simulation).
//
// Determinism contract. Actors never touch each other: an actor schedules
// only its own next firing, on its own shard. Each shard is therefore an
// independent event queue, and run() drains each one to completion —
// shard after shard on the calling thread, or one shard per task across
// the worker pool. Within a shard, events execute in (time, actor, seq)
// order: `time` is sim time, `actor` the scheduling actor, and `seq` a
// per-shard monotone counter that makes every key unique. An actor's
// event stream depends only on its own state, so it — and every result
// built from it — is bit-identical across shard counts, worker-thread
// counts and drain orders.
#pragma once

#include <memory>
#include <queue>
#include <tuple>
#include <vector>

#include "util/sim_clock.hpp"
#include "util/types.hpp"

namespace vgbl {
class ThreadPool;
}  // namespace vgbl

namespace vgbl::sim {

using ActorId = u32;
inline constexpr ActorId kInvalidActor = ~0u;

/// One scheduled firing, keyed (time, actor, seq) within its shard.
struct Event {
  MicroTime time = 0;
  ActorId actor = kInvalidActor;
  u64 seq = 0;
};

/// Min-heap ordering over the (time, actor, seq) key.
struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    return std::tie(b.time, b.actor, b.seq) < std::tie(a.time, a.actor, a.seq);
  }
};

class Scheduler;

/// What an actor sees while one of its events fires. Scheduling through
/// the context touches only the firing shard's own queue, so no locking
/// exists anywhere on the hot path.
class Context {
 public:
  [[nodiscard]] MicroTime now() const { return event_->time; }
  [[nodiscard]] ActorId self() const { return event_->actor; }

  /// Schedules this actor's next firing at sim time `at` (clamped to now —
  /// the timeline never runs backwards) on its own shard.
  void schedule(MicroTime at);

 private:
  friend class Scheduler;
  Scheduler* scheduler_ = nullptr;
  const Event* event_ = nullptr;
  u32 shard_ = 0;
};

/// An event-driven participant in the timeline. Actors own their state and
/// must touch nothing another actor touches during on_event.
class Actor {
 public:
  virtual ~Actor() = default;
  virtual void on_event(Context& ctx) = 0;
};

struct SchedulerOptions {
  /// Event-queue shards (>= 1). Results are bit-identical across any
  /// shard count; more shards expose more parallelism.
  u32 shards = 1;
  /// Worker threads draining shards concurrently. 0 drains every shard on
  /// the calling thread, in shard order (still the same bits).
  int worker_threads = 0;
};

struct SchedulerStats {
  u64 events = 0;           ///< events executed
  /// Always 0: shards drain independently, with no epochs and no mail.
  /// Kept because perfbench still reports both.
  u64 epochs = 0;
  u64 mails_delivered = 0;
  u64 max_queue_depth = 0;  ///< largest queue one shard held
  MicroTime end_time = 0;   ///< time of the last executed event
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions options);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Registers an actor (not owned; must outlive run()). Round-robin
  /// shard placement unless `shard` pins one.
  ActorId add_actor(Actor* actor);
  ActorId add_actor(Actor* actor, u32 shard);

  [[nodiscard]] u32 shard_of(ActorId actor) const;
  [[nodiscard]] u32 shard_count() const;

  /// Seeds an actor's first firing before run(). (During run, actors
  /// schedule through their Context.)
  void schedule(ActorId actor, MicroTime at);

  /// Drains every shard's queue to completion. Stats and obs gauges
  /// (queue depth, events/sec) are updated once every shard has drained,
  /// on the calling thread.
  SchedulerStats run();

  [[nodiscard]] const SchedulerStats& stats() const { return stats_; }

 private:
  friend class Context;

  struct Shard {
    std::priority_queue<Event, std::vector<Event>, EventAfter> queue;
    u64 next_seq = 0;
    u64 max_depth = 0;
    u64 events_executed = 0;
    /// Sim time of this shard's last executed event (monotone within the
    /// shard; events pop in key order).
    MicroTime last_event_time = 0;
  };

  void push_event(u32 shard, MicroTime at, ActorId actor);
  /// Executes one shard's events in key order until its queue is empty.
  void run_shard(u32 shard);

  std::vector<Shard> shards_;
  struct ActorRec {
    Actor* actor = nullptr;
    u32 shard = 0;
  };
  std::vector<ActorRec> actors_;
  std::unique_ptr<ThreadPool> pool_;
  SchedulerStats stats_;
};

}  // namespace vgbl::sim
