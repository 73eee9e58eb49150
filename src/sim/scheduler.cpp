#include "sim/scheduler.hpp"

#include <algorithm>

#include "concurrency/thread_pool.hpp"
#include "obs/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/wall_clock.hpp"

namespace vgbl::sim {

namespace {

/// Scheduler metrics. Every update happens on the calling thread after
/// every shard has drained, never inside a shard loop, so instrumentation
/// cannot perturb event execution.
struct SimMetrics {
  obs::Counter& events;
  obs::Gauge& queue_depth;
  obs::Gauge& events_per_sec;

  static SimMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static SimMetrics m{
        reg.counter("sim_events_total", "DES events executed"),
        reg.gauge("sim_queue_depth",
                  "largest event queue one shard held in the latest "
                  "scheduler run"),
        reg.gauge("sim_events_per_sec",
                  "event throughput of the latest scheduler run")};
    return m;
  }
};

}  // namespace

Scheduler::Scheduler(SchedulerOptions options) {
  const u32 shards = std::max(1u, options.shards);
  shards_.resize(shards);
  if (options.worker_threads > 0 && shards > 1) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<unsigned>(options.worker_threads));
  }
}

Scheduler::~Scheduler() = default;

ActorId Scheduler::add_actor(Actor* actor) {
  return add_actor(actor,
                   static_cast<u32>(actors_.size() % shards_.size()));
}

ActorId Scheduler::add_actor(Actor* actor, u32 shard) {
  actors_.push_back(
      ActorRec{actor, shard % static_cast<u32>(shards_.size())});
  return static_cast<ActorId>(actors_.size() - 1);
}

u32 Scheduler::shard_of(ActorId actor) const {
  return actors_[actor].shard;
}

u32 Scheduler::shard_count() const {
  return static_cast<u32>(shards_.size());
}

void Scheduler::push_event(u32 shard, MicroTime at, ActorId actor) {
  Shard& s = shards_[shard];
  s.queue.push(Event{at, actor, s.next_seq++});
  s.max_depth = std::max<u64>(s.max_depth, s.queue.size());
}

void Scheduler::schedule(ActorId actor, MicroTime at) {
  push_event(actors_[actor].shard, at, actor);
}

void Context::schedule(MicroTime at) {
  scheduler_->push_event(shard_, std::max(at, event_->time), event_->actor);
}

void Scheduler::run_shard(u32 shard_index) {
  // Only one thread drains a shard: the queue and every actor mapped here
  // are shard-private by construction, so the loop is lock-free and the
  // pop order is the deterministic (time, actor, seq) key order.
  Shard& shard = shards_[shard_index];
  Context ctx;
  ctx.scheduler_ = this;
  ctx.shard_ = shard_index;
  while (!shard.queue.empty()) {
    const Event event = shard.queue.top();
    shard.queue.pop();
    ctx.event_ = &event;
    actors_[event.actor].actor->on_event(ctx);
    ++shard.events_executed;
    shard.last_event_time = event.time;
  }
}

SchedulerStats Scheduler::run() {
  const i64 t0_us = obs::wall_now_us();
  // The run span rides a clock mirroring the timeline: it is advanced to
  // the last event's time once the shards drain, so the trace shows how
  // much sim time the run covered.
  SimClock timeline;
  VGBL_SPAN("sim.run", &timeline);

  const i64 shard_count = static_cast<i64>(shards_.size());
  if (pool_ != nullptr) {
    pool_->parallel_for(
        0, shard_count, [&](i64 i) { run_shard(static_cast<u32>(i)); },
        /*grain=*/1);
  } else {
    for (i64 i = 0; i < shard_count; ++i) run_shard(static_cast<u32>(i));
  }

  u64 events = 0;
  for (const Shard& shard : shards_) {
    events += shard.events_executed;
    stats_.end_time = std::max(stats_.end_time, shard.last_event_time);
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, shard.max_depth);
  }
  SimMetrics& metrics = SimMetrics::get();
  VGBL_COUNT(metrics.events, events - stats_.events);
  stats_.events = events;
  VGBL_GAUGE_SET(metrics.queue_depth, static_cast<f64>(stats_.max_queue_depth));
  if (obs::enabled()) {
    const f64 elapsed = static_cast<f64>(obs::wall_now_us() - t0_us) / 1e6;
    VGBL_GAUGE_SET(metrics.events_per_sec,
                   elapsed > 0 ? static_cast<f64>(stats_.events) / elapsed
                               : 0);
    if (timeline.now() < stats_.end_time) timeline.advance_to(stats_.end_time);
  }
  return stats_;
}

}  // namespace vgbl::sim
