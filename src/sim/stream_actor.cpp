#include "sim/stream_actor.hpp"

#include "obs/macros.hpp"
#include "obs/metrics.hpp"

namespace vgbl::sim {

namespace {

struct StreamActorMetrics {
  obs::Counter& steps;
  obs::Histogram& step_ms;

  static StreamActorMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static StreamActorMetrics m{
        reg.counter("sim_stream_steps_total",
                    "delivery steps run by stream actors"),
        reg.histogram("sim_stream_step_ms",
                      obs::exponential_buckets(0.001, 2.0, 16),
                      "wall time of one stream actor firing (step + next "
                      "wake)")};
    return m;
  }
};

}  // namespace

MicroTime StreamActor::advance(MicroTime now) {
  if (server_->step(now)) return kNever;
  const MicroTime next = server_->next_step_at(now);
  return next < deadline_ ? next : server_->cut_off(deadline_);
}

void StreamActor::on_event(Context& ctx) {
  if (done_) return;
  const MicroTime now = ctx.now();
  MicroTime next = kNever;
  if (now < deadline_) {
    if (obs::enabled()) {
      StreamActorMetrics& metrics = StreamActorMetrics::get();
      VGBL_COUNT(metrics.steps);
      VGBL_TIMER(metrics.step_ms);
      next = advance(now);
    } else {
      next = advance(now);
    }
  }
  if (now >= deadline_ || next == kNever) {
    end_time_ = now;
    done_ = true;
    return;
  }
  ctx.schedule(next);
}

}  // namespace vgbl::sim
