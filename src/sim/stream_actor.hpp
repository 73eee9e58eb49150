// Streaming delivery as a timeline actor (DESIGN.md §5i): a StreamServer's
// delivery loop — SimulatedNetwork arrivals, client feedback, ARQ
// retransmission timers, playback deadlines — re-expressed as an event
// stream, so classroom gameplay and media delivery share one DES timeline
// instead of each owning a private clock loop. The actor fires only at
// the grid points StreamServer::next_step_at names, as StreamServer::run()
// steps, so the two drive modes reach the same outcome; stepping at a grid
// point it did not ask for changes nothing.
#pragma once

#include "net/streaming.hpp"
#include "sim/scheduler.hpp"

namespace vgbl::sim {

class StreamActor : public Actor {
 public:
  /// `server` must outlive the scheduler run. The actor stops at the
  /// first step() where all clients finished, or at `deadline` — exactly
  /// StreamServer::run(deadline)'s exit conditions.
  StreamActor(StreamServer* server, MicroTime deadline)
      : server_(server), deadline_(deadline) {}

  /// One delivery step, then a firing scheduled at the next grid point
  /// where a step can change anything (or at the deadline's cut-off).
  /// With obs enabled, counts each step in `sim_stream_steps_total` and
  /// times it into `sim_stream_step_ms`.
  void on_event(Context& ctx) override;

  [[nodiscard]] bool finished() const { return done_; }
  /// Sim time when the cohort finished (or the deadline cut it off);
  /// meaningful once finished().
  [[nodiscard]] MicroTime end_time() const { return end_time_; }

 private:
  /// Steps the server at `now`; returns when to fire next, or kNever once
  /// every client finished.
  MicroTime advance(MicroTime now);

  StreamServer* server_;
  MicroTime deadline_;
  MicroTime end_time_ = 0;
  bool done_ = false;
};

}  // namespace vgbl::sim
