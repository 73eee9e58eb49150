// Simulated packet network: a shared bottleneck link with serialization
// delay, propagation latency, jitter and random loss. This is the
// interactive-TV delivery substrate the paper's related work situates the
// system in (§2: PC-based systems "integrating network, video encoding and
// transmission technologies") — simulated because this environment has no
// real network (DESIGN.md §2).
//
// Honesty contract: loss is only observable at the receiver. `send` never
// tells the caller whether a packet survived — a lost packet simply never
// comes out of `poll`. Senders that need reliability must run an ARQ loop
// over the `FeedbackLink` reverse channel (see net/streaming.hpp).
//
// Fault injection: a `FaultSchedule` layers deterministic, seedable fault
// scenarios on top of the base iid loss rate — Gilbert–Elliott burst loss,
// hard outage windows (link flap) and mid-run bandwidth degradation — so
// tests, benches and the CLI can select delivery-robustness profiles.
#pragma once

#include <deque>
#include <limits>
#include <string_view>
#include <vector>

#include "util/rng.hpp"
#include "util/sim_clock.hpp"
#include "util/types.hpp"

namespace vgbl {

struct NetworkConfig {
  /// Shared downlink capacity (the school's pipe, shared by all students).
  u64 bandwidth_bps = 20'000'000;
  MicroTime base_latency = milliseconds(20);
  MicroTime jitter = milliseconds(4);
  f64 loss_rate = 0.0;
  u32 mtu_bytes = 1400;
};

/// Injectable fault scenarios, evaluated per packet at serialization start.
/// All randomness comes from the owning link's seeded Rng, so a schedule is
/// bit-identical across reruns of the same seed.
struct FaultSchedule {
  /// Gilbert–Elliott burst loss: a two-state Markov chain advanced once per
  /// packet. The Good state loses packets with `ge_loss_good`, the Bad
  /// state with `ge_loss_bad`; the transition probabilities shape how long
  /// loss bursts last.
  f64 ge_loss_good = 0.0;
  f64 ge_loss_bad = 0.0;
  f64 ge_good_to_bad = 0.0;  // per-packet P(Good -> Bad)
  f64 ge_bad_to_good = 0.0;  // per-packet P(Bad -> Good)

  struct Window {
    MicroTime start = 0;
    MicroTime end = 0;  // half-open: [start, end)
  };
  /// Link flap: hard outage windows. Every packet whose serialization
  /// starts inside a window is lost (the bytes go into a dead link).
  std::vector<Window> outages;

  struct Degradation {
    Window window;
    f64 bandwidth_scale = 1.0;  // effective = bandwidth_bps * scale
  };
  /// Mid-run bandwidth degradation windows (congestion, throttling).
  std::vector<Degradation> degradations;

  [[nodiscard]] bool ge_enabled() const {
    return ge_good_to_bad > 0 || ge_loss_good > 0;
  }
  [[nodiscard]] bool empty() const {
    return !ge_enabled() && outages.empty() && degradations.empty();
  }
  [[nodiscard]] bool in_outage(MicroTime now) const;
  /// Smallest bandwidth scale among active degradation windows (1.0 when
  /// none are active).
  [[nodiscard]] f64 bandwidth_scale(MicroTime now) const;

  /// Named fault profiles for tests/benches/CLI:
  ///   "clean"    — no faults
  ///   "iid2"     — (no schedule faults; pair with loss_rate 0.02)
  ///   "bursty"   — Gilbert–Elliott, ~2% average loss in bursts
  ///   "flap"     — one hard 1.5s outage at t=10s
  ///   "degraded" — bandwidth drops to 35% over t=[15s, 45s)
  ///   "stress"   — bursty + flap + degradation combined
  /// Unknown names return the clean schedule.
  static FaultSchedule profile(std::string_view name);
};

/// Per-link loss decision: hard outages, the Gilbert–Elliott chain, then
/// the base iid rate. Owns the chain state; draws from the caller's Rng so
/// loss stays deterministic per link seed.
class LossProcess {
 public:
  LossProcess(f64 iid_loss, FaultSchedule schedule)
      : iid_(iid_loss), schedule_(std::move(schedule)) {}

  [[nodiscard]] const FaultSchedule& schedule() const { return schedule_; }
  bool lost(MicroTime at, Rng& rng);

 private:
  f64 iid_;
  FaultSchedule schedule_;
  bool ge_bad_ = false;
};

/// Sim time that no event reaches: the arrival of an empty link, the
/// deadline of nothing.
inline constexpr MicroTime kNever = std::numeric_limits<MicroTime>::max();

/// One in-flight transfer unit. Payloads are modelled by size only — the
/// receiver validates against the container, so carrying real bytes would
/// only slow the simulation down.
struct Packet {
  u32 flow = 0;        // client id
  u64 sequence = 0;    // per-flow sequence number (reused on retransmit)
  u32 size = 0;        // bytes on the wire
  u32 segment = 0;     // video segment this chunk belongs to
  int frame_index = -1;  // frame index *within* the segment
  bool frame_complete = false;  // last packet of its frame
  MicroTime sent_at = 0;     // when serialization started (>= the send
                             // call when the link was busy — the gap is
                             // the queueing delay)
  MicroTime arrives_at = 0;

  [[nodiscard]] u32 wire_size() const { return size; }
};

/// Client -> server control message on the reverse link: a cumulative ACK
/// ("I have every sequence <= this") plus the specific gaps the client
/// still wants retransmitted.
struct FeedbackPacket {
  u32 flow = 0;
  u64 cumulative_ack = 0;
  std::vector<u64> nacks;
  MicroTime sent_at = 0;
  MicroTime arrives_at = 0;

  [[nodiscard]] u32 wire_size() const {
    return 16 + 8 * static_cast<u32>(nacks.size());
  }
};

/// One direction of the simulated network, carrying `P` (`Packet` or
/// `FeedbackPacket`). Both directions share the physics: serialization on
/// a shared pipe (shrunk by degradation windows), latency plus jitter, and
/// the loss process, drawing jitter before loss from the link's own seeded
/// Rng. Only the downlink feeds the `net_*` metrics.
template <typename P>
class Link {
 public:
  Link(NetworkConfig config, u64 seed = 7)
      : Link(config, FaultSchedule{}, seed) {}
  Link(NetworkConfig config, FaultSchedule faults, u64 seed = 7)
      : config_(config),
        loss_(config.loss_rate, std::move(faults)),
        rng_(seed) {}

  [[nodiscard]] const NetworkConfig& config() const { return config_; }
  [[nodiscard]] const FaultSchedule& faults() const {
    return loss_.schedule();
  }

  /// True when the link can start serialising another packet at `now`
  /// (i.e. the sender is not blocked by backpressure).
  [[nodiscard]] bool can_send(MicroTime now) const {
    return busy_until_ <= now;
  }
  /// When the packet being serialised leaves the sender.
  [[nodiscard]] MicroTime busy_until() const { return busy_until_; }
  /// When the next surviving packet arrives (kNever when none is in flight).
  [[nodiscard]] MicroTime next_arrival() const {
    return in_flight_.empty() ? kNever : in_flight_.front().arrives_at;
  }

  /// Enqueues a packet at `now`. Serialization occupies the shared link;
  /// the packet arrives after latency+jitter. Returns the arrival time
  /// unconditionally — the sender cannot observe loss. A lost packet still
  /// consumed link time (the bytes were transmitted, just corrupted or
  /// flapped en route); it just never comes out of `poll`.
  MicroTime send(P packet, MicroTime now);

  /// All packets that have arrived by `now`, in arrival order. The buffer
  /// is reused: it stays valid until the next call.
  const std::vector<P>& poll(MicroTime now);

  struct Stats {
    u64 packets_sent = 0;
    u64 packets_lost = 0;
    u64 bytes_sent = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  NetworkConfig config_;
  LossProcess loss_;
  Rng rng_;
  MicroTime busy_until_ = 0;
  std::deque<P> in_flight_;  // sorted by arrival (jitter is bounded)
  std::vector<P> arrived_;   // poll()'s reused output
  Stats stats_;
};

/// The shared downlink carrying video frames to every client.
using SimulatedNetwork = Link<Packet>;
/// The small reverse link carrying client feedback. A flapped link is dead
/// in both directions, so it shares the downlink's fault schedule shape;
/// the ARQ loop has to survive lost and delayed feedback, not just lost
/// data.
using FeedbackLink = Link<FeedbackPacket>;

extern template class Link<Packet>;
extern template class Link<FeedbackPacket>;

}  // namespace vgbl
