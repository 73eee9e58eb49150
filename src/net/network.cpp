#include "net/network.hpp"

#include <algorithm>
#include <type_traits>

#include "obs/macros.hpp"
#include "obs/metrics.hpp"

namespace vgbl {

namespace {

struct NetMetrics {
  obs::Counter& packets_sent;
  obs::Counter& packets_lost;
  obs::Counter& bytes_sent;
  obs::Histogram& queueing_delay_ms;

  static NetMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static NetMetrics m{
        reg.counter("net_packets_sent_total",
                    "packets offered to the simulated link"),
        reg.counter("net_packets_lost_total", "packets dropped by loss model"),
        reg.counter("net_bytes_sent_total",
                    "payload bytes offered to the simulated link"),
        reg.histogram("net_queueing_delay_ms",
                      obs::exponential_buckets(0.01, 2.0, 16),
                      "sim time a packet waited for the shared link")};
    return m;
  }
};

}  // namespace

bool FaultSchedule::in_outage(MicroTime now) const {
  for (const Window& w : outages) {
    if (now >= w.start && now < w.end) return true;
  }
  return false;
}

f64 FaultSchedule::bandwidth_scale(MicroTime now) const {
  f64 scale = 1.0;
  for (const Degradation& d : degradations) {
    if (now >= d.window.start && now < d.window.end) {
      scale = std::min(scale, d.bandwidth_scale);
    }
  }
  return scale;
}

FaultSchedule FaultSchedule::profile(std::string_view name) {
  FaultSchedule s;
  const bool bursty = name == "bursty" || name == "stress";
  if (bursty) {
    // Stationary Bad fraction = 0.02 / (0.02 + 0.25) ~= 7.4%, so the
    // average loss is ~2% — but clustered into multi-packet bursts instead
    // of iid drops, which is what breaks naive buffering.
    s.ge_loss_good = 0.001;
    s.ge_loss_bad = 0.25;
    s.ge_good_to_bad = 0.02;
    s.ge_bad_to_good = 0.25;
  }
  if (name == "flap" || name == "stress") {
    s.outages.push_back({seconds(10), seconds(10) + milliseconds(1500)});
  }
  if (name == "degraded" || name == "stress") {
    s.degradations.push_back({{seconds(15), seconds(45)}, 0.35});
  }
  return s;  // "clean", "iid2" and unknown names: no schedule faults
}

bool LossProcess::lost(MicroTime at, Rng& rng) {
  bool lost = schedule_.in_outage(at);
  if (schedule_.ge_enabled()) {
    ge_bad_ = ge_bad_ ? !rng.chance(schedule_.ge_bad_to_good)
                      : rng.chance(schedule_.ge_good_to_bad);
    const f64 p = ge_bad_ ? schedule_.ge_loss_bad : schedule_.ge_loss_good;
    if (p > 0 && rng.chance(p)) lost = true;
  }
  if (iid_ > 0 && rng.chance(iid_)) lost = true;
  return lost;
}

template <typename P>
MicroTime Link<P>::send(P packet, MicroTime now) {
  const MicroTime start = std::max(now, busy_until_);
  const u32 size = packet.wire_size();
  if constexpr (std::is_same_v<P, Packet>) {
    if (obs::enabled()) {
      NetMetrics& metrics = NetMetrics::get();
      VGBL_COUNT(metrics.packets_sent);
      VGBL_COUNT(metrics.bytes_sent, size);
      VGBL_OBSERVE(metrics.queueing_delay_ms, to_millis(start - now));
    }
  }
  // Serialization delay on the shared link: size / effective bandwidth
  // (degradation windows shrink the pipe mid-run).
  const u64 bps = std::max<u64>(
      1, static_cast<u64>(static_cast<f64>(config_.bandwidth_bps) *
                          loss_.schedule().bandwidth_scale(start)));
  const MicroTime ser =
      static_cast<MicroTime>(static_cast<u64>(size) * 8'000'000 / bps);
  busy_until_ = start + ser;

  ++stats_.packets_sent;
  stats_.bytes_sent += size;

  MicroTime jitter = 0;
  if (config_.jitter > 0) {
    jitter = static_cast<MicroTime>(rng_.below(
        static_cast<u64>(config_.jitter)));
  }
  // Stamp the moment serialization actually started, not the send call:
  // when the link was busy the packet queued until `busy_until_`, and
  // `sent_at` is how that queueing delay becomes observable downstream.
  packet.sent_at = start;
  packet.arrives_at = busy_until_ + config_.base_latency + jitter;
  const MicroTime arrives = packet.arrives_at;

  if (loss_.lost(start, rng_)) {
    // The sender cannot see this: the arrival time is still returned, the
    // packet just never reaches `poll`. Only the receiver's silence (and
    // its feedback, if any) reveals the loss.
    ++stats_.packets_lost;
    if constexpr (std::is_same_v<P, Packet>) {
      VGBL_COUNT(NetMetrics::get().packets_lost);
    }
    return arrives;
  }

  // Keep the in-flight queue sorted by arrival; jitter can reorder tails.
  auto it = std::upper_bound(
      in_flight_.begin(), in_flight_.end(), arrives,
      [](MicroTime t, const P& p) { return t < p.arrives_at; });
  in_flight_.insert(it, std::move(packet));
  return arrives;
}

template <typename P>
const std::vector<P>& Link<P>::poll(MicroTime now) {
  arrived_.clear();
  while (!in_flight_.empty() && in_flight_.front().arrives_at <= now) {
    arrived_.push_back(std::move(in_flight_.front()));
    in_flight_.pop_front();
  }
  return arrived_;
}

template class Link<Packet>;
template class Link<FeedbackPacket>;

}  // namespace vgbl
