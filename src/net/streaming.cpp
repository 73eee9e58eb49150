#include "net/streaming.hpp"

#include <algorithm>
#include <cmath>

#include "obs/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vgbl {

namespace {

struct StreamMetrics {
  obs::Counter& frames_sent;
  obs::Counter& frames_skipped;
  obs::Counter& segments_played;
  obs::Counter& segment_switches;
  obs::Counter& prefetch_hits;
  obs::Counter& rebuffer_events;
  obs::Counter& retransmits;
  obs::Counter& nacks_sent;
  obs::Histogram& startup_delay_ms;
  obs::Histogram& segment_fetch_ms;
  obs::Histogram& rtt_ms;

  static StreamMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static StreamMetrics m{
        reg.counter("stream_frames_sent_total",
                    "video frames handed to the simulated link"),
        reg.counter("stream_frames_skipped_total",
                    "frames given up past their retransmission deadline"),
        reg.counter("stream_segments_played_total",
                    "segments played to completion across clients"),
        reg.counter("stream_segment_switches_total",
                    "segment-to-segment transitions after startup"),
        reg.counter("stream_prefetch_hits_total",
                    "segment switches served entirely from buffer"),
        reg.counter("stream_rebuffer_events_total",
                    "times a client's buffer ran dry mid-segment"),
        reg.counter("net_retransmits_total",
                    "packets re-sent by the ARQ layer (NACK or timeout)"),
        reg.counter("net_nack_sent_total",
                    "NACK entries clients put on the feedback uplink"),
        reg.histogram("stream_startup_delay_ms",
                      obs::exponential_buckets(1.0, 2.0, 14),
                      "sim time from first request to first frame"),
        reg.histogram("stream_segment_fetch_ms",
                      obs::exponential_buckets(0.5, 2.0, 14),
                      "sim time from segment request to playable buffer"),
        reg.histogram("net_rtt_ms", obs::exponential_buckets(1.0, 2.0, 14),
                      "ARQ round-trip time (send -> cumulative ack)")};
    return m;
  }
};

}  // namespace

StreamClient::StreamClient(u32 id, const VideoContainer* container,
                           std::vector<SegmentId> path,
                           const StreamingConfig& config)
    : id_(id), container_(container), path_(std::move(path)), config_(config) {
  if (path_.empty()) {
    finished_ = true;
  } else {
    start_segment(0);
  }
}

void StreamClient::advance_prefix(SegmentBuffer& buf) {
  while (!buf.pending.empty() && *buf.pending.begin() == buf.prefix) {
    buf.pending.erase(buf.pending.begin());
    ++buf.prefix;
  }
}

void StreamClient::on_packet(const Packet& packet) {
  stats_.bytes_received += packet.size;

  // ARQ receive state. Retransmissions reuse the original sequence number,
  // so the sequence space directly identifies what is still missing.
  if (packet.sequence == rx_cum_ + 1) {
    ++rx_cum_;
    while (!rx_above_cum_.empty() && *rx_above_cum_.begin() == rx_cum_ + 1) {
      rx_above_cum_.erase(rx_above_cum_.begin());
      ++rx_cum_;
    }
  } else if (packet.sequence > rx_cum_) {
    rx_above_cum_.insert(packet.sequence);
  }
  missing_since_.erase(packet.sequence);
  missing_since_.erase(missing_since_.begin(),
                       missing_since_.upper_bound(rx_cum_));

  if (!packet.frame_complete) return;
  SegmentBuffer& buf = buffers_[packet.segment];
  if (packet.frame_index < buf.prefix ||
      buf.pending.count(packet.frame_index)) {
    return;  // duplicate (or a retransmission that lost the race to a skip)
  }
  if (packet.frame_index == buf.prefix) {
    ++buf.prefix;
    advance_prefix(buf);
  } else {
    buf.pending.insert(packet.frame_index);
  }
}

std::optional<FeedbackPacket> StreamClient::make_feedback(MicroTime now) {
  if (now < next_feedback_at_) return std::nullopt;

  // Register newly observed sequence gaps so NACKs can be aged: a gap must
  // outlive the jitter-reordering window before the client asks for it.
  if (!rx_above_cum_.empty()) {
    u64 expect = rx_cum_ + 1;
    for (u64 seq : rx_above_cum_) {
      for (u64 gap = expect; gap < seq; ++gap) {
        missing_since_.try_emplace(gap, now);
      }
      expect = seq + 1;
    }
  }

  const MicroTime grace =
      config_.nack_grace > 0
          ? config_.nack_grace
          : std::max<MicroTime>(2 * config_.network.jitter, milliseconds(4));
  FeedbackPacket fb;
  fb.flow = id_;
  fb.cumulative_ack = rx_cum_;
  for (const auto& [seq, since] : missing_since_) {
    if (static_cast<int>(fb.nacks.size()) >= config_.max_nacks_per_feedback) {
      break;
    }
    if (now - since >= grace) fb.nacks.push_back(seq);
  }

  // Change-driven: silence when there is nothing new to report keeps the
  // thin uplink from drowning in keepalives.
  if (rx_cum_ == last_fed_back_cum_ && fb.nacks.empty()) return std::nullopt;
  last_fed_back_cum_ = rx_cum_;
  next_feedback_at_ = now + config_.feedback_interval;
  ++stats_.feedback_packets;
  stats_.nacks_sent += static_cast<int>(fb.nacks.size());
  if (!fb.nacks.empty()) {
    VGBL_COUNT(StreamMetrics::get().nacks_sent, fb.nacks.size());
  }
  return fb;
}

MicroTime StreamClient::next_feedback_at() const {
  const bool news = rx_cum_ != last_fed_back_cum_ || !rx_above_cum_.empty();
  return news ? next_feedback_at_ : kNever;
}

void StreamClient::start_segment(MicroTime now) {
  segment_ = container_->segment_by_id(path_[path_pos_]);
  buffer_ = &buffers_[path_[path_pos_].value];
  segment_requested_at_ = now;
  state_ = PlayState::kBuffering;
  state_since_ = now;
  presented_in_segment_ = 0;
  blocked_frame_ = -1;
  blocked_since_ = now;
}

void StreamClient::skip_blocked_frames(SegmentBuffer& buf) {
  // Give up on the whole missing run: everything up to the next frame that
  // actually arrived (or just the head frame when nothing has). The skip
  // is charged to `frames_skipped` when presentation passes the frame.
  const int until =
      buf.pending.empty() ? buf.prefix + 1 : *buf.pending.begin();
  while (buf.prefix < until) {
    buf.skipped.insert(buf.prefix);
    ++buf.prefix;
  }
  advance_prefix(buf);
}

void StreamClient::tick(MicroTime now) {
  if (finished_ || now <= ticked_at_) return;
  ticked_at_ = now;
  play(now);
}

void StreamClient::play(MicroTime now) {
  const ContainerSegment* seg = segment_;
  if (!seg) {
    finished_ = true;
    return;
  }
  SegmentBuffer& buf = *buffer_;
  const MicroTime frame_period = this->frame_period();

  if (state_ == PlayState::kStalled) {
    stats_.rebuffer_time += now - state_since_;
    state_since_ = now;
  }

  // Graceful degradation: while blocked (buffering or stalled), a gap that
  // has pinned the buffer prefix past the skip deadline is given up rather
  // than letting its retransmission deadline blow the playback budget.
  // Progress (the prefix advancing) resets the timer, so a slow-but-alive
  // link never triggers skips.
  if (state_ != PlayState::kPlaying && buf.prefix < seg->frame_count) {
    if (buf.prefix != blocked_frame_) {
      blocked_frame_ = buf.prefix;
      blocked_since_ = now;
    } else if (now - blocked_since_ >= config_.frame_skip_deadline) {
      skip_blocked_frames(buf);
      blocked_frame_ = buf.prefix;
      blocked_since_ = now;
      if (state_ == PlayState::kStalled) {
        // The deadline is blown: resume immediately and present the skip
        // instead of waiting out the resume threshold.
        state_ = PlayState::kPlaying;
        state_since_ = now;
        next_frame_due_ = now;
      }
    }
  }

  switch (state_) {
    case PlayState::kBuffering: {
      const int threshold =
          std::min(config_.startup_buffer_frames, seg->frame_count);
      if (buf.prefix >= threshold) {
        // Buffer primed: start presenting.
        if (obs::enabled()) {
          StreamMetrics& metrics = StreamMetrics::get();
          if (!stats_.started) {
            VGBL_OBSERVE(metrics.startup_delay_ms,
                         to_millis(now - segment_requested_at_));
          } else {
            VGBL_COUNT(metrics.segment_switches);
            if (now == segment_requested_at_) {
              VGBL_COUNT(metrics.prefetch_hits);
            }
          }
          VGBL_OBSERVE(metrics.segment_fetch_ms,
                       to_millis(now - segment_requested_at_));
          // Segment fetch is not a lexical scope — it opens in
          // start_segment() and closes here — so the span is recorded by
          // hand through obs::record_span rather than via VGBL_SPAN.
          obs::record_span("stream.segment_fetch", segment_requested_at_, now);
        }
        if (!stats_.started) {
          stats_.startup_delay = now - segment_requested_at_;
          stats_.started = true;
        } else {
          ++stats_.segment_switches;
          stats_.switch_delay_total += now - segment_requested_at_;
          if (now == segment_requested_at_) {
            ++stats_.prefetch_hits;  // switch served entirely from buffer
          }
        }
        state_ = PlayState::kPlaying;
        state_since_ = now;
        next_frame_due_ = now;
      }
      break;
    }
    case PlayState::kPlaying: {
      while (next_frame_due_ <= now &&
             presented_in_segment_ < seg->frame_count) {
        if (presented_in_segment_ < buf.prefix) {
          if (buf.skipped.count(presented_in_segment_)) {
            ++stats_.frames_skipped;
            VGBL_COUNT(StreamMetrics::get().frames_skipped);
          } else {
            ++stats_.frames_presented;
          }
          ++presented_in_segment_;
          next_frame_due_ += frame_period;
        } else {
          // Buffer ran dry mid-segment — at the missing frame's due time,
          // not at this tick: only the interval up to the last presentable
          // frame counts as play time, the rest is rebuffering.
          const MicroTime stall_start =
              std::max(state_since_, next_frame_due_);
          stats_.play_time += stall_start - state_since_;
          state_ = PlayState::kStalled;
          state_since_ = stall_start;
          ++stats_.rebuffer_events;
          VGBL_COUNT(StreamMetrics::get().rebuffer_events);
          blocked_frame_ = buf.prefix;
          blocked_since_ = stall_start;
          return;
        }
      }
      stats_.play_time += now - state_since_;
      state_since_ = now;
      if (presented_in_segment_ >= seg->frame_count) {
        ++stats_.segments_played;
        VGBL_COUNT(StreamMetrics::get().segments_played);
        ++path_pos_;
        if (path_pos_ >= path_.size()) {
          finished_ = true;
        } else {
          start_segment(now);
          play(now);  // may start playing immediately if prefetched
        }
      }
      break;
    }
    case PlayState::kStalled: {
      if (buf.prefix - presented_in_segment_ >=
          std::min(config_.resume_buffer_frames,
                   seg->frame_count - presented_in_segment_)) {
        state_ = PlayState::kPlaying;
        state_since_ = now;
        next_frame_due_ = now;
      }
      break;
    }
  }
}

MicroTime StreamClient::next_tick_at() const {
  if (finished_) return kNever;
  if (!segment_) return 0;  // the next tick finishes the client
  const int frames = segment_->frame_count;
  if (state_ == PlayState::kPlaying) {
    // Frames before the first missing one present on schedule; the first
    // tick that can stall or end the segment is at this frame's due time.
    const int next = std::min(buffer_->prefix, frames - 1);
    return next_frame_due_ + (next - presented_in_segment_) * frame_period();
  }
  // Buffering or stalled: only an arrival (which ticks the client at once)
  // or the skip deadline moves it on. A full buffer plays at the next tick.
  if (buffer_->prefix >= frames) return 0;
  return blocked_since_ + config_.frame_skip_deadline;
}

StreamServer::StreamServer(const VideoContainer* container,
                           StreamingConfig config, u64 seed)
    : container_(container),
      config_(config),
      network_(config.network, config.faults, seed),
      feedback_(
          NetworkConfig{.bandwidth_bps = config.feedback_bandwidth_bps,
                        .base_latency = config.network.base_latency,
                        .jitter = config.network.jitter,
                        .loss_rate = config.feedback_loss_rate,
                        .mtu_bytes = config.network.mtu_bytes},
          config.faults, [seed] {
            u64 s = seed + 1;
            return splitmix64(s);
          }()) {}

StreamClient& StreamServer::add_client(std::vector<SegmentId> path) {
  const u32 id = static_cast<u32>(clients_.size()) + 1;
  clients_.push_back(
      std::make_unique<StreamClient>(id, container_, std::move(path), config_));
  flows_.emplace_back().send_progress.assign(container_->segments().size(), 0);
  const bool finished = clients_.back()->finished();
  tick_at_.push_back(finished ? kNever : 0);
  feedback_at_.push_back(kNever);
  if (!finished) ++unfinished_;
  return *clients_.back();
}

MicroTime StreamServer::rto(const Flow& flow) const {
  if (!flow.rtt_valid) return config_.initial_rto;
  const auto estimate = static_cast<MicroTime>(flow.srtt + 4.0 * flow.rttvar);
  return std::clamp(estimate, config_.min_rto, config_.max_rto);
}

void StreamServer::on_feedback(const FeedbackPacket& fb, MicroTime now) {
  ++arq_stats_.feedback_received;
  if (fb.flow < 1 || fb.flow > flows_.size()) return;
  Flow& arq = flows_[fb.flow - 1];

  // The cumulative ACK clears the unacked window. RTT sample from the
  // newest acked first-transmission (Karn's rule: a retransmitted packet's
  // ack is ambiguous, so it never feeds the estimator).
  bool have_sample = false;
  MicroTime sample = 0;
  auto it = arq.unacked.begin();
  while (it != arq.unacked.end() && it->first <= fb.cumulative_ack) {
    if (it->second.retries == 0) {
      have_sample = true;
      sample = now - it->second.last_sent;
    }
    it = arq.unacked.erase(it);
  }
  if (have_sample) {
    const f64 s = static_cast<f64>(sample);
    if (!arq.rtt_valid) {
      arq.srtt = s;
      arq.rttvar = s / 2;
      arq.rtt_valid = true;
    } else {
      arq.rttvar = 0.75 * arq.rttvar + 0.25 * std::abs(arq.srtt - s);
      arq.srtt = 0.875 * arq.srtt + 0.125 * s;
    }
    VGBL_OBSERVE(StreamMetrics::get().rtt_ms, to_millis(sample));
  }

  for (u64 seq : fb.nacks) {
    auto entry = arq.unacked.find(seq);
    if (entry == arq.unacked.end()) continue;  // acked or abandoned already
    ++arq_stats_.nacks_received;
    UnackedPacket& u = entry->second;
    // A retransmission may already be in flight; only re-raise once the
    // previous attempt has had half an RTO to land.
    if (u.queued || now - u.last_sent < rto(arq) / 2) continue;
    if (static_cast<int>(retransmit_queue_.size()) >=
        config_.max_retransmit_queue) {
      ++arq_stats_.queue_overflow;
      continue;
    }
    u.queued = true;
    retransmit_queue_.emplace_back(fb.flow, seq);
  }
}

void StreamServer::check_timeouts(MicroTime now) {
  timeout_floor_ = kNever;
  for (size_t i = 0; i < flows_.size(); ++i) {
    Flow& arq = flows_[i];
    if (arq.unacked.empty()) continue;
    if (now < arq.next_timeout_at) {
      timeout_floor_ = std::min(timeout_floor_, arq.next_timeout_at);
      continue;
    }
    const MicroTime base = rto(arq);
    MicroTime next = kNever;
    auto it = arq.unacked.begin();
    while (it != arq.unacked.end()) {
      UnackedPacket& u = it->second;
      if (u.queued) {
        ++it;  // awaiting resend; its deadline restarts then
        continue;
      }
      const MicroTime backoff = std::min(
          static_cast<MicroTime>(base << std::min(u.retries, 6)),
          config_.max_rto);
      const MicroTime deadline = u.last_sent + backoff;
      if (now < deadline) {
        next = std::min(next, deadline);
        ++it;
        continue;
      }
      ++arq_stats_.timeouts;
      if (u.retries >= config_.max_retries) {
        // Unrecoverable within budget: the client's frame-skip path takes
        // over from here.
        ++arq_stats_.abandoned;
        it = arq.unacked.erase(it);
        continue;
      }
      if (static_cast<int>(retransmit_queue_.size()) >=
          config_.max_retransmit_queue) {
        ++arq_stats_.queue_overflow;
        next = std::min(next, now + config_.min_rto);  // retry the enqueue
        ++it;
        continue;
      }
      u.queued = true;
      retransmit_queue_.emplace_back(static_cast<u32>(i + 1), it->first);
      ++it;
    }
    arq.next_timeout_at = next;
    timeout_floor_ = std::min(timeout_floor_, next);
  }
}

bool StreamServer::send_one_retransmit(MicroTime now) {
  while (!retransmit_queue_.empty()) {
    const auto [flow, seq] = retransmit_queue_.front();
    retransmit_queue_.pop_front();
    Flow& arq = flows_[flow - 1];
    auto it = arq.unacked.find(seq);
    if (it == arq.unacked.end()) continue;  // acked in the meantime
    UnackedPacket& u = it->second;
    u.queued = false;
    network_.send(u.packet, now);
    u.last_sent = now;
    ++u.retries;
    ++arq_stats_.retransmits;
    VGBL_COUNT(StreamMetrics::get().retransmits);
    const MicroTime backoff = std::min(
        static_cast<MicroTime>(rto(arq) << std::min(u.retries, 6)),
        config_.max_rto);
    arq.next_timeout_at = std::min(arq.next_timeout_at, now + backoff);
    timeout_floor_ = std::min(timeout_floor_, arq.next_timeout_at);
    return true;
  }
  return false;
}

bool StreamServer::can_pump(size_t index) const {
  const StreamClient& client = *clients_[index];
  const Flow& flow = flows_[index];
  // A finished client needs nothing. ARQ flow control: a full window means
  // the link (or the client) is not keeping up — pushing more new frames
  // would only grow server state. Idle marker: what a flow can send is
  // fixed by its path position and its send progress, and progress moves
  // only when this flow sends, so a flow that found nothing at this
  // position finds nothing again until the client moves on.
  return !client.finished() &&
         static_cast<int>(flow.unacked.size()) <
             config_.max_unacked_per_flow &&
         flow.idle_at != client.path_position();
}

bool StreamServer::pump_client(size_t index, MicroTime now) {
  const StreamClient& client = *clients_[index];
  Flow& flow = flows_[index];
  const size_t pos = client.path_position();

  // Service order: current segment first, then the prefetch candidates
  // that follow it on the path.
  const std::vector<SegmentId>& path = client.path();
  const size_t fanout =
      config_.prefetch_enabled
          ? static_cast<size_t>(std::max(0, config_.prefetch_fanout))
          : 0;
  const size_t end = std::min(path.size(), pos + 1 + fanout);
  for (size_t i = pos; i < end; ++i) {
    const ContainerSegment* seg = container_->segment_by_id(path[i]);
    if (!seg) continue;
    int& progress = flow.send_progress[static_cast<size_t>(
        seg - container_->segments().data())];
    if (progress >= seg->frame_count) continue;

    auto data = container_->frame_data(seg->first_frame + progress);
    if (!data.ok()) continue;
    Packet p;
    p.flow = client.id();
    p.sequence = ++flow.sequence;
    p.segment = path[i].value;
    p.frame_index = progress;
    p.frame_complete = true;
    p.size = static_cast<u32>(data.value().size());
    network_.send(p, now);
    // The sender cannot see loss: progress always advances, and recovery
    // is the ARQ loop's job (NACK or timeout -> retransmit).
    ++progress;
    VGBL_COUNT(StreamMetrics::get().frames_sent);
    UnackedPacket u;
    u.packet = p;
    u.last_sent = now;
    flow.next_timeout_at = std::min(flow.next_timeout_at, now + rto(flow));
    timeout_floor_ = std::min(timeout_floor_, flow.next_timeout_at);
    flow.unacked.emplace(p.sequence, u);
    return true;
  }
  flow.idle_at = pos;
  return false;
}

void StreamServer::tick_client(size_t index, MicroTime now) {
  StreamClient& client = *clients_[index];
  client.tick(now);
  tick_at_[index] = client.next_tick_at();
  if (client.finished()) --unfinished_;
}

bool StreamServer::step(MicroTime now) {
  // Deliver arrived packets; their clients tick at this step.
  for (const Packet& p : network_.poll(now)) {
    if (p.flow < 1 || p.flow > clients_.size()) continue;
    StreamClient& client = *clients_[p.flow - 1];
    client.on_packet(p);
    if (!client.finished()) tick_at_[p.flow - 1] = now;
    feedback_at_[p.flow - 1] = client.next_feedback_at();
  }
  // Process client feedback and fire retransmission timeouts.
  for (const FeedbackPacket& fb : feedback_.poll(now)) {
    on_feedback(fb, now);
  }
  if (now >= timeout_floor_) check_timeouts(now);

  // Advance the playback of the clients that are due. A skipped tick
  // would only have moved the play-time sums along.
  for (size_t i = 0; i < clients_.size(); ++i) {
    if (tick_at_[i] <= now) tick_client(i, now);
  }
  if (unfinished_ == 0) return true;

  // Clients put feedback on the uplink — self-paced, change-driven, and
  // subject to the thin reverse link's backpressure. The cursor walks
  // every client as before; a client with nothing due is passed over,
  // because its make_feedback would return nothing and change nothing.
  const size_t n = clients_.size();
  for (size_t k = 0; k < n && feedback_.can_send(now); ++k) {
    const size_t i = take_turn(fb_rr_);
    if (feedback_at_[i] > now) continue;
    StreamClient& client = *clients_[i];
    if (auto fb = client.make_feedback(now)) {
      feedback_.send(std::move(*fb), now);
    }
    feedback_at_[i] = client.next_feedback_at();
  }

  // Fill the link: pending retransmissions first (they are blocking
  // someone's playback right now), then new frames round-robin while
  // capacity remains at this instant.
  while (network_.can_send(now) && send_one_retransmit(now)) {
  }
  size_t idle_count = 0;
  while (network_.can_send(now) && idle_count < n) {
    const size_t i = take_turn(rr_);
    if (can_pump(i) && pump_client(i, now)) {
      idle_count = 0;
    } else {
      ++idle_count;
    }
  }
  return false;
}

MicroTime StreamServer::next_step_at(MicroTime now) const {
  // No wake comes before the next grid point; while packets are in flight
  // (most steps of a busy link) the search ends there.
  const MicroTime soonest = (now / kStepInterval + 1) * kStepInterval;
  MicroTime at = std::min(network_.next_arrival(), feedback_.next_arrival());
  if (at <= soonest) return soonest;
  MicroTime feedback = kNever;
  // At the end of a step the link is free only when nothing can use it.
  bool link_work = !retransmit_queue_.empty();
  for (size_t i = 0; i < clients_.size(); ++i) {
    at = std::min(at, tick_at_[i]);
    feedback = std::min(feedback, feedback_at_[i]);
    const Flow& flow = flows_[i];
    if (!flow.unacked.empty()) at = std::min(at, flow.next_timeout_at);
    link_work = link_work || can_pump(i);
  }
  if (feedback != kNever) {
    at = std::min(at, std::max(feedback, feedback_.busy_until()));
  }
  if (link_work) at = std::min(at, network_.busy_until());
  if (at == kNever) return kNever;
  return std::max(soonest,
                  (at + kStepInterval - 1) / kStepInterval * kStepInterval);
}

MicroTime StreamServer::cut_off(MicroTime deadline) {
  const MicroTime end =
      (deadline + kStepInterval - 1) / kStepInterval * kStepInterval;
  for (size_t i = 0; i < clients_.size(); ++i) {
    if (tick_at_[i] != kNever) tick_client(i, end - kStepInterval);
  }
  return end;
}

MicroTime StreamServer::run(MicroTime deadline) {
  if (deadline <= 0) return 0;
  MicroTime now = 0;
  while (!step(now)) {
    now = next_step_at(now);
    if (now >= deadline) return cut_off(deadline);
  }
  return now;
}

StreamServer::Aggregate StreamServer::aggregate() const {
  Aggregate agg;
  if (clients_.empty()) return agg;
  // Startup percentiles cover only clients that actually presented a
  // frame; averaging a zero for clients the deadline cut off would drag
  // the startup numbers down exactly when the network is worst.
  std::vector<f64> startups;
  for (const auto& c : clients_) {
    const ClientStats& s = c->stats();
    if (s.started) startups.push_back(to_millis(s.startup_delay));
    if (!c->finished()) ++agg.unfinished_clients;
    agg.mean_rebuffer_ratio += s.rebuffer_ratio();
    agg.total_rebuffer_events += s.rebuffer_events;
    agg.mean_switch_ms += s.mean_switch_ms();
    agg.prefetch_hits += s.prefetch_hits;
    agg.frames_skipped += s.frames_skipped;
    agg.nacks_sent += static_cast<u64>(s.nacks_sent);
  }
  agg.mean_rebuffer_ratio /= static_cast<f64>(clients_.size());
  agg.mean_switch_ms /= static_cast<f64>(clients_.size());
  if (!startups.empty()) {
    for (f64 s : startups) agg.mean_startup_ms += s;
    agg.mean_startup_ms /= static_cast<f64>(startups.size());
    std::sort(startups.begin(), startups.end());
    agg.p95_startup_ms =
        startups[static_cast<size_t>(std::ceil(0.95 * startups.size())) - 1];
  }
  agg.retransmits = arq_stats_.retransmits;
  agg.bytes_sent = network_.stats().bytes_sent;
  return agg;
}

std::vector<SegmentId> random_student_path(const ScenarioGraph& graph,
                                           int max_hops, Rng& rng) {
  std::vector<SegmentId> path;
  ScenarioId current = graph.start();
  for (int hop = 0; hop < max_hops; ++hop) {
    const Scenario* s = graph.find(current);
    if (!s) break;
    path.push_back(s->segment);
    if (s->terminal) break;
    const auto edges = graph.out_edges(current);
    if (edges.empty()) break;
    // Weighted pick.
    f64 total = 0;
    for (const auto* e : edges) total += std::max(0.01, e->weight);
    f64 pick = rng.uniform() * total;
    const ScenarioTransition* chosen = edges.back();
    for (const auto* e : edges) {
      pick -= std::max(0.01, e->weight);
      if (pick <= 0) {
        chosen = e;
        break;
      }
    }
    current = chosen->to;
  }
  return path;
}

}  // namespace vgbl
