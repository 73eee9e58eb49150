// Scenario-aware video streaming: a server pushing segment frames to many
// student clients over the simulated network, with optional branch-aware
// prefetch (the server pre-pushes the segments reachable from the client's
// current scenario, ordered by transition weight). Evaluated in E9.
//
// Reliable delivery (DESIGN.md §5e): the sender cannot observe loss, so
// the server runs per-flow ARQ driven by client feedback on a small
// reverse link — cumulative ACKs clear the unacked window, NACKs trigger
// fast retransmits, and an RTT-derived timeout with exponential backoff
// catches the cases feedback loss hides. Retransmissions sit in a bounded
// queue that gets link priority over new frames and prefetch. When a frame
// cannot be recovered inside the playback budget the client skips it
// (counted in `frames_skipped`) instead of stalling forever.
#pragma once

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "net/network.hpp"
#include "scenario/scenario_graph.hpp"
#include "video/container.hpp"

namespace vgbl {

struct StreamingConfig {
  NetworkConfig network;
  /// Injectable downlink fault scenario (see FaultSchedule::profile). The
  /// feedback link shares the outage/degradation windows — a flapped link
  /// is dead in both directions.
  FaultSchedule faults;

  /// Client starts playback once this many frames are buffered.
  int startup_buffer_frames = 8;
  /// After a stall, resume once this many frames are buffered.
  int resume_buffer_frames = 6;
  /// Branch-aware prefetch of likely next segments (the ablation knob).
  bool prefetch_enabled = true;
  /// Cap on prefetch: only this many candidate segments per scenario.
  int prefetch_fanout = 2;

  // --- feedback uplink (client -> server) ---
  /// Reverse-link capacity. Small by design: feedback competes for a thin
  /// shared uplink, so ACK/NACK delivery is neither free nor instant.
  u64 feedback_bandwidth_bps = 2'000'000;
  /// Feedback loss rate (the ARQ loop must survive lost ACKs/NACKs too).
  f64 feedback_loss_rate = 0.0;
  /// Minimum spacing between feedback packets per client; feedback is also
  /// change-driven (nothing new to report -> nothing sent).
  MicroTime feedback_interval = milliseconds(15);
  /// A gap must stay missing this long before it is NACKed, so jitter
  /// reordering does not trigger spurious retransmits. Defaulted from
  /// jitter when 0.
  MicroTime nack_grace = 0;
  /// NACK entries per feedback packet (keeps the uplink packet small).
  int max_nacks_per_feedback = 32;

  // --- server ARQ ---
  /// Pending-retransmission queue bound, across all flows. When full, new
  /// retransmit requests are dropped (a later NACK or timeout re-raises
  /// them) — the queue can never grow without bound during an outage.
  int max_retransmit_queue = 256;
  /// Retransmissions per packet before the server abandons it (the client
  /// recovers via frame skip).
  int max_retries = 10;
  /// Per-flow cap on sent-but-unacked packets; new frames wait (ARQ flow
  /// control) when the window is full, so server state stays bounded even
  /// when the link is dead.
  int max_unacked_per_flow = 256;
  MicroTime min_rto = milliseconds(40);
  MicroTime max_rto = seconds(3);
  /// Retransmission timeout before the first RTT sample arrives.
  MicroTime initial_rto = milliseconds(250);

  // --- graceful degradation ---
  /// When the client has been blocked on the same missing frame this long,
  /// it gives the frame up and skips it rather than stalling forever.
  MicroTime frame_skip_deadline = milliseconds(400);
};

/// Per-client playback statistics.
struct ClientStats {
  MicroTime startup_delay = 0;     // request -> first frame presented
  bool started = false;            // presented at least one frame
  int rebuffer_events = 0;
  MicroTime rebuffer_time = 0;     // total stalled time
  MicroTime play_time = 0;         // time spent actually presenting
  int frames_presented = 0;
  int frames_skipped = 0;  // unrecoverable frames skipped to keep playing
  int segments_played = 0;
  u64 bytes_received = 0;
  int prefetch_hits = 0;   // segment switches served entirely from buffer
  int segment_switches = 0;        // switches after the first segment
  MicroTime switch_delay_total = 0;  // request -> playing, summed over switches
  int nacks_sent = 0;              // NACK entries put on the uplink
  int feedback_packets = 0;        // feedback packets put on the uplink

  [[nodiscard]] f64 mean_switch_ms() const {
    return segment_switches
               ? to_millis(switch_delay_total) / segment_switches
               : 0.0;
  }
  [[nodiscard]] f64 rebuffer_ratio() const {
    const f64 total = static_cast<f64>(play_time + rebuffer_time);
    return total > 0 ? static_cast<f64>(rebuffer_time) / total : 0.0;
  }
};

/// A student's streaming receiver + player model. The "path" the student
/// takes is a pre-computed walk over the scenario graph (each segment is
/// watched to its end before switching — interaction timing is abstracted
/// to segment granularity at this layer).
class StreamClient {
 public:
  StreamClient(u32 id, const VideoContainer* container,
               std::vector<SegmentId> path, const StreamingConfig& config);
  // Holds pointers into its own buffer map (the current segment's buffer).
  StreamClient(const StreamClient&) = delete;
  StreamClient& operator=(const StreamClient&) = delete;

  [[nodiscard]] u32 id() const { return id_; }
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] const ClientStats& stats() const { return stats_; }

  /// The client's walk, and the index of the segment it currently needs
  /// (below path().size() until finished). The server reads its prefetch
  /// candidates from the path in place.
  [[nodiscard]] const std::vector<SegmentId>& path() const { return path_; }
  [[nodiscard]] size_t path_position() const { return path_pos_; }

  void on_packet(const Packet& packet);
  /// Advances the playback model to `now`. A tick at or before the last
  /// one does nothing.
  void tick(MicroTime now);
  /// When the next tick can do more than present frames already buffered
  /// and add the elapsed time to `play_time` or `rebuffer_time` (those
  /// sums telescope, so skipping a tick loses nothing), assuming no packet
  /// arrives first. While
  /// playing: the due time of frame min(prefix, frame_count − 1), the
  /// next possible stall or the segment's end. While buffering or
  /// stalled: the skip deadline of the blocking frame. kNever once
  /// finished. A time at or before the last tick means "at the next one".
  [[nodiscard]] MicroTime next_tick_at() const;

  /// Builds the next feedback packet (cumulative ACK + aged NACKs) when
  /// the pacing interval has elapsed and there is something new to report.
  [[nodiscard]] std::optional<FeedbackPacket> make_feedback(MicroTime now);
  /// The earliest time make_feedback can return a packet or record a gap:
  /// the pacing time while there is news (an advance not yet ACKed, or a
  /// sequence gap), kNever otherwise. Only on_packet and make_feedback
  /// change it.
  [[nodiscard]] MicroTime next_feedback_at() const;

 private:
  [[nodiscard]] MicroTime frame_period() const {
    return 1'000'000 / std::max(1, container_->fps());
  }
  /// tick()'s body; re-entered at the same `now` when a segment ends.
  void play(MicroTime now);
  void start_segment(MicroTime now);
  /// Receive state of one segment: `prefix` frames from the start are
  /// available (arrived or skipped); `pending` holds available frames past
  /// the first gap; `skipped` marks the give-up decisions.
  struct SegmentBuffer {
    int prefix = 0;
    std::set<int> pending;
    std::set<int> skipped;
  };
  void advance_prefix(SegmentBuffer& buf);
  /// Gives up on the blocking gap of the current segment: marks the run of
  /// missing frames up to the next arrived frame (at least one) skipped.
  void skip_blocked_frames(SegmentBuffer& buf);

  u32 id_;
  const VideoContainer* container_;
  std::vector<SegmentId> path_;
  StreamingConfig config_;

  size_t path_pos_ = 0;
  bool finished_ = false;

  std::map<u32, SegmentBuffer> buffers_;
  // The current segment and its buffer, looked up once per segment in
  // start_segment(); null segment: the id is not in the container.
  const ContainerSegment* segment_ = nullptr;
  SegmentBuffer* buffer_ = nullptr;

  // ARQ receive state (per-flow sequence space).
  u64 rx_cum_ = 0;                 // every sequence <= this has arrived
  std::set<u64> rx_above_cum_;     // arrived sequences past the first gap
  std::map<u64, MicroTime> missing_since_;  // gap -> first observed missing
  u64 last_fed_back_cum_ = 0;
  MicroTime next_feedback_at_ = 0;

  MicroTime ticked_at_ = -1;  // sim time of the last tick

  // Playback state for the current segment.
  enum class PlayState { kBuffering, kPlaying, kStalled };
  PlayState state_ = PlayState::kBuffering;
  MicroTime segment_requested_at_ = 0;
  MicroTime state_since_ = 0;
  MicroTime next_frame_due_ = 0;
  int presented_in_segment_ = 0;
  // Frame-skip deadline tracking: how long the head of the current
  // segment's gap has been blocking us.
  int blocked_frame_ = -1;
  MicroTime blocked_since_ = 0;

  ClientStats stats_;
};

/// The streaming server: walks all clients round-robin, pushing the next
/// needed frame of each client's current segment, then (if idle capacity
/// remains and prefetch is on) frames of upcoming segments. Pending
/// retransmissions always go first.
class StreamServer {
 public:
  StreamServer(const VideoContainer* container, StreamingConfig config,
               u64 seed = 11);

  /// Clients join before the first step: the round-robin cursors stay
  /// exact only modulo a client count that does not change mid-run.
  StreamClient& add_client(std::vector<SegmentId> path);

  /// The delivery grid: steps happen at multiples of 2 ms of sim time,
  /// both inside run() and when a DES actor (src/sim) drives the server
  /// on a shared timeline. A drive may step every grid point or only
  /// those next_step_at() names; both give the same bits.
  static constexpr MicroTime kStepInterval = milliseconds(2);

  /// One delivery step at sim time `now`: deliver arrived packets, process
  /// feedback, fire ARQ timeouts, advance the playback of every client
  /// that is due, then fill the link (retransmits first, new frames
  /// round-robin). Returns true once every client has finished. Exposed
  /// so a discrete-event timeline can interleave many servers. A step at
  /// a grid point that next_step_at() did not name changes nothing, so
  /// stepping every grid point gives the same outcome as stepping only
  /// the named ones.
  bool step(MicroTime now);

  /// The first grid point after `now` at which a step can change
  /// anything, given a step at `now` just ran (kNever: nothing ever will).
  /// That is the earliest of: the next downlink or feedback arrival, the
  /// earliest ARQ timeout, the downlink freeing while a retransmit is
  /// queued or a flow has something to send, a client's feedback pacing
  /// time while it has news (once the uplink is free), and each client's
  /// next tick (StreamClient::next_tick_at).
  [[nodiscard]] MicroTime next_step_at(MicroTime now) const;

  /// Ends a drive that `deadline` (> 0) cuts off before every client
  /// finished: ticks every client at the last grid point before
  /// `deadline`, so a cut-off client's play time and presented frames
  /// count up to there, and returns the first grid point at or after
  /// `deadline`, the end time run() reports. run() and StreamActor call
  /// it; a drive that steps every grid point itself should too.
  MicroTime cut_off(MicroTime deadline);

  /// Runs the simulation until all clients finish or `deadline` passes,
  /// stepping at the grid points next_step_at() names. Returns the end
  /// time: the step where the last client finished, or the first grid
  /// point at or after `deadline`.
  MicroTime run(MicroTime deadline);

  [[nodiscard]] const std::vector<std::unique_ptr<StreamClient>>& clients()
      const {
    return clients_;
  }
  [[nodiscard]] const SimulatedNetwork& network() const { return network_; }
  [[nodiscard]] const FeedbackLink& feedback_link() const { return feedback_; }

  struct ArqStats {
    u64 retransmits = 0;       // packets re-sent (NACK or timeout)
    u64 nacks_received = 0;    // NACK entries processed
    u64 feedback_received = 0; // feedback packets processed
    u64 timeouts = 0;          // RTO expirations
    u64 abandoned = 0;         // packets dropped after max_retries
    u64 queue_overflow = 0;    // retransmit requests dropped (queue full)
  };
  [[nodiscard]] const ArqStats& arq_stats() const { return arq_stats_; }

  struct Aggregate {
    /// Startup stats cover clients that presented at least one frame;
    /// clients the deadline cut off before first light are counted in
    /// `unfinished_clients`, not averaged in as zero.
    f64 mean_startup_ms = 0;
    f64 p95_startup_ms = 0;
    f64 mean_rebuffer_ratio = 0;
    f64 mean_switch_ms = 0;   // scenario-switch latency (prefetch target)
    int prefetch_hits = 0;
    int total_rebuffer_events = 0;
    int frames_skipped = 0;
    int unfinished_clients = 0;  // clients not finished when run() returned
    u64 retransmits = 0;
    u64 nacks_sent = 0;
    u64 bytes_sent = 0;
  };
  [[nodiscard]] Aggregate aggregate() const;

 private:
  struct UnackedPacket {
    Packet packet;
    MicroTime last_sent = 0;
    int retries = 0;
    bool queued = false;  // sitting in the retransmit queue
  };
  static constexpr size_t kNotIdle = static_cast<size_t>(-1);
  /// Everything the server keeps per flow; flow f lives at flows_[f - 1].
  struct Flow {
    // ARQ window.
    std::map<u64, UnackedPacket> unacked;
    // Jacobson/Karn RTT estimation (microseconds).
    f64 srtt = 0;
    f64 rttvar = 0;
    bool rtt_valid = false;
    MicroTime next_timeout_at = 0;  // earliest RTO among unacked entries
    u64 sequence = 0;               // last sequence number sent
    /// Next frame to transmit per segment, indexed by the segment's
    /// position in VideoContainer::segments().
    std::vector<int> send_progress;
    /// Path position at which the flow last had nothing to send; it has
    /// nothing until the client's path position moves (see pump_client).
    size_t idle_at = kNotIdle;
  };

  /// True when pump_client(index) can send or mark the flow idle: the
  /// client is unfinished, its window has room, and its idle marker is
  /// not at the client's path position.
  [[nodiscard]] bool can_pump(size_t index) const;
  /// Sends one pending frame-chunk for the client at `index` (which
  /// can_pump); returns false, marking the flow idle, when it has nothing
  /// to send at its path position.
  bool pump_client(size_t index, MicroTime now);
  /// Ticks the client at `index` and records its next tick time.
  void tick_client(size_t index, MicroTime now);
  /// The client index a round-robin cursor points at; moves it on by one.
  size_t take_turn(size_t& cursor) const {
    const size_t index = cursor;
    cursor = index + 1 == clients_.size() ? 0 : index + 1;
    return index;
  }
  void on_feedback(const FeedbackPacket& fb, MicroTime now);
  void check_timeouts(MicroTime now);
  /// Current retransmission timeout for one flow (before backoff).
  [[nodiscard]] MicroTime rto(const Flow& flow) const;
  /// Re-sends one queued retransmission; false when the queue is empty.
  bool send_one_retransmit(MicroTime now);

  const VideoContainer* container_;
  StreamingConfig config_;
  SimulatedNetwork network_;
  FeedbackLink feedback_;
  std::vector<std::unique_ptr<StreamClient>> clients_;
  std::vector<Flow> flows_;  // parallel to clients_
  std::deque<std::pair<u32, u64>> retransmit_queue_;  // (flow, sequence)
  ArqStats arq_stats_;
  // Round-robin cursors, persistent across steps and kept below the
  // client count: new frames / feedback uplink access.
  size_t rr_ = 0;
  size_t fb_rr_ = 0;
  // Per-client wake times, parallel to clients_: when each next needs a
  // tick (now, once a packet for it arrived) and when its make_feedback
  // can next do anything.
  std::vector<MicroTime> tick_at_;
  std::vector<MicroTime> feedback_at_;
  size_t unfinished_ = 0;
  // No flow's ARQ timeout fires before this (a lower bound; exact after
  // each check_timeouts scan).
  MicroTime timeout_floor_ = kNever;
};

/// Builds a plausible student path: a weighted random walk over the graph
/// from the start scenario, at most `max_hops` segments long (shorter when
/// a terminal scenario or dead end is reached first).
std::vector<SegmentId> random_student_path(const ScenarioGraph& graph,
                                           int max_hops, Rng& rng);

}  // namespace vgbl
