// tcp_flow.hpp — packet-level TCP Reno/NewReno flow.
//
// The paper argues (Section 3) that replacing flow completion time with
// propagation delay assumes away queuing and loss — precisely the effects
// that dominate worst-case behaviour.  This class models the mechanisms that
// produce those effects:
//   - slow start and congestion avoidance (AIMD) on a per-packet basis,
//   - fast retransmit / fast recovery on three duplicate ACKs with
//     SACK-style loss recovery: during recovery the sender walks the
//     receiver scoreboard and repairs every hole in the lost burst under a
//     pipe (unsacked-in-flight) limit, like a modern Linux sender — plain
//     NewReno would repair one loss per RTT and grossly overstate recovery
//     times (the sender and receiver are one object here, so the scoreboard
//     is exact rather than carried in SACK blocks; recovery entry is still
//     gated on three duplicate ACKs),
//   - retransmission timeout with exponential backoff and go-back-N resend,
//   - RTT estimation (Jacobson/Karels) with Karn's rule (no samples from
//     retransmitted segments).
//
// One TcpFlow object plays both endpoints: data packets delivered by the
// forward path hit the receiver half, which ACKs over the reverse path back
// into the sender half.  Sequence numbers are packet indices (1 MSS each);
// byte counts are tracked separately so partial final segments are exact.
//
// Flows send over multi-hop Routes (instrument -> DTN -> WAN -> HPC: the
// live links in hop order, see simnet/link.hpp).  Every hop keeps its own
// serializer, drop-tail buffer and counters, and a drop at any hop is
// silent, like a mid-path switch: TCP finds out through duplicate ACKs or
// an RTO.  The flow turns each Route into its own array of RouteSteps at
// construction, ending in itself, so its packets carry their route in one
// pointer; a one-hop Route is the exact call sequence of a single link.
// The auto-derived receiver window uses the route's bottleneck capacity and
// its summed one-way delay.
//
// Packet fields are narrow (see Packet): a flow numbers at most
// kMaxFlowPackets packets and sends packets of at most kMaxPacketBytes, and
// the constructor refuses a flow or TcpConfig that would not fit.
#pragma once

#include <cstdint>
#include <memory_resource>

#include "simnet/bitmap.hpp"
#include "simnet/link.hpp"
#include "simnet/simulation.hpp"
#include "units/units.hpp"

namespace sss::obs {
class TimelineRecorder;  // obs/timeline.hpp
}

namespace sss::simnet {

struct TcpConfig {
  // Payload bytes per segment.  Default: 9000-byte jumbo MTU minus 52 bytes
  // of IP+TCP headers (Table 1 uses jumbo frames).
  std::uint32_t mss_bytes = 8948;
  std::uint32_t header_bytes = 52;
  std::uint32_t ack_bytes = 64;
  double initial_cwnd = 10.0;  // RFC 6928 initial window
  // Cap on cwnd in packets (receiver window / socket buffer).  0 = derive
  // 2 x BDP from the forward link at construction.
  double max_cwnd_packets = 0.0;
  int dupack_threshold = 3;
  units::Seconds initial_rto = units::Seconds::of(1.0);   // RFC 6298
  units::Seconds min_rto = units::Seconds::millis(200.0); // Linux default
  units::Seconds max_rto = units::Seconds::of(60.0);
  // HyStart-style delay-based slow-start exit (Linux CUBIC default): leave
  // slow start once the smoothed RTT rises a clamped fraction of the base
  // RTT above it, instead of blasting until the buffer overflows.
  bool hystart = true;
  units::Seconds hystart_delay_min = units::Seconds::millis(4.0);
  units::Seconds hystart_delay_max = units::Seconds::millis(16.0);
};

// Packets a flow of `total` bytes needs at `mss_bytes` per packet, the
// count TcpFlow numbers them with.  A double: it may exceed
// kMaxFlowPackets, which callers check.
[[nodiscard]] double flow_packets(units::Bytes total, std::uint32_t mss_bytes);

class TcpFlow;

// Completion callback; the workload orchestrator implements this to log
// flow-completion times.
class FlowObserver {
 public:
  virtual ~FlowObserver() = default;
  virtual void on_flow_complete(Simulation& sim, const TcpFlow& flow) = 0;
};

class TcpFlow final : public PacketSink, public EventHandler {
 public:
  // `forward` carries data from sender to receiver; `reverse` carries ACKs.
  // Both must be non-empty with no null link, and their links must outlive
  // the flow.  The per-segment scoreboards are sized once here, from `mem`
  // (pass a per-cell Arena to bump-allocate them; default heap otherwise).
  TcpFlow(std::uint32_t id, units::Bytes total, const TcpConfig& config, Route forward,
          Route reverse, FlowObserver* observer = nullptr,
          std::pmr::memory_resource* mem = std::pmr::get_default_resource());

  // Begin transmitting.  May only be called once.
  void start(Simulation& sim);

  // PacketSink: receives data packets (receiver half) and ACKs (sender half).
  void on_packet(Simulation& sim, const Packet& packet) override;
  // EventHandler: RTO timer.
  void on_event(Simulation& sim, int kind, std::uint64_t a, std::uint64_t b) override;

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] bool complete() const { return complete_; }
  [[nodiscard]] SimTime start_time() const { return start_time_; }
  [[nodiscard]] SimTime end_time() const { return end_time_; }
  [[nodiscard]] units::Seconds completion_time() const {
    return to_seconds(end_time_ - start_time_);
  }
  [[nodiscard]] units::Bytes total_bytes() const { return total_bytes_; }
  [[nodiscard]] std::uint64_t total_packets() const { return total_packets_; }
  [[nodiscard]] std::uint64_t retransmit_count() const { return retransmits_; }
  [[nodiscard]] std::uint64_t rto_count() const { return rto_events_; }
  [[nodiscard]] double cwnd() const { return cwnd_; }
  [[nodiscard]] double ssthresh() const { return ssthresh_; }
  // Smallest RTT sample and the smoothed (RFC 6298) RTT; 0 before the first sample.
  [[nodiscard]] units::Seconds min_rtt() const { return to_seconds(min_rtt_); }
  [[nodiscard]] units::Seconds smoothed_rtt() const { return to_seconds(srtt_); }
  // Current retransmission timeout; initial_rto-derived before the first
  // RTT sample.
  [[nodiscard]] units::Seconds current_rto() const { return to_seconds(rto_); }

  // Attach a timeline probe: congestion-phase spans (slow-start / steady /
  // recovery) plus fast-retransmit and rto instants on `track`, in
  // simulation time.  Must be called before start(); null = off (the
  // default — per-ACK cost is then one pointer compare).
  void attach_probe(obs::TimelineRecorder* recorder, int track);

 private:
  // --- identity & wiring ---
  std::uint32_t id_;
  TcpConfig config_;
  // The two routes: one step per hop, then this flow as the sink.  Data
  // enters forward_route_[0].link, ACKs reverse_route_[0].link.
  std::pmr::vector<RouteStep> forward_route_;
  std::pmr::vector<RouteStep> reverse_route_;
  FlowObserver* observer_;

  // --- sender state ---
  units::Bytes total_bytes_;
  std::uint64_t total_packets_;
  std::uint32_t last_payload_ = 0;  // final-segment payload, precomputed
  std::uint64_t next_seq_ = 0;       // next packet index to send
  std::uint64_t highest_sent_ = 0;   // one past the highest index ever sent
  std::uint64_t highest_acked_ = 0;  // all packets < this are acked
  double cwnd_;
  double ssthresh_;
  int dupacks_ = 0;
  bool in_fast_recovery_ = false;
  std::uint64_t recover_seq_ = 0;     // recovery point: highest sent at loss
  std::uint64_t recovery_cursor_ = 0; // next scoreboard hole candidate
  // Retransmissions sent but not yet observed at the receiver; occupies
  // pipe so recovery bursts stay window-limited.
  std::uint64_t retx_unconfirmed_ = 0;
  Bitmap retransmitted_;

  // --- RTO state ---
  // Lazy timer: at most one outstanding timer event; when it fires early
  // (the deadline moved forward), it reschedules itself instead of acting.
  // This keeps timer maintenance O(1) events per RTO interval instead of
  // one event per transmitted packet.
  //
  // Lazy deadline: arm_timer runs once per transmitted packet and per ACK,
  // but the jittered deadline only matters when a timer event is scheduled
  // or fires (rare).  arm_timer therefore just snapshots (now, rto, arm
  // count); timer_deadline() derives the deterministic-jitter deadline from
  // the snapshot on demand — the same value eager hashing produced.
  SimTime rto_;
  // Converted-once timer constants (see ctor); hot in sample_rtt.
  SimTime min_rto_ns_ = 0;
  SimTime max_rto_ns_ = 0;
  SimTime hystart_min_ns_ = 0;
  SimTime hystart_max_ns_ = 0;
  SimTime srtt_ = 0;
  SimTime rttvar_ = 0;
  bool have_rtt_sample_ = false;
  SimTime arm_now_ = 0;        // sim.now() at the latest arm
  SimTime arm_rto_ = 0;        // rto_ at the latest arm
  mutable SimTime timer_deadline_ = 0;
  mutable bool deadline_cached_ = false;
  bool timer_armed_ = false;
  bool timer_event_outstanding_ = false;
  std::uint64_t timer_arm_count_ = 0;  // feeds deterministic RTO jitter

  // --- receiver state ---
  std::uint64_t rcv_next_ = 0;
  Bitmap received_;
  // Packets buffered out of order (> rcv_next_); the sender's SACK view.
  std::uint64_t receiver_buffered_ = 0;
  // One past the highest sequence ever received; drives the SACK loss rule
  // (a packet counts as lost only when dupack_threshold packets above it
  // have been delivered, RFC 6675-style).
  std::uint64_t highest_received_end_ = 0;
  // Base RTT estimate for the HyStart exit.
  SimTime min_rtt_ = 0;

  // --- lifecycle & stats ---
  bool started_ = false;
  bool complete_ = false;
  SimTime start_time_ = 0;
  SimTime end_time_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t rto_events_ = 0;

  // --- timeline probe (null = off) ---
  obs::TimelineRecorder* probe_ = nullptr;
  int probe_track_ = 0;
  std::uint8_t probe_phase_ = 0;  // ProbePhase of the currently open span

  void probe_start(Simulation& sim);
  void probe_note_phase(Simulation& sim);
  void probe_instant(Simulation& sim, const char* name);
  void probe_finish(Simulation& sim);

  [[nodiscard]] std::uint32_t payload_of(std::uint64_t seq) const;
  [[nodiscard]] double in_flight() const {
    return static_cast<double>(next_seq_ - highest_acked_);
  }
  // SACK pipe: in-flight minus what the receiver already buffered, plus
  // retransmissions that have not yet landed (sent but unconfirmed).
  [[nodiscard]] double pipe() const {
    const double raw = in_flight() - static_cast<double>(receiver_buffered_) +
                       static_cast<double>(retx_unconfirmed_);
    return raw > 0.0 ? raw : 0.0;
  }
  [[nodiscard]] double effective_window() const;

  [[nodiscard]] SimTime timer_deadline() const;
  // Offer `packet` at the first hop of `route`.
  static void send_on(Simulation& sim, const Packet& packet, const RouteStep* route) {
    (void)route->link->transmit(sim, packet, route + 1);
  }
  void send_packet(Simulation& sim, std::uint64_t seq, bool is_retransmit);
  void maybe_send(Simulation& sim);
  void handle_data(Simulation& sim, const Packet& packet);
  void handle_ack(Simulation& sim, const Packet& packet);
  void enter_fast_retransmit(Simulation& sim);
  void handle_rto(Simulation& sim);
  void sample_rtt(SimTime sample);
  void arm_timer(Simulation& sim);
  void cancel_timer();
  void finish(Simulation& sim);
};

}  // namespace sss::simnet
