#include "simnet/tcp_flow.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/phase_timer.hpp"
#include "obs/timeline.hpp"
#include "stats/rng.hpp"

namespace sss::simnet {

namespace {
constexpr int kRtoEvent = 1;

// Congestion phases reported by the timeline probe.  Stored in
// probe_phase_ as the index of the currently open span.
enum ProbePhase : std::uint8_t { kPhaseSlowStart = 0, kPhaseSteady, kPhaseRecovery };

// `route`'s links as route steps, then `sink` as the terminal step.
std::pmr::vector<RouteStep> route_through(Route route, PacketSink& sink,
                                          std::pmr::memory_resource* mem) {
  if (route.empty()) throw std::invalid_argument("TcpFlow: a route needs at least one hop");
  std::pmr::vector<RouteStep> steps(mem);
  steps.reserve(route.size() + 1);
  for (Link* link : route) {
    if (link == nullptr) throw std::invalid_argument("TcpFlow: null hop in a route");
    steps.push_back({link, nullptr});
  }
  steps.push_back({nullptr, &sink});
  return steps;
}

const char* probe_phase_name(std::uint8_t phase) {
  switch (phase) {
    case kPhaseSlowStart:
      return "slow-start";
    case kPhaseSteady:
      return "steady";
    case kPhaseRecovery:
      return "recovery";
  }
  return "unknown";
}
}  // namespace

double flow_packets(units::Bytes total, std::uint32_t mss_bytes) {
  return std::ceil(total.bytes() / static_cast<double>(mss_bytes));
}

TcpFlow::TcpFlow(std::uint32_t id, units::Bytes total, const TcpConfig& config, Route forward,
                 Route reverse, FlowObserver* observer, std::pmr::memory_resource* mem)
    : id_(id),
      config_(config),
      forward_route_(route_through(forward, *this, mem)),
      reverse_route_(route_through(reverse, *this, mem)),
      observer_(observer),
      total_bytes_(total),
      cwnd_(config.initial_cwnd),
      retransmitted_(mem),
      rto_(to_simtime(config.initial_rto)),
      received_(mem) {
  if (!(total.bytes() > 0.0)) throw std::invalid_argument("TcpFlow: total bytes must be > 0");
  if (config_.mss_bytes == 0) throw std::invalid_argument("TcpFlow: MSS must be > 0");
  if (std::uint64_t{config_.mss_bytes} + config_.header_bytes > kMaxPacketBytes ||
      config_.ack_bytes > kMaxPacketBytes) {
    throw std::invalid_argument("TcpFlow: packets are at most 65535 bytes on the wire");
  }
  const double packets = flow_packets(total, config_.mss_bytes);
  if (packets > static_cast<double>(kMaxFlowPackets)) {
    throw std::invalid_argument("TcpFlow: a flow carries at most 2^32 - 1 packets");
  }
  total_packets_ = static_cast<std::uint64_t>(packets);
  retransmitted_.assign(total_packets_);
  received_.assign(total_packets_);
  // Final-segment payload, computed once: payload_of sits on the
  // per-packet send path and must not redo floating-point size math.
  const double whole = static_cast<double>(total_packets_ - 1) *
                       static_cast<double>(config_.mss_bytes);
  last_payload_ =
      static_cast<std::uint32_t>(std::max(1.0, total_bytes_.bytes() - whole));

  if (config_.max_cwnd_packets <= 0.0) {
    // Auto receiver window: 2 x bandwidth-delay product of the forward
    // route (bottleneck capacity at the summed one-way delay).
    const double rtt_s = 2.0 * total_propagation_delay(forward).seconds();
    const double bdp_bytes =
        forward[bottleneck_hop_index(forward)]->config().capacity.bps() * rtt_s;
    config_.max_cwnd_packets =
        std::max(4.0, 2.0 * bdp_bytes / static_cast<double>(config_.mss_bytes));
  }
  ssthresh_ = config_.max_cwnd_packets;

  // Timer-constant conversions hoisted off the per-ACK path (sample_rtt and
  // handle_rto run per ACK / per timeout; to_simtime is exact, so the
  // precomputed values are bit-identical to converting in place).
  min_rto_ns_ = to_simtime(config_.min_rto);
  max_rto_ns_ = to_simtime(config_.max_rto);
  hystart_min_ns_ = to_simtime(config_.hystart_delay_min);
  hystart_max_ns_ = to_simtime(config_.hystart_delay_max);
}

std::uint32_t TcpFlow::payload_of(std::uint64_t seq) const {
  return seq + 1 < total_packets_ ? config_.mss_bytes : last_payload_;
}

double TcpFlow::effective_window() const {
  return std::min(cwnd_, config_.max_cwnd_packets);
}

void TcpFlow::start(Simulation& sim) {
  if (started_) throw std::logic_error("TcpFlow::start called twice");
  started_ = true;
  start_time_ = sim.now();
  if (probe_ != nullptr) probe_start(sim);
  maybe_send(sim);
}

void TcpFlow::send_packet(Simulation& sim, std::uint64_t seq, bool is_retransmit) {
  Packet p;
  p.seq = static_cast<std::uint32_t>(seq);
  p.size_bytes = static_cast<std::uint16_t>(payload_of(seq) + config_.header_bytes);
  p.is_ack = false;
  p.retransmit = is_retransmit;
  p.sent_at = sim.now();
  if (is_retransmit) {
    ++retransmits_;
    ++retx_unconfirmed_;
    retransmitted_.set(seq);
    p.retransmit = true;
  } else {
    // Karn's rule also applies to segments that were ever retransmitted.
    p.retransmit = retransmitted_.test(seq);
  }
  // Drop result intentionally ignored: a real sender cannot observe a
  // drop-tail loss; it discovers it through dupacks or RTO.
  send_on(sim, p, forward_route_.data());
  arm_timer(sim);
}

void TcpFlow::maybe_send(Simulation& sim) {
  const obs::ScopedPhase phase(obs::Phase::kTransmit);
  if (in_fast_recovery_) {
    // SACK-style recovery: pipe-limited; repair scoreboard holes first,
    // then keep the window full with new data.  Each retransmit bumps
    // retx_unconfirmed_ (inside send_packet), growing pipe() until the
    // window is full.
    while (pipe() < effective_window()) {
      // Advance the cursor past everything the receiver already holds:
      // cumulatively-acked prefix first, then the next scoreboard hole via
      // the word-scanning bitmap (the old per-bit walk made this O(burst)
      // per ACK under heavy loss).
      if (recovery_cursor_ < highest_acked_) {
        recovery_cursor_ = std::min(highest_acked_, recover_seq_);
      }
      if (recovery_cursor_ < recover_seq_) {
        recovery_cursor_ =
            std::min(recover_seq_, received_.find_first_clear(recovery_cursor_));
      }
      // SACK loss rule (RFC 6675-style): a hole is retransmittable only
      // when dupack_threshold packets above it have been delivered —
      // merely being in flight does not make a packet lost.
      const bool hole_is_lost =
          recovery_cursor_ < recover_seq_ &&
          recovery_cursor_ + static_cast<std::uint64_t>(config_.dupack_threshold) <
              highest_received_end_;
      if (hole_is_lost) {
        send_packet(sim, recovery_cursor_, /*is_retransmit=*/true);
        ++recovery_cursor_;
        continue;
      }
      if (next_seq_ >= total_packets_) break;
      const bool is_retx = next_seq_ < highest_sent_;
      send_packet(sim, next_seq_, is_retx);
      ++next_seq_;
      highest_sent_ = std::max(highest_sent_, next_seq_);
    }
    return;
  }
  while (next_seq_ < total_packets_ && in_flight() < effective_window()) {
    // Anything below the high-water mark is a go-back-N resend.
    const bool is_retx = next_seq_ < highest_sent_;
    send_packet(sim, next_seq_, is_retx);
    ++next_seq_;
    highest_sent_ = std::max(highest_sent_, next_seq_);
  }
}

void TcpFlow::on_packet(Simulation& sim, const Packet& packet) {
  const obs::ScopedPhase phase(obs::Phase::kTcpProcess);
  if (packet.is_ack) {
    handle_ack(sim, packet);
  } else {
    handle_data(sim, packet);
  }
}

void TcpFlow::handle_data(Simulation& sim, const Packet& packet) {
  if (packet.seq < total_packets_ && !received_.test(packet.seq)) {
    received_.set(packet.seq);
    highest_received_end_ = std::max(highest_received_end_, std::uint64_t{packet.seq} + 1);
    if (packet.retransmit && retx_unconfirmed_ > 0) --retx_unconfirmed_;
    if (packet.seq == rcv_next_) {
      // Drain the out-of-order buffer behind the new edge in one bitmap
      // scan: the new edge is the first un-received index past seq.
      const std::uint64_t edge = received_.find_first_clear(rcv_next_ + 1);
      const std::uint64_t drained = edge - (rcv_next_ + 1);
      receiver_buffered_ -= std::min(receiver_buffered_, drained);
      rcv_next_ = edge;
    } else {
      ++receiver_buffered_;
    }
  }
  Packet ack;
  ack.seq = static_cast<std::uint32_t>(rcv_next_);
  ack.size_bytes = static_cast<std::uint16_t>(config_.ack_bytes);
  ack.is_ack = true;
  ack.retransmit = packet.retransmit;
  ack.sent_at = packet.sent_at;
  send_on(sim, ack, reverse_route_.data());
}

void TcpFlow::handle_ack(Simulation& sim, const Packet& packet) {
  if (complete_) return;

  if (packet.seq > highest_acked_) {
    const auto newly_acked = static_cast<double>(packet.seq - highest_acked_);
    highest_acked_ = packet.seq;
    if (next_seq_ < highest_acked_) next_seq_ = highest_acked_;
    dupacks_ = 0;

    if (!packet.retransmit) sample_rtt(sim.now() - packet.sent_at);

    if (in_fast_recovery_) {
      recovery_cursor_ = std::max(recovery_cursor_, highest_acked_);
      if (highest_acked_ >= recover_seq_) {
        // Full ACK: leave recovery, deflate to ssthresh.
        in_fast_recovery_ = false;
        retx_unconfirmed_ = 0;
        cwnd_ = ssthresh_;
      }
      // Partial ACK: stay in recovery; maybe_send below walks the
      // scoreboard and repairs the remaining holes pipe-limited.
    } else if (cwnd_ < ssthresh_) {
      cwnd_ = std::min(cwnd_ + newly_acked, config_.max_cwnd_packets);
    } else {
      cwnd_ = std::min(cwnd_ + newly_acked / cwnd_, config_.max_cwnd_packets);
    }

    if (highest_acked_ >= total_packets_) {
      finish(sim);
      return;
    }
    if (probe_ != nullptr) probe_note_phase(sim);
    arm_timer(sim);
    maybe_send(sim);
    return;
  }

  // Duplicate ACK.
  if (packet.seq == highest_acked_ && highest_acked_ < next_seq_) {
    ++dupacks_;
    if (in_fast_recovery_) {
      maybe_send(sim);  // window inflation may open a slot
    } else if (dupacks_ == config_.dupack_threshold) {
      enter_fast_retransmit(sim);
    }
  }
}

void TcpFlow::enter_fast_retransmit(Simulation& sim) {
  // Halve against the SACK pipe (what is genuinely still in the network),
  // not the raw in-flight count which includes the lost burst.
  ssthresh_ = std::max(pipe() / 2.0, 2.0);
  cwnd_ = ssthresh_;
  in_fast_recovery_ = true;
  recover_seq_ = highest_sent_;
  recovery_cursor_ = highest_acked_;
  retx_unconfirmed_ = 0;
  if (probe_ != nullptr) {
    probe_instant(sim, "fast-retransmit");
    probe_note_phase(sim);
  }
  maybe_send(sim);
}

void TcpFlow::handle_rto(Simulation& sim) {
  if (complete_) return;
  ++rto_events_;
  ssthresh_ = std::max(pipe() / 2.0, 2.0);
  cwnd_ = 1.0;
  dupacks_ = 0;
  in_fast_recovery_ = false;
  retx_unconfirmed_ = 0;
  // Exponential backoff, capped.
  rto_ = std::min(rto_ * 2, max_rto_ns_);
  // Go-back-N: rewind the send pointer; cumulative ACKs from the receiver's
  // buffer fast-forward past anything it already holds, and maybe_send tags
  // the resends as retransmissions via the high-water mark.
  next_seq_ = highest_acked_;
  if (probe_ != nullptr) {
    probe_instant(sim, "rto");
    probe_note_phase(sim);
  }
  maybe_send(sim);
}

void TcpFlow::sample_rtt(SimTime sample) {
  if (sample <= 0) return;
  if (min_rtt_ == 0 || sample < min_rtt_) min_rtt_ = sample;

  // HyStart: leave slow start when queuing delay builds, before the buffer
  // overflows (what a modern CUBIC sender does).
  if (config_.hystart && cwnd_ < ssthresh_) {
    const SimTime threshold = std::clamp(min_rtt_ / 8, hystart_min_ns_, hystart_max_ns_);
    if (sample >= min_rtt_ + threshold) ssthresh_ = cwnd_;
  }

  if (!have_rtt_sample_) {
    srtt_ = sample;
    rttvar_ = sample / 2;
    have_rtt_sample_ = true;
  } else {
    const SimTime err = std::abs(srtt_ - sample);
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
  SimTime rto = srtt_ + std::max<SimTime>(4 * rttvar_, 1);
  rto = std::max(rto, min_rto_ns_);
  rto = std::min(rto, max_rto_ns_);
  rto_ = rto;
}

SimTime TcpFlow::timer_deadline() const {
  if (!deadline_cached_) {
    // Deterministic per-flow jitter of up to RTO/8, standing in for kernel
    // timer granularity.  Without it, exponential backoff in a simulator
    // with second-aligned batch arrivals resonates: every retransmission of
    // an unlucky flow lands exactly when the queue refills, locking the
    // flow out for hundreds of seconds.
    stats::SplitMix64 hash((static_cast<std::uint64_t>(id_) << 32) ^ timer_arm_count_);
    const SimTime jitter = static_cast<SimTime>(hash.next() % (arm_rto_ / 8 + 1));
    timer_deadline_ = arm_now_ + arm_rto_ + jitter;
    deadline_cached_ = true;
  }
  return timer_deadline_;
}

void TcpFlow::arm_timer(Simulation& sim) {
  // Snapshot only: arm_timer runs per packet and per ACK, but the jittered
  // deadline (a SplitMix64 hash + modulo) is derived lazily in
  // timer_deadline() — only when a timer event is scheduled or fires.
  timer_armed_ = true;
  arm_now_ = sim.now();
  arm_rto_ = rto_;
  ++timer_arm_count_;
  deadline_cached_ = false;
  if (!timer_event_outstanding_) {
    timer_event_outstanding_ = true;
    sim.schedule_at(timer_deadline(), *this, kRtoEvent);
  }
}

void TcpFlow::cancel_timer() { timer_armed_ = false; }

void TcpFlow::on_event(Simulation& sim, int kind, std::uint64_t /*a*/, std::uint64_t /*b*/) {
  if (kind != kRtoEvent) throw std::logic_error("TcpFlow: unexpected event kind");
  timer_event_outstanding_ = false;
  if (!timer_armed_) return;
  if (sim.now() < timer_deadline()) {
    // Deadline moved forward since this event was scheduled; chase it.
    timer_event_outstanding_ = true;
    sim.schedule_at(timer_deadline_, *this, kRtoEvent);
    return;
  }
  handle_rto(sim);
}

void TcpFlow::finish(Simulation& sim) {
  complete_ = true;
  end_time_ = sim.now();
  cancel_timer();
  if (probe_ != nullptr) probe_finish(sim);
  if (observer_ != nullptr) observer_->on_flow_complete(sim, *this);
}

void TcpFlow::attach_probe(obs::TimelineRecorder* recorder, int track) {
  if (started_) throw std::logic_error("TcpFlow::attach_probe after start");
  probe_ = recorder;
  probe_track_ = track;
}

void TcpFlow::probe_start(Simulation& sim) {
  // With hystart the initial ssthresh is the receiver window, so every flow
  // opens in slow start.
  probe_phase_ = cwnd_ < ssthresh_ ? kPhaseSlowStart : kPhaseSteady;
  probe_->begin_span(probe_track_, probe_phase_name(probe_phase_), sim.now());
}

// Close/open phase spans on congestion-state transitions.  Called per ACK
// when attached; the common case (no transition) is two compares.
void TcpFlow::probe_note_phase(Simulation& sim) {
  std::uint8_t phase = kPhaseSteady;
  if (in_fast_recovery_) {
    phase = kPhaseRecovery;
  } else if (cwnd_ < ssthresh_) {
    phase = kPhaseSlowStart;
  }
  if (phase == probe_phase_) return;
  probe_->end_span(probe_track_, sim.now());
  probe_->begin_span(probe_track_, probe_phase_name(phase), sim.now());
  probe_phase_ = phase;
}

void TcpFlow::probe_instant(Simulation& sim, const char* name) {
  probe_->instant(probe_track_, name, sim.now());
}

void TcpFlow::probe_finish(Simulation& sim) {
  probe_->end_span(probe_track_, sim.now());
  probe_->instant(probe_track_, "complete", sim.now());
}

}  // namespace sss::simnet
