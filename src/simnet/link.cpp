#include "simnet/link.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/phase_timer.hpp"
#include "obs/timeline.hpp"

namespace sss::simnet {

LinkConfig reverse_link(const LinkConfig& forward) {
  LinkConfig cfg = forward;
  cfg.name += "-reverse";
  cfg.buffer = units::Bytes::megabytes(256.0);
  return cfg;
}

Link::Link(LinkConfig config, std::pmr::memory_resource* mem)
    : config_(std::move(config)), in_flight_(mem) {
  // The in-flight record is the per-packet, per-hop cost: each link streams
  // one ring of them, written at transmit and read at delivery, so every
  // byte added here is L2 traffic paid by every packet on every hop.
  static_assert(sizeof(Packet) == 16, "Packet rides in every in-flight record");
  static_assert(sizeof(InFlight) == 40, "one 40-byte in-flight record per packet per hop");
  if (!config_.capacity.is_positive()) {
    throw std::invalid_argument("Link capacity must be positive");
  }
  if (config_.propagation_delay.seconds() < 0.0) {
    throw std::invalid_argument("Link propagation delay must be >= 0");
  }
  if (!config_.buffer.is_non_negative()) {
    throw std::invalid_argument("Link buffer must be >= 0");
  }
  buffer_capacity_ns_ = transmission_time(config_.buffer.bytes(), config_.capacity);
  propagation_ns_ = to_simtime(config_.propagation_delay);
  // Steady-state in-flight depth: the drop-tail buffer plus one eighth of a
  // bandwidth-delay product (bps() is already bytes per second), in
  // jumbo-frame packets.
  const double bdp_bytes = config_.capacity.bps() / 8.0 * config_.propagation_delay.seconds();
  // 1/4 headroom over the estimate: the drop rule admits one packet past the
  // buffer ns-budget and mixed sizes round the estimate down.
  const auto depth =
      static_cast<std::size_t>((config_.buffer.bytes() + bdp_bytes) / 9000.0) + 1;
  // Cap the pre-size well below the drop-tail worst case: cwnd-limited flows
  // occupy a fraction of the buffer bound, and a FIFO ring cycles through its
  // WHOLE slab as the head wraps — an oversized power-of-two slab turns every
  // push into a cold cache line (measured ~1.4x on single-transfer runs).
  // Genuinely deeper links just double on demand: a handful of one-time ring
  // copies, amortized against the packets that needed the depth.
  const std::size_t reserve = std::min<std::size_t>(depth + depth / 4 + 16, 1024);
  in_flight_.reserve(reserve);
}

double Link::backlog_bytes(SimTime now) const {
  if (busy_until_ <= now) return 0.0;
  const double backlog_seconds = static_cast<double>(busy_until_ - now) / 1e9;
  return backlog_seconds * config_.capacity.bps();
}

bool Link::transmit(Simulation& sim, const Packet& packet, const RouteStep* next) {
  ++counters_.packets_offered;
  counters_.bytes_offered += packet.size_bytes;

  const SimTime now = sim.now();
  // Queue occupancy measured in serialization time: everything scheduled
  // after `now` is backlog awaiting the wire.
  const SimTime backlog_ns = busy_until_ > now ? busy_until_ - now : 0;
  if (backlog_ns > buffer_capacity_ns_) {
    ++counters_.packets_dropped;
    counters_.bytes_dropped += packet.size_bytes;
    if (probe_ != nullptr) probe_drop(now);
    return false;
  }

  const SimTime start = std::max(now, busy_until_);
  if (packet.size_bytes != memo_size_bytes_) {
    memo_size_bytes_ = packet.size_bytes;
    memo_tx_ = transmission_time(packet.size_bytes, config_.capacity);
  }
  busy_until_ = start + memo_tx_;

  ++counters_.packets_forwarded;
  counters_.bytes_forwarded += packet.size_bytes;
  if (start >= bucket_end_) open_bucket(start);
  bucket_bytes_ += packet.size_bytes;
  if (probe_ != nullptr) probe_sample(now);

  // Reserve the delivery's sequence number NOW, where one-event-per-packet
  // scheduling would have claimed it: the key is final, however long the
  // packet waits behind others in the ring.
  const SimTime arrival = busy_until_ + propagation_ns_;
  const std::uint64_t seq = sim.reserve_event_seq();
  InFlight* slot;
  if (!in_flight_.full()) [[likely]] {
    slot = &in_flight_.push_slot();
    slot->packet = packet;
  } else {
    // Growth moves the slab, and `packet` may lie in it: a sink handed this
    // link's front packet can transmit that very reference back onto the
    // link.  Copy it off the slab first.
    const Packet copy = packet;
    slot = &in_flight_.push_slot();
    slot->packet = copy;
  }
  slot->arrival = arrival;
  slot->seq = seq;
  slot->next = next;
  if (!delivery_pending_) {
    delivery_pending_ = true;
    sim.arm_link(*this, arrival, seq);
  }
  return true;
}

void Link::deliver(Simulation& sim) {
  const obs::ScopedPhase phase(obs::Phase::kLinkDrain);
  // Hand the front packet on where it lies in the ring: transmit it onto
  // the next link of its route (a drop there is silent — the sender
  // discovers it through duplicate ACKs or RTO), or give it to its sink
  // after the last hop.  Its slot is dropped only after the hand-off
  // returns, so a transmit back onto this link never reuses it.
  const auto hand_off = [&sim](const InFlight& entry) {
    const RouteStep* const next = entry.next;
    if (next->link == nullptr) {
      next->sink->on_packet(sim, entry.packet);
    } else {
      (void)next->link->transmit(sim, entry.packet, next + 1);
    }
  };
  // Deliver the front packet, then keep delivering for as long as the next
  // one carries the globally-earliest (time, seq) key within the batch
  // horizon — a burst of back-to-back arrivals in one dispatch.
  // continue_drain advances the clock and the processed count, so dispatch
  // order, timestamps, and event counts are those of one event per packet.
  for (;;) {
    if (in_flight_.size() == 1) {
      // Draining: leave the busy ring BEFORE the packet is handed on, so a
      // transmit() back onto this link arms a fresh delivery.
      delivery_pending_ = false;
      sim.retire_link();
      hand_off(in_flight_.front());
      in_flight_.drop_front();
      return;
    }
    hand_off(in_flight_.front());
    in_flight_.drop_front();
    const InFlight& next = in_flight_.front();
    if (!sim.continue_drain(next.arrival, next.seq)) return;
  }
}

void Link::attach_probe(obs::TimelineRecorder* recorder, int track,
                        SimTime sample_interval) {
  probe_ = recorder;
  probe_track_ = track;
  probe_interval_ = std::max<SimTime>(sample_interval, 1);
  probe_next_sample_ = 0;
  probe_last_sample_ = 0;
  probe_last_forwarded_bytes_ = counters_.bytes_forwarded;
}

// Sampled on accepted transmits, rate-limited to the probe interval:
// queue depth straight from the serialization backlog, utilization as the
// forwarded-byte delta over the window since the previous sample.
void Link::probe_sample(SimTime now) {
  if (now < probe_next_sample_) return;
  probe_->counter(probe_track_, "queue_bytes", now, backlog_bytes(now));
  const double dt_s = static_cast<double>(now - probe_last_sample_) / 1e9;
  if (dt_s > 0.0) {
    const double bytes =
        static_cast<double>(counters_.bytes_forwarded - probe_last_forwarded_bytes_);
    probe_->counter(probe_track_, "utilization", now,
                    bytes / dt_s / config_.capacity.bps());
  }
  probe_last_sample_ = now;
  probe_last_forwarded_bytes_ = counters_.bytes_forwarded;
  probe_next_sample_ = now + probe_interval_;
}

void Link::probe_drop(SimTime now) { probe_->instant(probe_track_, "drop", now); }

// A packet belongs to the bucket floor(start in seconds) names, computed in
// double exactly as that expression reads.  bucket_end_ is the first
// nanosecond it names a later bucket: (bucket_ + 1) s, stepped to where the
// double rounding actually moves the floor, so transmit() can test the
// boundary with one integer compare.
void Link::open_bucket(SimTime start) {
  const auto bucket_of = [](SimTime t) {
    return static_cast<std::uint64_t>(to_seconds(t).seconds());
  };
  peak_bucket_bytes_ = std::max(peak_bucket_bytes_, bucket_bytes_);
  bucket_bytes_ = 0;
  bucket_ = bucket_of(start);
  bucket_end_ = static_cast<SimTime>(bucket_ + 1) * kNanosPerSecond;
  while (bucket_of(bucket_end_ - 1) > bucket_) --bucket_end_;
  while (bucket_of(bucket_end_) <= bucket_) ++bucket_end_;
}

// Byte sums are integers: below 2^53 they convert to double exactly, so the
// only rounding is in the divisions.
double Link::peak_utilization() const {
  return static_cast<double>(std::max(peak_bucket_bytes_, bucket_bytes_)) /
         config_.capacity.bps();
}

double Link::mean_utilization() const {
  return static_cast<double>(counters_.bytes_forwarded) / static_cast<double>(bucket_ + 1) /
         config_.capacity.bps();
}

double Link::loss_rate() const {
  if (counters_.packets_offered == 0) return 0.0;
  return static_cast<double>(counters_.packets_dropped) /
         static_cast<double>(counters_.packets_offered);
}

}  // namespace sss::simnet
