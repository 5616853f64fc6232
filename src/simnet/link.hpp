// link.hpp — bottleneck link with a drop-tail queue.
//
// The link is modeled as a FIFO serializer: a packet arriving at time t
// starts transmission at max(t, busy_until) and the backlog
// (busy_until - t) * capacity is the queue occupancy in bytes.  Because the
// queue is FIFO and the propagation delay constant, deliveries complete in
// enqueue order, so a busy link needs exactly ONE entry in the simulation's
// sorted busy-link ring, keyed on its front in-flight packet (see
// simnet/simulation.hpp).  When it reaches the front, Simulation::step calls
// deliver(), which hands the front packet on and then keeps delivering
// inline while the next packet is still globally earliest.  Pending state
// is therefore O(links), not one event per in-flight packet — multi-hop
// topologies scale with hop count, not window size — and this is what lets
// the packet-level TCP simulator run Table-2 scale sweeps (tens of millions
// of packets) in seconds.
//
// In-flight state is one FIFO ring of 40-byte records, one per accepted
// packet: its delivery key, the 16-byte packet, and the next step of its
// route (a RouteStep the sending flow owns: the link that carries it on,
// or the sink that receives it).  transmit() fills the record in a slot
// at the ring's back; deliver() hands the packet on from the front slot
// where it lies and only then drops the slot.  So each record is written
// once and read once, and no packet travels through a temporary on any
// hop — the one exception is a transmit that grows the ring, which first
// copies its packet off the slab it may point into.
//
// Determinism: each accepted packet reserves its event sequence number at
// transmit time (Simulation::reserve_event_seq), so every delivery carries
// the exact (time, seq) key a one-event-per-packet design would assign —
// the event total order, and thus every seed-pinned golden, is unchanged.
//
// Drop-tail semantics: a packet whose acceptance would push the backlog
// above `buffer` is dropped at arrival, exactly like a switch output queue.
// TCP loss, and therefore the paper's congestion regimes, emerge from this
// mechanism rather than from a random loss probability.
#pragma once

#include <cstdint>
#include <limits>
#include <memory_resource>
#include <span>
#include <stdexcept>
#include <string>

#include "simnet/ring_buffer.hpp"
#include "simnet/simulation.hpp"
#include "simnet/time.hpp"
#include "units/units.hpp"

namespace sss::obs {
class TimelineRecorder;  // obs/timeline.hpp — forward-declared: the probe is
}                        // a pointer, and transmit() must stay include-light

namespace sss::simnet {

struct Packet {
  // Original transmission timestamp, echoed by ACKs for RTT sampling.
  SimTime sent_at = 0;
  // Data packets: packet index within the flow.  ACKs: cumulative index of
  // the next expected packet.  A flow has at most 2^32 - 1 packets
  // (WorkloadConfig::validate, TcpFlow), so both fit.
  std::uint32_t seq = 0;
  // Wire bytes, headers included: at most 65535, the IPv4 total-length
  // ceiling.
  std::uint16_t size_bytes = 0;
  bool is_ack = false;
  // Set on retransmitted data packets and echoed on the ACKs they trigger,
  // so the sender can apply Karn's rule (skip RTT samples for retransmits).
  bool retransmit = false;
};

// Ceilings the narrow Packet fields set: the largest wire size of one
// packet, and the most packets one flow may number.
inline constexpr std::uint32_t kMaxPacketBytes =
    std::numeric_limits<decltype(Packet::size_bytes)>::max();
inline constexpr std::uint64_t kMaxFlowPackets =
    std::numeric_limits<decltype(Packet::seq)>::max();

// Endpoint interface: flows implement this to receive packets.  `packet`
// lies in the delivering link's in-flight ring.  Passing it to transmit()
// is safe, but once anything went back onto that same link the ring may
// have grown under the reference: read what you need first.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void on_packet(Simulation& sim, const Packet& packet) = 0;
};

class Link;

// A route: the live links a packet crosses, in hop order.  Routes are plain
// arrays owned by whoever built the links (a Workload cell keeps them in
// its arena); senders only borrow them.
using Route = std::span<Link* const>;

// One step of a packet's route after a hop: the link that carries it on,
// or, where `link` is null, the sink that receives it.  A TcpFlow turns
// each of its Routes into an array of steps, one per hop and then its own;
// each in-flight record points at the step after its own hop, so the array
// must outlive the sender's packets in flight.
struct RouteStep {
  Link* link = nullptr;
  PacketSink* sink = nullptr;
};

struct LinkConfig {
  std::string name = "link";
  units::DataRate capacity = units::DataRate::gigabits_per_second(25.0);
  units::Seconds propagation_delay = units::Seconds::millis(8.0);  // one way
  // Drop-tail buffer.  Default is one bandwidth-delay product at 16 ms RTT,
  // a common switch sizing rule.
  units::Bytes buffer = units::Bytes::megabytes(50.0);

  friend bool operator==(const LinkConfig&, const LinkConfig&) = default;
};

// The ACK/return-direction twin of a forward link: same capacity and
// delay, named "<name>-reverse", with a generous buffer so ACK loss never
// originates on the return path (the paper's uncontended server side).
[[nodiscard]] LinkConfig reverse_link(const LinkConfig& forward);

struct LinkCounters {
  std::uint64_t packets_offered = 0;
  std::uint64_t packets_forwarded = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t bytes_offered = 0;
  std::uint64_t bytes_forwarded = 0;
  std::uint64_t bytes_dropped = 0;
};

class Link final {
 public:
  // Utilization is counted in fixed 1 s buckets, the paper's interface
  // byte counters (Fig. 2's x-axis is derived from these).  `mem` backs the
  // in-flight rings (pass a per-cell Arena to keep ring growth off the heap).
  explicit Link(LinkConfig config,
                std::pmr::memory_resource* mem = std::pmr::get_default_resource());

  // Offer a packet for transmission; after this hop it goes on to `next`
  // (see RouteStep).  Returns false if the drop-tail queue rejected it (the
  // packet is silently lost, as on a real switch; senders learn via
  // duplicate ACKs or RTO).
  bool transmit(Simulation& sim, const Packet& packet, const RouteStep* next);

  [[nodiscard]] const LinkConfig& config() const { return config_; }
  [[nodiscard]] const LinkCounters& counters() const { return counters_; }
  // Queue occupancy in bytes if a packet arrived at time `now`.
  [[nodiscard]] double backlog_bytes(SimTime now) const;
  // Fraction of capacity used over the busiest counting bucket.
  [[nodiscard]] double peak_utilization() const;
  // Fraction of capacity used averaged over every bucket from 0 through the
  // last one a packet started in, idle buckets included.
  [[nodiscard]] double mean_utilization() const;
  [[nodiscard]] double loss_rate() const;
  // Packets accepted but not yet handed off (wire + propagation); one being
  // handed off counts until its hand-off returns.
  [[nodiscard]] std::size_t in_flight_count() const { return in_flight_.size(); }
  // True while packets are in flight (the link holds a busy-link entry).
  [[nodiscard]] bool delivery_pending() const { return delivery_pending_; }

  // Attach a timeline probe: queue-depth / utilization counter samples on
  // `track` at most every `sample_interval` (sampled on transmit, i.e. in
  // simulation time), plus an instant per drop-tail loss.  Null recorder =
  // off; the hot path then pays one pointer compare.
  void attach_probe(obs::TimelineRecorder* recorder, int track,
                    SimTime sample_interval);

 private:
  friend class Simulation;
  // Deliver the front in-flight packet, and any that follow it inline.
  // Simulation::step calls this when this link's key is the earliest
  // pending one.
  void deliver(Simulation& sim);

  // One accepted packet, from transmit until its hand-off.
  struct InFlight {
    SimTime arrival = 0;              // precomputed delivery time
    std::uint64_t seq = 0;            // event sequence reserved at transmit
    Packet packet;
    const RouteStep* next = nullptr;  // where the packet goes after this hop
  };

  LinkConfig config_;
  LinkCounters counters_;
  SimTime busy_until_ = 0;
  SimTime buffer_capacity_ns_;  // buffer expressed as serialization time
  SimTime propagation_ns_;      // propagation delay in integer nanoseconds
  // Serialization-time memo: traffic on a link is dominated by one or two
  // distinct packet sizes (MSS data + fixed-size ACKs), so the double
  // division in transmission_time is paid once per distinct size, not once
  // per packet.  Same function, same operands — bit-identical times.
  std::uint16_t memo_size_bytes_ = 0;
  SimTime memo_tx_ = 0;
  RingBuffer<InFlight> in_flight_;
  bool delivery_pending_ = false;

  // 1 s utilization buckets, streamed: only the bucket being filled and the
  // busiest one before it are kept; the run total is bytes_forwarded.
  std::uint64_t bucket_ = 0;       // index of the bucket being filled
  SimTime bucket_end_ = 0;         // first ns past it (0: none opened yet)
  std::uint64_t bucket_bytes_ = 0;
  std::uint64_t peak_bucket_bytes_ = 0;

  void open_bucket(SimTime start);

  // Timeline probe (null = observability off).
  obs::TimelineRecorder* probe_ = nullptr;
  int probe_track_ = 0;
  SimTime probe_interval_ = 0;
  SimTime probe_next_sample_ = 0;
  SimTime probe_last_sample_ = 0;
  std::uint64_t probe_last_forwarded_bytes_ = 0;

  void probe_sample(SimTime now);
  void probe_drop(SimTime now);
};

// The config of one hop, whether a route holds configs or live links.
inline const LinkConfig& hop_config(const LinkConfig& hop) { return hop; }
inline const LinkConfig& hop_config(const Link* hop) { return hop->config(); }

// Index of the slowest hop (first on ties), over a config list or a live
// Route — the one bottleneck rule shared by TcpFlow's auto-window, the
// World views (simnet/workload.hpp) and the decision layer's profile_path.
// Throws std::invalid_argument on an empty list.
template <class Hops>
[[nodiscard]] std::size_t bottleneck_hop_index(const Hops& hops) {
  if (std::size(hops) == 0) {
    throw std::invalid_argument("bottleneck_hop_index: empty hop list");
  }
  std::size_t slowest = 0;
  for (std::size_t h = 1; h < std::size(hops); ++h) {
    if (hop_config(hops[h]).capacity.bps() < hop_config(hops[slowest]).capacity.bps()) {
      slowest = h;
    }
  }
  return slowest;
}

// Summed one-way propagation delay across the hops, in hop order — the
// matching rule for TcpFlow's auto-window, the fluid substrate and
// profile_path's RTT.
template <class Hops>
[[nodiscard]] units::Seconds total_propagation_delay(const Hops& hops) {
  units::Seconds total = units::Seconds::of(0.0);
  for (const auto& hop : hops) total += hop_config(hop).propagation_delay;
  return total;
}

}  // namespace sss::simnet
