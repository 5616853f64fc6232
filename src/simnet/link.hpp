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
// In-flight state is one FIFO ring of records, one per accepted packet:
// its delivery key, the packet, its final sink, and its route continuation
// (the hops still ahead, see Path).  At delivery a packet with hops ahead
// is transmitted straight onto the next one; otherwise its sink receives
// it.  One ring means one stream of cache lines per link, written at
// transmit and read once at delivery.
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
#include <memory_resource>
#include <string>
#include <vector>

#include "simnet/ring_buffer.hpp"
#include "simnet/simulation.hpp"
#include "simnet/time.hpp"
#include "units/units.hpp"

namespace sss::obs {
class TimelineRecorder;  // obs/timeline.hpp — forward-declared: the probe is
}                        // a pointer, and transmit() must stay include-light

namespace sss::simnet {

struct Packet {
  // Data packets: packet index within the flow.  ACKs: cumulative index of
  // the next expected packet.
  std::uint64_t seq = 0;
  std::uint32_t size_bytes = 0;
  bool is_ack = false;
  // Set on retransmitted data packets and echoed on the ACKs they trigger,
  // so the sender can apply Karn's rule (skip RTT samples for retransmits).
  bool retransmit = false;
  // Original transmission timestamp, echoed by ACKs for RTT sampling.
  SimTime sent_at = 0;
};

// Endpoint interface: flows implement this to receive packets.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void on_packet(Simulation& sim, const Packet& packet) = 0;
};

struct LinkConfig {
  std::string name = "link";
  units::DataRate capacity = units::DataRate::gigabits_per_second(25.0);
  units::Seconds propagation_delay = units::Seconds::millis(8.0);  // one way
  // Drop-tail buffer.  Default is one bandwidth-delay product at 16 ms RTT,
  // a common switch sizing rule.
  units::Bytes buffer = units::Bytes::megabytes(50.0);
};

// Index of the slowest hop in a path's config list (first on ties) — the
// one bottleneck rule shared by Path, WorkloadConfig, and the decision
// layer's profile_path.  Throws std::invalid_argument on an empty list.
[[nodiscard]] std::size_t bottleneck_hop_index(const std::vector<LinkConfig>& hops);

// Summed one-way propagation delay across a path's hops — the matching
// shared rule for the fluid substrate and profile_path's RTT.
[[nodiscard]] units::Seconds total_propagation_delay(const std::vector<LinkConfig>& hops);

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

  // Offer a packet for transmission toward `destination`.  Returns false if
  // the drop-tail queue rejected it (the packet is silently lost, as on a
  // real switch; senders learn via duplicate ACKs or RTO).  `route` is the
  // rest of the packet's path: the hops after this one in a null-terminated
  // array that outlives the packet (Path owns it), or null when this is the
  // last hop and delivery goes to `destination`.
  bool transmit(Simulation& sim, const Packet& packet, PacketSink& destination,
                Link* const* route = nullptr);

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
  // Packets accepted but not yet delivered (wire + propagation).
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

  // One accepted packet, from transmit until delivery.
  struct InFlight {
    SimTime arrival = 0;          // precomputed delivery time
    std::uint64_t seq = 0;        // event sequence reserved at transmit
    Packet packet;
    PacketSink* sink = nullptr;   // final destination, after the last hop
    Link* const* route = nullptr; // hops still ahead (null: deliver to sink)
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
  std::uint32_t memo_size_bytes_ = 0;
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

}  // namespace sss::simnet
