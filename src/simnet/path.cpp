#include "simnet/path.hpp"

#include <stdexcept>

namespace sss::simnet {

Path::Path(const std::vector<LinkConfig>& hops, std::pmr::memory_resource* mem)
    : mem_(mem), owned_(mem), hops_(mem), relays_(mem), pending_(mem) {
  if (hops.empty()) throw std::invalid_argument("Path: need at least one hop");
  owned_.reserve(hops.size());
  hops_.reserve(hops.size());
  std::pmr::polymorphic_allocator<> alloc(mem_);
  for (const LinkConfig& cfg : hops) {
    owned_.push_back(alloc.new_object<Link>(cfg, mem_));
    hops_.push_back(owned_.back());
  }
  init_route();
}

Path::Path(const std::vector<Link*>& hops, std::pmr::memory_resource* mem)
    : mem_(mem), owned_(mem), hops_(mem), relays_(mem), pending_(mem) {
  if (hops.empty()) throw std::invalid_argument("Path: need at least one hop");
  hops_.reserve(hops.size());
  for (Link* link : hops) {
    if (link == nullptr) throw std::invalid_argument("Path: null hop");
    hops_.push_back(link);
  }
  init_route();
}

Path::~Path() {
  // delete_object runs destructors and releases through mem_: a real free on
  // the heap, a no-op on an Arena (memory reclaimed wholesale at reset).
  std::pmr::polymorphic_allocator<> alloc(mem_);
  for (Relay* relay : relays_) alloc.delete_object(relay);
  for (Link* link : owned_) alloc.delete_object(link);
}

void Path::init_route() {
  std::pmr::polymorphic_allocator<> alloc(mem_);
  for (std::size_t h = 0; h + 1 < hops_.size(); ++h) {
    relays_.push_back(alloc.new_object<Relay>(*this, h));
  }
  pending_.reserve(relays_.size());
  for (std::size_t h = 0; h < relays_.size(); ++h) {
    pending_.emplace_back(RingBuffer<PacketSink*>(1024, mem_));
  }
  // Hop configs are immutable after construction, so the bottleneck index
  // and summed delay — queried per ACK by TcpFlow's auto-window and per
  // evaluation by the decision layer — are computed exactly once.
  for (std::size_t h = 1; h < hops_.size(); ++h) {
    if (hops_[h]->config().capacity.bps() < hops_[bottleneck_hop_]->config().capacity.bps()) {
      bottleneck_hop_ = h;
    }
  }
  for (const Link* link : hops_) {
    total_propagation_delay_ += link->config().propagation_delay;
  }
}

bool Path::transmit(Simulation& sim, const Packet& packet, PacketSink& destination) {
  return send_on_hop(sim, 0, packet, destination);
}

bool Path::send_on_hop(Simulation& sim, std::size_t hop, const Packet& packet,
                       PacketSink& destination) {
  if (hop + 1 == hops_.size()) {
    // Last hop delivers straight to the endpoint — for a one-hop path this
    // is the exact pre-topology call sequence (bit-identical behaviour).
    return hops_[hop]->transmit(sim, packet, destination);
  }
  if (!hops_[hop]->transmit(sim, packet, *relays_[hop])) return false;
  pending_[hop].push_back(&destination);
  return true;
}

void Path::Relay::on_packet(Simulation& sim, const Packet& packet) {
  auto& queue = path_.pending_[hop_];
  if (queue.empty()) throw std::logic_error("Path: relay delivery with no pending sink");
  PacketSink* destination = queue.pop_front();
  // A drop at this or any later hop is silent: the sender discovers the
  // loss through duplicate ACKs or RTO, never through a return value.
  (void)path_.send_on_hop(sim, hop_ + 1, packet, *destination);
}

double Path::aggregate_loss_rate() const {
  std::uint64_t offered = 0;
  for (const Link* link : hops_) offered += link->counters().packets_offered;
  if (offered == 0) return 0.0;
  return static_cast<double>(packets_dropped_total()) / static_cast<double>(offered);
}

std::uint64_t Path::packets_dropped_total() const {
  std::uint64_t dropped = 0;
  for (const Link* link : hops_) dropped += link->counters().packets_dropped;
  return dropped;
}

LinkConfig reverse_link(const LinkConfig& forward) {
  LinkConfig cfg = forward;
  cfg.name += "-reverse";
  cfg.buffer = units::Bytes::megabytes(256.0);
  return cfg;
}

}  // namespace sss::simnet
