#include "simnet/path.hpp"

#include <stdexcept>

namespace sss::simnet {

Path::Path(const std::vector<LinkConfig>& hops, std::pmr::memory_resource* mem)
    : mem_(mem), owned_(mem), hops_(mem) {
  if (hops.empty()) throw std::invalid_argument("Path: need at least one hop");
  owned_.reserve(hops.size());
  hops_.reserve(hops.size());
  std::pmr::polymorphic_allocator<> alloc(mem_);
  for (const LinkConfig& cfg : hops) {
    owned_.push_back(alloc.new_object<Link>(cfg, mem_));
    hops_.push_back(owned_.back());
  }
  cache_route_facts();
}

Path::Path(const std::vector<Link*>& hops, std::pmr::memory_resource* mem)
    : mem_(mem), owned_(mem), hops_(mem) {
  if (hops.empty()) throw std::invalid_argument("Path: need at least one hop");
  hops_.reserve(hops.size());
  for (Link* link : hops) {
    if (link == nullptr) throw std::invalid_argument("Path: null hop");
    hops_.push_back(link);
  }
  cache_route_facts();
}

Path::~Path() {
  // delete_object runs destructors and releases through mem_: a real free on
  // the heap, a no-op on an Arena (memory reclaimed wholesale at reset).
  std::pmr::polymorphic_allocator<> alloc(mem_);
  for (Link* link : owned_) alloc.delete_object(link);
}

void Path::cache_route_facts() {
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

double Path::aggregate_loss_rate() const {
  std::uint64_t offered = 0;
  for (std::size_t h = 0; h < hop_count(); ++h) offered += hops_[h]->counters().packets_offered;
  if (offered == 0) return 0.0;
  return static_cast<double>(packets_dropped_total()) / static_cast<double>(offered);
}

std::uint64_t Path::packets_dropped_total() const {
  std::uint64_t dropped = 0;
  for (std::size_t h = 0; h < hop_count(); ++h) dropped += hops_[h]->counters().packets_dropped;
  return dropped;
}

LinkConfig reverse_link(const LinkConfig& forward) {
  LinkConfig cfg = forward;
  cfg.name += "-reverse";
  cfg.buffer = units::Bytes::megabytes(256.0);
  return cfg;
}

}  // namespace sss::simnet
