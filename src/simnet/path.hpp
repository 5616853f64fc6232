// path.hpp — a multi-hop network path.
//
// A Path routes a flow's packets through an ordered sequence of directed
// Links (instrument NIC -> DTN uplink -> WAN backbone -> HPC ingest, ...).
// Every hop keeps its own FIFO serializer, drop-tail buffer, and
// LinkCounters, so "which hop saturates first" is directly observable.
//
// Mechanics: the Path only owns (or borrows) the hops and caches their
// bottleneck and summed delay; it forwards nothing itself.  A sender turns
// it into a route of RouteSteps (see simnet/link.hpp): one step per hop,
// then the sink.  A packet enters hop 0 pointing at step 1; when hop h
// delivers it, the link transmits it straight onto hop h+1 (at the
// delivery instant, pointing one step further), and the final step hands
// it to the sink.  A one-hop route is hop 0 then the sink: the exact call
// sequence of the pre-topology single-link simulator, so one-hop runs are
// bit-identical to the old `TcpFlow(…, Link&, Link&)` behaviour (pinned by
// the golden scenario test and tests/simnet/path_test.cpp).
//
// A drop at ANY hop is silent for the sender, exactly like a mid-path
// switch: the packet simply never arrives and TCP discovers the loss via
// duplicate ACKs or RTO.
#pragma once

#include <cstdint>
#include <memory_resource>
#include <vector>

#include "simnet/link.hpp"
#include "simnet/simulation.hpp"
#include "units/units.hpp"

namespace sss::simnet {

class Path {
 public:
  // Owning: constructs one Link per hop config, in order.  Links and the
  // hop array are allocated from `mem` (pass a per-cell Arena to
  // bump-allocate the whole topology; default heap otherwise).  Each hop
  // counts utilization in fixed 1 s buckets (see Link).
  explicit Path(const std::vector<LinkConfig>& hops,
                std::pmr::memory_resource* mem = std::pmr::get_default_resource());
  // Non-owning: route over existing links (e.g. a one-hop cross-traffic
  // path sharing a link with the main forward path).  Links must outlive
  // the Path.
  explicit Path(const std::vector<Link*>& hops,
                std::pmr::memory_resource* mem = std::pmr::get_default_resource());

  ~Path();
  Path(const Path&) = delete;
  Path& operator=(const Path&) = delete;

  [[nodiscard]] std::size_t hop_count() const { return hops_.size(); }
  [[nodiscard]] Link& hop(std::size_t i) { return *hops_[i]; }
  [[nodiscard]] const Link& hop(std::size_t i) const { return *hops_[i]; }

  // Capacity of the slowest hop (the path's effective bandwidth ceiling).
  // Cached at construction: TcpFlow's auto-window and the decision layer
  // query these repeatedly, and hop configs are immutable after build.
  [[nodiscard]] units::DataRate bottleneck_capacity() const {
    return hops_[bottleneck_hop_]->config().capacity;
  }
  // Index of the slowest hop (first on ties).
  [[nodiscard]] std::size_t bottleneck_hop() const { return bottleneck_hop_; }
  // Sum of one-way propagation delays across hops.
  [[nodiscard]] units::Seconds total_propagation_delay() const {
    return total_propagation_delay_;
  }

  // Aggregate path loss: packets dropped at any hop over packets offered
  // at any hop.  Offered counts include traffic that entered mid-path
  // (hop-local cross flows), so the ratio stays in [0, 1] and drops are
  // weighed against the hop that actually carried the offering traffic.
  // For a one-hop path this is exactly the link's own loss_rate().
  [[nodiscard]] double aggregate_loss_rate() const;
  [[nodiscard]] std::uint64_t packets_dropped_total() const;

 private:
  // Cache the bottleneck index and summed delay (both ctors).
  void cache_route_facts();

  std::pmr::memory_resource* mem_;
  std::pmr::vector<Link*> owned_;  // allocated from mem_; destroyed in ~Path
  std::pmr::vector<Link*> hops_;  // every hop, in order
  std::size_t bottleneck_hop_ = 0;
  units::Seconds total_propagation_delay_ = units::Seconds::of(0.0);
};

// The ACK/return-direction twin of a forward link: same capacity and
// delay, named "<name>-reverse", with a generous buffer so ACK loss never
// originates on the return path (the paper's uncontended server side).
[[nodiscard]] LinkConfig reverse_link(const LinkConfig& forward);

}  // namespace sss::simnet
