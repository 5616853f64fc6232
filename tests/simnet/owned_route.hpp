// owned_route.hpp — test helper: live links built from hop configs, in
// order, that own themselves and convert to the Route over them.  A
// Workload cell keeps its links and routes in its arena; unit tests that
// drive a TcpFlow or BackgroundTraffic directly build them here.
#pragma once

#include <memory>
#include <vector>

#include "simnet/link.hpp"

namespace sss::simnet {

class OwnedRoute {
 public:
  explicit OwnedRoute(const std::vector<LinkConfig>& hops) {
    for (const LinkConfig& cfg : hops) {
      owned_.push_back(std::make_unique<Link>(cfg));
      links_.push_back(owned_.back().get());
    }
  }

  operator Route() const { return links_; }  // NOLINT(google-explicit-constructor)
  [[nodiscard]] std::size_t hop_count() const { return links_.size(); }
  [[nodiscard]] Link& hop(std::size_t h) const { return *links_[h]; }

 private:
  std::vector<std::unique_ptr<Link>> owned_;
  std::vector<Link*> links_;
};

}  // namespace sss::simnet
