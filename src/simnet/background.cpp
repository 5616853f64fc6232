#include "simnet/background.hpp"

#include <algorithm>
#include <stdexcept>

namespace sss::simnet {

namespace {
constexpr int kStartFlow = 1;
}  // namespace

BackgroundTraffic::BackgroundTraffic(BackgroundTrafficConfig config, Route forward,
                                     Route reverse, std::pmr::memory_resource* mem)
    : config_(std::move(config)), forward_(forward), reverse_(reverse), mem_(mem),
      flows_(mem) {
  if (config_.target_load < 0.0) {
    throw std::invalid_argument("BackgroundTraffic: target_load must be >= 0");
  }
  if (!(config_.mean_flow_size.bytes() > 0.0)) {
    throw std::invalid_argument("BackgroundTraffic: mean_flow_size must be > 0");
  }
  if (!(config_.until.seconds() > 0.0)) {
    throw std::invalid_argument("BackgroundTraffic: until must be > 0");
  }
  if (config_.start.seconds() < 0.0 || config_.start >= config_.until) {
    throw std::invalid_argument("BackgroundTraffic: need 0 <= start < until");
  }
}

BackgroundTraffic::~BackgroundTraffic() {
  std::pmr::polymorphic_allocator<> alloc(mem_);
  for (TcpFlow* flow : flows_) alloc.delete_object(flow);
}

void BackgroundTraffic::schedule(Simulation& sim) {
  if (config_.target_load == 0.0) return;
  stats::Random rng(config_.seed);

  const double capacity = forward_[bottleneck_hop_index(forward_)]->config().capacity.bps();
  const double lambda =
      config_.target_load * capacity / config_.mean_flow_size.bytes();  // flows/s

  // Pareto scale for the requested mean: mean = shape * x_m / (shape - 1).
  const bool heavy = config_.pareto_shape > 1.0;
  const double x_m = heavy ? config_.mean_flow_size.bytes() *
                                 (config_.pareto_shape - 1.0) / config_.pareto_shape
                           : 0.0;

  // The largest flow: kMaxFlowPackets full packets (exact in a double).
  const double max_bytes =
      static_cast<double>(kMaxFlowPackets) * static_cast<double>(config_.tcp.mss_bytes);

  double t = config_.start.seconds();
  // Background flows get IDs in a high range to avoid confusing them with
  // foreground clients in logs.
  std::uint32_t id = 1u << 30;
  std::pmr::polymorphic_allocator<> alloc(mem_);
  for (;;) {
    t += rng.exponential(lambda);
    if (t >= config_.until.seconds()) break;
    const double size = heavy ? rng.pareto(x_m, config_.pareto_shape)
                              : config_.mean_flow_size.bytes() * rng.exponential(1.0);
    // At least one packet, and at most the packets one flow may number.
    const double clamped = std::min(std::max(size, 1500.0), max_bytes);
    bytes_offered_ += clamped;

    flows_.push_back(alloc.new_object<TcpFlow>(id++, units::Bytes::of(clamped),
                                               config_.tcp, forward_, reverse_, this,
                                               mem_));
    sim.schedule_at(to_simtime(units::Seconds::of(t)), *this, kStartFlow,
                    flows_.size() - 1);
  }
}

void BackgroundTraffic::on_event(Simulation& sim, int kind, std::uint64_t a,
                                 std::uint64_t /*b*/) {
  if (kind == kStartFlow) flows_[a]->start(sim);
}

void BackgroundTraffic::on_flow_complete(Simulation& /*sim*/, const TcpFlow& /*flow*/) {
  ++completed_;
}

}  // namespace sss::simnet
