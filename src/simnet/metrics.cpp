#include "simnet/metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "trace/table.hpp"

namespace sss::simnet {

HopMetrics snapshot_hop(const Link& link) {
  HopMetrics m;
  m.name = link.config().name;
  m.capacity_gbps = link.config().capacity.gbit_per_s();
  m.mean_utilization = link.mean_utilization();
  m.peak_utilization = link.peak_utilization();
  m.loss_rate = link.loss_rate();
  m.packets_offered = link.counters().packets_offered;
  m.packets_forwarded = link.counters().packets_forwarded;
  m.packets_dropped = link.counters().packets_dropped;
  return m;
}

std::vector<std::string> hop_csv_header(std::size_t hop_count) {
  std::vector<std::string> out;
  out.reserve(hop_count * 6);
  for (std::size_t i = 0; i < hop_count; ++i) {
    const std::string prefix = "hop" + std::to_string(i) + "_";
    out.push_back(prefix + "name");
    out.push_back(prefix + "gbps");
    out.push_back(prefix + "mean_util");
    out.push_back(prefix + "peak_util");
    out.push_back(prefix + "loss");
    out.push_back(prefix + "drops");
  }
  return out;
}

std::vector<std::string> hop_csv_values(const std::vector<HopMetrics>& hops,
                                        std::size_t hop_count) {
  if (hops.size() > hop_count) {
    throw std::invalid_argument("hop_csv_values: " + std::to_string(hops.size()) +
                                " hops measured but header has room for " +
                                std::to_string(hop_count));
  }
  // 6 significant digits matches the scenario row formatting exactly, so
  // hop column groups splice into scenario CSVs without mixed precision.
  const auto num = [](double v) { return trace::ConsoleTable::num(v, 6); };
  std::vector<std::string> out;
  out.reserve(hop_count * 6);
  for (std::size_t i = 0; i < hop_count; ++i) {
    if (i >= hops.size()) {
      out.insert(out.end(), 6, "");
      continue;
    }
    const HopMetrics& h = hops[i];
    out.push_back(h.name);
    out.push_back(num(h.capacity_gbps));
    out.push_back(num(h.mean_utilization));
    out.push_back(num(h.peak_utilization));
    out.push_back(num(h.loss_rate));
    out.push_back(std::to_string(h.packets_dropped));
  }
  return out;
}

double ExperimentMetrics::max_client_fct_s() const {
  double worst = 0.0;
  for (const auto& c : clients) worst = std::max(worst, c.fct_s());
  return worst;
}

double ExperimentMetrics::mean_client_fct_s() const {
  if (clients.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& c : clients) sum += c.fct_s();
  return sum / static_cast<double>(clients.size());
}

}  // namespace sss::simnet
