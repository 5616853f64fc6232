#include "simnet/topology.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <stdexcept>

namespace sss::simnet {

namespace {

// Buffer sized to one bandwidth-delay product of the hop at the given
// end-to-end RTT — the same switch sizing rule LinkConfig defaults to.
units::Bytes bdp_buffer(units::DataRate capacity, units::Seconds rtt) {
  return units::Bytes::of(capacity.bps() * rtt.seconds());
}

TopologyLink hop(std::string from, std::string to, std::string name, double gbps,
                 double one_way_ms, units::Bytes buffer) {
  TopologyLink l;
  l.from = std::move(from);
  l.to = std::move(to);
  l.link.name = std::move(name);
  l.link.capacity = units::DataRate::gigabits_per_second(gbps);
  l.link.propagation_delay = units::Seconds::millis(one_way_ms);
  l.link.buffer = buffer;
  return l;
}

// Comma-joined node list for error messages: a typo'd endpoint error that
// names the candidates is fixable from the message alone.
std::string join_nodes(const std::vector<std::string>& nodes) {
  std::string out;
  for (const std::string& node : nodes) {
    if (!out.empty()) out += ", ";
    out += node;
  }
  return out;
}

}  // namespace

Topology::Topology(TopologyConfig config) : config_(std::move(config)) {
  if (config_.name.empty()) throw std::invalid_argument("Topology: name must not be empty");
  if (config_.nodes.empty()) throw std::invalid_argument("Topology: need at least one node");
  std::set<std::string> nodes(config_.nodes.begin(), config_.nodes.end());
  if (nodes.size() != config_.nodes.size()) {
    throw std::invalid_argument("Topology '" + config_.name + "': duplicate node name");
  }
  std::set<std::string> link_names;
  std::map<std::pair<std::string, std::string>, const TopologyLink*> endpoints;
  for (const TopologyLink& l : config_.links) {
    if (l.link.name.empty()) {
      throw std::invalid_argument("Topology '" + config_.name + "': unnamed link");
    }
    if (!link_names.insert(l.link.name).second) {
      throw std::invalid_argument("Topology '" + config_.name + "': duplicate link '" +
                                  l.link.name + "'");
    }
    // A typo'd endpoint must fail HERE, naming link and node — not later as
    // an unexplained "no route" from an unreachable graph.
    if (nodes.count(l.from) == 0) {
      throw std::invalid_argument("Topology '" + config_.name + "': link '" + l.link.name +
                                  "' references undeclared node '" + l.from +
                                  "' (nodes: " + join_nodes(config_.nodes) + ")");
    }
    if (nodes.count(l.to) == 0) {
      throw std::invalid_argument("Topology '" + config_.name + "': link '" + l.link.name +
                                  "' references undeclared node '" + l.to +
                                  "' (nodes: " + join_nodes(config_.nodes) + ")");
    }
    // Two links over the same directed pair: BFS would always take the
    // first, silently stranding the second — a config mistake, not a graph.
    const auto [it, inserted] = endpoints.emplace(std::make_pair(l.from, l.to), &l);
    if (!inserted) {
      throw std::invalid_argument("Topology '" + config_.name + "': links '" +
                                  it->second->link.name + "' and '" + l.link.name +
                                  "' duplicate the pair " + l.from + " -> " + l.to);
    }
    if (!l.link.capacity.is_positive()) {
      throw std::invalid_argument("Topology '" + config_.name + "': link '" + l.link.name +
                                  "' capacity must be positive");
    }
  }
  if (!config_.source.empty() && nodes.count(config_.source) == 0) {
    throw std::invalid_argument("Topology '" + config_.name + "': unknown source node");
  }
  if (!config_.sink.empty() && nodes.count(config_.sink) == 0) {
    throw std::invalid_argument("Topology '" + config_.name + "': unknown sink node");
  }
}

std::vector<std::size_t> Topology::route_indices(const std::string& from,
                                                 const std::string& to) const {
  const auto known = [&](const std::string& node) {
    return std::find(config_.nodes.begin(), config_.nodes.end(), node) !=
           config_.nodes.end();
  };
  // Name WHICH endpoint is unknown and what would have been accepted — a
  // one-character typo in a tenant spec should be fixable from the message.
  if (!known(from)) {
    throw std::invalid_argument("Topology '" + config_.name +
                                "': unknown route source '" + from +
                                "' (nodes: " + join_nodes(config_.nodes) + ")");
  }
  if (!known(to)) {
    throw std::invalid_argument("Topology '" + config_.name +
                                "': unknown route destination '" + to +
                                "' (nodes: " + join_nodes(config_.nodes) + ")");
  }
  // A self-route has no hops; letting the empty vector escape explodes far
  // from the cause (profile_path's "need at least one hop", Path's ctor).
  if (from == to) {
    throw std::invalid_argument("Topology '" + config_.name + "': self-route '" + from +
                                "' -> '" + to + "' has no hops");
  }

  // BFS over directed links; predecessor stored as the link index taken to
  // reach each node, ties broken by declaration order via queue discipline.
  std::map<std::string, std::size_t> via;  // node -> incoming link index
  std::deque<std::string> frontier{from};
  std::set<std::string> visited{from};
  while (!frontier.empty() && visited.count(to) == 0) {
    const std::string node = frontier.front();
    frontier.pop_front();
    for (std::size_t i = 0; i < config_.links.size(); ++i) {
      const TopologyLink& l = config_.links[i];
      if (l.from != node || visited.count(l.to) != 0) continue;
      visited.insert(l.to);
      via.emplace(l.to, i);
      frontier.push_back(l.to);
    }
  }
  if (visited.count(to) == 0) {
    throw std::invalid_argument("Topology '" + config_.name + "': no route " + from +
                                " -> " + to);
  }

  std::vector<std::size_t> indices;
  for (std::string node = to; node != from;) {
    const std::size_t i = via.at(node);
    indices.push_back(i);
    node = config_.links[i].from;
  }
  std::reverse(indices.begin(), indices.end());
  return indices;
}

std::vector<LinkConfig> Topology::route(const std::string& from,
                                        const std::string& to) const {
  std::vector<LinkConfig> hops;
  for (const std::size_t i : route_indices(from, to)) {
    hops.push_back(config_.links[i].link);
  }
  return hops;
}

std::vector<LinkConfig> Topology::canonical_route() const {
  if (config_.source.empty() || config_.sink.empty()) {
    throw std::logic_error("Topology '" + config_.name + "': no canonical endpoints set");
  }
  return route(config_.source, config_.sink);
}

TopologyConfig topology_preset(const std::string& name) {
  if (name == "aps_to_alcf") {
    // The paper's Table-2 path resolved into hops: a 40 GbE detector-side
    // DTN NIC, the 25 Gbps ESnet share (the measured bottleneck), and a
    // 40 GbE ALCF ingest.  One-way delays sum to 8 ms — the paper's 16 ms
    // RTT — and buffers are ~1 BDP of each hop at that RTT.
    TopologyConfig cfg;
    cfg.name = "aps_to_alcf";
    cfg.nodes = {"instrument", "aps_dtn", "esnet", "alcf"};
    cfg.source = "instrument";
    cfg.sink = "alcf";
    const units::Seconds rtt = units::Seconds::millis(16.0);
    cfg.links = {
        hop("instrument", "aps_dtn", "aps-dtn-nic", 40.0, 0.25,
            bdp_buffer(units::DataRate::gigabits_per_second(40.0), rtt)),
        hop("aps_dtn", "esnet", "esnet-wan", 25.0, 7.5,
            units::Bytes::megabytes(50.0)),
        hop("esnet", "alcf", "alcf-ingest", 40.0, 0.25,
            bdp_buffer(units::DataRate::gigabits_per_second(40.0), rtt)),
    };
    return cfg;
  }
  if (name == "lcls_to_nersc_esnet") {
    // LCLS-II at SLAC streaming to NERSC over ESnet: 100 GbE out of the
    // experiment hall and across the backbone, landing on a 50 Gbps
    // per-workflow ingest share at NERSC (the typical saturating hop).
    TopologyConfig cfg;
    cfg.name = "lcls_to_nersc_esnet";
    cfg.nodes = {"lcls", "slac_dtn", "esnet", "nersc_dtn", "pscratch"};
    cfg.source = "lcls";
    cfg.sink = "pscratch";
    const units::Seconds rtt = units::Seconds::millis(4.0);
    cfg.links = {
        hop("lcls", "slac_dtn", "lcls-nic", 100.0, 0.1,
            bdp_buffer(units::DataRate::gigabits_per_second(100.0), rtt)),
        hop("slac_dtn", "esnet", "slac-esnet", 100.0, 0.4,
            bdp_buffer(units::DataRate::gigabits_per_second(100.0), rtt)),
        hop("esnet", "nersc_dtn", "esnet-backbone", 100.0, 1.0,
            bdp_buffer(units::DataRate::gigabits_per_second(100.0), rtt)),
        hop("nersc_dtn", "pscratch", "nersc-ingest", 50.0, 0.5,
            bdp_buffer(units::DataRate::gigabits_per_second(50.0), rtt)),
    };
    return cfg;
  }
  if (name == "edge_dtn_wan_hpc") {
    // Generic balanced chain for bottleneck-placement experiments: every
    // hop is 25 Gbps so resizing any one of them moves the saturation
    // point; delays mirror the paper's 16 ms RTT split edge/WAN/ingest.
    TopologyConfig cfg;
    cfg.name = "edge_dtn_wan_hpc";
    cfg.nodes = {"edge", "dtn", "wan", "hpc"};
    cfg.source = "edge";
    cfg.sink = "hpc";
    cfg.links = {
        hop("edge", "dtn", "edge-nic", 25.0, 0.1, units::Bytes::megabytes(50.0)),
        hop("dtn", "wan", "wan-backbone", 25.0, 7.5, units::Bytes::megabytes(50.0)),
        hop("wan", "hpc", "hpc-ingest", 25.0, 0.4, units::Bytes::megabytes(50.0)),
    };
    return cfg;
  }
  if (name == "diamond") {
    // Two parallel 2-hop branches between one source and one sink — the
    // smallest graph where routing is a CHOICE.  BFS tie-break (declaration
    // order) sends the canonical route over the north branch; the south
    // branch only carries flows whose (src, dst) pins an interior node,
    // which is exactly what the branched-routing goldens exercise.
    TopologyConfig cfg;
    cfg.name = "diamond";
    cfg.nodes = {"src", "north", "south", "dst"};
    cfg.source = "src";
    cfg.sink = "dst";
    cfg.links = {
        hop("src", "north", "north-in", 25.0, 0.5, units::Bytes::megabytes(50.0)),
        hop("north", "dst", "north-out", 25.0, 0.5, units::Bytes::megabytes(50.0)),
        hop("src", "south", "south-in", 25.0, 0.5, units::Bytes::megabytes(50.0)),
        hop("south", "dst", "south-out", 25.0, 0.5, units::Bytes::megabytes(50.0)),
    };
    return cfg;
  }
  if (name == "dual_facility_fanout") {
    // The facility-contention graph: three instruments funnel through one
    // site DTN onto a shared 50 Gbps WAN uplink, which fans out to two HPC
    // facilities with asymmetric ingest shares (25 vs 40 Gbps).  Every
    // tenant crosses the shared site-wan hop — the natural place admission
    // scheduling gates — while the dst choice (fac_a vs fac_b) reproduces
    // the multi-site "choose WHICH facility" dispatch decision.  The
    // canonical route lands on the smaller fac_a ingest, the conservative
    // default.
    TopologyConfig cfg;
    cfg.name = "dual_facility_fanout";
    cfg.nodes = {"ins0", "ins1", "ins2", "site_dtn", "wan_hub", "fac_a", "fac_b"};
    cfg.source = "ins0";
    cfg.sink = "fac_a";
    cfg.links = {
        hop("ins0", "site_dtn", "ins0-nic", 40.0, 0.1, units::Bytes::megabytes(50.0)),
        hop("ins1", "site_dtn", "ins1-nic", 40.0, 0.1, units::Bytes::megabytes(50.0)),
        hop("ins2", "site_dtn", "ins2-nic", 40.0, 0.1, units::Bytes::megabytes(50.0)),
        hop("site_dtn", "wan_hub", "site-wan", 50.0, 4.0, units::Bytes::megabytes(50.0)),
        hop("wan_hub", "fac_a", "fac-a-ingest", 25.0, 0.5, units::Bytes::megabytes(50.0)),
        hop("wan_hub", "fac_b", "fac-b-ingest", 40.0, 0.5, units::Bytes::megabytes(50.0)),
    };
    return cfg;
  }
  std::string known;
  for (const std::string& preset : topology_preset_names()) {
    known += (known.empty() ? "" : ", ") + preset;
  }
  throw std::invalid_argument("unknown topology preset '" + name + "'; expected one of: " +
                              known);
}

std::vector<std::string> topology_preset_names() {
  return {"aps_to_alcf", "diamond", "dual_facility_fanout", "edge_dtn_wan_hpc",
          "lcls_to_nersc_esnet"};
}

}  // namespace sss::simnet
