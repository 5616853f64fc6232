// topology.hpp — named multi-hop network topologies.
//
// A Topology is a declarative graph of named nodes joined by directed
// links (each carrying a full LinkConfig).  It answers routing questions
// ("which hop sequence connects the instrument to the HPC ingest?") and
// produces the ordered LinkConfig list a simnet::Path instantiates into
// live links for one experiment.  Keeping the topology declarative — no
// live Link state — means a WorkloadConfig stays a copyable value and
// run_experiment stays a pure function, which the parallel SweepExecutor's
// determinism contract depends on.
//
// The preset catalog transcribes representative instrument -> DTN -> WAN ->
// HPC chains (order-of-magnitude parameters from public facility
// descriptions, in the spirit of storage/presets.hpp):
//   aps_to_alcf          — APS detector -> APS DTN -> ESnet -> ALCF ingest;
//                          bottleneck 25 Gbps, 16 ms end-to-end RTT (the
//                          paper's Table-2 path, now resolved into hops).
//   lcls_to_nersc_esnet  — LCLS-II -> SLAC DTN -> ESnet backbone -> NERSC
//                          ingest; 100 Gbps hops into a 50 Gbps ingest.
//   edge_dtn_wan_hpc     — a generic balanced 3-hop chain (25 Gbps each)
//                          used by the bottleneck-placement sweeps: resize
//                          any single hop to move the saturation point.
//   diamond              — two parallel 2-hop branches between one source
//                          and one sink; the branched-routing golden (BFS
//                          tie-break picks the first-declared branch).
//   dual_facility_fanout — three instruments funneling through a shared
//                          site DTN + WAN hub that fans out to two HPC
//                          facilities; the facility-contention scenarios'
//                          multi-source / multi-sink graph.
#pragma once

#include <string>
#include <vector>

#include "simnet/link.hpp"
#include "units/units.hpp"

namespace sss::simnet {

struct TopologyLink {
  std::string from;
  std::string to;
  LinkConfig link;  // link.name is the hop's display/CSV name
};

struct TopologyConfig {
  std::string name;
  std::vector<std::string> nodes;
  std::vector<TopologyLink> links;
  // Endpoints of the canonical data path (instrument side, HPC side).
  std::string source;
  std::string sink;
};

class Topology {
 public:
  // Validates the graph: non-empty, unique node and link names, unique
  // (from, to) pairs (a duplicated pair is always a config typo — the
  // second link would be unroutable, BFS takes the first), every link
  // endpoint a declared node (named in the error — a typo'd endpoint must
  // not surface later as a mystifying "no route"), positive capacities.
  // Throws std::invalid_argument on violations.
  explicit Topology(TopologyConfig config);

  [[nodiscard]] const TopologyConfig& config() const { return config_; }
  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] std::size_t node_count() const { return config_.nodes.size(); }
  [[nodiscard]] std::size_t link_count() const { return config_.links.size(); }

  // Hop configs along the fewest-hop route `from` -> `to` (BFS over the
  // directed links; ties broken by link declaration order, so routing is
  // deterministic).  Throws std::invalid_argument naming the offending
  // endpoint (with the declared node list) when a node is unknown, on
  // self-routes (`from == to` has no hops to run a flow over), and when no
  // directed route exists.
  [[nodiscard]] std::vector<LinkConfig> route(const std::string& from,
                                              const std::string& to) const;
  // Same route as link INDICES into config().links — the form per-flow
  // routing uses to map a tenant's route onto the one shared set of live
  // links, so flows crossing the same hop contend on the same Link object.
  [[nodiscard]] std::vector<std::size_t> route_indices(const std::string& from,
                                                       const std::string& to) const;
  // The canonical source -> sink route.
  [[nodiscard]] std::vector<LinkConfig> canonical_route() const;

 private:
  TopologyConfig config_;
};

// Preset catalog.  `topology_preset` throws std::invalid_argument for an
// unknown name, listing the valid ones; `topology_preset_names` lists the
// catalog in sorted order.
[[nodiscard]] TopologyConfig topology_preset(const std::string& name);
[[nodiscard]] std::vector<std::string> topology_preset_names();

}  // namespace sss::simnet
