// metrics.hpp — experiment measurement records.
//
// Mirrors what the paper's orchestrator collects (Section 4): network-level
// counters from the link and application-level transfer-time logs per
// client.  The maximum client completion time within an experiment is the
// paper's worst-case heuristic (T_worst).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simnet/link.hpp"
#include "units/units.hpp"

namespace sss::simnet {

struct FlowRecord {
  std::uint32_t flow_id = 0;
  std::uint32_t client_id = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  double bytes = 0.0;
  std::uint64_t retransmits = 0;
  std::uint64_t rto_events = 0;
  // True when the flow had not finished by the experiment drain deadline;
  // end_s then holds the deadline (a right-censored observation).
  bool censored = false;

  [[nodiscard]] double fct_s() const { return end_s - start_s; }
};

struct ClientRecord {
  std::uint32_t client_id = 0;
  // When the client wanted to start (its spawn instant or reserved slot).
  double requested_s = 0.0;
  // When its transfer actually began.  Equal to requested_s except under
  // admission control: scheduled mode (one-slot FIFO, so each client waits
  // for the previous transfer to finish) and facility admission policies
  // (a wait for a policy dispatch; see simnet/scheduler.hpp).
  double start_s = 0.0;
  double end_s = 0.0;  // completion of the last parallel flow
  double bytes = 0.0;  // total across parallel flows
  std::uint32_t flow_count = 0;
  // Facility-workload tenant index (0 when no tenants are declared) —
  // the partition key for per-tenant fairness reductions
  // (simnet/scheduler.hpp facility_tenant_stats).
  std::uint16_t tenant = 0;
  bool censored = false;

  // The per-client transfer time the paper logs ("detailed transfer time
  // logs per client"): measured from actual transfer start, as an iperf3
  // client reports it.
  [[nodiscard]] double fct_s() const { return end_s - start_s; }
  // Admission queue wait (0 without admission control).
  [[nodiscard]] double queue_wait_s() const { return start_s - requested_s; }
  // End-to-end latency including the wait for a slot.
  [[nodiscard]] double total_latency_s() const { return end_s - requested_s; }
};

// Per-hop interface counters for one experiment, in path order.  This is
// how "which hop saturated" reaches the trace layer: each hop becomes one
// CSV column group (see hop_csv_header / hop_csv_values).
struct HopMetrics {
  std::string name;
  double capacity_gbps = 0.0;
  double mean_utilization = 0.0;
  double peak_utilization = 0.0;
  double loss_rate = 0.0;  // dropped / offered at THIS hop
  std::uint64_t packets_offered = 0;
  std::uint64_t packets_forwarded = 0;
  std::uint64_t packets_dropped = 0;
};

// Snapshot a hop's counters / utilization into a HopMetrics record.
[[nodiscard]] HopMetrics snapshot_hop(const Link& link);

// One CSV column group per hop: hop<i>_name, hop<i>_gbps, hop<i>_mean_util,
// hop<i>_peak_util, hop<i>_loss, hop<i>_drops.  `hop_csv_values` pads with
// empty cells when a run has fewer hops than the header (so sweeps mixing
// path depths still emit rectangular tables) and throws std::invalid_argument
// when it has MORE — silently dropping the deepest hop's counters would
// lose exactly the "which hop saturated" signal these columns exist for.
[[nodiscard]] std::vector<std::string> hop_csv_header(std::size_t hop_count);
[[nodiscard]] std::vector<std::string> hop_csv_values(const std::vector<HopMetrics>& hops,
                                                      std::size_t hop_count);

struct ExperimentMetrics {
  std::vector<FlowRecord> flows;
  std::vector<ClientRecord> clients;
  // Forward-path hop counters, in path order (one entry for single-link
  // runs).  offered = forwarded + dropped holds at every hop.
  std::vector<HopMetrics> hops;

  // Path-level measurements over the spawn window.  Utilizations describe
  // the most-utilized hop (the one that actually congested); loss/drops
  // aggregate over the whole path (dropped anywhere / offered anywhere,
  // hop-local cross traffic included in both); packets_forwarded counts
  // what the LAST hop delivered.  For a one-hop path these are exactly the
  // former single-link measurements.
  double mean_utilization = 0.0;
  double peak_utilization = 0.0;
  double loss_rate = 0.0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t packets_forwarded = 0;
  std::uint64_t total_retransmits = 0;
  std::uint64_t total_rto_events = 0;

  // T_worst: maximum client transfer time (Section 4.1).  0 when empty.
  [[nodiscard]] double max_client_fct_s() const;
  [[nodiscard]] double mean_client_fct_s() const;
};

}  // namespace sss::simnet
