// workload.hpp — the iperf3-style experiment orchestrator.
//
// Reproduces the measurement methodology of Section 4: an orchestrator
// spawns `concurrency` clients per second for `duration` seconds, each
// client moving `transfer_size` bytes over `parallel_flows` TCP flows
// toward an uncontended server, while the bottleneck path records interface
// counters.  Two spawning strategies are implemented, matching the paper:
//
//   kSimultaneousBatches — all clients of a given second start at the same
//     instant, creating the instantaneous congestion spikes of Fig. 2(a);
//   kScheduled — clients are assigned evenly spaced slots within their
//     second and admitted FIFO with one slot (each waits for the previous
//     transfer to finish), modeling the reserved/scheduled transfers of
//     Fig. 2(b).
//
// Client arrivals follow one of three processes (ArrivalProcess): the
// paper's per-second batches (default), an exact deterministic process that
// spaces clients 1/concurrency apart (no whole-second rounding, so
// sub-second and fractional durations spawn the exact pro-rata client
// count), or a Poisson process at `concurrency` arrivals per second.
//
// A config describes its network as a single `link`, a `path_hops` chain
// (instrument -> DTN -> WAN -> HPC), or a `topology` preset, optionally
// shared by several facility `tenants`.  normalize() resolves every form
// into one World: the edge list, the canonical route, and each tenant's
// route, size, concurrency and deadline with its defaults filled in.  It is
// the only reader of those fields; validation, the packet and fluid
// substrates, the tenant statistics and every reported capacity, RTT or
// SSS read the World.  Per-hop cross-traffic windows (`hop_cross_traffic`)
// let scenarios shift the saturating hop mid-run.
//
// `WorkloadConfig::paper_table2` transcribes Table 2 (duration 10 s,
// concurrency 1-8, parallel flows {2,4,8}, 0.5 GB per client, 25 Gbps link,
// 16 ms RTT).
#pragma once

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "simnet/arena.hpp"
#include "simnet/link.hpp"
#include "simnet/metrics.hpp"
#include "simnet/scheduler.hpp"
#include "simnet/simulation.hpp"
#include "simnet/tcp_flow.hpp"
#include "stats/rng.hpp"
#include "units/units.hpp"

namespace sss::obs {
class TimelineRecorder;  // obs/timeline.hpp
}

namespace sss::simnet {

enum class SpawnMode {
  kSimultaneousBatches,
  kScheduled,
};

[[nodiscard]] const char* to_string(SpawnMode mode);
[[nodiscard]] std::optional<SpawnMode> spawn_mode_from_string(std::string_view name);

enum class ArrivalProcess {
  kPerSecondBatch,  // historical: whole-second batches, fractional tail rounded
  kDeterministic,   // exact spacing: client i arrives at i / concurrency
  kPoisson,         // exponential interarrivals at `concurrency` per second
};

[[nodiscard]] const char* to_string(ArrivalProcess process);
[[nodiscard]] std::optional<ArrivalProcess> arrival_process_from_string(
    std::string_view name);

// Cross-traffic confined to a single hop of the forward path for a time
// window — enters and leaves the path at the hop's endpoints, like another
// facility's flows sharing only that segment.  The moving-bottleneck
// scenarios schedule several of these on different hops.
struct HopCrossTraffic {
  int hop = 0;          // index into effective_hops()
  double load = 0.2;    // fraction of THAT hop's capacity
  units::Seconds start = units::Seconds::of(0.0);
  units::Seconds until = units::Seconds::of(10.0);
  units::Bytes mean_flow_size = units::Bytes::megabytes(64.0);
  double pareto_shape = 1.5;
};

// Knobs for the trace-driven calibration scenarios (core/fitting.hpp,
// scenario family "calibration").  The packet/fluid simulators ignore
// these; they ride on WorkloadConfig so the ONE name→field binding table
// (--param and plan axes, scenario/overrides.hpp) reaches them like any
// other knob.  A plan's JSON `base` section spells them in the
// `calibration` field list of scenario/plan.cpp.
struct CalibrationKnobs {
  // Per-transfer trace CSV to calibrate from ("" = the built-in demo
  // trace, core::demo_transfer_trace()).
  std::string trace_path;
  // Utilization at which fitted parameters are read out / extrapolated.
  double operating_util = 0.64;
  // Ground truth for the synthetic closed-loop scenario
  // (fit_alpha_theta_synthetic): the generator's alpha/theta.
  double true_alpha = 0.85;
  double true_theta = 1.0;
  // Congestion sensitivity of the synthetic generator, d(t/T_th)/du.
  double congestion_slope = 2.0;

  friend bool operator==(const CalibrationKnobs&, const CalibrationKnobs&) = default;
};

// Knobs for the storage-layer scenarios (the Fig. 4 staged-vs-stream
// family).  The network simulators ignore these; like CalibrationKnobs
// they ride on WorkloadConfig so the ONE name→field binding table
// (--param and plan axes) reaches them like any other knob; plan JSON
// `base` sections spell them in plan.cpp's `storage` field list.
struct StorageKnobs {
  // Zipf exponent for object popularity in the staged-transfer generator:
  // file k receives a frame share ∝ 1/(k+1)^s.  0 = uniform (the
  // historical even split).  See storage/object_popularity.hpp.
  double zipf_skew = 0.0;

  friend bool operator==(const StorageKnobs&, const StorageKnobs&) = default;
};

struct WorkloadConfig {
  units::Seconds duration = units::Seconds::of(10.0);
  int concurrency = 4;       // clients spawned per second
  int parallel_flows = 2;    // P: TCP flows per client
  units::Bytes transfer_size = units::Bytes::gigabytes(0.5);  // per client
  SpawnMode mode = SpawnMode::kSimultaneousBatches;
  ArrivalProcess arrivals = ArrivalProcess::kPerSecondBatch;
  // The network (read only by normalize()).  `link` is the forward (data)
  // direction of a single-hop run; `path_hops` is a multi-hop forward
  // path, in order (instrument side first).  Empty path_hops = one hop over
  // `link` (the historical single-bottleneck setup).
  LinkConfig link;
  std::vector<LinkConfig> path_hops;
  TcpConfig tcp;
  std::uint64_t seed = 42;
  // Small uniform start offset per flow; breaks pathological phase locking
  // among simultaneously spawned flows, as NIC/kernel scheduling does on a
  // real host.
  units::Seconds start_jitter = units::Seconds::micros(200.0);
  // Safety cap: flows still incomplete this long after the last spawn are
  // recorded as censored.
  units::Seconds drain_timeout = units::Seconds::of(600.0);
  // Background cross-traffic injected end-to-end (every hop) for the spawn
  // window, as a fraction of the path bottleneck capacity (0 = pristine
  // path, the Table-2 setup).  Models shared-path variability; see
  // simnet/background.hpp.
  double background_load = 0.0;
  // Character of that cross-traffic (multi-tenant storm scenarios vary
  // these): mean flow size, and Pareto tail shape.  Shapes > 1 give
  // heavy-tailed sizes (closer to 1 = heavier elephants); shapes <= 1
  // have no finite mean, so the generator falls back to exponential
  // sizes instead (see simnet/background.cpp).
  units::Bytes background_mean_flow_size = units::Bytes::megabytes(64.0);
  double background_pareto_shape = 1.5;
  // Windowed cross-traffic pinned to individual hops of the forward path.
  std::vector<HopCrossTraffic> hop_cross_traffic;
  // Trace-driven calibration knobs (ignored by the simulators).
  CalibrationKnobs calibration;
  // Storage-layer workload knobs (ignored by the simulators).
  StorageKnobs storage;
  // --- facility mode (branched topology + per-tenant routing) ---------------
  // Topology preset name (simnet/topology.hpp).  Non-empty routes the
  // workload over the preset's graph: without tenants, the canonical
  // source -> sink route replaces path_hops; with tenants, every tenant's
  // flows route independently over SHARED live links (one Link per topology
  // edge), so flows crossing the same hop contend on the same queue.
  // Mutually exclusive with path_hops.
  std::string topology;
  // Facility tenants (requires `topology`).  Non-empty switches the
  // orchestrator to per-tenant routing: each tenant spawns its own client
  // population (inheriting unset knobs from this config) between its
  // (src, dst) topology nodes.
  std::vector<TenantSpec> tenants;
  // Admission scheduling for facility tenants (policy kNone = transfers
  // start at their arrival instants, the classic behaviour).
  SchedulerConfig scheduler;

  // Table 2 configuration for a given (concurrency, parallel flows) cell.
  [[nodiscard]] static WorkloadConfig paper_table2(int concurrency, int parallel_flows,
                                                   SpawnMode mode);

  // True when this is a facility workload (per-tenant routing over a
  // branched topology; see `tenants` above).
  [[nodiscard]] bool facility_mode() const { return !tenants.empty(); }
  // Views over normalize(): the canonical route's hop configs (the
  // topology's canonical route when `topology` is set, else path_hops when
  // set, else {link}), and the capacity of its slowest hop — the path's
  // effective bandwidth ceiling.
  [[nodiscard]] std::vector<LinkConfig> effective_hops() const;
  [[nodiscard]] units::DataRate bottleneck_capacity() const;
  // Offered load as a fraction of the bottleneck capacity (concurrency x
  // size per second over capacity).
  [[nodiscard]] double offered_load() const;
  // Ideal transfer time for one client at full bottleneck rate — the
  // paper's T_theoretical (0.16 s for 0.5 GB at 25 Gbps).
  [[nodiscard]] units::Seconds theoretical_transfer_time() const;
  // Every range rule on these fields, in one place: throws
  // std::invalid_argument naming the first broken rule.  The text routes
  // (--param, plan axes, plan-JSON `base`) only parse; scenario execution
  // calls this on every cell before any cell runs.
  void validate() const;
};

// One tenant of a resolved World: its route and the knobs it runs with,
// every default it inherits from the WorkloadConfig filled in.
struct WorldTenant {
  std::string name;                // declared, else "tenant<j>"; "all" for the default
  std::vector<std::size_t> route;  // edge indices, in hop order
  int concurrency = 0;             // clients per second
  units::Bytes transfer_size = units::Bytes::of(0.0);  // per client
  double deadline_s = 0.0;         // relative EDF deadline
};

// The one resolved description of the network and tenants a WorkloadConfig
// simulates.  Workload::prepare() builds one live Link per edge and routes
// every tenant over those shared links.
struct World {
  // Which config field described the network.
  enum class Source { kLink, kPathHops, kTopology };
  Source source = Source::kLink;
  // Forward links.  A topology with declared tenants contributes its whole
  // graph, in declaration order.  Every other config is a chain: the
  // preset's canonical route, or path_hops, or the single `link`.
  std::vector<LinkConfig> edges;
  // Edge indices of the canonical source -> sink route, in hop order (the
  // effective_hops() order hop_cross_traffic indexes into).
  std::vector<std::size_t> canonical;
  // The declared tenants, or else one default tenant ("all") on the
  // canonical route that inherits every workload knob.
  std::vector<WorldTenant> tenants;
  // Admission: the configured scheduler, except that mode=scheduled (slotted
  // arrivals, one transfer on the network at a time) is FIFO with one slot.
  SchedulerConfig admission;

  // The hop configs along `route` (edge indices), in hop order.
  [[nodiscard]] std::vector<LinkConfig> hops(const std::vector<std::size_t>& route) const;
  // The slowest hop along `route` (first on ties), by default the
  // canonical route's: the capacity and buffer every SSS is judged by.
  [[nodiscard]] const LinkConfig& bottleneck(const std::vector<std::size_t>& route) const;
  [[nodiscard]] const LinkConfig& bottleneck() const { return bottleneck(canonical); }
  // Twice the canonical route's summed one-way propagation delay.
  [[nodiscard]] units::Seconds rtt() const;
};

// Resolve `config` into its World: the only code that reads `link`,
// `path_hops` and `topology`, and the only code that fills in tenant
// defaults.  Throws std::invalid_argument for an unknown preset, a preset
// together with path_hops, or a tenant endpoint the preset cannot route
// (Topology::route_indices' messages).
// Plain LinkConfig chains are taken as given: path_hops may repeat or omit
// hop names, which Topology would reject.
[[nodiscard]] World normalize(const WorkloadConfig& config);

// Requested client start times in spawn order, shared by the packet and
// fluid substrates so both realize the same arrival schedule.  `rng` is
// consumed only by the Poisson process.  For kPerSecondBatch this
// reproduces the historical schedule exactly (including the rounded
// fractional trailing second); kScheduled assigns within-second slots for
// the batch process and uses the arrival instants directly otherwise.
[[nodiscard]] std::vector<double> requested_arrival_times(const WorkloadConfig& config,
                                                          stats::Random& rng);

struct ExperimentResult {
  WorkloadConfig config;
  ExperimentMetrics metrics;
  double offered_load = 0.0;
  std::uint64_t events_processed = 0;
  // High-water mark of pending events (Simulation::queue_high_water): with
  // one busy-link entry per link this stays O(links + flows) even when tens
  // of thousands of packets are in flight (pinned by
  // tests/simnet/queue_occupancy_test.cpp).
  std::uint64_t queue_high_water = 0;
  double sim_duration_s = 0.0;  // virtual time at drain
  // Retained arena capacity after the run (0 for the fluid substrate and
  // heap-backed ablation runs) — the per-cell memory figure the run
  // manifest records (obs/manifest.hpp).
  std::uint64_t arena_reserved_bytes = 0;

  // Streaming Speed Score inputs (Section 4.1).
  [[nodiscard]] double t_worst_s() const { return metrics.max_client_fct_s(); }
  [[nodiscard]] double t_theoretical_s() const {
    return config.theoretical_transfer_time().seconds();
  }
};

// Timeline attachment for one experiment cell (obs/timeline.hpp).  A null
// recorder is the default "off" state: the hot paths then pay one pointer
// compare per would-be record.  All recording is in simulation time, so an
// attached recorder never perturbs results — only observes them.
struct TimelineProbe {
  obs::TimelineRecorder* recorder = nullptr;
  // Rate limit for per-hop queue-depth / utilization counter samples.
  units::Seconds hop_sample_interval = units::Seconds::millis(100.0);
};

// One experiment cell with an owned allocation arena.
//
// The entire simulated world — event queue, links, routes, ring buffers,
// TcpFlow objects, scoreboard bitmaps, orchestrator bookkeeping — is
// bump-allocated from the cell's Arena during prepare() and freed wholesale
// afterwards (destructors run; memory release is one reset()).  Because the
// Arena retains its chunks across reset, re-running the same cell touches
// the heap zero times after the first run: drive() is allocation-free
// (pinned by tests/simnet/alloc_free_test.cpp).
//
// Lifecycle: prepare() builds the world (one live Link per hop or topology
// edge, per-tenant routes over them), drive() runs it to the drain
// deadline, finish() collects metrics (finish allocates ordinary
// heap-backed records — it is outside the hot loop).  run() does all three.
// Calling prepare() again tears down the previous world and rebuilds from
// the rewound arena, which is how sweep executors and benchmarks reuse one
// cell across repetitions.
class Workload {
 public:
  explicit Workload(WorkloadConfig config);
  ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  void prepare();
  void drive();
  [[nodiscard]] ExperimentResult finish();
  [[nodiscard]] ExperimentResult run();

  [[nodiscard]] const WorkloadConfig& config() const { return config_; }
  [[nodiscard]] const Arena& arena() const { return arena_; }

  // Attach a timeline recorder before prepare(): forward hops get counter
  // tracks, every TCP flow gets a lifecycle track, and finish() adds
  // workload-level spawn/drain spans plus per-client transfer spans.
  void set_probe(TimelineProbe probe) { probe_ = probe; }

 private:
  struct Cell;

  WorkloadConfig config_;
  Arena arena_;
  World world_;  // resolved by prepare()
  TimelineProbe probe_;
  int probe_workload_track_ = 0;  // "workload" summary track, set by prepare()
  Cell* cell_ = nullptr;  // allocated from arena_; rebuilt by prepare()
};

// Run one experiment cell.  Deterministic for a given config (including
// seed).  Full Table-2 sweeps are expressed as scenarios and fanned out by
// scenario::SweepExecutor (see scenario::detail::table2_grid).
[[nodiscard]] ExperimentResult run_experiment(const WorkloadConfig& config);

// Same, with a timeline attached (scenario --timeline path).
[[nodiscard]] ExperimentResult run_experiment(const WorkloadConfig& config,
                                              const TimelineProbe& probe);

}  // namespace sss::simnet
