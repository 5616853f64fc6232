#include "simnet/workload.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory_resource>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/phase_timer.hpp"
#include "obs/timeline.hpp"
#include "simnet/background.hpp"
#include "simnet/topology.hpp"

namespace sss::simnet {

const char* to_string(SpawnMode mode) {
  switch (mode) {
    case SpawnMode::kSimultaneousBatches:
      return "simultaneous";
    case SpawnMode::kScheduled:
      return "scheduled";
  }
  return "unknown";
}

std::optional<SpawnMode> spawn_mode_from_string(std::string_view name) {
  if (name == "simultaneous") return SpawnMode::kSimultaneousBatches;
  if (name == "scheduled") return SpawnMode::kScheduled;
  return std::nullopt;
}

const char* to_string(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kPerSecondBatch:
      return "batch";
    case ArrivalProcess::kDeterministic:
      return "deterministic";
    case ArrivalProcess::kPoisson:
      return "poisson";
  }
  return "unknown";
}

std::optional<ArrivalProcess> arrival_process_from_string(std::string_view name) {
  if (name == "batch") return ArrivalProcess::kPerSecondBatch;
  if (name == "deterministic") return ArrivalProcess::kDeterministic;
  if (name == "poisson") return ArrivalProcess::kPoisson;
  return std::nullopt;
}

WorkloadConfig WorkloadConfig::paper_table2(int concurrency, int parallel_flows,
                                            SpawnMode mode) {
  WorkloadConfig cfg;
  cfg.duration = units::Seconds::of(10.0);
  cfg.concurrency = concurrency;
  cfg.parallel_flows = parallel_flows;
  cfg.transfer_size = units::Bytes::gigabytes(0.5);
  cfg.mode = mode;
  cfg.link.name = "fabric-25g";
  cfg.link.capacity = units::DataRate::gigabits_per_second(25.0);
  cfg.link.propagation_delay = units::Seconds::millis(8.0);  // 16 ms RTT
  cfg.link.buffer = units::Bytes::megabytes(50.0);           // ~1 BDP
  cfg.tcp = TcpConfig{};
  cfg.seed = 42;
  return cfg;
}

namespace {

// The one internal description of the world a WorkloadConfig simulates.
// Every config normalizes into this form, and Workload::prepare() builds
// only from it: one live Link per edge, and per-tenant routes over those
// shared links.
struct World {
  // Forward links.  A topology with declared tenants contributes its whole
  // graph, in declaration order.  Every other config is a chain: the
  // preset's canonical route, or path_hops, or the single `link`.
  std::vector<LinkConfig> edges;
  // Edge indices of the canonical source -> sink route, in hop order (the
  // effective_hops() order hop_cross_traffic indexes into).
  std::vector<std::size_t> canonical;
  // The declared tenants, or else one default tenant on the canonical route
  // that inherits every workload knob.
  std::vector<TenantSpec> tenants;
  std::vector<std::vector<std::size_t>> routes;  // edge indices, per tenant
  // Admission: the configured scheduler, except that mode=scheduled (slotted
  // arrivals, one transfer on the network at a time) is FIFO with one slot.
  SchedulerConfig admission;
};

// The only place that decides which of `link`, `path_hops` and `topology`
// describes the network.  Plain LinkConfig chains are taken as given:
// path_hops may repeat or omit hop names, which Topology would reject.
World normalize(const WorkloadConfig& config) {
  World world;
  if (!config.topology.empty()) {
    const Topology topo(topology_preset(config.topology));
    if (config.tenants.empty()) {
      world.edges = topo.canonical_route();
    } else {
      for (const TopologyLink& edge : topo.config().links) world.edges.push_back(edge.link);
      world.canonical = topo.route_indices(topo.config().source, topo.config().sink);
      world.tenants = config.tenants;
      for (const TenantSpec& tenant : world.tenants) {
        const std::string& src = tenant.src.empty() ? topo.config().source : tenant.src;
        const std::string& dst = tenant.dst.empty() ? topo.config().sink : tenant.dst;
        world.routes.push_back(topo.route_indices(src, dst));
      }
    }
  } else if (config.path_hops.empty()) {
    world.edges = {config.link};
  } else {
    world.edges = config.path_hops;
  }
  if (world.tenants.empty()) {
    for (std::size_t h = 0; h < world.edges.size(); ++h) world.canonical.push_back(h);
    world.tenants.emplace_back();
    world.routes.push_back(world.canonical);
  }
  world.admission = config.scheduler;
  if (config.mode == SpawnMode::kScheduled) {
    world.admission.policy = SchedPolicy::kFifo;
    world.admission.slots = 1;
  }
  return world;
}

void require(bool holds, const char* rule) {
  if (!holds) throw std::invalid_argument(rule);
}

// `rule` of list entry `index` ("storm 1 load must be >= 0"); the message is
// built only when the rule breaks.
void require(bool holds, const char* list, std::size_t index, const char* rule) {
  if (!holds) {
    throw std::invalid_argument(std::string(list) + " " + std::to_string(index) + " " + rule);
  }
}

}  // namespace

std::vector<LinkConfig> WorkloadConfig::effective_hops() const {
  const World world = normalize(*this);
  std::vector<LinkConfig> hops;
  hops.reserve(world.canonical.size());
  for (const std::size_t idx : world.canonical) hops.push_back(world.edges[idx]);
  return hops;
}

units::DataRate WorkloadConfig::bottleneck_capacity() const {
  const std::vector<LinkConfig> hops = effective_hops();
  return hops[bottleneck_hop_index(hops)].capacity;
}

double WorkloadConfig::offered_load() const {
  const double bytes_per_second = static_cast<double>(concurrency) * transfer_size.bytes();
  return bytes_per_second / bottleneck_capacity().bps();
}

units::Seconds WorkloadConfig::theoretical_transfer_time() const {
  return transfer_size / bottleneck_capacity();
}

// One rule per field; each is written so that NaN breaks it.
void WorkloadConfig::validate() const {
  require(duration.seconds() > 0.0, "duration must be > 0");
  require(concurrency >= 1, "concurrency must be >= 1");
  require(parallel_flows >= 1, "parallel_flows must be >= 1");
  require(transfer_size.bytes() > 0.0, "transfer_size must be > 0");
  require(start_jitter.seconds() >= 0.0, "start_jitter must be >= 0");
  require(drain_timeout.seconds() > 0.0, "drain_timeout must be > 0");
  require(background_load >= 0.0, "background_load must be >= 0");
  require(background_mean_flow_size.bytes() > 0.0, "background_mean_flow_size must be > 0");
  require(background_pareto_shape >= 0.0, "background_pareto_shape must be >= 0");
  if (!topology.empty() && !path_hops.empty()) {
    throw std::invalid_argument(
        "topology and path_hops are mutually exclusive (the topology's route "
        "replaces the explicit hop list)");
  }
  if (!tenants.empty() && topology.empty()) {
    throw std::invalid_argument("tenants require a topology preset");
  }
  if (tenants.empty() && scheduler.policy != SchedPolicy::kNone) {
    throw std::invalid_argument(
        "sched_policy requires facility tenants (tenant0_src=... etc.)");
  }
  require(scheduler.slots >= 1, "scheduler slots must be >= 1");
  require(scheduler.deadline_s > 0.0, "scheduler deadline_s must be > 0");
  require(scheduler.burst_window_s > 0.0, "scheduler burst_window_s must be > 0");
  require(scheduler.burst_limit >= 1, "scheduler burst_limit must be >= 1");
  require(scheduler.backoff_s >= 0.0, "scheduler backoff_s must be >= 0");
  if (!topology.empty()) {
    // Constructing the Topology validates the graph; routing every tenant
    // surfaces a typo'd endpoint here, with the named-endpoint message,
    // instead of deep inside prepare().
    const Topology topo(topology_preset(topology));
    if (!tenants.empty() && mode == SpawnMode::kScheduled) {
      throw std::invalid_argument(
          "facility tenants cannot use scheduled spawning; use the admission "
          "scheduler instead (sched_policy=fifo sched_slots=1)");
    }
    for (std::size_t j = 0; j < tenants.size(); ++j) {
      const TenantSpec& tenant = tenants[j];
      require(tenant.concurrency >= 0, "tenant", j, "concurrency must be >= 0");
      require(tenant.transfer_size.bytes() >= 0.0, "tenant", j, "transfer_size must be >= 0");
      require(tenant.deadline_s >= 0.0, "tenant", j, "deadline_s must be >= 0");
      const std::string& src = tenant.src.empty() ? topo.config().source : tenant.src;
      const std::string& dst = tenant.dst.empty() ? topo.config().sink : tenant.dst;
      (void)topo.route(src, dst);
    }
  }
  const std::vector<LinkConfig> hops = effective_hops();
  for (std::size_t h = 0; h < hops.size(); ++h) {
    const LinkConfig& hop = hops[h];
    require(!hop.name.empty(), "hop", h, "name must not be empty");
    require(hop.capacity.bps() > 0.0, "hop", h, "capacity must be > 0");
    require(hop.propagation_delay.seconds() > 0.0, "hop", h, "propagation_delay must be > 0");
    require(hop.buffer.bytes() >= 0.0, "hop", h, "buffer must be >= 0");
  }
  for (std::size_t j = 0; j < hop_cross_traffic.size(); ++j) {
    const HopCrossTraffic& storm = hop_cross_traffic[j];
    require(storm.hop >= 0 && static_cast<std::size_t>(storm.hop) < hops.size(), "storm", j,
            "hop must index a hop of the path");
    require(storm.load >= 0.0, "storm", j, "load must be >= 0");
    require(storm.start.seconds() >= 0.0, "storm", j, "start must be >= 0");
    require(storm.until.seconds() >= 0.0, "storm", j, "until must be >= 0");
    require(storm.load == 0.0 || storm.start < storm.until, "storm", j,
            "with load > 0 needs start < until");
    require(storm.mean_flow_size.bytes() > 0.0, "storm", j, "mean_flow_size must be > 0");
    require(storm.pareto_shape >= 0.0, "storm", j, "pareto_shape must be >= 0");
  }
  require(calibration.operating_util > 0.0, "calibration operating_util must be > 0");
  require(calibration.true_alpha > 0.0 && calibration.true_alpha <= 1.0,
          "calibration true_alpha must be in (0, 1]");
  require(calibration.true_theta >= 1.0, "calibration true_theta must be >= 1");
  require(calibration.congestion_slope >= 0.0, "calibration congestion_slope must be >= 0");
  require(storage.zipf_skew >= 0.0, "storage zipf_skew must be >= 0");
}

std::vector<double> requested_arrival_times(const WorkloadConfig& config,
                                            stats::Random& rng) {
  std::vector<double> times;
  switch (config.arrivals) {
    case ArrivalProcess::kPerSecondBatch: {
      const auto whole_seconds = static_cast<int>(config.duration.seconds());
      const double frac = config.duration.seconds() - whole_seconds;
      for (int second = 0;
           second < whole_seconds || (second == whole_seconds && frac > 0.0); ++second) {
        // A fractional trailing second spawns a proportional share of
        // clients (used by scaled-down quick runs), rounded.
        const bool partial = second == whole_seconds;
        const int clients_this_second =
            partial ? static_cast<int>(config.concurrency * frac + 0.5)
                    : config.concurrency;
        for (int i = 0; i < clients_this_second; ++i) {
          const double base = static_cast<double>(second);
          times.push_back(config.mode == SpawnMode::kScheduled
                              ? base + static_cast<double>(i) /
                                           static_cast<double>(config.concurrency)
                              : base);
        }
        if (partial) break;
      }
      break;
    }
    case ArrivalProcess::kDeterministic: {
      // Exact pro-rata count at exact even spacing: no whole-second
      // rounding, so duration 2.5 s at concurrency 4 spawns exactly 10
      // clients, 0.25 s apart.
      const auto count = static_cast<std::uint64_t>(
          std::llround(static_cast<double>(config.concurrency) *
                       config.duration.seconds()));
      times.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        times.push_back(static_cast<double>(i) /
                        static_cast<double>(config.concurrency));
      }
      break;
    }
    case ArrivalProcess::kPoisson: {
      double t = 0.0;
      for (;;) {
        t += rng.exponential(static_cast<double>(config.concurrency));
        if (t >= config.duration.seconds()) break;
        times.push_back(t);
      }
      break;
    }
  }
  return times;
}

namespace detail {

// One planned transfer: a tenant's client carrying its own route and size,
// admitted either at its arrival instant (no admission policy) or when the
// TransferScheduler dispatches it.
struct ClientPlan {
  double requested_s = 0.0;
  double deadline_s = 0.0;  // absolute EDF deadline (requested + relative)
  std::uint16_t tenant = 0;
  units::Bytes size = units::Bytes::of(0.0);
  Path* forward = nullptr;
  Path* reverse = nullptr;
};

// Spawns the planned clients (directly, or through the admission
// scheduler), and maps completed flows back to their client records.
//
// An EventHandler so flow starts, arrivals and scheduler re-checks ride the
// non-allocating typed event queue; flow objects and every table are drawn
// from the cell's memory resource.
// (Named namespace, not anonymous: an anonymous-namespace member type
// inside the externally-visible Workload::Cell trips -Wsubobject-linkage.)
class Orchestrator : public FlowObserver, public EventHandler {
 public:
  static constexpr int kStartFlow = 1;  // a = index into flows_
  static constexpr int kArrive = 3;     // a = client id; submit + pump
  static constexpr int kPump = 4;       // timed scheduler re-check

  Orchestrator(const WorkloadConfig& config, stats::Random& rng,
               std::pmr::memory_resource* mem, obs::TimelineRecorder* probe = nullptr)
      : config_(config), rng_(rng), mem_(mem), probe_(probe), flows_(mem),
        flow_client_(mem), clients_(mem), plans_(mem) {}

  ~Orchestrator() override {
    std::pmr::polymorphic_allocator<> alloc(mem_);
    for (TcpFlow* flow : flows_) alloc.delete_object(flow);
  }

  // One entry per planned client, ids assigned in plan order (arrival-time
  // order).  Without a scheduler every client spawns at its arrival
  // instant; with one, arrivals enqueue into the policy queue and spawn when
  // dispatched.  Sizing every table up front keeps the admission-time
  // spawns in the drive loop allocation-free.
  void spawn(Simulation& sim, const std::vector<ClientPlan>& plans,
             TransferScheduler* sched) {
    plans_.assign(plans.begin(), plans.end());
    sched_ = sched;
    clients_.resize(plans_.size());
    flows_.reserve(plans_.size() * static_cast<std::size_t>(config_.parallel_flows));
    flow_client_.reserve(flows_.capacity());
    for (std::size_t id = 0; id < plans_.size(); ++id) {
      ClientRecord& record = clients_[id].record;
      record.client_id = static_cast<std::uint32_t>(id);
      record.requested_s = plans_[id].requested_s;
      record.bytes = plans_[id].size.bytes();
      record.flow_count = static_cast<std::uint32_t>(config_.parallel_flows);
      record.tenant = plans_[id].tenant;
      if (sched_ == nullptr) {
        spawn_client(sim, static_cast<std::uint32_t>(id),
                     units::Seconds::of(plans_[id].requested_s));
      } else {
        sim.schedule_at(to_simtime(units::Seconds::of(plans_[id].requested_s)), *this,
                        kArrive, id);
      }
    }
  }

  void on_event(Simulation& sim, int kind, std::uint64_t a, std::uint64_t /*b*/) override {
    if (kind == kStartFlow) {
      flows_[a]->start(sim);
    } else if (kind == kArrive) {
      sched_->submit(static_cast<std::uint32_t>(a), plans_[a].tenant,
                     plans_[a].deadline_s);
      pump(sim);
    } else if (kind == kPump) {
      pump_pending_ = false;
      pump(sim);
    }
  }

  // Drain the admission queue: spawn every client the policy dispatches at
  // the current instant.  When the only obstacle is timing (backoff spacing
  // or a full burst window), schedule one kPump re-check at the scheduler's
  // earliest-possible instant; slot/queue obstacles re-pump on completion
  // or arrival instead.
  void pump(Simulation& sim) {
    for (;;) {
      double retry_at = -1.0;
      const std::optional<std::uint32_t> id =
          sched_->try_dispatch(sim.now_seconds().seconds(), &retry_at);
      if (!id.has_value()) {
        if (retry_at >= 0.0 && !pump_pending_) {
          pump_pending_ = true;
          sim.schedule_at(
              std::max(to_simtime(units::Seconds::of(retry_at)), sim.now() + 1), *this,
              kPump);
        }
        return;
      }
      spawn_client(sim, *id, sim.now_seconds());
    }
  }

  void spawn_client(Simulation& sim, std::uint32_t client_id, units::Seconds at) {
    const ClientPlan& plan = plans_[client_id];
    ClientState& state = clients_[client_id];
    state.record.start_s = at.seconds();
    state.remaining = config_.parallel_flows;
    state.spawned = true;

    const units::Bytes per_flow = plan.size / static_cast<double>(config_.parallel_flows);
    std::pmr::polymorphic_allocator<> alloc(mem_);
    for (int f = 0; f < config_.parallel_flows; ++f) {
      const auto flow_id = static_cast<std::uint32_t>(flows_.size());
      flow_client_.push_back(client_id);
      flows_.push_back(alloc.new_object<TcpFlow>(flow_id, per_flow, config_.tcp,
                                                 *plan.forward, *plan.reverse, this, mem_));
      if (probe_ != nullptr) {
        // Track names allocate from the recorder's heap, not the arena;
        // timeline capture is opt-in and outside the zero-alloc contract.
        flows_.back()->attach_probe(
            probe_, probe_->add_track("flow " + std::to_string(flow_id) + " (client " +
                                      std::to_string(client_id) + ")"));
      }
      const double jitter = rng_.uniform(0.0, config_.start_jitter.seconds());
      const SimTime start_at = to_simtime(at + units::Seconds::of(jitter));
      sim.schedule_at(std::max<SimTime>(start_at, sim.now()), *this, kStartFlow,
                      flow_id);
    }
  }

  void on_flow_complete(Simulation& sim, const TcpFlow& flow) override {
    const std::uint32_t client_id = flow_client_[flow.id()];
    ClientState& state = clients_[client_id];
    state.record.end_s =
        std::max(state.record.end_s, to_seconds(flow.end_time()).seconds());
    --state.remaining;
    if (state.remaining == 0 && sched_ != nullptr) {
      sched_->release();
      pump(sim);
    }
  }

  // Called after the simulation drains (or hits the deadline): writes flow
  // and client records, censoring incomplete ones at `deadline`.  Hop
  // counters come from the live links in world-edge order; loss aggregates
  // over every hop, and packets_forwarded sums what the (distinct) terminal
  // hops of the tenant routes delivered.
  ExperimentMetrics collect(SimTime deadline, const std::pmr::vector<Link*>& links,
                            const std::pmr::vector<std::size_t>& last_hops) const {
    ExperimentMetrics m;
    collect_records(deadline, m);

    m.hops.reserve(links.size());
    for (const Link* link : links) m.hops.push_back(snapshot_hop(*link));
    std::size_t hottest = 0;
    std::uint64_t offered = 0;
    std::uint64_t dropped = 0;
    for (std::size_t h = 0; h < m.hops.size(); ++h) {
      if (m.hops[h].mean_utilization > m.hops[hottest].mean_utilization) hottest = h;
      offered += m.hops[h].packets_offered;
      dropped += m.hops[h].packets_dropped;
    }
    m.mean_utilization = m.hops[hottest].mean_utilization;
    m.peak_utilization = m.hops[hottest].peak_utilization;
    m.loss_rate = offered > 0 ? static_cast<double>(dropped) / static_cast<double>(offered)
                              : 0.0;
    m.packets_dropped = dropped;
    for (const std::size_t idx : last_hops) {
      m.packets_forwarded += m.hops[idx].packets_forwarded;
    }
    return m;
  }

 private:
  // Flow and client records, censoring incomplete transfers at `deadline`.
  // Clients the scheduler never dispatched are censored there too, with
  // zero transfer progress.
  void collect_records(SimTime deadline, ExperimentMetrics& m) const {
    m.flows.reserve(flows_.size());
    for (const TcpFlow* flow : flows_) {
      FlowRecord r;
      r.flow_id = flow->id();
      r.client_id = flow_client_[flow->id()];
      r.start_s = to_seconds(flow->start_time()).seconds();
      r.bytes = flow->total_bytes().bytes();
      r.retransmits = flow->retransmit_count();
      r.rto_events = flow->rto_count();
      if (flow->complete()) {
        r.end_s = to_seconds(flow->end_time()).seconds();
      } else {
        r.end_s = to_seconds(deadline).seconds();
        r.censored = true;
      }
      m.total_retransmits += r.retransmits;
      m.total_rto_events += r.rto_events;
      m.flows.push_back(r);
    }
    m.clients.reserve(clients_.size());
    for (const ClientState& state : clients_) {
      ClientRecord r = state.record;
      if (!state.spawned) r.start_s = to_seconds(deadline).seconds();
      if (!state.spawned || state.remaining > 0) {
        r.censored = true;
        r.end_s = to_seconds(deadline).seconds();
      }
      m.clients.push_back(r);
    }
  }

  struct ClientState {
    ClientRecord record;
    int remaining = 0;
    bool spawned = false;
  };

  const WorkloadConfig& config_;
  stats::Random& rng_;
  std::pmr::memory_resource* mem_;
  obs::TimelineRecorder* probe_;  // null = timeline off
  std::pmr::vector<TcpFlow*> flows_;             // allocated from mem_
  std::pmr::vector<std::uint32_t> flow_client_;  // parallel to flows_
  std::pmr::vector<ClientState> clients_;        // indexed by client_id
  std::pmr::vector<ClientPlan> plans_;           // indexed by client_id
  TransferScheduler* sched_ = nullptr;           // admission (may be null)
  bool pump_pending_ = false;                    // at most one outstanding kPump
};

}  // namespace detail

// The world one experiment cell simulates: ONE live Link per world edge
// (`links`, plus matching ACK-direction twins in `rlinks`) and non-owning
// routed Paths over them (`paths`), so every flow crossing the same hop —
// any tenant's, or background traffic's — contends on the same queue.
// Everything here draws from the cell's memory resource; the destructor
// tears down background traffic and flows before the paths they ride on,
// and paths before the links.
struct Workload::Cell {
  Simulation sim;
  stats::Random rng;
  std::pmr::vector<Link*> links;   // live forward links, world-edge order
  std::pmr::vector<Link*> rlinks;  // reverse (ACK) twins, same order
  std::pmr::vector<Path*> paths;   // non-owning routed paths
  // Distinct terminal-hop link indices (one per tenant route end).
  std::pmr::vector<std::size_t> last_hop_links;
  detail::Orchestrator* orchestrator = nullptr;
  TransferScheduler* scheduler = nullptr;  // null without an admission policy
  std::pmr::vector<BackgroundTraffic*> backgrounds;
  std::pmr::memory_resource* mem;
  SimTime deadline = 0;

  Cell(const WorkloadConfig& config, std::pmr::memory_resource* m)
      : sim(m),
        rng(config.seed),
        links(m),
        rlinks(m),
        paths(m),
        last_hop_links(m),
        backgrounds(m),
        mem(m) {}

  ~Cell() {
    std::pmr::polymorphic_allocator<> alloc(mem);
    for (BackgroundTraffic* bg : backgrounds) alloc.delete_object(bg);
    if (orchestrator != nullptr) alloc.delete_object(orchestrator);
    if (scheduler != nullptr) alloc.delete_object(scheduler);
    for (Path* path : paths) alloc.delete_object(path);
    for (Link* link : links) alloc.delete_object(link);
    for (Link* link : rlinks) alloc.delete_object(link);
  }

  // Forward and reverse non-owning Paths over `route` (edge indices): data
  // crosses the live links in route order, ACKs return over their twins.
  std::pair<Path*, Path*> route_paths(const std::vector<std::size_t>& route) {
    std::vector<Link*> fwd;
    std::vector<Link*> rev;
    fwd.reserve(route.size());
    rev.reserve(route.size());
    for (const std::size_t idx : route) fwd.push_back(links[idx]);
    for (auto it = route.rbegin(); it != route.rend(); ++it) rev.push_back(rlinks[*it]);
    std::pmr::polymorphic_allocator<> alloc(mem);
    paths.push_back(alloc.new_object<Path>(fwd, mem));
    Path* forward = paths.back();
    paths.push_back(alloc.new_object<Path>(rev, mem));
    return {forward, paths.back()};
  }

  // Cross-traffic over `route`, scheduled immediately.
  void add_background(const BackgroundTrafficConfig& bg,
                      const std::vector<std::size_t>& route) {
    const auto [forward, reverse] = route_paths(route);
    std::pmr::polymorphic_allocator<> alloc(mem);
    backgrounds.push_back(alloc.new_object<BackgroundTraffic>(bg, *forward, *reverse, mem));
    backgrounds.back()->schedule(sim);
  }
};

Workload::Workload(WorkloadConfig config) : config_(std::move(config)) {
  config_.validate();
}

Workload::~Workload() {
  if (cell_ != nullptr) std::pmr::polymorphic_allocator<>(&arena_).delete_object(cell_);
}

// Build the normalized world: one live Link per edge (plus reverse ACK
// twins), every tenant routed over the SHARED links via non-owning Paths,
// the tenants' arrival processes merged into one client plan, and the plan
// handed to the orchestrator — gated by a TransferScheduler when the world
// has an admission policy.
void Workload::prepare() {
  const obs::ScopedPhase obs_phase(obs::Phase::kPrepare);
  std::pmr::polymorphic_allocator<> alloc(&arena_);
  if (cell_ != nullptr) {
    // Destructors must run while the arena memory is still valid; the
    // wholesale release is the reset() below.
    alloc.delete_object(cell_);
    cell_ = nullptr;
    arena_.reset();
  }

  cell_ = alloc.new_object<Cell>(config_, &arena_);
  Cell& cell = *cell_;
  const World world = normalize(config_);

  cell.links.reserve(world.edges.size());
  cell.rlinks.reserve(world.edges.size());
  for (const LinkConfig& edge : world.edges) {
    cell.links.push_back(alloc.new_object<Link>(edge, &arena_));
  }
  for (const LinkConfig& edge : world.edges) {
    cell.rlinks.push_back(alloc.new_object<Link>(reverse_link(edge), &arena_));
  }
  // Every link may be busy at once: size the busy-link ring here, not in
  // drive().
  cell.sim.reserve_links(cell.links.size() + cell.rlinks.size());

  if (probe_.recorder != nullptr) {
    // Track order fixes the Perfetto row order: workload summary first,
    // then one counter track per forward hop, then flows as they spawn
    // (and per-client spans appended by finish()).
    probe_workload_track_ = probe_.recorder->add_track("workload");
    for (std::size_t h = 0; h < world.edges.size(); ++h) {
      const int track = probe_.recorder->add_track("hop" + std::to_string(h) + " " +
                                                   world.edges[h].name);
      cell.links[h]->attach_probe(probe_.recorder, track,
                                  to_simtime(probe_.hop_sample_interval));
    }
  }

  std::vector<std::pair<Path*, Path*>> tenant_paths;
  tenant_paths.reserve(world.tenants.size());
  for (const std::vector<std::size_t>& route : world.routes) {
    tenant_paths.push_back(cell.route_paths(route));
    if (std::find(cell.last_hop_links.begin(), cell.last_hop_links.end(), route.back()) ==
        cell.last_hop_links.end()) {
      cell.last_hop_links.push_back(route.back());
    }
  }

  if (world.admission.policy != SchedPolicy::kNone) {
    cell.scheduler =
        alloc.new_object<TransferScheduler>(world.admission, world.tenants.size(), &arena_);
  }
  cell.orchestrator =
      alloc.new_object<detail::Orchestrator>(config_, cell.rng, &arena_, probe_.recorder);

  // Merge the tenants' arrival processes into one plan, in arrival-time
  // order; ties keep tenant-index order (stable sort), so the schedule is
  // deterministic.  The per-tenant generators run sequentially against the
  // cell RNG (only Poisson consumes it).
  std::vector<std::pair<double, std::size_t>> merged;
  for (std::size_t j = 0; j < world.tenants.size(); ++j) {
    WorkloadConfig tenant_cfg = config_;
    if (world.tenants[j].concurrency > 0) tenant_cfg.concurrency = world.tenants[j].concurrency;
    for (const double at : requested_arrival_times(tenant_cfg, cell.rng)) {
      merged.emplace_back(at, j);
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const std::pair<double, std::size_t>& x,
                      const std::pair<double, std::size_t>& y) {
                     return x.first < y.first;
                   });

  std::vector<detail::ClientPlan> plans;
  plans.reserve(merged.size());
  for (const auto& [at, j] : merged) {
    const TenantSpec& tenant = world.tenants[j];
    detail::ClientPlan plan;
    plan.requested_s = at;
    plan.deadline_s =
        at + (tenant.deadline_s > 0.0 ? tenant.deadline_s : world.admission.deadline_s);
    plan.tenant = static_cast<std::uint16_t>(j);
    plan.size =
        tenant.transfer_size.bytes() > 0.0 ? tenant.transfer_size : config_.transfer_size;
    plan.forward = tenant_paths[j].first;
    plan.reverse = tenant_paths[j].second;
    plans.push_back(plan);
  }
  cell.orchestrator->spawn(cell.sim, plans, cell.scheduler);

  // Background load rides the canonical source -> sink route; hop-local
  // cross traffic enters and leaves at one canonical hop's endpoints.
  if (config_.background_load > 0.0) {
    BackgroundTrafficConfig bg;
    bg.target_load = config_.background_load;
    bg.mean_flow_size = config_.background_mean_flow_size;
    bg.pareto_shape = config_.background_pareto_shape;
    bg.until = config_.duration;
    bg.tcp = config_.tcp;
    bg.seed = config_.seed ^ 0x9e3779b97f4a7c15ULL;
    cell.add_background(bg, world.canonical);
  }
  for (std::size_t i = 0; i < config_.hop_cross_traffic.size(); ++i) {
    const HopCrossTraffic& x = config_.hop_cross_traffic[i];
    if (x.load == 0.0) continue;
    BackgroundTrafficConfig bg;
    bg.target_load = x.load;
    bg.mean_flow_size = x.mean_flow_size;
    bg.pareto_shape = x.pareto_shape;
    bg.start = x.start;
    bg.until = x.until;
    bg.tcp = config_.tcp;
    bg.seed = stats::SplitMix64(config_.seed ^ (0xa24baed4963ee407ULL + i)).next();
    cell.add_background(bg, {world.canonical[static_cast<std::size_t>(x.hop)]});
  }

  cell.deadline = to_simtime(config_.duration) + to_simtime(config_.drain_timeout);
}

void Workload::drive() {
  const obs::ScopedPhase obs_phase(obs::Phase::kDrive);
  Cell& cell = *cell_;
  // Link drains may deliver packets inline; capping them at the deadline
  // keeps the stop point identical to one-event-per-step dispatch (which
  // runs at most one event past the deadline).
  cell.sim.set_batch_horizon(cell.deadline);
  while (!cell.sim.empty() && cell.sim.now() <= cell.deadline) {
    cell.sim.step();
  }
}

ExperimentResult Workload::finish() {
  const obs::ScopedPhase obs_phase(obs::Phase::kFinish);
  Cell& cell = *cell_;
  ExperimentResult result;
  result.config = config_;
  result.offered_load = config_.offered_load();
  result.metrics = cell.orchestrator->collect(cell.deadline, cell.links, cell.last_hop_links);
  result.events_processed = cell.sim.events_processed();
  result.queue_high_water = cell.sim.queue_high_water();
  result.sim_duration_s = cell.sim.now_seconds().seconds();
  result.arena_reserved_bytes = arena_.stats().reserved_bytes;

  if (probe_.recorder != nullptr) {
    obs::TimelineRecorder& rec = *probe_.recorder;
    const SimTime spawn_end = to_simtime(config_.duration);
    rec.complete_span(probe_workload_track_, "spawn-window", 0, spawn_end);
    if (cell.sim.now() > spawn_end) {
      rec.complete_span(probe_workload_track_, "drain", spawn_end, cell.sim.now());
    }
    // Client-level transfer spans, synthesized from the collected records
    // (finish is outside the hot loop, so ordinary allocation is fine).
    for (const ClientRecord& client : result.metrics.clients) {
      const int track = rec.add_track("client " + std::to_string(client.client_id));
      rec.complete_span(track, client.censored ? "transfer (censored)" : "transfer",
                        to_simtime(units::Seconds::of(client.start_s)),
                        to_simtime(units::Seconds::of(client.end_s)));
    }
    // Per-declared-tenant scheduler-queue tracks — one "queued" span per
    // client that waited for admission, so policy head-of-line blocking is
    // visible on the timeline. The tracks are keyed on declared tenants, so
    // scheduled-mode timelines (one default tenant) get none.
    if (!config_.tenants.empty()) {
      std::vector<int> tenant_tracks(config_.tenants.size(), -1);
      for (const ClientRecord& client : result.metrics.clients) {
        if (client.queue_wait_s() <= 1e-9) continue;
        const std::size_t j = std::min<std::size_t>(client.tenant, config_.tenants.size() - 1);
        if (tenant_tracks[j] < 0) {
          const std::string& name = config_.tenants[j].name;
          tenant_tracks[j] =
              rec.add_track("sched " + (name.empty() ? "tenant" + std::to_string(j) : name));
        }
        rec.complete_span(tenant_tracks[j], "queued",
                          to_simtime(units::Seconds::of(client.requested_s)),
                          to_simtime(units::Seconds::of(client.start_s)));
      }
    }
  }
  return result;
}

ExperimentResult Workload::run() {
  prepare();
  drive();
  return finish();
}

ExperimentResult run_experiment(const WorkloadConfig& config) {
  return Workload(config).run();
}

ExperimentResult run_experiment(const WorkloadConfig& config, const TimelineProbe& probe) {
  Workload workload(config);
  workload.set_probe(probe);
  return workload.run();
}

}  // namespace sss::simnet
