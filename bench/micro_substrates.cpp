// micro_substrates — google-benchmark microbenchmarks for the hot paths of
// every substrate: event queue, packet link, busy-link dispatch, full TCP
// transfers (one hop and a 3-hop chain), the fluid model, the frame
// checksum, model evaluation, and the serving layer (decide, SSS1 encode,
// frame reassembly + decode).  These document the simulator's capacity
// (events/second) that makes the full Table-2 sweep tractable.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/completion.hpp"
#include "core/decision.hpp"
#include "core/fitting.hpp"
#include "detector/frame.hpp"
#include "serve/decide.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "simnet/fluid.hpp"
#include "simnet/link.hpp"
#include "simnet/workload.hpp"
#include "stats/percentile.hpp"
#include "stats/rng.hpp"

namespace {

using namespace sss;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  struct Noop : simnet::EventHandler {
    void on_event(simnet::Simulation&, int, std::uint64_t, std::uint64_t) override {}
  } handler;
  simnet::EventQueue queue;
  stats::Random rng(1);
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      queue.schedule(static_cast<simnet::SimTime>(rng.uniform_index(1'000'000)), handler, 0);
    }
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop());
  }
  state.SetItemsProcessed(state.iterations() * batch * 2);
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1024)->Arg(16384);

void BM_EventQueueMixedHorizon(benchmark::State& state) {
  // TCP-like mix of packet-scale offsets and a tail of RTT/RTO-scale ones,
  // popped in lockstep at a steady 1024 pending events.
  struct Noop : simnet::EventHandler {
    void on_event(simnet::Simulation&, int, std::uint64_t, std::uint64_t) override {}
  } handler;
  simnet::EventQueue queue;
  stats::Random rng(1);
  simnet::SimTime now = 0;
  for (int i = 0; i < 1024; ++i) {
    queue.schedule(now + static_cast<simnet::SimTime>(rng.uniform_index(1'000'000)), handler,
                   0);
  }
  for (auto _ : state) {
    const simnet::Event e = queue.pop();
    now = e.at;
    const std::uint64_t r = rng.uniform_index(100);
    const simnet::SimTime offset =
        r < 90 ? static_cast<simnet::SimTime>(rng.uniform_index(100'000))            // packet
               : static_cast<simnet::SimTime>(16'000'000 + rng.uniform_index(1'000'000'000));
    queue.schedule(now + offset, handler, 0);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_EventQueueMixedHorizon);

void BM_LinkTransmit(benchmark::State& state) {
  struct Sink : simnet::PacketSink {
    void on_packet(simnet::Simulation&, const simnet::Packet&) override {}
  } sink;
  simnet::Simulation sim;
  simnet::LinkConfig cfg;
  cfg.buffer = units::Bytes::gigabytes(1.0);  // never drop in the microbench
  simnet::Link link(cfg);
  const simnet::RouteStep to_sink{nullptr, &sink};
  simnet::Packet p;
  p.size_bytes = 9000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(link.transmit(sim, p, &to_sink));
    if (sim.events_scheduled() > 1'000'000) {
      state.PauseTiming();
      sim.run();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinkTransmit);

void BM_BusyLinkDispatch(benchmark::State& state) {
  // N busy links taking turns, the link-drain pattern of a shared facility
  // topology.  Each link keeps two packets in flight (its sink sends every
  // delivered packet straight back onto it) and its arrivals trail the
  // previous link's by 1 ns, so each delivery's next key falls behind every
  // other busy link's: the link re-keys to the back of the dispatch order.
  // Items = deliveries.
  struct Loopback : simnet::PacketSink {
    simnet::Link* link = nullptr;
    simnet::RouteStep back{nullptr, this};
    void on_packet(simnet::Simulation& sim, const simnet::Packet& packet) override {
      (void)link->transmit(sim, packet, &back);
    }
  };
  const auto n = static_cast<std::size_t>(state.range(0));
  simnet::Simulation sim;
  std::vector<std::unique_ptr<simnet::Link>> links;
  std::vector<Loopback> sinks(n);
  simnet::Packet packet;
  packet.size_bytes = 9000;
  for (std::size_t i = 0; i < n; ++i) {
    simnet::LinkConfig cfg;
    cfg.propagation_delay = units::Seconds::of(1e-6 + 1e-9 * static_cast<double>(i));
    links.push_back(std::make_unique<simnet::Link>(cfg));
    sinks[i].link = links.back().get();
    for (int k = 0; k < 2; ++k) (void)links[i]->transmit(sim, packet, &sinks[i].back);
  }
  // One round: every link delivers once.  Each iteration runs 64 rounds
  // the way Workload::drive runs to its deadline.
  const simnet::SimTime round =
      simnet::transmission_time(packet.size_bytes, simnet::LinkConfig{}.capacity);
  for (auto _ : state) {
    const simnet::SimTime deadline = sim.now() + 64 * round;
    sim.set_batch_horizon(deadline);
    while (sim.now() <= deadline) sim.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sim.events_processed()));
}
BENCHMARK(BM_BusyLinkDispatch)->Arg(6)->Arg(12)->Arg(64);

void BM_TcpTransfer(benchmark::State& state) {
  // Full 8 MB transfer on an idle 25 Gbps link; items = packets moved.
  const double mb = static_cast<double>(state.range(0));
  std::uint64_t packets = 0;
  for (auto _ : state) {
    simnet::Simulation sim;
    simnet::Link fwd_link(simnet::LinkConfig{}), rev_link(simnet::LinkConfig{});
    simnet::Link* const fwd[] = {&fwd_link};
    simnet::Link* const rev[] = {&rev_link};
    simnet::TcpFlow flow(1, units::Bytes::megabytes(mb), simnet::TcpConfig{}, fwd, rev);
    flow.start(sim);
    sim.run();
    packets += flow.total_packets();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
}
BENCHMARK(BM_TcpTransfer)->Arg(8)->Arg(64);

void BM_TcpTransferMultiHop(benchmark::State& state) {
  // BM_TcpTransfer/64 over an idle 3-hop chain each way: two hop hand-offs
  // per packet in each direction.  Items = packets moved.
  const simnet::LinkConfig hop;
  std::uint64_t packets = 0;
  for (auto _ : state) {
    simnet::Simulation sim;
    simnet::Link f0(hop), f1(hop), f2(hop), r0(hop), r1(hop), r2(hop);
    simnet::Link* const fwd[] = {&f0, &f1, &f2};
    simnet::Link* const rev[] = {&r0, &r1, &r2};
    simnet::TcpFlow flow(1, units::Bytes::megabytes(64.0), simnet::TcpConfig{}, fwd, rev);
    flow.start(sim);
    sim.run();
    packets += flow.total_packets();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
}
BENCHMARK(BM_TcpTransferMultiHop);

void BM_TcpTransferLossy(benchmark::State& state) {
  // 8 MB transfer through a shallow-buffered bottleneck: buffer is one BDP
  // divided by the arg, so deeper divisors force drops and push the flow
  // through fast-recovery scoreboard scans and RTO backoff.  The loss_rate
  // counter records how hard each point is hit; time-vs-divisor is the
  // cost-of-loss curve (flatter = cheaper recovery).
  simnet::LinkConfig lossy;
  lossy.buffer = units::Bytes::of(lossy.buffer.bytes() /
                                  static_cast<double>(state.range(0)));
  std::uint64_t packets = 0;
  double loss = 0.0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    simnet::Simulation sim;
    simnet::Link fwd_link(lossy), rev_link(simnet::LinkConfig{});
    simnet::Link* const fwd[] = {&fwd_link};
    simnet::Link* const rev[] = {&rev_link};
    simnet::TcpFlow flow(1, units::Bytes::megabytes(8.0), simnet::TcpConfig{}, fwd, rev);
    flow.start(sim);
    sim.run();
    packets += flow.total_packets();
    loss += fwd_link.loss_rate();
    ++runs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
  state.counters["loss_rate"] = loss / static_cast<double>(runs == 0 ? 1 : runs);
}
BENCHMARK(BM_TcpTransferLossy)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

simnet::WorkloadConfig workload_bench_config() {
  simnet::WorkloadConfig cfg;
  cfg.duration = units::Seconds::of(1.0);
  cfg.concurrency = 4;
  cfg.parallel_flows = 2;
  cfg.transfer_size = units::Bytes::megabytes(20.0);
  cfg.link.capacity = units::DataRate::gigabits_per_second(2.5);
  return cfg;
}

void BM_WorkloadExperiment(benchmark::State& state) {
  // One scaled congestion cell per iteration; items = simulation events.
  // The Workload persists across iterations, so after the first run each
  // prepare() retraces the cell's retained arena chunks with zero heap
  // allocations — the sweep executor's steady state.
  simnet::Workload workload(workload_bench_config());
  std::uint64_t events = 0;
  for (auto _ : state) {
    workload.prepare();
    workload.drive();
    const auto result = workload.finish();
    events += result.events_processed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_WorkloadExperiment);

void BM_FluidExperiment(benchmark::State& state) {
  for (auto _ : state) {
    simnet::WorkloadConfig cfg = simnet::WorkloadConfig::paper_table2(
        8, 8, simnet::SpawnMode::kSimultaneousBatches);
    benchmark::DoNotOptimize(simnet::run_fluid_experiment(cfg));
  }
}
BENCHMARK(BM_FluidExperiment);

void BM_FrameChecksum(benchmark::State& state) {
  const auto payload = detector::make_payload(detector::PayloadPattern::kNoise, 1, 0,
                                              static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector::checksum(payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrameChecksum)->Arg(64 * 1024)->Arg(8 * 1024 * 1024);

void BM_ModelEvaluation(benchmark::State& state) {
  core::DecisionInput in;
  in.params.s_unit = units::Bytes::gigabytes(2.0);
  in.params.complexity = units::Complexity::flop_per_byte(17000.0);
  in.params.r_local = units::FlopsRate::teraflops(5.0);
  in.params.r_remote = units::FlopsRate::teraflops(50.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::evaluate(in));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelEvaluation);

// --- serving layer ---------------------------------------------------------

// The pinned two-facility snapshot the serve benches answer from: the
// aps/lcls pair calibrated from the demo trace, differing in operating point
// and local compute.
serve::ServiceSnapshot serve_snapshot() {
  const std::vector<core::TransferRecord> trace = core::demo_transfer_trace();
  std::vector<serve::FacilityProfile> profiles;
  for (const char* facility : {"aps", "lcls"}) {
    core::TraceCalibrationOptions options;
    if (std::string(facility) == "lcls") {
      options.operating_utilization = 0.5;
      options.r_local = units::FlopsRate::teraflops(0.5);
    }
    profiles.push_back(serve::profile_from_report_json(
        core::calibration_report_json(core::calibrate_transfer_trace(trace, options)),
        facility));
  }
  return serve::ServiceSnapshot(1, std::move(profiles));
}

// A seeded request mix shaped like decide_open_loop's: sizes 64 MB - 8 GB
// (log-uniform), path_hops 1-4, utilizations across and past the calibrated
// range, about 1% unknown facilities.  1,024 entries (a power of two).
std::vector<serve::DecideRequest> serve_mix() {
  std::mt19937_64 rng(42);
  auto unit = [&rng] { return static_cast<double>(rng() >> 11) * 0x1.0p-53; };
  std::vector<serve::DecideRequest> mix(1024);
  for (serve::DecideRequest& request : mix) {
    const double pick = unit();
    request.facility = pick < 0.01 ? "unknown-site" : (pick < 0.505 ? "aps" : "lcls");
    request.transfer_size_bytes =
        static_cast<std::uint64_t>(64e6 * std::exp(unit() * std::log(8e9 / 64e6)));
    request.path_hops = 1 + static_cast<std::uint32_t>(rng() % 4);
    request.operating_utilization = unit() < 0.1 ? 0.0 : 0.02 + 1.18 * unit();
  }
  return mix;
}

void BM_ServeDecide(benchmark::State& state) {
  const serve::ServiceSnapshot snapshot = serve_snapshot();
  const std::vector<serve::DecideRequest> mix = serve_mix();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::decide(snapshot, mix[i++ & (mix.size() - 1)]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeDecide);

void BM_EncodeDecideResponse(benchmark::State& state) {
  // One response frame per iteration into a buffer that keeps its capacity,
  // as a worker's write buffer does.
  const serve::ServiceSnapshot snapshot = serve_snapshot();
  std::vector<serve::DecideResponse> responses;
  for (const serve::DecideRequest& request : serve_mix()) {
    responses.push_back(serve::decide(snapshot, request));
  }
  std::string out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    serve::append_decide_response(out, responses[i++ & (responses.size() - 1)]);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeDecideResponse);

void BM_FrameReaderDecode(benchmark::State& state) {
  // 1,024 request frames fed as one read burst, then reassembled and
  // decoded frame by frame; items = frames.
  std::string wire;
  for (const serve::DecideRequest& request : serve_mix()) {
    serve::append_decide_request(wire, request);
  }
  serve::FrameReader reader;
  for (auto _ : state) {
    reader.feed(wire.data(), wire.size());
    while (const auto frame = reader.next()) {
      benchmark::DoNotOptimize(serve::decode_decide_request(frame->payload, frame->payload_size));
    }
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_FrameReaderDecode);

}  // namespace

int main(int argc, char** argv) {
  // The library's own "library_build_type" context key reports how the
  // *distro* benchmark package was compiled; what matters for comparing
  // numbers is how THIS binary was compiled.  bench_baseline refuses to
  // record baselines when this says "debug".
  benchmark::AddCustomContext("sss_build_type",
#if defined(NDEBUG) && defined(__OPTIMIZE__)
                              "release"
#else
                              "debug"
#endif
  );
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
