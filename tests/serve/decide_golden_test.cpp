// Byte golden for the serving hot path: a seeded mix of 512 requests is
// answered by serve::decide and encoded by append_decide_response, and every
// frame must match tests/data/decide_golden.hex (one lowercase hex line per
// response frame, header included).  The mix covers the edges of every
// request field — path_hops 0, 1, 2-4, 64 and 65; transfer sizes 0, 1, up
// to 2^60 and 2^60+1; utilization 0, negative, NaN, +/-Inf and past both
// ends of the calibrated range; an unknown facility; an empty snapshot — so
// any change to the decision arithmetic or the wire encoding shows up as a
// moved line.  The actual lines are also written to
// <build>/tests/decide_golden.actual.hex for diffing.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/fitting.hpp"
#include "serve/decide.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "trace/json.hpp"

namespace sss::serve {
namespace {

constexpr std::size_t kMixSize = 512;
constexpr std::uint64_t kSeed = 20251017;

// Two profiles calibrated from the demo trace, built like the aps/lcls pair
// decide_open_loop serves (lcls: other operating point, slower local
// compute).  Here lcls also analyses 1000 flop/byte, so streaming wins on
// short paths and local processing on deep ones: the mix crosses the
// decision boundary instead of answering "local" throughout.
std::vector<FacilityProfile> demo_profiles() {
  const std::vector<core::TransferRecord> trace = core::demo_transfer_trace();
  std::vector<FacilityProfile> profiles;
  for (const char* facility : {"aps", "lcls"}) {
    core::TraceCalibrationOptions options;
    if (std::string(facility) == "lcls") {
      options.operating_utilization = 0.5;
      options.r_local = units::FlopsRate::teraflops(0.5);
      options.complexity = units::Complexity::flop_per_byte(1000.0);
    }
    const trace::JsonValue report =
        core::calibration_report_json(core::calibrate_transfer_trace(trace, options));
    profiles.push_back(profile_from_report_json(report, facility));
  }
  return profiles;
}

// A uniform double in [lo, hi) from the top 53 bits (mt19937_64 is fully
// specified by the standard; the <random> distributions are not).
double uniform(std::mt19937_64& rng, double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

std::vector<DecideRequest> golden_mix() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::uint64_t kCap = kMaxTransferSizeBytes;
  std::vector<DecideRequest> mix;
  auto add = [&](std::string facility, std::uint32_t hops, std::uint64_t size,
                 double utilization) {
    mix.push_back(DecideRequest{std::move(facility), size, utilization, hops});
  };

  // Edge block: every hop edge against every utilization edge, cycling the
  // size edges through them.
  const std::uint32_t hop_edges[] = {0, 1, 2, 3, 4, 64, 65};
  const double utilization_edges[] = {0.0, -0.25, nan, inf, -inf, 1e-6, 0.5, 3.0};
  const std::uint64_t size_edges[] = {0, 1, kCap, kCap + 1, 2'000'000'000};
  std::size_t k = 0;
  for (const char* facility : {"aps", "lcls"}) {
    for (const std::uint32_t hops : hop_edges) {
      for (const double utilization : utilization_edges) {
        add(facility, hops, size_edges[k++ % std::size(size_edges)], utilization);
      }
    }
  }
  // Size edges at a valid operating point, and the unknown facility.
  for (const char* facility : {"aps", "lcls"}) {
    for (const std::uint64_t size : size_edges) add(facility, 2, size, 0.64);
  }
  for (const std::uint32_t hops : {0u, 1u, 4u, 65u}) add("unknown-site", hops, 1 << 20, 0.3);

  // Random block: sizes spread over 2^0 .. 2^60, hops mostly 0-5 with the
  // occasional cap, utilization over [-0.1, 1.4).
  std::mt19937_64 rng(kSeed);
  while (mix.size() < kMixSize) {
    const std::uint64_t pick = rng() % 64;
    const char* facility = pick == 0 ? "unknown-site" : (pick % 2 != 0 ? "aps" : "lcls");
    const std::uint64_t r = rng();
    const std::uint32_t hops =
        r % 16 == 0 ? static_cast<std::uint32_t>(64 + (r >> 4) % 2)
                    : static_cast<std::uint32_t>((r >> 4) % 6);
    const std::uint64_t bits = rng();
    const std::uint64_t shift = 3 + rng() % 61;
    const double utilization = uniform(rng, -0.1, 1.4);
    add(facility, hops, bits >> shift, utilization);
  }
  return mix;
}

std::string hex(const std::string& bytes) {
  static const char* const kDigits = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

std::string describe(const DecideRequest& request) {
  std::ostringstream out;
  out << request.facility << " hops=" << request.path_hops
      << " size=" << request.transfer_size_bytes
      << " u=" << request.operating_utilization;
  return out.str();
}

TEST(DecideGoldenTest, EncodedResponsesMatchGolden) {
  const ServiceSnapshot loaded(3, demo_profiles());
  const ServiceSnapshot empty(4, {});
  const std::vector<DecideRequest> mix = golden_mix();
  ASSERT_EQ(mix.size(), kMixSize);

  // The first eight requests are also answered by the empty snapshot.
  std::vector<std::string> actual;
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    std::string frame;
    append_decide_response(frame, decide(loaded, mix[i]));
    actual.push_back(hex(frame));
    labels.push_back(describe(mix[i]));
  }
  for (std::size_t i = 0; i < 8; ++i) {
    std::string frame;
    append_decide_response(frame, decide(empty, mix[i]));
    actual.push_back(hex(frame));
    labels.push_back("empty snapshot: " + describe(mix[i]));
  }
  {
    std::ofstream out(std::string(SSS_BINARY_DIR) + "/tests/decide_golden.actual.hex");
    for (const std::string& line : actual) out << line << "\n";
  }

  std::ifstream in(std::string(SSS_SOURCE_DIR) + "/tests/data/decide_golden.hex");
  ASSERT_TRUE(in.good()) << "missing tests/data/decide_golden.hex";
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);
  ASSERT_EQ(golden.size(), actual.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], golden[i]) << "line " << i + 1 << ": " << labels[i];
  }
}

}  // namespace
}  // namespace sss::serve
