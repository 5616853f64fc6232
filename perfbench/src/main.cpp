// perfbench — one workload of the repository benchmark per invocation.
//
//   perfbench --workload chain_sweep|facility_mix|decide_open_loop
//             --seed N --seconds S --trace 0|1
//             --work-dir DIR --reference-dir DIR [--git SHA]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// from a run with in-memory spans around every layer call.  Human-readable
// lines start with '#'; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}.  The run record (provenance,
// metrics, spans) is also written under DIR/runs/.  Exits 1 when any output
// differed from its reference, 2 on a usage or build error.
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string host_name() {
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) != 0) return "unknown";
  return buf;
}

int cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "chain_sweep|facility_mix|decide_open_loop --seed N --seconds S --trace 0|1 "
               "--work-dir DIR --reference-dir DIR [--git SHA]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string git = "unknown";
  options.runner = PERFBENCH_RUNNER;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = value == "1";
      } else if (arg == "--work-dir") {
        options.work_dir = value;
      } else if (arg == "--reference-dir") {
        options.reference_dir = value;
      } else if (arg == "--git") {
        git = value;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  const bool sweep = options.workload == "chain_sweep" || options.workload == "facility_mix";
  if (!sweep && options.workload != "decide_open_loop") return usage("unknown --workload");
  if (options.work_dir.empty() || options.reference_dir.empty()) {
    return usage("--work-dir and --reference-dir are required");
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  // Numbers from an unoptimised build are not recorded.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool asserts = true;
#else
  const bool asserts = false;
#endif
  if (build_type != "Release" || asserts) {
    std::fprintf(stderr, "perfbench: refusing to measure a '%s' build; configure Release\n",
                 build_type.c_str());
    return 2;
  }

  // Scratch space of this process only, removed at exit; run records are
  // kept under <work-dir>/runs.
  const std::string runs_dir = options.work_dir + "/runs";
  options.work_dir += "/" + options.workload + "-" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(runs_dir, ec);
  std::filesystem::create_directories(options.work_dir, ec);
  const std::string provenance =
      "{\"git\":\"" + git + "\",\"hostname\":\"" + host_name() +
      "\",\"nproc\":" + std::to_string(cpu_count()) + ",\"build_type\":\"" + build_type +
      "\",\"workload\":\"" + options.workload + "\",\"seed\":" + std::to_string(options.seed) +
      ",\"seconds\":" + json_number(options.seconds) +
      ",\"trace\":" + (options.trace ? "1" : "0") + "}";
  std::printf("# provenance %s\n", provenance.c_str());

  RunResult result;
  try {
    result = sweep ? perfbench::run_sweep_workload(options)
                   : perfbench::run_serve_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    std::filesystem::remove_all(options.work_dir, ec);
    return 1;
  }
  std::filesystem::remove_all(options.work_dir, ec);

  const bool correct = result.failed == 0 && result.attempted > 0;
  std::string metrics = "{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    std::printf("# %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    metrics += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + json_number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  metrics += "}";
  std::printf("# error_rate %.6g (%llu failed of %llu attempted)\n",
              result.attempted > 0 ? static_cast<double>(result.failed) /
                                         static_cast<double>(result.attempted)
                                   : 1.0,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));

  const std::string summary = "{\"correct\": " + std::string(correct ? "true" : "false") +
                              ", \"attempted\": " + std::to_string(result.attempted) +
                              ", \"failed\": " + std::to_string(result.failed) +
                              ", \"metrics\": " + metrics + "}";
  const std::string record_path = runs_dir + "/" + options.workload + "-seed" +
                                  std::to_string(options.seed) + "-trace" +
                                  (options.trace ? "1" : "0") + ".json";
  std::ofstream record(record_path);
  record << "{\"provenance\": " << provenance << ",\n\"result\": " << summary
         << ",\n\"spans\": " << result.spans_json << "}\n";
  if (record) std::printf("# run record %s\n", record_path.c_str());

  std::printf("%s\n", summary.c_str());
  return correct ? 0 : 1;
}
