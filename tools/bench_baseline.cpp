// bench_baseline — records the repo's perf trajectory in BENCH_micro.json.
//
// Runs the google-benchmark microbenches (micro_substrates
// --benchmark_format=json) plus a wall-clock-timed scenario smoke
// (scenario_runner --run hop_bottleneck_sweep) and writes one merged JSON
// document.  Run it from the repo root after a Release build:
//
//   cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
//   ./build/bench/bench_baseline                 # full run, ~1 min
//   ./build/bench/bench_baseline --smoke         # CI: reduced repetitions
//
// Options:
//   --build-dir D   where the bench binaries live (default: build)
//   --out F         output path (default: BENCH_micro.json, the repo root
//                   when run from there)
//   --smoke         cut benchmark min-time and scenario scale for CI
//   --filter R      forwarded as --benchmark_filter=R
//   --allow-debug   record numbers from a non-Release build anyway (the
//                   default is to refuse: debug timings poison the
//                   committed perf history)
//   --check-against F  compare the guarded benches (BM_WorkloadExperiment,
//                   BM_TcpTransfer/64) against a previously committed
//                   BENCH_micro.json; exit 1 on a regression beyond
//                   --tolerance
//   --tolerance T   allowed fractional real_time regression for
//                   --check-against (default 0.25 = +25%)
//
// Committing the refreshed BENCH_micro.json alongside optimization PRs is
// what gives the repo a recorded before/after history (README "Performance").
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

namespace {

// Run `command` capturing stdout; returns empty on failure.
std::string capture(const std::string& command, int& exit_code) {
  std::string output;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    exit_code = -1;
    return output;
  }
  std::array<char, 4096> chunk{};
  std::size_t n = 0;
  while ((n = fread(chunk.data(), 1, chunk.size(), pipe)) > 0) {
    output.append(chunk.data(), n);
  }
  exit_code = pclose(pipe);
  return output;
}

void strip_trailing_whitespace(std::string& s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r' || s.back() == ' ')) {
    s.pop_back();
  }
}

// Single-quote `s` for /bin/sh so benchmark regexes (|, .*) and paths with
// spaces survive popen/system verbatim.
std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

// Value of a top-level `"key": "value"` string in `json`; "" when absent.
// Hand-rolled (like the writer below): the tool deliberately has no
// dependencies beyond the shell, and the google-benchmark JSON it reads is
// machine-generated with stable quoting.
std::string extract_string(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + needle.size();
  const std::size_t end = json.find('"', begin);
  if (end == std::string::npos) return "";
  return json.substr(begin, end - begin);
}

// real_time of the FIRST benchmark entry named exactly `bench`; negative
// when absent.
double extract_real_time(const std::string& json, const std::string& bench) {
  const std::string name_needle = "\"name\": \"" + bench + "\"";
  const std::size_t at = json.find(name_needle);
  if (at == std::string::npos) return -1.0;
  const std::string rt_needle = "\"real_time\":";
  const std::size_t rt = json.find(rt_needle, at);
  if (rt == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + rt + rt_needle.size(), nullptr);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Provenance stamps: a committed baseline is only comparable when you know
// which commit and machine produced it and when.

// Short git SHA of HEAD (with "-dirty" when the tree has changes); "" when
// not in a git checkout.
std::string git_sha() {
  int exit_code = 0;
  std::string sha = capture("git rev-parse --short HEAD 2>/dev/null", exit_code);
  strip_trailing_whitespace(sha);
  if (exit_code != 0 || sha.empty()) return "";
  std::string status = capture("git status --porcelain 2>/dev/null", exit_code);
  strip_trailing_whitespace(status);
  if (exit_code == 0 && !status.empty()) sha += "-dirty";
  return sha;
}

std::string host_name() {
  std::array<char, 256> buf{};
  if (gethostname(buf.data(), buf.size() - 1) != 0) return "";
  return std::string(buf.data());
}

// ISO-8601 UTC, e.g. "2026-08-08T12:34:56Z".
std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  if (gmtime_r(&now, &tm) == nullptr) return "";
  std::array<char, 32> buf{};
  if (std::strftime(buf.data(), buf.size(), "%Y-%m-%dT%H:%M:%SZ", &tm) == 0) return "";
  return std::string(buf.data());
}

// The perf-guarded benches: the workload hot loop and the lossy-free
// single-transfer path.  CI fails when either regresses past tolerance.
const char* const kGuardedBenches[] = {"BM_WorkloadExperiment", "BM_TcpTransfer/64"};

// Returns the number of guarded benches that regressed beyond `tolerance`.
int check_against(const std::string& baseline_path, const std::string& micro_json,
                  double tolerance) {
  const std::string baseline = read_file(baseline_path);
  if (baseline.empty()) {
    std::cerr << "bench_baseline: cannot read baseline " << baseline_path << "\n";
    return 1;
  }
  int regressions = 0;
  for (const char* bench : kGuardedBenches) {
    const double before = extract_real_time(baseline, bench);
    const double after = extract_real_time(micro_json, bench);
    if (before <= 0.0) {
      std::cerr << "bench_baseline: baseline has no entry for " << bench
                << " — skipping\n";
      continue;
    }
    if (after <= 0.0) {
      std::cerr << "bench_baseline: current run has no entry for " << bench
                << " (regression check needs it)\n";
      ++regressions;
      continue;
    }
    const double ratio = after / before;
    std::cerr << "bench_baseline: " << bench << " " << before << " -> " << after
              << " ns (x" << ratio << ")\n";
    if (ratio > 1.0 + tolerance) {
      std::cerr << "bench_baseline: REGRESSION: " << bench << " slowed by "
                << (ratio - 1.0) * 100.0 << "% (tolerance "
                << tolerance * 100.0 << "%)\n";
      ++regressions;
    }
  }
  return regressions;
}

}  // namespace

int main(int argc, char** argv) {
  std::string build_dir = "build";
  std::string out_path = "BENCH_micro.json";
  std::string filter;
  std::string check_path;
  double tolerance = 0.25;
  bool smoke = false;
  bool allow_debug = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "bench_baseline: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--build-dir") {
      build_dir = value("--build-dir");
    } else if (arg == "--out") {
      out_path = value("--out");
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--allow-debug") {
      allow_debug = true;
    } else if (arg == "--filter") {
      filter = value("--filter");
    } else if (arg == "--check-against") {
      check_path = value("--check-against");
    } else if (arg == "--tolerance") {
      tolerance = std::strtod(value("--tolerance").c_str(), nullptr);
      if (!(tolerance > 0.0)) {
        std::cerr << "bench_baseline: --tolerance must be > 0\n";
        return 2;
      }
    } else {
      std::cerr << "bench_baseline: unknown argument '" << arg << "'\n";
      return 2;
    }
  }

  // --- microbenches ---------------------------------------------------------
  std::string micro_cmd =
      shell_quote(build_dir + "/bench/micro_substrates") + " --benchmark_format=json";
  if (smoke) micro_cmd += " --benchmark_min_time=0.05";
  if (!filter.empty()) micro_cmd += " --benchmark_filter=" + shell_quote(filter);
  micro_cmd += " 2>/dev/null";
  std::cerr << "bench_baseline: running " << micro_cmd << "\n";
  int micro_exit = 0;
  std::string micro_json = capture(micro_cmd, micro_exit);
  strip_trailing_whitespace(micro_json);
  if (micro_exit != 0 || micro_json.empty() || micro_json.front() != '{') {
    std::cerr << "bench_baseline: micro_substrates failed (exit " << micro_exit
              << "); is it built in " << build_dir << "/bench and google-benchmark "
              << "installed?\n";
    return 1;
  }

  // --- build-type gate ------------------------------------------------------
  // micro_substrates stamps its compile mode into the benchmark context
  // (AddCustomContext "sss_build_type").  Numbers from a debug / -O0 build
  // are 10-30x off and must never land in the committed history.
  std::string build_type = extract_string(micro_json, "sss_build_type");
  if (build_type.empty()) build_type = "unknown";
  if (build_type != "release" && !allow_debug) {
    std::cerr << "bench_baseline: refusing to record a '" << build_type
              << "' build (configure with -DCMAKE_BUILD_TYPE=Release, or pass "
                 "--allow-debug to record anyway)\n";
    return 1;
  }

  // --- timed scenario smoke -------------------------------------------------
  const char* scenario = "hop_bottleneck_sweep";
  const double scale = smoke ? 0.05 : 1.0;
  const std::string scenario_cmd = shell_quote(build_dir + "/bench/scenario_runner") +
                                   " --run " + scenario + " --scale " +
                                   std::to_string(scale) + " > /dev/null";
  std::cerr << "bench_baseline: running " << scenario_cmd << "\n";
  const auto t0 = std::chrono::steady_clock::now();
  const int scenario_exit = std::system(scenario_cmd.c_str());
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(t1 - t0).count();
  if (scenario_exit != 0) {
    std::cerr << "bench_baseline: scenario_runner failed (exit " << scenario_exit << ")\n";
    return 1;
  }

  // --- merged document ------------------------------------------------------
  // Written via temp + rename so an interrupted run can't truncate the
  // committed trajectory file when --out points at BENCH_micro.json.
  std::ostringstream doc;
  doc << "{\n"
      << "  \"schema\": 1,\n"
      << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
      << "  \"build_type\": \"" << build_type << "\",\n"
      << "  \"git_sha\": \"" << git_sha() << "\",\n"
      << "  \"hostname\": \"" << host_name() << "\",\n"
      << "  \"timestamp\": \"" << utc_timestamp() << "\",\n"
      << "  \"scenario_smoke\": {\n"
      << "    \"name\": \"" << scenario << "\",\n"
      << "    \"scale\": " << scale << ",\n"
      << "    \"wall_seconds\": " << wall_s << "\n"
      << "  },\n"
      << "  \"micro\": " << micro_json << "\n"
      << "}\n";
  const std::string tmp_path = out_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "bench_baseline: cannot write " << tmp_path << "\n";
      return 1;
    }
    const std::string text = doc.str();
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.flush();
    if (!out) {
      std::cerr << "bench_baseline: short write to " << tmp_path << "\n";
      std::remove(tmp_path.c_str());
      return 1;
    }
  }
  if (std::rename(tmp_path.c_str(), out_path.c_str()) != 0) {
    std::cerr << "bench_baseline: cannot rename " << tmp_path << " to " << out_path
              << "\n";
    std::remove(tmp_path.c_str());
    return 1;
  }
  std::cerr << "bench_baseline: wrote " << out_path << " (scenario " << wall_s
            << " s wall, build " << build_type << ")\n";

  // --- perf-regression guard ------------------------------------------------
  if (!check_path.empty()) {
    const int regressions = check_against(check_path, micro_json, tolerance);
    if (regressions > 0) {
      std::cerr << "bench_baseline: " << regressions
                << " guarded benchmark(s) regressed vs " << check_path << "\n";
      return 1;
    }
    std::cerr << "bench_baseline: regression check vs " << check_path
              << " passed (tolerance " << tolerance * 100.0 << "%)\n";
  }
  return 0;
}
