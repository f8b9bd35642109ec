// smache_perfbench — the simulator benchmark.
//
//   smache_perfbench --workload NAME|all --seed N --seconds S --trace 0|1
//
// Runs one workload (or all of them, serially, in this process), checks
// every output against reference_run, and prints each metric as
//   <workload> <metric> <value> <unit> (<higher|lower> is better)
// followed by the workload's digest and failed_share. The last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). With --workload all, metric names carry a "<workload>."
// prefix. Result stores live under .bench_build/perfbench-scratch/<pid>,
// which is removed on exit.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "catalogue.hpp"
#include "common/log.hpp"
#include "measure.hpp"
#include "sweep/spec.hpp"

namespace {

using perfbench::Better;
using perfbench::MetricDef;
using perfbench::Report;

constexpr const char* kUsage =
    "usage: smache_perfbench --workload paper_stream|feature_matrix|"
    "many_small|all --seed N --seconds S --trace 0|1\n";

struct Args {
  std::string workload;
  perfbench::RunConfig config;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.config.seed = smache::sweep::parse_u64(value, "--seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = smache::sweep::parse_u64(value, "--seconds");
      if (s < 1 || s > 3600)
        throw std::invalid_argument("--seconds must be in [1, 3600]");
      a.config.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace must be 0 or 1");
      a.config.trace = value == "1";
      have_trace = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    throw std::invalid_argument(
        "--workload, --seed, --seconds and --trace are required");
  a.config.scratch_dir = ".bench_build/perfbench-scratch/" +
                         std::to_string(static_cast<long>(getpid()));
  return a;
}

/// Shortest decimal that reads back as the same double.
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// Removes the scratch directory however the run ends.
struct ScratchGuard {
  std::string dir;
  ~ScratchGuard() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "smache_perfbench: " << e.what() << '\n' << kUsage;
    return 2;
  }
  const std::vector<std::string>& known = perfbench::workload_names();
  std::vector<std::string> names;
  if (args.workload == "all")
    names = known;
  else if (std::find(known.begin(), known.end(), args.workload) != known.end())
    names = {args.workload};
  else {
    std::cerr << "smache_perfbench: unknown workload '" << args.workload
              << "'\n"
              << kUsage;
    return 2;
  }
  smache::Log::set_level(smache::LogLevel::Warn);
  const ScratchGuard guard{args.config.scratch_dir};
  perfbench::pin_to_quietest_cpu();

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::string json_metrics;
  try {
    for (const std::string& name : names) {
      perfbench::RunConfig config = args.config;
      config.scratch_dir += "/" + name;
      const Report report = perfbench::measure(
          perfbench::make_workload(name, config.seed), config);
      correct = correct && report.correct;
      attempted += report.attempted;
      failed += report.failed;
      for (const MetricDef& def : perfbench::metric_catalogue()) {
        if (def.end_to_end == config.trace) continue;
        const auto it = report.metrics.find(def.name);
        if (it == report.metrics.end() || !std::isfinite(it->second))
          throw std::logic_error("metric " + def.name + " was not measured");
        const std::string value = number(it->second);
        std::cout << name << ' ' << def.name << ' ' << value << ' '
                  << def.unit << " ("
                  << (def.better == Better::Higher ? "higher" : "lower")
                  << " is better)\n";
        const std::string key =
            names.size() > 1 ? name + "." + def.name : def.name;
        json_metrics += (json_metrics.empty() ? "" : ", ") + ("\"" + key) +
                        "\": {\"value\": " + value + ", \"unit\": \"" +
                        def.unit + "\"}";
      }
      char digest[32];
      std::snprintf(digest, sizeof digest, "%016" PRIx64, report.digest);
      std::cout << name << " digest " << digest << " over " << report.passes
                << " passes\n"
                << name << " failed_share "
                << number(perfbench::ratio(
                       static_cast<double>(report.failed),
                       static_cast<double>(report.attempted)))
                << " ratio (" << report.failed << " of " << report.attempted
                << " scenario runs; must be 0)\n";
      for (const std::string& problem : report.problems)
        std::cerr << name << ": " << problem << '\n';
    }
  } catch (const std::exception& e) {
    std::cerr << "smache_perfbench: " << e.what() << '\n';
    return 1;
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << json_metrics << "}}" << std::endl;
  return correct ? 0 : 1;
}
