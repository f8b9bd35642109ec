// Measurement of one workload: the untraced run that gives the end-to-end
// metrics, and the traced run that splits host time by layer and reads the
// simulated counters from the EngineOptions::profile snapshot.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  /// Wall-clock budget of the measured passes (set-up excluded).
  double seconds = 10.0;
  /// false: end-to-end metrics; true: per-layer metrics.
  bool trace = false;
  /// Directory for the result stores the passes open; created by the
  /// measurement, removed by the caller.
  std::string scratch_dir;
};

struct Report {
  /// Every output matched reference_run and every pass digested equal.
  bool correct = true;
  /// Scenario executions attempted and those that failed: not ok, output
  /// different from reference_run, or a warm replay different from the
  /// cold result.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// SweepExecutor::digest of one pass: deterministic for a seed.
  std::uint64_t digest = 0;
  std::size_t passes = 0;
  /// Metric name -> value, in the catalogue's units.
  std::map<std::string, double> metrics;
  /// Human-readable reasons for correct == false.
  std::vector<std::string> problems;
};

Report measure(const Workload& workload, const RunConfig& config);

/// Every pass is single-threaded, so the process runs on one CPU: the one
/// that runs a short calibration loop fastest right now (about 30 ms). On a
/// shared VM the vCPUs are slowed by other tenants unevenly and for seconds
/// to minutes at a time (one vCPU measured 1.7x slower than another back to
/// back), so the untraced run calls this again before every pass. The first
/// call records the CPUs the process may use; later calls choose among them.
void pin_to_quietest_cpu();

}  // namespace perfbench
