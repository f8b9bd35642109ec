// The benchmark's workloads and its logical cell-update accounting.
//
// A workload is a list of SweepSpecs whose expansion is the scenario set one
// pass runs. Every input grid comes from sweep::make_input, seeded through
// SweepSpec::base_seed, so the benchmark's --seed fixes every input.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sweep/executor.hpp"
#include "sweep/spec.hpp"

namespace perfbench {

using smache::sweep::Scenario;
using smache::sweep::ScenarioResult;
using smache::sweep::SweepSpec;

/// How a workload's timed pass drives the simulator.
enum class Driver {
  /// One Engine::run per scenario and nothing else: no sweep executor, no
  /// store, no oracle inside the timed region (paper_stream).
  Engine,
  /// One cold SweepExecutor run with verify_reference on, a fresh
  /// ResultStore and JSON emission (feature_matrix, many_small).
  Sweep,
};

struct Workload {
  std::string name;
  Driver driver = Driver::Sweep;
  /// After the cold pass, replay every scenario warm from the store.
  bool warm_replay = false;
  std::vector<SweepSpec> specs;
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
Workload make_workload(std::string_view name, std::uint64_t seed);

/// validate() and expand() every spec of the workload, in spec order.
std::vector<Scenario> expand(const Workload& workload);

/// Logical cell updates: height x width x depth x steps. Fields per cell,
/// cascade depth and tile halos do not multiply it, so the unit compares
/// across all of them.
std::uint64_t cell_updates(const Scenario& scenario);

bool is_tiled(const Scenario& scenario);

/// Scenarios with equal keys elaborate the same design: the DRAM model,
/// input family, step count, cascade depth and tile mesh are not part of it.
std::string design_key(const Scenario& scenario);

/// The label of the untiled scenario that computes the same problem as
/// `scenario` (the label itself when it is untiled).
std::string untiled_label(const Scenario& scenario);

/// Simulated totals over a set of results: the numerators of the per-cell
/// simulated metrics. Tile-halo redundancy shows in the DRAM counters and
/// never in cell_updates.
struct SimTotals {
  std::uint64_t cell_updates = 0;
  std::uint64_t cycles = 0;
  std::uint64_t warmup_cycles = 0;
  std::uint64_t words_read = 0;
  std::uint64_t words_written = 0;
  std::uint64_t read_requests = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;

  void add(const ScenarioResult& result);
  double cycles_per_cell_update() const;
  double dram_bytes_per_cell_update() const;
};

/// a / b, or 0 when b is 0 (a metric whose path the workload never runs).
double ratio(double a, double b);

}  // namespace perfbench
