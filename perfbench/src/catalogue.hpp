// Every metric the benchmark reports: its name, unit, direction and whether
// it is an end-to-end metric (reported by the untraced run) or a per-layer
// metric (reported by the traced run). BENCHMARK.json lists the same
// entries; the tests hold the two in step.
//
// "Host" metrics time the simulator on the machine running it. "Simulated"
// metrics are what the modelled FPGA would take; they are deterministic for
// a given seed, so a change to them is a change to the model, not noise.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

enum class Better { Higher, Lower };

struct MetricDef {
  std::string name;
  std::string unit;
  Better better = Better::Higher;
  bool end_to_end = false;
};

const std::vector<MetricDef>& metric_catalogue();

/// Names and units are restricted to this alphabet so they survive every
/// report format unquoted.
bool valid_name(const std::string& name);

}  // namespace perfbench
