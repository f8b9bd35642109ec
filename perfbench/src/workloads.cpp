#include "workloads.hpp"

#include <stdexcept>

#include "common/word.hpp"
#include "sweep/workloads.hpp"

namespace perfbench {

namespace {

using smache::Architecture;
using smache::sweep::GridDim;

// The paper configuration (vn4 stencil, circular top/bottom + open
// left/right, averaging filter) scaled up until elaboration is far below 1%
// of the run: the steady-state SmacheTop/StreamBuffer hot loop.
Workload paper_stream(std::uint64_t seed) {
  Workload w;
  w.name = "paper_stream";
  w.driver = Driver::Engine;
  SweepSpec s;
  s.grids = {{512, 512}};
  s.steps = {10};
  s.stencils = {"vn4"};
  s.boundaries = {"paper"};
  s.kernels = {"average"};
  s.inputs = {"random"};
  s.base_seed = seed;
  w.specs = {s};
  return w;
}

// arch {smache, baseline} x F {1 (jacobi), 3 (fdtd)} x D {1 (star5),
// 4 (star7)} x cascade depth {1, 2} x tiles {1x1, 2x2}, open boundaries.
// The baseline has no cascade, so expand() aliases its depth-2 points away:
// 6 scenarios per (F, D) pairing, 24 in all.
Workload feature_matrix(std::uint64_t seed) {
  Workload w;
  w.name = "feature_matrix";
  w.driver = Driver::Sweep;
  struct Family {
    GridDim grid;
    const char* stencil;
    const char* kernel;
    const char* input;
  };
  const Family families[] = {
      {{128, 128}, "star5", "jacobi", "jacobi-init"},
      {{128, 128}, "star5", "fdtd", "fdtd-cavity"},
      {{48, 48, 4}, "star7", "jacobi", "jacobi-init"},
      {{48, 48, 4}, "star7", "fdtd", "fdtd-cavity"},
  };
  for (const Family& f : families) {
    SweepSpec s;
    s.archs = {Architecture::Smache, Architecture::Baseline};
    s.grids = {f.grid};
    s.steps = {4};
    s.depths = {1, 2};
    s.tiles = {{1, 1}, {2, 2}};
    s.stencils = {f.stencil};
    s.boundaries = {"open"};
    s.kernels = {f.kernel};
    s.inputs = {f.input};
    s.base_seed = seed;
    w.specs.push_back(s);
  }
  return w;
}

// Thousands of paper-size scenarios over the stencil, boundary, kernel,
// input and DRAM families: per-scenario fixed cost dominates. The seeded
// stencil families (random5/random8) are left out: their shapes, and with
// them cycles and peak memory, would change with --seed, which must vary
// only the input data.
Workload many_small(std::uint64_t seed) {
  Workload w;
  w.name = "many_small";
  w.driver = Driver::Sweep;
  w.warm_replay = true;
  SweepSpec s;
  s.grids = {{11, 11}, {16, 16}};
  s.steps = {2};
  s.drams = {"functional", "ddr"};
  s.stencils = {"vn4",    "plus5", "moore9", "diamond13",
                "cross3", "asym5", "upwind3"};
  s.boundaries = {"paper",  "open",    "circular", "mirror",
                  "island", "striped", "quadrant"};
  s.kernels = {"average", "sum", "max"};
  s.inputs = {"random", "gradient", "checker", "impulse"};
  s.base_seed = seed;
  w.specs = {s};
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_stream", "feature_matrix", "many_small"};
  return names;
}

Workload make_workload(std::string_view name, std::uint64_t seed) {
  if (name == "paper_stream") return paper_stream(seed);
  if (name == "feature_matrix") return feature_matrix(seed);
  if (name == "many_small") return many_small(seed);
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

std::vector<Scenario> expand(const Workload& workload) {
  std::vector<Scenario> all;
  for (const SweepSpec& spec : workload.specs) {
    spec.validate();
    for (Scenario& s : spec.expand()) all.push_back(std::move(s));
  }
  return all;
}

std::uint64_t cell_updates(const Scenario& scenario) {
  const smache::ProblemSpec& p = scenario.problem;
  return static_cast<std::uint64_t>(p.height) * p.width * p.depth * p.steps;
}

bool is_tiled(const Scenario& scenario) {
  return scenario.tiles.height > 1 || scenario.tiles.width > 1 ||
         scenario.tiles.depth > 1;
}

std::string design_key(const Scenario& s) {
  std::string key = smache::to_string(s.engine.arch);
  key += '/' + std::to_string(static_cast<int>(s.engine.stream_impl));
  key += '/' + std::to_string(s.engine.bram_segment_threshold);
  key += '/' + std::to_string(s.problem.height) + 'x' +
         std::to_string(s.problem.width) + 'x' +
         std::to_string(s.problem.depth);
  key += '/' + s.stencil;
  // A seeded stencil family draws its shape from the scenario seed.
  if (smache::sweep::find_stencil(s.stencil).seeded)
    key += '#' + std::to_string(s.seed);
  key += '/' + s.boundary + '/' + s.kernel;
  return key;
}

std::string untiled_label(const Scenario& scenario) {
  // The tile mesh is the one label segment of the form "t<digits>x...".
  std::string out;
  std::size_t start = 0;
  while (start <= scenario.label.size()) {
    std::size_t end = scenario.label.find('/', start);
    if (end == std::string::npos) end = scenario.label.size();
    const std::string_view seg(scenario.label.data() + start, end - start);
    const bool mesh = seg.size() > 1 && seg[0] == 't' && seg[1] >= '0' &&
                      seg[1] <= '9';
    if (!mesh) {
      if (!out.empty()) out += '/';
      out += seg;
    }
    start = end + 1;
  }
  return out;
}

void SimTotals::add(const ScenarioResult& result) {
  cell_updates += perfbench::cell_updates(result.scenario);
  cycles += result.run.cycles;
  warmup_cycles += result.run.warmup_cycles;
  words_read += result.run.dram.words_read;
  words_written += result.run.dram.words_written;
  read_requests += result.run.dram.read_requests;
  row_hits += result.run.dram.row_hits;
  row_misses += result.run.dram.row_misses;
}

double SimTotals::cycles_per_cell_update() const {
  return ratio(static_cast<double>(cycles), static_cast<double>(cell_updates));
}

double SimTotals::dram_bytes_per_cell_update() const {
  return ratio(static_cast<double>((words_read + words_written) *
                                   smache::kWordBytes),
               static_cast<double>(cell_updates));
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

}  // namespace perfbench
