// The benchmark's own tests: logical cell-update accounting, workload
// determinism, and the metric catalogue against BENCHMARK.json.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "catalogue.hpp"
#include "sweep/executor.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using smache::Architecture;

SweepSpec small_spec(const char* kernel, const char* input) {
  SweepSpec s;
  s.archs = {Architecture::Smache, Architecture::Baseline};
  s.grids = {{16, 16}};
  s.steps = {4};
  s.depths = {1, 2};
  s.tiles = {{1, 1}, {2, 2}};
  s.stencils = {"star5"};
  s.boundaries = {"open"};
  s.kernels = {kernel};
  s.inputs = {input};
  return s;
}

std::vector<Scenario> expand_one(const SweepSpec& spec) {
  Workload w;
  w.specs = {spec};
  return expand(w);
}

TEST(CellUpdates, IgnoreFieldsCascadeDepthAndTileMesh) {
  std::set<std::uint64_t> counts;
  for (const auto& [kernel, input] :
       {std::pair{"jacobi", "jacobi-init"}, std::pair{"fdtd", "fdtd-cavity"}})
    for (const Scenario& s : expand_one(small_spec(kernel, input)))
      counts.insert(cell_updates(s));
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(*counts.begin(), 16u * 16u * 4u);
}

TEST(CellUpdates, CountSlices) {
  SweepSpec s = small_spec("jacobi", "jacobi-init");
  s.grids = {{12, 12, 4}};
  s.stencils = {"star7"};
  for (const Scenario& sc : expand_one(s))
    EXPECT_EQ(cell_updates(sc), 12u * 12u * 4u * 4u);
}

TEST(CellUpdates, DepthAliasedBaselineCountedOnce) {
  // smache x {depth 1, 2} + baseline (depth aliased to 1), x 2 meshes.
  const std::vector<Scenario> scenarios =
      expand_one(small_spec("jacobi", "jacobi-init"));
  ASSERT_EQ(scenarios.size(), 6u);
  std::uint64_t total = 0;
  for (const Scenario& s : scenarios) total += cell_updates(s);
  EXPECT_EQ(total, 6u * 16u * 16u * 4u);
}

TEST(CellUpdates, FeatureMatrixHasTwentyFourScenarios) {
  const std::vector<Scenario> scenarios =
      expand(make_workload("feature_matrix", 1));
  EXPECT_EQ(scenarios.size(), 24u);
  std::set<std::string> labels;
  for (const Scenario& s : scenarios) labels.insert(s.label);
  EXPECT_EQ(labels.size(), scenarios.size());
}

TEST(SimTotals, TileHaloShowsOnlyInDramBytes) {
  SweepSpec spec = small_spec("jacobi", "jacobi-init");
  spec.archs = {Architecture::Smache};
  spec.depths = {1};
  smache::sweep::ExecutorOptions options;
  options.verify_reference = true;
  const std::vector<ScenarioResult> results =
      smache::sweep::SweepExecutor(options).run(spec);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_FALSE(is_tiled(results[0].scenario));
  ASSERT_TRUE(is_tiled(results[1].scenario));
  SimTotals untiled, tiled;
  untiled.add(results[0]);
  tiled.add(results[1]);
  EXPECT_TRUE(results[1].reference_match);
  EXPECT_EQ(results[0].output_hash, results[1].output_hash);
  EXPECT_EQ(untiled.cell_updates, tiled.cell_updates);
  EXPECT_GT(tiled.dram_bytes_per_cell_update(),
            untiled.dram_bytes_per_cell_update());
  EXPECT_EQ(untiled_label(results[1].scenario), results[0].scenario.label);
  EXPECT_EQ(untiled_label(results[0].scenario), results[0].scenario.label);
}

TEST(Workloads, SeedFixesEveryInput) {
  for (const std::string& name : workload_names()) {
    const std::vector<Scenario> a = expand(make_workload(name, 7));
    const std::vector<Scenario> b = expand(make_workload(name, 7));
    const std::vector<Scenario> c = expand(make_workload(name, 8));
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), c.size());
    bool seed_moves = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].label, b[i].label);
      EXPECT_EQ(a[i].seed, b[i].seed);
      seed_moves = seed_moves || a[i].seed != c[i].seed;
    }
    EXPECT_TRUE(seed_moves) << name;
  }
  EXPECT_THROW(make_workload("nope", 1), std::invalid_argument);
}

TEST(Workloads, DesignKeyIgnoresRunOnlyDimensions) {
  const std::vector<Scenario> scenarios =
      expand_one(small_spec("jacobi", "jacobi-init"));
  std::set<std::string> keys;
  for (const Scenario& s : scenarios) keys.insert(design_key(s));
  EXPECT_EQ(keys.size(), 2u);  // one per architecture
}

/// (name, unit) pairs of one BENCHMARK.json array.
std::vector<std::pair<std::string, std::string>> json_entries(
    const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\"");
  if (at == std::string::npos) return {};
  const std::string array =
      json.substr(at, json.find(']', at) - at);
  static const std::regex entry(
      R"re(\{\s*"name"\s*:\s*"([^"]*)"(?:\s*,\s*"unit"\s*:\s*"([^"]*)")?)re");
  std::vector<std::pair<std::string, std::string>> out;
  for (std::sregex_iterator it(array.begin(), array.end(), entry), end;
       it != end; ++it)
    out.emplace_back((*it)[1].str(), (*it)[2].str());
  return out;
}

TEST(Catalogue, NamesAreValidUniqueAndMatchBenchmarkJson) {
  std::set<std::string> seen;
  for (const MetricDef& def : metric_catalogue()) {
    EXPECT_TRUE(valid_name(def.name)) << def.name;
    EXPECT_TRUE(seen.insert(def.name).second) << def.name;
  }
  for (const std::string& name : workload_names())
    EXPECT_TRUE(valid_name(name)) << name;
  EXPECT_FALSE(valid_name("bad name"));
  EXPECT_FALSE(valid_name(""));

  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();

  std::vector<std::pair<std::string, std::string>> e2e, layers;
  for (const MetricDef& def : metric_catalogue())
    (def.end_to_end ? e2e : layers).emplace_back(def.name, def.unit);
  EXPECT_EQ(json_entries(json, "end_to_end"), e2e);
  EXPECT_EQ(json_entries(json, "per_layer"), layers);

  std::vector<std::string> workloads;
  for (const auto& entry : json_entries(json, "workloads"))
    workloads.push_back(entry.first);
  EXPECT_EQ(workloads, workload_names());
}

}  // namespace
}  // namespace perfbench
