// Property tests for the DRAM traffic invariants — the quantities behind
// the paper's Figure 2 traffic row:
//   Smache:   reads = N*steps + warm-up rows, writes = N*steps;
//   Baseline: reads = tuple * N * steps,      writes = N*steps.
// And the headline consequence: Smache traffic ~= (2/(tuple+1)) of
// baseline, i.e. ~40% for the 4-point stencil.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "support/test_grids.hpp"

namespace smache {
namespace {

grid::Grid<word_t> random_grid(std::size_t h, std::size_t w,
                               std::uint64_t seed) {
  return test_support::random_grid(h, w, seed, 1 << 20);
}

class TrafficSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(TrafficSweep, SmacheReadsEachWordOncePerInstance) {
  const auto [dim, steps] = GetParam();
  ProblemSpec p = ProblemSpec::paper_example();
  p.height = dim;
  p.width = dim;
  p.steps = steps;
  const auto res =
      Engine(EngineOptions::smache()).run(p, random_grid(dim, dim, dim));
  const std::uint64_t n = p.cells();
  ASSERT_NE(res.plan, nullptr);
  std::uint64_t warm_words = 0;
  for (const auto& b : res.plan->static_buffers())
    warm_words += b.length;
  EXPECT_EQ(res.dram.words_read, n * steps + warm_words);
  EXPECT_EQ(res.dram.words_written, n * steps);
}

TEST_P(TrafficSweep, BaselineReadsTupleWordsPerPoint) {
  const auto [dim, steps] = GetParam();
  ProblemSpec p = ProblemSpec::paper_example();
  p.height = dim;
  p.width = dim;
  p.steps = steps;
  const auto res =
      Engine(EngineOptions::baseline()).run(p, random_grid(dim, dim, dim));
  EXPECT_EQ(res.dram.words_read, p.cells() * steps * p.shape.size());
  EXPECT_EQ(res.dram.words_written, p.cells() * steps);
}

TEST_P(TrafficSweep, TrafficRatioApproachesFortyPercent) {
  const auto [dim, steps] = GetParam();
  ProblemSpec p = ProblemSpec::paper_example();
  p.height = dim;
  p.width = dim;
  p.steps = steps;
  const auto init = random_grid(dim, dim, dim * 7 + steps);
  const auto s = Engine(EngineOptions::smache()).run(p, init);
  const auto b = Engine(EngineOptions::baseline()).run(p, init);
  const double ratio = static_cast<double>(s.dram.total_bytes()) /
                       static_cast<double>(b.dram.total_bytes());
  // 2N / 5N = 0.4 exactly, plus the warm-up rows (2W words once), which
  // for the smallest single-step case contributes up to 0.05.
  EXPECT_GT(ratio, 0.38);
  EXPECT_LE(ratio, 0.46);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, TrafficSweep,
    ::testing::Combine(::testing::Values(8, 11, 16, 24),
                       ::testing::Values(1, 5, 10)),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, std::size_t>>&
           i) {
      return "d" + std::to_string(std::get<0>(i.param)) + "_s" +
             std::to_string(std::get<1>(i.param));
    });

TEST(TrafficShape, SmacheCycleAdvantageGrowsWithTupleSize) {
  // Moore (9 points) makes the baseline read 9 words/point while Smache
  // still reads one: the cycle gap must widen vs the 4-point stencil.
  const auto run_ratio = [](const grid::StencilShape& shape) {
    ProblemSpec p;
    p.height = 12;
    p.width = 12;
    p.shape = shape;
    p.bc = grid::BoundarySpec::paper_example();
    p.steps = 5;
    const auto init = random_grid(12, 12, 99);
    const auto s = Engine(EngineOptions::smache()).run(p, init);
    const auto b = Engine(EngineOptions::baseline()).run(p, init);
    return static_cast<double>(s.cycles) / static_cast<double>(b.cycles);
  };
  const double vn4 = run_ratio(grid::StencilShape::von_neumann4());
  const double moore = run_ratio(grid::StencilShape::moore9());
  EXPECT_LT(moore, vn4)
      << "a denser stencil must favour Smache even more strongly";
}

TEST(TrafficShape, SmacheStreamsSequentially) {
  // One burst request per instance (plus warm-up rows), not per word.
  ProblemSpec p = ProblemSpec::paper_example();
  p.steps = 10;
  const auto res =
      Engine(EngineOptions::smache()).run(p, random_grid(11, 11, 5));
  ASSERT_NE(res.plan, nullptr);
  EXPECT_EQ(res.dram.read_requests,
            p.steps + res.plan->static_buffers().size());
}

TEST(TrafficShape, BaselineIssuesOneRequestPerWord) {
  ProblemSpec p = ProblemSpec::paper_example();
  p.steps = 2;
  const auto res =
      Engine(EngineOptions::baseline()).run(p, random_grid(11, 11, 6));
  EXPECT_EQ(res.dram.read_requests, res.dram.words_read);
}

}  // namespace
}  // namespace smache
