// Tests for the temporal-blocking cascade extension: K fused time steps
// per DRAM pass must match the K-step reference bit-exactly, cut traffic
// by ~K, and correctly reject configurations it cannot fuse.
#include <gtest/gtest.h>

#include <string>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "support/test_grids.hpp"

namespace smache {
namespace {

grid::Grid<word_t> random_grid(std::size_t h, std::size_t w,
                               std::uint64_t seed) {
  return test_support::random_grid(h, w, seed, 1 << 12);
}

ProblemSpec open_problem(std::size_t steps) {
  ProblemSpec p;
  p.height = 12;
  p.width = 10;
  p.shape = grid::StencilShape::von_neumann4();
  p.bc = grid::BoundarySpec::all_open();
  p.kernel = rtl::KernelSpec::average_int();
  p.steps = steps;
  return p;
}

class CascadeDepthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CascadeDepthSweep, MatchesReference) {
  const std::size_t depth = GetParam();
  const auto p = open_problem(12);  // divisible by 1,2,3,4,6
  const auto init = random_grid(p.height, p.width, depth);
  const auto res =
      Engine(EngineOptions::smache()).run_cascade(p, init, depth);
  EXPECT_EQ(res.output, reference_run(p, init)) << "depth " << depth;
}

INSTANTIATE_TEST_SUITE_P(Depths, CascadeDepthSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 12));

TEST(Cascade, MirrorBoundariesSupported) {
  ProblemSpec p = open_problem(8);
  p.bc = grid::BoundarySpec::all_mirror();
  p.shape = grid::StencilShape::moore9();
  const auto init = random_grid(p.height, p.width, 77);
  const auto res = Engine(EngineOptions::smache()).run_cascade(p, init, 4);
  EXPECT_EQ(res.output, reference_run(p, init));
}

TEST(Cascade, ConstantBoundariesSupported) {
  ProblemSpec p = open_problem(6);
  p.bc = {grid::AxisBoundary::constant_halo(to_word<std::int32_t>(11)),
          grid::AxisBoundary::constant_halo(to_word<std::int32_t>(-4))};
  const auto init = random_grid(p.height, p.width, 78);
  const auto res = Engine(EngineOptions::smache()).run_cascade(p, init, 3);
  EXPECT_EQ(res.output, reference_run(p, init));
}

TEST(Cascade, FloatDiffusionSupported) {
  ProblemSpec p = open_problem(10);
  p.shape = grid::StencilShape::plus5();
  p.kernel = rtl::KernelSpec::diffusion(0.2f);
  grid::Grid<word_t> init(p.height, p.width, to_word(0.0f));
  init.at(6, 5) = to_word(256.0f);
  const auto res = Engine(EngineOptions::smache()).run_cascade(p, init, 5);
  EXPECT_EQ(res.output, reference_run(p, init));
}

TEST(Cascade, PopulatesWarmupCycles) {
  // Fused warmup = pipeline fill: the cycle the first result writes
  // back. It must be populated (the seed left it at 0 — reports showed
  // cascade rows with zero warmup) and grow with depth, since each fused
  // stage adds its own window-fill latency.
  const auto p = open_problem(12);
  const auto init = random_grid(p.height, p.width, 99);
  const Engine engine(EngineOptions::smache());
  const auto shallow = engine.run_cascade(p, init, 2);
  const auto deep = engine.run_cascade(p, init, 4);
  EXPECT_GT(shallow.warmup_cycles, 0u);
  EXPECT_LT(shallow.warmup_cycles, shallow.cycles);
  EXPECT_GT(deep.warmup_cycles, shallow.warmup_cycles);
  EXPECT_LT(deep.warmup_cycles, deep.cycles);
}

TEST(Cascade, DepthOneIsThePerInstanceDesign) {
  // Fusing one step per pass is no fusion: run_cascade(p, g, 1) is run(),
  // static path (warm-up, pre-issue, capture) and periodic wraps included.
  for (const auto& bc : {grid::BoundarySpec::all_open(),
                         grid::BoundarySpec::paper_example()}) {
    ProblemSpec p = open_problem(4);
    p.height = 16;
    p.width = 13;
    p.bc = bc;
    const auto init = random_grid(p.height, p.width, 86);
    EngineOptions opts = EngineOptions::smache();
    opts.profile = true;
    const Engine engine(opts);
    const auto fused = engine.run_cascade(p, init, 1);
    const auto run = engine.run(p, init);
    EXPECT_EQ(fused.cycles, run.cycles);
    EXPECT_EQ(fused.warmup_cycles, run.warmup_cycles);
    EXPECT_EQ(fused.dram, run.dram);
    EXPECT_EQ(fused.output, run.output);
    EXPECT_EQ(fused.resources.r_static, run.resources.r_static);
    EXPECT_EQ(fused.resources.b_static, run.resources.b_static);
    EXPECT_EQ(fused.resources.r_stream, run.resources.r_stream);
    EXPECT_EQ(fused.resources.b_stream, run.resources.b_stream);
    EXPECT_EQ(fused.resources.r_total, run.resources.r_total);
    EXPECT_EQ(fused.resources.b_total, run.resources.b_total);
    EXPECT_EQ(fused.resources.m20k_blocks, run.resources.m20k_blocks);
    EXPECT_EQ(fused.timing.critical_path_ns, run.timing.critical_path_ns);
    EXPECT_EQ(fused.timing.fmax_mhz, run.timing.fmax_mhz);
    EXPECT_EQ(fused.timing.critical_path, run.timing.critical_path);
    EXPECT_EQ(fused.ops, run.ops);
    ASSERT_EQ(fused.metrics.size(), run.metrics.size());
    for (std::size_t i = 0; i < run.metrics.size(); ++i) {
      EXPECT_EQ(fused.metrics[i].path, run.metrics[i].path);
      EXPECT_EQ(fused.metrics[i].value, run.metrics[i].value)
          << run.metrics[i].path;
    }
  }
}

TEST(Cascade, TrafficDropsByDepth) {
  const auto p = open_problem(12);
  const auto init = random_grid(p.height, p.width, 80);
  const Engine engine(EngineOptions::smache());
  const auto flat = engine.run_cascade(p, init, 1);
  const auto fused = engine.run_cascade(p, init, 6);
  const std::uint64_t n = p.cells();
  EXPECT_EQ(flat.dram.words_read, n * 12);
  EXPECT_EQ(fused.dram.words_read, n * 2);
  EXPECT_EQ(fused.dram.words_written, n * 2);
  EXPECT_LT(fused.cycles, flat.cycles)
      << "fewer passes must also cost fewer cycles";
}

TEST(Cascade, ResourcesScaleWithDepth) {
  const auto p = open_problem(4);
  const auto init = random_grid(p.height, p.width, 81);
  const Engine engine(EngineOptions::smache());
  const auto d1 = engine.run_cascade(p, init, 1);
  const auto d4 = engine.run_cascade(p, init, 4);
  // Four windows and kernels on chip instead of one.
  EXPECT_GT(d4.resources.r_stream, 3 * d1.resources.r_stream);
  EXPECT_EQ(d4.estimate->r_stream, 4 * d1.estimate->r_stream);
}

TEST(Cascade, PeriodicBoundariesRejected) {
  ProblemSpec p = open_problem(4);
  p.bc = grid::BoundarySpec::paper_example();
  const auto init = random_grid(p.height, p.width, 82);
  EXPECT_THROW(
      Engine(EngineOptions::smache()).run_cascade(p, init, 2),
      contract_error)
      << "periodic wraps need data that does not exist yet within a pass";
}

TEST(Cascade, RejectionLocationIsCheckoutRelative) {
  // Sweeps digest and journal captured errors, so the location a contract
  // error names must not depend on where the tree was built.
  ProblemSpec p = open_problem(4);
  p.bc = grid::BoundarySpec::paper_example();
  const auto init = random_grid(p.height, p.width, 87);
  try {
    (void)Engine(EngineOptions::smache()).run_cascade(p, init, 2);
    FAIL() << "periodic wraps cannot fuse in-stream";
  } catch (const contract_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(" at src/"), std::string::npos) << what;
    EXPECT_EQ(what.find(" at /"), std::string::npos) << what;
  }
}

TEST(Cascade, IndivisibleStepsRejected) {
  const auto p = open_problem(7);
  const auto init = random_grid(p.height, p.width, 83);
  EXPECT_THROW(Engine(EngineOptions::smache()).run_cascade(p, init, 2),
               contract_error);
}

TEST(Cascade, SurvivesDramStalls) {
  ProblemSpec p = open_problem(6);
  const auto init = random_grid(p.height, p.width, 84);
  EngineOptions opts = EngineOptions::smache();
  opts.dram.stall_every = 5;
  opts.dram.stall_cycles = 3;
  const auto res = Engine(opts).run_cascade(p, init, 3);
  EXPECT_EQ(res.output, reference_run(p, init));
}

TEST(Cascade, OneDimensionalFirChain) {
  // 1D moving-average FIR over a long line, fused 4 deep — exercises the
  // degenerate-height path end to end.
  ProblemSpec p;
  p.height = 1;
  p.width = 64;
  p.shape = grid::StencilShape::custom("fir3", {{0, -1}, {0, 0}, {0, 1}});
  p.bc = grid::BoundarySpec::all_open();
  p.kernel = rtl::KernelSpec::average_int();
  p.steps = 4;
  const auto init = random_grid(1, 64, 85);
  const auto res = Engine(EngineOptions::smache()).run_cascade(p, init, 4);
  EXPECT_EQ(res.output, reference_run(p, init));
}

}  // namespace
}  // namespace smache
