// End-to-end Smache engine tests: the simulated hardware must reproduce the
// golden software reference bit-exactly, including the paper's exact
// evaluation problem (11x11, 4-point average, circular+open boundaries).
#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "support/test_grids.hpp"

namespace smache {
namespace {

grid::Grid<word_t> random_grid(std::size_t h, std::size_t w,
                               std::uint64_t seed) {
  return test_support::random_grid(h, w, seed, 1000);
}

TEST(SmacheEngine, PaperProblemSingleStepMatchesReference) {
  ProblemSpec p = ProblemSpec::paper_example();
  p.steps = 1;
  const auto init = random_grid(11, 11, 1);
  const auto ref = reference_run(p, init);
  const auto res = Engine(EngineOptions::smache()).run(p, init);
  EXPECT_EQ(res.output, ref);
}

TEST(SmacheEngine, PaperProblemHundredStepsMatchesReference) {
  const ProblemSpec p = ProblemSpec::paper_example();
  const auto init = random_grid(11, 11, 2);
  const auto ref = reference_run(p, init);
  const auto res = Engine(EngineOptions::smache()).run(p, init);
  EXPECT_EQ(res.output, ref);
}

TEST(SmacheEngine, RegisterOnlyMatchesHybrid) {
  ProblemSpec p = ProblemSpec::paper_example();
  p.steps = 3;
  const auto init = random_grid(11, 11, 3);
  const auto hybrid =
      Engine(EngineOptions::smache(model::StreamImpl::Hybrid)).run(p, init);
  const auto regs =
      Engine(EngineOptions::smache(model::StreamImpl::RegisterOnly))
          .run(p, init);
  EXPECT_EQ(hybrid.output, regs.output);
  EXPECT_EQ(hybrid.cycles, regs.cycles)
      << "hybridisation trades resources, never cycles";
}

TEST(SmacheEngine, PaperCycleCountShape) {
  // The paper reports 14039 cycles for 100 instances of the 11x11 problem
  // (~139/instance plus warm-up). Our microarchitecture should land in the
  // same regime: between N+fill and 1.5x that per instance.
  const ProblemSpec p = ProblemSpec::paper_example();
  const auto res =
      Engine(EngineOptions::smache()).run(p, random_grid(11, 11, 4));
  const double per_instance =
      static_cast<double>(res.cycles) / static_cast<double>(p.steps);
  EXPECT_GE(per_instance, 121.0);
  EXPECT_LE(per_instance, 121.0 * 1.6);
}

TEST(SmacheEngine, DramTrafficIsReadOnceWriteOnce) {
  // Smache's whole point: each input word read once per instance (plus the
  // warm-up rows), each output word written once.
  ProblemSpec p = ProblemSpec::paper_example();
  p.steps = 10;
  const auto res =
      Engine(EngineOptions::smache()).run(p, random_grid(11, 11, 5));
  const std::uint64_t n = p.cells();
  const std::uint64_t warm_words = 2 * p.width;  // two boundary rows
  EXPECT_EQ(res.dram.words_read, n * p.steps + warm_words);
  EXPECT_EQ(res.dram.words_written, n * p.steps);
}

TEST(SmacheEngine, WarmupHappensOnceAndIsShort) {
  const ProblemSpec p = ProblemSpec::paper_example();
  const auto res =
      Engine(EngineOptions::smache()).run(p, random_grid(11, 11, 6));
  EXPECT_GT(res.warmup_cycles, 0u);
  EXPECT_LT(res.warmup_cycles, 100u);
}

TEST(SmacheEngine, AllPeriodicBoundariesMatchReference) {
  ProblemSpec p;
  p.height = 9;
  p.width = 13;
  p.shape = grid::StencilShape::von_neumann4();
  p.bc = grid::BoundarySpec::all_periodic();
  p.kernel = rtl::KernelSpec::average_int();
  p.steps = 4;
  const auto init = random_grid(9, 13, 7);
  EXPECT_EQ(Engine(EngineOptions::smache()).run(p, init).output,
            reference_run(p, init));
}

TEST(SmacheEngine, MirrorBoundariesMatchReference) {
  ProblemSpec p;
  p.height = 8;
  p.width = 8;
  p.shape = grid::StencilShape::plus5();
  p.bc = grid::BoundarySpec::all_mirror();
  p.steps = 3;
  const auto init = random_grid(8, 8, 8);
  EXPECT_EQ(Engine(EngineOptions::smache()).run(p, init).output,
            reference_run(p, init));
}

TEST(SmacheEngine, ConstantBoundariesMatchReference) {
  ProblemSpec p;
  p.height = 7;
  p.width = 9;
  p.shape = grid::StencilShape::von_neumann4();
  p.bc = {grid::AxisBoundary::constant_halo(to_word<std::int32_t>(50)),
          grid::AxisBoundary::constant_halo(to_word<std::int32_t>(-3))};
  p.steps = 2;
  const auto init = random_grid(7, 9, 9);
  EXPECT_EQ(Engine(EngineOptions::smache()).run(p, init).output,
            reference_run(p, init));
}

TEST(SmacheEngine, Moore9PeriodicRowsMatchesReference) {
  ProblemSpec p;
  p.height = 10;
  p.width = 12;
  p.shape = grid::StencilShape::moore9();
  p.bc = {grid::AxisBoundary::periodic(), grid::AxisBoundary::open()};
  p.steps = 3;
  const auto init = random_grid(10, 12, 10);
  EXPECT_EQ(Engine(EngineOptions::smache()).run(p, init).output,
            reference_run(p, init));
}

TEST(SmacheEngine, FloatDiffusionMatchesReferenceBitExactly) {
  ProblemSpec p;
  p.height = 12;
  p.width = 10;
  p.shape = grid::StencilShape::plus5();
  p.bc = grid::BoundarySpec::all_periodic();
  p.kernel = rtl::KernelSpec::diffusion(0.15f);
  p.steps = 5;
  grid::Grid<word_t> init(12, 10, to_word(0.0f));
  init.at(6, 5) = to_word(100.0f);
  EXPECT_EQ(Engine(EngineOptions::smache()).run(p, init).output,
            reference_run(p, init));
}

TEST(SmacheEngine, EstimateAndPlanArePopulated) {
  const ProblemSpec p = ProblemSpec::paper_example();
  const auto res =
      Engine(EngineOptions::smache()).run(p, random_grid(11, 11, 11));
  ASSERT_TRUE(res.estimate.has_value());
  ASSERT_NE(res.plan, nullptr);
  EXPECT_GT(res.timing.fmax_mhz, 0.0);
  EXPECT_GT(res.mops, 0.0);
  EXPECT_EQ(res.ops, 121ull * 100 * 4);
}

TEST(SmacheEngine, ElaborateOnlySkipsSimulation) {
  ProblemSpec p = ProblemSpec::paper_example();
  p.height = 64;
  p.width = 64;
  const auto res = Engine(EngineOptions::smache()).elaborate_only(p);
  EXPECT_EQ(res.cycles, 0u);
  EXPECT_GT(res.resources.b_total, 0u);
  ASSERT_TRUE(res.estimate.has_value());
}

TEST(SmacheEngine, RejectsMismatchedInitialGrid) {
  const ProblemSpec p = ProblemSpec::paper_example();
  grid::Grid<word_t> wrong(5, 5);
  EXPECT_THROW(Engine(EngineOptions::smache()).run(p, wrong),
               contract_error);
}

TEST(SmacheEngine, RejectsGridDimensionsThatOverflowSizeT) {
  // height * width must stay representable; validate() refuses the pair
  // before any allocation is attempted.
  ProblemSpec p = ProblemSpec::paper_example();
  p.height = std::numeric_limits<std::size_t>::max() / 2;
  p.width = 3;
  try {
    p.validate();
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("overflow"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace smache
