// 1D stencil problems (height-1 grids): FIR filters and circular delay
// lines. Exercises the degenerate row axis through the planner, the
// engines, and the reference executor.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/engine.hpp"

namespace smache {
namespace {

grid::Grid<word_t> random_line(std::size_t w, std::uint64_t seed) {
  Rng rng(seed);
  grid::Grid<word_t> g(1, w);
  for (std::size_t i = 0; i < w; ++i)
    g[i] = static_cast<word_t>(rng.next_below(1 << 10));
  return g;
}

ProblemSpec fir_problem(std::size_t w, grid::AxisBoundary cols,
                        std::size_t steps) {
  ProblemSpec p;
  p.height = 1;
  p.width = w;
  p.shape = grid::StencilShape::custom("fir3", {{0, -1}, {0, 0}, {0, 1}});
  p.bc = {grid::AxisBoundary::open(), cols};
  p.kernel = rtl::KernelSpec::average_int();
  p.steps = steps;
  return p;
}

TEST(OneD, OpenFirMatchesReference) {
  const auto p = fir_problem(48, grid::AxisBoundary::open(), 3);
  const auto init = random_line(48, 1);
  for (auto arch : {Architecture::Smache, Architecture::Baseline}) {
    EngineOptions opts;
    opts.arch = arch;
    EXPECT_EQ(Engine(opts).run(p, init).output, reference_run(p, init))
        << to_string(arch);
  }
}

TEST(OneD, PeriodicRingMatchesReference) {
  // A circular 1D domain: the wrap distance is W-1 — inside the window,
  // so even periodic 1D needs no static buffers.
  const auto p = fir_problem(32, grid::AxisBoundary::periodic(), 4);
  const auto init = random_line(32, 2);
  const auto res = Engine(EngineOptions::smache()).run(p, init);
  EXPECT_EQ(res.output, reference_run(p, init));
  ASSERT_NE(res.plan, nullptr);
  EXPECT_TRUE(res.plan->static_buffers().empty());
}

TEST(OneD, MirrorFirMatchesReference) {
  const auto p = fir_problem(20, grid::AxisBoundary::mirror(), 5);
  const auto init = random_line(20, 3);
  EXPECT_EQ(Engine(EngineOptions::smache()).run(p, init).output,
            reference_run(p, init));
}

TEST(OneD, WideFirTap5) {
  ProblemSpec p;
  p.height = 1;
  p.width = 40;
  p.shape = grid::StencilShape::custom(
      "fir5", {{0, -2}, {0, -1}, {0, 0}, {0, 1}, {0, 2}});
  p.bc = {grid::AxisBoundary::open(), grid::AxisBoundary::mirror()};
  p.kernel = rtl::KernelSpec::average_int();
  p.steps = 2;
  const auto init = random_line(40, 4);
  EXPECT_EQ(Engine(EngineOptions::smache()).run(p, init).output,
            reference_run(p, init));
}

TEST(OneD, PlannerBuildsMinimalWindow) {
  const auto p = fir_problem(100, grid::AxisBoundary::open(), 1);
  const auto plan = Engine(EngineOptions::smache()).plan_only(p);
  // Offsets -1..+1 linearise to -1..+1: window = reach + 3 = 5.
  EXPECT_EQ(plan.window_len(), 5u);
  EXPECT_EQ(plan.cases().case_count(), 3u);  // left edge, mid, right edge
}

TEST(OneD, IdentityShiftIsExact) {
  // Stencil {(0,1)} under periodic cols = circular left-shift per step.
  ProblemSpec p;
  p.height = 1;
  p.width = 16;
  p.shape = grid::StencilShape::custom("shift", {{0, 1}});
  p.bc = {grid::AxisBoundary::open(), grid::AxisBoundary::periodic()};
  p.kernel = rtl::KernelSpec{rtl::KernelKind::Identity,
                             rtl::ValueType::Int32, 0, 0};
  p.steps = 16;  // a full revolution restores the input
  const auto init = random_line(16, 5);
  const auto res = Engine(EngineOptions::smache()).run(p, init);
  EXPECT_EQ(res.output, init);
}

}  // namespace
}  // namespace smache
