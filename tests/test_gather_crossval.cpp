// Exhaustive cross-validation of the planner's gather table against the
// boundary resolver: for EVERY cell of EVERY case and EVERY stencil
// offset, the gather source must denote exactly the element that
// grid::resolve says the stencil references. This is the strongest static
// check on the zone/case machinery: if any zone were not truly uniform,
// some cell would disagree.
#include <gtest/gtest.h>

#include "grid/boundary.hpp"
#include "model/planner.hpp"

namespace smache::model {
namespace {

struct Config {
  const char* name;
  std::size_t h, w;
  grid::StencilShape shape;
  grid::BoundarySpec bc;
};

class GatherCrossVal : public ::testing::TestWithParam<Config> {};

TEST_P(GatherCrossVal, EveryCellEveryOffset) {
  const Config& cfg = GetParam();
  for (auto impl : {StreamImpl::Hybrid, StreamImpl::RegisterOnly}) {
    PlannerOptions opts;
    opts.stream_impl = impl;
    const BufferPlan plan =
        Planner(opts).plan(cfg.h, cfg.w, cfg.shape, cfg.bc);
    const auto W = static_cast<std::int64_t>(cfg.w);

    for (std::size_t r = 0; r < cfg.h; ++r) {
      for (std::size_t c = 0; c < cfg.w; ++c) {
        const std::size_t case_id = plan.cases().case_of(r, c);
        const auto& sources = plan.gather(case_id);
        ASSERT_EQ(sources.size(), cfg.shape.size());
        for (std::size_t j = 0; j < cfg.shape.size(); ++j) {
          const grid::Offset2 o = cfg.shape.offsets()[j];
          const grid::Resolved res =
              grid::resolve(0, r, c, 0, o.dr, o.dc, 1, cfg.h, cfg.w,
                            cfg.bc);
          const GatherSource& g = sources[j];
          SCOPED_TRACE(std::string(cfg.name) + " cell(" +
                       std::to_string(r) + "," + std::to_string(c) +
                       ") offset " + std::to_string(j));
          switch (res.kind) {
            case grid::Resolved::Kind::Missing:
              EXPECT_EQ(g.kind, SourceKind::Skip);
              break;
            case grid::Resolved::Kind::Constant:
              ASSERT_EQ(g.kind, SourceKind::Constant);
              EXPECT_EQ(g.constant, res.constant);
              break;
            case grid::Resolved::Kind::Cell: {
              const std::int64_t d =
                  (static_cast<std::int64_t>(res.r) -
                   static_cast<std::int64_t>(r)) *
                      W +
                  (static_cast<std::int64_t>(res.c) -
                   static_cast<std::int64_t>(c));
              if (g.kind == SourceKind::Window) {
                // The tap age must encode exactly the stream distance.
                EXPECT_EQ(static_cast<std::int64_t>(plan.center_age()) -
                              static_cast<std::int64_t>(g.window_age),
                          d);
              } else {
                ASSERT_EQ(g.kind, SourceKind::Static);
                const auto& bank =
                    plan.static_buffers()[g.static_index];
                EXPECT_EQ(bank.grid_row, res.r);
                EXPECT_EQ(static_cast<std::int64_t>(c) + g.col_shift,
                          static_cast<std::int64_t>(res.c));
              }
              break;
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GatherCrossVal,
    ::testing::Values(
        Config{"paper", 11, 11, grid::StencilShape::von_neumann4(),
               grid::BoundarySpec::paper_example()},
        Config{"moore_torus", 9, 12, grid::StencilShape::moore9(),
               grid::BoundarySpec::all_periodic()},
        Config{"cross2_periodic_rows", 16, 8, grid::StencilShape::cross(2),
               {grid::AxisBoundary::periodic(), grid::AxisBoundary::open()}},
        Config{"mirror_plus", 7, 7, grid::StencilShape::plus5(),
               grid::BoundarySpec::all_mirror()},
        Config{"const_halo", 8, 10, grid::StencilShape::von_neumann4(),
               {grid::AxisBoundary::constant_halo(5),
                grid::AxisBoundary::constant_halo(9)}},
        Config{"upwind_channel", 12, 6, grid::StencilShape::upwind3(),
               {grid::AxisBoundary::periodic(),
                grid::AxisBoundary::mirror()}},
        Config{"tiny_periodic", 3, 11, grid::StencilShape::von_neumann4(),
               {grid::AxisBoundary::periodic(), grid::AxisBoundary::open()}},
        Config{"one_row_fir", 1, 24,
               grid::StencilShape::custom("fir", {{0, -2}, {0, 0}, {0, 2}}),
               {grid::AxisBoundary::open(), grid::AxisBoundary::periodic()}}),
    [](const ::testing::TestParamInfo<Config>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace smache::model
