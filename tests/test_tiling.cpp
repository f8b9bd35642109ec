// Halo-exchange spatial tiling: geometry planning (tile rectangles, halo
// clipping, per-axis sub-boundaries, validated rejections), gather/stitch
// round-trips, and the engine-level bit-identity wall — run_tiled must
// match the golden reference (and thus the untiled engine, which the
// equivalence suites pin to the same oracle) for every supported boundary
// x stencil x depth x mesh x thread-count pairing.
#include <gtest/gtest.h>

#include <string>

#include "core/engine.hpp"
#include "grid/tiling.hpp"
#include "support/test_grids.hpp"

namespace smache {
namespace {

using grid::AxisBoundary;
using grid::BoundaryKind;
using grid::BoundarySpec;
using grid::StencilShape;
using grid::TileGeometry;
using grid::TilingLayout;

grid::Grid<word_t> random_grid(std::size_t h, std::size_t w,
                               std::uint64_t seed) {
  return test_support::random_grid(h, w, seed, 1 << 12);
}

// ---- geometry ----

TEST(TilingGeometry, InteriorsPartitionTheGrid) {
  const TilingLayout layout =
      grid::plan_tiling(11, 13, 3, 2, StencilShape::von_neumann4(),
                        BoundarySpec::all_open(), 1);
  ASSERT_EQ(layout.tiles.size(), 6u);
  grid::Grid<int> covered(11, 13, 0);
  for (const TileGeometry& t : layout.tiles)
    for (std::size_t r = 0; r < t.rows; ++r)
      for (std::size_t c = 0; c < t.cols; ++c)
        covered.at(t.r0 + r, t.c0 + c) += 1;
  for (std::size_t i = 0; i < covered.size(); ++i)
    EXPECT_EQ(covered[i], 1) << "cell " << i;
  // Balanced split: 11 rows over 3 tiles = 4,4,3; 13 cols over 2 = 7,6.
  EXPECT_EQ(layout.tiles[0].rows, 4u);
  EXPECT_EQ(layout.tiles[4].rows, 3u);
  EXPECT_EQ(layout.tiles[0].cols, 7u);
  EXPECT_EQ(layout.tiles[1].cols, 6u);
}

TEST(TilingGeometry, HalosClipAtTrueEdgesAndKeepTheGlobalFamily) {
  // Open boundaries, depth 2, vn4 (reach 1 per side): interior cuts want
  // 2-cell halos, true edges clip to 0, and every tile keeps the open
  // family so its edge resolves exactly like the untiled grid's.
  const TilingLayout layout =
      grid::plan_tiling(12, 12, 3, 1, StencilShape::von_neumann4(),
                        BoundarySpec::all_open(), 2);
  ASSERT_EQ(layout.tiles.size(), 3u);
  EXPECT_EQ(layout.tiles[0].halo_top, 0u);
  EXPECT_EQ(layout.tiles[0].halo_bottom, 2u);
  EXPECT_EQ(layout.tiles[1].halo_top, 2u);
  EXPECT_EQ(layout.tiles[1].halo_bottom, 2u);
  EXPECT_EQ(layout.tiles[2].halo_top, 2u);
  EXPECT_EQ(layout.tiles[2].halo_bottom, 0u);
  for (const TileGeometry& t : layout.tiles) {
    EXPECT_EQ(t.sub_bc.rows.kind, BoundaryKind::Open);
    EXPECT_EQ(t.halo_left, 0u);  // unsplit axis: no halo
    EXPECT_EQ(t.halo_right, 0u);
  }
}

TEST(TilingGeometry, SplitPeriodicAxisBecomesOpenWithFullHalos) {
  // Both periodic axes split (an unsplit periodic axis cannot carry
  // depth > 1 — see RejectsUnsplitPeriodicAxisAtDepth).
  const TilingLayout layout =
      grid::plan_tiling(10, 10, 2, 2, StencilShape::von_neumann4(),
                        BoundarySpec::all_periodic(), 3);
  for (const TileGeometry& t : layout.tiles) {
    // Un-clipped halos even at the true edge (they wrap at gather time)...
    EXPECT_EQ(t.halo_top, 3u);
    EXPECT_EQ(t.halo_bottom, 3u);
    EXPECT_EQ(t.halo_left, 3u);
    EXPECT_EQ(t.halo_right, 3u);
    // ...and the sub-problems see open axes: the wrap has been turned
    // into halo exchange.
    EXPECT_EQ(t.sub_bc.rows.kind, BoundaryKind::Open);
    EXPECT_EQ(t.sub_bc.cols.kind, BoundaryKind::Open);
  }
  EXPECT_LT(layout.tiles[0].origin_r(), 0);  // wraps above the grid origin

  // At depth 1 an unsplit periodic axis is fine and survives untouched.
  const TilingLayout flat =
      grid::plan_tiling(10, 10, 2, 1, StencilShape::von_neumann4(),
                        BoundarySpec::all_periodic(), 1);
  EXPECT_EQ(flat.tiles[0].sub_bc.rows.kind, BoundaryKind::Open);
  EXPECT_EQ(flat.tiles[0].sub_bc.cols.kind, BoundaryKind::Periodic);
  EXPECT_EQ(flat.tiles[0].halo_top, 1u);
}

TEST(TilingGeometry, AsymmetricReachGivesAsymmetricHalos) {
  // upwind3 = {(0,0),(0,-1),(-1,0)}: reach 1 up/left, 0 down/right. An
  // interior tile needs a halo only on the sides data flows FROM.
  const TilingLayout layout =
      grid::plan_tiling(9, 9, 3, 3, StencilShape::upwind3(),
                        BoundarySpec::all_open(), 1);
  const TileGeometry& mid = layout.tiles[4];
  EXPECT_EQ(mid.halo_top, 1u);
  EXPECT_EQ(mid.halo_bottom, 0u);
  EXPECT_EQ(mid.halo_left, 1u);
  EXPECT_EQ(mid.halo_right, 0u);
}

TEST(TilingGeometry, ConstantFamilySurvivesTheSplit) {
  const BoundarySpec bc{AxisBoundary::constant_halo(7),
                        AxisBoundary::constant_halo(9)};
  const TilingLayout layout = grid::plan_tiling(
      8, 8, 2, 2, StencilShape::von_neumann4(), bc, 1);
  for (const TileGeometry& t : layout.tiles) {
    EXPECT_EQ(t.sub_bc.rows.kind, BoundaryKind::Constant);
    EXPECT_EQ(t.sub_bc.rows.constant, 7u);
    EXPECT_EQ(t.sub_bc.cols.constant, 9u);
  }
}

TEST(TilingGeometry, RejectsMoreTilesThanCells) {
  EXPECT_THROW(grid::plan_tiling(4, 8, 5, 1, StencilShape::von_neumann4(),
                                 BoundarySpec::all_open(), 1),
               contract_error);
}

TEST(TilingGeometry, RejectsPaddedExtentBelowTheStencilSpan) {
  // cross(3) spans 6 on each axis: an 11-row grid split 3 ways leaves a
  // 3-row bottom tile whose clipped padded extent is 6 — too small.
  try {
    grid::plan_tiling(11, 11, 3, 1, StencilShape::cross(3),
                      BoundarySpec::all_open(), 1);
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("stencil's span"),
              std::string::npos)
        << e.what();
  }
}

TEST(TilingGeometry, RejectsMirrorTilesSmallerThanTheReflectedReach) {
  // Asymmetric reach (2 up, 1 down), mirror rows, depth 3: a 1-row top
  // tile pads to 1 + 3*1 = 4 rows — above the stencil span (3) but not
  // above the reflected reach 2 + 2*1 = 4, so the fold at the true top
  // edge would read cells the bottom cut's error front already consumed.
  const StencilShape updown =
      StencilShape::custom("updown", {{-2, 0}, {0, 0}, {1, 0}});
  try {
    grid::plan_tiling(6, 6, 6, 1, updown,
                      {AxisBoundary::mirror(), AxisBoundary::open()}, 3);
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("mirror"), std::string::npos)
        << e.what();
  }
  // The same mesh tiles fine once the boundary is open (no reflection).
  EXPECT_NO_THROW(grid::plan_tiling(
      6, 6, 6, 1, updown, {AxisBoundary::open(), AxisBoundary::open()}, 3));
}

TEST(TilingGeometry, RejectsUnsplitPeriodicAxisAtDepth) {
  // Fusing across a periodic wrap needs the axis split (halo exchange) —
  // an unsplit periodic axis at depth > 1 is a descriptive rejection.
  try {
    grid::plan_tiling(10, 10, 1, 2, StencilShape::von_neumann4(),
                      BoundarySpec::paper_example(), 2);
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsplit periodic"),
              std::string::npos)
        << e.what();
  }
  // Splitting that axis makes the same pairing plannable.
  EXPECT_NO_THROW(grid::plan_tiling(10, 10, 2, 2,
                                    StencilShape::von_neumann4(),
                                    BoundarySpec::paper_example(), 2));
}

TEST(TilingGeometry, GatherStitchRoundTripsWithoutComputation) {
  // Stitching ungathered tiles back must reproduce the source grid exactly
  // for every boundary family (halo cells are read-only by construction).
  const auto src = random_grid(9, 7, 41);
  for (const BoundarySpec bc :
       {BoundarySpec::all_open(), BoundarySpec::all_periodic(),
        BoundarySpec::all_mirror(), BoundarySpec::paper_example()}) {
    const TilingLayout layout = grid::plan_tiling(
        9, 7, 3, 2, StencilShape::von_neumann4(), bc, 1);
    grid::Grid<word_t> rebuilt(9, 7);
    for (const TileGeometry& t : layout.tiles)
      grid::stitch_interior(rebuilt, t, grid::gather_tile(src, t, bc));
    EXPECT_EQ(rebuilt, src);
  }
}

TEST(TilingGeometry, PeriodicGatherWrapsHalosFromTheOppositeEdge) {
  const auto src = random_grid(6, 6, 42);
  const TilingLayout layout =
      grid::plan_tiling(6, 6, 2, 1, StencilShape::von_neumann4(),
                        BoundarySpec::all_periodic(), 1);
  const TileGeometry& top = layout.tiles[0];
  const auto sub = grid::gather_tile(src, top, BoundarySpec::all_periodic());
  // Subgrid row 0 is the halo row above global row 0 — i.e. global row 5.
  for (std::size_t c = 0; c < 6; ++c)
    EXPECT_EQ(sub.at(0, c), src.at(5, c));
}

// ---- engine-level bit-identity wall ----

struct TiledCase {
  const char* name;
  BoundarySpec bc;
  StencilShape shape;
  std::size_t depth;
};

// Boundary x stencil x depth pairings covering all four families (incl.
// asymmetric reaches against mirror/periodic edges) — every one must be
// bit-identical to the reference through any mesh.
std::vector<TiledCase> tiled_cases() {
  const BoundarySpec constant{AxisBoundary::constant_halo(5),
                              AxisBoundary::constant_halo(12)};
  return {
      {"open-vn4-d1", BoundarySpec::all_open(),
       StencilShape::von_neumann4(), 1},
      {"open-moore9-d2", BoundarySpec::all_open(), StencilShape::moore9(),
       2},
      {"periodic-vn4-d1", BoundarySpec::all_periodic(),
       StencilShape::von_neumann4(), 1},
      {"periodic-moore9-d2", BoundarySpec::all_periodic(),
       StencilShape::moore9(), 2},
      {"paper-vn4-d1", BoundarySpec::paper_example(),
       StencilShape::von_neumann4(), 1},
      {"mirror-vn4-d1", BoundarySpec::all_mirror(),
       StencilShape::von_neumann4(), 1},
      {"mirror-moore9-d2", BoundarySpec::all_mirror(),
       StencilShape::moore9(), 2},
      {"constant-plus5-d1", constant, StencilShape::plus5(), 1},
      {"open-upwind3-d1", BoundarySpec::all_open(),
       StencilShape::upwind3(), 1},
      {"periodic-upwind3-d2", BoundarySpec::all_periodic(),
       StencilShape::upwind3(), 2},
      {"mirror-upwind3-d1", BoundarySpec::all_mirror(),
       StencilShape::upwind3(), 1},
  };
}

TEST(TiledEngine, BitIdenticalToReferenceAcrossMeshes) {
  const struct {
    std::size_t tiles_r, tiles_c;
  } meshes[] = {{1, 2}, {2, 1}, {2, 2}, {3, 3}, {1, 4}};
  for (const TiledCase& tc : tiled_cases()) {
    ProblemSpec p;
    p.height = 12;
    p.width = 12;
    p.shape = tc.shape;
    p.bc = tc.bc;
    p.steps = 4;
    const auto init = random_grid(p.height, p.width, 1000 + tc.depth);
    const auto golden = reference_run(p, init);
    for (const auto& m : meshes) {
      TilingSpec tiling;
      tiling.tiles_r = m.tiles_r;
      tiling.tiles_c = m.tiles_c;
      tiling.depth = tc.depth;
      // Depth > 1 across an UNSPLIT periodic axis is a documented
      // validated rejection (the wrap can't ride inside one fused pass);
      // every other pairing must be bit-identical to the reference.
      const bool rejected =
          tc.depth > 1 &&
          ((tc.bc.rows.kind == BoundaryKind::Periodic && m.tiles_r == 1) ||
           (tc.bc.cols.kind == BoundaryKind::Periodic && m.tiles_c == 1));
      if (rejected) {
        try {
          Engine(EngineOptions::smache()).run_tiled(p, init, tiling);
          ADD_FAILURE() << tc.name << " @ " << m.tiles_r << 'x'
                        << m.tiles_c << ": expected contract_error";
        } catch (const contract_error& e) {
          EXPECT_NE(std::string(e.what()).find("unsplit periodic"),
                    std::string::npos)
              << e.what();
        }
        continue;
      }
      const auto res =
          Engine(EngineOptions::smache()).run_tiled(p, init, tiling);
      EXPECT_EQ(res.output, golden)
          << tc.name << " @ " << m.tiles_r << 'x' << m.tiles_c;
    }
  }
}

TEST(TiledEngine, ThreadCountNeverChangesTheResult) {
  ProblemSpec p;
  p.height = 16;
  p.width = 16;
  p.shape = grid::StencilShape::moore9();
  p.bc = BoundarySpec::paper_example();
  p.steps = 6;
  const auto init = random_grid(p.height, p.width, 7);
  const Engine engine(EngineOptions::smache());
  TilingSpec serial{3, 3, 1, 2};
  TilingSpec threaded{3, 3, 4, 2};
  const auto a = engine.run_tiled(p, init, serial);
  const auto b = engine.run_tiled(p, init, threaded);
  // The FULL result must match, not just the grid: cycles, warmup, DRAM
  // counters, resources — aggregation is tile-order-deterministic.
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.warmup_cycles, b.warmup_cycles);
  EXPECT_EQ(a.dram.read_requests, b.dram.read_requests);
  EXPECT_EQ(a.dram.words_read, b.dram.words_read);
  EXPECT_EQ(a.dram.words_written, b.dram.words_written);
  EXPECT_EQ(a.resources.r_total, b.resources.r_total);
  EXPECT_EQ(a.resources.b_total, b.resources.b_total);
  EXPECT_EQ(a.timing.fmax_mhz, b.timing.fmax_mhz);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.output, reference_run(p, init));
}

TEST(TiledEngine, BaselineArchitectureTilesToo) {
  ProblemSpec p;
  p.height = 10;
  p.width = 10;
  p.shape = grid::StencilShape::von_neumann4();
  p.bc = BoundarySpec::all_open();
  p.steps = 3;
  const auto init = random_grid(p.height, p.width, 21);
  TilingSpec tiling{2, 2, 2, 1};
  const auto res =
      Engine(EngineOptions::baseline()).run_tiled(p, init, tiling);
  EXPECT_EQ(res.output, reference_run(p, init));
  EXPECT_FALSE(res.estimate.has_value());  // baseline has no estimate
}

TEST(TiledEngine, TrivialMeshFallsBackToTheUntiledEngine) {
  ProblemSpec p = ProblemSpec::paper_example();
  p.steps = 5;
  const auto init = random_grid(11, 11, 90);
  const Engine engine(EngineOptions::smache());
  const auto plain = engine.run(p, init);
  const auto tiled = engine.run_tiled(p, init, TilingSpec{1, 1, 4, 1});
  // Not merely the same answer — the identical RunResult (cycles, warmup,
  // traffic), because 1x1 routes through the very same code path.
  EXPECT_EQ(tiled.output, plain.output);
  EXPECT_EQ(tiled.cycles, plain.cycles);
  EXPECT_EQ(tiled.warmup_cycles, plain.warmup_cycles);
  EXPECT_EQ(tiled.dram.words_read, plain.dram.words_read);
}

TEST(TiledEngine, EnablesDepthAcrossPeriodicBoundaries) {
  // The headline capability: untiled depth>1 rejects periodic wraps, but
  // splitting the periodic axes turns the wrap into halo exchange and the
  // fused cascade runs — still bit-identical to the reference.
  ProblemSpec p;
  p.height = 12;
  p.width = 12;
  p.shape = grid::StencilShape::von_neumann4();
  p.bc = BoundarySpec::all_periodic();
  p.steps = 6;
  const auto init = random_grid(p.height, p.width, 33);
  const Engine engine(EngineOptions::smache());
  EXPECT_THROW(engine.run_cascade(p, init, 3), contract_error);
  const auto res = engine.run_tiled(p, init, TilingSpec{2, 2, 1, 3});
  EXPECT_EQ(res.output, reference_run(p, init));
}

TEST(TiledEngine, RejectsIndivisibleSteps) {
  ProblemSpec p;
  p.height = 10;
  p.width = 10;
  p.bc = BoundarySpec::all_open();
  p.steps = 5;
  const auto init = random_grid(10, 10, 3);
  try {
    Engine(EngineOptions::smache())
        .run_tiled(p, init, TilingSpec{2, 2, 1, 2});
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("multiple of the tiling depth"),
              std::string::npos)
        << e.what();
  }
}

TEST(TiledEngine, AggregatesTileCostsHonestly) {
  ProblemSpec p;
  p.height = 12;
  p.width = 12;
  p.shape = grid::StencilShape::von_neumann4();
  p.bc = BoundarySpec::all_open();
  p.steps = 4;
  const auto init = random_grid(p.height, p.width, 55);
  const Engine engine(EngineOptions::smache());
  const auto plain = engine.run(p, init);
  const auto tiled = engine.run_tiled(p, init, TilingSpec{2, 2, 1, 1});
  // Four replicated datapaths: more total resources than one...
  EXPECT_GT(tiled.resources.r_total, plain.resources.r_total);
  // ...and halo redundancy costs extra DRAM traffic, honestly charged.
  EXPECT_GT(tiled.dram.words_read, plain.dram.words_read);
  // Logical ops are tiling-invariant (redundant halo compute is a cost,
  // not output).
  EXPECT_EQ(tiled.ops, plain.ops);
  // Per-pass concurrency: a pass costs its slowest tile, so the total is
  // below the untiled serial cycle count for a same-size problem split 4
  // ways (each tile streams ~1/4 of the cells per pass).
  EXPECT_LT(tiled.cycles, plain.cycles);
}

TEST(TiledEngine, DramCountersAndResourcesAreTheSumOverTiles) {
  // One pass (steps == depth), so the four tile-runs below are the whole
  // tiled scenario: every DRAM counter — the injected-fault counters
  // included — and every pass-0 resource must be their field-by-field sum.
  ProblemSpec p;
  p.height = 16;
  p.width = 16;
  p.shape = StencilShape::von_neumann4();
  p.bc = BoundarySpec::all_open();
  p.steps = 1;
  EngineOptions opts = EngineOptions::smache();
  opts.dram.storm_every = 11;
  opts.dram.storm_cycles = 5;
  opts.dram.delay_every = 7;
  opts.dram.delay_cycles = 3;
  const Engine engine(opts);
  const auto init = random_grid(p.height, p.width, 91);
  const RunResult tiled = engine.run_tiled(p, init, TilingSpec{2, 2, 1, 1});

  const TilingLayout layout =
      grid::plan_tiling(p.height, p.width, 2, 2, p.shape, p.bc, 1);
  ASSERT_EQ(layout.tiles.size(), 4u);
  mem::DramStats dram;
  cost::MemoryActual resources;
  for (const TileGeometry& t : layout.tiles) {
    ProblemSpec sub = p;
    sub.height = t.sub_height();
    sub.width = t.sub_width();
    sub.bc = t.sub_bc;
    const RunResult r = engine.run(sub, grid::gather_tile(init, t, p.bc));
    dram.read_requests += r.dram.read_requests;
    dram.words_read += r.dram.words_read;
    dram.words_written += r.dram.words_written;
    dram.row_hits += r.dram.row_hits;
    dram.row_misses += r.dram.row_misses;
    dram.injected_stall_cycles += r.dram.injected_stall_cycles;
    dram.injected_delay_cycles += r.dram.injected_delay_cycles;
    dram.read_busy_cycles += r.dram.read_busy_cycles;
    resources.r_static += r.resources.r_static;
    resources.b_static += r.resources.b_static;
    resources.r_stream += r.resources.r_stream;
    resources.b_stream += r.resources.b_stream;
    resources.r_total += r.resources.r_total;
    resources.b_total += r.resources.b_total;
    resources.m20k_blocks += r.resources.m20k_blocks;
  }
  // Both fault flavours actually fired, so the sums below are not 0 == 0.
  EXPECT_GT(dram.injected_stall_cycles, 0u);
  EXPECT_GT(dram.injected_delay_cycles, 0u);

  EXPECT_EQ(tiled.dram.read_requests, dram.read_requests);
  EXPECT_EQ(tiled.dram.words_read, dram.words_read);
  EXPECT_EQ(tiled.dram.words_written, dram.words_written);
  EXPECT_EQ(tiled.dram.row_hits, dram.row_hits);
  EXPECT_EQ(tiled.dram.row_misses, dram.row_misses);
  EXPECT_EQ(tiled.dram.injected_stall_cycles, dram.injected_stall_cycles);
  EXPECT_EQ(tiled.dram.injected_delay_cycles, dram.injected_delay_cycles);
  EXPECT_EQ(tiled.dram.read_busy_cycles, dram.read_busy_cycles);

  EXPECT_EQ(tiled.resources.r_static, resources.r_static);
  EXPECT_EQ(tiled.resources.b_static, resources.b_static);
  EXPECT_EQ(tiled.resources.r_stream, resources.r_stream);
  EXPECT_EQ(tiled.resources.b_stream, resources.b_stream);
  EXPECT_EQ(tiled.resources.r_total, resources.r_total);
  EXPECT_EQ(tiled.resources.b_total, resources.b_total);
  EXPECT_EQ(tiled.resources.m20k_blocks, resources.m20k_blocks);
}

}  // namespace
}  // namespace smache
