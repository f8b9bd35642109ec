// Unit tests for the golden reference executor: tuple gathering through
// boundaries, hand-computed stencil steps, and a seeded differential check
// of the tap-table gather against per-tap boundary resolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.hpp"
#include "grid/reference.hpp"
#include "rtl/kernel.hpp"

namespace smache::grid {
namespace {

Grid<word_t> iota_grid(std::size_t h, std::size_t w) {
  Grid<word_t> g(h, w);
  for (std::size_t i = 0; i < g.size(); ++i)
    g[i] = to_word(static_cast<std::int32_t>(i));
  return g;
}

/// The F=1 tuple of 2D cell (r, c), through the oracle's tap tables.
std::vector<TupleElem> gather_2d(const Grid<word_t>& g,
                                 const StencilShape& shape,
                                 const BoundarySpec& bc, std::size_t r,
                                 std::size_t c) {
  const TapTables taps(shape, bc, 1, g.height(), g.width());
  std::vector<TupleElem> tuple(taps.taps() * g.fields());
  taps.gather(g, 0, r, c, tuple);
  return tuple;
}

/// The single-field average kernel on the cell path.
void average_cell(const std::vector<TupleElem>& t, word_t* out) {
  rtl::apply_kernel_cells(rtl::KernelSpec::average_int(), t, 1, out);
}

TEST(Reference, GatherInterior) {
  const auto g = iota_grid(11, 11);
  const auto t = gather_2d(g, StencilShape::von_neumann4(),
                           BoundarySpec::paper_example(), 5, 5);
  ASSERT_EQ(t.size(), 4u);
  // N, W, E, S of linear index 60.
  EXPECT_EQ(from_word<std::int32_t>(t[0].value), 49);
  EXPECT_EQ(from_word<std::int32_t>(t[1].value), 59);
  EXPECT_EQ(from_word<std::int32_t>(t[2].value), 61);
  EXPECT_EQ(from_word<std::int32_t>(t[3].value), 71);
  for (const auto& e : t) EXPECT_TRUE(e.valid);
}

TEST(Reference, GatherPaperCornerCases) {
  // Figure 1(a): for cell 0 (top-left), N wraps to 110, W is open-missing.
  const auto g = iota_grid(11, 11);
  const auto t = gather_2d(g, StencilShape::von_neumann4(),
                           BoundarySpec::paper_example(), 0, 0);
  EXPECT_TRUE(t[0].valid);
  EXPECT_EQ(from_word<std::int32_t>(t[0].value), 110);  // N -> bottom row
  EXPECT_FALSE(t[1].valid);                             // W open
  EXPECT_TRUE(t[2].valid);
  EXPECT_EQ(from_word<std::int32_t>(t[2].value), 1);    // E
  EXPECT_TRUE(t[3].valid);
  EXPECT_EQ(from_word<std::int32_t>(t[3].value), 11);   // S
}

TEST(Reference, GatherConstantHalo) {
  const auto g = iota_grid(4, 4);
  const BoundarySpec bc{AxisBoundary::constant_halo(to_word<std::int32_t>(99)),
                        AxisBoundary::open()};
  const auto t = gather_2d(g, StencilShape::von_neumann4(), bc, 0, 1);
  EXPECT_TRUE(t[0].valid);
  EXPECT_EQ(from_word<std::int32_t>(t[0].value), 99);
}

TEST(Reference, AverageStepHandComputed) {
  // 3x3 all-open grid, 4-point average at the centre: (1+3+5+7)/4 = 4.
  Grid<word_t> g(3, 3);
  const std::int32_t vals[9] = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  for (std::size_t i = 0; i < 9; ++i) g[i] = to_word(vals[i]);
  const auto out = run_steps_cells(g, StencilShape::von_neumann4(),
                                   BoundarySpec::all_open(), average_cell, 1);
  EXPECT_EQ(from_word<std::int32_t>(out.at(1, 1)), 4);
  // Corner (0,0): neighbours E=1, S=3 -> (1+3)/2 = 2.
  EXPECT_EQ(from_word<std::int32_t>(out.at(0, 0)), 2);
  // Edge (0,1): W=0, E=2, S=4 -> 6/3 = 2.
  EXPECT_EQ(from_word<std::int32_t>(out.at(0, 1)), 2);
}

TEST(Reference, PeriodicUniformGridIsFixedPoint) {
  // With all-periodic boundaries, a constant grid is a fixed point of the
  // averaging kernel at every step.
  Grid<word_t> g(6, 7, to_word<std::int32_t>(5));
  const auto out = run_steps_cells(g, StencilShape::von_neumann4(),
                                   BoundarySpec::all_periodic(), average_cell,
                                   10);
  EXPECT_EQ(out, g);
}

TEST(Reference, SumKernelConservesTotalUnderPeriodicShift) {
  // An identity-like check: shifting stencil {(0,1)} under all-periodic
  // boundaries is a circular shift, preserving the multiset of values.
  Grid<word_t> g = iota_grid(3, 4);
  const auto kernel = [](const std::vector<TupleElem>& t, word_t* out) {
    *out = t[0].value;
  };
  const auto out = run_steps_cells(g, StencilShape::custom("e", {{0, 1}}),
                                   BoundarySpec::all_periodic(), kernel, 1);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      EXPECT_EQ(out.at(r, c), g.at(r, (c + 1) % 4));
}

TEST(Reference, StepsComposeSequentially) {
  const auto g = iota_grid(5, 5);
  const auto shape = StencilShape::von_neumann4();
  const auto bc = BoundarySpec::paper_example();
  const auto two_steps = run_steps_cells(g, shape, bc, average_cell, 2);
  const auto one = run_steps_cells(g, shape, bc, average_cell, 1);
  const auto one_more = run_steps_cells(one, shape, bc, average_cell, 1);
  EXPECT_EQ(two_steps, one_more);
}

// ---- seeded differential check of the tap-table gather ----

/// Independent model of one axis fold: walks the target back into [0, n)
/// one period or reflection at a time. Keeps the semantics pinned even
/// though the tables and resolve() share resolve_axis and combine().
struct AxisModel {
  enum class Kind { Coord, Constant, Missing } kind;
  std::int64_t coord;
};

AxisModel model_axis(std::int64_t x, std::int64_t n, const AxisBoundary& b) {
  if (x >= 0 && x < n) return {AxisModel::Kind::Coord, x};
  switch (b.kind) {
    case BoundaryKind::Open:
      return {AxisModel::Kind::Missing, 0};
    case BoundaryKind::Constant:
      return {AxisModel::Kind::Constant, 0};
    case BoundaryKind::Periodic:
      while (x < 0) x += n;
      while (x >= n) x -= n;
      return {AxisModel::Kind::Coord, x};
    case BoundaryKind::Mirror:
      if (n == 1) return {AxisModel::Kind::Coord, 0};
      while (x < 0 || x >= n) x = x < 0 ? -x : 2 * (n - 1) - x;
      return {AxisModel::Kind::Coord, x};
  }
  return {AxisModel::Kind::Missing, 0};
}

AxisBoundary random_axis(Rng& rng, word_t constant) {
  switch (rng.next_below(4)) {
    case 0: return AxisBoundary::open();
    case 1: return AxisBoundary::periodic();
    case 2: return AxisBoundary::mirror();
    default: return AxisBoundary::constant_halo(constant);
  }
}

TEST(Reference, TableGatherMatchesPerTapResolve) {
  // Every cell, tap and field of the table gather must equal per-tap
  // grid::resolve() plus Grid::at; resolve() itself must match the
  // independent axis model under slices > rows > cols precedence. The
  // three axes carry distinct constants so the precedence shows.
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    const std::int64_t d = rng.next_in(1, 3);
    const std::int64_t h = rng.next_in(1, 9);
    const std::int64_t w = rng.next_in(1, 9);
    const auto depth = static_cast<std::size_t>(d);
    const auto height = static_cast<std::size_t>(h);
    const auto width = static_cast<std::size_t>(w);
    const auto fields = static_cast<std::size_t>(rng.next_in(1, 3));
    const BoundarySpec bc{random_axis(rng, 0x2000),
                          random_axis(rng, 0x3000),
                          random_axis(rng, 0x1000)};
    std::vector<Offset2> offsets;
    const auto want = static_cast<std::size_t>(rng.next_in(1, 9));
    for (std::size_t i = 0; i < 4 * want && offsets.size() < want; ++i) {
      const Offset2 o{rng.next_in(-2 * h, 2 * h), rng.next_in(-2 * w, 2 * w),
                      rng.next_in(-2 * d, 2 * d)};
      if (std::find(offsets.begin(), offsets.end(), o) == offsets.end())
        offsets.push_back(o);
    }
    const StencilShape shape = StencilShape::custom("random", offsets);
    Grid<word_t> in(height, width, depth, CellLayout{fields});
    for (std::size_t i = 0; i < in.size(); ++i)
      in[i] = static_cast<word_t>(rng.next_u64());

    const TapTables taps(shape, bc, depth, height, width);
    ASSERT_EQ(taps.taps(), shape.size());
    std::vector<TupleElem> tuple(shape.size() * fields);
    for (std::size_t s = 0; s < depth; ++s)
      for (std::size_t r = 0; r < height; ++r)
        for (std::size_t c = 0; c < width; ++c) {
          taps.gather(in, s, r, c, tuple);
          for (std::size_t t = 0; t < shape.size(); ++t) {
            const Offset2 o = shape.offsets()[t];
            SCOPED_TRACE("seed " + std::to_string(seed) + " cell (" +
                         std::to_string(s) + "," + std::to_string(r) + "," +
                         std::to_string(c) + ") tap " + std::to_string(t));
            const Resolved res =
                resolve(s, r, c, o.ds, o.dr, o.dc, depth, height, width, bc);

            const AxisModel ms = model_axis(
                static_cast<std::int64_t>(s) + o.ds, d, bc.slices);
            const AxisModel mr =
                model_axis(static_cast<std::int64_t>(r) + o.dr, h, bc.rows);
            const AxisModel mc =
                model_axis(static_cast<std::int64_t>(c) + o.dc, w, bc.cols);
            if (ms.kind == AxisModel::Kind::Missing ||
                mr.kind == AxisModel::Kind::Missing ||
                mc.kind == AxisModel::Kind::Missing) {
              EXPECT_EQ(res.kind, Resolved::Kind::Missing);
            } else if (ms.kind == AxisModel::Kind::Constant) {
              ASSERT_EQ(res.kind, Resolved::Kind::Constant);
              EXPECT_EQ(res.constant, bc.slices.constant);
            } else if (mr.kind == AxisModel::Kind::Constant) {
              ASSERT_EQ(res.kind, Resolved::Kind::Constant);
              EXPECT_EQ(res.constant, bc.rows.constant);
            } else if (mc.kind == AxisModel::Kind::Constant) {
              ASSERT_EQ(res.kind, Resolved::Kind::Constant);
              EXPECT_EQ(res.constant, bc.cols.constant);
            } else {
              ASSERT_EQ(res.kind, Resolved::Kind::Cell);
              EXPECT_EQ(static_cast<std::int64_t>(res.s), ms.coord);
              EXPECT_EQ(static_cast<std::int64_t>(res.r), mr.coord);
              EXPECT_EQ(static_cast<std::int64_t>(res.c), mc.coord);
            }

            for (std::size_t f = 0; f < fields; ++f) {
              const TupleElem& got = tuple[t * fields + f];
              switch (res.kind) {
                case Resolved::Kind::Cell:
                  EXPECT_TRUE(got.valid);
                  EXPECT_EQ(got.value, in.at(res.s, res.r, res.c, f));
                  break;
                case Resolved::Kind::Constant:
                  EXPECT_TRUE(got.valid);
                  EXPECT_EQ(got.value, res.constant);
                  break;
                case Resolved::Kind::Missing:
                  EXPECT_FALSE(got.valid);
                  EXPECT_EQ(got.value, 0u);
                  break;
              }
            }
          }
        }
  }
}

TEST(Reference, TableGatherRejectsForeignExtents) {
  const TapTables taps(StencilShape::von_neumann4(),
                       BoundarySpec::paper_example(), 1, 5, 5);
  const Grid<word_t> other(5, 6);
  std::vector<TupleElem> tuple(taps.taps());
  EXPECT_THROW(taps.gather(other, 0, 0, 0, tuple), contract_error);
  const Grid<word_t> same(5, 5);
  EXPECT_THROW(taps.gather(same, 0, 5, 0, tuple), contract_error);
  std::vector<TupleElem> short_tuple(taps.taps() - 1);
  EXPECT_THROW(taps.gather(same, 0, 0, 0, short_tuple), contract_error);
}

}  // namespace
}  // namespace smache::grid
