// Unit tests for boundary resolution: open, periodic, mirror, constant, on
// both axes and combined.
#include <gtest/gtest.h>

#include "grid/boundary.hpp"

namespace smache::grid {
namespace {

TEST(AxisResolve, InRangeNeedsNoBoundary) {
  for (auto kind : {BoundaryKind::Open, BoundaryKind::Periodic,
                    BoundaryKind::Mirror, BoundaryKind::Constant}) {
    const AxisBoundary b{kind, 7};
    const auto r = resolve_axis(3, 2, 10, b);
    EXPECT_EQ(r.kind, AxisResolved::Kind::Coord);
    EXPECT_EQ(r.coord, 5u);
  }
}

TEST(AxisResolve, OpenMisses) {
  const auto lo = resolve_axis(0, -1, 10, AxisBoundary::open());
  EXPECT_EQ(lo.kind, AxisResolved::Kind::Missing);
  const auto hi = resolve_axis(9, 2, 10, AxisBoundary::open());
  EXPECT_EQ(hi.kind, AxisResolved::Kind::Missing);
}

TEST(AxisResolve, PeriodicWrapsBothWays) {
  EXPECT_EQ(resolve_axis(0, -1, 11, AxisBoundary::periodic()).coord, 10u);
  EXPECT_EQ(resolve_axis(10, 1, 11, AxisBoundary::periodic()).coord, 0u);
  EXPECT_EQ(resolve_axis(10, 3, 11, AxisBoundary::periodic()).coord, 2u);
  EXPECT_EQ(resolve_axis(1, -13, 11, AxisBoundary::periodic()).coord, 10u);
}

TEST(AxisResolve, MirrorReflectsWithoutRepeatingEdge) {
  EXPECT_EQ(resolve_axis(0, -1, 5, AxisBoundary::mirror()).coord, 1u);
  EXPECT_EQ(resolve_axis(0, -2, 5, AxisBoundary::mirror()).coord, 2u);
  EXPECT_EQ(resolve_axis(4, 1, 5, AxisBoundary::mirror()).coord, 3u);
  EXPECT_EQ(resolve_axis(4, 2, 5, AxisBoundary::mirror()).coord, 2u);
}

TEST(AxisResolve, ConstantMarks) {
  const auto r = resolve_axis(0, -1, 5, AxisBoundary::constant_halo(42));
  EXPECT_EQ(r.kind, AxisResolved::Kind::Constant);
}

TEST(Resolve2D, InteriorCell) {
  const BoundarySpec bc = BoundarySpec::paper_example();
  const Resolved r = resolve(0, 5, 5, 0, -1, 0, 1, 11, 11, bc);
  ASSERT_EQ(r.kind, Resolved::Kind::Cell);
  EXPECT_EQ(r.r, 4u);
  EXPECT_EQ(r.c, 5u);
}

TEST(Resolve2D, PaperTopRowWrapsToBottom) {
  // Figure 1(a): the N neighbour of cell 5 (row 0) is cell 115 (row 10).
  const BoundarySpec bc = BoundarySpec::paper_example();
  const Resolved r = resolve(0, 0, 5, 0, -1, 0, 1, 11, 11, bc);
  ASSERT_EQ(r.kind, Resolved::Kind::Cell);
  EXPECT_EQ(r.r, 10u);
  EXPECT_EQ(r.c, 5u);
}

TEST(Resolve2D, PaperLeftColumnIsOpen) {
  const BoundarySpec bc = BoundarySpec::paper_example();
  EXPECT_EQ(resolve(0, 5, 0, 0, 0, -1, 1, 11, 11, bc).kind,
            Resolved::Kind::Missing);
  EXPECT_EQ(resolve(0, 5, 10, 0, 0, 1, 1, 11, 11, bc).kind,
            Resolved::Kind::Missing);
}

TEST(Resolve2D, MissingBeatsConstant) {
  // If one axis is open-missing the element is missing, even when the
  // other axis would supply a constant.
  const BoundarySpec bc{AxisBoundary::constant_halo(9),
                        AxisBoundary::open()};
  EXPECT_EQ(resolve(0, 0, 0, 0, -1, -1, 1, 5, 5, bc).kind,
            Resolved::Kind::Missing);
}

TEST(Resolve2D, RowConstantTakesPrecedence) {
  const BoundarySpec bc{AxisBoundary::constant_halo(1),
                        AxisBoundary::constant_halo(2)};
  const Resolved r = resolve(0, 0, 0, 0, -1, -1, 1, 5, 5, bc);
  ASSERT_EQ(r.kind, Resolved::Kind::Constant);
  EXPECT_EQ(r.constant, 1u);
}

TEST(Resolve2D, DiagonalDoubleWrap) {
  const BoundarySpec bc = BoundarySpec::all_periodic();
  const Resolved r = resolve(0, 0, 0, 0, -1, -1, 1, 4, 6, bc);
  ASSERT_EQ(r.kind, Resolved::Kind::Cell);
  EXPECT_EQ(r.r, 3u);
  EXPECT_EQ(r.c, 5u);
}

TEST(BoundaryNames, Stringify) {
  EXPECT_STREQ(to_string(BoundaryKind::Open), "open");
  EXPECT_STREQ(to_string(BoundaryKind::Periodic), "periodic");
  EXPECT_STREQ(to_string(BoundaryKind::Mirror), "mirror");
  EXPECT_STREQ(to_string(BoundaryKind::Constant), "constant");
}

}  // namespace
}  // namespace smache::grid
