#include "grid/boundary.hpp"

namespace smache::grid {

const char* to_string(BoundaryKind kind) noexcept {
  switch (kind) {
    case BoundaryKind::Open: return "open";
    case BoundaryKind::Periodic: return "periodic";
    case BoundaryKind::Mirror: return "mirror";
    case BoundaryKind::Constant: return "constant";
  }
  return "?";
}

AxisResolved resolve_axis(std::int64_t x, std::int64_t dx, std::size_t n,
                          const AxisBoundary& b) noexcept {
  const std::int64_t target = x + dx;
  const auto extent = static_cast<std::int64_t>(n);
  if (target >= 0 && target < extent)
    return {AxisResolved::Kind::Coord, static_cast<std::size_t>(target)};
  switch (b.kind) {
    case BoundaryKind::Open:
      return {AxisResolved::Kind::Missing, 0};
    case BoundaryKind::Periodic:
      return {AxisResolved::Kind::Coord,
              static_cast<std::size_t>(smache::floor_mod(target, extent))};
    case BoundaryKind::Mirror:
      return {AxisResolved::Kind::Coord,
              static_cast<std::size_t>(smache::mirror_index(target, extent))};
    case BoundaryKind::Constant:
      return {AxisResolved::Kind::Constant, 0};
  }
  return {AxisResolved::Kind::Missing, 0};
}

Resolved resolve(std::size_t s, std::size_t r, std::size_t c,
                 std::int64_t ds, std::int64_t dr, std::int64_t dc,
                 std::size_t depth, std::size_t height, std::size_t width,
                 const BoundarySpec& bc) noexcept {
  const AxisResolved ss = resolve_axis(static_cast<std::int64_t>(s), ds,
                                       depth, bc.slices);
  const AxisResolved rr = resolve_axis(static_cast<std::int64_t>(r), dr,
                                       height, bc.rows);
  const AxisResolved cc = resolve_axis(static_cast<std::int64_t>(c), dc,
                                       width, bc.cols);
  return combine(ss, rr, cc, bc);
}

}  // namespace smache::grid
