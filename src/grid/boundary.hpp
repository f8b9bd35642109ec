// Boundary conditions per grid axis and neighbour resolution.
//
// The paper's example uses circular (periodic) boundaries on the horizontal
// edges (rows wrap vertically) and open boundaries on the vertical edges.
// This module generalises to any per-axis combination of:
//   Open     — the neighbour does not exist; the kernel sees an invalid
//              tuple element;
//   Periodic — wrap around (the circular boundary of the paper; offsets may
//              reach across the whole grid);
//   Mirror   — reflect about the edge cell (no repeated edge);
//   Constant — a fixed value supplied by the problem (Dirichlet halo).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/bits.hpp"
#include "common/word.hpp"

namespace smache::grid {

enum class BoundaryKind : std::uint8_t { Open, Periodic, Mirror, Constant };

const char* to_string(BoundaryKind kind) noexcept;

struct AxisBoundary {
  BoundaryKind kind = BoundaryKind::Open;
  /// Halo value for Constant boundaries (raw word).
  word_t constant = 0;

  static AxisBoundary open() { return {BoundaryKind::Open, 0}; }
  static AxisBoundary periodic() { return {BoundaryKind::Periodic, 0}; }
  static AxisBoundary mirror() { return {BoundaryKind::Mirror, 0}; }
  static AxisBoundary constant_halo(word_t v) {
    return {BoundaryKind::Constant, v};
  }

  friend bool operator==(const AxisBoundary&, const AxisBoundary&) = default;
};

/// Boundary specification per grid axis: rows = vertical axis (top/bottom
/// edges), cols = horizontal axis (left/right edges), slices = the depth
/// axis (front/back faces of a 3D grid). `slices` is a third member with
/// an Open default so every 2D `{rows, cols}` brace initialiser keeps its
/// meaning; a D=1 grid never consults it.
struct BoundarySpec {
  AxisBoundary rows;
  AxisBoundary cols;
  // The default member initialiser (not just AxisBoundary's own defaults)
  // is load-bearing: it lets every pre-3D two-member brace initialiser
  // compile unchanged under -Werror=missing-field-initializers.
  AxisBoundary slices = AxisBoundary::open();

  /// The paper's configuration: circular top/bottom, open left/right.
  static BoundarySpec paper_example() {
    return {AxisBoundary::periodic(), AxisBoundary::open(),
            AxisBoundary::open()};
  }
  static BoundarySpec all_periodic() {
    return {AxisBoundary::periodic(), AxisBoundary::periodic(),
            AxisBoundary::periodic()};
  }
  static BoundarySpec all_open() {
    return {AxisBoundary::open(), AxisBoundary::open(),
            AxisBoundary::open()};
  }
  static BoundarySpec all_mirror() {
    return {AxisBoundary::mirror(), AxisBoundary::mirror(),
            AxisBoundary::mirror()};
  }

  friend bool operator==(const BoundarySpec&, const BoundarySpec&) = default;
};

/// Result of resolving one stencil offset from one cell: either a concrete
/// in-grid cell, a constant halo value, or nothing (open boundary).
struct Resolved {
  enum class Kind : std::uint8_t { Cell, Constant, Missing } kind;
  std::size_t r = 0, c = 0;  // valid when kind == Cell
  word_t constant = 0;       // valid when kind == Constant
  std::size_t s = 0;         // slice, valid when kind == Cell (0 in 2D)
};

/// Resolve coordinate `x + dx` on an axis of extent `n` under `b`.
/// Returns the folded coordinate, the constant marker, or nothing.
struct AxisResolved {
  enum class Kind : std::uint8_t { Coord, Constant, Missing } kind;
  std::size_t coord = 0;
};

AxisResolved resolve_axis(std::int64_t x, std::int64_t dx, std::size_t n,
                          const AxisBoundary& b) noexcept;

/// The one precedence rule that turns three axis results into a cell's
/// resolution. Missing on any axis wins; among Constant axes the outermost
/// takes precedence (slices, then rows, then cols). The oracle's tap
/// tables apply it per tap; resolve() below applies it per call.
inline Resolved combine(const AxisResolved& ss, const AxisResolved& rr,
                        const AxisResolved& cc,
                        const BoundarySpec& bc) noexcept {
  if (ss.kind == AxisResolved::Kind::Missing ||
      rr.kind == AxisResolved::Kind::Missing ||
      cc.kind == AxisResolved::Kind::Missing)
    return {Resolved::Kind::Missing, 0, 0, 0, 0};
  if (ss.kind == AxisResolved::Kind::Constant)
    return {Resolved::Kind::Constant, 0, 0, bc.slices.constant, 0};
  if (rr.kind == AxisResolved::Kind::Constant)
    return {Resolved::Kind::Constant, 0, 0, bc.rows.constant, 0};
  if (cc.kind == AxisResolved::Kind::Constant)
    return {Resolved::Kind::Constant, 0, 0, bc.cols.constant, 0};
  return {Resolved::Kind::Cell, rr.coord, cc.coord, 0, ss.coord};
}

/// Full resolution of offset (ds, dr, dc) from cell (s, r, c): each axis
/// through resolve_axis, then combine(). A 2D grid passes s = 0, ds = 0
/// and depth = 1.
Resolved resolve(std::size_t s, std::size_t r, std::size_t c,
                 std::int64_t ds, std::int64_t dr, std::int64_t dc,
                 std::size_t depth, std::size_t height, std::size_t width,
                 const BoundarySpec& bc) noexcept;

}  // namespace smache::grid
