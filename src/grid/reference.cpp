#include "grid/reference.hpp"

#include <algorithm>
#include <cstdint>

#include "common/assert.hpp"

namespace smache::grid {

namespace {

/// One axis's table: [x * taps + t] = resolve_axis(x, offset t's `delta`).
std::vector<AxisResolved> axis_table(const StencilShape& shape,
                                     std::size_t n, const AxisBoundary& b,
                                     std::int64_t Offset2::*delta) {
  std::vector<AxisResolved> table;
  table.reserve(n * shape.size());
  for (std::size_t x = 0; x < n; ++x)
    for (const Offset2& o : shape.offsets())
      table.push_back(
          resolve_axis(static_cast<std::int64_t>(x), o.*delta, n, b));
  return table;
}

}  // namespace

TapTables::TapTables(const StencilShape& shape, const BoundarySpec& bc,
                     std::size_t depth, std::size_t height, std::size_t width)
    : taps_(shape.size()),
      depth_(depth),
      height_(height),
      width_(width),
      bc_(bc),
      slices_(axis_table(shape, depth, bc.slices, &Offset2::ds)),
      rows_(axis_table(shape, height, bc.rows, &Offset2::dr)),
      cols_(axis_table(shape, width, bc.cols, &Offset2::dc)) {}

void TapTables::gather(const Grid<word_t>& in, std::size_t s, std::size_t r,
                       std::size_t c, std::vector<TupleElem>& tuple) const {
  const std::size_t fields = in.fields();
  SMACHE_REQUIRE_MSG(in.depth() == depth_ && in.height() == height_ &&
                         in.width() == width_,
                     "grid extents differ from the tap tables'");
  SMACHE_REQUIRE(s < depth_ && r < height_ && c < width_);
  SMACHE_REQUIRE(tuple.size() == taps_ * fields);
  const AxisResolved* ss = &slices_[s * taps_];
  const AxisResolved* rr = &rows_[r * taps_];
  const AxisResolved* cc = &cols_[c * taps_];
  TupleElem* out = tuple.data();
  for (std::size_t t = 0; t < taps_; ++t, out += fields) {
    const Resolved res = combine(ss[t], rr[t], cc[t], bc_);
    if (res.kind == Resolved::Kind::Cell) {
      const std::size_t row = res.s * height_ + res.r;
      for (std::size_t f = 0; f < fields; ++f)
        out[f] = TupleElem{in.at(row, res.c, f), true};
    } else {
      const TupleElem e = res.kind == Resolved::Kind::Constant
                              ? TupleElem{res.constant, true}
                              : TupleElem{0, false};
      std::fill_n(out, fields, e);
    }
  }
}

}  // namespace smache::grid
