// Golden software reference executor. This is the semantic oracle: the
// simulated hardware must produce bit-identical grids. It gathers each
// cell's tuple through boundary resolution and applies the same kernel
// functor the hardware pipeline uses.
//
// On a structured grid, where an offset lands depends on each axis
// coordinate separately. The oracle therefore resolves every stencil
// offset once per coordinate of each axis (slices, rows, cols) into
// TapTables, built once per step loop. A cell's tap is the combine() of its three axis
// entries — the same rule resolve() applies — and its fields are read
// through Grid::at's bounds checks into one tuple buffer the step loop
// reuses for every cell.
//
// Independence rule: this file and everything it includes live in
// common/ and grid/ only. The oracle shares no planner, case table or
// zone map with the hardware path, so a fault there cannot hide in the
// check (scripts/check_headers.sh enforces the include rule).
#pragma once

#include <cstddef>
#include <vector>

#include "common/word.hpp"
#include "grid/boundary.hpp"
#include "grid/grid.hpp"
#include "grid/stencil.hpp"

namespace smache::grid {

/// Per-axis resolution tables of one stencil on one grid extent: entry
/// (tap t, coordinate x) of an axis is resolve_axis(x, offset_t, n, b),
/// stored at [x * taps + t] so one cell's taps are contiguous.
class TapTables {
 public:
  TapTables(const StencilShape& shape, const BoundarySpec& bc,
            std::size_t depth, std::size_t height, std::size_t width);

  std::size_t taps() const noexcept { return taps_; }

  /// Gather cell (s, r, c)'s tap-major tuple into `tuple`, which must hold
  /// taps() * in.fields() elements: tuple[t * F + f] is field f of tap t,
  /// resolved as grid::resolve() resolves that offset. Validity and a
  /// constant halo value replicate across a tap's fields; open-boundary
  /// taps carry valid = false. `in` must have the tables' extents.
  void gather(const Grid<word_t>& in, std::size_t s, std::size_t r,
              std::size_t c, std::vector<TupleElem>& tuple) const;

 private:
  std::size_t taps_;
  std::size_t depth_, height_, width_;
  BoundarySpec bc_;
  std::vector<AxisResolved> slices_, rows_, cols_;
};

/// One cell-wide stencil step: out(s,r,c) = kernel(tuple(s,r,c)). The
/// kernel is any callable void(const std::vector<TupleElem>&, word_t* out)
/// that reads the tap-major F-field tuple and writes the output cell's F
/// words. `tuple` is the caller's buffer of taps.taps() * in.fields()
/// elements, reused for every cell.
template <typename KernelCells>
Grid<word_t> apply_stencil_cells(const Grid<word_t>& in, const TapTables& taps,
                                 KernelCells&& kernel,
                                 std::vector<TupleElem>& tuple) {
  Grid<word_t> out(in.height(), in.width(), in.depth(), in.layout());
  for (std::size_t s = 0; s < in.depth(); ++s)
    for (std::size_t r = 0; r < in.height(); ++r)
      for (std::size_t c = 0; c < in.width(); ++c) {
        taps.gather(in, s, r, c, tuple);
        kernel(tuple, out.cell(s * in.height() + r, c));
      }
  return out;
}

/// Run `steps` work-instances (output of step k feeds step k+1), matching
/// the hardware's ping-pong DRAM regions. The tap tables and the tuple
/// buffer are built once: the extents never change between steps.
template <typename KernelCells>
Grid<word_t> run_steps_cells(Grid<word_t> state, const StencilShape& shape,
                             const BoundarySpec& bc, KernelCells&& kernel,
                             std::size_t steps) {
  const TapTables taps(shape, bc, state.depth(), state.height(),
                       state.width());
  std::vector<TupleElem> tuple(taps.taps() * state.fields());
  for (std::size_t s = 0; s < steps; ++s)
    state = apply_stencil_cells(state, taps, kernel, tuple);
  return state;
}

}  // namespace smache::grid
