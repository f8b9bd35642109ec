// Pipelined computation kernel. The Smache module (Figure 1b) connects to
// an external kernel through stall-capable streams; this models that kernel
// as a fixed-latency arithmetic pipeline:
//
//   tuple in (FIFO) -> [stage 0: adder tree] -> [stage 1] -> [stage 2]
//                      -> result out (FIFO)
//
// The whole pipeline freezes when the output FIFO is full (all-or-nothing
// shift), propagating back-pressure to the gather unit. Results are
// computed with the shared apply_kernel functor at entry and carried with
// progressively narrower payloads; the register charge per stage mirrors
// what a real pipeline would hold (partial sums, then a single word).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/word.hpp"
#include "grid/stencil.hpp"
#include "rtl/kernel.hpp"
#include "sim/fifo.hpp"
#include "sim/reg.hpp"
#include "sim/simulator.hpp"

namespace smache::rtl {

/// Maximum tuple arity supported by the fixed message layout.
inline constexpr std::size_t kMaxTuple = 32;

/// Gathered tuple heading into the kernel. For multi-field cells the
/// elements are tap-major (elems[t * F + f]) and count == taps * F; the
/// taps * F product must fit kMaxTuple.
struct TupleMsg {
  std::uint64_t index = 0;  // linear output cell index
  std::uint32_t count = 0;  // tuple arity in use (taps * fields)
  std::array<grid::TupleElem, kMaxTuple> elems{};
};

/// Kernel result heading to write-back: the output cell's F words
/// (values[0..fields) in use; F = 1 uses values[0] only).
struct ResultMsg {
  std::uint64_t index = 0;
  std::array<word_t, kMaxFields> values{};
};

class KernelPipeline : public sim::Module {
 public:
  /// `tuple_size` is the stencil arity in TAPS (cells); the cell field
  /// count comes from spec.fields(). `grid_cells` sizes the index
  /// counters; `latency` >= 1.
  KernelPipeline(sim::Simulator& sim, const std::string& path,
                 KernelSpec spec, std::size_t tuple_size,
                 std::size_t grid_cells, std::uint32_t latency = 3);

  sim::Fifo<TupleMsg>& in() noexcept { return in_; }
  sim::Fifo<ResultMsg>& out() noexcept { return out_; }

  const KernelSpec& spec() const noexcept { return spec_; }
  std::uint32_t latency() const noexcept { return latency_; }

  /// True when no tuple is in flight (used by drain checks).
  bool empty() const noexcept;

  void eval() override;

 private:
  struct Stage {
    bool valid = false;
    std::uint64_t index = 0;
    std::array<word_t, kMaxFields> value{};
  };

  KernelSpec spec_;
  std::size_t tuple_size_;  // taps (cells), NOT words
  std::size_t fields_;      // words per cell (spec_.fields())
  std::uint32_t latency_;
  sim::Fifo<TupleMsg> in_;
  sim::Fifo<ResultMsg> out_;
  // The stage registers, head first. Only eval() reads them, so it shifts
  // them in place, tail first: every stage takes its predecessor's value
  // from before the shift, as a clock edge would give (sim/module.hpp).
  std::vector<Stage> pipe_;
  // Valid tuples currently in the stage registers (behavioural bookkeeping,
  // private to eval): when zero with no input waiting, the pipeline is
  // empty and eval returns at once.
  std::uint32_t occupancy_ = 0;

  // -- observability: the cycles the pipeline held frozen on a full output
  // channel --
  obs::MetricsRegistry* mreg_;
  obs::MetricsRegistry::Slot s_out_bp_;
};

}  // namespace smache::rtl
