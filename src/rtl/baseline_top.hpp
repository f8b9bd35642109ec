// BaselineTop — the paper's comparison design: NO stencil buffering. Every
// grid point reads its full tuple from global memory (word-granularity,
// effectively random accesses), computes, and writes the result back. As in
// the paper's accounting, a read is issued for every tuple element of every
// point — elements masked by open boundaries issue a dummy read of the
// centre cell (the traffic is what the paper counts: tuple-size words per
// point).
//
// Two concurrent FSMs decoupled by the DRAM channels:
//   requester — walks cells and tuple elements, issuing one single-word
//               read request per cycle;
//   collector — pulls data words, assembles the tuple with the per-case
//               validity mask, applies the kernel, and posts the write.
//
// The design drives a SINGLE shared memory port (the natural naive
// memory-mapped master): the engine configures the DRAM with shared_bus,
// making writes contend with reads — tuple+1 issue slots per point.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/word.hpp"
#include "grid/boundary.hpp"
#include "grid/stencil.hpp"
#include "grid/zones.hpp"
#include "mem/dram.hpp"
#include "rtl/cell_port.hpp"
#include "rtl/kernel.hpp"
#include "rtl/top_support.hpp"
#include "sim/fsm.hpp"
#include "sim/reg.hpp"
#include "sim/simulator.hpp"

namespace smache::rtl {

class BaselineTop : public sim::Module {
 public:
  /// `depth` = slice extent of the grid (1 = 2D, the original design).
  BaselineTop(sim::Simulator& sim, const std::string& path,
              std::size_t height, std::size_t width,
              const grid::StencilShape& shape, const grid::BoundarySpec& bc,
              const KernelSpec& kernel_spec, mem::DramModel& dram,
              std::size_t steps, std::size_t depth = 1);

  bool done() const noexcept;
  std::uint64_t output_base() const noexcept;

  /// Lower bound on cycles until done() can become true, for
  /// Simulator::run_until_done (see outstanding_writeback_bound; the
  /// collector posts at most one write per cycle, on each tuple's final
  /// element).
  std::uint64_t min_cycles_to_done() const noexcept {
    if (top_.is(Top::Done)) return 0;
    return outstanding_writeback_bound(steps_, ctrl_.q().instance, cells_,
                                       ctrl_.q().wb_count);
  }

  void eval() override;

 private:
  enum class Top : std::uint8_t { Run, Gap, Done };

  /// How one tuple element of one case is served. Addressing is uniform:
  /// address = ((s + slice_shift) * H + r + row_shift) * W + (c +
  /// col_shift). Shifts are computed against the case's representative
  /// cell; exact (boundary) zones pin the coordinate, so the shifted
  /// address is exact for every cell of the case, wrapped or not.
  struct Source {
    bool is_data = false;      // a DRAM word participates in the tuple
    bool is_constant = false;  // constant halo value instead
    word_t constant = 0;
    std::int64_t row_shift = 0;
    std::int64_t col_shift = 0;
    std::int64_t slice_shift = 0;
    // (slice_shift * H + row_shift) * W + col_shift: with slice-major
    // addressing the shifted address is simply cell + lin_shift, saving
    // the requester a div/mod chain every cycle.
    std::int64_t lin_shift = 0;
  };

  /// All controller registers as one group, settled by eval() (see
  /// sim::RegGroup); ledger charges stay per field. The requester reads
  /// F-word cells (one burst request per tuple element) and col_elem counts
  /// tuple WORDS (taps * F).
  struct Ctrl {
    std::uint64_t req_cell = 0;
    std::uint64_t col_cell = 0;
    std::uint64_t wb_count = 0;
    std::uint32_t instance = 0;
    std::uint32_t req_elem = 0;
    std::uint32_t col_elem = 0;
  };

  std::uint64_t in_base() const noexcept;
  std::uint64_t out_base() const noexcept;
  /// DRAM word address of tuple element `s` of `cell` (inline: the
  /// requester computes one every cycle).
  std::uint64_t element_addr(std::uint64_t cell, const Source& s) const {
    // Dummy read of the centre cell's words.
    if (!s.is_data) return in_base() + cell * fields_;
    // (r + row_shift) * W + (c + col_shift) == cell + lin_shift; the zone
    // resolution that produced the shifts guarantees the target stays
    // inside the grid for every cell of the case. Cell addresses scale by
    // F words.
    const std::int64_t addr = static_cast<std::int64_t>(cell) + s.lin_shift;
    SMACHE_ASSERT(addr >= 0 && addr < static_cast<std::int64_t>(cells_));
    return in_base() + static_cast<std::uint64_t>(addr) * fields_;
  }
  void eval_run();

  std::size_t height_, width_, depth_, cells_, fields_, words_, steps_;
  grid::StencilShape shape_;
  grid::CaseMap cases_;
  KernelSpec kernel_spec_;
  mem::DramModel& dram_;

  // sources_[case_id * taps + element], one flat table the requester and
  // collector index every cycle.
  std::vector<Source> sources_;
  // cell -> case id, precomputed: case_of() resolves zones with a per-axis
  // walk, far too slow to repeat for every request and collect of every
  // cycle. Behavioural lookup only — charges nothing to the ledger, exactly
  // like sources_. Built lazily on the first eval (see eval()).
  std::vector<std::uint32_t> case_of_cell_;

  // The FSM register, ctrl_, tuple_ and the writer's staging are read only
  // here and settled by eval().
  sim::FsmState<Top> top_;
  sim::RegGroup<Ctrl> ctrl_;
  // The collector's tuple registers (<path>/datapath/tuple_regs), taps * F
  // words, written in place: word w is read only on a later cycle, the one
  // collecting the tuple's last word (which is the popped value itself).
  std::vector<word_t> tuple_;
  // DRAM-facing write port: the collector's result cells.
  CellWriter writer_;

  std::vector<grid::TupleElem> scratch_;

  // -- observability: stall counters, one count per cycle the blocker
  // held (the writer counts its own drain and write-back backpressure) --
  obs::MetricsRegistry* mreg_;
  obs::MetricsRegistry::Slot s_req_bp_;    // read_req channel full
  obs::MetricsRegistry::Slot s_dram_wait_; // read_data not ready
};

}  // namespace smache::rtl
