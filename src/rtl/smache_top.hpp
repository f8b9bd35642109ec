// SmacheTop — the complete smart-cache module of Figure 1(b), connected to
// a DRAM model and a kernel pipeline, sequencing work-instances.
//
// Three concurrent FSMs (all evaluated every cycle, communicating only
// through registers and FIFOs, exactly like the paper's three concurrent
// Verilog state machines):
//
//   FSM-1 (prefetch): during the one-off WARM-UP pass it burst-reads the
//     grid rows held by write-through static buffers into their ACTIVE
//     copies (non-write-through buffers would be refetched every
//     instance). This is the "additional warm-up work-instance" of §III,
//     amortised over all later instances.
//
//   FSM-2 (gather): issues one whole-grid burst read per instance, shifts
//     the arriving cells (CellReader) through the stream buffer, and emits
//     one stencil tuple per cycle to the kernel: window taps are
//     combinational register reads; static-buffer taps were issued one
//     cycle earlier (synchronous BRAM read) by the same FSM's pre-issue
//     stage; constants and skips come from the gather table. Back-pressure
//     from the kernel freezes shifting so tap alignment is never lost.
//
//   FSM-3 (write-back): drains kernel results to the DRAM write channel
//     (CellWriter) and write-through-captures results landing in
//     static-buffer rows into the SHADOW copies, so the next instance's
//     boundary data is already on chip when the buffers swap.
//
// Work-instances ping-pong between two DRAM regions (in/out). The SWAP
// state waits for the write channel to drain (a memory fence) before
// flipping regions and double buffers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/word.hpp"
#include "grid/zones.hpp"
#include "mem/dram.hpp"
#include "model/planner.hpp"
#include "rtl/cell_port.hpp"
#include "rtl/kernel_pipeline.hpp"
#include "rtl/static_buffer.hpp"
#include "rtl/stream_buffer.hpp"
#include "rtl/top_support.hpp"
#include "sim/fsm.hpp"
#include "sim/reg.hpp"
#include "sim/simulator.hpp"

namespace smache::rtl {

class SmacheTop : public sim::Module {
 public:
  /// `steps` = number of work-instances. Region 0 of `dram` must hold the
  /// initial grid; after completion the result is in region (steps % 2).
  SmacheTop(sim::Simulator& sim, const std::string& path,
            const model::BufferPlan& plan, const KernelSpec& kernel_spec,
            mem::DramModel& dram, std::size_t steps);

  /// All instances complete (results may still be draining to DRAM; pair
  /// with DramModel::idle()).
  bool done() const noexcept;

  /// Lower bound on cycles until done() can become true, for
  /// Simulator::run_until_done (see outstanding_writeback_bound; FSM-3
  /// retires at most one write-back per cycle, and the warm-up pass only
  /// adds cycles on top of the bound).
  std::uint64_t min_cycles_to_done() const noexcept {
    if (top_.is(Top::Done)) return 0;
    return outstanding_writeback_bound(steps_, ctrl_.q().instance, cells_,
                                       ctrl_.q().wb_count);
  }

  /// Cycle at which the warm-up pass completed (for amortisation reports).
  std::uint64_t warmup_end_cycle() const noexcept { return warmup_end_; }

  /// DRAM word offset of the final output region.
  std::uint64_t output_base() const noexcept;

  const model::BufferPlan& plan() const noexcept { return plan_; }
  KernelPipeline& kernel() noexcept { return kernel_; }

  void eval() override;

 private:
  enum class Top : std::uint8_t { Warmup, Run, Swap, Done };

  /// All controller registers as one state element (single commit per
  /// cycle). Field paths/widths are charged to the ledger exactly like the
  /// discrete Regs they replace; hold semantics are identical (see
  /// sim::RegGroup).
  struct Ctrl {
    std::uint64_t shifts = 0;
    std::uint64_t emit_next = 0;
    std::int64_t rdata_center = -1;
    std::uint64_t wb_count = 0;
    std::uint32_t instance = 0;
    std::uint32_t warm_bank = 0;
    std::uint32_t warm_idx = 0;
    bool req_issued = false;
    bool warm_req = false;
  };

  static std::vector<sim::RegGroup<Ctrl>::FieldCharge> ctrl_charges(
      const std::string& path, const model::BufferPlan& plan,
      std::size_t steps, std::size_t cells, std::size_t fields);

  std::uint64_t in_base() const noexcept;
  std::uint64_t out_base() const noexcept;
  void build_cell_tables();
  void eval_warmup();
  void eval_run();
  void eval_swap();
  void issue_static_reads(std::uint64_t cell);

  const model::BufferPlan plan_;
  mem::DramModel& dram_;
  std::size_t steps_;
  std::size_t cells_;   // grid height * width * depth
  std::size_t fields_;  // words per cell (kernel spec's layout)
  std::size_t words_;   // cells_ * fields_ (one DRAM region)
  std::size_t center_;  // plan_.center_age(), hoisted for the cycle loop
  sim::Simulator& sim_;

  StreamBuffer window_;
  StaticBufferSet statics_;
  KernelPipeline kernel_;

  // Controller state (all charged under <path>/ctrl).
  sim::FsmState<Top> top_;
  sim::RegGroup<Ctrl> ctrl_;
  // DRAM-facing cell port: FSM-2's input cells, FSM-3's result cells.
  CellReader reader_;
  CellWriter writer_;

  std::uint64_t warmup_end_ = 0;
  // Warm-up bank order (indices into statics_, write-through first).
  std::vector<std::size_t> warm_order_;
  // cell -> case id / global row / column, precomputed (behavioural lookups,
  // nothing charged): the gather, pre-issue and write-through stages each
  // resolve them every cycle, and div/mod is the costliest scalar op in
  // the loop. Built lazily on the first eval — elaborate-only flows
  // (Table I's 1024x1024 rows) construct the top without ever stepping it
  // and must not pay O(cells).
  std::vector<std::uint32_t> case_of_cell_;
  std::vector<std::uint32_t> row_of_cell_;
  std::vector<std::uint32_t> col_of_cell_;
  // case id -> pre-resolved gather/pre-issue plan (see rtl::EmitOp).
  std::vector<CasePlan> case_plans_;
  // row -> 1 iff some write-through static buffer captures it (FSM-3 skips
  // the capture call for every other row).
  std::vector<std::uint8_t> capture_row_;

  // -- observability: stalled-eval counters (the cell port counts its own
  // staging, drain and write-back backpressure). With gating on, a fully
  // starved controller sleeps, so a counter ticks once per stalled eval
  // (one per cycle only while some other FSM keeps the module awake); the
  // stall DURATION shows up as scheduler asleep time.
  obs::MetricsRegistry* mreg_;
  obs::MetricsRegistry::Slot s_req_bp_;     // read_req channel full
  obs::MetricsRegistry::Slot s_dram_wait_;  // read_data not ready
  obs::MetricsRegistry::Slot s_kernel_bp_;  // kernel input full
};

}  // namespace smache::rtl
