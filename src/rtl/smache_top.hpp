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
//   FSM-2 (gather): issues one whole-grid burst read per pass, shifts the
//     arriving cells (CellReader) through the stream buffer, and emits
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
// Passes ping-pong between two DRAM regions (in/out). The SWAP state waits
// for the write channel to drain (a memory fence) before flipping regions
// and double buffers.
//
// Fused depth (temporal blocking, the "multiple time steps in one pass"
// direction the paper cites as complementary: [2] Fu et al., [4] Nacci et
// al.). With depth K the gather stage — a stream buffer, its kernel and
// its shift/emit counters — is chained K times on chip,
//
//   DRAM read -> window_0 -> kernel_0 -> window_1 -> ... -> kernel_{K-1}
//             -> DRAM write
//
// so one pass computes K work-instances for ONE grid read and ONE grid
// write. Stage k+1 shifts stage k's result cells from a 4-deep inter-stage
// channel in stream order, so a tuple may only reference data already
// produced. Periodic wraps need the END of the grid at its start, which
// within one fused pass does not exist yet: fused depths (K > 1) therefore
// reject plans with static buffers (open/mirror/constant boundaries only)
// and run without the static path (FSM-1, FSM-2's pre-issue, FSM-3's
// capture). Depth 1 is the per-instance design above.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
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
#include "sim/fifo.hpp"
#include "sim/fsm.hpp"
#include "sim/reg.hpp"
#include "sim/simulator.hpp"

namespace smache::rtl {

class SmacheTop : public sim::Module {
 public:
  /// `steps` = number of work-instances, computed `depth` per DRAM pass
  /// (steps % depth == 0). Region 0 of `dram` must hold the initial grid;
  /// after completion the result is in region (passes % 2). The top keeps
  /// `plan` by reference, so the plan must outlive it (Engine holds its
  /// shared plan for the whole run).
  SmacheTop(sim::Simulator& sim, const std::string& path,
            const model::BufferPlan& plan, const KernelSpec& kernel_spec,
            mem::DramModel& dram, std::size_t steps, std::size_t depth = 1);

  /// All passes complete (results may still be draining to DRAM; pair
  /// with DramModel::idle()).
  bool done() const noexcept;

  /// Lower bound on cycles until done() can become true, for
  /// Simulator::run_until_done (see outstanding_writeback_bound; FSM-3
  /// retires at most one write-back per cycle, and the warm-up pass only
  /// adds cycles on top of the bound).
  std::uint64_t min_cycles_to_done() const noexcept {
    if (top_.is(Top::Done)) return 0;
    return outstanding_writeback_bound(passes_, ctrl_.q().pass, cells_,
                                       ctrl_.q().wb_count);
  }

  /// Depth 1: cycle at which the warm-up pass completed (0 when there is
  /// nothing to prefetch). Fused depths: cycle of the first DRAM
  /// write-back, the fill latency of the chained stages (grows with
  /// depth). Both feed RunResult::warmup_cycles.
  std::uint64_t warmup_end_cycle() const noexcept { return warmup_end_; }

  /// DRAM word offset of the final output region.
  std::uint64_t output_base() const noexcept;

  void eval() override;

 private:
  enum class Top : std::uint8_t { Warmup, Run, Swap, Done };

  /// One stage's gather progress counters.
  struct StageCtrl {
    std::uint64_t shifts = 0;
    std::uint64_t emit_next = 0;
  };

  /// All controller registers as one group, stage 0's counters included,
  /// settled by eval() (see sim::RegGroup). Field paths/widths are charged
  /// to the ledger per field.
  struct Ctrl {
    StageCtrl head;  // stage 0
    std::int64_t rdata_center = -1;
    std::uint64_t wb_count = 0;
    std::uint32_t pass = 0;
    std::uint32_t warm_bank = 0;
    std::uint32_t warm_idx = 0;
    bool req_issued = false;
    bool warm_req = false;
  };

  /// One cell on an inter-stage channel: F words, moved as one message
  /// (the channel charges kWordBits * F per slot).
  struct CellMsg {
    std::array<word_t, kMaxFields> w{};
  };

  /// One chained work-instance: a window plus its kernel. Stage 0 shifts
  /// cells from the CellReader; stage k >= 1 shifts stage k-1's results
  /// from its own input channel and owns its counters.
  struct Stage {
    std::unique_ptr<StreamBuffer> window;
    std::unique_ptr<KernelPipeline> kernel;
    std::unique_ptr<sim::RegGroup<StageCtrl>> ctrl;  // k >= 1, top-settled
    std::unique_ptr<sim::Fifo<CellMsg>> input;       // k >= 1
  };

  static std::size_t checked_passes(const model::BufferPlan& plan,
                                    std::size_t steps, std::size_t depth);
  static std::vector<sim::RegGroup<Ctrl>::FieldCharge> ctrl_charges(
      const std::string& path, const model::BufferPlan& plan,
      std::size_t passes, bool static_path, std::size_t cells,
      std::size_t fields);

  std::uint64_t in_base() const noexcept;
  std::uint64_t out_base() const noexcept;
  void build_cell_tables();
  void eval_warmup();
  void eval_run();
  void eval_swap();
  /// Stage k's emission, shift and hand-on this cycle. `Head` is k == 0:
  /// counters in Ctrl, cells from the CellReader.
  template <bool Head>
  void eval_stage(std::size_t k);
  void eval_later_stages();  // stages 1..depth-1
  void write_back(KernelPipeline& last);
  void issue_static_reads(std::uint64_t cell);

  const model::BufferPlan& plan_;
  mem::DramModel& dram_;
  std::size_t passes_;
  std::size_t cells_;   // grid height * width * depth
  std::size_t fields_;  // words per cell (kernel spec's layout)
  std::size_t words_;   // cells_ * fields_ (one DRAM region)
  std::size_t center_;  // plan_.center_age(), hoisted for the cycle loop
  // Depth 1 only: FSM-1 warm-up, FSM-2c pre-issue, FSM-3 capture.
  bool static_path_;
  sim::Simulator& sim_;

  // State this top owns — the stage windows and counters, the static
  // banks, the FSM register, ctrl_ and the cell port's staging — is read
  // only here and settled at the end of eval(); everything else it reaches
  // is a channel.
  std::vector<Stage> stages_;
  StaticBufferSet statics_;  // no banks when fused
  // Set by the four paths that touch the static banks (pre-issue,
  // write-through capture, warm-up write, swap): eval() settles the banks
  // only then, since settling untouched banks lands nothing.
  bool statics_touched_ = false;

  // Controller state (all charged under <path>/ctrl).
  sim::FsmState<Top> top_;
  sim::RegGroup<Ctrl> ctrl_;
  // DRAM-facing cell port: stage 0's input cells, the last stage's
  // result cells.
  CellReader reader_;
  CellWriter writer_;

  // Behavioural observability only: not a hardware register, never
  // charged to the ledger.
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
  // case id -> pre-resolved gather/pre-issue plan (see rtl::EmitOp),
  // shared by all stages (one plan, identical window layouts).
  std::vector<CasePlan> case_plans_;
  // row -> 1 iff some write-through static buffer captures it (FSM-3 skips
  // the capture call for every other row).
  std::vector<std::uint8_t> capture_row_;

  // -- observability: stall counters, summed over stages (the cell port
  // counts its own staging, drain and write-back backpressure). Each
  // counts the cycles its blocker held, once per blocked FSM or stage, so
  // one cycle can count under more than one reason.
  obs::MetricsRegistry* mreg_;
  obs::MetricsRegistry::Slot s_req_bp_;     // read_req channel full
  obs::MetricsRegistry::Slot s_dram_wait_;  // read_data not ready
  obs::MetricsRegistry::Slot s_kernel_bp_;  // a stage's kernel input full
  // Fused depths only: a later stage's own input channel is empty (it
  // waits for its predecessor), and a stage's kernel cannot hand its
  // result on because the next stage's input channel is full.
  obs::MetricsRegistry::Slot s_interstage_wait_ = 0;
  obs::MetricsRegistry::Slot s_interstage_bp_ = 0;
};

}  // namespace smache::rtl
