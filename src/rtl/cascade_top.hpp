// CascadeTop — temporal blocking: several work-instances computed in ONE
// pass over the DRAM stream.
//
// The paper's related-work section describes processing "multiple time
// steps in one pass" ([2] Fu et al., [4] Nacci et al.) as pertinent but
// orthogonal to Smache's off-chip optimisation. This module implements
// that extension on top of the same substrate: K stencil stages are
// chained on chip,
//
//   DRAM read -> window_0 -> kernel_0 -> window_1 -> kernel_1 -> ...
//             -> kernel_{K-1} -> DRAM write
//
// so K time steps cost ONE grid read and ONE grid write instead of K each —
// the DRAM traffic drops by ~K while the cycle count stays ~N + K*fill.
//
// Restriction (fundamental, not an implementation shortcut): stage k+1
// consumes stage k's output in stream order, so a stencil element may only
// reference data already produced — which is violated by periodic
// boundaries whose wrap needs the END of the grid at its start. Smache
// solves that across instances with double-buffered static buffers; within
// one fused pass the value does not exist yet. Cascading therefore
// supports Open/Mirror/Constant boundaries (the classic temporal-blocking
// setting) and rejects Periodic ones; use SmacheTop for those.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/word.hpp"
#include "mem/dram.hpp"
#include "model/planner.hpp"
#include "rtl/cell_port.hpp"
#include "rtl/kernel_pipeline.hpp"
#include "rtl/stream_buffer.hpp"
#include "rtl/top_support.hpp"
#include "sim/fifo.hpp"
#include "sim/fsm.hpp"
#include "sim/reg.hpp"
#include "sim/simulator.hpp"

namespace smache::rtl {

class CascadeTop : public sim::Module {
 public:
  /// `depth` = time steps fused per pass; `passes` = number of passes, so
  /// the run computes depth*passes work-instances in total. The plan must
  /// have no static buffers (enforced: open/mirror/constant boundaries).
  CascadeTop(sim::Simulator& sim, const std::string& path,
             const model::BufferPlan& plan, const KernelSpec& kernel_spec,
             mem::DramModel& dram, std::size_t depth, std::size_t passes);

  bool done() const noexcept;
  std::uint64_t output_base() const noexcept;
  std::size_t depth() const noexcept { return stages_.size(); }

  /// Cycle at which the cascade pipeline first produced a DRAM writeback
  /// (0 until then): the fill latency of the K chained windows/kernels —
  /// the cascade's analogue of SmacheTop's static-prefetch warm-up, and
  /// what RunResult::warmup_cycles reports for cascade runs. Grows with
  /// depth; recorded once, on the first pass.
  std::uint64_t warmup_end_cycle() const noexcept { return warmup_end_; }

  /// Lower bound on cycles until done() can become true, for
  /// Simulator::run_until_done (see outstanding_writeback_bound; the last
  /// stage posts at most one DRAM write per cycle).
  std::uint64_t min_cycles_to_done() const noexcept {
    if (top_.is(Top::Done)) return 0;
    return outstanding_writeback_bound(passes_, ctrl_.q().pass, cells_,
                                       ctrl_.q().wb_count);
  }

  void eval() override;

 private:
  enum class Top : std::uint8_t { Run, Gap, Done };

  /// Per-stage gather progress counters, one state element per stage (a
  /// single commit instead of one per counter; see sim::RegGroup).
  struct StageCtrl {
    std::uint64_t shifts = 0;
    std::uint64_t emit_next = 0;
  };

  /// One cell on the inter-stage channel: F words, moved as one message
  /// (the channel charges kWordBits * F per slot — for F = 1 exactly the
  /// original word-wide FIFO).
  struct CellMsg {
    std::array<word_t, kMaxFields> w{};
  };

  /// One fused time step: a window fed from the previous stage plus its
  /// kernel and gather progress counters.
  struct Stage {
    std::unique_ptr<StreamBuffer> window;
    std::unique_ptr<KernelPipeline> kernel;
    std::unique_ptr<sim::RegGroup<StageCtrl>> ctrl;
    // Between-stage channel carrying the previous kernel's output cells in
    // cell order (stage 0 reads DRAM through the CellReader).
    std::unique_ptr<sim::Fifo<CellMsg>> input;
  };

  /// Pass-level controller registers, one state element (see sim::RegGroup).
  struct Ctrl {
    std::uint64_t wb_count = 0;
    std::uint32_t pass = 0;
    bool req_issued = false;
  };

  std::uint64_t in_base() const noexcept;
  std::uint64_t out_base() const noexcept;
  /// Returns true if the stage made observable progress this cycle.
  bool eval_stage(std::size_t k);

  const model::BufferPlan plan_;
  mem::DramModel& dram_;
  std::size_t cells_;
  std::size_t fields_;  // words per cell (kernel spec's layout)
  std::size_t words_;   // cells_ * fields_ (one DRAM region)
  std::size_t passes_;
  sim::Simulator& sim_;

  std::vector<Stage> stages_;
  // cell -> case id, precomputed (behavioural lookup, nothing charged):
  // every stage resolves the emitted cell's case every cycle.
  std::vector<std::uint32_t> case_of_cell_;
  // case id -> pre-resolved gather ops (rtl::EmitOp), shared by all
  // stages (identical window layouts — same plan; never any statics).
  std::vector<CasePlan> case_plans_;
  sim::FsmState<Top> top_;
  sim::RegGroup<Ctrl> ctrl_;
  // DRAM-facing cell port: stage 0's input cells, the last stage's results.
  CellReader reader_;
  CellWriter writer_;
  // Behavioural observability only (like SmacheTop::warmup_end_): not a
  // hardware register, never charged to the ledger.
  std::uint64_t warmup_end_ = 0;

  // -- observability: stalled-eval counters, aggregated across stages
  // (see SmacheTop for episode-vs-cycle semantics; the cell port counts its
  // own staging, drain and write-back backpressure) --
  obs::MetricsRegistry* mreg_;
  obs::MetricsRegistry::Slot s_req_bp_;     // read_req channel full
  obs::MetricsRegistry::Slot s_dram_wait_;  // stage-0 data not ready
  obs::MetricsRegistry::Slot s_kernel_bp_;  // a stage kernel in full
  // A stage's inter-stage channel blocked: the next stage's input is full
  // (the kernel cannot hand on its result) or this stage's input is empty
  // (a later stage waits for its predecessor's next cell).
  obs::MetricsRegistry::Slot s_interstage_bp_;
};

}  // namespace smache::rtl
