// Static buffers (the paper's §III "Static Buffers"): on-chip banks that
// hold a FIXED set of grid elements — one whole row per bank here — instead
// of a moving window, making their footprint independent of the stencil's
// reach. Each bank is transparently double-buffered:
//
//   active copy — read by the gather unit; holds rows of the CURRENT input
//                 grid (work-instance k);
//   shadow copy — written through by FSM-3 as the kernel emits the output
//                 grid (work-instance k+1);
//   swap()      — a 1-bit flip at each work-instance boundary, making the
//                 freshly captured rows the next instance's inputs.
//
// Multi-tap cases (several stencil offsets landing in the same bank in the
// same cycle) are served by replicating the bank — matching the paper's
// note that concurrent BRAM reads synthesise into multiple identical BRAMs.
// Every replica carries both copies; warm-up and write-through update all
// replicas in lock-step from the single write stream (one write port each).
//
// The banks are read only by their owning top, so its settle() at the end
// of an eval that touched them is their clock edge (sim/module.hpp): reads,
// writes and a swap issued in one cycle all land there together.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/word.hpp"
#include "mem/bram.hpp"
#include "model/planner.hpp"
#include "sim/reg.hpp"
#include "sim/simulator.hpp"

namespace smache::rtl {

class StaticBufferBank {
 public:
  /// `fields` widens every stored element to an F-word cell, realised as
  /// one BRAM bank per field (per replica, per phase) sharing the
  /// active/shadow select. Word-indexed entry points interpret an index
  /// as cell * F + field, so F = 1 keeps every call site bit-identical.
  StaticBufferBank(sim::Simulator& sim, const std::string& path,
                   const model::StaticBufferSpec& spec,
                   std::size_t fields = 1);

  const model::StaticBufferSpec& spec() const noexcept { return spec_; }
  std::size_t fields() const noexcept { return fields_; }

  /// Issue a synchronous read of CELL `index` on the ACTIVE copy of one
  /// replica (all F field banks read in lock-step); field f is available
  /// from rdata(replica, f) next cycle.
  void read(std::size_t replica, std::size_t index);
  /// Output register of the copy active when called: after a swap() it
  /// shows what the other copy last latched, so a read and a swap landing
  /// at one settle are seen only once the copies swap back.
  word_t rdata(std::size_t replica, std::size_t field = 0) const;

  /// FSM-3 write-through: store all F words of output-grid `cell` at cell
  /// `cell_index` into the SHADOW copy of every replica.
  void shadow_write_cell(std::size_t cell_index, const word_t* cell);

  /// FSM-1 warm-up / prefetch: store one input-grid WORD (cell * F +
  /// field — DRAM order) into the ACTIVE copy of every replica.
  void active_write(std::size_t index, word_t value);

  /// Flip active/shadow at a work-instance boundary (takes effect at
  /// settle(), like any register).
  void swap();

  /// The owner's clock edge: land this cycle's reads and writes on every
  /// copy (each read before its bank's write), then the swap.
  void settle() noexcept;

  /// Test backdoor: settled WORD (cell * F + field) of the active copy
  /// of replica 0.
  word_t peek_active(std::size_t index) const;

 private:
  // copies_[(replica*2 + phase) * fields + field]; phase selected by
  // active_.
  mem::BramBank& bank(std::size_t replica, bool shadow,
                      std::size_t field) const;

  model::StaticBufferSpec spec_;
  std::size_t fields_;
  sim::RegGroup<bool> active_;
  std::vector<std::unique_ptr<mem::BramBank>> copies_;
};

/// The full static-buffer set of a plan, built under `<path>/static/...`.
class StaticBufferSet {
 public:
  StaticBufferSet(sim::Simulator& sim, const std::string& path,
                  const model::BufferPlan& plan, std::size_t fields = 1);

  std::size_t count() const noexcept { return banks_.size(); }
  StaticBufferBank& bank(std::size_t i);
  const StaticBufferBank& bank(std::size_t i) const;

  /// FSM-3 capture path: banks whose grid_row matches `row` receive all F
  /// words of the output cell at (row, col) via write-through.
  void capture_output_cell(std::size_t row, std::size_t col,
                           const word_t* cell);

  void swap_all();

  /// Settle every bank (see StaticBufferBank::settle).
  void settle() noexcept;

 private:
  std::vector<std::unique_ptr<StaticBufferBank>> banks_;
};

}  // namespace smache::rtl
