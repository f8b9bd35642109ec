// The DRAM-facing cell port shared by the two top-level designs. A grid
// cell is F words (the kernel's cell layout) while the DRAM channels move
// one word per cycle each way, so every top converts between the two:
//
//   CellReader — assembles a cell from F consecutive read-data words.
//     Words 0..F-2 stage in registers (in_fill / in_cell); the last word
//     completes the cell on its arrival cycle.
//   CellWriter — posts a result cell to the write channel as F words:
//     field 0 on the cycle the cell is accepted, fields 1..F-1 on the
//     following cycles from staging registers (wb_field / wb_index /
//     wb_vals). It reports when a cell is fully written.
//
// Both charge their staging registers to the ledger only for F > 1. The
// staging registers are read only by the port's owning top, which settles
// them at the end of its eval (sim::RegGroup). At F = 1
// every word is a whole cell: nothing stages, no staging register is
// written (the top skips settling the port), and the port is the
// pop-and-shift / pop-and-post datapath of single-word cells. The
// per-cycle methods stay inline here because they sit in every top's hot
// loop.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/word.hpp"
#include "mem/dram.hpp"
#include "obs/metrics.hpp"
#include "sim/fifo.hpp"
#include "sim/reg.hpp"
#include "sim/simulator.hpp"

namespace smache::rtl {

class CellReader {
 public:
  /// Staging registers are charged as `<reg_path>/in_fill` and
  /// `<reg_path>/in_cell`; staging cycles count toward
  /// `<top>/gather_staging_cycles`.
  CellReader(sim::Simulator& sim, const std::string& top,
             const std::string& reg_path, sim::Fifo<word_t>& data,
             std::size_t fields);

  /// A read-data word is waiting.
  bool can_pop() const noexcept { return data_.can_pop(); }

  /// Consume one read-data word (only when can_pop()). Returns true when
  /// it completes a cell, which is then in cell[0..F); false while the
  /// cell is still staging.
  bool pop(word_t* cell) {
    const word_t v = data_.pop();
    const Stage& q = stage_.q();
    if (q.fill + 1 < fields_) {
      Stage& d = stage_.d();
      d.cell[q.fill] = v;
      d.fill = q.fill + 1;
      mreg_->count(s_staging_);
      return false;
    }
    for (std::uint32_t f = 0; f < q.fill; ++f) cell[f] = q.cell[f];
    cell[q.fill] = v;
    if (q.fill != 0) stage_.d().fill = 0;
    return true;
  }

  /// The owner's clock edge for the staging registers (F > 1 only).
  void settle() noexcept { stage_.settle(); }

 private:
  struct Stage {
    std::uint32_t fill = 0;  // words of the partly arrived cell
    std::array<word_t, kMaxFields> cell{};
  };

  sim::Fifo<word_t>& data_;
  std::uint32_t fields_;
  sim::RegGroup<Stage> stage_;
  obs::MetricsRegistry* mreg_;
  obs::MetricsRegistry::Slot s_staging_;
};

class CellWriter {
 public:
  /// Staging registers are charged as `<top>/ctrl/{wb_field,wb_index,
  /// wb_vals}`; drain cycles count toward `<top>/writeback_drain_cycles`
  /// and a full write channel toward `<top>/stall/writeback_backpressure`.
  CellWriter(sim::Simulator& sim, const std::string& top,
             sim::Fifo<mem::DramWriteReq>& req, std::size_t fields,
             std::size_t cells);

  /// What one write-back cycle did.
  enum class Step : std::uint8_t {
    Idle,  // posted nothing
    Word,  // posted a word; its cell still has fields to drain
    Cell,  // posted a cell's last word: the cell is fully written
  };

  /// A cell's fields 1..F-1 are still draining; no new cell is accepted.
  bool draining() const noexcept { return stage_.q().field != 0; }

  /// The write channel takes a word this cycle; counts a write-back
  /// backpressure stall when it does not.
  bool ready() noexcept {
    if (req_.can_push()) return true;
    mreg_->count(s_backpressure_);
    return false;
  }

  /// Accept result cell `index` (only when ready() and not draining()):
  /// post field 0 to `base + index * F` now and stage fields 1..F-1.
  Step write(std::uint64_t base, std::uint64_t index,
             const std::array<word_t, kMaxFields>& vals) {
    req_.push(mem::DramWriteReq{base + index * fields_, vals[0]});
    if (fields_ == 1) return Step::Cell;
    Stage& d = stage_.d();
    d.field = 1;
    d.index = index;
    d.vals = vals;
    return Step::Word;
  }

  /// Post the staged cell's next field (only while draining()).
  Step drain(std::uint64_t base) {
    if (!ready()) return Step::Idle;
    const Stage& q = stage_.q();
    req_.push(mem::DramWriteReq{base + q.index * fields_ + q.field,
                                q.vals[q.field]});
    mreg_->count(s_drain_);
    const bool last = q.field + 1 == fields_;
    stage_.d().field = last ? 0 : q.field + 1;
    return last ? Step::Cell : Step::Word;
  }

  /// The owner's clock edge for the staging registers (F > 1 only).
  void settle() noexcept { stage_.settle(); }

 private:
  struct Stage {
    std::uint32_t field = 0;  // next field to drain; 0 = idle
    std::uint64_t index = 0;
    std::array<word_t, kMaxFields> vals{};
  };

  sim::Fifo<mem::DramWriteReq>& req_;
  std::uint32_t fields_;
  sim::RegGroup<Stage> stage_;
  obs::MetricsRegistry* mreg_;
  obs::MetricsRegistry::Slot s_drain_;
  obs::MetricsRegistry::Slot s_backpressure_;
};

}  // namespace smache::rtl
