// The stream (window) buffer with hybrid register/BRAM implementation —
// the paper's §III "Stream Buffers and Hybrid use of registers and BRAM".
//
// Logically this is a delay line of window_len elements; age 1 is the
// newest element, age window_len the oldest.
//
// The hardware it charges (from the plan, at construction). Positions the
// gather unit must see in the same cycle (the stencil taps, plus the entry
// and exit stages) are registers, charged as <path>/stream/window_regs;
// long runs between taps are BRAM FIFO segments bounded by in/out stage
// registers:
//
//   reg(in_stage) -> BRAM circular buffer (bram_len slots) -> reg(out_stage)
//
// FIFO segment s is charged as one bank per cell field (<path>/stream/fifo<s>
// for field 0, fifo<s>/f<k> for field k) plus one pointer register shared
// by the field banks (fifo<s>/ptr). The pointer discipline gives a fixed
// residence of bram_len shifts per value using one read and one write port
// per cycle:
//
//   per shift: out_stage.d(bram.rdata());           // read issued last shift
//              bram.write(ptr, in_stage.q());
//              bram.read((ptr + 1) % bram_len);     // for the next shift
//              ptr <- (ptr + 1) % bram_len
//
// bram_len >= 2 is required so the read and write of one shift never touch
// the same slot; the planner guarantees >= 3. Case-R (RegisterOnly plans)
// degenerates to all positions in registers.
//
// How it simulates that hardware. Whichever primitive holds an age, the
// value there is the cell shifted in `age` shifts ago, so the window is
// stored as one ring of window_len + 1 cells behind a head index. A shift
// writes the entering cell into the slot just behind the oldest age, which
// no tap reads before the clock edge, and schedules the head to step back
// onto it. The window is read only by its owning top, so the clock edge is
// the top's settle() at the end of its eval (sim/module.hpp): a 4-byte
// head copy, after which every stored cell has aged by one. Only register
// ages are readable, exactly as in the hardware.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/word.hpp"
#include "model/planner.hpp"
#include "sim/simulator.hpp"

namespace smache::rtl {

class StreamBuffer {
 public:
  /// `fields` widens every window position to an F-word cell (F
  /// interleaved words per ring slot; one BRAM bank per field charged per
  /// segment); the plan's geometry stays in cell-unit ages.
  StreamBuffer(sim::Simulator& sim, const std::string& path,
               const model::BufferPlan& plan, std::size_t fields = 1);

  std::size_t window_len() const noexcept { return window_len_; }
  std::size_t fields() const noexcept { return fields_; }

  /// Schedule one shift: `in` enters at age 1, every stored element ages by
  /// one at the next settle(). Must be called at most once per cycle.
  /// Single-field form.
  void shift(word_t in);

  /// Cell-wide shift: `cell` points at the entering cell's F words.
  void shift_cell(const word_t* cell);

  /// Combinational read of a register-mapped age (taps, stages) — field 0.
  /// Ages inside BRAM segments are not readable — the planner never taps
  /// them.
  word_t tap(std::size_t age) const;

  /// WORD offset from the window head of a register-mapped age (the base
  /// of the cell's F consecutive words; field f lives at slot + f). Gather
  /// units that emit the same stencil cases millions of times resolve ages
  /// to slots ONCE (per case, at table-build time) and then read via
  /// tap_slot().
  std::size_t slot_of_age(std::size_t age) const {
    SMACHE_REQUIRE_MSG(is_reg_age(age),
                       "slot_of_age on a non-register window position");
    return (age - 1) * fields_;
  }

  /// Combinational read by precomputed WORD slot (see slot_of_age).
  word_t tap_slot(std::size_t slot) const {
    SMACHE_REQUIRE(slot < window_words_);
    const std::size_t i = slot + head_q_;
    return ring_[i < ring_words_ ? i : i - ring_words_];
  }

  /// True if `age` is register-mapped (readable via tap()).
  bool is_reg_age(std::size_t age) const {
    return age < is_reg_.size() && is_reg_[age] != 0;
  }

  /// The owner's clock edge: land this cycle's shift, if any.
  void settle() noexcept { head_q_ = head_next_; }

 private:
  std::size_t window_len_;
  std::size_t fields_;
  std::vector<std::uint8_t> is_reg_;  // by age: 1 if register-mapped
  std::size_t window_words_ = 0;      // window_len * F: the readable words
  std::size_t ring_words_ = 0;        // (window_len + 1) * F
  std::vector<word_t> ring_;
  // Word index of age 1 (settled, and scheduled by shift_cell).
  std::uint32_t head_q_ = 0;
  std::uint32_t head_next_ = 0;
};

}  // namespace smache::rtl
