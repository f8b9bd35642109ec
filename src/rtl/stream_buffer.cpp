#include "rtl/stream_buffer.hpp"

#include <cstdint>
#include <limits>

#include "common/bits.hpp"
#include "mem/bram.hpp"

namespace smache::rtl {

StreamBuffer::StreamBuffer(sim::Simulator& sim, const std::string& path,
                           const model::BufferPlan& plan, std::size_t fields)
    : window_len_(plan.window_len()), fields_(fields) {
  SMACHE_REQUIRE(fields >= 1 && fields <= kMaxFields);
  is_reg_.assign(window_len_ + 1, 0);
  for (std::size_t age : plan.reg_ages()) {
    SMACHE_REQUIRE(age >= 1 && age <= window_len_);
    is_reg_[age] = 1;
  }
  SMACHE_REQUIRE(is_reg_age(1));
  window_words_ = window_len_ * fields_;
  ring_words_ = window_words_ + fields_;
  SMACHE_REQUIRE_MSG(ring_words_ <= std::numeric_limits<std::uint32_t>::max(),
                     "window ring exceeds the head index's range");
  ring_.assign(ring_words_, word_t{0});

  // Charge the hardware the ring stands in for (see header). F = 1 keeps
  // the original per-path charges; extra fields widen the registers and
  // add one bank per field under a /f<k> suffix.
  sim::ResourceLedger& ledger = sim.ledger();
  ledger.add(path + "/stream/window_regs", sim::ResKind::RegisterBits,
             static_cast<std::uint64_t>(plan.reg_ages().size()) * fields_ *
                 kWordBits);
  std::vector<std::uint8_t> bram_fed(window_len_ + 1, 0);
  for (std::size_t s = 0; s < plan.fifo_segments().size(); ++s) {
    const auto& fs = plan.fifo_segments()[s];
    SMACHE_REQUIRE_MSG(fs.bram_len >= 2,
                       "BRAM FIFO segments need >= 2 slots for the pointer "
                       "discipline");
    // The ring simulates this segment only if its BRAM holds exactly the
    // ages between its two stage registers.
    SMACHE_REQUIRE(is_reg_age(fs.in_stage_age) &&
                   fs.out_stage_age == fs.in_stage_age + fs.bram_len + 1 &&
                   is_reg_age(fs.out_stage_age));
    bram_fed[fs.out_stage_age] = 1;
    const std::string spath = path + "/stream/fifo" + std::to_string(s);
    for (std::size_t f = 0; f < fields_; ++f)
      mem::charge_bram(ledger,
                       f == 0 ? spath : spath + "/f" + std::to_string(f),
                       fs.bram_len, kWordBits, mem::BramMode::Fifo);
    ledger.add(spath + "/ptr", sim::ResKind::RegisterBits,
               smache::addr_bits(fs.bram_len));
  }

  // Every register but age 1 is fed by the register one age younger or by
  // a segment's BRAM output — BRAM interiors are always bounded by stage
  // registers.
  for (std::size_t age = 2; age <= window_len_; ++age)
    SMACHE_REQUIRE_MSG(!is_reg_age(age) || bram_fed[age] ||
                           is_reg_age(age - 1),
                       "window layout broken: register at age " +
                           std::to_string(age) +
                           " has no register or BRAM feeding it");
}

void StreamBuffer::shift(word_t in) {
  SMACHE_ASSERT(fields_ == 1);
  shift_cell(&in);
}

void StreamBuffer::shift_cell(const word_t* cell) {
  // The slot just behind the oldest age (age window_len + 1) is read by no
  // tap, so the entering cell can land there now; moving the head back
  // onto it at settle() makes it age 1 and ages everything else.
  const std::size_t head = (head_q_ == 0 ? ring_words_ : head_q_) - fields_;
  for (std::size_t f = 0; f < fields_; ++f) ring_[head + f] = cell[f];
  head_next_ = static_cast<std::uint32_t>(head);
}

word_t StreamBuffer::tap(std::size_t age) const {
  SMACHE_REQUIRE_MSG(is_reg_age(age),
                     "tap(" + std::to_string(age) +
                         ") is not a register-mapped window position");
  return tap_slot(slot_of_age(age));
}

}  // namespace smache::rtl
