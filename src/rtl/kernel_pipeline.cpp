#include "rtl/kernel_pipeline.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace smache::rtl {

KernelPipeline::KernelPipeline(sim::Simulator& sim, const std::string& path,
                               KernelSpec spec, std::size_t tuple_size,
                               std::size_t grid_cells, std::uint32_t latency)
    : spec_(spec),
      tuple_size_(tuple_size),
      fields_(spec.fields()),
      latency_(latency),
      in_(sim, path + "/in", 2,
          static_cast<std::uint32_t>(tuple_size * spec.fields() * 33 +
                                     smache::count_bits(grid_cells))),
      out_(sim, path + "/out", 2,
           static_cast<std::uint32_t>(32 * spec.fields()) +
               smache::count_bits(grid_cells)),
      pipe_(latency),
      mreg_(&sim.metrics()),
      s_out_bp_(mreg_->slot(path, "/stall/out_backpressure",
                            obs::MetricKind::Counter)) {
  SMACHE_REQUIRE(latency >= 1);
  set_obs_name(path);
  SMACHE_REQUIRE(tuple_size >= 1 && tuple_size * fields_ <= kMaxTuple);
  const std::uint32_t idx_bits = smache::count_bits(grid_cells);
  const auto f32 = static_cast<std::uint32_t>(fields_);
  for (std::uint32_t s = 0; s < latency; ++s) {
    // Stage 0 still holds the tuple-wide partial state; later stages carry
    // a narrowing payload down to one cell (F words, plus the wide partial
    // accumulator in stage 1). F = 1 keeps the original widths
    // bit-for-bit.
    const std::uint32_t payload_bits =
        s == 0 ? static_cast<std::uint32_t>(tuple_size * fields_ * 33)
               : (s == 1 ? 64u * f32 : 32u * f32);
    sim.ledger().add(path + "/stage" + std::to_string(s),
                     sim::ResKind::RegisterBits, payload_bits + idx_bits + 1);
  }
  sim.add_module(this);
}

bool KernelPipeline::empty() const noexcept {
  if (!in_.empty() || !out_.empty()) return false;
  for (std::uint32_t s = 0; s < latency_; ++s)
    if (pipe_[s].valid) return false;
  return true;
}

void KernelPipeline::eval() {
  // Empty: no valid tuple in any stage and nothing to accept. Advancing
  // would only shift bubbles into bubbles — the state after such a cycle is
  // bit-identical to not writing the stages at all.
  if (occupancy_ == 0 && in_.empty()) return;

  // All-or-nothing advance: the pipeline only moves when its tail can
  // retire into the output FIFO (or the tail is a bubble); otherwise it
  // holds frozen.
  const Stage& tail = pipe_.back();
  const bool can_retire = !tail.valid || out_.can_push();
  if (!can_retire) {
    mreg_->count(s_out_bp_);
    return;
  }

  if (tail.valid) {
    ResultMsg& res = out_.push_slot();  // staged in place, no copy
    res.index = tail.index;
    res.values = tail.value;
    --occupancy_;
  }

  // Whole-pipe shift in place, tail first (this overwrites `tail`).
  std::copy_backward(pipe_.begin(), pipe_.end() - 1, pipe_.end());

  // Head stage: accept a new tuple if available; the arithmetic result is
  // computed here and carried through the remaining stages (the stage regs
  // charge the bits a real pipeline would hold).
  if (in_.can_pop()) {
    const TupleMsg& msg = in_.front();  // valid for the rest of the cycle
    SMACHE_ASSERT(msg.count <= tuple_size_ * fields_);
    Stage head;
    head.valid = true;
    head.index = msg.index;
    apply_kernel_cells(spec_, TupleView{msg.elems.data(), msg.count},
                       fields_, head.value.data());
    pipe_[0] = head;
    in_.drop();
    ++occupancy_;
  } else {
    pipe_[0] = Stage{};
  }
}

}  // namespace smache::rtl
