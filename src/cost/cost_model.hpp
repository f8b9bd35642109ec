// Analytic memory-resource cost model (the paper's §III "Memory Utilization
// Cost Model for Design-Space Exploration").
//
// Given a BufferPlan this predicts the register bits and BRAM bits the
// design will occupy, split the same way Table I reports them: `sc` (static
// buffers) and `sm` (stream buffer). The estimate deliberately ignores
// physical BRAM rounding and control/FSM registers — exactly like the
// paper's Estimate rows — so the gap between estimate and elaborated
// "actual" is meaningful and can be asserted on in tests.
#pragma once

#include <cstdint>

#include "model/planner.hpp"
#include "sim/resources.hpp"

namespace smache::cost {

/// R/B split in the style of Table I. All quantities are bits.
struct MemoryEstimate {
  std::uint64_t r_static = 0;  // Rsc: registers used by static buffers
  std::uint64_t b_static = 0;  // Bsc: BRAM bits used by static buffers
  std::uint64_t r_stream = 0;  // Rsm: registers in the stream buffer
  std::uint64_t b_stream = 0;  // Bsm: BRAM bits in the stream buffer

  std::uint64_t r_total() const noexcept { return r_static + r_stream; }
  std::uint64_t b_total() const noexcept { return b_static + b_stream; }

  /// Replicated designs (tiles) add field by field.
  MemoryEstimate& operator+=(const MemoryEstimate& o) noexcept {
    r_static += o.r_static;
    b_static += o.b_static;
    r_stream += o.r_stream;
    b_stream += o.b_stream;
    return *this;
  }
};

/// Predict the memory footprint of a planned Smache instance.
///  Rsm = word_bits * (#window register stages)
///  Bsm = word_bits * (#window BRAM elements)
///  Bsc = word_bits * sum_banks(2 copies * length * replicas)
///  Rsc = 0 (static buffers always map to BRAM in this architecture)
MemoryEstimate estimate_memory(const model::BufferPlan& plan,
                               std::uint32_t word_bits = 32);

/// The same split measured from an elaborated design's ResourceLedger.
/// `design_prefix` is the hierarchy root (e.g. "smache"); static and stream
/// contributions are read from "<root>/static" and "<root>/stream".
struct MemoryActual {
  std::uint64_t r_static = 0;
  std::uint64_t b_static = 0;
  std::uint64_t r_stream = 0;
  std::uint64_t b_stream = 0;
  std::uint64_t r_total = 0;  // includes controller/kernel-interface regs
  std::uint64_t b_total = 0;
  std::uint64_t m20k_blocks = 0;

  /// Replicated designs (tiles) add field by field.
  MemoryActual& operator+=(const MemoryActual& o) noexcept {
    r_static += o.r_static;
    b_static += o.b_static;
    r_stream += o.r_stream;
    b_stream += o.b_stream;
    r_total += o.r_total;
    b_total += o.b_total;
    m20k_blocks += o.m20k_blocks;
    return *this;
  }
};

MemoryActual measure_actual(const sim::ResourceLedger& ledger,
                            const std::string& design_prefix);

}  // namespace smache::cost
