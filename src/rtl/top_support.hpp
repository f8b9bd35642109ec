// Helpers shared by the two top-level designs (SmacheTop at any fused
// depth, BaselineTop): the completion lower bound that drives batched
// polling, the behavioural cell -> case lookup table, and SmacheTop's
// pre-resolved per-case gather plans and tuple emission.
#pragma once

#include <cstdint>
#include <vector>

#include "grid/zones.hpp"
#include "model/planner.hpp"
#include "rtl/kernel_pipeline.hpp"
#include "rtl/static_buffer.hpp"
#include "rtl/stream_buffer.hpp"

namespace smache::rtl {

/// Sound lower bound on cycles until a top's done() can become true, used
/// by Simulator::run_until_done. Both tops share the same argument:
/// at most one write-back retires per cycle, Done is entered together with
/// the final one, and `wb_count` resets per DRAM pass — so the outstanding
/// write-back count across all remaining passes
/// (`remaining_passes * cells - clamped(wb_count)`) can never be
/// undershot. Warm-up or fence cycles only add to it.
inline std::uint64_t outstanding_writeback_bound(
    std::uint64_t passes_total, std::uint64_t passes_done,
    std::uint64_t cells, std::uint64_t wb_count) noexcept {
  const std::uint64_t remaining = (passes_total - passes_done) * cells;
  const std::uint64_t written = wb_count < cells ? wb_count : cells;
  return remaining - written;
}

/// Flatten a CaseMap into a cell-indexed table (slice-major stream order).
/// case_of() resolves zones with a per-axis walk — far too slow to repeat
/// for every cell touch of every cycle. Behavioural lookup only: charges
/// nothing to the ledger. Tops build it lazily on their first eval so
/// elaborate-only flows (Table I's 1024x1024 rows) never pay O(cells).
inline std::vector<std::uint32_t> build_case_table(const grid::CaseMap& cases,
                                                   std::size_t height,
                                                   std::size_t width,
                                                   std::size_t depth = 1) {
  std::vector<std::uint32_t> table;
  table.reserve(height * width * depth);
  for (std::size_t s = 0; s < depth; ++s)
    for (std::size_t r = 0; r < height; ++r)
      for (std::size_t c = 0; c < width; ++c)
        table.push_back(static_cast<std::uint32_t>(cases.case_of(s, r, c)));
  return table;
}

/// One tuple element of one stencil case, pre-resolved at table-build time
/// (window age -> word offset, static index -> bank pointer) so the
/// per-cycle gather is a tight switch with no map lookups.
struct EmitOp {
  enum class Kind : std::uint8_t { Window, Static, Constant, Skip };
  Kind kind = Kind::Skip;
  std::uint32_t slot = 0;     // Window: word offset from the window head
  std::uint32_t replica = 0;  // Static: read-port replica
  StaticBufferBank* bank = nullptr;
  word_t constant = 0;
};

/// One static-buffer pre-issue of one case (SmacheTop FSM-2c). Cases
/// without static sources (the grid interior) have an empty list and skip
/// the pre-issue loop entirely.
struct StaticIssue {
  StaticBufferBank* bank = nullptr;
  std::uint32_t replica = 0;
  std::int64_t col_shift = 0;
};

struct CasePlan {
  std::vector<EmitOp> ops;
  std::vector<StaticIssue> statics;
};

/// Pre-resolve every case's gather sources against a stream buffer's
/// register layout and the plan's static buffers.
inline std::vector<CasePlan> build_case_plans(const model::BufferPlan& plan,
                                              const StreamBuffer& window,
                                              StaticBufferSet& statics) {
  std::vector<CasePlan> plans(plan.cases().case_count());
  for (std::size_t id = 0; id < plans.size(); ++id) {
    CasePlan& cp = plans[id];
    for (const model::GatherSource& g : plan.gather(id)) {
      EmitOp op;
      switch (g.kind) {
        case model::SourceKind::Window:
          op.kind = EmitOp::Kind::Window;
          op.slot =
              static_cast<std::uint32_t>(window.slot_of_age(g.window_age));
          break;
        case model::SourceKind::Static:
          op.kind = EmitOp::Kind::Static;
          op.bank = &statics.bank(g.static_index);
          op.replica = static_cast<std::uint32_t>(g.replica);
          cp.statics.push_back({op.bank, op.replica, g.col_shift});
          break;
        case model::SourceKind::Constant:
          op.kind = EmitOp::Kind::Constant;
          op.constant = g.constant;
          break;
        case model::SourceKind::Skip:
          op.kind = EmitOp::Kind::Skip;
          break;
      }
      cp.ops.push_back(op);
    }
  }
  return plans;
}

/// Assemble cell `cell`'s stencil tuple from its case plan directly in
/// `msg`, a kernel input channel's staging slot: the consumer reads exactly
/// elems[0..count), which this fully writes. Tap-major layout: tap j's F
/// fields land at elems[j*F .. j*F+F). Window slots are word bases
/// (slot_of_age scales by F); static reads were issued cell-wide, so every
/// field bank's rdata is live; constants and skips replicate across the
/// cell's fields.
inline void emit_tuple(TupleMsg& msg, std::uint64_t cell, const CasePlan& cp,
                       const StreamBuffer& window, std::size_t fields) {
  msg.index = cell;
  msg.count = static_cast<std::uint32_t>(cp.ops.size() * fields);
  if (fields == 1) {
    // Single-word cells: per-cell hot loop, kept free of the field loops.
    for (std::size_t j = 0; j < cp.ops.size(); ++j) {
      const EmitOp& op = cp.ops[j];
      switch (op.kind) {
        case EmitOp::Kind::Window:
          msg.elems[j] = grid::TupleElem{window.tap_slot(op.slot), true};
          break;
        case EmitOp::Kind::Static:
          msg.elems[j] = grid::TupleElem{op.bank->rdata(op.replica), true};
          break;
        case EmitOp::Kind::Constant:
          msg.elems[j] = grid::TupleElem{op.constant, true};
          break;
        case EmitOp::Kind::Skip:
          msg.elems[j] = grid::TupleElem{0, false};
          break;
      }
    }
    return;
  }
  for (std::size_t j = 0; j < cp.ops.size(); ++j) {
    const EmitOp& op = cp.ops[j];
    grid::TupleElem* e = msg.elems.data() + j * fields;
    switch (op.kind) {
      case EmitOp::Kind::Window:
        for (std::size_t f = 0; f < fields; ++f)
          e[f] = grid::TupleElem{window.tap_slot(op.slot + f), true};
        break;
      case EmitOp::Kind::Static:
        for (std::size_t f = 0; f < fields; ++f)
          e[f] = grid::TupleElem{op.bank->rdata(op.replica, f), true};
        break;
      case EmitOp::Kind::Constant:
        for (std::size_t f = 0; f < fields; ++f)
          e[f] = grid::TupleElem{op.constant, true};
        break;
      case EmitOp::Kind::Skip:
        for (std::size_t f = 0; f < fields; ++f)
          e[f] = grid::TupleElem{0, false};
        break;
    }
  }
}

}  // namespace smache::rtl
