// Flip-flop primitives: Reg<T> (a single register, committed two-phase by
// the Simulator, so any module may read it) and RegGroup<S> (registers only
// their owning module reads, committed by the owner itself). Both charge
// their bit counts to the ResourceLedger so elaborated designs produce
// synthesis-style reports.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/clocked.hpp"
#include "sim/simulator.hpp"

namespace smache::sim {

/// Default resource width for a register holding T. Override per-register
/// for packed fields (FSM states, flags, counters) via the `bits` argument.
template <typename T>
constexpr std::uint32_t default_bits() noexcept {
  if constexpr (std::is_same_v<T, bool>) return 1;
  else return static_cast<std::uint32_t>(sizeof(T) * 8);
}

/// A single clocked register. q() reads the committed value; d() schedules
/// the next value. If d() is not called in a cycle the register holds (and
/// the register never appears on that cycle's dirty list).
template <typename T>
class Reg : public Clocked {
 public:
  /// `bits` is the synthesis width charged to the ledger (e.g. a 7-bit
  /// counter stored in an int should pass 7).
  Reg(Simulator& sim, std::string_view path, T init,
      std::uint32_t bits = default_bits<T>())
      : q_(init), next_(init) {
    sim.register_clocked(this);
    if constexpr (std::is_trivially_copyable_v<T>)
      set_copy_commit(&q_, &next_, sizeof(T));
    sim.ledger().add(path, ResKind::RegisterBits, bits);
  }

  const T& q() const noexcept { return q_; }
  void d(const T& v) {
    next_ = v;
    mark_dirty();
  }

  void commit() override { q_ = next_; }

 private:
  T q_;
  T next_;
};

/// A GROUP of logically separate registers that only their owning module
/// reads: S is a trivially copyable struct whose fields are the grouped
/// registers (e.g. a top-level controller's counters). A group is not a
/// Clocked element: the owner commits it with settle() at the end of its
/// own eval(), which matches one Reg per field exactly under the contract
/// in clocked.hpp ("Which state is two-phase"). Fields assigned through
/// d() take the scheduled value at settle(); untouched fields hold (the
/// next-state struct always carries the committed value for them). Ledger
/// charges are passed per field, with the paths and widths of one Reg per
/// field, so synthesis-style reports cannot tell the difference.
template <typename S>
class RegGroup {
 public:
  struct FieldCharge {
    std::string path;
    std::uint32_t bits;
  };

  RegGroup(Simulator& sim, const S& init,
           std::initializer_list<FieldCharge> fields)
      : RegGroup(sim, init,
                 std::vector<FieldCharge>(fields.begin(), fields.end())) {}

  /// Vector overload for callers whose charge list is built conditionally
  /// (e.g. extra staging registers only present for multi-field cells).
  RegGroup(Simulator& sim, const S& init,
           const std::vector<FieldCharge>& fields)
      : q_(init), next_(init) {
    static_assert(std::is_trivially_copyable_v<S>,
                  "RegGroup needs a trivially copyable state struct");
    for (const FieldCharge& f : fields)
      sim.ledger().add(f.path, ResKind::RegisterBits, f.bits);
  }

  /// Committed state (start-of-cycle view until the owner settles).
  const S& q() const noexcept { return q_; }

  /// Next-state struct for field writes; everything not assigned holds.
  S& d() noexcept { return next_; }

  /// The owner's clock edge: publish this cycle's writes. Call once, at
  /// the end of the eval that may have written the group.
  void settle() noexcept { q_ = next_; }

 private:
  S q_;
  S next_;
};

}  // namespace smache::sim
