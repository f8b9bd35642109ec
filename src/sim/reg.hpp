// Flip-flop primitive: RegGroup<S>, registers only their owning module
// reads, settled by that owner (module.hpp: "all other state is settled by
// its only reader"). A single register is a group of one field. Charges go
// to the ResourceLedger so elaborated designs produce synthesis-style
// reports.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/simulator.hpp"

namespace smache::sim {

/// Default resource width for a register holding T (a FIFO slot's width
/// unless the channel passes its own).
template <typename T>
constexpr std::uint32_t default_bits() noexcept {
  if constexpr (std::is_same_v<T, bool>) return 1;
  else return static_cast<std::uint32_t>(sizeof(T) * 8);
}

/// A GROUP of logically separate registers that only their owning module
/// reads: S is a trivially copyable struct whose fields are the grouped
/// registers (e.g. a top-level controller's counters), or one plain value
/// for a single register. The owner publishes its writes with settle() at
/// the end of its own eval(); a testbench driving a group directly is its
/// owner and settles it where its clock edge falls. Fields assigned
/// through d() take the scheduled value at settle(); untouched fields hold
/// (the next-state struct always carries the settled value for them).
/// Ledger charges are passed per field, with the paths and widths of one
/// register per field, so synthesis-style reports see separate registers.
template <typename S>
class RegGroup {
  static_assert(std::is_trivially_copyable_v<S>,
                "RegGroup needs a trivially copyable state struct");

 public:
  struct FieldCharge {
    std::string path;
    std::uint32_t bits;
  };

  /// A single register charged as `bits` wide at `path` (e.g. a 7-bit
  /// counter stored in an int passes 7).
  RegGroup(Simulator& sim, std::string_view path, const S& init,
           std::uint32_t bits)
      : q_(init), next_(init) {
    sim.ledger().add(path, ResKind::RegisterBits, bits);
  }

  RegGroup(Simulator& sim, const S& init,
           std::initializer_list<FieldCharge> fields)
      : RegGroup(sim, init,
                 std::vector<FieldCharge>(fields.begin(), fields.end())) {}

  /// Vector overload for callers whose charge list is built conditionally
  /// (e.g. extra staging registers only present for multi-field cells).
  RegGroup(Simulator& sim, const S& init,
           const std::vector<FieldCharge>& fields)
      : q_(init), next_(init) {
    for (const FieldCharge& f : fields)
      sim.ledger().add(f.path, ResKind::RegisterBits, f.bits);
  }

  /// Settled state (start-of-cycle view until the owner settles).
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
