// Small helper for finite-state machines: a one-register RegGroup<Enum>
// with readable state queries, settled by its owning module like any
// register (module.hpp). The Smache controller's three concurrent FSMs
// (prefetch / gather / write-back) are built on this.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/bits.hpp"
#include "sim/reg.hpp"
#include "sim/simulator.hpp"

namespace smache::sim {

template <typename Enum>
class FsmState {
 public:
  /// `state_count` sizes the synthesis width (one-hot would be state_count
  /// bits; we charge the denser binary encoding, matching how Quartus maps
  /// small FSMs under register pressure).
  FsmState(Simulator& sim, std::string_view path, Enum initial,
           std::uint32_t state_count)
      : state_(sim, path, initial, smache::addr_bits(state_count)) {}

  Enum state() const noexcept { return state_.q(); }
  bool is(Enum s) const noexcept { return state_.q() == s; }

  /// Schedule a transition; it takes effect at the owner's settle().
  void go(Enum s) noexcept { state_.d() = s; }

  /// The owner's clock edge (see RegGroup::settle).
  void settle() noexcept { state_.settle(); }

 private:
  RegGroup<Enum> state_;
};

}  // namespace smache::sim
