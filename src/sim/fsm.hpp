// Small helper for finite-state machines: wraps a Reg<Enum> with readable
// state queries. The Smache controller's three concurrent FSMs (prefetch /
// gather / write-back) are built on this.
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

  /// Schedule a transition for the next cycle.
  void go(Enum s) { state_.d(s); }

 private:
  Reg<Enum> state_;
};

}  // namespace smache::sim
