// The behavioural module of the cycle simulator, and the rules for when a
// write lands.
//
// The substrate mimics an HDL simulator with exclusively non-blocking
// assignment: every Module::eval reads start-of-cycle state, and a value
// written at cycle t is visible at cycle t+1, exactly one flip-flop stage.
// Module evaluation order therefore never affects results (like well-formed
// RTL). Two rules give that:
//   * A channel publishes by cycle stamp. FIFO channels (sim/fifo.hpp) are
//     the only state two modules share. A push or pop changes the ring at
//     once and records its cycle, and every reader discounts the current
//     cycle's push and pop, so it sees the start-of-cycle view whatever the
//     eval order.
//   * All other state is settled by its only reader. Registers (RegGroup,
//     FsmState), BRAM ports (BramBank, the static banks) and the stream
//     window are read only by the module that owns them: in its own eval(),
//     or between cycles (done(), min_cycles_to_done()). The owner stages
//     its writes during eval() and calls settle() at the end of it. That is
//     exact: no other eval can see such state in the middle of a cycle, the
//     owner reads the start-of-cycle value only before it settles, and
//     between cycles the settled value is the one a clock edge would give.
//     A testbench driving a primitive directly is its owner and settles it
//     where its clock edge falls.
//
// The Simulator evaluates every module on every cycle, as a clock edge
// reaches every flip-flop of a synchronous design.
#pragma once

#include <string>
#include <string_view>

namespace smache::sim {

class Simulator;

/// A behavioural block evaluated once per cycle. eval() reads other modules
/// only through channels, and settles the state it owns at its end (see the
/// rules above); it must not observe its own same-cycle writes. A module
/// with nothing to do this cycle simply returns.
class Module {
 public:
  virtual ~Module() = default;
  virtual void eval() = 0;

  /// Name this module for observability output: per-module cycle
  /// attribution metrics ("sched/module/<name>/...") use it instead of the
  /// positional "module<N>" default. Call from the module's constructor
  /// (the name is interned once). Defined in simulator.hpp.
  void set_obs_name(std::string_view name);

 private:
  friend class Simulator;

  Simulator* sched_ = nullptr;             // set by Simulator::add_module
  const std::string* obs_path_ = nullptr;  // interned display name
};

}  // namespace smache::sim
