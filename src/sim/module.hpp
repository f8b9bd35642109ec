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
//     eval order. The wakes a push or pop causes fire at the end of the
//     cycle (Module below).
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
// Eval scheduling is activity-gated (see Module below): a module that
// declares quiescence is removed from the Simulator's active list and its
// eval() is not called again until a wake event — a push or pop on a FIFO
// it subscribed to, a wake-at-cycle timer, or an explicit wake().
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace smache::sim {

class Simulator;

/// A behavioural block evaluated once per cycle while AWAKE. eval() reads
/// other modules only through channels, and settles the state it owns at
/// its end (see the rules above); it must not observe its own same-cycle
/// writes.
///
/// Activity gating: a module that can prove it is quiescent — its eval()
/// would change NO observable state (registers, FIFOs, BRAMs, DRAM stats,
/// trace rows) until some event — may call sleep() / sleep_for() from inside
/// its eval(). The simulator then skips the module entirely until a wake:
///   * a FIFO the module registered on (Fifo::set_consumer/set_producer)
///     is pushed/popped — the wake fires at the END of that cycle, i.e.
///     exactly the cycle boundary where the data/space becomes visible to
///     the module. A module asleep at the push/pop is queued on the
///     simulator's pending-wake list; an awake one is stamped with the
///     cycle, and a sleep()/sleep_for() it calls later in the same cycle
///     queues it then. Either eval order gives the same wake;
///   * the wake-at-cycle timer from sleep_for(n) expires (the module evals
///     again exactly n cycles after the eval that called sleep_for, unless
///     a channel event wakes it earlier);
///   * any code calls wake() explicitly.
/// Sleeping is always a pure optimisation, never a semantic: the quiescence
/// claim is the module's contract, and Simulator::set_force_eval_all(true)
/// disables gating so property tests can cross-check the two modes
/// bit-for-bit.
class Module {
 public:
  virtual ~Module() = default;
  virtual void eval() = 0;

  /// True while the scheduler is skipping this module.
  bool asleep() const noexcept { return asleep_; }

  /// Cancel a sleep (idempotent, cheap when awake). Takes effect for the
  /// next eval sweep: a module woken during cycle t (in an eval or by the
  /// end-of-cycle wakes) is evaluated from cycle t+1 on. Defined in
  /// simulator.hpp.
  void wake() noexcept;

  /// Name this module for observability output: per-module cycle
  /// attribution metrics ("sched/module/<name>/...") and span lanes use it
  /// instead of the positional "module<N>" default. Call from the module's
  /// constructor (the name is interned once). Defined in simulator.hpp.
  void set_obs_name(std::string_view name);

 protected:
  /// Declare quiescence until a registered wake event (defined in
  /// simulator.hpp). No-op unless the owning simulator allows gating.
  void sleep() noexcept;

  /// Declare quiescence for AT MOST `n` cycles (n >= 1): the module is
  /// re-evaluated at now()+n even if no event fires earlier. Use with a
  /// sound lower bound on the cycles until the module can next act to get
  /// exact re-check scheduling (same argument as run_until_done).
  void sleep_for(std::uint64_t n) noexcept;

 private:
  friend class Simulator;
  static constexpr std::uint64_t kNoWake = ~std::uint64_t{0};

  Simulator* sched_ = nullptr;     // set by Simulator::add_module
  std::uint64_t wake_at_ = kNoWake;
  bool asleep_ = false;
  bool timed_queued_ = false;  // on the simulator's timed-sleeper list
  bool wake_queued_ = false;   // on the simulator's pending-wake list
  Module* next_wake_ = nullptr;  // pending-wake list link
  // Cycle of the latest channel event that found this module awake: a
  // sleep in that same cycle must still be woken at its end.
  std::uint64_t notified_at_ = kNoWake;

  // -- observability (see Simulator::enable_profiling/enable_spans; all
  // fields are scheduler-maintained and cost nothing when disabled) --
  const std::string* obs_path_ = nullptr;  // interned display name
  std::uint64_t obs_awake_cycles_ = 0;     // cycles this module evaluated
  std::uint64_t obs_awake_since_ = 0;      // open activity-span start
  std::uint32_t obs_lane_ = 0;             // span lane id
};

}  // namespace smache::sim
