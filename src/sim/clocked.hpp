// Interfaces of the two-phase (eval/commit) cycle simulator.
//
// The substrate mimics an HDL simulator with exclusively non-blocking
// assignment: during a cycle every Module::eval reads only *committed* state
// and schedules next-state writes; at the clock edge every write lands at
// once. Consequences:
//   * module evaluation order never affects results (like well-formed RTL);
//   * a value written at cycle t is visible at cycle t+1, exactly one
//     flip-flop stage.
//
// Which state is two-phase. Only state that ANOTHER module can read needs a
// rule for when a write lands: FIFO channels, BRAM ports, the stream window
// and FSM registers (Reg). Their readers evaluate in the same cycle as the
// writer, in an order that must not matter, so a write may become visible
// only at the clock edge. Two mechanisms give that:
//   * FIFO channels publish by cycle stamp: a push or pop changes the ring
//     at once and records its cycle, and every reader discounts the
//     current cycle's push and pop (sim/fifo.hpp). A Fifo needs no commit,
//     is not a Clocked element, and the wakes it causes fire at the end of
//     the cycle (Module below).
//   * Reg/FsmState, BramBank ports and the stream window are Clocked
//     elements: a write is staged during eval and applied by the commit
//     phase.
// State that only its owner reads — the tops' controller and cell-port
// staging registers (RegGroup), the kernel's stage registers, the
// baseline's tuple registers — is committed by the owner itself at the end
// of its own eval(), and is neither. That is exact: no other eval can see
// such state in the middle of a cycle, the owner reads its committed value
// only before it settles, and between cycles (done(), min_cycles_to_done())
// the value is the committed one either way. Owners write such state only
// on evals that did work, so they stay awake for the next cycle. Keep it
// that way: the idle/fast-forward split (sched/cycles/{idle,fastforward})
// is pinned to the schedule a two-phase register gives, and a write on an
// eval that also sleeps would not hold the next all-asleep cycle as a
// commit cycle. For the same reason a push or pop holds off the
// fast-forward for its own cycle and the next, as a channel on the commit
// set would (Simulator::step_burst).
//
// Commit scheduling is activity-based: scheduling a write enqueues the
// element on the owning Simulator's RETAINED commit set (via mark_dirty()),
// and the commit phase walks only that set. Most registered elements are
// idle in any given cycle — a large design registers thousands of state
// elements but touches dozens per cycle — so commits cost O(writes), not
// O(elements). The set is retained across cycles: an element that keeps
// writing stays enqueued (the steady-state hot path is one flag store per
// write, no queue churn), and an element that goes quiet is dropped during
// the first commit sweep that finds it unwritten. Because commits are
// non-blocking and each element only mutates its own state, commit order
// cannot affect results — and committing is skipped entirely for retained
// elements that scheduled nothing this cycle.
//
// Eval scheduling is activity-gated the same way (see Module below): a
// module that declares quiescence is removed from the Simulator's active
// list and its eval() is not called again until a wake event — a push or
// pop on a FIFO it subscribed to, a wake-at-cycle timer, or an explicit
// wake().
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace smache::sim {

class Simulator;
class Module;

/// A state element participating in the clock edge: state another module
/// can read (see "Which state is two-phase" above). Implementations must be
/// registered with the Simulator (construction does this), must call
/// mark_dirty() whenever a next-state write is scheduled, and must only
/// mutate observable state inside commit(). commit() is invoked only on
/// cycles where the element marked itself dirty (the retained commit set
/// may hold an element one sweep past its last write, but its commit is
/// not re-run).
class Clocked {
 public:
  // Non-copyable: an element is registered with one simulator, and the
  // inline-commit records below point back into the element itself — a
  // copy would alias the original's registration and dangle its records.
  Clocked() = default;
  Clocked(const Clocked&) = delete;
  Clocked& operator=(const Clocked&) = delete;
  virtual ~Clocked() = default;
  /// Apply all next-state writes scheduled during the eval phase.
  virtual void commit() = 0;

 protected:
  /// Enqueue this element on the owning simulator's dirty list (idempotent
  /// within a cycle). Defined in simulator.hpp, next to the queue it feeds.
  void mark_dirty();

  // -- Inline-commit fast paths ---------------------------------------
  // The commit loop's virtual dispatch is megamorphic (many element types
  // alternate every cycle), so each call risks an indirect-branch miss.
  // The two commit shapes that dominate dirty lists — plain register
  // copy and BRAM port apply — are described by small POD records the loop
  // can execute inline through a predictable switch. commit() must stay
  // equivalent for users that invoke it directly.

  /// Commit record of a 1R1W synchronous RAM: latch read data (before the
  /// write lands — read-before-write), then apply the write.
  struct BramCommitCtl {
    std::uint64_t* store;
    std::size_t read_addr;
    std::uint64_t rdata;
    std::size_t write_addr;
    std::uint64_t write_value;
    bool read_pending;
    bool write_pending;
  };

  /// A commit that is exactly "copy `bytes` from `src` to `dst`" (a plain
  /// register's q_ <- next_).
  void set_copy_commit(void* dst, const void* src,
                       std::uint32_t bytes) noexcept {
    fast_kind_ = FastCommit::Copy;
    fast_a_ = dst;
    fast_b_ = src;
    fast_bytes_ = bytes;
  }
  void set_bram_commit(BramCommitCtl* ctl) noexcept {
    fast_kind_ = FastCommit::Bram;
    fast_a_ = ctl;
  }

 private:
  friend class Simulator;
  enum class FastCommit : std::uint8_t { None, Copy, Bram };

  Simulator* sim_ = nullptr;  // set by Simulator::register_clocked
  bool queued_ = false;       // on the simulator's retained commit set
  bool wrote_ = false;        // scheduled a write THIS cycle
  FastCommit fast_kind_ = FastCommit::None;
  void* fast_a_ = nullptr;
  const void* fast_b_ = nullptr;
  std::uint32_t fast_bytes_ = 0;
};

/// A behavioural block evaluated once per cycle while AWAKE. eval() may read
/// committed state anywhere and schedule writes on Regs/Fifos/Brams; it must
/// not observe its own same-cycle writes. State only the module itself reads
/// it may keep outside the commit phase, settled at the end of eval().
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
  /// next eval sweep: a module woken during cycle t's eval or commit phase
  /// is evaluated from cycle t+1 on. Defined in simulator.hpp.
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
