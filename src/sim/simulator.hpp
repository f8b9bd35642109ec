// The cycle scheduler. See module.hpp for when a write lands.
//
// A cycle is: fire due timer wakes, eval the awake modules, then wake the
// modules that channel events queued (the end-of-cycle wake). Evals are
// activity-gated: modules that declared quiescence (Module::sleep/
// sleep_for) are dropped from the active list and not called at all; they
// return on a wake event (a channel push/pop, timer expiry, explicit
// wake()). When NOTHING is active, no wake is pending and no channel moved
// in the previous cycle or since, whole idle stretches are fast-forwarded
// in O(1) (cycle numbering is unchanged — the skipped cycles provably had
// no state change). Gating is an optimisation bound by a correctness
// contract (a sleeping module's eval must be observable-state-neutral);
// set_force_eval_all(true) runs every module every cycle so tests can
// cross-check the two modes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "sim/module.hpp"
#include "sim/resources.hpp"

namespace smache::sim {

/// Single-clock cycle simulator. Non-owning: the test bench or engine owns
/// the modules; they register themselves here on construction and must
/// outlive the Simulator's last step().
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current cycle number (count of completed steps).
  std::uint64_t now() const noexcept { return cycle_; }

  /// Register a behavioural module; evaluated in registration order on
  /// every cycle it is awake (order is irrelevant for correctness, fixed
  /// for determinism — the active list preserves registration order).
  void add_module(Module* m) {
    SMACHE_REQUIRE(m != nullptr);
    SMACHE_REQUIRE_MSG(m->sched_ == nullptr || m->sched_ == this,
                       "module already registered with another simulator");
    m->sched_ = this;
    modules_.push_back(m);
    active_stale_ = true;
    if (spans_on_) init_span_state(m, modules_.size() - 1);
  }

  /// Number of registered modules currently awake (reporting/tests).
  std::size_t awake_module_count() const noexcept {
    std::size_t n = 0;
    for (const Module* m : modules_) n += m->asleep_ ? 0 : 1;
    return n;
  }

  /// Disable activity gating: every module is evaluated every cycle and
  /// sleep()/sleep_for() become no-ops. The equivalence property suite runs
  /// every configuration in both modes and demands bit-identical results.
  void set_force_eval_all(bool on) noexcept {
    force_eval_all_ = on;
    if (on) {
      for (Module* m : modules_) m->wake();
    }
  }
  bool force_eval_all() const noexcept { return force_eval_all_; }

  /// Whether modules are currently allowed to sleep.
  bool gating_allowed() const noexcept { return !force_eval_all_; }

  /// Resource accounting shared by every primitive built on this simulator.
  ResourceLedger& ledger() noexcept { return ledger_; }
  const ResourceLedger& ledger() const noexcept { return ledger_; }

  /// Shared metrics registry (disabled by default — instrumented code
  /// registers slots unconditionally but every touch is one branch while
  /// disabled).
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// Module-activity / DRAM-transaction span log for trace export.
  obs::SpanLog& spans() noexcept { return spans_; }
  const obs::SpanLog& spans() const noexcept { return spans_; }

  /// Turn on cycle attribution and the metrics registry. Profiling does
  /// NOT disable activity gating: attribution classifies
  /// the gated schedule itself (awake / asleep / fast-forwarded), so the
  /// simulated results stay bit-identical to an unprofiled run.
  void enable_profiling() noexcept {
    prof_ = true;
    metrics_.set_enabled(true);
    prof_anchor_ = cycle_;
  }
  bool profiling() const noexcept { return prof_; }

  /// Turn on span recording (module activity intervals; modules with span
  /// sources of their own, e.g. DramModel, key off this flag too). Also
  /// does not affect gating or results.
  void enable_spans() {
    spans_on_ = true;
    spans_.set_enabled(true);
    for (std::size_t i = 0; i < modules_.size(); ++i)
      init_span_state(modules_[i], i);
  }
  bool spans_enabled() const noexcept { return spans_on_; }

  /// End-of-run bookkeeping: close still-open activity spans and fold the
  /// scheduler's attribution counters into the metrics registry —
  ///   sched/cycles/{total,eval,idle,fastforward}
  ///   sched/wakes/{channel,timer,explicit}
  ///   sched/module/<name>/{awake,asleep,fastforward}
  /// Invariants (asserted by tests): eval+idle+fastforward == total, and
  /// per module awake+asleep+fastforward == total. Call once, after the
  /// last step.
  void finalize_observability() {
    if (spans_on_) {
      for (Module* m : modules_)
        if (!m->asleep_) spans_.add(m->obs_lane_, m->obs_awake_since_, cycle_);
    }
    if (!prof_) return;
    const std::uint64_t total = cycle_ - prof_anchor_;
    auto put = [&](const std::string& path, std::uint64_t v) {
      metrics_.set_path(path, obs::MetricKind::Counter, v);
    };
    put("sched/cycles/total", total);
    put("sched/cycles/eval", prof_eval_cycles_);
    put("sched/cycles/idle", prof_idle_cycles_);
    put("sched/cycles/fastforward", prof_ff_cycles_);
    // wake() transitions split into channel (the end-of-cycle wakes FIFO
    // pushes and pops queue) and explicit; timer wakes bypass wake() and
    // are counted at the firing site.
    put("sched/wakes/channel", wakes_channel_);
    put("sched/wakes/timer", wakes_timer_);
    put("sched/wakes/explicit", wake_transitions_ - wakes_channel_);
    for (std::size_t i = 0; i < modules_.size(); ++i) {
      const Module* m = modules_[i];
      const std::string name = module_obs_name(m, i);
      const std::uint64_t awake = m->obs_awake_cycles_;
      // Fast-forwarded stretches skip every module; a module neither
      // evaluated nor fast-forwarded was asleep (stepped idle cycles
      // included). Clamped only against modules registered mid-profile.
      const std::uint64_t asleep =
          total >= awake + prof_ff_cycles_ ? total - awake - prof_ff_cycles_
                                           : 0;
      put("sched/module/" + name + "/awake", awake);
      put("sched/module/" + name + "/asleep", asleep);
      put("sched/module/" + name + "/fastforward", prof_ff_cycles_);
    }
  }

  /// Advance exactly one cycle: eval the awake modules, then the
  /// end-of-cycle wakes. A dedicated body (no burst bookkeeping, no idle
  /// fast-forward — a single idle cycle IS the fast-forward) keeps the
  /// testbench-driven single-step loops of the channel tests lean.
  void step() {
    if (modules_.empty()) {
      // Testbench-driven fast path: with no modules registered there can be
      // no timers to fire and no active list to maintain — the cycle only
      // moves the clock that FIFO cycle stamps are read against.
      end_idle_cycle();
      return;
    }
    if (next_timer_wake_ <= cycle_ || active_stale_) refresh_schedule();
    if (active_.empty()) {
      // Every module is asleep (and no timer is due): evals are provably
      // state-neutral, so only the queued wakes can do work.
      end_idle_cycle();
      return;
    }
    Module* const* mods = active_.data();
    const std::size_t m = active_.size();
    for (std::size_t i = 0; i < m; ++i) mods[i]->eval();
    if (prof_) {
      ++prof_eval_cycles_;
      for (std::size_t i = 0; i < m; ++i) ++mods[i]->obs_awake_cycles_;
    }
    end_cycle();
  }

  /// Step until `done()` returns true (checked after each cycle) or
  /// `max_cycles` elapse. Returns the number of cycles stepped.
  /// Throws if the budget is exhausted before completion — a hang in the
  /// simulated design is a bug, never silent.
  std::uint64_t run_until(const std::function<bool()>& done,
                          std::uint64_t max_cycles) {
    return run_until_done(done, [] { return std::uint64_t{1}; }, max_cycles);
  }

  /// Batched completion polling: step in bursts, checking `done()` only
  /// when completion is possible. `min_cycles_to_done()` must return a
  /// LOWER BOUND on the number of further cycles before `done()` can first
  /// become true (0 and 1 both mean "check after the next cycle") — e.g.
  /// outstanding write-backs, DRAM words in flight, or pipeline fill, each
  /// of which retires at most one per cycle. Every cycle is still
  /// evaluated normally (stats and spans see all of them); only
  /// the predicate checks are skipped, so with a sound bound the results —
  /// including the returned cycle count — are bit-identical to checking
  /// after every cycle, while the done/bound callables run
  /// O(completions) instead of O(cycles) times.
  ///
  /// Exactness argument: suppose done() first becomes true after cycle t*.
  /// A sound bound computed at any check cycle c < t* never schedules the
  /// next check beyond t* (that would certify done() false at t*), so the
  /// first check at-or-after t* lands exactly on t* and no cycle beyond t*
  /// is ever stepped. Soundness is the caller's contract; the equivalence
  /// suite (tests/test_sim_equivalence.cpp) pins the engine's bounds to
  /// golden per-cycle-checked counts.
  template <typename Done, typename Bound>
  std::uint64_t run_until_done(Done&& done, Bound&& min_cycles_to_done,
                               std::uint64_t max_cycles) {
    const std::uint64_t start = cycle_;
    for (;;) {
      const std::uint64_t elapsed = cycle_ - start;
      if (elapsed >= max_cycles) break;
      std::uint64_t burst = min_cycles_to_done();
      if (burst < 1) burst = 1;
      const std::uint64_t budget = max_cycles - elapsed;
      if (burst > budget) burst = budget;
      step_burst(burst);
      if (done()) return cycle_ - start;
    }
    throw contract_error("simulation exceeded max_cycles=" +
                         std::to_string(max_cycles) +
                         " without reaching completion");
  }

 private:
  /// Advance `n` cycles. Per cycle: fire due timer wakes, refresh the
  /// active list if membership changed, eval the awake modules, wake the
  /// queued modules. When no module is awake, no wake is pending and no
  /// channel moved in the previous cycle or since, the remaining idle
  /// cycles up to the next timer wake (or burst end) are skipped in one
  /// jump — provably nothing can change during them, so this is pure
  /// wall-clock savings with identical cycle numbers. The channel
  /// condition matters only for FIFOs without a registered producer or
  /// consumer (a notified module is awake on the next cycle anyway), so
  /// only their pushes and pops set it: the cycle of such a push or pop
  /// and the one after are stepped, not skipped, which the idle/
  /// fast-forward split (sched/cycles/{idle,fastforward}) is pinned to.
  void step_burst(std::uint64_t n) {
    for (std::uint64_t k = 0; k < n; ++k) {
      if (next_timer_wake_ <= cycle_ || active_stale_) refresh_schedule();
      if (active_.empty() && wake_queue_ == nullptr &&
          cycle_ >= channels_quiet_from_) {
        std::uint64_t idle = n - k;
        if (next_timer_wake_ != Module::kNoWake)
          idle = std::min(idle, next_timer_wake_ - cycle_);
        if (prof_) prof_ff_cycles_ += idle;
        cycle_ += idle;
        k += idle - 1;
        continue;
      }
      Module* const* mods = active_.data();
      const std::size_t m = active_.size();
      for (std::size_t i = 0; i < m; ++i) mods[i]->eval();
      if (prof_) {
        if (m == 0) {
          ++prof_idle_cycles_;  // wake-only cycle, no module awake
        } else {
          ++prof_eval_cycles_;
          for (std::size_t i = 0; i < m; ++i) ++mods[i]->obs_awake_cycles_;
        }
      }
      end_cycle();
    }
  }

  /// The clock edge: wake the modules channel events queued this cycle.
  void end_cycle() {
    if (wake_queue_ != nullptr) flush_wakes();
    ++cycle_;
  }

  /// The clock edge of a cycle no module evaluated in.
  void end_idle_cycle() {
    if (prof_) ++prof_idle_cycles_;
    end_cycle();
  }

  /// Wake every module a channel event queued this cycle, counting a
  /// channel wake only for modules still asleep.
  void flush_wakes() noexcept {
    while (wake_queue_ != nullptr) {
      Module* m = wake_queue_;
      wake_queue_ = m->next_wake_;
      m->wake_queued_ = false;
      if (m->asleep_) {
        if (prof_) ++wakes_channel_;
        m->wake();
      }
    }
  }

  /// Put `m` on the pending-wake list, at most once per cycle.
  void queue_wake(Module* m) noexcept {
    if (m->wake_queued_) return;
    m->wake_queued_ = true;
    m->next_wake_ = wake_queue_;
    wake_queue_ = m;
  }

  /// Cold path of the per-cycle prologue: fire due timer wakes, then
  /// refresh the active list if membership changed.
  void refresh_schedule() {
    if (next_timer_wake_ <= cycle_) fire_timer_wakes();
    if (active_stale_) rebuild_active();
  }

  void rebuild_active() {
    active_.clear();
    for (Module* m : modules_)
      if (!m->asleep_) active_.push_back(m);
    active_stale_ = false;
  }

  /// Wake every timed sleeper whose deadline arrived; stale entries
  /// (event-woken earlier) are compacted out; the next deadline is the min
  /// of what remains.
  void fire_timer_wakes() {
    std::uint64_t next = Module::kNoWake;
    std::size_t keep = 0;
    for (Module* m : timed_) {
      if (!m->asleep_ || m->wake_at_ == Module::kNoWake) {
        m->timed_queued_ = false;  // already woken by an event
        continue;
      }
      if (m->wake_at_ <= cycle_) {
        m->timed_queued_ = false;
        m->wake_at_ = Module::kNoWake;
        m->asleep_ = false;
        active_stale_ = true;
        if (prof_) ++wakes_timer_;
        // A timer fires at the START of cycle_, so the module evals this
        // very cycle (unlike event wakes, which take effect next cycle).
        if (spans_on_) m->obs_awake_since_ = cycle_;
      } else {
        timed_[keep++] = m;
        next = std::min(next, m->wake_at_);
      }
    }
    timed_.resize(keep);
    next_timer_wake_ = next;
  }

  void note_timed_sleep(Module* m) {
    if (!m->timed_queued_) {
      m->timed_queued_ = true;
      timed_.push_back(m);
    }
    next_timer_wake_ = std::min(next_timer_wake_, m->wake_at_);
  }

  std::string module_obs_name(const Module* m, std::size_t idx) const {
    if (m->obs_path_ != nullptr) return *m->obs_path_;
    return "module" + std::to_string(idx);
  }

  void init_span_state(Module* m, std::size_t idx) {
    m->obs_lane_ = spans_.lane(module_obs_name(m, idx), "awake");
    if (!m->asleep_) m->obs_awake_since_ = cycle_;
  }

  friend class Module;   // sleep/sleep_for/wake flip scheduling state
  template <typename T>
  friend class Fifo;     // pushes and pops call note_channel_move()

  /// A FIFO was pushed or popped, notifying `m` (its consumer or producer,
  /// or null): queue it for the end-of-cycle wake if asleep, else stamp it
  /// so that a sleep later in this cycle queues it (Module::sleep). Either
  /// way `m` is awake on the next cycle, which keeps that cycle from
  /// fast-forwarding, so only a move that notifies nobody sets the
  /// channel hold (see step_burst).
  void note_channel_move(Module* m) noexcept {
    if (m == nullptr) {
      channels_quiet_from_ = cycle_ + 2;
      return;
    }
    if (m->asleep_)
      queue_wake(m);
    else
      m->notified_at_ = cycle_;
  }

  std::uint64_t cycle_ = 0;
  std::vector<Module*> modules_;   // all registered, registration order
  std::vector<Module*> active_;    // awake subset, registration order
  std::vector<Module*> timed_;     // sleepers with a wake-at deadline
  std::uint64_t next_timer_wake_ = Module::kNoWake;
  bool active_stale_ = true;
  bool force_eval_all_ = false;
  Module* wake_queue_ = nullptr;  // pending end-of-cycle wakes (linked list)
  // First cycle the idle fast-forward may skip as far as channels go: two
  // past the latest push or pop that notified no module (see step_burst).
  std::uint64_t channels_quiet_from_ = 0;
  ResourceLedger ledger_;

  // -- observability (enable_profiling / enable_spans) --
  obs::MetricsRegistry metrics_;
  obs::SpanLog spans_;
  bool prof_ = false;
  bool spans_on_ = false;
  std::uint64_t prof_anchor_ = 0;      // cycle profiling was enabled at
  std::uint64_t prof_eval_cycles_ = 0; // >=1 module evaluated
  std::uint64_t prof_idle_cycles_ = 0; // stepped, no module awake
  std::uint64_t prof_ff_cycles_ = 0;   // skipped by the idle fast-forward
  std::uint64_t wakes_channel_ = 0;    // channel wakes (asleep targets)
  std::uint64_t wakes_timer_ = 0;      // sleep_for deadline firings
  std::uint64_t wake_transitions_ = 0; // all wake() asleep->awake flips
};

inline void Module::wake() noexcept {
  if (!asleep_) return;
  asleep_ = false;
  wake_at_ = kNoWake;
  sched_->active_stale_ = true;
  if (sched_->prof_) ++sched_->wake_transitions_;
  // Event wakes take effect for the NEXT eval sweep.
  if (sched_->spans_on_) obs_awake_since_ = sched_->cycle_ + 1;
}

inline void Module::sleep() noexcept {
  if (sched_ == nullptr || !sched_->gating_allowed()) return;
  if (sched_->spans_on_ && !asleep_)
    sched_->spans_.add(obs_lane_, obs_awake_since_, sched_->cycle_ + 1);
  asleep_ = true;
  wake_at_ = kNoWake;
  sched_->active_stale_ = true;
  if (notified_at_ == sched_->cycle_) sched_->queue_wake(this);
}

inline void Module::sleep_for(std::uint64_t n) noexcept {
  if (sched_ == nullptr || !sched_->gating_allowed()) return;
  if (sched_->spans_on_ && !asleep_)
    sched_->spans_.add(obs_lane_, obs_awake_since_, sched_->cycle_ + 1);
  if (n == 0) n = 1;
  asleep_ = true;
  wake_at_ = sched_->now() + n;
  sched_->active_stale_ = true;
  sched_->note_timed_sleep(this);
  if (notified_at_ == sched_->cycle_) sched_->queue_wake(this);
}

inline void Module::set_obs_name(std::string_view name) {
  obs_path_ = obs::intern_path(name);
}

}  // namespace smache::sim
