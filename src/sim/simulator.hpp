// The cycle scheduler. See module.hpp for when a write lands.
//
// A cycle evaluates every registered module once, in registration order,
// then advances the clock. Like a synchronous design, every FSM, register
// and pipeline stage is clocked on every cycle; a module with nothing to do
// returns from its eval at once.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
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

  /// Register a behavioural module; evaluated once per cycle in
  /// registration order (order is irrelevant for correctness, fixed for
  /// determinism).
  void add_module(Module* m) {
    SMACHE_REQUIRE(m != nullptr);
    SMACHE_REQUIRE_MSG(m->sched_ == nullptr || m->sched_ == this,
                       "module already registered with another simulator");
    m->sched_ = this;
    modules_.push_back(m);
  }

  /// Resource accounting shared by every primitive built on this simulator.
  ResourceLedger& ledger() noexcept { return ledger_; }
  const ResourceLedger& ledger() const noexcept { return ledger_; }

  /// Shared metrics registry (disabled by default — instrumented code
  /// registers slots unconditionally but every touch is one branch while
  /// disabled).
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// DRAM-transaction span log for trace export.
  obs::SpanLog& spans() noexcept { return spans_; }
  const obs::SpanLog& spans() const noexcept { return spans_; }

  /// Turn on cycle attribution and the metrics registry. Observing never
  /// changes what a cycle evaluates, so the simulated results stay
  /// bit-identical to an unprofiled run.
  void enable_profiling() noexcept {
    prof_ = true;
    metrics_.set_enabled(true);
    prof_anchor_ = cycle_;
  }
  bool profiling() const noexcept { return prof_; }

  /// Turn on span recording (modules with span sources, e.g. DramModel,
  /// key off the log's enabled flag). Also leaves results unchanged.
  void enable_spans() noexcept { spans_.set_enabled(true); }

  /// End-of-run bookkeeping: fold the scheduler's attribution into the
  /// metrics registry —
  ///   sched/cycles/total          cycles stepped while profiling
  ///   sched/module/<name>/awake   cycles the module evaluated
  /// Every module evaluates on every cycle, so each awake count equals the
  /// total. Call once, after the last step.
  void finalize_observability() {
    if (!prof_) return;
    const std::uint64_t total = cycle_ - prof_anchor_;
    metrics_.set_path("sched/cycles/total", obs::MetricKind::Counter, total);
    for (std::size_t i = 0; i < modules_.size(); ++i)
      metrics_.set_path("sched/module/" + module_obs_name(modules_[i], i) +
                            "/awake",
                        obs::MetricKind::Counter, total);
  }

  /// Advance exactly one cycle.
  void step() { step_burst(1); }

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
  /// Advance `n` cycles, each evaluating every module in registration
  /// order.
  void step_burst(std::uint64_t n) {
    Module* const* mods = modules_.data();
    const std::size_t m = modules_.size();
    for (std::uint64_t k = 0; k < n; ++k) {
      for (std::size_t i = 0; i < m; ++i) mods[i]->eval();
      ++cycle_;
    }
  }

  std::string module_obs_name(const Module* m, std::size_t idx) const {
    if (m->obs_path_ != nullptr) return *m->obs_path_;
    return "module" + std::to_string(idx);
  }

  std::uint64_t cycle_ = 0;
  std::vector<Module*> modules_;  // registration order
  ResourceLedger ledger_;

  // -- observability (enable_profiling / enable_spans) --
  obs::MetricsRegistry metrics_;
  obs::SpanLog spans_;
  bool prof_ = false;
  std::uint64_t prof_anchor_ = 0;  // cycle profiling was enabled at
};

inline void Module::set_obs_name(std::string_view name) {
  obs_path_ = obs::intern_path(name);
}

}  // namespace smache::sim
