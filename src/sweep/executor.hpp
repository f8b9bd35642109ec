// SweepExecutor — runs the scenarios of a SweepSpec on a worker pool, one
// independent Engine instance per scenario (the Engine shares no mutable
// state between instances, so scenarios parallelise perfectly). Scenarios
// with equal reference inputs (sweep/groups.hpp) run one after another and
// share one input grid and one golden, built once per group. Results
// land in index-addressed slots: collation order is the spec's cartesian
// order regardless of which worker finished first, and a run with N
// threads is bit-identical to the serial run — digest() makes that claim
// checkable.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sweep/spec.hpp"

namespace smache::sweep {

class ResultStore;
struct FaultPlan;

/// Progress snapshot handed to ExecutorOptions::progress — once after the
/// store-hit prefill, then after every scenario finishes. Wall-clock
/// derived fields are diagnostics only and never enter reports.
struct SweepProgress {
  std::size_t done = 0;        // store_hits + executed + skipped
  std::size_t total = 0;
  std::size_t store_hits = 0;  // served from the result store, not executed
  std::size_t executed = 0;
  std::size_t failed = 0;      // executed with ok=false
  std::size_t skipped = 0;     // stop flag observed before execution
  double elapsed_ms = 0.0;     // since execution began (prefill excluded)
  /// Linear extrapolation over executed scenarios; 0 until the first one
  /// completes.
  double eta_ms = 0.0;
};

struct ExecutorOptions {
  /// Worker count; 0 = hardware_threads(), 1 = serial on the caller.
  std::size_t threads = 1;
  /// Worker count for the per-pass tile loop INSIDE a tiled scenario
  /// (TilingSpec::threads; 0 = hardware_threads()). Orthogonal to
  /// `threads`: parallel_for_index spawns fresh workers per call, so
  /// nesting scenario x tile parallelism is safe; results are
  /// bit-identical for any combination.
  std::size_t tile_threads = 1;
  /// Also check every simulated scenario against the golden software
  /// reference (one reference_run per reference group) and record whether
  /// the hardware output matched bit-for-bit.
  bool verify_reference = false;
  /// Keep each scenario's full output grid and buffer plan in its
  /// RunResult. Off by default: a sweep holds EVERY result until
  /// collation, so retaining grids costs O(scenarios x cells) memory
  /// while reporting only needs output_hash and the scalar stats.
  /// Mutually exclusive with `store` (a store hit cannot reconstruct an
  /// output grid, so the combination would silently under-deliver).
  bool keep_outputs = false;
  /// Persistent result store (crash-safe resume + memoization). When set,
  /// scenarios whose key is already present are reconstructed from the
  /// store without executing (from_store=true, byte-identical in every
  /// deterministic report field); every freshly-executed scenario —
  /// including deterministic failures, which are results too — is
  /// journaled as soon as it finishes, so a killed sweep resumes from its
  /// last completed scenario. Wall-timeout abandons are NEVER stored
  /// (their counters are nondeterministic).
  ResultStore* store = nullptr;
  /// Bounded retry for transient store IO failures (store_io_error):
  /// total attempts per record, with exponential backoff starting at
  /// `store_retry_backoff_ms`. Exhausting the retries never fails the
  /// scenario — the result stays in memory and the sweep continues; the
  /// only cost is a re-execution on resume.
  std::size_t store_retry_attempts = 4;
  std::uint32_t store_retry_backoff_ms = 1;
  /// Cooperative cancellation (the CLI's SIGINT handler flips it): a
  /// scenario observed after the flag turns true is marked skipped
  /// (ok=false, skipped=true) instead of executed, so the sweep drains
  /// quickly and completed results can still be flushed/persisted.
  const std::atomic<bool>* stop = nullptr;
  /// Per-scenario wall-clock watchdog, forwarded to
  /// EngineOptions::wall_timeout_ms (0 = off). A tripped scenario is
  /// captured as ok=false with timed_out=true and its partial counters —
  /// inherently nondeterministic, so such results are never stored and
  /// make the sweep digest non-reproducible (use for triage, not for
  /// golden reports).
  std::uint32_t wall_timeout_ms = 0;
  /// Deterministic fault injection: DRAM faults from the plan are applied
  /// to every matching scenario's DramConfig before execution (see
  /// sweep/faults.hpp). Injected runs stay bit-reproducible. Mutually
  /// exclusive with `store`: the scenario key does not encode injected
  /// faults, so mixing them would cross-contaminate faulted and clean
  /// results under one address.
  const FaultPlan* fault_plan = nullptr;
  /// Forward EngineOptions::profile to every executed scenario: each
  /// result carries its metric snapshot (cycle attribution, stall
  /// counters, FIFO high-water marks) in run.metrics. Profiling never
  /// alters the simulated results (digests stay identical on/off); the
  /// snapshots are opt-in report columns, never digested — a store-served
  /// scenario carries none.
  bool metrics = false;
  /// Forward EngineOptions::trace to every executed UNTILED scenario: the
  /// Chrome trace-event JSON lands in run.trace_json (tiled scenarios run
  /// many simulators, so they get no trace rather than a partial one).
  bool trace = false;
  /// Progress reporting; invoked serialised under an internal mutex from
  /// whichever worker finished — keep the callback cheap.
  std::function<void(const SweepProgress&)> progress = nullptr;
};

/// One scenario's outcome. A scenario that throws (contract violation,
/// watchdog exhaustion) is captured as ok=false with the error text — the
/// sweep always completes and stays deterministic.
struct ScenarioResult {
  Scenario scenario;
  bool ok = false;
  std::string error;
  /// Valid when ok. The output grid and buffer plan are cleared after
  /// hashing unless ExecutorOptions::keep_outputs is set — a dropped
  /// output is unambiguous (run.output is empty, never a placeholder).
  RunResult run;
  std::uint64_t output_hash = 0;    // FNV-1a of the output grid (sim only)
  bool reference_checked = false;   // verify_reference was on and ok
  bool reference_match = false;     // hardware output == golden reference
  bool from_store = false;          // reconstructed from the result store
                                    // (not executed); excluded from digest
                                    // so warm == cold byte-for-byte
  bool skipped = false;             // stop flag observed before execution
  /// Wall-clock time of this scenario's run, NEVER part of digests or
  /// deterministic reports. Scenarios with equal reference inputs share
  /// one input grid and one golden (sweep/groups.hpp), so the scenario
  /// that builds them — the group's first, or the first to need the
  /// golden — carries their cost, and a scenario that waits for another
  /// worker's build counts the wait.
  double wall_ms = 0.0;
};

class SweepExecutor {
 public:
  explicit SweepExecutor(ExecutorOptions options = {})
      : options_(options) {}

  const ExecutorOptions& options() const noexcept { return options_; }

  /// Validate + expand `spec`, run every distinct scenario, return results
  /// in cartesian order.
  std::vector<ScenarioResult> run(const SweepSpec& spec) const;

  /// Run an explicit scenario list (already expanded/deduped by the
  /// caller); results are collated in the list's order.
  std::vector<ScenarioResult> run(std::vector<Scenario> scenarios) const;

  /// Order-sensitive digest over every deterministic field of the result
  /// vector (labels, seeds, cycle counts, DRAM counters, output hashes,
  /// resources, timing-model outputs, errors — everything except wall_ms).
  /// Equal digests across thread counts is the executor's core contract.
  static std::uint64_t digest(const std::vector<ScenarioResult>& results);

 private:
  ExecutorOptions options_;
};

/// FNV-1a over a grid's shape AND words: transposed grids with the same
/// word sequence hash differently (this hash is the planned memoization
/// key for the sweep-as-a-service cache, so shape must participate).
std::uint64_t hash_grid(const grid::Grid<word_t>& g) noexcept;

}  // namespace smache::sweep
