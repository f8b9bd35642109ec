// The Engine — the library's front door. It elaborates a design (Smache or
// the unbuffered baseline) onto the simulation substrate, runs the
// requested work-instances cycle by cycle against the DRAM model, and
// returns cycles, DRAM traffic, elaborated resources, predicted Fmax and
// the derived Figure-2 metrics, together with the output grid for
// verification.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "cost/cost_model.hpp"
#include "cost/timing.hpp"
#include "grid/grid.hpp"
#include "mem/dram_config.hpp"
#include "model/planner.hpp"
#include "obs/metrics.hpp"

namespace smache {

enum class Architecture { Smache, Baseline };

const char* to_string(Architecture arch) noexcept;

struct EngineOptions {
  Architecture arch = Architecture::Smache;
  model::StreamImpl stream_impl = model::StreamImpl::Hybrid;
  mem::DramConfig dram = mem::DramConfig::functional();
  /// When true (default), the bus topology follows the architecture: the
  /// baseline drives a single shared memory port, Smache uses independent
  /// AXI-style read/write channels. Set false to use `dram.shared_bus`
  /// exactly as given (for the bus-topology ablation).
  bool auto_bus = true;
  /// Hybrid split threshold forwarded to the planner.
  std::size_t bram_segment_threshold = 4;
  /// Simulation watchdog (cycles); generous default. Exceeding it throws
  /// contract_error — fully deterministic (the trip point is a cycle
  /// count), so a sweep that captures it is bit-reproducible.
  std::uint64_t max_cycles = 200'000'000;
  /// Opt-in wall-clock watchdog (0 = off): abandon a run whose REAL time
  /// exceeds this many milliseconds, throwing engine_timeout with the
  /// partial result. The clock starts at the first simulated cycle, after
  /// elaboration. Unlike max_cycles the trip point is inherently
  /// nondeterministic — batch drivers must treat a tripped run as
  /// non-reusable (the sweep store never caches one). Each engine
  /// invocation gets its own deadline, so a tiled scenario bounds every
  /// tile-pass rather than the whole scenario.
  std::uint32_t wall_timeout_ms = 0;
  /// Collect the cycle attribution (sched/*), the stall counters (each
  /// counts the cycles its blocker held) and the channel high-water marks
  /// into RunResult::metrics. Observing changes no cycle, so the simulated
  /// results stay bit-identical to an unprofiled run.
  bool profile = false;
  /// Record DRAM read-transaction spans and export them as Chrome
  /// trace-event JSON in RunResult::trace_json (load in chrome://tracing /
  /// Perfetto). Also leaves results bit-identical. Per-simulator, so tiled
  /// runs reject it.
  bool trace = false;

  static EngineOptions smache(model::StreamImpl impl =
                                  model::StreamImpl::Hybrid) {
    EngineOptions o;
    o.arch = Architecture::Smache;
    o.stream_impl = impl;
    return o;
  }
  static EngineOptions baseline() {
    EngineOptions o;
    o.arch = Architecture::Baseline;
    return o;
  }
};

/// Intra-scenario spatial decomposition: split the grid into tiles_r x
/// tiles_c halo-padded tiles and simulate each tile as an independent
/// engine instance, exchanging halos between passes. Output is
/// bit-identical to the untiled run for every supported pairing (see
/// grid/tiling.hpp for which pairings tile and why).
struct TilingSpec {
  std::size_t tiles_r = 1;
  std::size_t tiles_c = 1;
  /// Worker threads for the per-pass tile loop (0 = hardware_threads(),
  /// 1 = serial). Results are bit-identical for any value.
  std::size_t threads = 1;
  /// Time steps fused on chip between halo exchanges (each tile sub-run is
  /// a depth-deep cascade). problem.steps must be a multiple of depth.
  std::size_t depth = 1;
  /// Tile count on the slice (depth) axis of a 3D problem; must stay 1
  /// for 2D grids. Declared last so every pre-3D positional initialiser
  /// keeps its meaning.
  std::size_t tiles_s = 1;
};

struct RunResult {
  Architecture arch = Architecture::Smache;
  std::uint64_t cycles = 0;
  /// Depth 1 (run(), and run_cascade()/run_tiled() at depth 1): the Smache
  /// static-prefetch phase (0 for the baseline and for plans with nothing
  /// to prefetch). Fused depths: the pipeline fill of the chained stages
  /// (first-writeback cycle). Tiled meshes: the slowest pass-0 tile's
  /// warmup. Different quantities — do not compare across depths.
  std::uint64_t warmup_cycles = 0;
  mem::DramStats dram;
  /// Final grid state; empty for elaborate_only() and when a batch driver
  /// has deliberately dropped it (SweepExecutor with keep_outputs=false).
  std::optional<grid::Grid<word_t>> output;

  /// Elaborated ("actual") resources from the ledger.
  cost::MemoryActual resources;
  /// Analytic estimate (Smache only; meaningless for the baseline).
  std::optional<cost::MemoryEstimate> estimate;
  /// The buffer plan the design elaborated; null for the baseline. It is
  /// immutable and shared by every run of the same design in this process
  /// (see Engine::kPlanTableCapacity). A tiled run reports tile 0's
  /// sub-plan.
  std::shared_ptr<const model::BufferPlan> plan;

  // Timing-model outputs and the paper's derived Figure-2 metrics.
  cost::DesignTiming timing;
  std::uint64_t ops = 0;          // tuple elements processed
  double exec_time_us = 0.0;      // cycles / fmax
  double mops = 0.0;              // ops / exec_time

  /// True when the run was abandoned by the wall-clock watchdog: `cycles`
  /// and `dram` hold the progress at abort (diagnostics only — they are as
  /// nondeterministic as the trip itself), `output` is empty.
  bool timed_out = false;

  /// Deterministic metric snapshot (EngineOptions::profile): cycle
  /// attribution per module, stall counters, FIFO high-water marks —
  /// sorted by path, zero-valued entries included. Tiled runs fold
  /// per-tile snapshots (counters sum, watermarks max). Empty when
  /// profiling is off.
  std::vector<obs::MetricSample> metrics;
  /// Chrome trace-event JSON (EngineOptions::trace); empty when off.
  std::string trace_json;

  std::string summary() const;
};

/// Thrown when EngineOptions::wall_timeout_ms expires mid-run. Carries the
/// partial RunResult (timed_out=true, counters at abort, no output) so
/// drivers can report how far the runaway got. Deliberately NOT a
/// contract_error: a wall timeout is an environmental event, not a
/// precondition violation, and batch drivers classify it differently
/// (never cached, never retried as transient).
class engine_timeout : public std::runtime_error {
 public:
  engine_timeout(std::uint32_t timeout_ms, RunResult partial_result)
      : std::runtime_error("wall-clock watchdog: run exceeded " +
                           std::to_string(timeout_ms) + " ms"),
        partial(std::move(partial_result)) {}
  RunResult partial;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {}) : options_(options) {}

  /// Distinct designs held by the process-wide plan table that every run
  /// shares. A design is everything plan_only() hands the planner: the
  /// grid's extents, the stencil's name and offsets, all three boundary
  /// axes, stream_impl and bram_segment_threshold. Each one is planned
  /// once, on the first run that needs it; a full table starts over.
  static constexpr std::size_t kPlanTableCapacity = 256;

  const EngineOptions& options() const noexcept { return options_; }

  /// Run `problem` starting from `initial` (row-major words). The returned
  /// output grid is read back from the final DRAM region.
  RunResult run(const ProblemSpec& problem,
                const grid::Grid<word_t>& initial) const;

  /// Plan without simulating (resource studies over huge grids). Always
  /// runs the planner: only the run paths share the plan table.
  model::BufferPlan plan_only(const ProblemSpec& problem) const;

  /// Temporal-blocking extension (the "multiple time steps in one pass"
  /// direction the paper cites as complementary work): fuse `depth` time
  /// steps on chip per DRAM pass — SmacheTop with `depth` chained stages —
  /// cutting traffic by ~depth. Requires problem.steps to be a multiple of
  /// depth and, for depth > 1, boundaries that resolve in-stream
  /// (open/mirror/constant — periodic wraps need the double-buffered
  /// static buffers of the per-instance design). Depth 1 is run().
  RunResult run_cascade(const ProblemSpec& problem,
                        const grid::Grid<word_t>& initial,
                        std::size_t depth) const;

  /// Spatially-tiled execution: each pass gathers every tile's halo-padded
  /// subgrid from the current state, simulates the tiles concurrently
  /// (tiling.threads workers) as independent engine instances advancing
  /// tiling.depth steps, and stitches the interiors into the next state.
  /// The output grid is bit-identical to run()/run_cascade() for any tile
  /// and thread count; unsupported boundary/stencil/depth pairings throw a
  /// descriptive contract_error (never silently diverge). Cycles are
  /// max-per-pass over tiles (tiles run concurrently); every DRAM counter,
  /// fault counters included, sums over every tile-run, charging halo
  /// redundancy honestly; resources/timing sum/min over the replicated
  /// pass-0 datapaths. A 1x1 mesh runs the untiled engine (run_cascade()
  /// at tiling.depth, which is run() at depth 1), so this is the general
  /// entry point.
  RunResult run_tiled(const ProblemSpec& problem,
                      const grid::Grid<word_t>& initial,
                      const TilingSpec& tiling) const;

  /// Elaborate the design and report resources without running a single
  /// cycle (Table I's 1024x1024 rows).
  RunResult elaborate_only(const ProblemSpec& problem) const;

 private:
  /// The one simulate path behind every entry point. `depth` 1 elaborates
  /// the per-instance top of options_.arch; > 1 elaborates a SmacheTop
  /// (ledger root "cascade") fusing that many steps per DRAM pass. A null
  /// `initial` elaborates without running a cycle.
  RunResult execute(const ProblemSpec& problem,
                    const grid::Grid<word_t>* initial,
                    std::size_t depth) const;
  EngineOptions options_;
};

/// Golden software run of the same problem (the oracle for tests).
grid::Grid<word_t> reference_run(const ProblemSpec& problem,
                                 const grid::Grid<word_t>& initial);

}  // namespace smache
