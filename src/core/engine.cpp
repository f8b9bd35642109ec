#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "grid/reference.hpp"
#include "grid/tiling.hpp"
#include "mem/dram.hpp"
#include "obs/perfetto.hpp"
#include "rtl/baseline_top.hpp"
#include "rtl/smache_top.hpp"
#include "sim/simulator.hpp"

namespace smache {

namespace {

/// Read a finished work-instance's output region back through the DRAM
/// test-bench backdoor — one bulk span instead of a peek() (with its
/// per-call range check) per cell.
grid::Grid<word_t> read_output_grid(const mem::DramModel& dram,
                                    std::uint64_t base, std::size_t height,
                                    std::size_t width, std::size_t depth,
                                    CellLayout layout) {
  const std::size_t words = height * width * depth * layout.fields;
  const word_t* span = dram.peek_span(base, words);
  return grid::Grid<word_t>::from_words(
      height, width, depth, layout, std::vector<word_t>(span, span + words));
}

void require_matching_initial(const ProblemSpec& problem,
                              const grid::Grid<word_t>& initial) {
  SMACHE_REQUIRE(initial.height() == problem.height &&
                 initial.width() == problem.width &&
                 initial.depth() == problem.depth);
  SMACHE_REQUIRE_MSG(initial.fields() == problem.kernel.fields(),
                     "initial grid's cell layout must match the kernel's");
}

/// The paper's derived Figure-2 metrics: logical tuple elements processed,
/// execution time at the predicted Fmax, and their ratio.
void derive_figure2_metrics(const ProblemSpec& problem, RunResult& result) {
  result.ops = static_cast<std::uint64_t>(problem.cells()) * problem.steps *
               problem.kernel.ops_per_point(problem.shape.size() *
                                            problem.kernel.fields());
  if (result.timing.fmax_mhz > 0.0 && result.cycles > 0) {
    result.exec_time_us =
        static_cast<double>(result.cycles) / result.timing.fmax_mhz;
    result.mops = static_cast<double>(result.ops) / result.exec_time_us;
  }
}

/// Internal signal for an expired wall deadline; converted to
/// engine_timeout (with the partial result attached) by the callers.
struct wall_expired {};

/// Wall-clock watchdog deadline: disarmed when timeout_ms == 0. The check
/// runs once per completion-polling batch (the done/bound callables run
/// O(completions) times, so a runaway design — whose outstanding-work
/// bounds stay small — is checked frequently without taxing the hot loop).
class WallDeadline {
 public:
  explicit WallDeadline(std::uint32_t timeout_ms) {
    if (timeout_ms != 0)
      at_ = std::chrono::steady_clock::now() +
            std::chrono::milliseconds(timeout_ms);
  }
  void check() const {
    if (at_ && std::chrono::steady_clock::now() >= *at_) throw wall_expired{};
  }

 private:
  std::optional<std::chrono::steady_clock::time_point> at_;
};

/// Drive the simulation to completion with batched predicate polling: the
/// burst bound combines the top's outstanding work with the DRAM drain
/// (both retire at most one unit per cycle), which run_until_done turns
/// into the exact per-cycle-checked completion cycle.
template <typename Top>
void run_to_completion(sim::Simulator& sim, const Top& top,
                       const mem::DramModel& dram,
                       std::uint64_t max_cycles,
                       const WallDeadline& deadline) {
  sim.run_until_done(
      [&] { return top.done() && dram.idle(); },
      [&] {
        deadline.check();
        return std::max(top.min_cycles_to_done(), dram.min_cycles_to_idle());
      },
      max_cycles);
}

/// The process-wide table of immutable plans behind every run path. A plan
/// is a pure function of what Engine::plan_only hands the planner, so one
/// BufferPlan serves every run, cascade, elaboration and tile pass of its
/// design; sweep workers and tile threads share it read-only.
class PlanTable {
 public:
  std::shared_ptr<const model::BufferPlan> get(const Engine& engine,
                                               const ProblemSpec& problem) {
    const EngineOptions& o = engine.options();
    const std::uint64_t hash = design_hash(problem, o);
    {
      const std::lock_guard lock(mu_);
      if (auto plan = find(hash, problem, o)) return plan;
    }
    // Planned outside the lock. A rejection throws from here and leaves
    // nothing behind, so a rejected design fails the same way every time.
    auto plan =
        std::make_shared<const model::BufferPlan>(engine.plan_only(problem));
    const std::lock_guard lock(mu_);
    // A racing worker may have published an equal plan meanwhile.
    if (auto published = find(hash, problem, o)) return published;
    if (entries_.size() >= Engine::kPlanTableCapacity) entries_.clear();
    entries_.emplace(hash, Entry{problem.height, problem.width,
                                 problem.depth, problem.shape, problem.bc,
                                 o.stream_impl, o.bram_segment_threshold,
                                 plan});
    return plan;
  }

 private:
  /// The key fields, compared by value on every lookup: equal hashes
  /// never share a plan on their own.
  struct Entry {
    std::size_t height;
    std::size_t width;
    std::size_t depth;
    grid::StencilShape shape;
    grid::BoundarySpec bc;
    model::StreamImpl stream_impl;
    std::size_t bram_segment_threshold;
    std::shared_ptr<const model::BufferPlan> plan;
  };

  static std::uint64_t design_hash(const ProblemSpec& p,
                                   const EngineOptions& o) {
    std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a, a word at a time
    const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
    mix(p.height);
    mix(p.width);
    mix(p.depth);
    mix(std::hash<std::string>{}(p.shape.name()));
    for (const grid::Offset2& off : p.shape.offsets()) {
      mix(static_cast<std::uint64_t>(off.dr));
      mix(static_cast<std::uint64_t>(off.dc));
      mix(static_cast<std::uint64_t>(off.ds));
    }
    for (const grid::AxisBoundary& axis : {p.bc.rows, p.bc.cols, p.bc.slices}) {
      mix(static_cast<std::uint64_t>(axis.kind));
      mix(axis.constant);
    }
    mix(static_cast<std::uint64_t>(o.stream_impl));
    mix(o.bram_segment_threshold);
    return h;
  }

  /// Caller holds mu_.
  std::shared_ptr<const model::BufferPlan> find(std::uint64_t hash,
                                                const ProblemSpec& p,
                                                const EngineOptions& o) const {
    const auto [first, last] = entries_.equal_range(hash);
    for (auto it = first; it != last; ++it) {
      const Entry& e = it->second;
      if (e.height == p.height && e.width == p.width && e.depth == p.depth &&
          e.shape.name() == p.shape.name() &&
          e.shape.offsets() == p.shape.offsets() && e.bc == p.bc &&
          e.stream_impl == o.stream_impl &&
          e.bram_segment_threshold == o.bram_segment_threshold)
        return e.plan;
    }
    return nullptr;
  }

  std::mutex mu_;
  std::unordered_multimap<std::uint64_t, Entry> entries_;
};

}  // namespace

const char* to_string(Architecture arch) noexcept {
  return arch == Architecture::Smache ? "smache" : "baseline";
}

std::string RunResult::summary() const {
  std::ostringstream out;
  out << to_string(arch) << ": cycles=" << cycles
      << " fmax=" << timing.fmax_mhz
      << "MHz dram_read=" << dram.bytes_read()
      << "B dram_write=" << dram.bytes_written()
      << "B time=" << exec_time_us << "us mops=" << mops;
  return out.str();
}

model::BufferPlan Engine::plan_only(const ProblemSpec& problem) const {
  problem.validate();
  model::PlannerOptions popts;
  popts.stream_impl = options_.stream_impl;
  popts.bram_segment_threshold = options_.bram_segment_threshold;
  return model::Planner(popts).plan(problem.height, problem.width,
                                    problem.depth, problem.shape,
                                    problem.bc);
}

RunResult Engine::run(const ProblemSpec& problem,
                      const grid::Grid<word_t>& initial) const {
  return execute(problem, &initial, 1);
}

RunResult Engine::elaborate_only(const ProblemSpec& problem) const {
  return execute(problem, nullptr, 1);
}

RunResult Engine::run_cascade(const ProblemSpec& problem,
                              const grid::Grid<word_t>& initial,
                              std::size_t depth) const {
  SMACHE_REQUIRE_MSG(depth >= 1 && problem.steps % depth == 0,
                     "steps must be a multiple of the cascade depth");
  return execute(problem, &initial, depth);
}

RunResult Engine::execute(const ProblemSpec& problem,
                          const grid::Grid<word_t>* initial,
                          std::size_t depth) const {
  problem.validate();
  if (initial != nullptr) require_matching_initial(problem, *initial);
  const bool fused = depth > 1;
  const CellLayout layout{problem.kernel.fields()};
  // Validated against size_t wrap before anything sizes a buffer by it.
  const std::size_t grid_words = grid::Grid<word_t>::checked_words(
      problem.height, problem.width, problem.depth, layout.fields);

  sim::Simulator sim;
  // Observability is switched on before any module registers so span lanes
  // and metric slots appear in construction order — deterministic output.
  if (options_.profile) sim.enable_profiling();
  if (options_.trace) sim.enable_spans();
  mem::DramConfig dcfg = options_.dram;
  if (options_.auto_bus)
    dcfg.shared_bus = !fused && options_.arch == Architecture::Baseline;
  mem::DramModel dram(sim, "dram", 2 * grid_words, dcfg);

  if (initial != nullptr) {
    const auto words = initial->to_words();
    for (std::size_t i = 0; i < words.size(); ++i)
      dram.poke(i, words[i]);
  }

  RunResult result;
  result.arch = fused ? Architecture::Smache : options_.arch;

  // Run the elaborated top (when there is input to run on), measure its
  // ledger subtree and finalise observability — inside the top's lifetime,
  // because finalisation reads every registered module. The wall-clock
  // watchdog starts once the top is elaborated; on expiry, surface the
  // progress made (cycles and DRAM counters at abort) through the
  // exception's partial result.
  const auto simulate = [&](const auto& top, const char* root) {
    if (initial != nullptr) {
      const WallDeadline deadline(options_.wall_timeout_ms);
      try {
        run_to_completion(sim, top, dram, options_.max_cycles, deadline);
      } catch (const wall_expired&) {
        result.cycles = sim.now();
        result.dram = dram.stats();
        result.timed_out = true;
        throw engine_timeout(options_.wall_timeout_ms, std::move(result));
      }
      result.cycles = sim.now();
      if constexpr (requires { top.warmup_end_cycle(); })  // not baseline
        result.warmup_cycles = top.warmup_end_cycle();
      result.output = read_output_grid(dram, top.output_base(),
                                       problem.height, problem.width,
                                       problem.depth, layout);
    }
    result.resources = cost::measure_actual(sim.ledger(), root);
    if (options_.profile || options_.trace) {
      sim.finalize_observability();
      if (options_.profile) result.metrics = sim.metrics().snapshot();
      if (options_.trace) result.trace_json = obs::to_trace_json(sim.spans());
    }
  };

  if (!fused && options_.arch == Architecture::Baseline) {
    rtl::BaselineTop top(sim, "baseline", problem.height, problem.width,
                         problem.shape, problem.bc, problem.kernel, dram,
                         problem.steps, problem.depth);
    result.timing = cost::estimate_baseline_timing(
        problem.shape.size(),
        grid::CaseMap(problem.height, problem.width, problem.depth,
                      problem.shape)
            .case_count());
    simulate(top, "baseline");
  } else {
    static PlanTable plans;
    // Held across simulate(): the top keeps the plan by reference.
    std::shared_ptr<const model::BufferPlan> plan = plans.get(*this, problem);
    result.estimate = cost::estimate_memory(
        *plan, static_cast<std::uint32_t>(kWordBits * layout.fields));
    result.timing = cost::estimate_smache_timing(*plan);
    // One stream buffer per fused step.
    result.estimate->r_stream *= depth;
    result.estimate->b_stream *= depth;
    const char* root = fused ? "cascade" : "smache";
    rtl::SmacheTop top(sim, root, *plan, problem.kernel, dram, problem.steps,
                       depth);
    simulate(top, root);
    result.plan = std::move(plan);
  }
  result.dram = dram.stats();
  derive_figure2_metrics(problem, result);
  return result;
}

RunResult Engine::run_tiled(const ProblemSpec& problem,
                            const grid::Grid<word_t>& initial,
                            const TilingSpec& tiling) const {
  problem.validate();
  require_matching_initial(problem, initial);
  SMACHE_REQUIRE_MSG(tiling.depth >= 1 && problem.steps % tiling.depth == 0,
                     "steps must be a multiple of the tiling depth");
  if (tiling.tiles_r == 1 && tiling.tiles_c == 1 && tiling.tiles_s == 1)
    return execute(problem, &initial, tiling.depth);
  SMACHE_REQUIRE_MSG(!options_.trace,
                     "span/trace export is per-simulator; tiled runs do not "
                     "support it (metrics profiling folds fine)");

  const grid::TilingLayout layout = grid::plan_tiling(
      problem.height, problem.width, problem.depth, tiling.tiles_r,
      tiling.tiles_c, tiling.tiles_s, problem.shape, problem.bc,
      tiling.depth);
  const std::size_t passes = problem.steps / tiling.depth;
  const std::size_t n = layout.tiles.size();

  grid::Grid<word_t> state = initial;
  RunResult agg;
  agg.arch = options_.arch;
  std::vector<RunResult> tile_runs(n);

  for (std::size_t pass = 0; pass < passes; ++pass) {
    grid::Grid<word_t> next(problem.height, problem.width, problem.depth,
                            initial.layout(), 0);
    // Workers only touch index-owned slots plus disjoint interiors of
    // `next`; `state` is read-only until the pass drains.
    parallel_for_index(n, tiling.threads, [&](std::size_t i) {
      const grid::TileGeometry& t = layout.tiles[i];
      ProblemSpec sub = problem;
      sub.height = t.sub_height();
      sub.width = t.sub_width();
      sub.depth = t.sub_depth();
      sub.bc = t.sub_bc;
      sub.steps = tiling.depth;
      const grid::Grid<word_t> fed = grid::gather_tile(state, t, problem.bc);
      tile_runs[i] = execute(sub, &fed, tiling.depth);
      grid::stitch_interior(next, t, tile_runs[i].output.value());
      tile_runs[i].output.reset();  // the stitch consumed it
    });
    state = std::move(next);

    // Deterministic aggregation in tile order: a pass is as slow as its
    // slowest tile, DRAM traffic sums over every tile-run (halo redundancy
    // is charged honestly), and the replicated datapaths are accounted once
    // from the first pass — resources sum, timing is the slowest tile's.
    std::uint64_t pass_cycles = 0;
    for (const RunResult& r : tile_runs) {
      pass_cycles = std::max(pass_cycles, r.cycles);
      // Counter samples sum across tiles and passes (stall totals over the
      // whole scenario); watermarks keep the max (see merge_samples).
      if (options_.profile) obs::merge_samples(agg.metrics, r.metrics);
      agg.dram += r.dram;
    }
    agg.cycles += pass_cycles;
    if (pass == 0) {
      for (const RunResult& r : tile_runs) {
        agg.warmup_cycles = std::max(agg.warmup_cycles, r.warmup_cycles);
        agg.resources += r.resources;
        if (r.estimate) {
          if (!agg.estimate) agg.estimate.emplace();
          *agg.estimate += *r.estimate;
        }
        if (agg.timing.fmax_mhz == 0.0 ||
            r.timing.fmax_mhz < agg.timing.fmax_mhz)
          agg.timing = r.timing;
      }
      agg.plan = tile_runs[0].plan;
    }
  }

  agg.output = std::move(state);
  // Logical work only — the redundant halo compute is a cost, not output.
  derive_figure2_metrics(problem, agg);
  return agg;
}

grid::Grid<word_t> reference_run(const ProblemSpec& problem,
                                 const grid::Grid<word_t>& initial) {
  problem.validate();
  require_matching_initial(problem, initial);
  const std::size_t fields = problem.kernel.fields();
  const auto kernel = [&](const std::vector<grid::TupleElem>& tuple,
                          word_t* out) {
    rtl::apply_kernel_cells(problem.kernel, tuple, fields, out);
  };
  return grid::run_steps_cells(initial, problem.shape, problem.bc, kernel,
                               problem.steps);
}

}  // namespace smache
