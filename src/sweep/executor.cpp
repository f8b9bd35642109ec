#include "sweep/executor.hpp"

#include <chrono>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "sweep/faults.hpp"
#include "sweep/groups.hpp"
#include "sweep/store.hpp"
#include "sweep/workloads.hpp"

namespace smache::sweep {

namespace {

/// Fold one value's bytes into an FNV-1a accumulator.
template <typename T>
void mix(std::uint64_t& h, const T& value) noexcept {
  static_assert(std::is_trivially_copyable_v<T>);
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  for (const unsigned char b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
}

void mix_str(std::uint64_t& h, std::string_view s) noexcept {
  mix(h, s.size());
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
}

/// One reference group's input and golden (sweep/groups.hpp), each built
/// by the first of the group's scenarios that needs it and read by all of
/// them. A build runs under its slot's lock, so a worker that needs the
/// grid meanwhile waits for it; a build that throws leaves the slot empty,
/// and the next scenario that needs the grid tries again.
class GroupGrids {
 public:
  const grid::Grid<word_t>& input(const Scenario& s) {
    return input_.get([&] {
      return make_input(s.input, s.problem.height, s.problem.width,
                        s.problem.depth, s.seed);
    });
  }

  const grid::Grid<word_t>& golden(const Scenario& s,
                                   const grid::Grid<word_t>& input) {
    return golden_.get([&] { return reference_run(s.problem, input); });
  }

 private:
  struct Slot {
    template <typename Make>
    const grid::Grid<word_t>& get(Make&& make) {
      const std::lock_guard<std::mutex> lock(mu);
      if (!grid) grid.emplace(make());
      return *grid;
    }
    std::mutex mu;
    std::optional<grid::Grid<word_t>> grid;
  };

  Slot input_;
  Slot golden_;
};

/// Run out.scenario and fill the rest of `out`.
void run_one(const ExecutorOptions& options, GroupGrids& grids,
             ScenarioResult& out) {
  const Scenario& scenario = out.scenario;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    const Engine engine(scenario.engine);
    if (scenario.mode == Mode::ElaborateOnly) {
      out.run = engine.elaborate_only(scenario.problem);
    } else {
      const grid::Grid<word_t>& init = grids.input(scenario);
      // run_tiled is the general entry point: a 1x1 mesh runs the untiled
      // engine, depth > 1 fuses that many time steps per DRAM pass. The
      // reference run below is depth- and tiling-independent (same
      // problem.steps), so verification holds across fused passes and
      // tile meshes — and one golden serves the whole group.
      TilingSpec tiling;
      tiling.tiles_r = scenario.tiles.height;
      tiling.tiles_c = scenario.tiles.width;
      tiling.tiles_s = scenario.tiles.depth;
      tiling.threads = options.tile_threads;
      tiling.depth = scenario.depth;
      out.run = engine.run_tiled(scenario.problem, init, tiling);
      out.output_hash = hash_grid(*out.run.output);
      if (options.verify_reference) {
        const grid::Grid<word_t>& golden = grids.golden(scenario, init);
        out.reference_checked = true;
        out.reference_match = golden == *out.run.output;
      }
    }
    if (!options.keep_outputs) {
      out.run.output.reset();
      out.run.plan.reset();
    }
    out.ok = true;
  } catch (const engine_timeout& e) {
    // Wall-clock watchdog trip: keep the partial counters (timed_out=true,
    // cycles/DRAM at abort) for triage — the caller must treat them as
    // nondeterministic and never persist this result.
    out.ok = false;
    out.error = e.what();
    out.run = e.partial;
    if (!options.keep_outputs) {
      out.run.output.reset();
      out.run.plan.reset();
    }
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  }
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
}

/// The one StoredResult <-> ScenarioResult field mapping: every
/// deterministic result field that participates in digest() and report
/// emission, shared by to_stored and from_stored.
template <typename Stored, typename Result, typename Assign>
void for_each_field_pair(Stored& s, Result& r, Assign&& assign) {
  assign(s.ok, r.ok);
  assign(s.error, r.error);
  assign(s.cycles, r.run.cycles);
  assign(s.warmup_cycles, r.run.warmup_cycles);
  assign(s.dram, r.run.dram);
  assign(s.output_hash, r.output_hash);
  assign(s.reference_checked, r.reference_checked);
  assign(s.reference_match, r.reference_match);
  assign(s.r_total, r.run.resources.r_total);
  assign(s.b_total, r.run.resources.b_total);
  assign(s.r_static, r.run.resources.r_static);
  assign(s.b_static, r.run.resources.b_static);
  assign(s.r_stream, r.run.resources.r_stream);
  assign(s.b_stream, r.run.resources.b_stream);
  assign(s.m20k_blocks, r.run.resources.m20k_blocks);
  assign(s.fmax_mhz, r.run.timing.fmax_mhz);
  assign(s.ops, r.run.ops);
  assign(s.exec_time_us, r.run.exec_time_us);
  assign(s.mops, r.run.mops);
}

StoredResult to_stored(const ScenarioResult& r, std::uint64_t key) {
  StoredResult s;
  s.key = key;
  s.label = r.scenario.label;
  for_each_field_pair(s, r, [](auto& stored, const auto& result) {
    stored = result;
  });
  return s;
}

/// Store record -> ScenarioResult, byte-identical to the executed original
/// in every deterministic report field (wall_ms is 0 — it is never part of
/// reports — and from_store marks the provenance).
void from_stored(const Scenario& scenario, const StoredResult& s,
                 ScenarioResult& out) {
  out.scenario = scenario;
  out.run.arch = scenario.engine.arch;
  for_each_field_pair(s, out, [](const auto& stored, auto& result) {
    result = stored;
  });
  out.from_store = true;
  out.wall_ms = 0.0;
}

/// Persist one record with bounded exponential backoff. Exhaustion is
/// logged and swallowed: the in-memory result is intact, so failing to
/// persist must not fail the sweep.
void put_with_retry(ResultStore& store, const StoredResult& record,
                    std::size_t attempts, std::uint32_t backoff_ms) {
  if (attempts == 0) attempts = 1;
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      store.put(record);
      return;
    } catch (const store_io_error& e) {
      if (attempt + 1 >= attempts) {
        Log::warn(std::string("result store: giving up on '") + record.label +
                  "' after " + std::to_string(attempts) +
                  " attempts: " + e.what() +
                  " (result kept in memory; it will re-execute on resume)");
        return;
      }
      store.note_retry();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<std::uint64_t>(backoff_ms)
                                    << attempt));
    }
  }
}

}  // namespace

std::uint64_t hash_grid(const grid::Grid<word_t>& g) noexcept {
  std::uint64_t h = 1469598103934665603ull;
  const auto fold = [&h](std::uint64_t v) noexcept {
    h ^= v;
    h *= 1099511628211ull;
  };
  // Shape first: a 2x8 and an 8x2 grid with the same word sequence must
  // not collide (the word fold alone cannot tell them apart). The cell
  // layout and the slice axis fold the same way — an F=2 grid and an F=1
  // grid of doubled width carry identical word sequences, as do 8x8x2 and
  // 8x16x1 — but only for F > 1 / D > 1, so every single-field 2D hash
  // (committed reports, store records) is unchanged.
  fold(g.height());
  fold(g.width());
  if (g.depth() > 1) fold(g.depth());
  if (g.fields() > 1) fold(g.fields());
  for (std::size_t i = 0; i < g.size(); ++i)
    fold(static_cast<std::uint64_t>(g[i]));
  return h;
}

std::vector<ScenarioResult> SweepExecutor::run(const SweepSpec& spec) const {
  spec.validate();
  return run(spec.expand());
}

std::vector<ScenarioResult> SweepExecutor::run(
    std::vector<Scenario> scenarios) const {
  SMACHE_REQUIRE_MSG(
      options_.store == nullptr || !options_.keep_outputs,
      "ExecutorOptions::store and keep_outputs are mutually exclusive: a "
      "store hit cannot reconstruct an output grid");
  SMACHE_REQUIRE_MSG(
      options_.store == nullptr || options_.fault_plan == nullptr ||
          options_.fault_plan->empty(),
      "ExecutorOptions::store and fault_plan are mutually exclusive: the "
      "scenario key does not encode injected DRAM faults, so a faulted "
      "result must never be journaled under (or served from) the unfaulted "
      "scenario's address");
  std::vector<ScenarioResult> results(scenarios.size());

  // Store-hit prefill (serial: lookups are in-memory map reads; a serial
  // pass keeps the hit/miss partition and all recovery logging ordered).
  std::vector<std::size_t> pending;
  if (options_.store != nullptr) {
    pending.reserve(scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const std::uint64_t key = ResultStore::scenario_key(
          scenarios[i], options_.verify_reference);
      StoredResult hit;
      if (options_.store->find(key, &hit))
        from_stored(scenarios[i], hit, results[i]);
      else
        pending.push_back(i);
    }
  } else {
    pending.resize(scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) pending[i] = i;
  }

  // Progress telemetry: the callback fires serialised under prog_mu; the
  // wall-derived fields (elapsed/eta) never feed back into results.
  SweepProgress prog;
  prog.total = scenarios.size();
  prog.store_hits = scenarios.size() - pending.size();
  prog.done = prog.store_hits;
  std::mutex prog_mu;
  const auto exec_t0 = std::chrono::steady_clock::now();
  if (options_.progress) options_.progress(prog);
  const auto note_progress = [&](const ScenarioResult& out) {
    if (!options_.progress) return;
    const std::lock_guard<std::mutex> lock(prog_mu);
    if (out.skipped) {
      ++prog.skipped;
    } else {
      ++prog.executed;
      if (!out.ok) ++prog.failed;
    }
    ++prog.done;
    prog.elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - exec_t0)
                          .count();
    prog.eta_ms = prog.executed > 0
                      ? prog.elapsed_ms / static_cast<double>(prog.executed) *
                            static_cast<double>(prog.total - prog.done)
                      : 0.0;
    options_.progress(prog);
  };

  // Group-major run order: a group's scenarios are handed out one after
  // another, so its grids exist from when the first starts until the last
  // finishes, and only for the groups some worker is on — memory does not
  // grow with the sweep. Results still land in index slots, so the order
  // shows only in the journal and in wall_ms.
  std::vector<std::pair<std::size_t, std::size_t>> order;  // (i, group)
  std::vector<std::size_t> remaining;  // unfinished scenarios per group
  {
    const auto groups = reference_groups(scenarios, pending);
    order.reserve(pending.size());
    remaining.reserve(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      remaining.push_back(groups[g].size());
      for (const std::size_t i : groups[g]) order.emplace_back(i, g);
    }
  }
  std::mutex live_mu;  // guards live and remaining
  std::vector<std::unique_ptr<GroupGrids>> live(remaining.size());
  const auto open_group = [&](std::size_t g) -> GroupGrids& {
    const std::lock_guard<std::mutex> lock(live_mu);
    if (!live[g]) live[g] = std::make_unique<GroupGrids>();
    return *live[g];
  };
  // Counts one scenario of group g as finished (or skipped); the last one
  // frees the group's grids, outside the lock.
  const auto close_group = [&](std::size_t g) {
    std::unique_ptr<GroupGrids> done;
    const std::lock_guard<std::mutex> lock(live_mu);
    if (--remaining[g] == 0) done = std::move(live[g]);
  };

  parallel_for_index(order.size(), options_.threads, [&](std::size_t j) {
    const auto [i, g] = order[j];
    ScenarioResult& out = results[i];
    // The store key is taken before the run options edit the scenario;
    // each index is handed out once, so its scenario moves into its result.
    const std::uint64_t key =
        options_.store != nullptr
            ? ResultStore::scenario_key(scenarios[i],
                                        options_.verify_reference)
            : 0;
    out.scenario = std::move(scenarios[i]);
    if (options_.stop != nullptr &&
        options_.stop->load(std::memory_order_relaxed)) {
      out.skipped = true;
      out.ok = false;
      out.error = "skipped: stop requested before execution";
      close_group(g);
      note_progress(out);
      return;
    }
    Scenario& scenario = out.scenario;
    if (options_.fault_plan != nullptr)
      options_.fault_plan->apply(scenario.label, &scenario.engine.dram);
    if (options_.wall_timeout_ms != 0)
      scenario.engine.wall_timeout_ms = options_.wall_timeout_ms;
    if (options_.metrics) scenario.engine.profile = true;
    // Trace export is per-simulator; a tiled scenario fans out over many,
    // so it gets no trace rather than a misleading partial one.
    if (options_.trace && scenario.tiles.height == 1 &&
        scenario.tiles.width == 1 && scenario.tiles.depth == 1)
      scenario.engine.trace = true;
    run_one(options_, open_group(g), out);
    close_group(g);
    note_progress(out);
    // Journal the finished result — deterministic failures included (they
    // are results too, and resume must reproduce them byte-for-byte).
    // Wall-timeout abandons are the one exclusion: their counters depend
    // on machine load, so caching one would poison every later report.
    if (options_.store != nullptr && !out.run.timed_out) {
      put_with_retry(*options_.store, to_stored(out, key),
                     options_.store_retry_attempts,
                     options_.store_retry_backoff_ms);
    }
  });
  return results;
}

std::uint64_t SweepExecutor::digest(
    const std::vector<ScenarioResult>& results) {
  std::uint64_t h = 1469598103934665603ull;
  mix(h, results.size());
  for (const auto& r : results) {
    mix_str(h, r.scenario.label);
    mix(h, r.scenario.seed);
    mix(h, r.scenario.depth);
    mix(h, r.scenario.tiles.height);
    mix(h, r.scenario.tiles.width);
    // Cell layout and slice axis: folded only for F > 1 / D > 1 so
    // single-field 2D digests (every sweep that existed before those axes)
    // are byte-identical.
    if (r.scenario.problem.kernel.fields() > 1)
      mix(h, r.scenario.problem.kernel.fields());
    if (r.scenario.problem.depth > 1) mix(h, r.scenario.problem.depth);
    if (r.scenario.tiles.depth > 1) mix(h, r.scenario.tiles.depth);
    // The result fields in store-payload order, plus the never-stored
    // timed_out flag at its slot.
    const StoredResult fields = to_stored(r, 0);
    detail::for_each_payload_field(
        fields,
        [&h](const auto& v) {
          if constexpr (std::is_same_v<std::decay_t<decltype(v)>, std::string>)
            mix_str(h, v);
          else
            mix(h, v);
        },
        [&] { mix(h, r.run.timed_out); });
  }
  return h;
}

}  // namespace smache::sweep
