#include "measure.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <set>
#include <string_view>

#include "core/engine.hpp"
#include "sweep/emit.hpp"
#include "sweep/store.hpp"
#include "sweep/workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using Grid = smache::grid::Grid<smache::word_t>;
using smache::Engine;
using smache::RunResult;
using smache::sweep::ExecutorOptions;
using smache::sweep::ResultStore;
using smache::sweep::StoredResult;
using smache::sweep::SweepExecutor;

// Every run makes at least this many passes, whatever the time budget.
constexpr std::size_t kMinPasses = 3;
// Share of a traced run's budget spent alternating profile-off and
// profile-on passes; the rest runs the per-layer timing chain.
constexpr double kAlternationShare = 0.6;
// Problems listed per report; the counts carry the rest.
constexpr std::size_t kMaxProblems = 8;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The wall time a run reports for its set-ups and traced passes: the
/// fastest. Interference from other tenants of a shared host only ever
/// slows a pass, often by 1.5-2x for tens of seconds at a time, so the
/// median of a run moves with the neighbours' load while the fastest pass
/// tracks the unloaded cost. On a busy 4-vCPU host the run-to-run spread of
/// the median was 27%, of the fastest quarter's median 16%, and of the
/// fastest 6%. The untraced run goes one step further and takes the fastest
/// time of each scenario separately (measure_end_to_end).
double fastest(const std::vector<double>& walls) {
  return walls.empty() ? 0.0 : *std::min_element(walls.begin(), walls.end());
}

volatile std::uint64_t calibration_sink = 0;  // keeps the loop observable

/// Seconds one fixed integer loop over an L2-sized array takes on the
/// calling CPU (best of three).
double calibration_seconds() {
  std::vector<std::uint32_t> data(1u << 16, 1);
  double best = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    std::uint64_t acc = 0;
    for (std::uint32_t round = 0; round < 16; ++round)
      for (std::size_t i = 0; i < data.size(); ++i) {
        acc += data[i] * (i ^ round);
        data[i] = static_cast<std::uint32_t>(acc >> 7);
      }
    calibration_sink = acc;
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

/// A fresh, empty directory path for one result store.
std::string fresh_dir(const std::string& scratch, const std::string& leaf) {
  const fs::path path = fs::path(scratch) / leaf;
  fs::remove_all(path);
  return path.string();
}

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void note(Report& report, std::string problem) {
  report.correct = false;
  if (report.problems.size() < kMaxProblems)
    report.problems.push_back(std::move(problem));
}

/// What one pass needs before its first simulated cycle.
struct Setup {
  std::vector<Scenario> scenarios;
  std::vector<Grid> inputs;  // Driver::Engine only, one per scenario
  std::uint64_t cell_updates = 0;
};

/// Spec validation and expansion, input generation, store open, and one
/// elaborate_only per distinct design: the cost paid before the first
/// simulated cycle.
Setup set_up(const Workload& workload, const std::string& scratch) {
  Setup s;
  s.scenarios = expand(workload);
  for (const Scenario& sc : s.scenarios) {
    Grid input = smache::sweep::make_input(
        sc.input, sc.problem.height, sc.problem.width, sc.problem.depth,
        sc.seed);
    if (workload.driver == Driver::Engine) s.inputs.push_back(std::move(input));
    s.cell_updates += cell_updates(sc);
  }
  if (workload.driver == Driver::Sweep) {
    const ResultStore store(fresh_dir(scratch, "setup"));
  }
  std::set<std::string> designs;
  for (const Scenario& sc : s.scenarios)
    if (designs.insert(design_key(sc)).second)
      (void)Engine(sc.engine).elaborate_only(sc.problem);
  return s;
}

/// The engine entry point a scenario routes to, exactly as the sweep
/// executor routes it (tile loops serial).
RunResult run_scenario(const Engine& engine, const Scenario& sc,
                       const Grid& input) {
  if (is_tiled(sc)) {
    smache::TilingSpec tiling;
    tiling.tiles_r = sc.tiles.height;
    tiling.tiles_c = sc.tiles.width;
    tiling.tiles_s = sc.tiles.depth;
    tiling.threads = 1;
    tiling.depth = sc.depth;
    return engine.run_tiled(sc.problem, input, tiling);
  }
  return sc.depth > 1 ? engine.run_cascade(sc.problem, input, sc.depth)
                      : engine.run(sc.problem, input);
}

/// The store record of a result: the fields SweepExecutor journals.
StoredResult to_record(const ScenarioResult& r) {
  StoredResult s;
  s.key = ResultStore::scenario_key(r.scenario, /*verify_reference=*/true);
  s.label = r.scenario.label;
  s.ok = r.ok;
  s.error = r.error;
  s.cycles = r.run.cycles;
  s.warmup_cycles = r.run.warmup_cycles;
  s.dram = r.run.dram;
  s.output_hash = r.output_hash;
  s.reference_checked = r.reference_checked;
  s.reference_match = r.reference_match;
  s.r_total = r.run.resources.r_total;
  s.b_total = r.run.resources.b_total;
  s.r_static = r.run.resources.r_static;
  s.b_static = r.run.resources.b_static;
  s.r_stream = r.run.resources.r_stream;
  s.b_stream = r.run.resources.b_stream;
  s.m20k_blocks = r.run.resources.m20k_blocks;
  s.fmax_mhz = r.run.timing.fmax_mhz;
  s.ops = r.run.ops;
  s.exec_time_us = r.run.exec_time_us;
  s.mops = r.run.mops;
  return s;
}

bool verified(const ScenarioResult& r) {
  return r.ok && r.reference_checked && r.reference_match;
}

/// One pass over the workload's scenarios.
struct Pass {
  double wall_s = 0.0;
  /// wall_s split into each scenario's own time and, last, the rest of the
  /// pass (store open and puts, emission, warm replay, loop overhead).
  std::vector<double> parts_s;
  /// Executor wall minus the summed scenario walls (Driver::Sweep).
  double executor_overhead_s = 0.0;
  std::vector<ScenarioResult> results;
  /// Per scenario: failed or disagreed with the reference or its replay.
  std::vector<bool> bad;
};

/// Driver::Engine: only the engine calls are timed. Outputs are checked
/// against the reference hashes afterwards (`golden`, computed once).
Pass engine_pass(const Setup& s, bool profile,
                 std::vector<std::uint64_t>& golden) {
  Pass p;
  p.results.resize(s.scenarios.size());
  std::vector<smache::EngineOptions> options;
  for (std::size_t i = 0; i < s.scenarios.size(); ++i) {
    p.results[i].scenario = s.scenarios[i];
    options.push_back(s.scenarios[i].engine);
    options.back().profile = profile;
  }
  const auto t0 = Clock::now();
  double scenario_s = 0.0;
  for (std::size_t i = 0; i < s.scenarios.size(); ++i) {
    ScenarioResult& out = p.results[i];
    const auto t_scenario = Clock::now();
    try {
      out.run = run_scenario(Engine(options[i]), s.scenarios[i], s.inputs[i]);
      out.ok = true;
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    p.parts_s.push_back(seconds_since(t_scenario));
    scenario_s += p.parts_s.back();
  }
  p.wall_s = seconds_since(t0);
  p.parts_s.push_back(p.wall_s - scenario_s);

  if (golden.empty())
    for (std::size_t i = 0; i < s.scenarios.size(); ++i)
      golden.push_back(smache::sweep::hash_grid(
          smache::reference_run(s.scenarios[i].problem, s.inputs[i])));
  p.bad.assign(p.results.size(), false);
  for (std::size_t i = 0; i < p.results.size(); ++i) {
    ScenarioResult& out = p.results[i];
    if (out.ok) {
      out.output_hash = smache::sweep::hash_grid(*out.run.output);
      out.reference_checked = true;
      out.reference_match = out.output_hash == golden[i];
      out.run.output.reset();
      out.run.plan.reset();
    }
    p.bad[i] = !verified(out);
  }
  return p;
}

/// Driver::Sweep: a cold SweepExecutor run against a fresh store, JSON
/// emission and, for warm-replay workloads, a replay from that store.
Pass sweep_pass(const Workload& workload, const Setup& s, bool profile,
                const std::string& scratch) {
  const std::string dir = fresh_dir(scratch, "pass");
  Pass p;
  ExecutorOptions options;
  options.threads = 1;
  options.tile_threads = 1;
  options.verify_reference = true;
  options.metrics = profile;

  const auto t0 = Clock::now();
  ResultStore store(dir);
  options.store = &store;
  const SweepExecutor executor(options);
  const auto t_exec = Clock::now();
  p.results = executor.run(s.scenarios);
  const double executor_s = seconds_since(t_exec);
  const std::size_t json_bytes = smache::sweep::emit_json(p.results).size();
  std::vector<ScenarioResult> warm;
  if (workload.warm_replay) warm = executor.run(s.scenarios);
  p.wall_s = seconds_since(t0);

  double scenario_s = 0.0;
  for (const ScenarioResult& r : p.results) {
    p.parts_s.push_back(r.wall_ms / 1e3);
    scenario_s += p.parts_s.back();
  }
  p.parts_s.push_back(p.wall_s - scenario_s);
  p.executor_overhead_s = executor_s - scenario_s;
  p.bad.assign(p.results.size(), json_bytes == 0);
  for (std::size_t i = 0; i < p.results.size(); ++i) {
    p.bad[i] = p.bad[i] || !verified(p.results[i]);
    if (workload.warm_replay)
      p.bad[i] = p.bad[i] || !warm[i].from_store ||
                 SweepExecutor::digest({warm[i]}) !=
                     SweepExecutor::digest({p.results[i]});
  }
  return p;
}

/// Counts a pass's failures into the report and checks its digest against
/// the run's first pass.
void tally(Report& report, const Pass& p, const char* what) {
  report.attempted += p.results.size();
  for (std::size_t i = 0; i < p.results.size(); ++i) {
    if (!p.bad[i]) continue;
    ++report.failed;
    const ScenarioResult& r = p.results[i];
    note(report, std::string(what) + ": " + r.scenario.label + ": " +
                     (r.ok ? "output differs from reference_run or from its "
                             "warm replay"
                           : r.error));
  }
  const std::uint64_t d = SweepExecutor::digest(p.results);
  if (report.passes++ == 0)
    report.digest = d;
  else if (d != report.digest)
    note(report,
         std::string(what) + ": digest differs from the first pass's");
}

Pass run_pass(const Workload& workload, const Setup& s, bool profile,
              const std::string& scratch,
              std::vector<std::uint64_t>& golden) {
  return workload.driver == Driver::Engine
             ? engine_pass(s, profile, golden)
             : sweep_pass(workload, s, profile, scratch);
}

// ---- the traced run's per-layer chain ----

/// Host time and work accumulated for one layer call site.
struct Span {
  double seconds = 0.0;
  double work = 0.0;  // calls, or cell updates for the engine/oracle
  void add(double s, double amount = 1.0) {
    seconds += s;
    work += amount;
  }
  double ns_per_unit() const { return ratio(seconds * 1e9, work); }
};

/// The engine path a scenario exercises, for the per-path host cost.
const char* engine_path(const Scenario& sc) {
  if (is_tiled(sc)) return "tiled";
  if (sc.depth > 1) return "cascade";
  if (sc.engine.arch == smache::Architecture::Baseline) return "baseline";
  return "smache";
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.is_regular_file()) bytes += entry.file_size();
  return bytes;
}

/// One traced pass, each layer call timed from outside: expansion, store
/// open, elaboration and planning per distinct design; then every scenario
/// in SweepExecutor's run_one order (make_input, run/run_cascade/run_tiled,
/// hash_grid, reference_run, ResultStore::put) with EngineOptions::profile
/// on; then emission and warm finds. Returns the host per-layer metrics;
/// `results` receives the profiled results.
std::map<std::string, double> chain_pass(const Workload& workload,
                                         const std::string& scratch,
                                         std::vector<ScenarioResult>& results,
                                         std::vector<bool>& bad) {
  std::map<std::string, double> m;
  auto t = Clock::now();
  const std::vector<Scenario> scenarios = expand(workload);
  m["sweep.spec.expand_ns"] = seconds_since(t) * 1e9;

  const std::string dir = fresh_dir(scratch, "chain");
  t = Clock::now();
  ResultStore store(dir);
  m["sweep.store.open_ns"] = seconds_since(t) * 1e9;

  Span elaborate, plan;
  std::set<std::string> designs;
  for (const Scenario& sc : scenarios) {
    if (!designs.insert(design_key(sc)).second) continue;
    const Engine engine(sc.engine);
    t = Clock::now();
    (void)engine.elaborate_only(sc.problem);
    elaborate.add(seconds_since(t));
    t = Clock::now();
    (void)engine.plan_only(sc.problem);
    plan.add(seconds_since(t));
  }

  Span input, hash, reference, put, all_engine;
  std::map<std::string, Span> engine_by_path;
  std::map<std::string, double> untiled_engine_s;  // by label
  std::vector<std::pair<std::string, double>> tiled_engine_s;
  std::vector<StoredResult> records;
  results.assign(scenarios.size(), {});
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& sc = scenarios[i];
    ScenarioResult& out = results[i];
    out.scenario = sc;
    smache::EngineOptions options = sc.engine;
    options.profile = true;
    const double updates = static_cast<double>(cell_updates(sc));
    try {
      t = Clock::now();
      const Grid init = smache::sweep::make_input(
          sc.input, sc.problem.height, sc.problem.width, sc.problem.depth,
          sc.seed);
      input.add(seconds_since(t));
      t = Clock::now();
      out.run = run_scenario(Engine(options), sc, init);
      const double engine_s = seconds_since(t);
      all_engine.add(engine_s, updates);
      engine_by_path[engine_path(sc)].add(engine_s, updates);
      if (sc.problem.kernel.fields() == 3)
        engine_by_path["f3"].add(engine_s, updates);
      if (sc.problem.depth > 1) engine_by_path["d3"].add(engine_s, updates);
      if (is_tiled(sc))
        tiled_engine_s.emplace_back(untiled_label(sc), engine_s);
      else
        untiled_engine_s[sc.label] = engine_s;
      t = Clock::now();
      out.output_hash = smache::sweep::hash_grid(*out.run.output);
      hash.add(seconds_since(t));
      t = Clock::now();
      const Grid golden = smache::reference_run(sc.problem, init);
      reference.add(seconds_since(t), updates);
      out.reference_checked = true;
      out.reference_match = golden == *out.run.output;
      out.ok = true;
    } catch (const std::exception& e) {
      out.ok = false;
      out.error = e.what();
    }
    out.run.output.reset();
    out.run.plan.reset();
    records.push_back(to_record(out));
    t = Clock::now();
    store.put(records.back());
    put.add(seconds_since(t));
  }

  t = Clock::now();
  const std::size_t json_bytes = smache::sweep::emit_json(results).size();
  m["sweep.emit.json_ns"] = seconds_since(t) * 1e9;
  t = Clock::now();
  const std::size_t csv_bytes = smache::sweep::emit_csv(results).size();
  m["sweep.emit.csv_ns"] = seconds_since(t) * 1e9;

  Span find;
  bad.assign(results.size(), json_bytes == 0 || csv_bytes == 0);
  for (std::size_t i = 0; i < records.size(); ++i) {
    StoredResult back;
    t = Clock::now();
    const bool found = store.find(records[i].key, &back);
    find.add(seconds_since(t));
    bad[i] = bad[i] || !verified(results[i]) || !found ||
             !(back == records[i]);
  }
  m["sweep.store.bytes"] = static_cast<double>(directory_bytes(dir));

  double tiled_s = 0.0, twin_s = 0.0;
  for (const auto& [twin, seconds] : tiled_engine_s) {
    const auto it = untiled_engine_s.find(twin);
    if (it == untiled_engine_s.end()) continue;
    tiled_s += seconds;
    twin_s += it->second;
  }

  m["sweep.workloads.make_input_ns"] = input.ns_per_unit();
  m["sweep.store.put_ns"] = put.ns_per_unit();
  m["sweep.store.find_ns"] = find.ns_per_unit();
  m["sweep.hash_grid_ns"] = hash.ns_per_unit();
  m["core.engine.elaborate_ns"] = elaborate.ns_per_unit();
  m["model.planner.plan_ns"] = plan.ns_per_unit();
  for (const char* path :
       {"smache", "baseline", "cascade", "tiled", "f3", "d3"})
    m[std::string("core.engine.ns_per_cell_update.") + path] =
        engine_by_path[path].ns_per_unit();
  m["grid.reference.ns_per_cell_update"] = reference.ns_per_unit();
  m["grid.tiling.overhead_ratio"] = ratio(tiled_s, twin_s);
  double cycles = 0.0;
  for (const ScenarioResult& r : results)
    cycles += static_cast<double>(r.run.cycles);
  m["sim.cycles_per_host_s"] = ratio(cycles, all_engine.seconds);
  return m;
}

/// The simulated and cost-model per-layer metrics of profiled results.
void add_simulated_layers(const std::vector<ScenarioResult>& results,
                          std::map<std::string, double>& m) {
  SimTotals totals;
  double awake = 0, asleep = 0, fastforward = 0;
  double gather = 0, drain = 0, dram_backpressure = 0, dram_row_wait = 0;
  std::map<std::string, double> stall_episodes;
  double m20k = 0, r_total = 0, b_total = 0, fmax = 0;
  for (const char* reason :
       {"request_backpressure", "dram_wait", "kernel_backpressure",
        "writeback_backpressure", "interstage_backpressure",
        "out_backpressure"})
    stall_episodes[reason] = 0;

  for (const ScenarioResult& r : results) {
    totals.add(r);
    m20k += static_cast<double>(r.run.resources.m20k_blocks);
    r_total += static_cast<double>(r.run.resources.r_total);
    b_total += static_cast<double>(r.run.resources.b_total);
    fmax += r.run.timing.fmax_mhz;
    for (const smache::obs::MetricSample& s : r.run.metrics) {
      const std::string_view path = s.path;
      const auto v = static_cast<double>(s.value);
      if (path.starts_with("sched/module/")) {
        if (path.ends_with("/awake")) awake += v;
        if (path.ends_with("/asleep")) asleep += v;
        if (path.ends_with("/fastforward")) fastforward += v;
      } else if (path.ends_with("dram/stall/backpressure")) {
        dram_backpressure += v;
      } else if (path.ends_with("dram/stall/row_wait")) {
        dram_row_wait += v;
      } else if (path.ends_with("/gather_staging_cycles")) {
        gather += v;
      } else if (path.ends_with("/writeback_drain_cycles")) {
        drain += v;
      } else if (const auto at = path.rfind("/stall/");
                 at != std::string_view::npos) {
        const auto it =
            stall_episodes.find(std::string(path.substr(at + 7)));
        if (it != stall_episodes.end()) it->second += v;
      }
    }
  }
  const auto updates = static_cast<double>(totals.cell_updates);
  const double module_cycles = awake + asleep + fastforward;
  m["sim.sched.module_evals_per_cell_update"] = ratio(awake, updates);
  m["sim.sched.asleep_share"] = ratio(asleep, module_cycles);
  m["sim.sched.fastforward_share"] = ratio(fastforward, module_cycles);
  for (const auto& [reason, episodes] : stall_episodes)
    m["rtl.stall." + reason + "_episodes"] = episodes;
  m["rtl.gather_staging_cycles"] = gather;
  m["rtl.writeback_drain_cycles"] = drain;
  m["rtl.warmup_share"] = ratio(static_cast<double>(totals.warmup_cycles),
                                static_cast<double>(totals.cycles));
  m["mem.dram.words_read_per_cell_update"] =
      ratio(static_cast<double>(totals.words_read), updates);
  m["mem.dram.words_written_per_cell_update"] =
      ratio(static_cast<double>(totals.words_written), updates);
  m["mem.dram.read_requests"] = static_cast<double>(totals.read_requests);
  m["mem.dram.row_hit_ratio"] =
      ratio(static_cast<double>(totals.row_hits),
            static_cast<double>(totals.row_hits + totals.row_misses));
  m["mem.dram.stall.backpressure"] = dram_backpressure;
  m["mem.dram.stall.row_wait"] = dram_row_wait;
  m["cost.m20k_blocks"] = m20k;
  m["cost.r_total"] = r_total;
  m["cost.b_total"] = b_total;
  m["cost.fmax_mhz"] = ratio(fmax, static_cast<double>(results.size()));
}

/// The untraced run: timed set-up and pass pairs until the budget is spent.
/// Each pass gets its own set-up, so the set-up samples spread over the
/// whole run like the pass samples do, rather than all landing in its
/// first half second. The pass wall it reports is the sum, over the pass's
/// parts (each scenario, and the rest of the pass), of that part's fastest
/// time in any pass: a scenario then needs a quiet host only for its own
/// few milliseconds, not for a whole pass, which on a busy host the fastest
/// whole pass often never got.
void measure_end_to_end(const Workload& workload, const RunConfig& config,
                        Report& report) {
  std::vector<std::uint64_t> golden;
  std::vector<double> setup_s, fastest_parts_s;
  std::size_t passes = 0;
  SimTotals totals;
  Setup s;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(config.seconds);
  do {
    pin_to_quietest_cpu();
    const auto t0 = Clock::now();
    s = set_up(workload, config.scratch_dir);
    setup_s.push_back(seconds_since(t0));
    const Pass p =
        run_pass(workload, s, /*profile=*/false, config.scratch_dir, golden);
    tally(report, p, "pass");
    if (passes++ == 0) {
      fastest_parts_s = p.parts_s;
      for (const ScenarioResult& r : p.results) totals.add(r);
      // Every pass repeats the same work, so the peak is reached by the end
      // of the first; later passes only add allocator drift that varies
      // with how many passes the time budget allowed.
      report.metrics["peak_rss_mb"] = peak_rss_mb();
    }
    for (std::size_t i = 0; i < fastest_parts_s.size(); ++i)
      fastest_parts_s[i] = std::min(fastest_parts_s[i], p.parts_s[i]);
  } while (Clock::now() < deadline || passes < kMinPasses);

  double wall = 0.0;
  for (const double part : fastest_parts_s) wall += part;
  auto& m = report.metrics;
  m["cell_updates_per_s"] = ratio(static_cast<double>(s.cell_updates), wall);
  m["scenarios_per_s"] =
      ratio(static_cast<double>(s.scenarios.size()), wall);
  m["setup_s"] = fastest(setup_s);
  m["sim_cycles_per_cell_update"] = totals.cycles_per_cell_update();
  m["dram_bytes_per_cell_update"] = totals.dram_bytes_per_cell_update();
}

/// The traced run: profile-off and profile-on passes alternate (their
/// digests must agree; their wall ratio is the profiling overhead), then
/// the per-layer chain repeats until the budget is spent.
void measure_layers(const Workload& workload, const RunConfig& config,
                    Report& report) {
  const auto start = Clock::now();
  const Setup s = set_up(workload, config.scratch_dir);
  std::vector<std::uint64_t> golden;
  std::vector<double> off_walls, on_walls, overheads;
  const auto budget = [&](double share) {
    return seconds_since(start) < config.seconds * share;
  };
  // The first pass of a process pays for cold caches and allocator growth;
  // it is checked but not timed, so it favours neither side of the ratio.
  tally(report,
        run_pass(workload, s, /*profile=*/false, config.scratch_dir, golden),
        "warm-up pass");
  do {
    for (const bool profile : {false, true}) {
      const Pass p =
          run_pass(workload, s, profile, config.scratch_dir, golden);
      tally(report, p, profile ? "profiled pass" : "unprofiled pass");
      (profile ? on_walls : off_walls).push_back(p.wall_s);
      if (!profile && workload.driver == Driver::Sweep)
        overheads.push_back(p.executor_overhead_s);
    }
  } while (budget(kAlternationShare) || off_walls.size() < kMinPasses);

  // paper_stream's timed pass has no executor; one executor pass over the
  // same scenario measures the executor and checks that both paths agree.
  if (workload.driver == Driver::Engine) {
    const Pass p =
        sweep_pass(workload, s, /*profile=*/false, config.scratch_dir);
    tally(report, p, "executor pass");
    overheads.push_back(p.executor_overhead_s);
  }

  std::map<std::string, std::vector<double>> host;
  std::vector<ScenarioResult> first;
  do {
    Pass p;
    for (const auto& [name, value] :
         chain_pass(workload, config.scratch_dir, p.results, p.bad))
      host[name].push_back(value);
    tally(report, p, "traced chain");
    if (first.empty()) first = std::move(p.results);
  } while (budget(1.0));

  auto& m = report.metrics;
  for (const auto& [name, values] : host) m[name] = median(values);
  m["sweep.executor.overhead_ns"] = median(overheads) * 1e9;
  m["obs.profile_overhead_ratio"] =
      ratio(fastest(on_walls), fastest(off_walls));
  add_simulated_layers(first, m);
}

}  // namespace

void pin_to_quietest_cpu() {
  static cpu_set_t allowed;
  static const bool have_allowed =
      sched_getaffinity(0, sizeof allowed, &allowed) == 0;
  if (!have_allowed) return;
  int best_cpu = -1;
  double best = 0.0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    const double s = calibration_seconds();
    if (best_cpu < 0 || s < best) {
      best_cpu = cpu;
      best = s;
    }
  }
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  if (best_cpu >= 0) CPU_SET(best_cpu, &chosen);
  (void)sched_setaffinity(0, sizeof chosen,
                          best_cpu >= 0 ? &chosen : &allowed);
}

Report measure(const Workload& workload, const RunConfig& config) {
  Report report;
  fs::create_directories(config.scratch_dir);
  if (config.trace)
    measure_layers(workload, config, report);
  else
    measure_end_to_end(workload, config, report);
  return report;
}

}  // namespace perfbench
