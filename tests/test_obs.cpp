// Observability contract wall — the PR-9 profiler, metrics registry and
// trace export:
//   * MetricsRegistry: slot registration is unconditional (deterministic
//     key sets), value updates are gated by the enabled flag, snapshots
//     are sorted-by-path with zero-valued entries included, kind
//     mismatches are contract violations, and merge_samples folds
//     counters by sum and gauges/watermarks by max;
//   * cycle attribution: for every profiled engine path (smache,
//     baseline, cascade depth>1, tiled, multi-field) every module
//     evaluates on every cycle, so each sched/module/<name>/awake equals
//     sched/cycles/total, and those are the only sched/* keys;
//   * stall counters count every cycle their blocker held;
//   * profiling and span capture NEVER perturb the simulation: cycles,
//     DRAM counters and the output grid are bit-identical on/off;
//   * Perfetto/Chrome trace-event export is well-formed, deterministic
//     JSON with one metadata event per lane and one "X" event per span;
//   * sweep telemetry: ExecutorOptions::metrics populates per-scenario
//     snapshots without moving the digest, progress callbacks count every
//     scenario exactly once, ResultStore keeps hit/miss/append counters,
//     and the store_hit / metrics report columns appear only on request.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.hpp"
#include "core/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/spans.hpp"
#include "support/test_grids.hpp"
#include "sweep/emit.hpp"
#include "sweep/executor.hpp"
#include "sweep/spec.hpp"
#include "sweep/store.hpp"
#include "sweep/workloads.hpp"

namespace smache {
namespace {

using obs::MetricKind;
using obs::MetricSample;
using obs::MetricsRegistry;
using obs::SpanLog;
using sweep::EmitOptions;
using sweep::ExecutorOptions;
using sweep::ScenarioResult;
using sweep::SweepExecutor;
using sweep::SweepProgress;
using sweep::SweepSpec;

// ---- helpers ----

std::uint64_t mval(const std::vector<MetricSample>& m, std::string_view path) {
  for (const MetricSample& s : m)
    if (s.path == path) return s.value;
  ADD_FAILURE() << "metric not found: " << path;
  return 0;
}

bool mhas(const std::vector<MetricSample>& m, std::string_view path) {
  for (const MetricSample& s : m)
    if (s.path == path) return true;
  return false;
}

/// The profiler's attribution: every module evaluates on every cycle, so
/// each sched/module/<name>/awake equals sched/cycles/total, those are the
/// only sched/* keys, and the snapshot is sorted by path. Holds additively
/// for tiled runs because every tile contributes its own total.
void expect_attribution(const std::vector<MetricSample>& m) {
  ASSERT_FALSE(m.empty());
  for (std::size_t i = 1; i < m.size(); ++i)
    EXPECT_LT(m[i - 1].path, m[i].path) << "snapshot not sorted";
  const std::uint64_t total = mval(m, "sched/cycles/total");
  EXPECT_GT(total, 0u);
  constexpr std::string_view kPrefix = "sched/module/";
  constexpr std::string_view kAwake = "/awake";
  bool any_module = false;
  for (const MetricSample& s : m) {
    const std::string_view p = s.path;
    if (!p.starts_with("sched/") || p == "sched/cycles/total") continue;
    ASSERT_TRUE(p.starts_with(kPrefix) && p.ends_with(kAwake))
        << "unexpected scheduler key " << p;
    any_module = true;
    EXPECT_EQ(s.value, total) << p;
  }
  EXPECT_TRUE(any_module) << "no sched/module/* entries in snapshot";
}

/// Structural JSON sanity without a parser: every quote/escape resolves
/// and braces/brackets balance outside string literals.
void expect_balanced_json(const std::string& s) {
  long depth = 0;
  bool in_str = false, esc = false;
  for (const char c : s) {
    if (in_str) {
      if (esc) esc = false;
      else if (c == '\\') esc = true;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_FALSE(in_str) << "unterminated string literal";
  EXPECT_EQ(depth, 0) << "unbalanced braces/brackets";
}

std::size_t count_substr(const std::string& hay, std::string_view needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size()))
    ++n;
  return n;
}

ProblemSpec small_problem(std::size_t n, std::size_t steps) {
  ProblemSpec p = ProblemSpec::paper_example();
  p.height = n;
  p.width = n;
  p.steps = steps;
  return p;
}

// ---- MetricsRegistry units ----

TEST(MetricsRegistry, DisabledTouchesAreNoOpsButSlotsRegister) {
  MetricsRegistry reg;
  EXPECT_FALSE(reg.enabled());
  const auto c = reg.slot("a/count", MetricKind::Counter);
  const auto g = reg.slot("a/gauge", MetricKind::Gauge);
  const auto w = reg.slot("a/hwm", MetricKind::MaxWatermark);
  reg.count(c, 5);
  reg.set(g, 9);
  reg.watermark(w, 3);
  EXPECT_EQ(reg.value(c), 0u);
  EXPECT_EQ(reg.value(g), 0u);
  EXPECT_EQ(reg.value(w), 0u);
  // Registration happened anyway: the snapshot key set is independent of
  // when (or whether) profiling was enabled.
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].path, "a/count");
  EXPECT_EQ(snap[1].path, "a/gauge");
  EXPECT_EQ(snap[2].path, "a/hwm");
  for (const MetricSample& s : snap) EXPECT_EQ(s.value, 0u);
}

TEST(MetricsRegistry, EnabledCountsGaugesAndWatermarks) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  const auto c = reg.slot("x/count", MetricKind::Counter);
  const auto g = reg.slot("x/gauge", MetricKind::Gauge);
  const auto w = reg.slot("x/hwm", MetricKind::MaxWatermark);
  reg.count(c);
  reg.count(c, 4);
  reg.set(g, 7);
  reg.set(g, 2);  // gauge: last write wins
  reg.watermark(w, 5);
  reg.watermark(w, 3);  // below the mark: must not regress
  reg.watermark(w, 9);
  EXPECT_EQ(reg.value(c), 5u);
  EXPECT_EQ(reg.value(g), 2u);
  EXPECT_EQ(reg.value(w), 9u);
  EXPECT_EQ(reg.value("x/hwm"), 9u);
  EXPECT_EQ(reg.value("never/registered"), 0u);
}

TEST(MetricsRegistry, ReregistrationReturnsSameSlotAndChecksKind) {
  MetricsRegistry reg;
  const auto a = reg.slot("dup/path", MetricKind::Counter);
  const auto b = reg.slot("dup/path", MetricKind::Counter);
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.slot_count(), 1u);
  EXPECT_THROW((void)reg.slot("dup/path", MetricKind::MaxWatermark),
               contract_error);
}

TEST(MetricsRegistry, TwoPartSlotJoinsBaseAndSuffix) {
  MetricsRegistry reg;
  const auto joined = reg.slot("top/fifo", "/hwm", MetricKind::MaxWatermark);
  const auto whole = reg.slot("top/fifo/hwm", MetricKind::MaxWatermark);
  EXPECT_EQ(joined, whole);
  EXPECT_EQ(reg.slot_count(), 1u);
}

TEST(MetricsRegistry, ClearValuesKeepsRegistrations) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  const auto c = reg.slot("k/c", MetricKind::Counter);
  reg.count(c, 11);
  reg.clear_values();
  EXPECT_EQ(reg.value(c), 0u);
  EXPECT_EQ(reg.slot_count(), 1u);
  reg.count(c, 2);  // slot id stays valid after the clear
  EXPECT_EQ(reg.value(c), 2u);
}

TEST(MetricsRegistry, InternPathIsStableAcrossCalls) {
  const std::string* a = obs::intern_path("obs/test/interned-path");
  const std::string* b = obs::intern_path("obs/test/interned-path");
  EXPECT_EQ(a, b);
  EXPECT_EQ(*a, "obs/test/interned-path");
}

TEST(MergeSamples, CountersSumGaugesAndWatermarksMax) {
  std::vector<MetricSample> into = {
      {"a/count", MetricKind::Counter, 3},
      {"b/gauge", MetricKind::Gauge, 9},
      {"c/hwm", MetricKind::MaxWatermark, 4},
  };
  const std::vector<MetricSample> from = {
      {"a/count", MetricKind::Counter, 5},
      {"b/gauge", MetricKind::Gauge, 2},
      {"c/hwm", MetricKind::MaxWatermark, 7},
      {"d/new", MetricKind::Counter, 1},  // disjoint key joins the union
  };
  merge_samples(into, from);
  ASSERT_EQ(into.size(), 4u);
  for (std::size_t i = 1; i < into.size(); ++i)
    EXPECT_LT(into[i - 1].path, into[i].path);
  EXPECT_EQ(mval(into, "a/count"), 8u);   // sum
  EXPECT_EQ(mval(into, "b/gauge"), 9u);   // max
  EXPECT_EQ(mval(into, "c/hwm"), 7u);     // max
  EXPECT_EQ(mval(into, "d/new"), 1u);
}

// ---- SpanLog + Perfetto export ----

TEST(SpanLog, LaneDedupAndGatedAdd) {
  SpanLog log;
  const auto a = log.lane("smache", "awake");
  const auto b = log.lane("smache", "awake");
  const auto c = log.lane("dram", "read txn");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(log.lanes().size(), 2u);
  log.add(a, 0, 5);  // disabled: dropped behind the one branch
  EXPECT_TRUE(log.spans().empty());
  log.set_enabled(true);
  log.add(a, 0, 5);
  log.add(c, 2, 2);  // empty interval: dropped
  log.add(c, 7, 3);  // inverted interval: dropped
  ASSERT_EQ(log.spans().size(), 1u);
  EXPECT_EQ(log.spans()[0].lane, a);
  EXPECT_EQ(log.spans()[0].end, 5u);
}

TEST(TraceJson, WellFormedDeterministicAndComplete) {
  SpanLog log;
  log.set_enabled(true);
  const auto m0 = log.lane("smache", "awake");
  const auto m1 = log.lane("dram", "read txn");
  log.add(m0, 0, 10);
  log.add(m1, 3, 8);
  log.add(m0, 12, 15);
  const std::string json = obs::to_trace_json(log);
  expect_balanced_json(json);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"smache-sim\""), std::string::npos);
  // One thread_name metadata event per lane, one X event per span.
  EXPECT_EQ(count_substr(json, "\"thread_name\""), log.lanes().size());
  EXPECT_EQ(count_substr(json, "\"ph\": \"X\""), log.spans().size());
  // ts/dur in cycle-microseconds: the 3-cycle dram span renders exactly.
  EXPECT_NE(json.find("\"ts\": 3, \"dur\": 5"), std::string::npos);
  EXPECT_EQ(obs::to_trace_json(log), json);  // byte-deterministic
}

TEST(TraceJson, EscapesLaneNames) {
  SpanLog log;
  log.set_enabled(true);
  const auto lane = log.lane("we\"ird", "ev\\ent\n");
  log.add(lane, 1, 2);
  const std::string json = obs::to_trace_json(log);
  expect_balanced_json(json);
  EXPECT_NE(json.find("we\\\"ird"), std::string::npos);
  EXPECT_NE(json.find("ev\\\\ent\\n"), std::string::npos);
}

// ---- engine-level cycle attribution ----

TEST(Profile, SmacheAttributionSumsToTotal) {
  const auto init = test_support::random_grid(8, 8, 11);
  EngineOptions opts = EngineOptions::smache();
  opts.profile = true;
  const auto res = Engine(opts).run(small_problem(8, 3), init);
  expect_attribution(res.metrics);
  EXPECT_TRUE(mhas(res.metrics, "sched/module/smache/awake"));
  EXPECT_TRUE(mhas(res.metrics, "sched/module/dram/awake"));
  EXPECT_TRUE(mhas(res.metrics, "sched/module/kernel/awake"));
}

TEST(Profile, BaselineAttributionSumsToTotal) {
  const auto init = test_support::random_grid(8, 8, 12);
  EngineOptions opts = EngineOptions::baseline();
  opts.profile = true;
  const auto res = Engine(opts).run(small_problem(8, 3), init);
  expect_attribution(res.metrics);
  EXPECT_TRUE(mhas(res.metrics, "sched/module/baseline/awake"));
}

TEST(Profile, CascadeDepthTwoAttributionSumsToTotal) {
  ProblemSpec p = small_problem(9, 4);
  p.bc = grid::BoundarySpec::all_open();  // periodic cannot cascade
  const auto init = test_support::random_grid(9, 9, 13);
  EngineOptions opts = EngineOptions::smache();
  opts.profile = true;
  const auto res = Engine(opts).run_cascade(p, init, 2);
  expect_attribution(res.metrics);
  // Cascade registers one kernel module per stage.
  EXPECT_TRUE(mhas(res.metrics, "sched/module/kernel/stage0/awake"));
  EXPECT_TRUE(mhas(res.metrics, "sched/module/kernel/stage1/awake"));
}

TEST(Profile, TiledRunFoldsPerTileSnapshotsDeterministically) {
  ProblemSpec p = small_problem(10, 2);
  p.bc = grid::BoundarySpec::all_open();
  const auto init = test_support::random_grid(10, 10, 14);
  EngineOptions opts = EngineOptions::smache();
  opts.profile = true;
  TilingSpec serial{2, 2, 1, 1};
  TilingSpec threaded{2, 2, 2, 1};
  const auto a = Engine(opts).run_tiled(p, init, serial);
  const auto b = Engine(opts).run_tiled(p, init, threaded);
  // Each tile sub-run satisfies the invariant, so the folded counters
  // (sums across tiles and passes) satisfy it additively.
  expect_attribution(a.metrics);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    EXPECT_EQ(a.metrics[i].path, b.metrics[i].path);
    EXPECT_EQ(a.metrics[i].value, b.metrics[i].value)
        << "thread-count-dependent metric: " << a.metrics[i].path;
  }
}

TEST(Profile, MultiFieldHotspotAttributionSumsToTotal) {
  ProblemSpec p;
  p.height = 8;
  p.width = 8;
  p.shape = sweep::make_stencil("star5");
  p.bc = grid::BoundarySpec::all_open();
  p.kernel = sweep::make_kernel("hotspot");
  p.steps = 2;
  const auto init = sweep::make_input("hotspot-chip", 8, 8, 1, 15);
  EngineOptions opts = EngineOptions::smache();
  opts.profile = true;
  const auto res = Engine(opts).run(p, init);
  expect_attribution(res.metrics);
}

TEST(Profile, ObservabilityNeverPerturbsTheSimulation) {
  const auto init = test_support::random_grid(8, 8, 16);
  const ProblemSpec p = small_problem(8, 3);
  const auto plain = Engine(EngineOptions::smache()).run(p, init);
  EngineOptions opts = EngineOptions::smache();
  opts.profile = true;
  opts.trace = true;
  const auto obs_run = Engine(opts).run(p, init);
  EXPECT_EQ(plain.cycles, obs_run.cycles);
  EXPECT_EQ(plain.warmup_cycles, obs_run.warmup_cycles);
  EXPECT_EQ(plain.dram.read_requests, obs_run.dram.read_requests);
  EXPECT_EQ(plain.dram.words_read, obs_run.dram.words_read);
  EXPECT_EQ(plain.dram.words_written, obs_run.dram.words_written);
  EXPECT_EQ(plain.dram.row_hits, obs_run.dram.row_hits);
  EXPECT_EQ(plain.dram.row_misses, obs_run.dram.row_misses);
  EXPECT_EQ(plain.output, obs_run.output);
  // And the unprofiled run carries no observability payload at all.
  EXPECT_TRUE(plain.metrics.empty());
  EXPECT_TRUE(plain.trace_json.empty());
  EXPECT_FALSE(obs_run.metrics.empty());
  EXPECT_FALSE(obs_run.trace_json.empty());
}

TEST(Profile, StallsAndWatermarksPopulate) {
  const auto init = test_support::random_grid(8, 8, 17);
  EngineOptions opts = EngineOptions::smache();
  opts.profile = true;
  const auto res = Engine(opts).run(small_problem(8, 2), init);
  const auto& m = res.metrics;
  // Stall attribution at the choke points: the gather FSM waits on DRAM
  // data early in every pass.
  EXPECT_GT(mval(m, "smache/stall/dram_wait"), 0u);
  EXPECT_TRUE(mhas(m, "smache/stall/kernel_backpressure"));
  EXPECT_TRUE(mhas(m, "dram/stall/backpressure"));
  // FIFO high-water marks: the kernel input queue saw at least one word.
  EXPECT_GT(mval(m, "kernel/in/hwm"), 0u);
  EXPECT_GT(mval(m, "dram/read_req/hwm"), 0u);
}

TEST(Profile, DramWaitCountsEveryCycleOfTheReadLatency) {
  // Each pass's first cell arrives read_latency cycles after its burst
  // issues, and the gather FSM is blocked on read data for every one of
  // them: a counter of blocked cycles cannot read less than the latency.
  ProblemSpec p = small_problem(8, 1);
  p.shape = grid::StencilShape::von_neumann4();
  p.bc = grid::BoundarySpec::all_open();
  const auto init = test_support::random_grid(8, 8, 21);
  EngineOptions opts = EngineOptions::smache();
  opts.profile = true;
  opts.dram.read_latency = 20;
  const auto res = Engine(opts).run(p, init);
  EXPECT_GE(mval(res.metrics, "smache/stall/dram_wait"), 20u);
}

TEST(Profile, FusedStagesSplitInterstageWaitFromBackpressure) {
  ProblemSpec p = small_problem(9, 4);
  p.bc = grid::BoundarySpec::all_open();
  const auto init = test_support::random_grid(9, 9, 22);
  EngineOptions opts = EngineOptions::smache();
  opts.profile = true;
  // A one-slot write queue backs the chain up into the inter-stage
  // channel, so both inter-stage stalls occur.
  opts.dram.write_queue_depth = 1;
  const auto res = Engine(opts).run_cascade(p, init, 2);
  // Stage 1 waits for stage 0's first results on every pass ...
  EXPECT_GT(mval(res.metrics, "cascade/stall/interstage_wait"), 0u);
  // ... and stage 0's kernel waits while stage 1's input channel is full.
  EXPECT_GT(mval(res.metrics, "cascade/stall/interstage_backpressure"), 0u);
}

// ---- engine-level trace export ----

TEST(Trace, EngineTraceJsonIsWellFormed) {
  const auto init = test_support::random_grid(8, 8, 18);
  EngineOptions opts = EngineOptions::smache();
  opts.trace = true;
  const auto res = Engine(opts).run(small_problem(8, 2), init);
  ASSERT_FALSE(res.trace_json.empty());
  expect_balanced_json(res.trace_json);
  EXPECT_NE(res.trace_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(res.trace_json.find("\"smache-sim\""), std::string::npos);
  EXPECT_NE(res.trace_json.find("read txn"), std::string::npos);
  EXPECT_EQ(count_substr(res.trace_json, "\"thread_name\""), 1u)
      << "DRAM read-transaction lane only";
  EXPECT_GT(count_substr(res.trace_json, "\"ph\": \"X\""), 0u);
}

TEST(Trace, TiledRunsRejectSpanExport) {
  ProblemSpec p = small_problem(10, 1);
  p.bc = grid::BoundarySpec::all_open();
  const auto init = test_support::random_grid(10, 10, 19);
  EngineOptions opts = EngineOptions::smache();
  opts.trace = true;
  EXPECT_THROW((void)Engine(opts).run_tiled(p, init, TilingSpec{2, 2, 1, 1}),
               contract_error);
}

// ---- sweep telemetry ----

SweepSpec tiny_sweep() {
  SweepSpec spec;
  spec.grids = {{8, 8}, {9, 9}};
  spec.steps = {2};
  return spec;
}

TEST(SweepTelemetry, MetricsOptionPopulatesSnapshotsWithoutMovingDigest) {
  const SweepSpec spec = tiny_sweep();
  const auto plain = SweepExecutor(ExecutorOptions{}).run(spec);
  ExecutorOptions with;
  with.metrics = true;
  const auto profiled = SweepExecutor(with).run(spec);
  EXPECT_EQ(SweepExecutor::digest(plain), SweepExecutor::digest(profiled));
  ASSERT_EQ(profiled.size(), plain.size());
  for (const ScenarioResult& r : profiled) {
    ASSERT_TRUE(r.ok) << r.error;
    expect_attribution(r.run.metrics);
  }
  for (const ScenarioResult& r : plain) EXPECT_TRUE(r.run.metrics.empty());
}

TEST(SweepTelemetry, TraceOptionSkipsTiledScenarios) {
  SweepSpec spec = tiny_sweep();
  spec.grids = {{8, 8}};
  spec.tiles = {{1, 1}, {2, 2}};
  spec.boundaries = {"open"};
  ExecutorOptions opts;
  opts.trace = true;
  const auto results = SweepExecutor(opts).run(spec);
  ASSERT_EQ(results.size(), 2u);
  for (const ScenarioResult& r : results) {
    ASSERT_TRUE(r.ok) << r.error;
    const bool untiled = r.scenario.tiles.height == 1 &&
                         r.scenario.tiles.width == 1;
    EXPECT_EQ(!r.run.trace_json.empty(), untiled) << r.scenario.label;
    if (untiled) expect_balanced_json(r.run.trace_json);
  }
}

TEST(SweepTelemetry, ProgressCallbackCountsEveryScenarioOnce) {
  std::vector<SweepProgress> seen;
  ExecutorOptions opts;
  opts.progress = [&seen](const SweepProgress& p) { seen.push_back(p); };
  const auto results = SweepExecutor(opts).run(tiny_sweep());
  // Once after the (empty) prefill, then once per finished scenario.
  ASSERT_EQ(seen.size(), results.size() + 1);
  EXPECT_EQ(seen.front().done, 0u);
  EXPECT_EQ(seen.front().total, results.size());
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].done, seen[i - 1].done + 1);
    EXPECT_EQ(seen[i].total, results.size());
    EXPECT_GE(seen[i].eta_ms, 0.0);
  }
  EXPECT_EQ(seen.back().done, results.size());
  EXPECT_EQ(seen.back().executed, results.size());
  EXPECT_EQ(seen.back().store_hits, 0u);
  EXPECT_EQ(seen.back().failed, 0u);
  EXPECT_EQ(seen.back().skipped, 0u);
}

TEST(SweepTelemetry, StoreCountersTrackHitsMissesAndAppends) {
  namespace fs = std::filesystem;
  const std::string dir = "obs_store_tmp";
  fs::remove_all(dir);
  const SweepSpec spec = tiny_sweep();
  {
    sweep::ResultStore store(dir);
    ExecutorOptions opts;
    opts.store = &store;
    // Cold run: every scenario misses, executes and is journaled.
    (void)SweepExecutor(opts).run(spec);
    auto s = store.stats();
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.appends, 2u);
    EXPECT_EQ(s.hits, 0u);
    // Warm rerun against the same store: pure hits, nothing appended.
    (void)SweepExecutor(opts).run(spec);
    s = store.stats();
    EXPECT_EQ(s.hits, 2u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.appends, 2u);
    EXPECT_EQ(s.retries, 0u);
    EXPECT_EQ(s.dropped, 0u);
  }
  fs::remove_all(dir);
}

TEST(SweepTelemetry, StoreHitAndMetricsColumnsAppearOnlyWhenRequested) {
  ExecutorOptions opts;
  opts.metrics = true;
  const auto results = SweepExecutor(opts).run(tiny_sweep());

  const EmitOptions off;  // defaults: wall-class columns all excluded
  EXPECT_EQ(sweep::emit_json(results, off).find("store_hit"),
            std::string::npos);
  EXPECT_EQ(sweep::emit_json(results, off).find("\"metrics\""),
            std::string::npos);
  EXPECT_EQ(sweep::emit_csv(results, off).find("store_hit"),
            std::string::npos);

  EmitOptions on;
  on.include_wall = true;
  on.include_store_hit = true;
  on.include_metrics = true;
  const std::string json = sweep::emit_json(results, on);
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"store_hit\": false"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\": {"), std::string::npos);
  EXPECT_NE(json.find("sched/cycles/total"), std::string::npos);
  const std::string csv = sweep::emit_csv(results, on);
  EXPECT_NE(csv.find(",wall_ms,store_hit,metrics"), std::string::npos);
  EXPECT_NE(csv.find("sched/cycles/total="), std::string::npos);
}

}  // namespace
}  // namespace smache
