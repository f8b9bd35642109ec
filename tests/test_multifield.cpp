// Multi-field cell layouts end-to-end: the CellLayout guards (overflow,
// field-count bounds, kernel x layout pairing), hash separation between
// layouts, F>1 gather/stitch round-trips, the threaded-vs-serial
// bit-identity wall extended to application workloads (including a
// periodic depth>1 tiled case), smache-vs-baseline-vs-reference agreement
// for FDTD / hotspot / Jacobi across depths, per-top F>1 pins (cycles,
// DRAM counters, output hash, resources and the top's metric snapshot),
// store warm/cold reuse for an F>1 scenario, and the conditional fields
// emission in JSON/CSV reports.
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "core/engine.hpp"
#include "grid/tiling.hpp"
#include "rtl/kernel.hpp"
#include "sweep/emit.hpp"
#include "sweep/executor.hpp"
#include "sweep/spec.hpp"
#include "sweep/store.hpp"
#include "sweep/workloads.hpp"

namespace smache {
namespace {

using grid::BoundarySpec;
using grid::StencilShape;
using grid::TileGeometry;
using grid::TilingLayout;
using grid::TupleElem;
using rtl::KernelSpec;
using sweep::SweepSpec;

constexpr std::size_t kSizeMax = std::numeric_limits<std::size_t>::max();

TupleElem elem(float v) { return {to_word(v), true}; }

/// One registered application workload: kernel + matching input family.
struct AppCase {
  const char* kernel;
  const char* input;
  std::size_t fields;
};

std::vector<AppCase> app_cases() {
  return {{"jacobi", "jacobi-init", 1},
          {"hotspot", "hotspot-chip", 2},
          {"fdtd", "fdtd-cavity", 3}};
}

ProblemSpec app_problem(const AppCase& app, std::size_t h, std::size_t w,
                        BoundarySpec bc, std::size_t steps) {
  ProblemSpec p;
  p.height = h;
  p.width = w;
  p.shape = sweep::make_stencil("star5");
  p.bc = bc;
  p.kernel = sweep::make_kernel(app.kernel);
  p.steps = steps;
  return p;
}

// ---- satellite 1: cells x F overflow guard ----

TEST(MultiFieldGuards, CheckedWordsValidatesFieldCountAndOverflow) {
  EXPECT_EQ((grid::Grid<word_t>::checked_words(3, 4, 2)), 24u);
  EXPECT_EQ((grid::Grid<word_t>::checked_words(5, 7, kMaxFields)),
            5u * 7u * kMaxFields);
  EXPECT_THROW((void)grid::Grid<word_t>::checked_words(3, 4, 0),
               contract_error);
  EXPECT_THROW(
      (void)grid::Grid<word_t>::checked_words(3, 4, kMaxFields + 1),
      contract_error);
  // cells alone fits std::size_t, cells x F wraps — the silent
  // short-allocation this guard exists for.
  EXPECT_THROW(
      (void)grid::Grid<word_t>::checked_words(1, kSizeMax / 2 + 1, 2),
      contract_error);
  // And the plain-cells guard still fires first when h x w itself wraps.
  EXPECT_THROW((void)grid::Grid<word_t>::checked_words(kSizeMax / 2, 3, 1),
               contract_error);
}

TEST(MultiFieldGuards, ProblemValidateRejectsFieldOverflowAndArity) {
  // cells x 3 (fdtd) wraps before the DRAM sizing multiply could.
  ProblemSpec huge = app_problem(app_cases()[2], 1, 2, BoundarySpec::all_open(), 1);
  huge.width = kSizeMax / 2;
  EXPECT_THROW(huge.validate(), contract_error);

  // 13 taps x 3 fields = 39 tuple words > kMaxTuple (32).
  ProblemSpec wide = app_problem(app_cases()[2], 8, 8, BoundarySpec::all_open(), 1);
  wide.shape = sweep::make_stencil("diamond13");
  EXPECT_THROW(wide.validate(), contract_error);

  // Application kernels demand a centre-first tuple; vn4 has no centre.
  ProblemSpec off = app_problem(app_cases()[0], 8, 8, BoundarySpec::all_open(), 1);
  off.shape = StencilShape::von_neumann4();
  EXPECT_THROW(off.validate(), contract_error);
}

TEST(MultiFieldGuards, EngineRejectsLayoutMismatchedInitialGrid) {
  const ProblemSpec p =
      app_problem(app_cases()[1], 6, 6, BoundarySpec::all_open(), 1);
  const auto wrong = sweep::make_input("random", 6, 6, 1, 3);  // F=1 vs F=2
  EXPECT_THROW((void)Engine(EngineOptions::smache()).run(p, wrong),
               contract_error);
  EXPECT_THROW((void)reference_run(p, wrong), contract_error);
}

// ---- satellite 2: hash_grid folds the field count ----

TEST(MultiFieldHash, FieldCountSeparatesLayoutsWithIdenticalWords) {
  std::vector<word_t> words(6 * 8);
  for (std::size_t i = 0; i < words.size(); ++i)
    words[i] = static_cast<word_t>(i * 2654435761u);
  const auto flat = grid::Grid<word_t>::from_words(6, 8, words);
  const auto paired =
      grid::Grid<word_t>::from_words(6, 4, CellLayout{2}, words);
  const auto quads =
      grid::Grid<word_t>::from_words(6, 2, CellLayout{4}, words);
  EXPECT_NE(sweep::hash_grid(flat), sweep::hash_grid(paired));
  EXPECT_NE(sweep::hash_grid(flat), sweep::hash_grid(quads));
  EXPECT_NE(sweep::hash_grid(paired), sweep::hash_grid(quads));
  // Same layout, same words: still deterministic.
  const auto paired2 =
      grid::Grid<word_t>::from_words(6, 4, CellLayout{2}, words);
  EXPECT_EQ(sweep::hash_grid(paired), sweep::hash_grid(paired2));
}

// ---- kernel cell semantics ----

TEST(MultiFieldKernels, HotspotStepAndPowerPassThrough) {
  const KernelSpec spec = KernelSpec::hotspot(0.5f, 0.25f);
  // Tap-major {t, p}: centre {10, 2}, one neighbour {14, 9}.
  const std::vector<TupleElem> tuple = {elem(10.0f), elem(2.0f),
                                        elem(14.0f), elem(9.0f)};
  word_t out[2] = {0, 0};
  rtl::apply_kernel_cells(spec, tuple, 2, out);
  EXPECT_EQ(from_word<float>(out[0]), 10.0f + 0.5f * 4.0f + 0.25f * 2.0f);
  EXPECT_EQ(from_word<float>(out[1]), 2.0f);  // power is static state

  // Invalid neighbours drop out of the Laplacian sum entirely.
  const std::vector<TupleElem> edge = {elem(10.0f), elem(2.0f),
                                       {0, false}, {0, false}};
  rtl::apply_kernel_cells(spec, edge, 2, out);
  EXPECT_EQ(from_word<float>(out[0]), 10.0f + 0.25f * 2.0f);
}

TEST(MultiFieldKernels, FdtdWaveLeapfrogsAndCarriesState) {
  const KernelSpec spec = KernelSpec::fdtd_wave(0.5f);
  // Tap-major {u, u_prev, c2}: centre {1, 0.5, 4}, one neighbour u=3.
  const std::vector<TupleElem> tuple = {elem(1.0f), elem(0.5f), elem(4.0f),
                                        elem(3.0f), elem(7.0f), elem(9.0f)};
  word_t out[3] = {0, 0, 0};
  rtl::apply_kernel_cells(spec, tuple, 3, out);
  // u' = 2u - u_prev + alpha*c2*lap, lap = (3 - 1) = 2.
  EXPECT_EQ(from_word<float>(out[0]), 2.0f - 0.5f + 0.5f * 4.0f * 2.0f);
  EXPECT_EQ(from_word<float>(out[1]), 1.0f);  // u_prev' = u
  EXPECT_EQ(from_word<float>(out[2]), 4.0f);  // material is static
}

TEST(MultiFieldKernels, JacobiAveragesNeighboursWithCentreFallback) {
  const KernelSpec spec = KernelSpec::jacobi();
  const std::vector<TupleElem> tuple = {elem(5.0f), elem(2.0f), elem(4.0f)};
  EXPECT_EQ(from_word<float>(rtl::apply_kernel(spec, tuple)), 3.0f);
  const std::vector<TupleElem> lone = {elem(5.0f), {0, false}, {0, false}};
  EXPECT_EQ(from_word<float>(rtl::apply_kernel(spec, lone)), 5.0f);
}

// ---- satellite 3: tiling x multi-field ----

TEST(MultiFieldTiling, GatherStitchRoundTripsF2AndF3) {
  const struct {
    const char* input;
  } cases[] = {{"hotspot-chip"}, {"fdtd-cavity"}};
  const BoundarySpec bcs[] = {BoundarySpec::all_open(),
                              BoundarySpec::all_periodic(),
                              BoundarySpec::all_mirror()};
  for (const auto& c : cases) {
    const auto src = sweep::make_input(c.input, 9, 7, 1, 77);
    for (const BoundarySpec& bc : bcs) {
      const TilingLayout layout = grid::plan_tiling(
          9, 7, 2, 2, sweep::make_stencil("star5"), bc, 1);
      grid::Grid<word_t> dst(9, 7, src.layout(), 0);
      for (const TileGeometry& t : layout.tiles) {
        const auto sub = grid::gather_tile(src, t, bc);
        EXPECT_EQ(sub.fields(), src.fields());
        grid::stitch_interior(dst, t, sub);
      }
      EXPECT_EQ(dst, src) << c.input;
    }
  }
}

TEST(MultiFieldTiling, ThreadedMatchesSerialIncludingPeriodicDepth2) {
  // Periodic wraps at depth 2 are exactly the pairing CascadeTop rejects
  // standalone — halo tiling is what makes them legal, so the F>1
  // bit-identity wall must cover it.
  const AppCase hotspot = app_cases()[1];
  const ProblemSpec p =
      app_problem(hotspot, 12, 12, BoundarySpec::all_periodic(), 4);
  const auto init = sweep::make_input(hotspot.input, 12, 12, 1, 901);
  const auto golden = reference_run(p, init);
  Engine engine(EngineOptions::smache());
  const TilingSpec serial{2, 2, 1, 2};
  const TilingSpec threaded{2, 2, 4, 2};
  const auto a = engine.run_tiled(p, init, serial);
  const auto b = engine.run_tiled(p, init, threaded);
  ASSERT_TRUE(a.output && b.output);
  EXPECT_EQ(*a.output, *b.output);
  EXPECT_EQ(*a.output, golden);
  EXPECT_EQ(a.cycles, b.cycles);
}

TEST(MultiFieldTiling, Fdtd2x2MeshMatchesReferenceAtBothDepths) {
  const AppCase fdtd = app_cases()[2];
  for (const std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
    const ProblemSpec p =
        app_problem(fdtd, 10, 12, BoundarySpec::all_open(), 4);
    const auto init = sweep::make_input(fdtd.input, 10, 12, 1, 31 + depth);
    const auto golden = reference_run(p, init);
    const auto tiled = Engine(EngineOptions::smache())
                           .run_tiled(p, init, TilingSpec{2, 2, 1, depth});
    ASSERT_TRUE(tiled.output.has_value());
    EXPECT_EQ(*tiled.output, golden) << "depth " << depth;
  }
}

// ---- application workloads vs the golden reference, both archs ----

TEST(MultiFieldEngine, WorkloadsMatchReferenceAcrossArchsAndDepths) {
  for (const AppCase& app : app_cases()) {
    const auto init = sweep::make_input(app.input, 10, 12, 1, 4242);
    ASSERT_EQ(init.fields(), app.fields);

    // Depth 1 through both architectures, with the paper's mixed boundary.
    const ProblemSpec p1 =
        app_problem(app, 10, 12, BoundarySpec::paper_example(), 4);
    const auto golden1 = reference_run(p1, init);
    for (const auto& opts :
         {EngineOptions::smache(), EngineOptions::baseline()}) {
      const auto run = Engine(opts).run(p1, init);
      ASSERT_TRUE(run.output.has_value());
      EXPECT_EQ(*run.output, golden1)
          << app.kernel << " via " << to_string(opts.arch);
    }

    // Depth 2 through the cascade (in-stream boundaries only).
    const ProblemSpec p2 =
        app_problem(app, 10, 12, BoundarySpec::all_open(), 4);
    const auto golden2 = reference_run(p2, init);
    const auto cascade =
        Engine(EngineOptions::smache()).run_cascade(p2, init, 2);
    ASSERT_TRUE(cascade.output.has_value());
    EXPECT_EQ(*cascade.output, golden2) << app.kernel << " cascade d2";
  }
}

// ---- F>1 pins: every top's observable behaviour at F = 2 and F = 3 ----

/// One pinned run: 16x16 star5/open, 2 steps, profiled. `top` selects the
/// design (cascade at depth 2); `wq1` shrinks the DRAM write queue to one
/// slot, the only setting under which the F-word write-back drain is
/// blocked by the write channel.
struct FieldPin {
  const char* top;
  const char* kernel;
  bool wq1;
  std::uint64_t cycles;
  std::uint64_t warmup;
  mem::DramStats dram;
  std::uint64_t output_hash;
  std::uint64_t r_total;
  std::uint64_t b_total;
  // Every "<top>/..." metric, prefix stripped, as "path=value" in path
  // order (keys and values both pinned).
  const char* metrics;
};

RunResult run_pin(const FieldPin& pin) {
  const std::string kernel = pin.kernel;
  ProblemSpec p;
  p.height = 16;
  p.width = 16;
  p.shape = sweep::make_stencil("star5");
  p.bc = BoundarySpec::all_open();
  p.kernel = sweep::make_kernel(kernel);
  p.steps = 2;
  const auto init = sweep::make_input(
      kernel == "hotspot" ? "hotspot-chip" : "fdtd-cavity", 16, 16, 1, 1234);
  const std::string top = pin.top;
  EngineOptions o = top == "baseline" ? EngineOptions::baseline()
                                      : EngineOptions::smache();
  o.profile = true;
  if (pin.wq1) o.dram.write_queue_depth = 1;
  const Engine engine(o);
  return top == "cascade" ? engine.run_cascade(p, init, 2)
                          : engine.run(p, init);
}

std::string top_metrics(const RunResult& r, const std::string& top) {
  const std::string prefix = top + "/";
  std::string out;
  for (const obs::MetricSample& s : r.metrics) {
    if (s.path.compare(0, prefix.size(), prefix) != 0) continue;
    if (!out.empty()) out += ' ';
    out += s.path.substr(prefix.size()) + "=" + std::to_string(s.value);
  }
  return out;
}

TEST(MultiFieldPins, EveryTopAtF2AndF3IsPinned) {
  // Captured before the tops shared one DRAM-facing cell port; the
  // write_queue_depth = 1 rows are the ones with non-zero
  // stall/writeback_backpressure.
  const FieldPin pins[] = {
      {"smache", "hotspot", false, 1117, 0,
       {2, 1024, 1024, 0, 0, 0, 0, 1024},
       0x6047f26a6e4c0599ull, 839, 2048,
       "gather_staging_cycles=512 stall/dram_wait=8 "
       "stall/kernel_backpressure=20 stall/request_backpressure=0 "
       "stall/writeback_backpressure=0 writeback_drain_cycles=512"},
      {"smache", "hotspot", true, 2139, 0,
       {2, 1024, 1024, 0, 0, 0, 0, 1024},
       0x6047f26a6e4c0599ull, 839, 2048,
       "gather_staging_cycles=512 stall/dram_wait=8 "
       "stall/kernel_backpressure=1012 stall/request_backpressure=0 "
       "stall/writeback_backpressure=1022 writeback_drain_cycles=512"},
      {"smache", "fdtd", false, 1665, 0,
       {2, 1536, 1536, 0, 0, 0, 0, 1536},
       0x02e3016f6e10b25cull, 1255, 3072,
       "gather_staging_cycles=1024 stall/dram_wait=8 "
       "stall/kernel_backpressure=40 stall/request_backpressure=0 "
       "stall/writeback_backpressure=0 writeback_drain_cycles=1024"},
      {"smache", "fdtd", true, 3199, 0,
       {2, 1536, 1536, 0, 0, 0, 0, 1536},
       0x02e3016f6e10b25cull, 1255, 3072,
       "gather_staging_cycles=1024 stall/dram_wait=8 "
       "stall/kernel_backpressure=1528 stall/request_backpressure=0 "
       "stall/writeback_backpressure=1534 writeback_drain_cycles=1024"},
      {"cascade", "hotspot", false, 599, 86,
       {1, 512, 512, 0, 0, 0, 0, 512},
       0x6047f26a6e4c0599ull, 1812, 4096,
       "ctrl/stage1/input/hwm=4 gather_staging_cycles=256 "
       "stall/dram_wait=4 stall/interstage_backpressure=3 "
       "stall/interstage_wait=284 "
       "stall/kernel_backpressure=27 stall/request_backpressure=0 "
       "stall/writeback_backpressure=0 writeback_drain_cycles=256"},
      {"cascade", "hotspot", true, 1110, 86,
       {1, 512, 512, 0, 0, 0, 0, 512},
       0x6047f26a6e4c0599ull, 1812, 4096,
       "ctrl/stage1/input/hwm=4 gather_staging_cycles=256 "
       "stall/dram_wait=4 stall/interstage_backpressure=656 "
       "stall/interstage_wait=74 "
       "stall/kernel_backpressure=1167 stall/request_backpressure=0 "
       "stall/writeback_backpressure=511 writeback_drain_cycles=256"},
      {"cascade", "fdtd", false, 890, 121,
       {1, 768, 768, 0, 0, 0, 0, 768},
       0x02e3016f6e10b25cull, 2708, 6144,
       "ctrl/stage1/input/hwm=4 gather_staging_cycles=512 "
       "stall/dram_wait=4 stall/interstage_backpressure=8 "
       "stall/interstage_wait=540 "
       "stall/kernel_backpressure=54 stall/request_backpressure=0 "
       "stall/writeback_backpressure=0 writeback_drain_cycles=512"},
      {"cascade", "fdtd", true, 1657, 121,
       {1, 768, 768, 0, 0, 0, 0, 768},
       0x02e3016f6e10b25cull, 2708, 6144,
       "ctrl/stage1/input/hwm=4 gather_staging_cycles=512 "
       "stall/dram_wait=4 stall/interstage_backpressure=1085 "
       "stall/interstage_wait=122 "
       "stall/kernel_backpressure=1867 stall/request_backpressure=0 "
       "stall/writeback_backpressure=767 writeback_drain_cycles=512"},
      {"baseline", "hotspot", false, 6153, 0,
       {2560, 5120, 1024, 0, 0, 0, 0, 5120},
       0x6047f26a6e4c0599ull, 401, 0,
       "stall/dram_wait=518 stall/request_backpressure=3562 "
       "stall/writeback_backpressure=0 writeback_drain_cycles=512"},
      {"baseline", "hotspot", true, 6155, 0,
       {2560, 5120, 1024, 0, 0, 0, 0, 5120},
       0x6047f26a6e4c0599ull, 401, 0,
       "stall/dram_wait=8 stall/request_backpressure=3562 "
       "stall/writeback_backpressure=512 writeback_drain_cycles=512"},
      {"baseline", "fdtd", false, 9225, 0,
       {2560, 7680, 1536, 0, 0, 0, 0, 7680},
       0x02e3016f6e10b25cull, 593, 0,
       "stall/dram_wait=518 stall/request_backpressure=6620 "
       "stall/writeback_backpressure=0 writeback_drain_cycles=1024"},
      {"baseline", "fdtd", true, 9739, 0,
       {2560, 7680, 1536, 0, 0, 0, 0, 7680},
       0x02e3016f6e10b25cull, 593, 0,
       "stall/dram_wait=8 stall/request_backpressure=7118 "
       "stall/writeback_backpressure=1024 writeback_drain_cycles=1024"},
  };
  for (const FieldPin& pin : pins) {
    const std::string label = std::string(pin.top) + " " + pin.kernel +
                              (pin.wq1 ? " write_queue_depth=1" : "");
    const RunResult r = run_pin(pin);
    ASSERT_TRUE(r.output.has_value()) << label;
    EXPECT_EQ(r.cycles, pin.cycles) << label;
    EXPECT_EQ(r.warmup_cycles, pin.warmup) << label;
    EXPECT_EQ(r.dram, pin.dram) << label;
    EXPECT_EQ(sweep::hash_grid(*r.output), pin.output_hash) << label;
    EXPECT_EQ(r.resources.r_total, pin.r_total) << label;
    EXPECT_EQ(r.resources.b_total, pin.b_total) << label;
    EXPECT_EQ(top_metrics(r, pin.top), pin.metrics) << label;
  }
}

// ---- sweep integration: pairing validation, store reuse, emission ----

SweepSpec hotspot_spec() {
  SweepSpec spec;
  spec.grids = {{8, 8}};
  spec.steps = {2};
  spec.stencils = {"star5"};
  spec.boundaries = {"open"};
  spec.kernels = {"hotspot"};
  spec.inputs = {"hotspot-chip"};
  return spec;
}

TEST(MultiFieldSweep, RejectsMismatchedKernelInputLayouts) {
  SweepSpec spec = hotspot_spec();
  spec.inputs = {"random"};  // F=1 input under an F=2 kernel
  EXPECT_THROW((void)spec.expand(), contract_error);
  spec.kernels = {"average"};
  spec.inputs = {"fdtd-cavity"};  // F=3 input under an F=1 kernel
  EXPECT_THROW((void)spec.expand(), contract_error);
}

TEST(MultiFieldSweep, StoreWarmRunReusesF2Scenario) {
  const std::string dir = "sweep_store_tmp_multifield";
  std::filesystem::remove_all(dir);
  sweep::ExecutorOptions opts;
  opts.verify_reference = true;
  {
    sweep::ResultStore store(dir);
    opts.store = &store;
    const auto cold = sweep::SweepExecutor(opts).run(hotspot_spec());
    ASSERT_EQ(cold.size(), 1u);
    EXPECT_TRUE(cold[0].ok) << cold[0].error;
    EXPECT_TRUE(cold[0].reference_match);
    EXPECT_FALSE(cold[0].from_store);
    const auto warm = sweep::SweepExecutor(opts).run(hotspot_spec());
    ASSERT_EQ(warm.size(), 1u);
    EXPECT_TRUE(warm[0].from_store);
    EXPECT_EQ(sweep::SweepExecutor::digest(cold),
              sweep::SweepExecutor::digest(warm));
    EXPECT_EQ(emit_json(cold), emit_json(warm));
    EXPECT_EQ(emit_csv(cold), emit_csv(warm));
  }
  std::filesystem::remove_all(dir);
}

TEST(MultiFieldEmit, FieldsAppearOnlyForMultiFieldScenarios) {
  SweepSpec flat;
  flat.grids = {{8, 8}};
  flat.steps = {1};
  const auto f1 = sweep::SweepExecutor().run(flat);
  EXPECT_EQ(emit_json(f1).find("\"fields\""), std::string::npos);
  const std::string csv1 = emit_csv(f1);
  EXPECT_EQ(csv1.substr(0, csv1.find('\n')).find("fields"),
            std::string::npos);

  const auto f2 = sweep::SweepExecutor().run(hotspot_spec());
  EXPECT_NE(emit_json(f2).find("\"fields\": 2"), std::string::npos);
  const std::string csv2 = emit_csv(f2);
  const std::string header2 = csv2.substr(0, csv2.find('\n'));
  EXPECT_EQ(header2.rfind(",fields"), header2.size() - 7);
  // Every data row carries the kernel's field count as its last column.
  for (std::size_t pos = csv2.find('\n'); pos + 1 < csv2.size();) {
    const std::size_t end = csv2.find('\n', pos + 1);
    EXPECT_EQ(csv2.substr(end - 2, 2), ",2");
    pos = end;
  }
}

}  // namespace
}  // namespace smache
