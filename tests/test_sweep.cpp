// The sweep subsystem's contract wall:
//   * registry round-trips — every catalogued family resolves by name,
//     seeded families are bit-reproducible, unknown names throw;
//   * cursor/expansion logic — cartesian counts, alias collapsing
//     (baseline ignores impl/threshold, Case-R ignores threshold,
//     elaboration ignores DRAM/input);
//   * malformed-spec rejection — every parser and validator refuses bad
//     input with contract_error instead of guessing;
//   * concurrency determinism — an N-thread sweep over mixed workloads is
//     BYTE-identical (digest, JSON, CSV) to the same sweep at threads=1,
//     including when scenarios fail; this is the executor's core claim;
//   * reference groups — scenarios with equal reference inputs share one
//     input and one golden, and a grouped run equals each scenario run
//     alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "cost/dse.hpp"
#include "sweep/emit.hpp"
#include "sweep/executor.hpp"
#include "sweep/faults.hpp"
#include "sweep/groups.hpp"
#include "sweep/spec.hpp"
#include "sweep/specio.hpp"
#include "sweep/store.hpp"
#include "sweep/workloads.hpp"

namespace smache::sweep {
namespace {

// ---- workload registry ---------------------------------------------------

TEST(WorkloadRegistry, CataloguesAreNonEmptyAndResolvable) {
  EXPECT_GE(stencil_catalogue().size(), 4u);
  EXPECT_GE(boundary_catalogue().size(), 3u);
  EXPECT_GE(input_catalogue().size(), 2u);
  EXPECT_GE(kernel_catalogue().size(), 3u);
  EXPECT_GE(dram_catalogue().size(), 2u);
  for (const auto& f : stencil_catalogue())
    EXPECT_EQ(find_stencil(f.name).name, f.name);
  for (const auto& f : boundary_catalogue())
    EXPECT_EQ(find_boundary(f.name).spec, f.spec);
  for (const auto& f : input_catalogue())
    EXPECT_EQ(find_input(f.name).name, f.name);
  for (const auto& f : kernel_catalogue())
    EXPECT_EQ(find_kernel(f.name).spec.kind, f.spec.kind);
  for (const auto& f : dram_catalogue())
    EXPECT_EQ(find_dram(f.name).name, f.name);
}

TEST(WorkloadRegistry, UnknownNamesThrow) {
  EXPECT_THROW(make_stencil("nope"), contract_error);
  EXPECT_THROW(make_boundary("nope"), contract_error);
  EXPECT_THROW(make_input("nope", 4, 4, 1, 1), contract_error);
  EXPECT_THROW(make_kernel("nope"), contract_error);
  EXPECT_THROW(make_dram("nope"), contract_error);
}

TEST(WorkloadRegistry, StencilFamiliesProduceValidShapes) {
  for (const auto& f : stencil_catalogue()) {
    const grid::StencilShape shape = make_stencil(f.name, 123);
    EXPECT_GE(shape.size(), 3u) << f.name;
    std::set<std::tuple<std::int64_t, std::int64_t, std::int64_t>> seen;
    for (const auto& o : shape.offsets()) seen.insert({o.ds, o.dr, o.dc});
    EXPECT_EQ(seen.size(), shape.size()) << f.name << " has duplicate "
                                            "offsets";
    // Every family fits an 11x11 problem (radius <= 3 by construction);
    // 3D families additionally need a few slices.
    ProblemSpec p;
    p.height = 11;
    p.width = 11;
    if (shape.ds_min() != 0 || shape.ds_max() != 0) p.depth = 4;
    p.shape = shape;
    p.steps = 1;
    EXPECT_NO_THROW(p.validate()) << f.name;
  }
}

TEST(WorkloadRegistry, SeededFamiliesAreReproducible) {
  const auto a = make_stencil("random8", 7);
  const auto b = make_stencil("random8", 7);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.size(), 8u);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.offsets()[i], b.offsets()[i]);
  EXPECT_TRUE(a.contains({0, 0}));

  const auto g1 = make_input("random", 6, 6, 1, 42);
  const auto g2 = make_input("random", 6, 6, 1, 42);
  EXPECT_EQ(g1, g2);
  const auto g3 = make_input("random", 6, 6, 1, 43);
  EXPECT_NE(g1, g3);
}

// ---- cursor / expansion --------------------------------------------------

TEST(SweepSpec, CursorDecodesEveryIndexDistinctly) {
  SweepSpec spec;
  spec.archs = {Architecture::Baseline, Architecture::Smache};
  spec.grids = {{8, 8}, {11, 9}};
  spec.stencils = {"vn4", "moore9"};
  spec.boundaries = {"paper", "island"};
  spec.steps = {1, 2};
  EXPECT_EQ(spec.scenario_count(), 32u);
  std::set<std::string> labels;
  for (std::size_t i = 0; i < spec.scenario_count(); ++i) {
    const Scenario s = spec.scenario_at(i);
    EXPECT_EQ(s.index, i);
    labels.insert(s.label);
  }
  EXPECT_EQ(labels.size(), 32u);  // no aliases in this spec
  EXPECT_EQ(spec.expand().size(), 32u);
  EXPECT_THROW(spec.scenario_at(32), contract_error);
}

TEST(SweepSpec, ExpansionCollapsesAliases) {
  // Baseline ignores impl AND threshold; Case-R ignores threshold: the
  // 2 x 2 x 3 = 12-point cartesian space holds 1 + 1 + 3 distinct runs.
  SweepSpec spec;
  spec.archs = {Architecture::Baseline, Architecture::Smache};
  spec.impls = {model::StreamImpl::RegisterOnly, model::StreamImpl::Hybrid};
  spec.thresholds = {3, 4, 16};
  EXPECT_EQ(spec.scenario_count(), 12u);
  const auto scenarios = spec.expand();
  EXPECT_EQ(scenarios.size(), 5u);
  std::set<std::string> labels;
  for (const auto& s : scenarios) labels.insert(s.label);
  EXPECT_EQ(labels.size(), scenarios.size());
}

TEST(SweepSpec, ElaborationIgnoresDramAndInput) {
  SweepSpec spec;
  spec.mode = Mode::ElaborateOnly;
  spec.drams = {"functional", "ddr"};
  spec.inputs = {"random", "impulse"};
  EXPECT_EQ(spec.scenario_count(), 4u);
  EXPECT_EQ(spec.expand().size(), 1u);
}

TEST(SweepSpec, DepthAliasesToOneForBaselineAndElaboration) {
  // The baseline has no cascade and elaboration runs no passes, so every
  // depth collapses onto the depth-1 point there; only simulated Smache
  // scenarios fan out, and their depth-1 label matches the pre-depth
  // labelling exactly (no /d segment).
  SweepSpec spec;
  spec.archs = {Architecture::Baseline, Architecture::Smache};
  spec.steps = {4};
  spec.depths = {1, 2, 4};
  EXPECT_EQ(spec.scenario_count(), 6u);
  const auto scenarios = spec.expand();
  ASSERT_EQ(scenarios.size(), 4u);  // baseline + smache d1/d2/d4
  for (const auto& s : scenarios) {
    if (s.engine.arch == Architecture::Baseline) {
      EXPECT_EQ(s.depth, 1u);
    }
    if (s.depth > 1)
      EXPECT_NE(s.label.find("/d" + std::to_string(s.depth)),
                std::string::npos)
          << s.label;
    else
      EXPECT_EQ(s.label.find("/d"), std::string::npos) << s.label;
    // Depth is an architecture knob, not part of the workload identity:
    // every depth processes the identical input data.
    EXPECT_EQ(s.seed, scenarios[0].seed) << s.label;
  }

  SweepSpec elab = spec;
  elab.mode = Mode::ElaborateOnly;
  elab.archs = {Architecture::Smache};
  EXPECT_EQ(elab.expand().size(), 1u);
}

TEST(SweepSpec, TilesFanOutForSimulationAndAliasForElaboration) {
  // A tile mesh changes how a simulated scenario executes (both archs run
  // per-tile engine instances), so it fans out there; elaboration runs no
  // passes, so every mesh collapses onto the 1x1 point. The mesh is not
  // part of the workload identity: every tiling sees the same input data.
  SweepSpec spec;
  spec.archs = {Architecture::Baseline, Architecture::Smache};
  spec.steps = {4};
  spec.tiles = {{1, 1}, {2, 2}, {1, 3}};
  EXPECT_EQ(spec.scenario_count(), 6u);
  const auto scenarios = spec.expand();
  ASSERT_EQ(scenarios.size(), 6u);
  for (const auto& s : scenarios) {
    if (s.tiles.height > 1 || s.tiles.width > 1) {
      const std::string seg = "/t" + std::to_string(s.tiles.height) + 'x' +
                              std::to_string(s.tiles.width);
      EXPECT_NE(s.label.find(seg), std::string::npos) << s.label;
    } else {
      EXPECT_EQ(s.label.find("/t"), std::string::npos) << s.label;
    }
    EXPECT_EQ(s.seed, scenarios[0].seed) << s.label;
  }

  SweepSpec elab = spec;
  elab.mode = Mode::ElaborateOnly;
  elab.archs = {Architecture::Smache};
  EXPECT_EQ(elab.expand().size(), 1u);
}

TEST(SweepSpec, RejectsTilesExceedingTheGrid) {
  // More tiles than cells along an axis can never plan, for any boundary
  // or stencil — that is a spec-shape error, rejected up front (geometry
  // failures that depend on the stencil stay per-scenario runtime errors).
  SweepSpec spec;
  spec.grids = {{8, 8}};
  spec.tiles = {{9, 1}};
  try {
    spec.expand();
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the grid extent"),
              std::string::npos)
        << e.what();
  }
}

TEST(SweepSpec, RejectsIndivisibleStepsDepthPairings) {
  SweepSpec spec;
  spec.steps = {3};
  spec.depths = {2};
  try {
    spec.validate();
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("not a multiple of cascade depth"),
              std::string::npos)
        << e.what();
  }
  // The check applies to the RAW pairing even where depth would alias
  // away (baseline-only sweeps included): a malformed spec is rejected,
  // never reinterpreted.
  spec.archs = {Architecture::Baseline};
  EXPECT_THROW(spec.validate(), contract_error);
  {
    SweepSpec zero;
    zero.depths = {0};
    EXPECT_THROW(zero.validate(), contract_error);
  }
  {
    SweepSpec mixed;  // every steps x depths pairing must divide
    mixed.steps = {4, 6};
    mixed.depths = {1, 2, 4};
    EXPECT_THROW(mixed.validate(), contract_error);  // 6 % 4 != 0
    mixed.steps = {4, 8};
    EXPECT_NO_THROW(mixed.validate());
  }
}

TEST(SweepSpec, SeedsAreLabelStableAndDistinct) {
  SweepSpec spec;
  spec.stencils = {"vn4", "moore9"};
  const auto a = spec.expand();
  // Adding an unrelated dimension entry must not change existing seeds.
  SweepSpec wider = spec;
  wider.stencils = {"vn4", "moore9", "diamond13"};
  const auto b = wider.expand();
  ASSERT_GE(b.size(), a.size());
  for (const auto& s : a) {
    const auto match =
        std::find_if(b.begin(), b.end(), [&](const Scenario& w) {
          return w.label == s.label;
        });
    ASSERT_NE(match, b.end()) << s.label;
    EXPECT_EQ(match->seed, s.seed) << s.label;
  }
  EXPECT_NE(b[0].seed, b[1].seed);
  // A different base seed moves every scenario seed.
  SweepSpec reseeded = spec;
  reseeded.base_seed = 999;
  EXPECT_NE(reseeded.expand()[0].seed, a[0].seed);
}

TEST(SweepSpec, SeedsAreWorkloadIdentityScoped) {
  // Scenarios that differ only in architecture / impl / threshold / DRAM
  // model run the IDENTICAL workload: same seed (so the same input grid)
  // and, for seeded stencil families, the same materialised shape.
  SweepSpec spec;
  spec.archs = {Architecture::Baseline, Architecture::Smache};
  spec.thresholds = {3, 16};
  spec.drams = {"functional", "ddr"};
  spec.stencils = {"random8"};
  const auto scenarios = spec.expand();
  ASSERT_GE(scenarios.size(), 3u);  // baseline, hyb-t3, hyb-t16 x drams
  for (const auto& s : scenarios) {
    EXPECT_EQ(s.seed, scenarios[0].seed) << s.label;
    ASSERT_EQ(s.problem.shape.size(), scenarios[0].problem.shape.size());
    for (std::size_t i = 0; i < s.problem.shape.size(); ++i)
      EXPECT_EQ(s.problem.shape.offsets()[i],
                scenarios[0].problem.shape.offsets()[i])
          << s.label;
  }
}

// ---- malformed specs -----------------------------------------------------

TEST(SweepSpec, RejectsMalformedSpecs) {
  {
    SweepSpec s;
    s.stencils = {"does-not-exist"};
    EXPECT_THROW(s.validate(), contract_error);
  }
  {
    SweepSpec s;
    s.boundaries.clear();
    EXPECT_THROW(s.validate(), contract_error);
  }
  {
    SweepSpec s;
    s.thresholds = {2};  // unplannable
    EXPECT_THROW(s.validate(), contract_error);
  }
  {
    SweepSpec s;
    s.steps = {0};
    EXPECT_THROW(s.validate(), contract_error);
  }
  {
    SweepSpec s;  // Moore-layout kernel with a non-Moore shape
    s.kernels = {"gaussian3x3"};
    s.stencils = {"vn4"};
    EXPECT_THROW(s.validate(), contract_error);
  }
  {
    SweepSpec s;  // grid smaller than the stencil's span
    s.stencils = {"cross3"};
    s.grids = {{6, 6}};
    EXPECT_THROW(s.validate(), contract_error);
  }
  {
    SweepSpec s;  // Moore kernel paired correctly is fine
    s.kernels = {"gaussian3x3"};
    s.stencils = {"moore9"};
    EXPECT_NO_THROW(s.validate());
  }
}

TEST(SweepSpec, ParsersRejectMalformedTokens) {
  EXPECT_THROW(split_list("a,,b"), contract_error);
  EXPECT_THROW(split_list("a,"), contract_error);
  EXPECT_EQ(split_list("").size(), 0u);
  EXPECT_EQ(split_list("a,b,c").size(), 3u);
  EXPECT_THROW(parse_arch("fpga"), contract_error);
  EXPECT_THROW(parse_impl("bram"), contract_error);
  EXPECT_THROW(parse_mode("fast"), contract_error);
  EXPECT_THROW(parse_count("0", "count"), contract_error);
  EXPECT_THROW(parse_count("-3", "count"), contract_error);
  EXPECT_THROW(parse_count("12abc", "count"), contract_error);
  EXPECT_THROW(parse_grid("4x"), contract_error);
  EXPECT_THROW(parse_grid("x4"), contract_error);
  EXPECT_THROW(parse_grid("abc"), contract_error);
  EXPECT_EQ(parse_grid("16").height, 16u);
  EXPECT_EQ(parse_grid("16x24").width, 24u);
}

TEST(SweepSpec, ParseU64CoversTheFullDomain) {
  // Seeds use all 64 bits (zero included) — the CLI must not funnel them
  // through a signed or narrower type.
  EXPECT_EQ(parse_u64("0", "seed"), 0u);
  EXPECT_EQ(parse_u64("1", "seed"), 1u);
  EXPECT_EQ(parse_u64("9223372036854775808", "seed"),
            0x8000000000000000ull);  // 2^63: overflows int64
  EXPECT_EQ(parse_u64("18446744073709551615", "seed"), ~0ull);
  EXPECT_THROW(parse_u64("18446744073709551616", "seed"), contract_error);
  EXPECT_THROW(parse_u64("", "seed"), contract_error);
  EXPECT_THROW(parse_u64("-1", "seed"), contract_error);
  EXPECT_THROW(parse_u64("+3", "seed"), contract_error);
  EXPECT_THROW(parse_u64("12 ", "seed"), contract_error);
  EXPECT_THROW(parse_u64("0x10", "seed"), contract_error);
}

// ---- spec save/load ------------------------------------------------------

TEST(SpecIo, EmitParseRoundTripsExactly) {
  SweepSpec spec;
  spec.archs = {Architecture::Smache, Architecture::Baseline};
  spec.impls = {model::StreamImpl::Hybrid, model::StreamImpl::RegisterOnly};
  spec.thresholds = {3, 4};
  spec.grids = {{11, 11}, {16, 24}};
  spec.drams = {"functional", "stall"};
  spec.steps = {4};
  spec.depths = {1, 2, 4};
  spec.tiles = {{1, 1}, {2, 3}};
  spec.stencils = {"vn4", "random5"};
  spec.boundaries = {"open", "island"};
  spec.kernels = {"average", "max"};
  spec.inputs = {"impulse"};
  spec.base_seed = 0xDEADBEEFCAFEF00Dull;   // needs the full u64 domain
  spec.max_cycles = 3'000'000'000ull;       // above 2^31
  const std::string json = emit_spec_json(spec);
  const SweepSpec loaded = parse_spec_json(json);
  // Byte-exact re-emission, and the same expansion: labels, seeds, depths.
  EXPECT_EQ(emit_spec_json(loaded), json);
  const auto a = spec.expand();
  const auto b = loaded.expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].depth, b[i].depth);
    EXPECT_EQ(a[i].tiles.height, b[i].tiles.height);
    EXPECT_EQ(a[i].tiles.width, b[i].tiles.width);
  }
}

TEST(SpecIo, ReloadedSpecReproducesTheDigest) {
  SweepSpec spec;
  spec.grids = {{8, 8}};
  spec.steps = {2};
  spec.depths = {1, 2};
  spec.boundaries = {"open"};
  const auto original = SweepExecutor().run(spec);
  const auto reloaded =
      SweepExecutor().run(parse_spec_json(emit_spec_json(spec)));
  EXPECT_EQ(SweepExecutor::digest(original),
            SweepExecutor::digest(reloaded));
  EXPECT_EQ(emit_json(original), emit_json(reloaded));
  EXPECT_EQ(emit_csv(original), emit_csv(reloaded));
}

TEST(SpecIo, OmittedKeysKeepDefaults) {
  const SweepSpec defaults;
  EXPECT_EQ(emit_spec_json(parse_spec_json("{}")),
            emit_spec_json(defaults));
  const SweepSpec partial =
      parse_spec_json("{\"steps\": [6], \"depths\": [2, 3]}");
  EXPECT_EQ(partial.steps, (std::vector<std::size_t>{6}));
  EXPECT_EQ(partial.depths, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(partial.stencils, defaults.stencils);
  EXPECT_EQ(partial.base_seed, defaults.base_seed);
}

TEST(SpecIo, RejectsMalformedSpecJson) {
  EXPECT_THROW(parse_spec_json(""), contract_error);
  EXPECT_THROW(parse_spec_json("[]"), contract_error);
  EXPECT_THROW(parse_spec_json("{\"nope\": 1}"), contract_error);
  EXPECT_THROW(parse_spec_json("{\"mode\": \"sim\", \"mode\": \"sim\"}"),
               contract_error);  // duplicate key
  EXPECT_THROW(parse_spec_json("{\"mode\": \"fast\"}"), contract_error);
  EXPECT_THROW(parse_spec_json("{\"steps\": [0]}"), contract_error);
  EXPECT_THROW(parse_spec_json("{\"steps\": [-1]}"), contract_error);
  EXPECT_THROW(parse_spec_json("{\"steps\": [1,]}"), contract_error);
  EXPECT_THROW(parse_spec_json("{\"steps\": 3}"), contract_error);
  EXPECT_THROW(parse_spec_json("{\"grids\": [\"4x\"]}"), contract_error);
  EXPECT_THROW(parse_spec_json("{\"base_seed\": 18446744073709551616}"),
               contract_error);  // overflow
  EXPECT_THROW(parse_spec_json("{\"max_cycles\": 0}"), contract_error);
  EXPECT_THROW(parse_spec_json("{\"smache_sweep_spec\": 2}"),
               contract_error);  // unsupported version
  EXPECT_THROW(parse_spec_json("{} trailing"), contract_error);
  EXPECT_THROW(parse_spec_json("{\"mode\": \"si"), contract_error);
  EXPECT_THROW(parse_spec_json("{\"mode\": \"s\\im\"}"), contract_error);
}

TEST(SpecIo, FileRoundTripThroughDisk) {
  SweepSpec spec;
  spec.steps = {6};
  spec.depths = {1, 3};
  spec.boundaries = {"open"};
  const std::string path = "specio_roundtrip_tmp.json";
  save_spec_file(spec, path);
  const SweepSpec loaded = load_spec_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(emit_spec_json(loaded), emit_spec_json(spec));
  try {
    (void)load_spec_file("does/not/exist.json");
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("does/not/exist.json"),
              std::string::npos);
  }
}

TEST(SpecIo, StoreKeyRoundTripsAndValidates) {
  SweepSpec spec;
  spec.store_dir = "results/store";
  const std::string json = emit_spec_json(spec);
  EXPECT_NE(json.find("\"store\": \"results/store\""), std::string::npos);
  EXPECT_EQ(parse_spec_json(json).store_dir, "results/store");
  // Store-less specs omit the key entirely (byte-compatible with files
  // saved before it existed), and an empty value is rejected, not treated
  // as "no store".
  spec.store_dir.clear();
  EXPECT_EQ(emit_spec_json(spec).find("\"store\""), std::string::npos);
  EXPECT_THROW(parse_spec_json("{\"store\": \"\"}"), contract_error);
}

// ---- executor determinism ------------------------------------------------

SweepSpec mixed_spec() {
  SweepSpec spec;
  spec.grids = {{8, 8}, {11, 9}};
  spec.steps = {2};
  spec.stencils = {"vn4", "moore9", "random5"};
  spec.boundaries = {"paper", "striped", "quadrant", "island"};
  return spec;  // 2 x 3 x 4 = 24 scenario points
}

TEST(SweepExecutor, ThreadedSweepIsBitIdenticalToSerial) {
  const SweepSpec spec = mixed_spec();
  const auto serial = SweepExecutor({.threads = 1}).run(spec);
  const auto threaded = SweepExecutor({.threads = 4}).run(spec);
  ASSERT_EQ(serial.size(), 24u);
  ASSERT_EQ(threaded.size(), 24u);
  EXPECT_EQ(SweepExecutor::digest(serial), SweepExecutor::digest(threaded));
  // Byte-level: the emitted reports (wall times excluded) must be equal.
  EXPECT_EQ(emit_json(serial), emit_json(threaded));
  EXPECT_EQ(emit_csv(serial), emit_csv(threaded));
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].ok) << serial[i].error;
    EXPECT_EQ(serial[i].scenario.label, threaded[i].scenario.label);
    EXPECT_EQ(serial[i].run.cycles, threaded[i].run.cycles);
    EXPECT_EQ(serial[i].output_hash, threaded[i].output_hash);
  }
}

TEST(SweepExecutor, DigestIsPinned) {
  // The digest's field set and mixing order, pinned over both archs, a
  // cascade depth and a tile mesh: committed reports quote this value.
  // The sweep is failure-free on purpose — captured error strings embed
  // source locations.
  SweepSpec spec;
  spec.archs = {Architecture::Smache, Architecture::Baseline};
  spec.grids = {{8, 8}};
  spec.steps = {2};
  spec.depths = {1, 2};
  spec.tiles = {{1, 1}, {2, 2}};
  spec.boundaries = {"open", "island"};
  ExecutorOptions opts;
  opts.verify_reference = true;
  const auto results = SweepExecutor(opts).run(spec);
  ASSERT_EQ(results.size(), 12u);
  for (const ScenarioResult& r : results) {
    ASSERT_TRUE(r.ok) << r.scenario.label << ": " << r.error;
    EXPECT_TRUE(r.reference_match) << r.scenario.label;
  }
  EXPECT_EQ(SweepExecutor::digest(results), 0x5b85d6e9d80deeddull);
}

TEST(SweepExecutor, MatchesADirectEngineRun) {
  SweepSpec spec;
  spec.grids = {{11, 11}};
  spec.steps = {3};
  const auto results = SweepExecutor().run(spec);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok) << results[0].error;
  const Scenario& s = results[0].scenario;
  const auto init =
      make_input(s.input, s.problem.height, s.problem.width,
                 s.problem.depth, s.seed);
  const RunResult direct = Engine(s.engine).run(s.problem, init);
  EXPECT_EQ(results[0].run.cycles, direct.cycles);
  EXPECT_EQ(results[0].run.dram.words_read, direct.dram.words_read);
  EXPECT_EQ(results[0].output_hash, hash_grid(*direct.output));
  // Bulky per-scenario state is dropped by default and kept on request —
  // the drop is unambiguous (an empty optional, not a placeholder grid a
  // consumer could mistake for a real 1x1 result).
  EXPECT_FALSE(results[0].run.output.has_value());
  EXPECT_EQ(results[0].run.plan, nullptr);
  ExecutorOptions keep;
  keep.keep_outputs = true;
  const auto kept = SweepExecutor(keep).run(spec);
  EXPECT_EQ(kept[0].run.output, direct.output);
}

TEST(SweepExecutor, DepthSweepIsBitIdenticalToSerial) {
  // Threaded-vs-serial bit-identity with cascade depth in the grid: the
  // executor's core contract must hold when scenarios route through
  // Engine::run_cascade.
  SweepSpec spec;
  spec.grids = {{8, 8}, {10, 10}};
  spec.steps = {4};
  spec.depths = {1, 2, 4};
  spec.stencils = {"vn4", "random5"};
  spec.boundaries = {"open", "island", "quadrant"};
  const auto serial = SweepExecutor({.threads = 1}).run(spec);
  const auto threaded = SweepExecutor({.threads = 4}).run(spec);
  ASSERT_EQ(serial.size(), 36u);  // 2 x 3 x 2 x 3, no aliases
  EXPECT_EQ(SweepExecutor::digest(serial), SweepExecutor::digest(threaded));
  EXPECT_EQ(emit_json(serial), emit_json(threaded));
  EXPECT_EQ(emit_csv(serial), emit_csv(threaded));
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].ok) << serial[i].error;
    EXPECT_EQ(serial[i].run.cycles, threaded[i].run.cycles);
    EXPECT_EQ(serial[i].output_hash, threaded[i].output_hash);
  }
}

TEST(SweepExecutor, DepthScenarioMatchesDirectCascadeRun) {
  SweepSpec spec;
  spec.grids = {{10, 10}};
  spec.steps = {4};
  spec.depths = {2};
  spec.boundaries = {"open"};
  const auto results = SweepExecutor().run(spec);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok) << results[0].error;
  const Scenario& s = results[0].scenario;
  EXPECT_EQ(s.depth, 2u);
  const auto init =
      make_input(s.input, s.problem.height, s.problem.width,
                 s.problem.depth, s.seed);
  const RunResult direct = Engine(s.engine).run_cascade(s.problem, init, 2);
  EXPECT_EQ(results[0].run.cycles, direct.cycles);
  EXPECT_EQ(results[0].run.dram.words_read, direct.dram.words_read);
  EXPECT_EQ(results[0].run.dram.words_written, direct.dram.words_written);
  EXPECT_EQ(results[0].output_hash, hash_grid(*direct.output));
  // The cascade populates warmup (pipeline fill), and the sweep carries it.
  EXPECT_GT(direct.warmup_cycles, 0u);
  EXPECT_EQ(results[0].run.warmup_cycles, direct.warmup_cycles);
  // The fused passes still compute the same answer as the K-step engine.
  const RunResult flat = Engine(s.engine).run(s.problem, init);
  EXPECT_EQ(hash_grid(*flat.output), results[0].output_hash);
}

TEST(SweepExecutor, TiledScenarioMatchesDirectTiledRun) {
  SweepSpec spec;
  spec.grids = {{12, 12}};
  spec.steps = {4};
  spec.tiles = {{2, 2}};
  spec.boundaries = {"open"};
  const auto results = SweepExecutor().run(spec);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok) << results[0].error;
  const Scenario& s = results[0].scenario;
  EXPECT_EQ(s.tiles.height, 2u);
  EXPECT_EQ(s.tiles.width, 2u);
  const auto init =
      make_input(s.input, s.problem.height, s.problem.width,
                 s.problem.depth, s.seed);
  TilingSpec tiling;
  tiling.tiles_r = 2;
  tiling.tiles_c = 2;
  const RunResult direct = Engine(s.engine).run_tiled(s.problem, init, tiling);
  EXPECT_EQ(results[0].run.cycles, direct.cycles);
  EXPECT_EQ(results[0].run.dram.words_read, direct.dram.words_read);
  EXPECT_EQ(results[0].output_hash, hash_grid(*direct.output));
  // Tiling redundantly recomputes halos but never changes the answer: the
  // tiled scenario hashes identically to the untiled one.
  SweepSpec flat = spec;
  flat.tiles = {{1, 1}};
  const auto untiled = SweepExecutor().run(flat);
  ASSERT_EQ(untiled.size(), 1u);
  EXPECT_EQ(untiled[0].output_hash, results[0].output_hash);
}

TEST(SweepExecutor, TiledSweepIsBitIdenticalToSerial) {
  // Threaded-vs-serial bit-identity with the tile mesh in the grid AND
  // intra-scenario tile threads enabled: nesting the executor pool with
  // per-scenario tile pools must stay deterministic.
  SweepSpec spec;
  spec.grids = {{11, 11}};
  spec.steps = {4};
  spec.depths = {1, 2};
  spec.tiles = {{1, 1}, {2, 2}};
  spec.stencils = {"vn4", "moore9"};
  spec.boundaries = {"open", "circular"};
  ExecutorOptions serial_opts;
  serial_opts.threads = 1;
  ExecutorOptions threaded_opts;
  threaded_opts.threads = 4;
  threaded_opts.tile_threads = 2;
  const auto serial = SweepExecutor(serial_opts).run(spec);
  const auto threaded = SweepExecutor(threaded_opts).run(spec);
  ASSERT_EQ(serial.size(), 16u);  // 2 depths x 2 tiles x 2 x 2
  EXPECT_EQ(SweepExecutor::digest(serial), SweepExecutor::digest(threaded));
  EXPECT_EQ(emit_json(serial), emit_json(threaded));
  EXPECT_EQ(emit_csv(serial), emit_csv(threaded));
  // circular (periodic) at depth 2 is a validated rejection untiled and
  // when the mesh leaves an axis unsplit; 2x2 tiling makes it RUN — the
  // headline capability. Both legs must agree on every ok/error.
  bool saw_tiled_periodic_depth = false;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].ok, threaded[i].ok);
    EXPECT_EQ(serial[i].error, threaded[i].error);
    EXPECT_EQ(serial[i].output_hash, threaded[i].output_hash);
    const Scenario& s = serial[i].scenario;
    if (s.boundary == "circular" && s.depth == 2 && s.tiles.height == 2) {
      EXPECT_TRUE(serial[i].ok) << serial[i].error;
      saw_tiled_periodic_depth = true;
    }
  }
  EXPECT_TRUE(saw_tiled_periodic_depth);
}

TEST(SweepExecutor, ThreadedRunsShareEachDesignsPlanExactly) {
  // 48 scenarios over 4 designs (2 stencils x 2 grids), plus the tiled
  // runs' sub-designs: sweep workers and tile threads look up, plan and
  // read the engine's shared plans concurrently. The threaded run goes
  // first so that its workers race on the first plan of each design.
  SweepSpec spec;
  spec.grids = {{12, 12}, {16, 10}};
  spec.steps = {2};
  spec.tiles = {{1, 1}, {2, 2}};
  spec.stencils = {"vn4", "moore9"};
  spec.boundaries = {"paper"};
  spec.inputs = {"random", "gradient"};
  spec.drams = {"functional", "ddr", "stall"};
  ExecutorOptions threaded_opts;
  threaded_opts.threads = 4;
  threaded_opts.tile_threads = 2;
  threaded_opts.keep_outputs = true;
  const auto threaded = SweepExecutor(threaded_opts).run(spec);
  const auto serial = SweepExecutor({.threads = 1}).run(spec);
  ASSERT_EQ(threaded.size(), 48u);
  EXPECT_EQ(SweepExecutor::digest(serial), SweepExecutor::digest(threaded));
  for (const auto& r : threaded) {
    ASSERT_TRUE(r.ok) << r.scenario.label << ": " << r.error;
    const Scenario& s = r.scenario;
    const auto init = make_input(s.input, s.problem.height, s.problem.width,
                                 s.problem.depth, s.seed);
    EXPECT_EQ(r.run.output, reference_run(s.problem, init)) << s.label;
  }
}

TEST(SweepExecutor, DepthVerifiesAgainstTheReferenceAcrossFusedPasses) {
  SweepSpec spec;
  spec.grids = {{8, 8}};
  spec.steps = {6};
  spec.depths = {2, 3};
  spec.stencils = {"vn4", "moore9"};
  spec.boundaries = {"open", "island"};
  ExecutorOptions opts;
  opts.threads = 2;
  opts.verify_reference = true;
  const auto results = SweepExecutor(opts).run(spec);
  ASSERT_EQ(results.size(), 8u);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok) << r.scenario.label << ": " << r.error;
    EXPECT_TRUE(r.reference_checked);
    EXPECT_TRUE(r.reference_match) << r.scenario.label;
  }
}

TEST(SweepExecutor, PeriodicBoundaryWithDepthFailsDeterministically) {
  // Periodic wraps cannot fuse within a pass (their data does not exist
  // yet); such scenarios are captured as per-scenario errors — the sweep
  // completes, stays deterministic, and the error text explains the why.
  SweepSpec spec;
  spec.grids = {{8, 8}};
  spec.steps = {2};
  spec.depths = {2};
  spec.boundaries = {"paper", "circular", "open"};
  const auto serial = SweepExecutor({.threads = 1}).run(spec);
  const auto threaded = SweepExecutor({.threads = 3}).run(spec);
  ASSERT_EQ(serial.size(), 3u);
  for (const auto& r : serial) {
    if (r.scenario.boundary == "open") {
      EXPECT_TRUE(r.ok) << r.error;
    } else {
      EXPECT_FALSE(r.ok) << r.scenario.label;
      EXPECT_NE(r.error.find("in-stream"), std::string::npos) << r.error;
    }
  }
  EXPECT_EQ(SweepExecutor::digest(serial), SweepExecutor::digest(threaded));
  EXPECT_EQ(emit_json(serial), emit_json(threaded));
}

TEST(SweepExecutor, VerifiesAgainstTheGoldenReference) {
  SweepSpec spec = mixed_spec();
  spec.grids = {{8, 8}};  // trim: 12 scenarios are plenty here
  ExecutorOptions opts;
  opts.threads = 2;
  opts.verify_reference = true;
  for (const auto& r : SweepExecutor(opts).run(spec)) {
    ASSERT_TRUE(r.ok) << r.scenario.label << ": " << r.error;
    EXPECT_TRUE(r.reference_checked);
    EXPECT_TRUE(r.reference_match) << r.scenario.label;
  }
}

TEST(SweepExecutor, CapturesFailuresDeterministically) {
  SweepSpec spec = mixed_spec();
  spec.max_cycles = 10;  // watchdog trips every scenario
  const auto serial = SweepExecutor({.threads = 1}).run(spec);
  const auto threaded = SweepExecutor({.threads = 4}).run(spec);
  for (const auto& r : serial) {
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("max_cycles"), std::string::npos) << r.error;
  }
  EXPECT_EQ(SweepExecutor::digest(serial), SweepExecutor::digest(threaded));
  EXPECT_EQ(emit_json(serial), emit_json(threaded));
}

TEST(SweepExecutor, ElaborationSweepRunsThreaded) {
  SweepSpec spec;
  spec.mode = Mode::ElaborateOnly;
  spec.impls = {model::StreamImpl::RegisterOnly, model::StreamImpl::Hybrid};
  spec.thresholds = {3, 4, 16};
  spec.grids = {{11, 11}, {64, 64}};
  const auto serial = SweepExecutor({.threads = 1}).run(spec);
  const auto threaded = SweepExecutor({.threads = 3}).run(spec);
  ASSERT_EQ(serial.size(), 8u);  // (reg + 3 hybrid) x 2 grids
  EXPECT_EQ(SweepExecutor::digest(serial), SweepExecutor::digest(threaded));
  for (const auto& r : serial) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.run.cycles, 0u);
    EXPECT_GT(r.run.resources.r_total, 0u);
  }
}

// ---- reference groups ----------------------------------------------------

std::vector<std::size_t> all_positions(std::size_t n) {
  std::vector<std::size_t> positions(n);
  for (std::size_t i = 0; i < n; ++i) positions[i] = i;
  return positions;
}

Scenario group_base() {
  SweepSpec spec;
  spec.grids = {{8, 8}};
  spec.steps = {2};
  spec.boundaries = {"open"};
  return spec.scenario_at(0);
}

TEST(ReferenceGroups, DesignAxesShareAGroup) {
  const Scenario base = group_base();
  std::vector<Scenario> list = {base};
  const auto add = [&](const char* what, auto&& edit) {
    Scenario s = base;
    edit(s);
    EXPECT_TRUE(same_reference(base, s)) << what;
    list.push_back(s);
  };
  add("arch", [](Scenario& s) { s.engine.arch = Architecture::Baseline; });
  add("impl", [](Scenario& s) {
    s.engine.stream_impl = model::StreamImpl::RegisterOnly;
  });
  add("threshold", [](Scenario& s) { s.engine.bram_segment_threshold = 16; });
  add("dram", [](Scenario& s) {
    s.dram = "ddr";
    s.engine.dram = make_dram("ddr");
  });
  add("depth", [](Scenario& s) { s.depth = 2; });
  add("tiles", [](Scenario& s) { s.tiles = {2, 2}; });
  // Equal offsets under another name, and another label: the group key is
  // the reference inputs themselves, not the text that names them.
  add("stencil name", [](Scenario& s) {
    s.problem.shape =
        grid::StencilShape::custom("renamed", s.problem.shape.offsets());
    s.stencil = "renamed";
    s.label += "/renamed";
  });
  const auto groups = reference_groups(list, all_positions(list.size()));
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], all_positions(list.size()));
}

TEST(ReferenceGroups, WorkloadAxesNeverShareAGroup) {
  const Scenario base = group_base();
  const auto differs = [&](const char* what, auto&& edit) {
    Scenario s = base;
    edit(s);
    EXPECT_FALSE(same_reference(base, s)) << what;
    EXPECT_FALSE(same_reference(s, base)) << what;
    const auto groups = reference_groups({base, s}, {0, 1});
    ASSERT_EQ(groups.size(), 2u) << what;
    EXPECT_EQ(groups[0], std::vector<std::size_t>{0}) << what;
    EXPECT_EQ(groups[1], std::vector<std::size_t>{1}) << what;
  };
  differs("height", [](Scenario& s) { s.problem.height = 9; });
  differs("width", [](Scenario& s) { s.problem.width = 9; });
  differs("depth", [](Scenario& s) { s.problem.depth = 2; });
  differs("steps", [](Scenario& s) { s.problem.steps = 4; });
  differs("offsets", [](Scenario& s) {
    s.problem.shape = make_stencil("plus5");
  });
  differs("offset order", [](Scenario& s) {
    std::vector<grid::Offset2> offsets = s.problem.shape.offsets();
    std::reverse(offsets.begin(), offsets.end());
    s.problem.shape = grid::StencilShape::custom(s.stencil, offsets);
  });
  differs("boundary", [](Scenario& s) {
    s.problem.bc = make_boundary("mirror");
  });
  differs("halo constant", [](Scenario& s) {
    s.problem.bc = grid::BoundarySpec{grid::AxisBoundary::constant_halo(1),
                                      grid::AxisBoundary::open()};
  });
  differs("kernel", [](Scenario& s) { s.problem.kernel = make_kernel("sum"); });
  differs("kernel value type", [](Scenario& s) {
    s.problem.kernel = rtl::KernelSpec::average_float();
  });
  differs("input", [](Scenario& s) { s.input = "gradient"; });
  differs("seed", [](Scenario& s) { ++s.seed; });

  // Kernel coefficients compare bit for bit.
  Scenario zero = base;
  zero.problem.kernel = rtl::KernelSpec::diffusion(0.0f);
  Scenario other = zero;
  other.problem.kernel = rtl::KernelSpec::diffusion(0.25f);
  EXPECT_FALSE(same_reference(zero, other));
  other.problem.kernel = rtl::KernelSpec::upwind(0.0f, 0.25f);
  EXPECT_FALSE(same_reference(zero, other));
  other.problem.kernel = rtl::KernelSpec::diffusion(-0.0f);
  EXPECT_FALSE(same_reference(zero, other));
  other.problem.kernel = rtl::KernelSpec::diffusion(0.0f);
  EXPECT_TRUE(same_reference(zero, other));
}

TEST(ReferenceGroups, PerfbenchShapesPinTheOracleCallsPerPass) {
  // The benchmark's sweep workloads (perfbench/src/workloads.cpp): the
  // group count is the number of make_input and reference_run calls per
  // cold pass.
  std::vector<Scenario> feature_matrix;
  struct Family {
    GridDim grid;
    const char* stencil;
    const char* kernel;
    const char* input;
  };
  for (const Family& f : {Family{{128, 128}, "star5", "jacobi", "jacobi-init"},
                          Family{{128, 128}, "star5", "fdtd", "fdtd-cavity"},
                          Family{{48, 48, 4}, "star7", "jacobi", "jacobi-init"},
                          Family{{48, 48, 4}, "star7", "fdtd", "fdtd-cavity"}}) {
    SweepSpec s;
    s.archs = {Architecture::Smache, Architecture::Baseline};
    s.grids = {f.grid};
    s.steps = {4};
    s.depths = {1, 2};
    s.tiles = {{1, 1}, {2, 2}};
    s.stencils = {f.stencil};
    s.boundaries = {"open"};
    s.kernels = {f.kernel};
    s.inputs = {f.input};
    for (Scenario& sc : s.expand()) feature_matrix.push_back(std::move(sc));
  }
  ASSERT_EQ(feature_matrix.size(), 24u);
  const auto fm = reference_groups(feature_matrix,
                                   all_positions(feature_matrix.size()));
  ASSERT_EQ(fm.size(), 4u);
  for (std::size_t g = 0; g < fm.size(); ++g) {
    // Each family is its own spec: its 6 scenarios are one group, in
    // index order.
    ASSERT_EQ(fm[g].size(), 6u);
    for (std::size_t k = 0; k < 6; ++k) EXPECT_EQ(fm[g][k], g * 6 + k);
  }

  SweepSpec many_small;
  many_small.grids = {{11, 11}, {16, 16}};
  many_small.steps = {2};
  many_small.drams = {"functional", "ddr"};
  many_small.stencils = {"vn4",    "plus5", "moore9", "diamond13",
                         "cross3", "asym5", "upwind3"};
  many_small.boundaries = {"paper",  "open",    "circular", "mirror",
                           "island", "striped", "quadrant"};
  many_small.kernels = {"average", "sum", "max"};
  many_small.inputs = {"random", "gradient", "checker", "impulse"};
  const std::vector<Scenario> ms = many_small.expand();
  ASSERT_EQ(ms.size(), 2352u);
  const auto ms_groups = reference_groups(ms, all_positions(ms.size()));
  ASSERT_EQ(ms_groups.size(), 1176u);
  for (std::size_t g = 0; g < ms_groups.size(); ++g) {
    const auto& group = ms_groups[g];
    ASSERT_EQ(group.size(), 2u);
    EXPECT_NE(ms[group[0]].dram, ms[group[1]].dram);
    EXPECT_LT(group[0], group[1]);
    // Groups come in the order of their first member.
    if (g > 0) {
      EXPECT_GT(group[0], ms_groups[g - 1][0]);
    }
  }

  // Only pending positions are grouped: a store-served half leaves the
  // other DRAM's scenarios, one per group.
  std::vector<std::size_t> functional_only;
  for (std::size_t i = 0; i < ms.size(); ++i)
    if (ms[i].dram == "functional") functional_only.push_back(i);
  const auto half = reference_groups(ms, functional_only);
  ASSERT_EQ(half.size(), 1176u);
  for (const auto& group : half) EXPECT_EQ(group.size(), 1u);
}

TEST(ReferenceGroups, ElaborateOnlyScenariosBuildNoGrid) {
  // An input family no registry entry has: building the input throws.
  Scenario sim = group_base();
  sim.input = "no-such-input";
  Scenario elab = sim;
  elab.mode = Mode::ElaborateOnly;
  Scenario elab_baseline = elab;
  elab_baseline.engine.arch = Architecture::Baseline;
  EXPECT_FALSE(same_reference(elab, elab));
  const auto elab_groups = reference_groups({elab, elab_baseline}, {0, 1});
  EXPECT_EQ(elab_groups.size(), 2u);

  Scenario sim_ddr = sim;
  sim_ddr.dram = "ddr";
  sim_ddr.engine.dram = make_dram("ddr");
  const std::vector<Scenario> list = {elab, sim, elab_baseline, sim_ddr};
  for (const std::size_t threads : {1u, 4u}) {
    ExecutorOptions opts;
    opts.threads = threads;
    opts.verify_reference = true;
    const auto results = SweepExecutor(opts).run(list);
    ASSERT_EQ(results.size(), 4u);
    // Elaboration never asks for the input...
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_TRUE(results[2].ok) << results[2].error;
    EXPECT_FALSE(results[0].reference_checked);
    // ...while both simulated scenarios of the group do: the failed build
    // is each one's own captured error, the second trying again.
    for (const std::size_t i : {1u, 3u}) {
      EXPECT_FALSE(results[i].ok);
      EXPECT_NE(results[i].error.find("no-such-input"), std::string::npos)
          << results[i].error;
    }
    EXPECT_EQ(results[1].error, results[3].error);
  }
}

TEST(SweepExecutor, GroupedRunsEqualScenariosRunAlone) {
  // 4 reference groups (2 inputs x 2 boundaries) of 12 design points each.
  // Circular at depth 2 is rejected untiled, so the circular groups mix
  // failures with verified runs.
  SweepSpec spec;
  spec.archs = {Architecture::Smache, Architecture::Baseline};
  spec.grids = {{8, 8}};
  spec.steps = {2};
  spec.depths = {1, 2};
  spec.tiles = {{1, 1}, {2, 2}};
  spec.drams = {"functional", "ddr"};
  spec.inputs = {"random", "gradient"};
  spec.boundaries = {"open", "circular"};
  const std::vector<Scenario> scenarios = spec.expand();
  ASSERT_EQ(scenarios.size(), 48u);
  ASSERT_EQ(reference_groups(scenarios, all_positions(scenarios.size())).size(),
            4u);

  ExecutorOptions alone_opts;
  alone_opts.verify_reference = true;
  std::vector<ScenarioResult> alone;
  for (const Scenario& s : scenarios) {
    auto one = SweepExecutor(alone_opts).run(std::vector<Scenario>{s});
    ASSERT_EQ(one.size(), 1u);
    alone.push_back(std::move(one[0]));
  }
  std::size_t failed = 0, matched = 0;
  for (const ScenarioResult& r : alone) {
    failed += r.ok ? 0 : 1;
    matched += r.reference_match ? 1 : 0;
  }
  EXPECT_GT(failed, 0u);
  EXPECT_EQ(matched, alone.size() - failed);

  for (const std::size_t threads : {1u, 4u}) {
    ExecutorOptions opts = alone_opts;
    opts.threads = threads;
    const auto grouped = SweepExecutor(opts).run(scenarios);
    ASSERT_EQ(grouped.size(), alone.size());
    EXPECT_EQ(SweepExecutor::digest(grouped), SweepExecutor::digest(alone))
        << threads << " threads";
    for (std::size_t i = 0; i < alone.size(); ++i) {
      const std::string& label = alone[i].scenario.label;
      EXPECT_EQ(grouped[i].scenario.label, label);
      EXPECT_EQ(grouped[i].ok, alone[i].ok) << label;
      EXPECT_EQ(grouped[i].error, alone[i].error) << label;
      EXPECT_EQ(grouped[i].reference_checked, alone[i].reference_checked)
          << label;
      EXPECT_EQ(grouped[i].reference_match, alone[i].reference_match)
          << label;
    }
  }
}

TEST(SweepEmit, ReportsCarryTheCatalogueFields) {
  SweepSpec spec;
  spec.grids = {{8, 8}};
  const auto results = SweepExecutor().run(spec);
  const std::string json = emit_json(results);
  EXPECT_NE(json.find("\"run_type\": \"sweep\""), std::string::npos);
  EXPECT_NE(json.find("\"stencil\": \"vn4\""), std::string::npos);
  EXPECT_NE(json.find("\"output_hash\": \"0x"), std::string::npos);
  EXPECT_EQ(json.find("wall_ms"), std::string::npos);
  EmitOptions wall;
  wall.include_wall = true;
  EXPECT_NE(emit_json(results, wall).find("wall_ms"), std::string::npos);
  const std::string csv = emit_csv(results);
  EXPECT_EQ(csv.find("wall_ms"), std::string::npos);
  EXPECT_NE(csv.find("label,mode,arch"), std::string::npos);
}

TEST(SweepEmit, ReportsCarryTheDepthColumn) {
  SweepSpec spec;
  spec.grids = {{8, 8}};
  spec.steps = {2};
  spec.depths = {2};
  spec.boundaries = {"open"};
  const auto results = SweepExecutor().run(spec);
  const std::string json = emit_json(results);
  EXPECT_NE(json.find("\"depth\": 2"), std::string::npos);
  EXPECT_NE(json.find("/d2/"), std::string::npos);  // label segment
  const std::string csv = emit_csv(results);
  // Header pin updated when the tiles column landed between depth and
  // stencil (PR 6).
  EXPECT_NE(
      csv.find("label,mode,arch,height,width,steps,depth,tiles,stencil"),
      std::string::npos);
}

TEST(SweepEmit, ReportsCarryTheTilesColumn) {
  SweepSpec spec;
  spec.grids = {{8, 8}};
  spec.steps = {2};
  spec.tiles = {{2, 2}};
  spec.boundaries = {"open"};
  const auto results = SweepExecutor().run(spec);
  const std::string json = emit_json(results);
  EXPECT_NE(json.find("\"tiles\": \"2x2\""), std::string::npos);
  EXPECT_NE(json.find("/t2x2"), std::string::npos);  // label segment
  const std::string csv = emit_csv(results);
  const auto header_end = csv.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  EXPECT_NE(csv.find(",2x2,", header_end), std::string::npos);
}

TEST(HashGrid, TransposedShapesHashDifferently) {
  // hash_grid folds the shape as well as the words: a 2x8 and an 8x2 grid
  // with the same word sequence are different grids and must not collide.
  // Property-tested over random shapes since the bug class is systematic,
  // not shape-specific.
  Rng rng(0x7113u);
  for (int trial = 0; trial < 32; ++trial) {
    const std::size_t h = 1 + rng.next_below(9);
    const std::size_t w = 1 + rng.next_below(9);
    grid::Grid<word_t> a(h, w);
    for (std::size_t r = 0; r < h; ++r)
      for (std::size_t c = 0; c < w; ++c)
        a.at(r, c) = static_cast<word_t>(rng.next_u64());
    const auto b = grid::Grid<word_t>::from_words(w, h, a.to_words());
    if (h != w) {
      EXPECT_NE(hash_grid(a), hash_grid(b)) << h << 'x' << w;
    } else {
      EXPECT_EQ(hash_grid(a), hash_grid(b));
    }
  }
}

TEST(SweepEmit, DoublesRoundTripExactly) {
  // Committed sweep JSON must lose no bits: fmt_double emits the first of
  // %.15g, %.16g and %.17g that parses back to the identical double.
  const double cases[] = {0.0,
                          1.0,
                          0.1,
                          1.0 / 3.0,
                          0.1 + 0.2,  // 0.30000000000000004: needs 17 digits
                          238.27862595419847,
                          1e-300,
                          1e300,
                          5e-324,  // smallest denormal
                          123456789.123456789};
  for (const double v : cases) {
    const std::string s = fmt_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
  // Property sweep over random bit patterns (finite doubles only — the
  // report never emits NaN/inf).
  Rng rng(0xF17Aull);
  std::size_t checked = 0;
  while (checked < 2000) {
    const double v = std::bit_cast<double>(rng.next_u64());
    if (!std::isfinite(v)) continue;
    ++checked;
    const std::string s = fmt_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
}

TEST(SweepEmit, QuotesEveryStringValuedCsvColumn) {
  // Registry names are plain identifiers today, but the CSV writer must
  // not corrupt rows if a future family name carries a comma or quote.
  std::vector<ScenarioResult> results(1);
  ScenarioResult& r = results[0];
  r.scenario.label = "li,ne";
  r.scenario.stencil = "st,encil";
  r.scenario.boundary = "bo\"und";
  r.scenario.kernel = "ker,nel";
  r.scenario.input = "in,put";
  r.scenario.dram = "dr,am";
  r.ok = false;
  r.error = "an error, with commas";
  const std::string csv = emit_csv(results);
  EXPECT_NE(csv.find("\"li,ne\""), std::string::npos);
  EXPECT_NE(csv.find("\"st,encil\""), std::string::npos);
  EXPECT_NE(csv.find("\"bo\"\"und\""), std::string::npos);
  EXPECT_NE(csv.find("\"ker,nel\""), std::string::npos);
  EXPECT_NE(csv.find("\"in,put\""), std::string::npos);
  EXPECT_NE(csv.find("\"dr,am\""), std::string::npos);
  EXPECT_NE(csv.find("\"an error, with commas\""), std::string::npos);
  // Column count survives: the data row holds exactly as many unquoted
  // commas as the header row.
  const auto commas_outside_quotes = [](std::string_view line) {
    std::size_t n = 0;
    bool in_quotes = false;
    for (const char c : line) {
      if (c == '"') in_quotes = !in_quotes;
      else if (c == ',' && !in_quotes) ++n;
    }
    return n;
  };
  const std::size_t header_end = csv.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  const std::string_view all = csv;
  const std::string_view header = all.substr(0, header_end);
  const std::string_view row = all.substr(
      header_end + 1, csv.find('\n', header_end + 1) - header_end - 1);
  EXPECT_EQ(commas_outside_quotes(row), commas_outside_quotes(header));
}

// ---- crash-safe store-backed sweeps --------------------------------------

/// Fresh scratch store directory per test, removed on destruction.
class SweepScratch {
 public:
  explicit SweepScratch(const std::string& name)
      : path_("sweep_store_tmp_" + name) {
    std::filesystem::remove_all(path_);
  }
  ~SweepScratch() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

SweepSpec small_store_spec() {
  SweepSpec spec;
  spec.grids = {{8, 8}};
  spec.steps = {2};
  spec.stencils = {"vn4"};
  spec.boundaries = {"paper", "open", "island"};
  return spec;  // 3 scenarios
}

TEST(SweepStore, WarmRunIsAllHitsAndByteIdentical) {
  const SweepScratch dir("warm");
  ResultStore store(dir.path());
  ExecutorOptions opts;
  opts.store = &store;
  const auto cold = SweepExecutor(opts).run(small_store_spec());
  ASSERT_EQ(cold.size(), 3u);
  for (const auto& r : cold) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.from_store);
  }
  EXPECT_EQ(store.size(), 3u);

  // Same executor, same store: every scenario is reconstructed without
  // running, and the reports are byte-identical — the memoization claim.
  const auto warm = SweepExecutor(opts).run(small_store_spec());
  for (const auto& r : warm) EXPECT_TRUE(r.from_store) << r.scenario.label;
  EXPECT_EQ(SweepExecutor::digest(cold), SweepExecutor::digest(warm));
  EXPECT_EQ(emit_json(cold), emit_json(warm));
  EXPECT_EQ(emit_csv(cold), emit_csv(warm));

  // A REOPENED store (fresh process, journal read back from disk) must be
  // just as good — this is the resume path.
  ResultStore reopened(dir.path());
  ExecutorOptions resumed_opts;
  resumed_opts.store = &reopened;
  const auto resumed = SweepExecutor(resumed_opts).run(small_store_spec());
  for (const auto& r : resumed) EXPECT_TRUE(r.from_store);
  EXPECT_EQ(emit_json(cold), emit_json(resumed));
}

TEST(SweepStore, WidenedSpecExecutesOnlyTheDelta) {
  const SweepScratch dir("widen");
  ResultStore store(dir.path());
  ExecutorOptions opts;
  opts.store = &store;
  SweepSpec narrow = small_store_spec();
  narrow.boundaries = {"paper"};
  (void)SweepExecutor(opts).run(narrow);
  EXPECT_EQ(store.size(), 1u);

  const auto widened = SweepExecutor(opts).run(small_store_spec());
  std::size_t hits = 0, executed = 0;
  for (const auto& r : widened) (r.from_store ? hits : executed)++;
  EXPECT_EQ(hits, 1u);
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(store.size(), 3u);

  // And the widened warm report equals a cold run of the widened spec.
  const auto cold = SweepExecutor().run(small_store_spec());
  EXPECT_EQ(emit_json(cold), emit_json(widened));
  EXPECT_EQ(SweepExecutor::digest(cold), SweepExecutor::digest(widened));
}

TEST(SweepStore, CorruptedRecordReexecutesOnlyAffectedScenarios) {
  const SweepScratch dir("corrupt");
  std::string baseline_json;
  {
    ResultStore store(dir.path());
    ExecutorOptions opts;
    opts.store = &store;
    opts.threads = 1;  // serial: journal order == scenario order
    baseline_json = emit_json(SweepExecutor(opts).run(small_store_spec()));
    EXPECT_EQ(store.size(), 3u);
  }
  // Flip one byte in the LAST journaled record's payload: recovery drops
  // exactly that record (tail abandonment — nothing follows it).
  std::string seg;
  for (const auto& e : std::filesystem::directory_iterator(dir.path()))
    if (e.path().extension() == ".smr") seg = e.path().string();
  ASSERT_FALSE(seg.empty());
  {
    std::ifstream in(seg, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[bytes.size() - 20] ^= 0x04;  // inside the final payload/checksum
    std::ofstream out(seg, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  ResultStore recovered(dir.path());
  EXPECT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered.dropped_records(), 1u);
  ExecutorOptions opts;
  opts.store = &recovered;
  const auto rerun = SweepExecutor(opts).run(small_store_spec());
  std::size_t executed = 0;
  for (const auto& r : rerun) executed += r.from_store ? 0 : 1;
  // Only the dropped scenario re-executes, and the final report is
  // byte-identical to the pre-corruption run.
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(emit_json(rerun), baseline_json);
  EXPECT_EQ(recovered.size(), 3u);  // re-journaled durably
}

TEST(SweepStore, DeterministicFailuresAreStoredAndReused) {
  // A captured scenario error is a result too: resume must reproduce the
  // failed row byte-for-byte without re-running it.
  const SweepScratch dir("failres");
  SweepSpec spec;
  spec.grids = {{8, 8}};
  spec.steps = {2};
  spec.depths = {2};
  spec.boundaries = {"circular", "open"};  // periodic x depth>1 -> error
  ResultStore store(dir.path());
  ExecutorOptions opts;
  opts.store = &store;
  const auto cold = SweepExecutor(opts).run(spec);
  ASSERT_EQ(cold.size(), 2u);
  EXPECT_EQ(store.size(), 2u);  // failure journaled alongside the success
  const auto warm = SweepExecutor(opts).run(spec);
  bool saw_failure = false;
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_TRUE(warm[i].from_store);
    EXPECT_EQ(warm[i].ok, cold[i].ok);
    EXPECT_EQ(warm[i].error, cold[i].error);
    saw_failure |= !warm[i].ok;
  }
  EXPECT_TRUE(saw_failure);
  EXPECT_EQ(emit_json(cold), emit_json(warm));
}

TEST(SweepStore, IncompatibleOptionCombinationsAreRejected) {
  const SweepScratch dir("reject");
  ResultStore store(dir.path());
  ExecutorOptions opts;
  opts.store = &store;
  opts.keep_outputs = true;
  EXPECT_THROW((void)SweepExecutor(opts).run(small_store_spec()),
               contract_error);
  const FaultPlan plan = FaultPlan::seeded(1, 2);
  ExecutorOptions faulted;
  faulted.store = &store;
  faulted.fault_plan = &plan;
  EXPECT_THROW((void)SweepExecutor(faulted).run(small_store_spec()),
               contract_error);
  EXPECT_EQ(store.size(), 0u);  // rejection happens before any execution
}

TEST(SweepStop, StopFlagSkipsScenariosAndStoresNothing) {
  const SweepScratch dir("stop");
  ResultStore store(dir.path());
  std::atomic<bool> stop{true};  // pre-set: every scenario must skip
  ExecutorOptions opts;
  opts.store = &store;
  opts.stop = &stop;
  opts.threads = 2;
  const auto results = SweepExecutor(opts).run(small_store_spec());
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.skipped);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("skipped"), std::string::npos);
  }
  EXPECT_EQ(store.size(), 0u);  // skipped scenarios are never journaled
}

TEST(SweepWatchdog, WallTimeoutIsCapturedAndNeverStored) {
  const SweepScratch dir("watchdog");
  SweepSpec spec;
  spec.grids = {{128, 128}};
  spec.steps = {10};
  spec.stencils = {"moore9"};
  spec.boundaries = {"open"};
  ResultStore store(dir.path());
  ExecutorOptions opts;
  opts.store = &store;
  opts.wall_timeout_ms = 1;  // a 128x128 10-step run takes far longer
  const auto results = SweepExecutor(opts).run(spec);
  ASSERT_EQ(results.size(), 1u);
  const ScenarioResult& r = results[0];
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.run.timed_out);
  EXPECT_NE(r.error.find("watchdog"), std::string::npos) << r.error;
  // Partial progress is surfaced for triage...
  EXPECT_GT(r.run.cycles, 0u);
  // ...but a nondeterministic abandon must never be journaled: a resume
  // re-executes it (possibly without the timeout) instead of trusting it.
  EXPECT_EQ(store.size(), 0u);
}

// ---- the shared parallel substrate --------------------------------------

TEST(ParallelForIndex, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {0u, 1u, 3u, 16u}) {
    std::vector<std::atomic<int>> hits(37);
    parallel_for_index(hits.size(), threads,
                       [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
  parallel_for_index(0, 4, [](std::size_t) { FAIL(); });
}

TEST(ParallelForIndex, RethrowsTheLowestIndexFailure) {
  // The exception contract holds at EVERY thread count, including serial:
  // all indices run, the lowest-index failure is rethrown afterwards.
  for (const std::size_t threads : {1u, 4u}) {
    std::vector<std::atomic<int>> hits(16);
    try {
      parallel_for_index(hits.size(), threads, [&](std::size_t i) {
        ++hits[i];
        if (i == 3 || i == 11)
          throw contract_error("boom at " + std::to_string(i));
      });
      FAIL() << "expected contract_error";
    } catch (const contract_error& e) {
      EXPECT_NE(std::string(e.what()).find("boom at 3"), std::string::npos);
    }
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForIndex, ThreadsFromEnvParsesStrictly) {
  ::setenv("SMACHE_TEST_THREADS", "3", 1);
  EXPECT_EQ(threads_from_env("SMACHE_TEST_THREADS", 1), 3u);
  ::setenv("SMACHE_TEST_THREADS", "0", 1);
  EXPECT_EQ(threads_from_env("SMACHE_TEST_THREADS", 1),
            hardware_threads());
  const LogLevel level = Log::level();
  Log::set_level(LogLevel::Off);  // the malformed case warns by contract
  ::setenv("SMACHE_TEST_THREADS", "4cores", 1);
  EXPECT_EQ(threads_from_env("SMACHE_TEST_THREADS", 7), 7u);
  Log::set_level(level);
  ::unsetenv("SMACHE_TEST_THREADS");
  EXPECT_EQ(threads_from_env("SMACHE_TEST_THREADS", 5), 5u);
}

TEST(DseExplore, ThreadedExplorationMatchesSerial) {
  cost::DseRequest req;
  req.height = 64;
  req.width = 64;
  const auto serial = cost::explore(req);
  req.threads = 4;
  const auto threaded = cost::explore(req);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].label(), threaded[i].label());
    EXPECT_EQ(serial[i].memory.r_total(), threaded[i].memory.r_total());
    EXPECT_EQ(serial[i].memory.b_total(), threaded[i].memory.b_total());
    EXPECT_EQ(serial[i].pareto, threaded[i].pareto);
  }
}

}  // namespace
}  // namespace smache::sweep
