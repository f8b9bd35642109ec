// Failure-injection tests: DRAM stall bursts, realistic latencies, tiny
// channel queues, and shared-bus contention must change CYCLE COUNTS only —
// never results. This validates the stall/back-pressure integration the
// paper's AXI4-Stream interface provides.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "support/test_grids.hpp"
#include "sweep/executor.hpp"
#include "sweep/faults.hpp"
#include "sweep/spec.hpp"
#include "sweep/workloads.hpp"

namespace smache {
namespace {

grid::Grid<word_t> random_grid(std::size_t h, std::size_t w,
                               std::uint64_t seed) {
  return test_support::random_grid(h, w, seed, 1 << 16);
}

ProblemSpec small_problem() {
  ProblemSpec p = ProblemSpec::paper_example();
  p.steps = 5;
  return p;
}

TEST(FailureInjection, DramStallsDoNotChangeResults) {
  const auto p = small_problem();
  const auto init = random_grid(11, 11, 31);
  const auto expected = reference_run(p, init);

  EngineOptions clean = EngineOptions::smache();
  const auto clean_res = Engine(clean).run(p, init);

  EngineOptions stalled = EngineOptions::smache();
  stalled.dram.stall_every = 7;
  stalled.dram.stall_cycles = 3;
  const auto stalled_res = Engine(stalled).run(p, init);

  EXPECT_EQ(clean_res.output, expected);
  EXPECT_EQ(stalled_res.output, expected);
  EXPECT_GT(stalled_res.cycles, clean_res.cycles)
      << "stalls must cost time";
  EXPECT_GT(stalled_res.dram.injected_stall_cycles, 0u);
}

TEST(FailureInjection, StallsEveryWordWorstCase) {
  const auto p = small_problem();
  const auto init = random_grid(11, 11, 32);
  EngineOptions brutal = EngineOptions::smache();
  brutal.dram.stall_every = 1;
  brutal.dram.stall_cycles = 2;
  const auto res = Engine(brutal).run(p, init);
  EXPECT_EQ(res.output, reference_run(p, init));
}

TEST(FailureInjection, BaselineSurvivesStallsToo) {
  const auto p = small_problem();
  const auto init = random_grid(11, 11, 33);
  EngineOptions stalled = EngineOptions::baseline();
  stalled.dram.stall_every = 5;
  stalled.dram.stall_cycles = 4;
  const auto res = Engine(stalled).run(p, init);
  EXPECT_EQ(res.output, reference_run(p, init));
}

TEST(FailureInjection, TinyQueuesOnlyCostCycles) {
  const auto p = small_problem();
  const auto init = random_grid(11, 11, 34);
  const auto expected = reference_run(p, init);
  for (auto arch : {Architecture::Smache, Architecture::Baseline}) {
    EngineOptions opts;
    opts.arch = arch;
    opts.dram.req_queue_depth = 1;
    opts.dram.data_queue_depth = 1;
    opts.dram.write_queue_depth = 1;
    const auto res = Engine(opts).run(p, init);
    EXPECT_EQ(res.output, expected) << to_string(arch);
  }
  // Multi-word cells: every top stages F-word cells through one-word DRAM
  // channels, so queues of 1-3 slots, with and without stalls, block the
  // gather staging and the write-back drain at every field position.
  for (const char* kernel : {"hotspot", "fdtd"}) {
    ProblemSpec pf;
    pf.height = 10;
    pf.width = 12;
    pf.shape = sweep::make_stencil("star5");
    pf.bc = grid::BoundarySpec::all_open();
    pf.kernel = sweep::make_kernel(kernel);
    pf.steps = 2;
    const auto finit = sweep::make_input(
        std::string(kernel) == "hotspot" ? "hotspot-chip" : "fdtd-cavity", 10,
        12, 1, 35);
    const auto fexpected = reference_run(pf, finit);
    for (const char* top : {"smache", "cascade", "baseline"}) {
      for (std::uint32_t q = 1; q <= 3; ++q) {
        for (const bool stall : {false, true}) {
          EngineOptions opts = std::string(top) == "baseline"
                                   ? EngineOptions::baseline()
                                   : EngineOptions::smache();
          opts.dram.req_queue_depth = q;
          opts.dram.data_queue_depth = q;
          opts.dram.write_queue_depth = q;
          if (stall) {
            opts.dram.stall_every = 7;
            opts.dram.stall_cycles = 3;
          }
          const Engine engine(opts);
          const auto res = std::string(top) == "cascade"
                               ? engine.run_cascade(pf, finit, 2)
                               : engine.run(pf, finit);
          EXPECT_EQ(res.output, fexpected)
              << top << " " << kernel << " queues=" << q
              << " stall=" << stall;
        }
      }
    }
  }
}

TEST(FailureInjection, DdrLikeTimingPreservesResults) {
  const auto p = small_problem();
  const auto init = random_grid(11, 11, 35);
  const auto expected = reference_run(p, init);
  for (auto arch : {Architecture::Smache, Architecture::Baseline}) {
    EngineOptions opts;
    opts.arch = arch;
    opts.dram = mem::DramConfig::ddr_like();
    const auto res = Engine(opts).run(p, init);
    EXPECT_EQ(res.output, expected) << to_string(arch);
  }
}

TEST(FailureInjection, SharedBusSmacheStillCorrect) {
  // Force the ablation topology: Smache on a shared single port.
  const auto p = small_problem();
  const auto init = random_grid(11, 11, 36);
  EngineOptions opts = EngineOptions::smache();
  opts.auto_bus = false;
  opts.dram.shared_bus = true;
  const auto res = Engine(opts).run(p, init);
  EXPECT_EQ(res.output, reference_run(p, init));
}

TEST(FailureInjection, IndependentBusBaselineStillCorrect) {
  const auto p = small_problem();
  const auto init = random_grid(11, 11, 37);
  EngineOptions opts = EngineOptions::baseline();
  opts.auto_bus = false;
  opts.dram.shared_bus = false;
  const auto res = Engine(opts).run(p, init);
  EXPECT_EQ(res.output, reference_run(p, init));
}

TEST(FailureInjection, DdrLikeWidensTheGap) {
  // Under realistic row-miss penalties the baseline's random accesses get
  // slower while Smache's sequential burst barely notices — the MP-STREAM
  // argument from the paper's introduction. The grid must span several
  // DRAM rows for row misses to exist at all, so use 32x32 with 64-word
  // rows (the 11x11 grid fits inside a single row and sees no misses).
  ProblemSpec p = ProblemSpec::paper_example();
  p.height = 32;
  p.width = 32;
  p.steps = 3;
  const auto init = random_grid(32, 32, 38);

  const auto cyc = [&](Architecture arch, bool realistic) {
    EngineOptions opts;
    opts.arch = arch;
    opts.dram = realistic ? mem::DramConfig::ddr_like()
                          : mem::DramConfig::functional();
    if (realistic) opts.dram.row_words = 64;
    return Engine(opts).run(p, init).cycles;
  };
  const double func_ratio =
      static_cast<double>(cyc(Architecture::Smache, false)) /
      static_cast<double>(cyc(Architecture::Baseline, false));
  const double ddr_ratio =
      static_cast<double>(cyc(Architecture::Smache, true)) /
      static_cast<double>(cyc(Architecture::Baseline, true));
  EXPECT_LT(ddr_ratio, func_ratio)
      << "realistic DRAM must favour Smache even more";
}

// ---- injected fault hooks (stall storms, delayed completions) ------------

TEST(FaultInjection, StallStormsCostCyclesNeverCorrectness) {
  const auto p = small_problem();
  const auto init = random_grid(11, 11, 41);
  const auto expected = reference_run(p, init);

  const auto clean = Engine(EngineOptions::smache()).run(p, init);
  EngineOptions stormy = EngineOptions::smache();
  stormy.dram.storm_every = 13;
  stormy.dram.storm_cycles = 9;
  const auto res = Engine(stormy).run(p, init);

  EXPECT_EQ(res.output, expected);
  EXPECT_GT(res.cycles, clean.cycles) << "storms must cost time";
  EXPECT_GT(res.dram.injected_stall_cycles, 0u);
  // Determinism: the trip points are word counts, so the injected run is
  // bit-reproducible cycle for cycle.
  EXPECT_EQ(Engine(stormy).run(p, init).cycles, res.cycles);
}

TEST(FaultInjection, StormsComposeWithPeriodicStalls) {
  const auto p = small_problem();
  const auto init = random_grid(11, 11, 42);
  EngineOptions both = EngineOptions::smache();
  both.dram.stall_every = 7;
  both.dram.stall_cycles = 3;
  both.dram.storm_every = 7;  // storms land ON stall cycles: must extend,
  both.dram.storm_cycles = 5; // not overwrite
  EngineOptions stalls_only = both;
  stalls_only.dram.storm_every = 0;
  const auto combined = Engine(both).run(p, init);
  const auto stalls = Engine(stalls_only).run(p, init);
  EXPECT_EQ(combined.output, reference_run(p, init));
  EXPECT_GT(combined.cycles, stalls.cycles);
  EXPECT_GT(combined.dram.injected_stall_cycles,
            stalls.dram.injected_stall_cycles);
}

TEST(FaultInjection, DelayedCompletionsCostCyclesNeverCorrectness) {
  const auto p = small_problem();
  const auto init = random_grid(11, 11, 43);
  const auto expected = reference_run(p, init);

  const auto clean = Engine(EngineOptions::smache()).run(p, init);
  EngineOptions delayed = EngineOptions::smache();
  delayed.dram.delay_every = 11;
  delayed.dram.delay_cycles = 6;
  const auto res = Engine(delayed).run(p, init);

  EXPECT_EQ(res.output, expected);
  EXPECT_GT(res.cycles, clean.cycles) << "held completions must cost time";
  EXPECT_GT(res.dram.injected_delay_cycles, 0u);
  EXPECT_EQ(res.dram.words_read, clean.dram.words_read)
      << "a delay holds words, it must not drop or duplicate them";
  EXPECT_EQ(Engine(delayed).run(p, init).cycles, res.cycles);

  // The baseline architecture survives the same treatment.
  EngineOptions base = EngineOptions::baseline();
  base.dram.delay_every = 5;
  base.dram.delay_cycles = 4;
  EXPECT_EQ(Engine(base).run(p, init).output, expected);
}

TEST(FaultInjection, DelayEveryWordWorstCase) {
  const auto p = small_problem();
  const auto init = random_grid(11, 11, 44);
  EngineOptions brutal = EngineOptions::smache();
  brutal.dram.delay_every = 1;
  brutal.dram.delay_cycles = 3;
  brutal.dram.storm_every = 1;
  brutal.dram.storm_cycles = 2;
  const auto res = Engine(brutal).run(p, init);
  EXPECT_EQ(res.output, reference_run(p, init));
  EXPECT_GT(res.dram.injected_delay_cycles, 0u);
  EXPECT_GT(res.dram.injected_stall_cycles, 0u);
}

TEST(FaultInjection, FaultPlanAppliesByLabelSubstring) {
  sweep::FaultPlan plan;
  sweep::DramFault storm;
  storm.label_contains = "moore9";
  storm.storm_every = 50;
  storm.storm_cycles = 4;
  plan.dram.push_back(storm);
  sweep::DramFault delay;  // empty label_contains: matches everything
  delay.delay_every = 80;
  delay.delay_cycles = 2;
  plan.dram.push_back(delay);

  mem::DramConfig vn4_config = mem::DramConfig::functional();
  EXPECT_TRUE(plan.apply("sim/smache/8x8/vn4/open", &vn4_config));
  EXPECT_EQ(vn4_config.storm_every, 0u);   // moore9 fault did not match
  EXPECT_EQ(vn4_config.delay_every, 80u);  // match-all fault did

  mem::DramConfig moore_config = mem::DramConfig::functional();
  EXPECT_TRUE(plan.apply("sim/smache/8x8/moore9/open", &moore_config));
  EXPECT_EQ(moore_config.storm_every, 50u);
  EXPECT_EQ(moore_config.storm_cycles, 4u);
  EXPECT_EQ(moore_config.delay_every, 80u);

  const sweep::FaultPlan none;
  mem::DramConfig untouched = mem::DramConfig::functional();
  EXPECT_FALSE(none.apply("anything", &untouched));
}

TEST(FaultInjection, SeededPlansAreReproducibleAndSeedSensitive) {
  const sweep::FaultPlan a = sweep::FaultPlan::seeded(1234, 8);
  const sweep::FaultPlan b = sweep::FaultPlan::seeded(1234, 8);
  const sweep::FaultPlan c = sweep::FaultPlan::seeded(1235, 8);
  ASSERT_EQ(a.dram.size(), 8u);
  bool differs = false;
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(a.dram[i].storm_every, b.dram[i].storm_every);
    EXPECT_EQ(a.dram[i].storm_cycles, b.dram[i].storm_cycles);
    EXPECT_EQ(a.dram[i].delay_every, b.dram[i].delay_every);
    EXPECT_EQ(a.dram[i].delay_cycles, b.dram[i].delay_cycles);
    differs |= a.dram[i].storm_every != c.dram[i].storm_every ||
               a.dram[i].delay_every != c.dram[i].delay_every;
    // Bounds contract: periods in [64, 1087], magnitudes in [1, 8].
    const auto every =
        a.dram[i].storm_every != 0 ? a.dram[i].storm_every
                                   : a.dram[i].delay_every;
    const auto cycles =
        a.dram[i].storm_every != 0 ? a.dram[i].storm_cycles
                                   : a.dram[i].delay_cycles;
    EXPECT_GE(every, 64u);
    EXPECT_LE(every, 1087u);
    EXPECT_GE(cycles, 1u);
    EXPECT_LE(cycles, 8u);
  }
  EXPECT_TRUE(differs) << "different seeds must give different plans";
}

TEST(FaultInjection, FaultedSweepDegradesGracefullyAndDeterministically) {
  // End-to-end: a seeded plan injected through the executor slows matching
  // scenarios down without changing a single output bit, and the faulted
  // sweep is itself bit-reproducible (same digest on re-run).
  sweep::SweepSpec spec;
  spec.grids = {{8, 8}};
  spec.steps = {2};
  spec.stencils = {"vn4", "moore9"};
  spec.boundaries = {"open"};
  const auto clean = sweep::SweepExecutor().run(spec);

  sweep::FaultPlan plan = sweep::FaultPlan::seeded(99, 2);
  for (auto& f : plan.dram) {  // tighten periods so tiny runs see faults
    if (f.storm_every != 0) f.storm_every = 16;
    if (f.delay_every != 0) f.delay_every = 16;
  }
  sweep::ExecutorOptions opts;
  opts.fault_plan = &plan;
  opts.threads = 2;
  const auto faulted = sweep::SweepExecutor(opts).run(spec);
  const auto faulted_again = sweep::SweepExecutor(opts).run(spec);
  ASSERT_EQ(faulted.size(), clean.size());
  EXPECT_EQ(sweep::SweepExecutor::digest(faulted),
            sweep::SweepExecutor::digest(faulted_again));
  for (std::size_t i = 0; i < clean.size(); ++i) {
    ASSERT_TRUE(faulted[i].ok) << faulted[i].error;
    EXPECT_EQ(faulted[i].output_hash, clean[i].output_hash)
        << "faults must never change results";
    EXPECT_GT(faulted[i].run.cycles, clean[i].run.cycles)
        << faulted[i].scenario.label;
  }
}

}  // namespace
}  // namespace smache
