// Engine runs on tight channels and injected DRAM stalls, pinned.
//
// Sixty-two configurations drive every freeze and back-pressure path of
// the tops, the kernel pipelines and the DRAM model: 24 random tight-queue
// and stall trials over both archs, a depth-3 cascade, F = 2/3 cells on 1-3
// slot queues on all three tops with stalls on and off, and the ddr_like
// row model. Every run's output must equal reference_run. Each test folds
// its configurations' cycles, warm-up and DramStats fields, in order, into
// one FNV-1a digest and pins it, so a change to what any cycle does on
// these shapes moves a digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "support/test_grids.hpp"
#include "sweep/workloads.hpp"

namespace smache {
namespace {

/// FNV-1a over the little-endian bytes of each folded word, and the
/// number of runs folded.
struct RunDigest {
  std::uint64_t value = 0xcbf29ce484222325ull;
  std::size_t runs = 0;

  void add(std::uint64_t v) noexcept {
    for (int b = 0; b < 8; ++b) {
      value ^= (v >> (8 * b)) & 0xffu;
      value *= 0x100000001b3ull;
    }
  }

  /// Check `r` against the golden reference, then fold its cycle counts
  /// and DRAM counters.
  void fold(const ProblemSpec& p, const grid::Grid<word_t>& init,
            const RunResult& r, const std::string& label) {
    ASSERT_TRUE(r.output.has_value()) << label;
    EXPECT_EQ(*r.output, reference_run(p, init)) << label;
    add(r.cycles);
    add(r.warmup_cycles);
    add(r.dram.read_requests);
    add(r.dram.words_read);
    add(r.dram.words_written);
    add(r.dram.row_hits);
    add(r.dram.row_misses);
    add(r.dram.injected_stall_cycles);
    add(r.dram.injected_delay_cycles);
    add(r.dram.read_busy_cycles);
    ++runs;
  }
};

TEST(TightChannelRuns, RandomStallAndBackpressureTrialsArePinned) {
  Rng rng(0x5EED);
  const grid::StencilShape shapes[] = {grid::StencilShape::von_neumann4(),
                                       grid::StencilShape::moore9(),
                                       grid::StencilShape::upwind3()};
  const grid::BoundarySpec bcs[] = {
      grid::BoundarySpec::paper_example(), grid::BoundarySpec::all_open(),
      grid::BoundarySpec::all_mirror(),
      {grid::AxisBoundary::constant_halo(5), grid::AxisBoundary::open()}};

  RunDigest digest;
  for (int trial = 0; trial < 24; ++trial) {
    ProblemSpec p;
    p.height = 4 + rng.next_below(8);
    p.width = 4 + rng.next_below(8);
    p.shape = shapes[rng.next_below(3)];
    p.bc = bcs[rng.next_below(4)];
    p.steps = 1 + rng.next_below(3);
    const auto rspan = static_cast<std::size_t>(p.shape.dr_max() -
                                                p.shape.dr_min());
    const auto cspan = static_cast<std::size_t>(p.shape.dc_max() -
                                                p.shape.dc_min());
    if (p.height <= rspan || p.width <= cspan) continue;

    EngineOptions opts;
    opts.arch =
        rng.next_below(2) == 0 ? Architecture::Smache : Architecture::Baseline;
    // Randomized stall injection: periodic multi-cycle DRAM freezes.
    if (rng.next_below(2) == 0) {
      opts.dram.stall_every = 5 + rng.next_below(40);
      opts.dram.stall_cycles = 1 + rng.next_below(9);
    }
    // Randomized back-pressure: tight data/request queues and a deeper
    // read latency force every freeze path in the DRAM and tops.
    opts.dram.read_latency = 1 + rng.next_below(8);
    opts.dram.data_queue_depth = 1 + rng.next_below(3);
    opts.dram.req_queue_depth = 1 + rng.next_below(3);
    opts.dram.write_queue_depth = 1 + rng.next_below(3);

    const auto init = test_support::random_grid(
        p.height, p.width, 7000 + static_cast<std::uint64_t>(trial));
    const std::string label =
        "trial " + std::to_string(trial) + " " + to_string(opts.arch) + " " +
        std::to_string(p.height) + "x" + std::to_string(p.width) +
        " stall_every=" + std::to_string(opts.dram.stall_every) +
        " lat=" + std::to_string(opts.dram.read_latency);
    digest.fold(p, init, Engine(opts).run(p, init), label);
  }
  EXPECT_EQ(digest.runs, 24u);
  EXPECT_EQ(digest.value, 0xc816387e9e1cd644ull);
}

TEST(TightChannelRuns, CascadeDepthThreeIsPinned) {
  ProblemSpec p;
  p.height = 10;
  p.width = 10;
  p.shape = grid::StencilShape::von_neumann4();
  p.bc = grid::BoundarySpec::all_open();
  p.steps = 6;
  EngineOptions opts = EngineOptions::smache();
  opts.dram.stall_every = 13;
  opts.dram.stall_cycles = 4;
  opts.dram.data_queue_depth = 2;
  const auto init = test_support::random_grid(10, 10, 4711);
  RunDigest digest;
  digest.fold(p, init, Engine(opts).run_cascade(p, init, 3), "cascade");
  EXPECT_EQ(digest.value, 0xc926bcb494c771c0ull);
}

TEST(TightChannelRuns, MultiFieldTinyQueuesArePinned) {
  // F-word cells cross one-word DRAM channels through each top's gather
  // staging and write-back drain; 1-3 slot queues, stalls on and off.
  RunDigest digest;
  for (const char* kernel : {"hotspot", "fdtd"}) {
    ProblemSpec p;
    p.height = 10;
    p.width = 12;
    p.shape = sweep::make_stencil("star5");
    p.bc = grid::BoundarySpec::all_open();
    p.kernel = sweep::make_kernel(kernel);
    p.steps = 2;
    const auto init = sweep::make_input(
        std::string(kernel) == "hotspot" ? "hotspot-chip" : "fdtd-cavity", 10,
        12, 1, 4712);
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
            opts.dram.stall_every = 13;
            opts.dram.stall_cycles = 4;
          }
          const Engine engine(opts);
          digest.fold(p, init,
                      std::string(top) == "cascade"
                          ? engine.run_cascade(p, init, 2)
                          : engine.run(p, init),
                      std::string(top) + " " + kernel +
                          " queues=" + std::to_string(q) +
                          " stall=" + std::to_string(stall));
        }
      }
    }
  }
  EXPECT_EQ(digest.runs, 36u);
  EXPECT_EQ(digest.value, 0x5ba10ac00595e052ull);
}

TEST(TightChannelRuns, DdrLikeRowModelIsPinned) {
  ProblemSpec p = ProblemSpec::paper_example();
  p.height = 16;
  p.width = 16;
  p.steps = 4;
  EngineOptions opts = EngineOptions::smache();
  opts.dram = mem::DramConfig::ddr_like();
  const auto init = test_support::random_grid(16, 16, 99);
  RunDigest digest;
  digest.fold(p, init, Engine(opts).run(p, init), "ddr_like");
  EXPECT_EQ(digest.value, 0x39c58bfe1700e51bull);
}

}  // namespace
}  // namespace smache
