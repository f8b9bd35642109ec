// Whole-run pins of the stream-fed top on shapes no other wall covers:
// fused cascade depths 2-4 across boundary families, a one-slot write
// queue, a 3D grid on the ddr row model, and the depth-1 static path
// (FSM-1 warm-up, pre-issued static reads, write-through capture) with a
// periodic boundary at F = 1 and F = 2. Each run is profiled and pins
// cycles, warmup, every DramStats field, the output hash, the elaborated
// resources and the complete metric snapshot (scheduler attribution
// included), so any change to what the top does in any cycle shows here.
#include <gtest/gtest.h>

#include <string>

#include "core/engine.hpp"
#include "sweep/executor.hpp"
#include "sweep/workloads.hpp"

namespace smache {
namespace {

struct ShapePin {
  const char* label;
  std::size_t depth;  // 1 = Engine::run, > 1 = Engine::run_cascade
  std::size_t height, width, slices;
  const char* stencil;
  const char* boundary;
  const char* kernel;
  const char* input;
  const char* dram_model;
  bool wq1;  // DRAM write queue shrunk to one slot
  std::size_t steps;
  std::uint64_t cycles;
  std::uint64_t warmup;
  mem::DramStats dram;
  std::uint64_t output_hash;
  std::uint64_t r_total;
  std::uint64_t b_total;
  std::uint64_t m20k_blocks;
  // The whole snapshot as "path=value" in path order.
  const char* metrics;
};

std::string render(const std::vector<obs::MetricSample>& metrics) {
  std::string out;
  for (const obs::MetricSample& s : metrics) {
    if (!out.empty()) out += ' ';
    out += s.path + "=" + std::to_string(s.value);
  }
  return out;
}

void expect_pinned(const ShapePin& pin) {
  ProblemSpec p;
  p.height = pin.height;
  p.width = pin.width;
  p.depth = pin.slices;
  p.shape = sweep::make_stencil(pin.stencil);
  p.bc = sweep::make_boundary(pin.boundary);
  p.kernel = sweep::make_kernel(pin.kernel);
  p.steps = pin.steps;
  const auto init =
      sweep::make_input(pin.input, pin.height, pin.width, pin.slices, 7);
  EngineOptions o = EngineOptions::smache();
  o.profile = true;
  o.dram = sweep::make_dram(pin.dram_model);
  if (pin.wq1) o.dram.write_queue_depth = 1;
  const Engine engine(o);
  const RunResult r = pin.depth > 1 ? engine.run_cascade(p, init, pin.depth)
                                    : engine.run(p, init);
  ASSERT_TRUE(r.output.has_value()) << pin.label;
  EXPECT_EQ(*r.output, reference_run(p, init)) << pin.label;
  EXPECT_EQ(r.cycles, pin.cycles) << pin.label;
  EXPECT_EQ(r.warmup_cycles, pin.warmup) << pin.label;
  EXPECT_EQ(r.dram, pin.dram) << pin.label;
  EXPECT_EQ(sweep::hash_grid(*r.output), pin.output_hash) << pin.label;
  EXPECT_EQ(r.resources.r_total, pin.r_total) << pin.label;
  EXPECT_EQ(r.resources.b_total, pin.b_total) << pin.label;
  EXPECT_EQ(r.resources.m20k_blocks, pin.m20k_blocks) << pin.label;
  EXPECT_EQ(render(r.metrics), pin.metrics) << pin.label;
}

TEST(TopPins, FusedDepthsArePinned) {
  // Warmup here is the pipeline fill: the cycle of the first write-back.
  const ShapePin pins[] = {
      {"cascade d4 moore9/mirror average", 4, 12, 10, 1, "moore9", "mirror",
       "average", "random", "functional", false, 8,
       401, 79, {2, 240, 240, 0, 0, 0, 0, 240},
       0x10e8c1c448e38c88ull, 2418, 2048, 8,
       "cascade/ctrl/stage1/input/hwm=2 "
       "cascade/ctrl/stage2/input/hwm=2 "
       "cascade/ctrl/stage3/input/hwm=2 "
       "cascade/gather_staging_cycles=0 cascade/stall/dram_wait=8 "
       "cascade/stall/interstage_backpressure=0 "
       "cascade/stall/interstage_wait=252 "
       "cascade/stall/kernel_backpressure=0 "
       "cascade/stall/request_backpressure=0 "
       "cascade/stall/writeback_backpressure=0 "
       "cascade/writeback_drain_cycles=0 dram/read_data/hwm=2 "
       "dram/read_req/hwm=1 dram/stall/backpressure=0 "
       "dram/stall/row_wait=0 dram/write_req/hwm=2 "
       "kernel/stage0/in/hwm=2 kernel/stage0/out/hwm=2 "
       "kernel/stage0/stall/out_backpressure=0 kernel/stage1/in/hwm=2 "
       "kernel/stage1/out/hwm=2 "
       "kernel/stage1/stall/out_backpressure=0 kernel/stage2/in/hwm=2 "
       "kernel/stage2/out/hwm=2 "
       "kernel/stage2/stall/out_backpressure=0 kernel/stage3/in/hwm=2 "
       "kernel/stage3/out/hwm=2 "
       "kernel/stage3/stall/out_backpressure=0 "
       "sched/cycles/total=401 "
       "sched/module/cascade/awake=401 "
       "sched/module/dram/awake=401 "
       "sched/module/kernel/stage0/awake=401 "
       "sched/module/kernel/stage1/awake=401 "
       "sched/module/kernel/stage2/awake=401 "
       "sched/module/kernel/stage3/awake=401"},
      {"cascade d3 vn4/island wq1", 3, 12, 10, 1, "vn4", "island", "average",
       "random", "functional", true, 6,
       595, 57, {2, 240, 240, 0, 0, 0, 0, 240},
       0x24082a6d3cf057b7ull, 1399, 1536, 6,
       "cascade/ctrl/stage1/input/hwm=4 "
       "cascade/ctrl/stage2/input/hwm=4 "
       "cascade/gather_staging_cycles=0 cascade/stall/dram_wait=8 "
       "cascade/stall/interstage_backpressure=326 "
       "cascade/stall/interstage_wait=124 "
       "cascade/stall/kernel_backpressure=522 "
       "cascade/stall/request_backpressure=0 "
       "cascade/stall/writeback_backpressure=238 "
       "cascade/writeback_drain_cycles=0 dram/read_data/hwm=8 "
       "dram/read_req/hwm=1 dram/stall/backpressure=72 "
       "dram/stall/row_wait=0 dram/write_req/hwm=1 "
       "kernel/stage0/in/hwm=2 kernel/stage0/out/hwm=2 "
       "kernel/stage0/stall/out_backpressure=134 "
       "kernel/stage1/in/hwm=2 kernel/stage1/out/hwm=2 "
       "kernel/stage1/stall/out_backpressure=184 "
       "kernel/stage2/in/hwm=2 kernel/stage2/out/hwm=2 "
       "kernel/stage2/stall/out_backpressure=234 "
       "sched/cycles/total=595 "
       "sched/module/cascade/awake=595 "
       "sched/module/dram/awake=595 "
       "sched/module/kernel/stage0/awake=595 "
       "sched/module/kernel/stage1/awake=595 "
       "sched/module/kernel/stage2/awake=595"},
      {"cascade d2 star7 jacobi ddr", 2, 12, 12, 6, "star7", "open", "jacobi",
       "jacobi-init", "ddr", false, 4,
       2378, 324, {2, 1728, 1728, 1, 2, 0, 0, 1728},
       0xf265fd5e12902100ull, 1323, 18432, 8,
       "cascade/ctrl/stage1/input/hwm=2 "
       "cascade/gather_staging_cycles=0 cascade/stall/dram_wait=41 "
       "cascade/stall/interstage_backpressure=0 "
       "cascade/stall/interstage_wait=345 "
       "cascade/stall/kernel_backpressure=0 "
       "cascade/stall/request_backpressure=0 "
       "cascade/stall/writeback_backpressure=0 "
       "cascade/writeback_drain_cycles=0 dram/read_data/hwm=2 "
       "dram/read_req/hwm=1 dram/stall/backpressure=0 "
       "dram/stall/row_wait=24 dram/write_req/hwm=2 "
       "kernel/stage0/in/hwm=2 kernel/stage0/out/hwm=2 "
       "kernel/stage0/stall/out_backpressure=0 kernel/stage1/in/hwm=2 "
       "kernel/stage1/out/hwm=2 "
       "kernel/stage1/stall/out_backpressure=0 "
       "sched/cycles/total=2378 "
       "sched/module/cascade/awake=2378 "
       "sched/module/dram/awake=2378 "
       "sched/module/kernel/stage0/awake=2378 "
       "sched/module/kernel/stage1/awake=2378"}
  };
  for (const ShapePin& pin : pins) expect_pinned(pin);
}

TEST(TopPins, StaticPathIsPinned) {
  // Warmup here is the end of FSM-1's static prefetch.
  const ShapePin pins[] = {
      {"smache vn4/paper", 1, 11, 11, 1, "vn4", "paper", "average", "random",
       "functional", false, 3,
       465, 30, {5, 385, 363, 0, 0, 0, 0, 385},
       0xe4f3d716397e4294ull, 402, 2048, 6,
       "dram/read_data/hwm=2 dram/read_req/hwm=1 "
       "dram/stall/backpressure=0 dram/stall/row_wait=0 "
       "dram/write_req/hwm=2 kernel/in/hwm=2 kernel/out/hwm=2 "
       "kernel/stall/out_backpressure=0 "
       "sched/cycles/total=465 "
       "sched/module/dram/awake=465 "
       "sched/module/kernel/awake=465 "
       "sched/module/smache/awake=465 "
       "smache/gather_staging_cycles=0 smache/stall/dram_wait=18 "
       "smache/stall/kernel_backpressure=0 "
       "smache/stall/request_backpressure=0 "
       "smache/stall/writeback_backpressure=0 "
       "smache/writeback_drain_cycles=0"},
      {"smache star5 hotspot/circular wq1", 1, 12, 12, 1, "star5", "circular",
       "hotspot", "hotspot-chip", "functional", true, 2,
       1284, 56, {4, 624, 576, 0, 0, 0, 0, 624},
       0xec2cb451ade79f01ull, 962, 4352, 12,
       "dram/read_data/hwm=8 dram/read_req/hwm=1 "
       "dram/stall/backpressure=446 dram/stall/row_wait=0 "
       "dram/write_req/hwm=1 kernel/in/hwm=2 kernel/out/hwm=2 "
       "kernel/stall/out_backpressure=836 "
       "sched/cycles/total=1284 "
       "sched/module/dram/awake=1284 "
       "sched/module/kernel/awake=1284 "
       "sched/module/smache/awake=1284 "
       "smache/gather_staging_cycles=288 smache/stall/dram_wait=14 "
       "smache/stall/kernel_backpressure=556 "
       "smache/stall/request_backpressure=0 "
       "smache/stall/writeback_backpressure=574 "
       "smache/writeback_drain_cycles=288"}
  };
  for (const ShapePin& pin : pins) expect_pinned(pin);
}

}  // namespace
}  // namespace smache
