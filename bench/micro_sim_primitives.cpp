// Microbenchmark E9: throughput of the simulation substrate itself —
// engineering data for anyone extending the simulator (how many simulated
// cycles per second the primitives and the full engine sustain).
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "mem/bram.hpp"
#include "mem/dram.hpp"
#include "rtl/stream_buffer.hpp"
#include "sim/fifo.hpp"
#include "sim/simulator.hpp"

namespace {

void BM_FifoPushPopCycle(benchmark::State& state) {
  smache::sim::Simulator sim;
  smache::sim::Fifo<smache::word_t> f(sim, "f", 4);
  f.push(0);
  sim.step();
  std::uint64_t v = 1;
  for (auto _ : state) {
    if (f.can_pop()) benchmark::DoNotOptimize(f.pop());
    if (f.can_push()) f.push(static_cast<smache::word_t>(v++));
    sim.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FifoPushPopCycle);

void BM_BramReadWriteCycle(benchmark::State& state) {
  smache::sim::Simulator sim;
  smache::mem::BramBank b(sim, "b", 1024, 32,
                          smache::mem::BramBank::Mode::Ram);
  std::size_t addr = 0;
  for (auto _ : state) {
    b.read(addr);
    b.write((addr + 512) % 1024, addr);
    b.settle();
    benchmark::DoNotOptimize(b.rdata());
    addr = (addr + 1) % 1024;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BramReadWriteCycle);

void BM_DramBurstStreaming(benchmark::State& state) {
  smache::sim::Simulator sim;
  smache::mem::DramModel d(sim, "d", 1 << 16,
                           smache::mem::DramConfig::functional());
  std::uint64_t outstanding = 0;
  for (auto _ : state) {
    if (outstanding == 0 && d.read_req().can_push()) {
      d.read_req().push({0, 4096});
      outstanding = 4096;
    }
    sim.step();
    if (d.read_data().can_pop()) {
      benchmark::DoNotOptimize(d.read_data().pop());
      --outstanding;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DramBurstStreaming);

void BM_StreamBufferShift(benchmark::State& state) {
  smache::sim::Simulator sim;
  smache::model::PlannerOptions opts;
  opts.stream_impl = state.range(0) == 0
                         ? smache::model::StreamImpl::RegisterOnly
                         : smache::model::StreamImpl::Hybrid;
  const auto plan = smache::model::Planner(opts).plan(
      64, 64, smache::grid::StencilShape::von_neumann4(),
      smache::grid::BoundarySpec::paper_example());
  smache::rtl::StreamBuffer sb(sim, "sb", plan);
  smache::word_t v = 0;
  for (auto _ : state) {
    sb.shift(v++);
    sb.settle();
    benchmark::DoNotOptimize(sb.tap(2));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StreamBufferShift)->Arg(0)->Arg(1);

void BM_EngineCyclesPerSecond(benchmark::State& state) {
  // Full-system rate: simulated cycles per wall second for the paper
  // problem (batched one instance per iteration).
  smache::Rng rng(5);
  smache::grid::Grid<smache::word_t> init(11, 11);
  for (std::size_t i = 0; i < init.size(); ++i)
    init[i] = static_cast<smache::word_t>(rng.next_below(1000));
  smache::ProblemSpec p = smache::ProblemSpec::paper_example();
  p.steps = 10;
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    const auto res =
        smache::Engine(smache::EngineOptions::smache()).run(p, init);
    cycles += res.cycles;
    benchmark::DoNotOptimize(res.cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
  state.SetLabel("items = simulated cycles");
}
BENCHMARK(BM_EngineCyclesPerSecond);

}  // namespace
