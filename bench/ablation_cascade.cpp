// Ablation E10 (extension): temporal blocking — multiple time steps fused
// per DRAM pass. The paper cites this direction ([2] Fu et al., [4] Nacci
// et al.) as complementary to Smache's off-chip optimisation; this bench
// quantifies the combination on our substrate: traffic falls ~1/K with
// fused depth K, on-chip footprint rises ~K, cycles improve modestly
// (compute was already streaming-rate-bound).
//
// Driven by the sweep subsystem: ONE SweepSpec whose `depths` dimension
// spans K = 1..24 expands to the eight configurations and runs on the
// SweepExecutor with golden-reference verification (the "correct" column).
// All depths share the workload-identity seed, so every row processes the
// identical input grid. SMACHE_SWEEP_THREADS overrides the worker count
// (default: all hardware threads; the table is identical for any value).
#include <cstdio>

#include "common/parallel.hpp"
#include "common/table.hpp"
#include "sweep/executor.hpp"

int main() {
  std::printf("=== Ablation: temporal blocking (cascade extension) ===\n");
  std::printf("24x24 grid, 4-point stencil, OPEN boundaries, 24 time "
              "steps total\n");
  std::printf("(periodic boundaries cannot be fused within a pass — their "
              "wrap data does not exist yet; see DESIGN.md)\n\n");

  smache::sweep::SweepSpec spec;
  spec.grids = {{24, 24}};
  spec.steps = {24};
  spec.depths = {1, 2, 3, 4, 6, 8, 12, 24};
  spec.stencils = {"vn4"};
  spec.boundaries = {"open"};
  spec.kernels = {"average"};
  spec.inputs = {"random"};

  smache::sweep::ExecutorOptions opts;
  opts.threads = smache::threads_from_env("SMACHE_SWEEP_THREADS", 0);
  opts.verify_reference = true;

  // The warmup column means different things across rows. Every row runs
  // SmacheTop with K chained stages: at K=1 its warmup is the
  // static-prefetch phase (0 here — open boundaries have nothing to
  // prefetch), while K>1 rows report the pipeline fill of the chain
  // (cycle of the first writeback), which grows with K. They are not one
  // curve.
  smache::TextTable t({"fused depth K", "passes", "cycles",
                       "warmup (see note)", "DRAM traffic KiB",
                       "traffic vs K=1", "on-chip window bits", "correct"});
  std::uint64_t base_traffic = 0;
  for (const auto& r : smache::sweep::SweepExecutor(opts).run(spec)) {
    if (!r.ok) {
      std::fprintf(stderr, "FAIL %s: %s\n", r.scenario.label.c_str(),
                   r.error.c_str());
      return 1;
    }
    const std::size_t depth = r.scenario.depth;
    if (depth == 1) base_traffic = r.run.dram.total_bytes();
    t.begin_row();
    t.add_cell(static_cast<std::uint64_t>(depth));
    t.add_cell(static_cast<std::uint64_t>(r.scenario.problem.steps / depth));
    t.add_cell(r.run.cycles);
    t.add_cell(r.run.warmup_cycles);
    t.add_cell(static_cast<double>(r.run.dram.total_bytes()) / 1024.0, 1);
    t.add_cell(static_cast<double>(r.run.dram.total_bytes()) /
                   static_cast<double>(base_traffic),
               3);
    t.add_cell(r.run.estimate->r_stream + r.run.estimate->b_stream);
    t.add_cell(std::string(r.reference_match ? "yes" : "NO"));
  }
  std::printf("%s\n", t.to_ascii().c_str());
  std::printf("note: warmup is SmacheTop's static-prefetch phase for K=1 "
              "(0 with open boundaries) and the pipeline fill of its K "
              "chained stages (first-writeback cycle) for K>1 — two "
              "different quantities, not one curve.\n");
  std::printf("expected shape: traffic scales as 1/K while on-chip bits "
              "scale as K — the classic temporal-blocking trade combined "
              "with Smache's streaming window.\n");
  return 0;
}
