#include "catalogue.hpp"

#include <algorithm>

namespace perfbench {

namespace {

MetricDef e2e(std::string name, std::string unit, Better better) {
  return {std::move(name), std::move(unit), better, true};
}

MetricDef layer(std::string name, std::string unit,
                Better better = Better::Lower) {
  return {std::move(name), std::move(unit), better, false};
}

}  // namespace

const std::vector<MetricDef>& metric_catalogue() {
  static const std::vector<MetricDef> defs = {
      // End to end (untraced run).
      e2e("cell_updates_per_s", "updates/s", Better::Higher),
      e2e("scenarios_per_s", "1/s", Better::Higher),
      e2e("setup_s", "s", Better::Lower),
      e2e("peak_rss_mb", "MB", Better::Lower),
      e2e("sim_cycles_per_cell_update", "cycles/update", Better::Lower),
      e2e("dram_bytes_per_cell_update", "B/update", Better::Lower),

      // sweep: spec expansion, input generation, the result store,
      // hashing, emission and the executor itself (host).
      layer("sweep.spec.expand_ns", "ns"),
      layer("sweep.workloads.make_input_ns", "ns"),
      layer("sweep.store.open_ns", "ns"),
      layer("sweep.store.put_ns", "ns"),
      layer("sweep.store.find_ns", "ns"),
      layer("sweep.store.bytes", "B"),
      layer("sweep.hash_grid_ns", "ns"),
      layer("sweep.emit.json_ns", "ns"),
      layer("sweep.emit.csv_ns", "ns"),
      layer("sweep.executor.overhead_ns", "ns"),

      // core / model: elaboration and planning (host).
      layer("core.engine.elaborate_ns", "ns"),
      layer("model.planner.plan_ns", "ns"),

      // core: engine host time per logical cell update, by execution path.
      layer("core.engine.ns_per_cell_update.smache", "ns/update"),
      layer("core.engine.ns_per_cell_update.baseline", "ns/update"),
      layer("core.engine.ns_per_cell_update.cascade", "ns/update"),
      layer("core.engine.ns_per_cell_update.tiled", "ns/update"),
      layer("core.engine.ns_per_cell_update.f3", "ns/update"),
      layer("core.engine.ns_per_cell_update.d3", "ns/update"),

      // grid: the reference oracle and the tiler (host).
      layer("grid.reference.ns_per_cell_update", "ns/update"),
      layer("grid.tiling.overhead_ratio", "ratio"),

      // sim: the activity-gated scheduler (simulated counts, host rate).
      layer("sim.sched.module_evals_per_cell_update", "evals/update"),
      layer("sim.sched.asleep_share", "ratio"),
      layer("sim.sched.fastforward_share", "ratio", Better::Higher),
      layer("sim.cycles_per_host_s", "cycles/s", Better::Higher),

      // rtl: stall episodes and staging/drain cycles of the tops
      // (simulated).
      layer("rtl.stall.request_backpressure_episodes", "count"),
      layer("rtl.stall.dram_wait_episodes", "count"),
      layer("rtl.stall.kernel_backpressure_episodes", "count"),
      layer("rtl.stall.writeback_backpressure_episodes", "count"),
      layer("rtl.stall.interstage_backpressure_episodes", "count"),
      layer("rtl.stall.out_backpressure_episodes", "count"),
      layer("rtl.gather_staging_cycles", "cycles"),
      layer("rtl.writeback_drain_cycles", "cycles"),
      layer("rtl.warmup_share", "ratio"),

      // mem: the DRAM model (simulated).
      layer("mem.dram.words_read_per_cell_update", "words/update"),
      layer("mem.dram.words_written_per_cell_update", "words/update"),
      layer("mem.dram.read_requests", "count"),
      layer("mem.dram.row_hit_ratio", "ratio", Better::Higher),
      layer("mem.dram.stall.backpressure", "cycles"),
      layer("mem.dram.stall.row_wait", "cycles"),

      // cost: resource and timing model outputs (deterministic).
      layer("cost.m20k_blocks", "count"),
      layer("cost.r_total", "bits"),
      layer("cost.b_total", "bits"),
      layer("cost.fmax_mhz", "MHz", Better::Higher),

      // obs: what profiling costs (host).
      layer("obs.profile_overhead_ratio", "ratio"),
  };
  return defs;
}

bool valid_name(const std::string& name) {
  return !name.empty() && name.size() <= 64 &&
         std::all_of(name.begin(), name.end(), [](char c) {
           return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
         });
}

}  // namespace perfbench
