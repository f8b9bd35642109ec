// Byte-level walls for the sweep reports. The SweepEmit cases in
// test_sweep search reports for substrings, and CI's cross-binary `cmp`
// sees neither the wall-class columns (store_hit, metrics) nor a failed
// row. These cases pin whole reports instead:
//   * the full emit_json and emit_csv text of one hand-built result
//     vector, under the default options and under every include_* option;
//   * fmt_double against the snprintf/strtod loop that defines its rule
//     (the first of %.15g, %.16g and %.17g that parses back to the same
//     double), on edge cases, every power of two and random bit patterns.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "rtl/kernel.hpp"
#include "sweep/emit.hpp"
#include "sweep/executor.hpp"

namespace smache::sweep {
namespace {

/// A hand-built report covering every column rule and number form the
/// emitters have: F = 3 and 3D rows beside F = 1 2D rows (the fields and
/// slices columns), a 2x2x2 tile mesh, an elaborate-only row, a failed row
/// whose error needs every kind of escaping, unchecked and mismatched
/// references, doubles that need 15, 16 and 17 digits or sit on either
/// side of %g's switch to exponent form, -0.0, the smallest subnormal,
/// UINT64_MAX in a counter, a metric and the seed, and three metric
/// samples. No engine runs: the rows are data, so the pinned text changes
/// only when the emitters do.
std::vector<ScenarioResult> golden_results() {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::vector<ScenarioResult> rows;
  rows.reserve(6);  // the references add() returns stay valid
  const auto add = [&rows](std::string label) -> ScenarioResult& {
    ScenarioResult& r = rows.emplace_back();
    r.scenario.label = std::move(label);
    r.scenario.stencil = "vn4";
    r.scenario.boundary = "paper";
    r.scenario.kernel = "average";
    r.scenario.input = "random";
    r.scenario.dram = "functional";
    r.scenario.problem.height = 11;
    r.scenario.problem.width = 11;
    r.scenario.problem.steps = 2;
    r.scenario.seed = 0x1d;
    r.ok = true;
    r.wall_ms = 2.5;
    return r;
  };

  ScenarioResult& plain = add("sim/smache/hyb-t4/11x11/functional/s2/vn4");
  plain.run.cycles = 1234;
  plain.run.warmup_cycles = 17;
  plain.run.dram.read_requests = 30;
  plain.run.dram.words_read = 121;
  plain.run.dram.words_written = 121;
  plain.run.dram.row_hits = 9;
  plain.run.dram.row_misses = 2;
  plain.output_hash = 0x0123456789abcdefull;
  plain.run.resources.r_total = 120;
  plain.run.resources.b_total = 9001;
  plain.run.resources.m20k_blocks = 7;
  plain.run.timing.fmax_mhz = 287.25;
  plain.run.ops = 605;
  plain.run.exec_time_us = 0.1;       // 15 digits suffice
  plain.run.mops = 1.0 / 3.0;         // needs 16
  plain.reference_checked = true;
  plain.reference_match = true;
  plain.run.metrics = {{"dram/read_busy_cycles", obs::MetricKind::Counter, 0},
                       {"kernel/stall/out_backpressure",
                        obs::MetricKind::Counter, 42},
                       {"sched/cycles/total", obs::MetricKind::Counter, kMax}};

  ScenarioResult& fdtd = add("sim/baseline/16x16/ddr/s2/star5/open/fdtd");
  fdtd.scenario.engine.arch = Architecture::Baseline;
  fdtd.scenario.problem.kernel = rtl::KernelSpec::fdtd_wave(0.5f);
  fdtd.scenario.problem.height = 16;
  fdtd.scenario.problem.width = 16;
  fdtd.scenario.stencil = "star5";
  fdtd.scenario.boundary = "open";
  fdtd.scenario.kernel = "fdtd";
  fdtd.scenario.input = "fdtd-cavity";
  fdtd.scenario.dram = "ddr";
  fdtd.scenario.tiles = {2, 2};
  fdtd.run.cycles = 800;
  fdtd.run.dram.words_read = 768;
  fdtd.output_hash = 0xfedcba9876543210ull;
  fdtd.run.timing.fmax_mhz = 1e-5;    // exponent form
  fdtd.run.exec_time_us = 0.1 + 0.2;  // needs 17
  fdtd.run.mops = 1e-4;               // last fixed form
  fdtd.from_store = true;

  ScenarioResult& cube = add("sim/smache/hyb-t4/12x12x6/stall/s2/d2/t2x2x2");
  cube.scenario.problem.depth = 6;
  cube.scenario.problem.height = 12;
  cube.scenario.problem.width = 12;
  cube.scenario.problem.kernel = rtl::KernelSpec::jacobi();
  cube.scenario.depth = 2;
  cube.scenario.tiles = {2, 2, 2};
  cube.scenario.stencil = "star7";
  cube.scenario.boundary = "island";
  cube.scenario.kernel = "jacobi";
  cube.scenario.input = "jacobi-init";
  cube.scenario.dram = "stall";
  cube.run.cycles = 99999;
  cube.run.timing.fmax_mhz = 1e15;
  cube.run.exec_time_us = 1e16;
  cube.run.mops = 1e17;
  cube.reference_checked = true;
  cube.reference_match = false;  // a mismatched reference
  cube.from_store = true;

  ScenarioResult& failed = add("sim/smache/reg/11x11/functional/s2/bad");
  failed.ok = false;
  failed.error =
      "rejected \"pairing\" at C:\\src\\x.cpp\nnext\tline \x01 end, comma";
  failed.run.cycles = 5;  // partial counters: CSV writes them, JSON not

  ScenarioResult& extremes = add("sim/smache/hyb-t4/11x11/functional/s2/max");
  extremes.scenario.seed = kMax;
  extremes.run.cycles = kMax;
  extremes.run.ops = kMax;
  extremes.run.timing.fmax_mhz = -0.0;
  extremes.run.exec_time_us = 5e-324;  // smallest subnormal
  extremes.run.mops = 1234567890123456.0;  // 16 digits, fixed form
  extremes.output_hash = kMax;

  ScenarioResult& elab = add("elab/smache/hyb-t4/11x11/vn4/paper");
  elab.scenario.mode = Mode::ElaborateOnly;
  elab.scenario.input = "";
  elab.scenario.dram = "";
  elab.run.resources.r_total = 64;
  elab.run.resources.b_total = 2048;
  elab.run.resources.m20k_blocks = 1;
  elab.run.timing.fmax_mhz = 12345678901234568.0;  // 17 digits, fixed
  return rows;
}

// The reports golden_results() emits, byte for byte.
const char* const kJson =
    "{\n"
    "  \"name\": \"smache-sweep\",\n"
    "  \"run_type\": \"sweep\",\n"
    "  \"scenario_count\": 6,\n"
    "  \"digest\": \"0x554a11437e198772\",\n"
    "  \"results\": [\n"
    "    {\"label\": \"sim/smache/hyb-t4/11x11/functional/s2/vn4\", "
    "\"mode\": \"sim\", \"arch\": \"smache\", \"height\": 11, \"width\": 11, "
    "\"steps\": 2, \"depth\": 1, \"tiles\": \"1x1\", \"stencil\": \"vn4\", "
    "\"boundary\": \"paper\", \"kernel\": \"average\", "
    "\"input\": \"random\", \"dram\": \"functional\", "
    "\"seed\": \"0x000000000000001d\", \"ok\": true, \"cycles\": 1234, "
    "\"warmup_cycles\": 17, \"read_requests\": 30, \"dram_read_bytes\": 484, "
    "\"dram_write_bytes\": 484, \"row_hits\": 9, \"row_misses\": 2, "
    "\"output_hash\": \"0x0123456789abcdef\", \"r_total\": 120, "
    "\"b_total\": 9001, \"m20k\": 7, \"fmax_mhz\": 287.25, \"ops\": 605, "
    "\"exec_time_us\": 0.1, \"mops\": 0.3333333333333333, "
    "\"reference_match\": true},\n"
    "    {\"label\": \"sim/baseline/16x16/ddr/s2/star5/open/fdtd\", "
    "\"mode\": \"sim\", \"arch\": \"baseline\", \"height\": 16, "
    "\"width\": 16, \"steps\": 2, \"depth\": 1, \"tiles\": \"2x2\", "
    "\"stencil\": \"star5\", \"boundary\": \"open\", \"kernel\": \"fdtd\", "
    "\"fields\": 3, \"input\": \"fdtd-cavity\", \"dram\": \"ddr\", "
    "\"seed\": \"0x000000000000001d\", \"ok\": true, \"cycles\": 800, "
    "\"warmup_cycles\": 0, \"read_requests\": 0, \"dram_read_bytes\": 3072, "
    "\"dram_write_bytes\": 0, \"row_hits\": 0, \"row_misses\": 0, "
    "\"output_hash\": \"0xfedcba9876543210\", \"r_total\": 0, "
    "\"b_total\": 0, \"m20k\": 0, \"fmax_mhz\": 1e-05, \"ops\": 0, "
    "\"exec_time_us\": 0.30000000000000004, \"mops\": 0.0001},\n"
    "    {\"label\": \"sim/smache/hyb-t4/12x12x6/stall/s2/d2/t2x2x2\", "
    "\"mode\": \"sim\", \"arch\": \"smache\", \"height\": 12, \"width\": 12, "
    "\"steps\": 2, \"depth\": 2, \"tiles\": \"2x2x2\", "
    "\"stencil\": \"star7\", \"boundary\": \"island\", "
    "\"kernel\": \"jacobi\", \"slices\": 6, \"input\": \"jacobi-init\", "
    "\"dram\": \"stall\", \"seed\": \"0x000000000000001d\", \"ok\": true, "
    "\"cycles\": 99999, \"warmup_cycles\": 0, \"read_requests\": 0, "
    "\"dram_read_bytes\": 0, \"dram_write_bytes\": 0, \"row_hits\": 0, "
    "\"row_misses\": 0, \"output_hash\": \"0x0000000000000000\", "
    "\"r_total\": 0, \"b_total\": 0, \"m20k\": 0, \"fmax_mhz\": 1e+15, "
    "\"ops\": 0, \"exec_time_us\": 1e+16, \"mops\": 1e+17, "
    "\"reference_match\": false},\n"
    "    {\"label\": \"sim/smache/reg/11x11/functional/s2/bad\", "
    "\"mode\": \"sim\", \"arch\": \"smache\", \"height\": 11, \"width\": 11, "
    "\"steps\": 2, \"depth\": 1, \"tiles\": \"1x1\", \"stencil\": \"vn4\", "
    "\"boundary\": \"paper\", \"kernel\": \"average\", "
    "\"input\": \"random\", \"dram\": \"functional\", "
    "\"seed\": \"0x000000000000001d\", \"ok\": false, "
    "\"error\": \"rejected \\\"pairing\\\" at C:\\\\src\\\\x.cpp\\nnext\\tlin"
    "e \\u0001 end, comma\"},\n"
    "    {\"label\": \"sim/smache/hyb-t4/11x11/functional/s2/max\", "
    "\"mode\": \"sim\", \"arch\": \"smache\", \"height\": 11, \"width\": 11, "
    "\"steps\": 2, \"depth\": 1, \"tiles\": \"1x1\", \"stencil\": \"vn4\", "
    "\"boundary\": \"paper\", \"kernel\": \"average\", "
    "\"input\": \"random\", \"dram\": \"functional\", "
    "\"seed\": \"0xffffffffffffffff\", \"ok\": true, "
    "\"cycles\": 18446744073709551615, \"warmup_cycles\": 0, "
    "\"read_requests\": 0, \"dram_read_bytes\": 0, \"dram_write_bytes\": 0, "
    "\"row_hits\": 0, \"row_misses\": 0, "
    "\"output_hash\": \"0xffffffffffffffff\", \"r_total\": 0, "
    "\"b_total\": 0, \"m20k\": 0, \"fmax_mhz\": -0, "
    "\"ops\": 18446744073709551615, \"exec_time_us\": 4.94065645841247e-324, "
    "\"mops\": 1234567890123456},\n"
    "    {\"label\": \"elab/smache/hyb-t4/11x11/vn4/paper\", "
    "\"mode\": \"elab\", \"arch\": \"smache\", \"height\": 11, "
    "\"width\": 11, \"steps\": 2, \"depth\": 1, \"tiles\": \"1x1\", "
    "\"stencil\": \"vn4\", \"boundary\": \"paper\", \"kernel\": \"average\", "
    "\"input\": \"\", \"dram\": \"\", \"seed\": \"0x000000000000001d\", "
    "\"ok\": true, \"cycles\": 0, \"warmup_cycles\": 0, "
    "\"read_requests\": 0, \"dram_read_bytes\": 0, \"dram_write_bytes\": 0, "
    "\"row_hits\": 0, \"row_misses\": 0, "
    "\"output_hash\": \"0x0000000000000000\", \"r_total\": 64, "
    "\"b_total\": 2048, \"m20k\": 1, \"fmax_mhz\": 12345678901234568, "
    "\"ops\": 0, \"exec_time_us\": 0, \"mops\": 0}\n"
    "  ]\n"
    "}\n";

const char* const kCsv =
    "label,mode,arch,height,width,steps,depth,tiles,stencil,boundary,kernel,"
    "input,dram,seed,ok,error,cycles,warmup_cycles,read_requests,"
    "dram_read_bytes,dram_write_bytes,row_hits,row_misses,output_hash,"
    "r_total,b_total,m20k,fmax_mhz,ops,exec_time_us,mops,reference_match,"
    "fields,slices\n"
    "sim/smache/hyb-t4/11x11/functional/s2/vn4,sim,smache,11,11,2,1,1x1,vn4,"
    "paper,average,random,functional,0x000000000000001d,true,,1234,17,30,484,"
    "484,9,2,0x0123456789abcdef,120,9001,7,287.25,605,0.1,0.3333333333333333,"
    "true,1,1\n"
    "sim/baseline/16x16/ddr/s2/star5/open/fdtd,sim,baseline,16,16,2,1,2x2,"
    "star5,open,fdtd,fdtd-cavity,ddr,0x000000000000001d,true,,800,0,0,3072,0,"
    "0,0,0xfedcba9876543210,0,0,0,1e-05,0,0.30000000000000004,0.0001,,3,1\n"
    "sim/smache/hyb-t4/12x12x6/stall/s2/d2/t2x2x2,sim,smache,12,12,2,2,2x2x2,"
    "star7,island,jacobi,jacobi-init,stall,0x000000000000001d,true,,99999,0,"
    "0,0,0,0,0,0x0000000000000000,0,0,0,1e+15,0,1e+16,1e+17,false,1,6\n"
    "sim/smache/reg/11x11/functional/s2/bad,sim,smache,11,11,2,1,1x1,vn4,"
    "paper,average,random,functional,0x000000000000001d,false,"
    "\"rejected \"\"pairing\"\" at C:\\src\\x.cpp\n"
    "next\tline \001 end, comma\",5,0,0,0,0,0,0,0x0000000000000000,0,0,0,0,0,"
    "0,0,,1,1\n"
    "sim/smache/hyb-t4/11x11/functional/s2/max,sim,smache,11,11,2,1,1x1,vn4,"
    "paper,average,random,functional,0xffffffffffffffff,true,,"
    "18446744073709551615,0,0,0,0,0,0,0xffffffffffffffff,0,0,0,-0,"
    "18446744073709551615,4.94065645841247e-324,1234567890123456,,1,1\n"
    "elab/smache/hyb-t4/11x11/vn4/paper,elab,smache,11,11,2,1,1x1,vn4,paper,"
    "average,,,0x000000000000001d,true,,0,0,0,0,0,0,0,0x0000000000000000,64,"
    "2048,1,12345678901234568,0,0,0,,1,1\n";

const char* const kJsonAll =
    "{\n"
    "  \"name\": \"smache-sweep\",\n"
    "  \"run_type\": \"sweep\",\n"
    "  \"scenario_count\": 6,\n"
    "  \"digest\": \"0x554a11437e198772\",\n"
    "  \"results\": [\n"
    "    {\"label\": \"sim/smache/hyb-t4/11x11/functional/s2/vn4\", "
    "\"mode\": \"sim\", \"arch\": \"smache\", \"height\": 11, \"width\": 11, "
    "\"steps\": 2, \"depth\": 1, \"tiles\": \"1x1\", \"stencil\": \"vn4\", "
    "\"boundary\": \"paper\", \"kernel\": \"average\", "
    "\"input\": \"random\", \"dram\": \"functional\", "
    "\"seed\": \"0x000000000000001d\", \"ok\": true, \"cycles\": 1234, "
    "\"warmup_cycles\": 17, \"read_requests\": 30, \"dram_read_bytes\": 484, "
    "\"dram_write_bytes\": 484, \"row_hits\": 9, \"row_misses\": 2, "
    "\"output_hash\": \"0x0123456789abcdef\", \"r_total\": 120, "
    "\"b_total\": 9001, \"m20k\": 7, \"fmax_mhz\": 287.25, \"ops\": 605, "
    "\"exec_time_us\": 0.1, \"mops\": 0.3333333333333333, "
    "\"reference_match\": true, \"wall_ms\": 2.5, \"store_hit\": false, "
    "\"metrics\": {\"dram/read_busy_cycles\": 0, "
    "\"kernel/stall/out_backpressure\": 42, "
    "\"sched/cycles/total\": 18446744073709551615}},\n"
    "    {\"label\": \"sim/baseline/16x16/ddr/s2/star5/open/fdtd\", "
    "\"mode\": \"sim\", \"arch\": \"baseline\", \"height\": 16, "
    "\"width\": 16, \"steps\": 2, \"depth\": 1, \"tiles\": \"2x2\", "
    "\"stencil\": \"star5\", \"boundary\": \"open\", \"kernel\": \"fdtd\", "
    "\"fields\": 3, \"input\": \"fdtd-cavity\", \"dram\": \"ddr\", "
    "\"seed\": \"0x000000000000001d\", \"ok\": true, \"cycles\": 800, "
    "\"warmup_cycles\": 0, \"read_requests\": 0, \"dram_read_bytes\": 3072, "
    "\"dram_write_bytes\": 0, \"row_hits\": 0, \"row_misses\": 0, "
    "\"output_hash\": \"0xfedcba9876543210\", \"r_total\": 0, "
    "\"b_total\": 0, \"m20k\": 0, \"fmax_mhz\": 1e-05, \"ops\": 0, "
    "\"exec_time_us\": 0.30000000000000004, \"mops\": 0.0001, "
    "\"wall_ms\": 2.5, \"store_hit\": true, \"metrics\": {}},\n"
    "    {\"label\": \"sim/smache/hyb-t4/12x12x6/stall/s2/d2/t2x2x2\", "
    "\"mode\": \"sim\", \"arch\": \"smache\", \"height\": 12, \"width\": 12, "
    "\"steps\": 2, \"depth\": 2, \"tiles\": \"2x2x2\", "
    "\"stencil\": \"star7\", \"boundary\": \"island\", "
    "\"kernel\": \"jacobi\", \"slices\": 6, \"input\": \"jacobi-init\", "
    "\"dram\": \"stall\", \"seed\": \"0x000000000000001d\", \"ok\": true, "
    "\"cycles\": 99999, \"warmup_cycles\": 0, \"read_requests\": 0, "
    "\"dram_read_bytes\": 0, \"dram_write_bytes\": 0, \"row_hits\": 0, "
    "\"row_misses\": 0, \"output_hash\": \"0x0000000000000000\", "
    "\"r_total\": 0, \"b_total\": 0, \"m20k\": 0, \"fmax_mhz\": 1e+15, "
    "\"ops\": 0, \"exec_time_us\": 1e+16, \"mops\": 1e+17, "
    "\"reference_match\": false, \"wall_ms\": 2.5, \"store_hit\": true, "
    "\"metrics\": {}},\n"
    "    {\"label\": \"sim/smache/reg/11x11/functional/s2/bad\", "
    "\"mode\": \"sim\", \"arch\": \"smache\", \"height\": 11, \"width\": 11, "
    "\"steps\": 2, \"depth\": 1, \"tiles\": \"1x1\", \"stencil\": \"vn4\", "
    "\"boundary\": \"paper\", \"kernel\": \"average\", "
    "\"input\": \"random\", \"dram\": \"functional\", "
    "\"seed\": \"0x000000000000001d\", \"ok\": false, "
    "\"error\": \"rejected \\\"pairing\\\" at C:\\\\src\\\\x.cpp\\nnext\\tlin"
    "e \\u0001 end, comma\", \"wall_ms\": 2.5, \"store_hit\": false, "
    "\"metrics\": {}},\n"
    "    {\"label\": \"sim/smache/hyb-t4/11x11/functional/s2/max\", "
    "\"mode\": \"sim\", \"arch\": \"smache\", \"height\": 11, \"width\": 11, "
    "\"steps\": 2, \"depth\": 1, \"tiles\": \"1x1\", \"stencil\": \"vn4\", "
    "\"boundary\": \"paper\", \"kernel\": \"average\", "
    "\"input\": \"random\", \"dram\": \"functional\", "
    "\"seed\": \"0xffffffffffffffff\", \"ok\": true, "
    "\"cycles\": 18446744073709551615, \"warmup_cycles\": 0, "
    "\"read_requests\": 0, \"dram_read_bytes\": 0, \"dram_write_bytes\": 0, "
    "\"row_hits\": 0, \"row_misses\": 0, "
    "\"output_hash\": \"0xffffffffffffffff\", \"r_total\": 0, "
    "\"b_total\": 0, \"m20k\": 0, \"fmax_mhz\": -0, "
    "\"ops\": 18446744073709551615, \"exec_time_us\": 4.94065645841247e-324, "
    "\"mops\": 1234567890123456, \"wall_ms\": 2.5, \"store_hit\": false, "
    "\"metrics\": {}},\n"
    "    {\"label\": \"elab/smache/hyb-t4/11x11/vn4/paper\", "
    "\"mode\": \"elab\", \"arch\": \"smache\", \"height\": 11, "
    "\"width\": 11, \"steps\": 2, \"depth\": 1, \"tiles\": \"1x1\", "
    "\"stencil\": \"vn4\", \"boundary\": \"paper\", \"kernel\": \"average\", "
    "\"input\": \"\", \"dram\": \"\", \"seed\": \"0x000000000000001d\", "
    "\"ok\": true, \"cycles\": 0, \"warmup_cycles\": 0, "
    "\"read_requests\": 0, \"dram_read_bytes\": 0, \"dram_write_bytes\": 0, "
    "\"row_hits\": 0, \"row_misses\": 0, "
    "\"output_hash\": \"0x0000000000000000\", \"r_total\": 64, "
    "\"b_total\": 2048, \"m20k\": 1, \"fmax_mhz\": 12345678901234568, "
    "\"ops\": 0, \"exec_time_us\": 0, \"mops\": 0, \"wall_ms\": 2.5, "
    "\"store_hit\": false, \"metrics\": {}}\n"
    "  ]\n"
    "}\n";

const char* const kCsvAll =
    "label,mode,arch,height,width,steps,depth,tiles,stencil,boundary,kernel,"
    "input,dram,seed,ok,error,cycles,warmup_cycles,read_requests,"
    "dram_read_bytes,dram_write_bytes,row_hits,row_misses,output_hash,"
    "r_total,b_total,m20k,fmax_mhz,ops,exec_time_us,mops,reference_match,"
    "wall_ms,store_hit,metrics,fields,slices\n"
    "sim/smache/hyb-t4/11x11/functional/s2/vn4,sim,smache,11,11,2,1,1x1,vn4,"
    "paper,average,random,functional,0x000000000000001d,true,,1234,17,30,484,"
    "484,9,2,0x0123456789abcdef,120,9001,7,287.25,605,0.1,0.3333333333333333,"
    "true,2.5,false,"
    "dram/read_busy_cycles=0;kernel/stall/out_backpressure=42;sched/cycles/to"
    "tal=18446744073709551615,1,1\n"
    "sim/baseline/16x16/ddr/s2/star5/open/fdtd,sim,baseline,16,16,2,1,2x2,"
    "star5,open,fdtd,fdtd-cavity,ddr,0x000000000000001d,true,,800,0,0,3072,0,"
    "0,0,0xfedcba9876543210,0,0,0,1e-05,0,0.30000000000000004,0.0001,,2.5,"
    "true,,3,1\n"
    "sim/smache/hyb-t4/12x12x6/stall/s2/d2/t2x2x2,sim,smache,12,12,2,2,2x2x2,"
    "star7,island,jacobi,jacobi-init,stall,0x000000000000001d,true,,99999,0,"
    "0,0,0,0,0,0x0000000000000000,0,0,0,1e+15,0,1e+16,1e+17,false,2.5,true,,"
    "1,6\n"
    "sim/smache/reg/11x11/functional/s2/bad,sim,smache,11,11,2,1,1x1,vn4,"
    "paper,average,random,functional,0x000000000000001d,false,"
    "\"rejected \"\"pairing\"\" at C:\\src\\x.cpp\n"
    "next\tline \001 end, comma\",5,0,0,0,0,0,0,0x0000000000000000,0,0,0,0,0,"
    "0,0,,2.5,false,,1,1\n"
    "sim/smache/hyb-t4/11x11/functional/s2/max,sim,smache,11,11,2,1,1x1,vn4,"
    "paper,average,random,functional,0xffffffffffffffff,true,,"
    "18446744073709551615,0,0,0,0,0,0,0xffffffffffffffff,0,0,0,-0,"
    "18446744073709551615,4.94065645841247e-324,1234567890123456,,2.5,false,,"
    "1,1\n"
    "elab/smache/hyb-t4/11x11/vn4/paper,elab,smache,11,11,2,1,1x1,vn4,paper,"
    "average,,,0x000000000000001d,true,,0,0,0,0,0,0,0,0x0000000000000000,64,"
    "2048,1,12345678901234568,0,0,0,,2.5,false,,1,1\n";

TEST(SweepEmit, FullReportsArePinned) {
  const std::vector<ScenarioResult> results = golden_results();
  EXPECT_EQ(emit_json(results), kJson);
  EXPECT_EQ(emit_csv(results), kCsv);
  EmitOptions all;
  all.include_wall = true;
  all.include_store_hit = true;
  all.include_metrics = true;
  EXPECT_EQ(emit_json(results, all), kJsonAll);
  EXPECT_EQ(emit_csv(results, all), kCsvAll);
}

/// fmt_double's rule, written as the loop that first implemented it.
std::string reference_fmt_double(double v) {
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

TEST(SweepEmit, FmtDoubleMatchesTheSnprintfReference) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double edges[] = {0.0,
                          -0.0,
                          0.1,
                          1.0 / 3.0,
                          0.1 + 0.2,
                          1e-4,
                          1e-5,
                          1e15,
                          1e16,
                          1e17,
                          1234567890123456.0,
                          12345678901234568.0,
                          5e-324,
                          -5e-324,
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::max(),
                          -std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::epsilon(),
                          287.25,
                          kInf,
                          -kInf,
                          kNaN,
                          std::copysign(kNaN, -1.0)};
  for (const double v : edges)
    EXPECT_EQ(fmt_double(v), reference_fmt_double(v)) << v;
  for (int e = -1074; e <= 1023; ++e) {
    const double v = std::ldexp(1.0, e);
    ASSERT_EQ(fmt_double(v), reference_fmt_double(v)) << "2^" << e;
  }
  Rng rng(0xD0B1Eull);
  std::size_t checked = 0;
  while (checked < 100000) {
    const double v = std::bit_cast<double>(rng.next_u64());
    if (!std::isfinite(v)) continue;
    ++checked;
    ASSERT_EQ(fmt_double(v), reference_fmt_double(v))
        << std::bit_cast<std::uint64_t>(v);
  }
}

}  // namespace
}  // namespace smache::sweep
