#include "sweep/emit.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/escape.hpp"

namespace smache::sweep {

namespace {

std::string fmt_hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

}  // namespace

std::string fmt_double(double v) {
  // Shortest representation that round-trips: 15 significant digits
  // identify most doubles, 17 identify every finite one (DBL_DECIMAL_DIG),
  // so the loop always terminates with strtod(out) == v. Identical bit
  // patterns format identically, so emission stays deterministic.
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string emit_json(const std::vector<ScenarioResult>& results,
                      const EmitOptions& options) {
  std::ostringstream out;
  out << "{\n  \"name\": \"" << json_escape(options.name) << "\",\n"
      << "  \"run_type\": \"sweep\",\n"
      << "  \"scenario_count\": " << results.size() << ",\n"
      << "  \"digest\": \"" << fmt_hex64(SweepExecutor::digest(results))
      << "\",\n  \"results\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    const Scenario& s = r.scenario;
    out << (i == 0 ? "\n" : ",\n") << "    {\"label\": \""
        << json_escape(s.label) << "\", \"mode\": \"" << to_string(s.mode)
        << "\", \"arch\": \"" << to_string(s.engine.arch)
        << "\", \"height\": " << s.problem.height
        << ", \"width\": " << s.problem.width
        << ", \"steps\": " << s.problem.steps
        << ", \"depth\": " << s.depth << ", \"tiles\": \"" << s.tiles.height
        << 'x' << s.tiles.width;
    if (s.tiles.depth > 1) out << 'x' << s.tiles.depth;
    out << "\", \"stencil\": \"" << json_escape(s.stencil)
        << "\", \"boundary\": \"" << json_escape(s.boundary)
        << "\", \"kernel\": \"" << json_escape(s.kernel) << "\"";
    // Multi-field cell layouts and 3D grids are the exception; single-word
    // cells and single-slice grids stay implicit so every pre-existing
    // F=1 2D report remains byte-identical. ("depth" above is the cascade
    // depth; the grid's slice extent emits as "slices".)
    if (s.problem.kernel.fields() > 1)
      out << ", \"fields\": " << s.problem.kernel.fields();
    if (s.problem.depth > 1) out << ", \"slices\": " << s.problem.depth;
    out << ", \"input\": \""
        << json_escape(s.input) << "\", \"dram\": \"" << json_escape(s.dram)
        << "\", \"seed\": \"" << fmt_hex64(s.seed) << "\", \"ok\": "
        << (r.ok ? "true" : "false");
    if (!r.ok) out << ", \"error\": \"" << json_escape(r.error) << "\"";
    if (r.ok) {
      out << ", \"cycles\": " << r.run.cycles
          << ", \"warmup_cycles\": " << r.run.warmup_cycles
          << ", \"read_requests\": " << r.run.dram.read_requests
          << ", \"dram_read_bytes\": " << r.run.dram.bytes_read()
          << ", \"dram_write_bytes\": " << r.run.dram.bytes_written()
          << ", \"row_hits\": " << r.run.dram.row_hits
          << ", \"row_misses\": " << r.run.dram.row_misses
          << ", \"output_hash\": \"" << fmt_hex64(r.output_hash)
          << "\", \"r_total\": " << r.run.resources.r_total
          << ", \"b_total\": " << r.run.resources.b_total
          << ", \"m20k\": " << r.run.resources.m20k_blocks
          << ", \"fmax_mhz\": " << fmt_double(r.run.timing.fmax_mhz)
          << ", \"ops\": " << r.run.ops
          << ", \"exec_time_us\": " << fmt_double(r.run.exec_time_us)
          << ", \"mops\": " << fmt_double(r.run.mops);
      if (r.reference_checked)
        out << ", \"reference_match\": "
            << (r.reference_match ? "true" : "false");
    }
    if (options.include_wall)
      out << ", \"wall_ms\": " << fmt_double(r.wall_ms);
    if (options.include_store_hit)
      out << ", \"store_hit\": " << (r.from_store ? "true" : "false");
    if (options.include_metrics) {
      out << ", \"metrics\": {";
      for (std::size_t m = 0; m < r.run.metrics.size(); ++m)
        out << (m == 0 ? "" : ", ") << "\""
            << json_escape(r.run.metrics[m].path)
            << "\": " << r.run.metrics[m].value;
      out << "}";
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

std::string emit_csv(const std::vector<ScenarioResult>& results,
                     const EmitOptions& options) {
  std::ostringstream out;
  // The fields / slices columns only appear when some scenario actually
  // uses a multi-word cell layout / a 3D grid, so the pinned header of
  // every F=1 2D sweep (including all committed reports) is unchanged.
  bool any_fields = false;
  bool any_slices = false;
  for (const ScenarioResult& r : results) {
    if (r.scenario.problem.kernel.fields() > 1) any_fields = true;
    if (r.scenario.problem.depth > 1) any_slices = true;
  }
  out << "label,mode,arch,height,width,steps,depth,tiles,stencil,boundary,"
         "kernel,"
         "input,dram,seed,ok,error,cycles,warmup_cycles,read_requests,"
         "dram_read_bytes,dram_write_bytes,row_hits,row_misses,output_hash,"
         "r_total,b_total,m20k,fmax_mhz,ops,exec_time_us,mops,"
         "reference_match";
  if (options.include_wall) out << ",wall_ms";
  if (options.include_store_hit) out << ",store_hit";
  if (options.include_metrics) out << ",metrics";
  if (any_fields) out << ",fields";
  if (any_slices) out << ",slices";
  out << '\n';
  for (const ScenarioResult& r : results) {
    const Scenario& s = r.scenario;
    // Every string-valued column goes through csv_quote — registry names
    // are plain identifiers today, but a future family containing a comma
    // or quote must corrupt nothing.
    out << csv_quote(s.label) << ',' << to_string(s.mode) << ','
        << to_string(s.engine.arch) << ',' << s.problem.height << ','
        << s.problem.width << ',' << s.problem.steps << ',' << s.depth
        << ','
        << csv_quote(std::to_string(s.tiles.height) + 'x' +
                     std::to_string(s.tiles.width) +
                     (s.tiles.depth > 1
                          ? 'x' + std::to_string(s.tiles.depth)
                          : std::string()))
        << ',' << csv_quote(s.stencil) << ',' << csv_quote(s.boundary)
        << ',' << csv_quote(s.kernel) << ',' << csv_quote(s.input) << ','
        << csv_quote(s.dram) << ',' << fmt_hex64(s.seed) << ','
        << (r.ok ? "true" : "false") << ',' << csv_quote(r.error) << ','
        << r.run.cycles << ',' << r.run.warmup_cycles << ','
        << r.run.dram.read_requests << ',' << r.run.dram.bytes_read() << ','
        << r.run.dram.bytes_written() << ',' << r.run.dram.row_hits << ','
        << r.run.dram.row_misses << ',' << fmt_hex64(r.output_hash) << ','
        << r.run.resources.r_total << ',' << r.run.resources.b_total << ','
        << r.run.resources.m20k_blocks << ','
        << fmt_double(r.run.timing.fmax_mhz) << ',' << r.run.ops << ','
        << fmt_double(r.run.exec_time_us) << ','
        << fmt_double(r.run.mops) << ','
        << (r.reference_checked ? (r.reference_match ? "true" : "false")
                                : "");
    if (options.include_wall) out << ',' << fmt_double(r.wall_ms);
    if (options.include_store_hit)
      out << ',' << (r.from_store ? "true" : "false");
    if (options.include_metrics) {
      // One cell of path=value pairs; ';' keeps it comma-free, csv_quote
      // guards the invariant anyway.
      std::string cell;
      for (std::size_t m = 0; m < r.run.metrics.size(); ++m) {
        if (m != 0) cell += ';';
        cell += r.run.metrics[m].path;
        cell += '=';
        cell += std::to_string(r.run.metrics[m].value);
      }
      out << ',' << csv_quote(cell);
    }
    if (any_fields) out << ',' << s.problem.kernel.fields();
    if (any_slices) out << ',' << s.problem.depth;
    out << '\n';
  }
  return out.str();
}

}  // namespace smache::sweep
