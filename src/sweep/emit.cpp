#include "sweep/emit.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <string_view>
#include <system_error>
#include <utility>

#include "common/escape.hpp"

namespace smache::sweep {

namespace {

/// Report bytes reserved per result row. A many_small row takes about 690
/// bytes of JSON and 270 of CSV; a longer row only costs a regrowth.
constexpr std::size_t kJsonRowBytes = 768;
constexpr std::size_t kCsvRowBytes = 320;

template <std::unsigned_integral T>
void append_decimal(std::string& out, T v) {
  char buf[std::numeric_limits<T>::digits10 + 1];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Writes fmt_double(v) into `buf` and returns the end of the text.
char* format_double(char* buf, char* end, double v) {
  int precision = 15;
  if (std::isfinite(v)) {
    // No decimal with fewer significant digits than v's shortest
    // round-trip form parses back to v, so the search starts there: most
    // values then take one formatting call.
    const std::string_view shortest(
        buf, std::to_chars(buf, end, v, std::chars_format::scientific).ptr);
    const std::string_view mantissa = shortest.substr(0, shortest.find('e'));
    const std::size_t digits =
        mantissa.size() - (mantissa[0] == '-' ? 1 : 0) -
        (mantissa.find('.') != std::string_view::npos ? 1 : 0);
    precision = std::max(precision, static_cast<int>(digits));
  }
  for (;; ++precision) {
    char* last = std::to_chars(buf, end, v, std::chars_format::general,
                               precision).ptr;
    if (precision == 17) return last;  // 17 digits identify every double
    double back = 0.0;
    if (std::from_chars(buf, last, back).ec == std::errc() && back == v)
      return last;
  }
}

/// "0x%016" PRIx64.
struct Hex64 {
  std::uint64_t v;
};
/// A string through json_escape.
struct JsonText {
  std::string_view s;
};
/// A string through csv_quote.
struct CsvField {
  std::string_view s;
};

/// One report, written into one reserved std::string. Integers print in
/// decimal and doubles by fmt_double's rule, neither through a locale;
/// the wrappers above select the other encodings.
class ReportText {
 public:
  explicit ReportText(std::size_t capacity) { text_.reserve(capacity); }

  ReportText& operator<<(std::string_view s) {
    text_ += s;
    return *this;
  }
  ReportText& operator<<(char c) {
    text_ += c;
    return *this;
  }
  template <std::unsigned_integral T>
    requires(!std::same_as<T, bool>)
  ReportText& operator<<(T v) {
    append_decimal(text_, v);
    return *this;
  }
  ReportText& operator<<(double v) {
    char buf[40];
    text_.append(buf, format_double(buf, buf + sizeof buf, v));
    return *this;
  }
  ReportText& operator<<(Hex64 h) {
    constexpr char kDigits[] = "0123456789abcdef";
    char buf[18] = {'0', 'x'};
    for (int i = 17; i >= 2; --i, h.v >>= 4) buf[i] = kDigits[h.v & 15];
    text_.append(buf, sizeof buf);
    return *this;
  }
  ReportText& operator<<(JsonText t) {
    json_escape_into(text_, t.s);
    return *this;
  }
  ReportText& operator<<(CsvField f) {
    csv_quote_into(text_, f.s);
    return *this;
  }

  std::string take() { return std::move(text_); }

 private:
  std::string text_;
};

}  // namespace

std::string fmt_double(double v) {
  // The first of %.15g, %.16g and %.17g that parses back to v: 15
  // significant digits identify most doubles, 17 identify every finite
  // one (DBL_DECIMAL_DIG). std::to_chars with a precision is printf's
  // %.*g in the C locale, and std::from_chars parses in it too, so the
  // text depends on the bits alone, never on the process locale.
  char buf[40];
  return std::string(buf, format_double(buf, buf + sizeof buf, v));
}

std::string emit_json(const std::vector<ScenarioResult>& results,
                      const EmitOptions& options) {
  ReportText out(256 + results.size() * kJsonRowBytes);
  out << "{\n  \"name\": \"" << JsonText{options.name} << "\",\n"
      << "  \"run_type\": \"sweep\",\n"
      << "  \"scenario_count\": " << results.size() << ",\n"
      << "  \"digest\": \"" << Hex64{SweepExecutor::digest(results)}
      << "\",\n  \"results\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    const Scenario& s = r.scenario;
    out << (i == 0 ? "\n" : ",\n") << "    {\"label\": \""
        << JsonText{s.label} << "\", \"mode\": \"" << to_string(s.mode)
        << "\", \"arch\": \"" << to_string(s.engine.arch)
        << "\", \"height\": " << s.problem.height
        << ", \"width\": " << s.problem.width
        << ", \"steps\": " << s.problem.steps
        << ", \"depth\": " << s.depth << ", \"tiles\": \"" << s.tiles.height
        << 'x' << s.tiles.width;
    if (s.tiles.depth > 1) out << 'x' << s.tiles.depth;
    out << "\", \"stencil\": \"" << JsonText{s.stencil}
        << "\", \"boundary\": \"" << JsonText{s.boundary}
        << "\", \"kernel\": \"" << JsonText{s.kernel} << "\"";
    // Multi-field cell layouts and 3D grids are the exception; single-word
    // cells and single-slice grids stay implicit so every pre-existing
    // F=1 2D report remains byte-identical. ("depth" above is the cascade
    // depth; the grid's slice extent emits as "slices".)
    if (s.problem.kernel.fields() > 1)
      out << ", \"fields\": " << s.problem.kernel.fields();
    if (s.problem.depth > 1) out << ", \"slices\": " << s.problem.depth;
    out << ", \"input\": \"" << JsonText{s.input} << "\", \"dram\": \""
        << JsonText{s.dram} << "\", \"seed\": \"" << Hex64{s.seed}
        << "\", \"ok\": " << (r.ok ? "true" : "false");
    if (!r.ok) out << ", \"error\": \"" << JsonText{r.error} << "\"";
    if (r.ok) {
      out << ", \"cycles\": " << r.run.cycles
          << ", \"warmup_cycles\": " << r.run.warmup_cycles
          << ", \"read_requests\": " << r.run.dram.read_requests
          << ", \"dram_read_bytes\": " << r.run.dram.bytes_read()
          << ", \"dram_write_bytes\": " << r.run.dram.bytes_written()
          << ", \"row_hits\": " << r.run.dram.row_hits
          << ", \"row_misses\": " << r.run.dram.row_misses
          << ", \"output_hash\": \"" << Hex64{r.output_hash}
          << "\", \"r_total\": " << r.run.resources.r_total
          << ", \"b_total\": " << r.run.resources.b_total
          << ", \"m20k\": " << r.run.resources.m20k_blocks
          << ", \"fmax_mhz\": " << r.run.timing.fmax_mhz
          << ", \"ops\": " << r.run.ops
          << ", \"exec_time_us\": " << r.run.exec_time_us
          << ", \"mops\": " << r.run.mops;
      if (r.reference_checked)
        out << ", \"reference_match\": "
            << (r.reference_match ? "true" : "false");
    }
    if (options.include_wall) out << ", \"wall_ms\": " << r.wall_ms;
    if (options.include_store_hit)
      out << ", \"store_hit\": " << (r.from_store ? "true" : "false");
    if (options.include_metrics) {
      out << ", \"metrics\": {";
      for (std::size_t m = 0; m < r.run.metrics.size(); ++m)
        out << (m == 0 ? "" : ", ") << "\""
            << JsonText{r.run.metrics[m].path}
            << "\": " << r.run.metrics[m].value;
      out << "}";
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
  return out.take();
}

std::string emit_csv(const std::vector<ScenarioResult>& results,
                     const EmitOptions& options) {
  ReportText out(512 + results.size() * kCsvRowBytes);
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
  std::string cell;  // the metrics column, reused across rows
  for (const ScenarioResult& r : results) {
    const Scenario& s = r.scenario;
    // Every string-valued column goes through csv_quote — registry names
    // are plain identifiers today, but a future family containing a comma
    // or quote must corrupt nothing. The tile mesh is digits and 'x' and
    // never needs quoting.
    out << CsvField{s.label} << ',' << to_string(s.mode) << ','
        << to_string(s.engine.arch) << ',' << s.problem.height << ','
        << s.problem.width << ',' << s.problem.steps << ',' << s.depth
        << ',' << s.tiles.height << 'x' << s.tiles.width;
    if (s.tiles.depth > 1) out << 'x' << s.tiles.depth;
    out << ',' << CsvField{s.stencil} << ',' << CsvField{s.boundary} << ','
        << CsvField{s.kernel} << ',' << CsvField{s.input} << ','
        << CsvField{s.dram} << ',' << Hex64{s.seed} << ','
        << (r.ok ? "true" : "false") << ',' << CsvField{r.error} << ','
        << r.run.cycles << ',' << r.run.warmup_cycles << ','
        << r.run.dram.read_requests << ',' << r.run.dram.bytes_read() << ','
        << r.run.dram.bytes_written() << ',' << r.run.dram.row_hits << ','
        << r.run.dram.row_misses << ',' << Hex64{r.output_hash} << ','
        << r.run.resources.r_total << ',' << r.run.resources.b_total << ','
        << r.run.resources.m20k_blocks << ',' << r.run.timing.fmax_mhz
        << ',' << r.run.ops << ',' << r.run.exec_time_us << ','
        << r.run.mops << ','
        << (r.reference_checked ? (r.reference_match ? "true" : "false")
                                : "");
    if (options.include_wall) out << ',' << r.wall_ms;
    if (options.include_store_hit)
      out << ',' << (r.from_store ? "true" : "false");
    if (options.include_metrics) {
      // One cell of path=value pairs; ';' keeps it comma-free, csv_quote
      // guards the invariant anyway.
      cell.clear();
      for (std::size_t m = 0; m < r.run.metrics.size(); ++m) {
        if (m != 0) cell += ';';
        cell += r.run.metrics[m].path;
        cell += '=';
        append_decimal(cell, r.run.metrics[m].value);
      }
      out << ',' << CsvField{cell};
    }
    if (any_fields) out << ',' << s.problem.kernel.fields();
    if (any_slices) out << ',' << s.problem.depth;
    out << '\n';
  }
  return out.take();
}

}  // namespace smache::sweep
