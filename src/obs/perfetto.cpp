#include "obs/perfetto.hpp"

#include <cstdio>

#include "common/escape.hpp"

namespace smache::obs {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

std::string to_trace_json(const SpanLog& log) {
  std::string out;
  out.reserve(128 + log.lanes().size() * 96 + log.spans().size() * 80);
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  out += "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, "
         "\"args\": {\"name\": \"smache-sim\"}}";
  first = false;
  for (std::size_t i = 0; i < log.lanes().size(); ++i) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": ";
    append_u64(out, i + 1);
    out += ", \"args\": {\"name\": \"";
    out += json_escape(log.lanes()[i].thread);
    out += "\"}}";
  }
  for (const Span& s : log.spans()) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"ph\": \"X\", \"cat\": \"sim\", \"name\": \"";
    out += json_escape(log.lanes()[s.lane].event);
    out += "\", \"pid\": 1, \"tid\": ";
    append_u64(out, s.lane + 1);
    out += ", \"ts\": ";
    append_u64(out, s.begin);
    out += ", \"dur\": ";
    append_u64(out, s.end - s.begin);
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace smache::obs
