// SpanLog — half-open [begin, end) cycle intervals on named lanes, the
// intermediate form between simulator instrumentation and trace-event
// export (obs/perfetto.hpp).
//
// A lane is (thread name, event name). The simulator records DRAM read
// transaction lifetimes, one lane per DRAM model ("dram" / "read txn").
// Lanes register eagerly at construction; adding a span when the log is
// disabled is a no-op behind one branch.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace smache::obs {

struct Span {
  std::uint32_t lane = 0;
  std::uint64_t begin = 0;  // cycle, inclusive
  std::uint64_t end = 0;    // cycle, exclusive
};

class SpanLog {
 public:
  struct Lane {
    std::string thread;  // groups lanes in the trace viewer (tid name)
    std::string event;   // span name rendered on the lane
  };

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Register a lane (always, independent of enabled); returns its id.
  /// Re-registering the same (thread, event) pair returns the same id.
  std::uint32_t lane(std::string_view thread, std::string_view event);

  void add(std::uint32_t lane_id, std::uint64_t begin, std::uint64_t end) {
    if (enabled_ && end > begin) spans_.push_back(Span{lane_id, begin, end});
  }

  const std::vector<Lane>& lanes() const noexcept { return lanes_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }

  void clear() noexcept {
    lanes_.clear();
    spans_.clear();
  }

 private:
  bool enabled_ = false;
  std::vector<Lane> lanes_;
  std::vector<Span> spans_;
};

}  // namespace smache::obs
