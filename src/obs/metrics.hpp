// Observability metrics — named counters, gauges and max-watermarks that
// instrumented code touches from cycle hot loops.
//
// The registry follows the resource ledger's two cost disciplines:
//   * paths are INTERNED in the process-wide pool (shared with
//     sim::intern_path, which forwards here): registering the same metric
//     path across thousands of Engine elaborations allocates once, ever;
//   * the hot API is slot-based: instrumentation resolves a path to a
//     dense Slot id at construction time, and every per-cycle touch is one
//     enabled-flag branch plus one indexed add/compare, so a disabled
//     registry is near-free.
//
// Slots register unconditionally (elaboration-time, cheap); the enabled
// flag gates only VALUE updates. That keeps the key set of a snapshot a
// deterministic function of the design shape, not of when profiling was
// switched on. Snapshots are sorted by path, so two runs of the same
// scenario emit byte-identical metric maps.
//
// The registry is deliberately not thread-safe: one registry belongs to
// one Simulator, and a Simulator is single-threaded by construction (the
// sweep executor gives every scenario its own engine + simulator).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace smache::obs {

enum class MetricKind : std::uint8_t { Counter, Gauge, MaxWatermark };

const char* to_string(MetricKind kind) noexcept;

/// One snapshotted metric: a stable path, its kind, and the value at
/// snapshot time.
struct MetricSample {
  std::string path;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t value = 0;
};

/// Intern `path` in the process-wide path pool and return its canonical
/// string (stable for the process lifetime). Thread-safe; the pool is
/// bounded by the number of DISTINCT paths ever interned, not by run
/// count. sim::intern_path forwards here so ledger paths and metric paths
/// share one pool.
const std::string* intern_path(std::string_view path);

class MetricsRegistry {
 public:
  using Slot = std::uint32_t;

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Resolve `path` to a dense slot id, registering it with `kind` on
  /// first sight. Re-registering the same path returns the same slot; the
  /// kind must match (contract violation otherwise). Registration happens
  /// whether or not the registry is enabled.
  Slot slot(std::string_view path, MetricKind kind);
  /// Two-part variant for construction sites that would otherwise build a
  /// temporary `base + suffix` string (FIFO watermarks etc.).
  Slot slot(std::string_view base, std::string_view suffix, MetricKind kind);

  // -- hot API: one branch per touch when disabled --
  void count(Slot s, std::uint64_t n = 1) noexcept {
    if (enabled_) slots_[s].value += n;
  }
  void set(Slot s, std::uint64_t v) noexcept {
    if (enabled_) slots_[s].value = v;
  }
  void watermark(Slot s, std::uint64_t v) noexcept {
    if (enabled_ && v > slots_[s].value) slots_[s].value = v;
  }

  // -- cold API: path-addressed, for one-off folds (scheduler attribution) --
  void count_path(std::string_view path, std::uint64_t n = 1);
  void set_path(std::string_view path, MetricKind kind, std::uint64_t v);

  std::uint64_t value(Slot s) const noexcept { return slots_[s].value; }
  /// 0 when the path was never registered.
  std::uint64_t value(std::string_view path) const;

  std::size_t slot_count() const noexcept { return slots_.size(); }

  /// Every registered metric (zero-valued slots included), sorted by path
  /// — the deterministic key→value map reports and tests consume.
  std::vector<MetricSample> snapshot() const;

  /// Zero every value, keep registrations (slot ids stay valid).
  void clear_values() noexcept;

 private:
  struct Entry {
    const std::string* path;
    MetricKind kind;
    std::uint64_t value = 0;
  };

  bool enabled_ = false;
  std::vector<Entry> slots_;  // registration order
  std::unordered_map<const std::string*, Slot> index_;
};

/// Merge `from` into `into` by path: Counters sum, MaxWatermarks and
/// Gauges take the max — the deterministic aggregation run_tiled uses to
/// fold per-tile snapshots (tile order never matters for these folds).
/// `into` stays sorted by path.
void merge_samples(std::vector<MetricSample>& into,
                   const std::vector<MetricSample>& from);

}  // namespace smache::obs
