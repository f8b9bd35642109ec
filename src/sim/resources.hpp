// Hierarchical resource accounting — the simulator's equivalent of a
// synthesis report. Every hardware primitive (register, BRAM bank) registers
// the bits it would occupy on the FPGA under a hierarchical path such as
// "smache/stream_buffer/taps". Reports then aggregate by path prefix, which
// is how the Table I benchmark splits static-buffer (sc) from
// stream-buffer (sm) contributions.
//
// Paths are INTERNED in a process-wide pool: the first elaboration that
// charges "smache/ctrl/instance" stores the string once, and every later
// charge — same run or any later Engine run — resolves to the same pointer
// without allocating. Charges to the same (path, kind) accumulate in a
// compact per-ledger slot table, so a ledger holds one slot per distinct
// path instead of one heap string per add() call. This removed the
// per-run elaboration allocation churn that cost ~5% of
// BM_EngineCyclesPerSecond (ROADMAP PR-3 follow-up b).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace smache::sim {

/// Kinds of accountable resources. RegisterBits and BramBits correspond to
/// the paper's R and B columns; BramBlocks is the M20K block count derived
/// by the device model.
enum class ResKind { RegisterBits, BramBits, BramBlocks };

inline constexpr std::size_t kResKindCount = 3;

/// Intern `path` in the process-wide path pool and return its canonical
/// string (stable for the process lifetime). Thread-safe; the pool is
/// bounded by the number of DISTINCT hierarchy paths ever charged, not by
/// the number of runs.
const std::string* intern_path(std::string_view path);

class ResourceLedger {
 public:
  /// Record `amount` units of `kind` under `path`. Amounts accumulate; the
  /// same path may be charged repeatedly (e.g. one entry per register).
  void add(std::string_view path, ResKind kind, std::uint64_t amount);

  /// Sum of all amounts of `kind` whose path starts with `prefix`
  /// ("" sums everything). Prefix matching is segment-aware: "a/b" matches
  /// "a/b" and "a/b/c" but not "a/bc".
  std::uint64_t total(ResKind kind, std::string_view prefix = "") const;

  /// Multi-line human-readable report of totals per top-level group.
  std::string report() const;

  void clear();

 private:
  /// One distinct path with its per-kind accumulated amounts.
  struct Slot {
    const std::string* path;
    std::array<std::uint64_t, kResKindCount> amount{};
  };

  static bool prefix_matches(std::string_view path, std::string_view prefix);
  std::vector<Slot> slots_;  // first-charge order
  std::unordered_map<const std::string*, std::uint32_t> index_;
};

}  // namespace smache::sim
