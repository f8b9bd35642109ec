// Machine-readable sweep reports: JSON (same artifact family as the
// BENCH_<target>.json files under bench/results/) and CSV for downstream
// plotting. Emission is deterministic — field order is fixed and every
// number formats identically across runs — so "N-thread report equals
// serial report" is a byte-level comparison. Wall-clock timings are the
// one nondeterministic field; they are emitted only when
// EmitOptions::include_wall is set and are never part of digests.
#pragma once

#include <string>
#include <vector>

#include "sweep/executor.hpp"

namespace smache::sweep {

struct EmitOptions {
  /// Include per-scenario wall_ms (and the report-level wall summary).
  /// Leave off for byte-identical cross-thread-count comparisons.
  bool include_wall = false;
  /// Include the store provenance as an explicit store_hit column instead
  /// of the old "wall_ms == 0" convention. Like wall_ms, never part of
  /// digests: a warm (store-served) rerun and a cold run differ here by
  /// construction, so byte-compare reports must leave it off.
  bool include_store_hit = false;
  /// Include each scenario's metric snapshot (ExecutorOptions::metrics):
  /// a JSON object / CSV "path=value;..." column. The snapshots themselves
  /// are deterministic, but store-served scenarios carry none — so this
  /// column is never digested and byte-compare reports leave it off too.
  bool include_metrics = false;
  /// Report name stamped into the JSON header.
  std::string name = "smache-sweep";
};

/// Full JSON report: header + one object per scenario result.
std::string emit_json(const std::vector<ScenarioResult>& results,
                      const EmitOptions& options = {});

/// CSV with one row per scenario result (RFC-4180-style quoting).
std::string emit_csv(const std::vector<ScenarioResult>& results,
                     const EmitOptions& options = {});

/// The first of printf's %.15g, %.16g and %.17g (C locale) that parses
/// back to exactly the same double, so committed sweep reports lose no
/// bits (strtod(fmt_double(v)) == v for every finite v). It is not the
/// shortest such text: fmt_double(5e-324) is "4.94065645841247e-324".
/// Exposed so tests can check it against that rule.
std::string fmt_double(double v);

}  // namespace smache::sweep
