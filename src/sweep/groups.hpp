// Reference groups — the scenarios of a sweep that start from the same
// input grid and check against the same golden. A simulated scenario's
// input (make_input) and golden (reference_run) depend only on its
// reference inputs: grid extents, step count, stencil offsets, boundary,
// kernel spec, input family and seed. Scenarios that differ only in
// architecture, stream impl, threshold, DRAM model, cascade depth or tile
// mesh share all of them, so SweepExecutor builds one input and one golden
// per group rather than per scenario.
#pragma once

#include <cstddef>
#include <vector>

#include "sweep/spec.hpp"

namespace smache::sweep {

/// True when `a` and `b` are simulated scenarios with equal reference
/// inputs, compared field by field (never by label or hash). An
/// elaborate-only scenario builds neither grid, so it shares with none.
bool same_reference(const Scenario& a, const Scenario& b);

/// Partition `pending` (positions in `scenarios`) into reference groups:
/// groups in the order of their first member, each group's members in
/// `pending` order. Every position lands in exactly one group.
std::vector<std::vector<std::size_t>> reference_groups(
    const std::vector<Scenario>& scenarios,
    const std::vector<std::size_t>& pending);

}  // namespace smache::sweep
