#include "sweep/groups.hpp"

#include <bit>
#include <cstdint>
#include <unordered_map>

namespace smache::sweep {

namespace {

/// Kernel specs equal bit for bit: a -0.0f and a 0.0f coefficient are
/// different reference inputs.
bool same_kernel(const rtl::KernelSpec& a, const rtl::KernelSpec& b) {
  return a.kind == b.kind && a.value_type == b.value_type &&
         std::bit_cast<std::uint32_t>(a.alpha) ==
             std::bit_cast<std::uint32_t>(b.alpha) &&
         std::bit_cast<std::uint32_t>(a.beta) ==
             std::bit_cast<std::uint32_t>(b.beta);
}

}  // namespace

bool same_reference(const Scenario& a, const Scenario& b) {
  if (a.mode != Mode::Simulate || b.mode != Mode::Simulate) return false;
  const ProblemSpec& p = a.problem;
  const ProblemSpec& q = b.problem;
  return a.seed == b.seed && a.input == b.input && p.height == q.height &&
         p.width == q.width && p.depth == q.depth && p.steps == q.steps &&
         p.shape.offsets() == q.shape.offsets() && p.bc == q.bc &&
         same_kernel(p.kernel, q.kernel);
}

std::vector<std::vector<std::size_t>> reference_groups(
    const std::vector<Scenario>& scenarios,
    const std::vector<std::size_t>& pending) {
  std::vector<std::vector<std::size_t>> groups;
  // Candidate groups by seed, which is part of the key; an expanded spec
  // derives it from the workload identity, so a bucket holds about one
  // group. Membership is still decided by same_reference alone.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_seed;
  for (const std::size_t i : pending) {
    const Scenario& s = scenarios[i];
    if (s.mode != Mode::Simulate) {
      groups.push_back({i});
      continue;
    }
    std::vector<std::size_t>& candidates = by_seed[s.seed];
    std::size_t g = groups.size();
    for (const std::size_t c : candidates) {
      if (same_reference(scenarios[groups[c].front()], s)) {
        g = c;
        break;
      }
    }
    if (g == groups.size()) {
      groups.emplace_back();
      candidates.push_back(g);
    }
    groups[g].push_back(i);
  }
  return groups;
}

}  // namespace smache::sweep
