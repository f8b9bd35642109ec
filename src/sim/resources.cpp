#include "sim/resources.hpp"

#include <map>
#include <sstream>

#include "obs/metrics.hpp"

namespace smache::sim {

// The process-wide path pool moved to the observability layer so ledger
// paths and metric paths intern into ONE pool (a module's stall counter
// "smache/stall/dram_wait" shares the "smache" spelling with its ledger
// charges). This forwarder keeps the historical sim-layer entry point.
const std::string* intern_path(std::string_view path) {
  return obs::intern_path(path);
}

void ResourceLedger::add(std::string_view path, ResKind kind,
                         std::uint64_t amount) {
  const std::string* interned = intern_path(path);
  auto [it, inserted] = index_.try_emplace(
      interned, static_cast<std::uint32_t>(slots_.size()));
  if (inserted) slots_.push_back(Slot{interned, {}});
  slots_[it->second].amount[static_cast<std::size_t>(kind)] += amount;
}

bool ResourceLedger::prefix_matches(std::string_view path,
                                    std::string_view prefix) {
  if (prefix.empty()) return true;
  if (path.size() < prefix.size()) return false;
  if (path.substr(0, prefix.size()) != prefix) return false;
  // Segment-aware: the character after the prefix must be a separator or
  // end-of-string, so "a/b" does not match "a/bc".
  return path.size() == prefix.size() || path[prefix.size()] == '/';
}

std::uint64_t ResourceLedger::total(ResKind kind,
                                    std::string_view prefix) const {
  const std::size_t k = static_cast<std::size_t>(kind);
  std::uint64_t sum = 0;
  for (const auto& s : slots_)
    if (s.amount[k] != 0 && prefix_matches(*s.path, prefix))
      sum += s.amount[k];
  return sum;
}

std::string ResourceLedger::report() const {
  // Aggregate by first path segment.
  struct Sums {
    std::uint64_t reg = 0, bram = 0, blocks = 0;
  };
  std::map<std::string, Sums, std::less<>> groups;
  for (const auto& slot : slots_) {
    const std::string_view path = *slot.path;
    const auto slash = path.find('/');
    const std::string_view head =
        slash == std::string_view::npos ? path : path.substr(0, slash);
    auto it = groups.find(head);
    if (it == groups.end())
      it = groups.emplace(std::string(head), Sums{}).first;
    auto& s = it->second;
    s.reg += slot.amount[static_cast<std::size_t>(ResKind::RegisterBits)];
    s.bram += slot.amount[static_cast<std::size_t>(ResKind::BramBits)];
    s.blocks += slot.amount[static_cast<std::size_t>(ResKind::BramBlocks)];
  }
  std::ostringstream out;
  out << "resource report (bits):\n";
  for (const auto& [name, s] : groups) {
    out << "  " << name << ": registers=" << s.reg << " bram=" << s.bram;
    if (s.blocks) out << " m20k=" << s.blocks;
    out << '\n';
  }
  return out.str();
}

void ResourceLedger::clear() {
  slots_.clear();
  index_.clear();
}

}  // namespace smache::sim
