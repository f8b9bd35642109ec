// Flip-flop primitives: Reg<T> (a single register) and RegArray<T> (a block
// of registers with one commit). Both charge their bit counts to the
// ResourceLedger so elaborated designs produce synthesis-style reports.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"
#include "sim/clocked.hpp"
#include "sim/simulator.hpp"

namespace smache::sim {

/// Default resource width for a register holding T. Override per-register
/// for packed fields (FSM states, flags, counters) via the `bits` argument.
template <typename T>
constexpr std::uint32_t default_bits() noexcept {
  if constexpr (std::is_same_v<T, bool>) return 1;
  else return static_cast<std::uint32_t>(sizeof(T) * 8);
}

/// A single clocked register. q() reads the committed value; d() schedules
/// the next value. If d() is not called in a cycle the register holds (and
/// the register never appears on that cycle's dirty list).
template <typename T>
class Reg : public Clocked {
 public:
  /// `bits` is the synthesis width charged to the ledger (e.g. a 7-bit
  /// counter stored in an int should pass 7).
  Reg(Simulator& sim, std::string_view path, T init,
      std::uint32_t bits = default_bits<T>())
      : q_(init), next_(init) {
    sim.register_clocked(this);
    if constexpr (std::is_trivially_copyable_v<T>)
      set_copy_commit(&q_, &next_, sizeof(T));
    sim.ledger().add(path, ResKind::RegisterBits, bits);
  }

  const T& q() const noexcept { return q_; }
  void d(const T& v) {
    next_ = v;
    mark_dirty();
  }

  void commit() override { q_ = next_; }

 private:
  T q_;
  T next_;
};

/// A GROUP of logically separate registers committed as one state element:
/// S is a trivially copyable struct whose fields are the grouped registers
/// (e.g. a top-level controller's counters). One mark_dirty/one block-copy
/// commit per cycle replaces a dirty-list entry and a commit per field,
/// which is what makes the tops' per-cycle bookkeeping cheap.
///
/// Semantics match one Reg per field exactly: fields assigned through d()
/// take the scheduled value at the clock edge, untouched fields hold (the
/// next-state struct always carries the committed value for them, so the
/// block copy republishes it unchanged). Ledger charges are passed per
/// field — paths and widths identical to the discrete Regs they replace —
/// so synthesis-style reports cannot tell the difference.
template <typename S>
class RegGroup : public Clocked {
 public:
  struct FieldCharge {
    std::string path;
    std::uint32_t bits;
  };

  RegGroup(Simulator& sim, const S& init,
           std::initializer_list<FieldCharge> fields)
      : RegGroup(sim, init,
                 std::vector<FieldCharge>(fields.begin(), fields.end())) {}

  /// Vector overload for callers whose charge list is built conditionally
  /// (e.g. extra staging registers only present for multi-field cells).
  RegGroup(Simulator& sim, const S& init,
           const std::vector<FieldCharge>& fields)
      : q_(init), next_(init) {
    static_assert(std::is_trivially_copyable_v<S>,
                  "RegGroup needs a trivially copyable state struct");
    sim.register_clocked(this);
    set_copy_commit(&q_, &next_, sizeof(S));
    for (const FieldCharge& f : fields)
      sim.ledger().add(f.path, ResKind::RegisterBits, f.bits);
  }

  /// Committed state (start-of-cycle view).
  const S& q() const noexcept { return q_; }

  /// Next-state struct for field writes; everything not assigned holds.
  S& d() {
    mark_dirty();
    return next_;
  }

  void commit() override { q_ = next_; }

 private:
  S q_;
  S next_;
};

/// A block of N registers committed together (e.g. a gathered stencil
/// tuple). One Clocked registration regardless of N keeps large blocks fast
/// to commit.
template <typename T>
class RegArray : public Clocked {
 public:
  RegArray(Simulator& sim, std::string_view path, std::size_t count, T init,
           std::uint32_t bits_each = default_bits<T>())
      : q_(count, init), next_(count, init) {
    sim.register_clocked(this);
    // The commit is always a whole-array block copy: every commit
    // re-establishes q_ == next_, so unwritten slots republish their held
    // value — a per-index write set would commit the identical bytes. For
    // trivially copyable T that is the simulator's inline memcpy fast
    // path; no virtual dispatch, no per-index bookkeeping.
    if constexpr (std::is_trivially_copyable_v<T>)
      set_copy_commit(q_.data(), next_.data(),
                      static_cast<std::uint32_t>(count * sizeof(T)));
    sim.ledger().add(path, ResKind::RegisterBits,
                     static_cast<std::uint64_t>(count) * bits_each);
  }

  std::size_t size() const noexcept { return q_.size(); }

  const T& q(std::size_t i) const {
    SMACHE_REQUIRE(i < q_.size());
    return q_[i];
  }

  void d(std::size_t i, const T& v) {
    SMACHE_REQUIRE(i < next_.size());
    next_[i] = v;
    mark_dirty();
  }

  void commit() override { q_ = next_; }

 private:
  std::vector<T> q_;
  std::vector<T> next_;
};

}  // namespace smache::sim
