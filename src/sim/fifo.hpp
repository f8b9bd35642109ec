// FIFO channel — the only way modules communicate in this substrate, and
// the only state two modules share (sim/module.hpp).
//
// Semantics (all hardware-like):
//   * at most one push and one pop per cycle (one write port, one read port);
//   * a value pushed at cycle t becomes poppable at cycle t+1;
//   * can_push() is based on start-of-cycle occupancy plus this cycle's
//     push, NOT on this cycle's pop — like a FIFO whose `full` flag is
//     registered. This makes producer/consumer evaluation order irrelevant;
//   * capacity must be >= 1.
//
// Publication by cycle stamp — the rule for when a channel write lands. A
// push or pop changes the ring at once and records the cycle it happened
// on. Every reader (size, empty, can_push, can_pop, front) sees the
// start-of-cycle view: it discounts this cycle's push and pop, and the
// stamps stop matching once the cycle ends. So a FIFO needs no clock edge
// of its own, and no owner settles it. A push never writes the slot a
// same-cycle pop frees (a pop frees no space this cycle), so a front()
// reference taken before drop() reads the same element for the rest of
// the cycle.
//
// Storage is a fixed-capacity inline ring buffer (sim::RingBuffer): the
// depth is known at construction, exactly like the synthesised FIFO, so
// occupancy changes are pointer arithmetic on one flat allocation — no
// per-push heap traffic in the cycle hot loop.
//
// Resource accounting: FIFOs charge `capacity * bits_each` register bits
// plus head/tail pointers. Design-level FIFOs that should synthesise into
// BRAM use mem::BramBank-based structures instead; this class models the
// small register-based skid/channel FIFOs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "sim/simulator.hpp"
#include "sim/reg.hpp"
#include "sim/ring_buffer.hpp"

namespace smache::sim {

template <typename T>
class Fifo {
 public:
  Fifo(Simulator& sim, std::string_view path, std::size_t capacity,
       std::uint32_t bits_each = default_bits<T>())
      : items_(capacity), sim_(&sim) {
    SMACHE_REQUIRE(capacity >= 1);
    const std::uint64_t ptr_bits = 2ull * (addr_bits(capacity) + 1);
    sim.ledger().add(path, ResKind::RegisterBits,
                     static_cast<std::uint64_t>(capacity) * bits_each +
                         ptr_bits);
    mreg_ = &sim.metrics();
    hwm_slot_ = mreg_->slot(path, "/hwm", obs::MetricKind::MaxWatermark);
  }

  // Non-copyable: producer and consumer hold this one channel by
  // reference.
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;

  std::size_t capacity() const noexcept { return items_.capacity(); }
  /// Occupancy at the start of the cycle.
  std::size_t size() const noexcept {
    const std::uint64_t now = sim_->now();
    return items_.size() - (push_at_ == now) + (pop_at_ == now);
  }
  bool empty() const noexcept { return size() == 0; }

  /// True iff a push this cycle is accepted. Ignores this cycle's pop by
  /// design (registered-full semantics).
  bool can_push() const noexcept {
    const std::uint64_t now = sim_->now();
    return push_at_ != now &&
           items_.size() + (pop_at_ == now) < items_.capacity();
  }

  /// Push; the value is visible to the consumer next cycle.
  void push(const T& v) { push_slot() = v; }

  /// Zero-copy variant of push() for wide messages: pushes and returns the
  /// element's ring slot for the producer to fill in place before the end
  /// of its eval (no reader can see the slot until the next cycle). The
  /// slot holds stale bytes from an earlier occupant — the producer owns
  /// writing every field the consumer will read.
  T& push_slot() {
    SMACHE_REQUIRE_MSG(can_push(), "fifo overflow or double push in a cycle");
    // Occupancy high-water mark (<path>/hwm): start-of-cycle size plus this
    // push. The occupancy math stays behind the enabled check so the
    // disabled path is one branch, not a computation.
    if (mreg_->enabled())
      mreg_->watermark(hwm_slot_, static_cast<std::uint64_t>(size()) + 1);
    push_at_ = sim_->now();
    return items_.append();
  }

  /// True iff a pop this cycle would return data.
  bool can_pop() const noexcept {
    const std::uint64_t now = sim_->now();
    return pop_at_ != now && items_.size() > (push_at_ == now ? 1u : 0u);
  }

  /// Front element of the start-of-cycle view; valid only when can_pop()
  /// (throws otherwise). The reference stays valid for the rest of the
  /// cycle, a drop() and a push included.
  const T& front() const {
    SMACHE_REQUIRE_MSG(can_pop(), "fifo front() without a poppable element");
    return items_.front();
  }

  /// Pop the front element and return it.
  T pop() {
    SMACHE_REQUIRE_MSG(can_pop(), "fifo underflow or double pop in a cycle");
    T v = items_.front();
    pop_front();
    return v;
  }

  /// Zero-copy variant of pop() for wide messages: pops without returning
  /// the element. Pair with front(), whose reference stays valid for the
  /// rest of the cycle.
  void drop() {
    SMACHE_REQUIRE_MSG(can_pop(), "fifo underflow or double pop in a cycle");
    pop_front();
  }

 private:
  void pop_front() {
    items_.pop_front();
    pop_at_ = sim_->now();
  }

  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  RingBuffer<T> items_;
  Simulator* sim_;
  std::uint64_t push_at_ = kNever;  // cycle of the latest push
  std::uint64_t pop_at_ = kNever;   // cycle of the latest pop
  obs::MetricsRegistry* mreg_ = nullptr;  // owned by the Simulator
  obs::MetricsRegistry::Slot hwm_slot_ = 0;
};

}  // namespace smache::sim
