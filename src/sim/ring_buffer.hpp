// Fixed-capacity inline ring buffer — the storage behind sim::Fifo.
// Capacity is known at construction (hardware FIFOs have a synthesised
// depth), so the backing store is one flat allocation made once; append and
// pop are two or three scalar ops with no pointer chasing, unlike the
// chunked std::deque they replace in the simulation hot loop.
//
// The buffer is plain storage with no notion of a clock: an append or a pop
// takes effect at once. sim::Fifo layers the one-cycle channel timing on
// top by discounting the current cycle's append and pop from what its
// readers see.
#pragma once

#include <cstddef>
#include <vector>

#include "common/assert.hpp"

namespace smache::sim {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : buf_(capacity), cap_(capacity) {
    SMACHE_REQUIRE(capacity >= 1);
  }

  std::size_t capacity() const noexcept { return cap_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  bool full() const noexcept { return size_ == cap_; }

  const T& front() const {
    SMACHE_REQUIRE(size_ > 0);
    return buf_[head_];
  }

  /// Append one element at the back and return its slot, for the caller to
  /// fill in place. The slot holds stale bytes from an earlier occupant.
  /// It is the slot just past the old back, so it never aliases the front
  /// of a non-full buffer: a reference from front() taken before a
  /// pop_front() stays valid across a later append unless the buffer was
  /// full before that pop.
  T& append() {
    SMACHE_REQUIRE(size_ < cap_);
    T& slot = buf_[wrap(head_ + size_)];
    ++size_;
    return slot;
  }

  void pop_front() {
    SMACHE_REQUIRE(size_ > 0);
    head_ = wrap(head_ + 1);
    --size_;
  }

  /// Element `i` positions behind the front (i == 0 is the front).
  const T& at(std::size_t i) const {
    SMACHE_REQUIRE(i < size_);
    return buf_[wrap(head_ + i)];
  }

 private:
  std::size_t wrap(std::size_t i) const noexcept {
    // One conditional subtract instead of a divide: i < 2 * capacity here.
    return i >= cap_ ? i - cap_ : i;
  }

  std::vector<T> buf_;
  std::size_t cap_;  // buf_.size(), held apart: no divide by sizeof(T)
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace smache::sim
