// Fixed-capacity inline ring buffer — the storage behind sim::Fifo.
// Capacity is known at construction (hardware FIFOs have a synthesised
// depth), so the backing store is one flat allocation made once; push/pop
// are two or three scalar ops with no pointer chasing, unlike the chunked
// std::deque they replace in the simulation hot loop.
#pragma once

#include <cstddef>
#include <vector>

#include "common/assert.hpp"

namespace smache::sim {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : buf_(capacity) {
    SMACHE_REQUIRE(capacity >= 1);
  }

  std::size_t capacity() const noexcept { return buf_.size(); }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  bool full() const noexcept { return size_ == buf_.size(); }

  const T& front() const {
    SMACHE_REQUIRE(size_ > 0);
    return buf_[head_];
  }

  void push_back(const T& v) {
    SMACHE_REQUIRE(size_ < buf_.size());
    buf_[wrap(head_ + size_)] = v;
    ++size_;
  }

  void pop_front() {
    SMACHE_REQUIRE(size_ > 0);
    head_ = wrap(head_ + 1);
    --size_;
  }

  /// The slot just past the back — writable staging space for a two-phase
  /// producer: fill it any time before commit_back(), which publishes it as
  /// the new back element. The slot index is invariant under a same-phase
  /// pop_front() (head and size move in lockstep), so a FIFO can stage its
  /// pending push here during eval and commit pop-then-push safely.
  T& staging_back() {
    SMACHE_REQUIRE(size_ < buf_.size());
    return buf_[wrap(head_ + size_)];
  }
  void commit_back() {
    SMACHE_REQUIRE(size_ < buf_.size());
    ++size_;
  }

  /// Element `i` positions behind the front (i == 0 is the front).
  const T& at(std::size_t i) const {
    SMACHE_REQUIRE(i < size_);
    return buf_[wrap(head_ + i)];
  }

  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

  /// Raw pointer access to the cursor fields, for owners that register an
  /// inline-commit record (sim::Clocked::FifoCommitCtl) over this buffer.
  std::size_t* head_ptr() noexcept { return &head_; }
  std::size_t* size_ptr() noexcept { return &size_; }

 private:
  std::size_t wrap(std::size_t i) const noexcept {
    // One conditional subtract instead of a divide: i < 2 * capacity here.
    return i >= buf_.size() ? i - buf_.size() : i;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace smache::sim
