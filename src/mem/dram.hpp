// Off-chip DRAM model with AXI-style channels.
//
// Channels (all sim::Fifo, so all communication publishes by cycle stamp):
//   read_req   : design -> DRAM   {start address, burst length}
//   read_data  : DRAM  -> design  one word per cycle while streaming
//   write_req  : design -> DRAM   {address, data}, posted writes
//
// The read path is a pipelined controller: an ISSUE stage fetches one word
// per cycle (from the current burst, or from a freshly popped request —
// back-to-back single-word requests sustain one word per cycle), and a
// TRANSIT line of `read_latency` stages carries fetched words to the
// read_data channel. Latency is therefore pipelined, not per-request
// occupancy. Row-buffer penalties (ddr_like preset) stall the issue stage:
// an access that opens a new row waits `row_miss_cycles` before issuing,
// which is what makes random word-granularity access patterns slow while
// sequential bursts stream at full rate — the paper's motivation.
//
// Writes are posted and drain one per cycle. With `shared_bus` set, a write
// drain consumes the issue slot of that cycle (single shared memory port, a
// naive memory-mapped master); with it clear, channels are independent
// (AXI-style streaming).
//
// The model is a behavioural leaf device: its private scheduling state is
// updated directly inside eval() (legal because no other module observes
// it; all externally visible effects go through the FIFO channels).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/word.hpp"
#include "mem/dram_config.hpp"
#include "sim/module.hpp"
#include "sim/fifo.hpp"
#include "sim/simulator.hpp"

namespace smache::mem {

struct DramReadReq {
  std::uint64_t addr = 0;   // word address
  std::uint32_t burst = 1;  // number of consecutive words
};

struct DramWriteReq {
  std::uint64_t addr = 0;  // word address
  word_t data = 0;
};

class DramModel : public sim::Module {
 public:
  DramModel(sim::Simulator& sim, const std::string& path,
            std::size_t size_words, const DramConfig& config);

  // Channel endpoints for the design under test.
  sim::Fifo<DramReadReq>& read_req() noexcept { return read_req_; }
  sim::Fifo<word_t>& read_data() noexcept { return read_data_; }
  sim::Fifo<DramWriteReq>& write_req() noexcept { return write_req_; }

  const DramConfig& config() const noexcept { return config_; }
  const DramStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = DramStats{}; }

  std::size_t size_words() const noexcept { return store_.size(); }

  /// Test-bench backdoors for loading/checking grid contents.
  word_t peek(std::uint64_t addr) const {
    SMACHE_REQUIRE(addr < store_.size());
    return store_[addr];
  }
  void poke(std::uint64_t addr, word_t value) {
    SMACHE_REQUIRE(addr < store_.size());
    store_[addr] = value;
  }
  /// Bulk backdoor: a pointer to `count` stored words starting at
  /// `addr` (valid until the next poke/eval — copy out before stepping).
  const word_t* peek_span(std::uint64_t addr, std::uint64_t count) const {
    SMACHE_REQUIRE(addr + count <= store_.size());
    return store_.data() + addr;
  }

  /// True when nothing is queued or in flight — used by completion
  /// predicates.
  bool idle() const noexcept {
    return burst_left_ == 0 && inflight_words_ == 0 && read_req_.empty() &&
           write_req_.empty();
  }

  /// Lower bound on cycles until idle() can become true, for
  /// Simulator::run_until_done batching: posted writes drain at most one
  /// per cycle, the issue stage retires at most one burst word or queued
  /// request per cycle, and at most one in-flight word leaves the transit
  /// line per cycle. These retire concurrently, so the bound is their max.
  std::uint64_t min_cycles_to_idle() const noexcept {
    const std::uint64_t issue_backlog =
        static_cast<std::uint64_t>(burst_left_) + read_req_.size();
    return std::max({static_cast<std::uint64_t>(write_req_.size()),
                     static_cast<std::uint64_t>(inflight_words_),
                     issue_backlog});
  }

  void eval() override;

 private:
  bool row_model_on() const noexcept { return config_.row_words != 0; }
  std::uint64_t row_of(std::uint64_t addr) const noexcept {
    return addr / config_.row_words;
  }
  /// Charge latency for touching `addr`; updates the open row.
  void charge_row(std::uint64_t addr);

  DramConfig config_;
  std::vector<word_t> store_;
  DramStats stats_;

  sim::Fifo<DramReadReq> read_req_;
  sim::Fifo<word_t> read_data_;
  sim::Fifo<DramWriteReq> write_req_;

  // Behavioural scheduling state (private to eval()).
  std::uint64_t cur_addr_ = 0;
  std::uint32_t burst_left_ = 0;
  std::uint32_t wait_issue_ = 0;
  std::uint32_t stall_left_ = 0;
  std::uint64_t words_since_stall_ = 0;
  std::uint64_t words_since_storm_ = 0;
  // Delayed-completion fault state: cycles the current head word is still
  // held, delivered words since the last injected delay, and whether the
  // current head word already took its delay decision (so a held word is
  // counted exactly once, however many cycles it waits).
  std::uint32_t delay_left_ = 0;
  std::uint64_t words_since_delay_ = 0;
  bool head_delay_decided_ = false;
  std::int64_t open_row_ = -1;
  // TRANSIT line: a fixed delay line of `read_latency` slots behind one
  // head index, pre-filled with bubbles. A slot holds a fetched word with
  // kFetched set, or 0 for a bubble. Each cycle that the read path moves,
  // the head slot delivers, takes the issued word (or a bubble) and the
  // head advances, so a word delivers `read_latency` moving cycles after
  // it issues.
  static constexpr std::uint64_t kFetched = std::uint64_t{1} << 32;
  static_assert(sizeof(word_t) == 4, "a transit slot packs one 32-bit word");
  std::vector<std::uint64_t> transit_;
  std::uint32_t transit_head_ = 0;
  std::uint32_t inflight_words_ = 0;

  // -- observability --
  sim::Simulator& sim_;
  obs::MetricsRegistry* mreg_;
  obs::MetricsRegistry::Slot s_backpressure_;  // <path>/stall/backpressure
  obs::MetricsRegistry::Slot s_row_wait_;      // <path>/stall/row_wait
  obs::SpanLog* slog_;
  std::uint32_t read_lane_;  // "<path> / read txn" span lane
  // Read transactions in issue order (requests are served strictly FIFO,
  // words deliver in order), so span close is a front-of-queue decrement.
  // Only populated while span recording is enabled.
  struct PendingRead {
    std::uint64_t begin;
    std::uint32_t words_left;
  };
  std::deque<PendingRead> pending_reads_;
};

}  // namespace smache::mem
