// DRAM timing configuration and presets.
#pragma once

#include <cstdint>

namespace smache::mem {

/// Timing/behaviour knobs for DramModel. Two presets:
///
/// functional() — 1 word/cycle, small fixed latency, no row-buffer model.
///   This matches the memory interface implied by the paper's simulation
///   numbers (its baseline spends ~5.3 cycles per 5 accesses per grid
///   point, i.e. a fully pipelined 1-access/cycle interface).
///
/// ddr_like() — adds a row-buffer: accesses that hit the open row stream at
///   1 word/cycle; switching rows costs an activation penalty. Sequential
///   bursts amortise activations; random single-word accesses pay one per
///   access. Used by the ablation bench to show the Smache gap *widening*
///   under realistic memory (the paper's MP-STREAM argument [11]).
struct DramConfig {
  /// Cycles between accepting a read request and the first data word.
  std::uint32_t read_latency = 2;
  /// Words per DRAM row; 0 disables the row-buffer model.
  std::uint32_t row_words = 0;
  /// Extra cycles charged when an access opens a different row.
  std::uint32_t row_miss_cycles = 0;
  /// Channel queue depths (request, read-data, write).
  std::uint32_t req_queue_depth = 4;
  std::uint32_t data_queue_depth = 8;
  std::uint32_t write_queue_depth = 8;
  /// When true, a write drain consumes the same issue slot as read data
  /// (single shared bus); default gives AXI-style independent channels.
  bool shared_bus = false;
  /// Failure injection: after every `stall_every` data words, insert
  /// `stall_cycles` idle cycles (0 disables). Correctness must not depend
  /// on DRAM pacing; tests rely on this hook.
  std::uint32_t stall_every = 0;
  std::uint32_t stall_cycles = 0;
  /// Fault injection, storm flavour: after every `storm_every` issued
  /// words, freeze the read path for `storm_cycles` cycles (0 disables).
  /// Composes additively with the periodic `stall_every` hook — a plan can
  /// impose storms on top of a DRAM family's own pacing. Storms drain
  /// through the same stall counter and are charged to
  /// DramStats::injected_stall_cycles.
  std::uint32_t storm_every = 0;
  std::uint32_t storm_cycles = 0;
  /// Fault injection, delayed-completion flavour: hold every
  /// `delay_every`-th word at the head of the transit line for
  /// `delay_cycles` extra cycles before delivering it (0 disables). Unlike
  /// a stall, the delay models a slow *completion*: the word was fetched on
  /// time but arrives late. Charged to DramStats::injected_delay_cycles.
  std::uint32_t delay_every = 0;
  std::uint32_t delay_cycles = 0;

  static DramConfig functional() {
    DramConfig c;
    c.read_latency = 2;
    c.row_words = 0;
    c.row_miss_cycles = 0;
    return c;
  }

  static DramConfig ddr_like() {
    DramConfig c;
    c.read_latency = 6;
    c.row_words = 1024;       // 4 KiB rows of 32-bit words
    c.row_miss_cycles = 12;   // activate+precharge, in controller cycles
    return c;
  }
};

/// Traffic and behaviour counters maintained by DramModel. `words_read`
/// counts data words delivered to the chip; `words_written` counts words
/// accepted from it — multiply by kWordBytes for the paper's KB numbers.
struct DramStats {
  std::uint64_t read_requests = 0;
  std::uint64_t words_read = 0;
  std::uint64_t words_written = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t injected_stall_cycles = 0;
  std::uint64_t injected_delay_cycles = 0;
  std::uint64_t read_busy_cycles = 0;

  std::uint64_t bytes_read() const noexcept { return words_read * 4; }
  std::uint64_t bytes_written() const noexcept { return words_written * 4; }
  std::uint64_t total_bytes() const noexcept {
    return bytes_read() + bytes_written();
  }

  /// Counters of runs that together make one result (tiles, passes) add
  /// field by field.
  DramStats& operator+=(const DramStats& o) noexcept {
    read_requests += o.read_requests;
    words_read += o.words_read;
    words_written += o.words_written;
    row_hits += o.row_hits;
    row_misses += o.row_misses;
    injected_stall_cycles += o.injected_stall_cycles;
    injected_delay_cycles += o.injected_delay_cycles;
    read_busy_cycles += o.read_busy_cycles;
    return *this;
  }
  friend bool operator==(const DramStats&, const DramStats&) = default;
};

}  // namespace smache::mem
