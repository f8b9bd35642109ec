// On-chip block RAM primitive (an M20K-style bank).
//
// Hardware model:
//   * one synchronous read port: read(addr) at cycle t makes the data
//     available from rdata() at cycle t+1 (the bank has a registered output
//     stage — this is also why physical depth gains one word, see below);
//     rdata() holds until the next read;
//   * one write port: write(addr, v) lands at the clock edge;
//   * read-during-write to the same address returns OLD data
//     (read-before-write mode, the safe default on Intel devices);
//   * at most one read and one write per cycle.
//
// A bank is read only by the module that owns it, so the clock edge is the
// owner's settle() at the end of its eval (sim/module.hpp): it latches the
// read issued this cycle, then lands the write. A testbench driving a bank
// directly is its owner and calls settle() where its clock edge falls.
//
// Physical rounding ("synthesis"): logical capacity is what the design
// asked for; the bank that actually gets stitched out of device RAM is
// bigger. Calibrated against the reference Quartus/Stratix-V results the
// paper reports (Table I "Actual" rows):
//   * Mode::Ram  — physical depth = depth + 1 (output register stage):
//                  11 -> 12, 1024 -> 1025;
//   * Mode::Fifo — FIFO pointer logic additionally aligns the depth:
//                  physical depth = round_up(depth + 1, 4):
//                  7 -> 8, 1020 -> 1024.
// Both rules are documented substitutions for real synthesis (DESIGN.md §2).
// charge_bram() applies them to the ledger for BramBank and for models that
// simulate BRAM storage without a bank (the stream buffer's FIFO segments),
// so every BRAM charge follows the same rule.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "sim/simulator.hpp"

namespace smache::mem {

/// Bits per M20K block on Stratix-V-class devices.
inline constexpr std::uint64_t kM20kBits = 20480;

enum class BramMode { Ram, Fifo };

/// Synthesis-rounded depth of a `depth`-word bank (see header comment).
inline std::size_t physical_depth(std::size_t depth, BramMode mode) noexcept {
  const std::size_t with_output_stage = depth + 1;
  return mode == BramMode::Ram
             ? with_output_stage
             : static_cast<std::size_t>(smache::round_up(with_output_stage, 4));
}

/// Charge one bank of `depth` logical words of `width_bits` to `path`: the
/// BramBits of its synthesis-rounded depth and the M20K blocks they fill.
inline void charge_bram(sim::ResourceLedger& ledger, std::string_view path,
                        std::size_t depth, std::uint32_t width_bits,
                        BramMode mode) {
  const std::uint64_t bits =
      static_cast<std::uint64_t>(physical_depth(depth, mode)) * width_bits;
  ledger.add(path, sim::ResKind::BramBits, bits);
  ledger.add(path, sim::ResKind::BramBlocks, smache::ceil_div(bits, kM20kBits));
}

class BramBank {
 public:
  using Mode = BramMode;

  BramBank(sim::Simulator& sim, std::string_view path, std::size_t depth,
           std::uint32_t width_bits, Mode mode)
      : depth_(depth), width_bits_(width_bits), mode_(mode),
        store_(depth, 0) {
    SMACHE_REQUIRE(depth >= 1);
    SMACHE_REQUIRE(width_bits >= 1 && width_bits <= 64);
    charge_bram(sim.ledger(), path, depth, width_bits, mode);
  }

  std::size_t depth() const noexcept { return depth_; }
  std::uint32_t width_bits() const noexcept { return width_bits_; }

  /// Synthesis-rounded depth (see header comment).
  std::size_t physical_depth() const noexcept {
    return mem::physical_depth(depth_, mode_);
  }

  std::uint64_t physical_bits() const noexcept {
    return static_cast<std::uint64_t>(physical_depth()) * width_bits_;
  }

  /// Issue a synchronous read; rdata() returns the value after settle().
  void read(std::size_t addr) {
    SMACHE_REQUIRE(addr < depth_);
    SMACHE_REQUIRE_MSG(!read_pending_, "two reads in one cycle on 1R port");
    read_addr_ = addr;
    read_pending_ = true;
  }

  /// Registered read data from the most recent read(). Holds its value
  /// until the next read is settled.
  std::uint64_t rdata() const noexcept { return rdata_; }

  /// Issue a write, applied at settle().
  void write(std::size_t addr, std::uint64_t value) {
    SMACHE_REQUIRE(addr < depth_);
    SMACHE_REQUIRE_MSG(!write_pending_, "two writes in one cycle on 1W port");
    write_addr_ = addr;
    write_value_ = value & mask();
    write_pending_ = true;
  }

  /// The owner's clock edge: latch this cycle's read before its write
  /// lands (read-before-write), then apply the write.
  void settle() noexcept {
    if (read_pending_) {
      rdata_ = store_[read_addr_];
      read_pending_ = false;
    }
    if (write_pending_) {
      store_[write_addr_] = write_value_;
      write_pending_ = false;
    }
  }

  /// Test-bench backdoor (NOT hardware): inspect settled contents.
  std::uint64_t peek(std::size_t addr) const {
    SMACHE_REQUIRE(addr < depth_);
    return store_[addr];
  }
  /// Test-bench backdoor (NOT hardware): set settled contents.
  void poke(std::size_t addr, std::uint64_t value) {
    SMACHE_REQUIRE(addr < depth_);
    store_[addr] = value & mask();
  }

 private:
  std::uint64_t mask() const noexcept {
    return width_bits_ >= 64 ? ~std::uint64_t{0}
                             : ((std::uint64_t{1} << width_bits_) - 1);
  }

  std::size_t depth_;
  std::uint32_t width_bits_;
  Mode mode_;
  std::vector<std::uint64_t> store_;
  std::size_t read_addr_ = 0;
  std::uint64_t rdata_ = 0;
  std::size_t write_addr_ = 0;
  std::uint64_t write_value_ = 0;
  bool read_pending_ = false;
  bool write_pending_ = false;
};

}  // namespace smache::mem
