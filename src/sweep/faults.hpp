// Deterministic fault-injection harness for crash-safe-sweep testing.
//
// Two fault surfaces, matching the two things a long sweep actually fears:
//
//  * DRAM misbehaviour — DramFault entries in a FaultPlan rewrite the DRAM
//    config of matching scenarios to inject stall storms (the issue path
//    freezes for a burst of cycles) and delayed completions (a fetched word
//    is held at the head of the read pipe). Both hooks live in the DRAM
//    model itself (mem/dram_config.hpp) and are fully deterministic: the
//    trip points are word counts, so an injected run is bit-reproducible
//    and its digest is stable — the harness tests that sweeps degrade
//    gracefully (more cycles, same output hash), not that chaos is chaotic.
//
//  * Store IO misbehaviour — FaultyFileIo wraps any FileIo and executes a
//    script of IoFaults against it: torn appends (a record cut mid-write,
//    as by SIGKILL), silent bit flips at exact offsets (disk rot), short
//    reads (truncated segment), and transient append failures (the retry
//    path's food). Faults are addressed by per-operation call index, so a
//    test can say "tear the 3rd append at byte 7" and get exactly that.
//
// FaultPlan::seeded() derives a plan from a single u64 via splitmix64 —
// the same seed always yields the same plan, so a randomized soak test is
// just a loop over seeds, and any failure reproduces from its seed alone.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mem/dram_config.hpp"
#include "sweep/store.hpp"

namespace smache::sweep {

/// One DRAM fault, applied to every scenario whose label contains
/// `label_contains` (empty matches every scenario). Non-zero fields
/// overwrite the scenario's DRAM config; zero fields leave it untouched.
/// Later matching faults win on overlap.
struct DramFault {
  std::string label_contains;
  /// Stall storm: every `storm_every` issued words, freeze the issue path
  /// for `storm_cycles` cycles (added on top of any configured stall).
  std::uint64_t storm_every = 0;
  std::uint64_t storm_cycles = 0;
  /// Delayed completion: every `delay_every` delivered words, hold the
  /// head of the read pipe for `delay_cycles` cycles.
  std::uint64_t delay_every = 0;
  std::uint64_t delay_cycles = 0;
};

struct FaultPlan {
  std::vector<DramFault> dram;

  bool empty() const noexcept { return dram.empty(); }

  /// Rewrite `config` with every fault matching `label`, in plan order.
  /// Returns true when at least one fault matched.
  bool apply(std::string_view label, mem::DramConfig* config) const;

  /// Deterministic plan from a seed: `count` match-everything faults with
  /// bounded periods (64..1087 words) and magnitudes (1..8 cycles),
  /// alternating storm/delay flavours. Same seed, same plan, always.
  static FaultPlan seeded(std::uint64_t seed, std::size_t count);
};

enum class IoFaultKind {
  /// The append writes only the first `offset` bytes, then throws
  /// store_io_error — a SIGKILL mid-append, as seen by the next open.
  TornAppend,
  /// The append throws before writing anything — a transient full/busy
  /// filesystem; the natural target of the executor's bounded retry.
  FailAppend,
  /// The append XORs `mask` into byte `offset` of the record before
  /// writing it — silent corruption that only the checksum can catch.
  BitFlipAppend,
  /// read_file returns only the first `offset` bytes of the file — a
  /// truncated segment as seen at recovery time.
  ShortRead,
};

/// One scripted IO fault, addressed by the per-kind operation index (the
/// Nth append for append-kind faults, the Nth read for ShortRead — both
/// 0-based, counted per FaultyFileIo instance across every handle it
/// opened).
struct IoFault {
  IoFaultKind kind = IoFaultKind::FailAppend;
  std::uint64_t op_index = 0;
  std::uint64_t offset = 0;  // tear/truncation point, or flipped byte
  std::uint8_t mask = 0x01;  // BitFlipAppend XOR mask (must be non-zero)
};

/// FileIo shim executing a fault script against an inner implementation.
/// Operations not named in the script pass straight through. The handles
/// open_append() returns wrap the inner handles and refer back to this
/// object, which must outlive them. Not thread-safe by itself —
/// ResultStore serializes all IO under its mutex, which is the only way
/// the store ever drives a FileIo.
class FaultyFileIo final : public FileIo {
 public:
  explicit FaultyFileIo(FileIo& inner) : inner_(inner) {}

  void add(IoFault fault) { faults_.push_back(fault); }

  std::uint64_t appends() const noexcept { return append_count_; }
  std::uint64_t reads() const noexcept { return read_count_; }

  void create_directories(const std::string& dir) override;
  bool exists(const std::string& path) override;
  std::vector<std::string> list_files(const std::string& dir,
                                      std::string_view suffix) override;
  std::string read_file(const std::string& path) override;
  std::unique_ptr<AppendHandle> open_append(const std::string& path) override;
  void write_file_atomic(const std::string& path,
                         std::string_view bytes) override;
  void remove_file(const std::string& path) override;

 private:
  class Handle;

  const IoFault* match(IoFaultKind kind, std::uint64_t index) const;
  /// One append through `inner`, with this instance's next append fault.
  void append_through(AppendHandle& inner, const std::string& path,
                      std::string_view bytes);

  FileIo& inner_;
  std::vector<IoFault> faults_;
  std::uint64_t append_count_ = 0;
  std::uint64_t read_count_ = 0;
};

}  // namespace smache::sweep
