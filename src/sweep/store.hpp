// ResultStore — a persistent, content-addressed store of finished scenario
// outcomes, the durability layer under crash-safe sweeps (and the
// memoization cache the sweep-as-a-service direction needs): re-running any
// spec — including a widened one — skips every scenario whose key is
// already present and executes only the delta.
//
// Keying. A record is addressed by scenario_key(): an FNV-1a fold of the
// scenario's canonical label (which encodes mode, architecture, stream
// impl, threshold, grid, DRAM family, steps, depth, tile mesh, stencil,
// boundary, kernel and input family), its workload-derived seed, the
// engine's max_cycles watchdog, and whether golden-reference verification
// was on — everything that determines the deterministic result, and
// nothing that does not (thread counts, wall clocks). The key deliberately
// does NOT include the code version: a store directory is tied to a build
// of this repo, and kFormatVersion must be bumped whenever result
// semantics change (stale stores are then ignored wholesale, never
// half-trusted).
//
// Durability model. The store is an append-only journal of length-prefixed
// records, each carrying its own FNV-1a checksum, split across numbered
// segment files. Segments are created empty (header only) via atomic
// tmp+rename, then appended to with an fflush after every record — so a
// SIGKILL can lose at most the in-flight tail record, never a committed
// one, and a half-written tail is detected by its length/checksum and
// dropped at the next open. A checksum failure ANYWHERE in a segment
// abandons the rest of that segment (framing after a corrupt record is
// untrustworthy) but not other segments; every dropped record is counted
// and logged, and the affected scenarios simply re-execute. Within and
// across segments, the last record for a key wins, so re-putting a key is
// an ordinary append. compact() rewrites the live set into one fresh
// segment (atomic tmp+rename again) and deletes the old ones.
//
// All file IO goes through the FileIo seam so the fault-injection harness
// (sweep/faults.hpp) can script torn writes, short reads and bit flips at
// exact offsets; the default implementation uses std::filesystem's
// error_code overloads throughout — a read-only or vanished directory
// surfaces as store_io_error with a descriptive message, never as a
// filesystem exception escaping from deep inside the library.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "mem/dram_config.hpp"
#include "sweep/spec.hpp"

namespace smache::sweep {

/// A store/journal IO failure. Transient by classification: callers may
/// retry (the executor does, with bounded backoff) — in the worst case the
/// sweep continues with that result unpersisted, which only costs a
/// re-execution on resume.
class store_io_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// File-IO seam used by ResultStore. The default implementation
/// (real_file_io()) wraps std::filesystem and stdio with error_code
/// overloads; FaultyFileIo (sweep/faults.hpp) shims it to inject torn
/// writes, short reads, bit flips and transient append failures. Every
/// method throws store_io_error on failure.
class FileIo {
 public:
  virtual ~FileIo() = default;
  /// mkdir -p with error_code; rejects an existing non-directory path.
  virtual void create_directories(const std::string& dir);
  virtual bool exists(const std::string& path);
  /// Regular files directly inside `dir` whose names end with `suffix`,
  /// lexicographically sorted (segment order). Missing dir -> error.
  virtual std::vector<std::string> list_files(const std::string& dir,
                                              std::string_view suffix);
  /// Whole-file read (binary).
  virtual std::string read_file(const std::string& path);
  /// Append `bytes` to `path` (creating it if missing) and flush, so a
  /// process kill after return cannot lose the record to libc buffering.
  virtual void append_file(const std::string& path, std::string_view bytes);
  /// Write `bytes` to `path` atomically: write `path` + ".tmp", flush,
  /// rename over `path`. Readers never observe a half-written file.
  virtual void write_file_atomic(const std::string& path,
                                 std::string_view bytes);
  virtual void remove_file(const std::string& path);
};

/// Process-wide default FileIo (plain filesystem access).
FileIo& real_file_io();

struct StoreOptions {
  /// Rotate the active segment once it exceeds this many bytes. Small
  /// values are test knobs; the default keeps segment counts low while
  /// bounding how much one corrupt segment can invalidate.
  std::uint64_t max_segment_bytes = 8ull << 20;
  /// IO implementation; nullptr = real_file_io().
  FileIo* io = nullptr;
};

/// Structured lifetime counters for one ResultStore (telemetry only —
/// never part of digests or stored records).
struct StoreStats {
  std::uint64_t hits = 0;     // find() served a cached record
  std::uint64_t misses = 0;   // find() had no record for the key
  std::uint64_t appends = 0;  // records journaled by put()
  std::uint64_t retries = 0;  // failed put attempts the caller retried
                              // (reported via note_retry)
  std::uint64_t dropped = 0;  // corrupt/torn records dropped at open
};

/// One persisted scenario outcome: exactly the deterministic result fields
/// that participate in SweepExecutor::digest and report emission, so a
/// store hit reconstructs a ScenarioResult that is byte-identical in every
/// report. Fields outside the reports (full buffer plan, output grid,
/// timing breakdown strings) are deliberately not persisted.
struct StoredResult {
  std::uint64_t key = 0;
  std::string label;  // diagnostics/compaction listings only — key decides
  bool ok = false;
  std::string error;
  std::uint64_t cycles = 0;
  std::uint64_t warmup_cycles = 0;
  mem::DramStats dram;
  std::uint64_t output_hash = 0;
  bool reference_checked = false;
  bool reference_match = false;
  std::uint64_t r_total = 0, b_total = 0;
  std::uint64_t r_static = 0, b_static = 0;
  std::uint64_t r_stream = 0, b_stream = 0;
  std::uint64_t m20k_blocks = 0;
  double fmax_mhz = 0.0;
  std::uint64_t ops = 0;
  double exec_time_us = 0.0;
  double mops = 0.0;

  friend bool operator==(const StoredResult&, const StoredResult&) = default;
};

namespace detail {

/// StoredResult's payload fields in store-payload order: the one list that
/// ResultStore::encode/decode and SweepExecutor::digest walk. `key` and
/// `label` frame a record and stay outside it. `timed_out_slot` runs
/// between the DRAM counters and output_hash, where the digest mixes the
/// never-stored RunResult::timed_out.
template <typename Record, typename Visit, typename Slot>
void for_each_payload_field(Record& r, Visit&& visit, Slot&& timed_out_slot) {
  visit(r.ok);
  visit(r.error);
  visit(r.cycles);
  visit(r.warmup_cycles);
  visit(r.dram.read_requests);
  visit(r.dram.words_read);
  visit(r.dram.words_written);
  visit(r.dram.row_hits);
  visit(r.dram.row_misses);
  visit(r.dram.injected_stall_cycles);
  visit(r.dram.injected_delay_cycles);
  visit(r.dram.read_busy_cycles);
  timed_out_slot();
  visit(r.output_hash);
  visit(r.reference_checked);
  visit(r.reference_match);
  visit(r.r_total);
  visit(r.b_total);
  visit(r.r_static);
  visit(r.b_static);
  visit(r.r_stream);
  visit(r.b_stream);
  visit(r.m20k_blocks);
  visit(r.fmax_mhz);
  visit(r.ops);
  visit(r.exec_time_us);
  visit(r.mops);
}

}  // namespace detail

class ResultStore {
 public:
  /// Record/segment format version; bump on ANY semantic change to results
  /// or encoding. Segments with a different version are ignored (counted
  /// as dropped), so a stale store degrades to a cold one.
  static constexpr std::uint32_t kFormatVersion = 1;

  /// Open (creating the directory if needed) and scan every segment.
  /// Corrupt or torn records are dropped, counted and logged — never
  /// trusted. Leftover .tmp files from a crashed rotation are removed.
  /// Throws store_io_error when the directory cannot be created or read.
  explicit ResultStore(std::string dir, StoreOptions options = {});

  const std::string& dir() const noexcept { return dir_; }

  std::size_t size() const;
  /// Records dropped during open() recovery (torn tails, checksum
  /// failures, foreign-version or unreadable segments' remainders).
  std::uint64_t dropped_records() const;
  /// Lifetime telemetry counters (hits/misses/appends/retries/dropped).
  StoreStats stats() const;
  /// Count one retried put() attempt — called by drivers whose retry loop
  /// wraps put(), so the store's own telemetry sees the failures too.
  void note_retry();

  bool contains(std::uint64_t key) const;
  /// Copy-out lookup (thread-safe against concurrent put()).
  bool find(std::uint64_t key, StoredResult* out) const;

  /// Append one record (journal first, then index). Thread-safe. Throws
  /// store_io_error on IO failure; the active segment is abandoned after a
  /// failed append, so a retry lands in a fresh segment rather than after
  /// a possibly-torn tail.
  void put(const StoredResult& record);

  /// Rewrite the live record set into one fresh segment (atomic
  /// tmp+rename) and delete every older segment. Record order inside the
  /// compacted segment is key order — deterministic for tests.
  void compact();

  /// The content address of a scenario's deterministic outcome (see the
  /// header comment for what participates and why).
  static std::uint64_t scenario_key(const Scenario& scenario,
                                    bool verify_reference);

  // -- encoding, exposed so tests can frame/corrupt records surgically --
  static std::string encode(const StoredResult& record);
  /// Throws store_io_error on malformed payloads.
  static StoredResult decode(std::string_view payload);
  /// Full on-disk framing: length prefix + payload + FNV-1a checksum.
  static std::string frame(const StoredResult& record);
  static constexpr char kMagic[9] = "SMRSTOR1";  // 8 bytes + NUL

 private:
  FileIo& io() const noexcept { return *io_; }
  std::string segment_path(std::uint64_t index) const;
  void load_segment(const std::string& path);
  /// Start a fresh active segment (header via atomic tmp+rename).
  void rotate_locked();

  std::string dir_;
  StoreOptions options_;
  FileIo* io_ = nullptr;

  mutable std::mutex mu_;
  mutable StoreStats stats_;  // hit/miss counted inside const find()
  std::map<std::uint64_t, StoredResult> index_;
  std::vector<std::string> segment_files_;  // loaded + created, for compact
  std::uint64_t next_segment_ = 1;
  std::string active_path_;  // empty until the first put() after open
  std::uint64_t active_bytes_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace smache::sweep
