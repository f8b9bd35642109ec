// ResultStore contract wall — the durability layer under crash-safe
// sweeps:
//   * record encoding round-trips exactly and rejects malformed payloads;
//   * the journal survives reopen, rotation and compaction with
//     last-writer-wins semantics;
//   * every corruption mode (torn tail, flipped byte, foreign header,
//     short read) is detected by the length/checksum framing, dropped,
//     counted — and never aborts recovery of the intact prefix or other
//     segments;
//   * the FaultyFileIo harness can script torn/failed appends at exact
//     operation indices, and a failed put retries into a FRESH segment
//     (never after a possibly-torn tail);
//   * concurrent put() is safe (this file is in the TSan CI leg).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "sweep/faults.hpp"
#include "sweep/spec.hpp"
#include "sweep/store.hpp"

namespace smache::sweep {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on destruction. Relative to
/// the per-test CWD, like the spec-file round-trip tests.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name) : path_("store_tmp_" + name) {
    fs::remove_all(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

StoredResult sample_record(std::uint64_t key) {
  StoredResult r;
  r.key = key;
  r.label = "sim/smache/hyb-t4/11x11/functional/s" + std::to_string(key);
  r.ok = true;
  r.cycles = 1000 + key;
  r.warmup_cycles = 17;
  r.dram.read_requests = 3 * key;
  r.dram.words_read = 400 + key;
  r.dram.words_written = 121;
  r.dram.row_hits = 9;
  r.dram.row_misses = 2;
  r.dram.injected_stall_cycles = 5;
  r.dram.injected_delay_cycles = 4;
  r.dram.read_busy_cycles = 400;
  r.output_hash = 0xDEADBEEFCAFEF00Dull ^ key;
  r.reference_checked = true;
  r.reference_match = true;
  r.r_total = 120;
  r.b_total = 9001;
  r.r_static = 40;
  r.b_static = 3000;
  r.r_stream = 80;
  r.b_stream = 6001;
  r.m20k_blocks = 7;
  r.fmax_mhz = 287.25;
  r.ops = 121 * 5;
  r.exec_time_us = 3.4875;
  r.mops = 173.5;
  return r;
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_all(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::vector<std::string> segments(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().extension() == ".smr") out.push_back(e.path().string());
  std::sort(out.begin(), out.end());
  return out;
}

// ---- encoding ------------------------------------------------------------

TEST(StoreEncoding, RoundTripsEveryField) {
  const StoredResult r = sample_record(42);
  const StoredResult back = ResultStore::decode(ResultStore::encode(r));
  EXPECT_EQ(back, r);

  StoredResult failed;
  failed.key = 7;
  failed.label = "sim/x";
  failed.ok = false;
  failed.error = "cascade depth 2 needs in-stream boundaries";
  EXPECT_EQ(ResultStore::decode(ResultStore::encode(failed)), failed);
}

TEST(StoreEncoding, PayloadBytesArePinned) {
  // The on-disk record format: a change here strands every existing store
  // segment, so it must come with a kFormatVersion bump.
  const std::string payload = ResultStore::encode(sample_record(42));
  EXPECT_EQ(payload.size(), 233u);
  EXPECT_EQ(fnv1a(payload), 0x5728c6db919eeb36ull);
}

TEST(StoreEncoding, RejectsTruncatedAndOversizedPayloads) {
  const std::string payload = ResultStore::encode(sample_record(1));
  for (const std::size_t cut : {std::size_t{0}, std::size_t{4},
                                payload.size() - 1})
    EXPECT_THROW((void)ResultStore::decode(
                     std::string_view(payload).substr(0, cut)),
                 store_io_error);
  EXPECT_THROW((void)ResultStore::decode(payload + "x"), store_io_error);
}

// ---- journal persistence -------------------------------------------------

TEST(Store, PutFindSurviveReopen) {
  const ScratchDir dir("reopen");
  {
    ResultStore store(dir.path());
    EXPECT_EQ(store.size(), 0u);
    for (std::uint64_t k : {1ull, 2ull, 3ull}) store.put(sample_record(k));
    EXPECT_EQ(store.size(), 3u);
    EXPECT_TRUE(store.contains(2));
    EXPECT_FALSE(store.contains(99));
  }
  ResultStore reopened(dir.path());
  EXPECT_EQ(reopened.size(), 3u);
  EXPECT_EQ(reopened.dropped_records(), 0u);
  StoredResult out;
  ASSERT_TRUE(reopened.find(3, &out));
  EXPECT_EQ(out, sample_record(3));
}

TEST(Store, LastWriterWinsWithinAndAcrossReopens) {
  const ScratchDir dir("lww");
  StoredResult v1 = sample_record(5);
  StoredResult v2 = v1;
  v2.cycles = 999999;
  {
    ResultStore store(dir.path());
    store.put(v1);
    store.put(v2);
    EXPECT_EQ(store.size(), 1u);
    StoredResult out;
    ASSERT_TRUE(store.find(5, &out));
    EXPECT_EQ(out.cycles, 999999u);
  }
  ResultStore reopened(dir.path());
  EXPECT_EQ(reopened.size(), 1u);
  StoredResult out;
  ASSERT_TRUE(reopened.find(5, &out));
  EXPECT_EQ(out, v2);
}

TEST(Store, RotatesSegmentsAndLoadsThemAll) {
  const ScratchDir dir("rotate");
  StoreOptions tiny;
  tiny.max_segment_bytes = 1;  // every put rotates
  {
    ResultStore store(dir.path(), tiny);
    for (std::uint64_t k = 0; k < 5; ++k) store.put(sample_record(k));
  }
  EXPECT_EQ(segments(dir.path()).size(), 5u);
  ResultStore reopened(dir.path());
  EXPECT_EQ(reopened.size(), 5u);
  EXPECT_EQ(reopened.dropped_records(), 0u);
}

TEST(Store, CompactionMergesToOneSegmentPreservingContents) {
  const ScratchDir dir("compact");
  StoreOptions tiny;
  tiny.max_segment_bytes = 1;
  {
    ResultStore store(dir.path(), tiny);
    for (std::uint64_t k = 0; k < 4; ++k) store.put(sample_record(k));
    StoredResult overwrite = sample_record(2);
    overwrite.cycles = 1;
    store.put(overwrite);
    store.compact();
    EXPECT_EQ(store.size(), 4u);
    // Compaction must not break a store that keeps appending afterwards.
    store.put(sample_record(77));
  }
  ResultStore reopened(dir.path());
  EXPECT_EQ(reopened.size(), 5u);
  StoredResult out;
  ASSERT_TRUE(reopened.find(2, &out));
  EXPECT_EQ(out.cycles, 1u);
  ASSERT_TRUE(reopened.find(77, &out));
  EXPECT_EQ(out, sample_record(77));
}

TEST(Store, LeftoverTmpFilesRemovedOnOpen) {
  const ScratchDir dir("tmpclean");
  { ResultStore store(dir.path()); store.put(sample_record(1)); }
  const std::string stray = dir.path() + "/seg-000099.smr.tmp";
  write_all(stray, "half-written rotation");
  ResultStore reopened(dir.path());
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_FALSE(fs::exists(stray));
}

// ---- corruption recovery -------------------------------------------------

TEST(StoreRecovery, TornTailIsDroppedAndCounted) {
  const ScratchDir dir("torn");
  {
    ResultStore store(dir.path());
    store.put(sample_record(1));
    store.put(sample_record(2));
  }
  const std::string seg = segments(dir.path()).at(0);
  const std::string bytes = read_all(seg);
  // Cut mid-way through the second record (well past the first).
  const std::size_t rec1_end =
      8 + 4 + ResultStore::frame(sample_record(1)).size();
  write_all(seg, bytes.substr(0, rec1_end + 10));

  ResultStore reopened(dir.path());
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_TRUE(reopened.contains(1));
  EXPECT_FALSE(reopened.contains(2));
  EXPECT_EQ(reopened.dropped_records(), 1u);
  // The store stays writable after recovery; re-putting the lost record
  // restores it durably.
  reopened.put(sample_record(2));
  ResultStore again(dir.path());
  EXPECT_EQ(again.size(), 2u);
}

TEST(StoreRecovery, FlippedByteAbandonsRestOfThatSegmentOnly) {
  const ScratchDir dir("flip");
  StoreOptions tiny;
  tiny.max_segment_bytes = 1;  // record 1 and records 2..3 in own segments
  {
    ResultStore store(dir.path(), tiny);
    for (std::uint64_t k = 1; k <= 3; ++k) store.put(sample_record(k));
  }
  const auto segs = segments(dir.path());
  ASSERT_EQ(segs.size(), 3u);
  // Flip one payload byte in the SECOND segment: its checksum fails, the
  // segment's remainder is abandoned, but segments 1 and 3 are untouched.
  std::string bytes = read_all(segs[1]);
  bytes[8 + 4 + 20] ^= 0x40;
  write_all(segs[1], bytes);

  ResultStore reopened(dir.path());
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_TRUE(reopened.contains(1));
  EXPECT_FALSE(reopened.contains(2));
  EXPECT_TRUE(reopened.contains(3));
  EXPECT_EQ(reopened.dropped_records(), 1u);
}

TEST(StoreRecovery, ForeignHeaderSegmentIgnoredWholesale) {
  const ScratchDir dir("foreign");
  { ResultStore store(dir.path()); store.put(sample_record(4)); }
  write_all(dir.path() + "/seg-000050.smr", "NOTMAGIC-garbage-bytes");
  ResultStore reopened(dir.path());
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_GE(reopened.dropped_records(), 1u);
}

TEST(StoreRecovery, UnusableDirectoryIsACleanError) {
  const ScratchDir dir("notadir");
  write_all(dir.path(), "a regular file where the store dir should be");
  // Opening a store rooted at (or under) a regular file must surface as
  // store_io_error with the path in the message — never a raw
  // std::filesystem exception from deep inside.
  try {
    ResultStore store(dir.path());
    FAIL() << "expected store_io_error";
  } catch (const store_io_error& e) {
    EXPECT_NE(std::string(e.what()).find(dir.path()), std::string::npos);
  }
  EXPECT_THROW(ResultStore(dir.path() + "/sub"), store_io_error);
}

// ---- scenario keys -------------------------------------------------------

TEST(StoreKey, DistinguishesEverythingThatChangesTheResult) {
  SweepSpec spec;
  spec.boundaries = {"open"};
  const Scenario base = spec.expand().at(0);
  const std::uint64_t key = ResultStore::scenario_key(base, false);
  EXPECT_EQ(ResultStore::scenario_key(base, false), key);  // stable

  Scenario other = base;
  other.label += "!";
  EXPECT_NE(ResultStore::scenario_key(other, false), key);
  other = base;
  other.seed ^= 1;
  EXPECT_NE(ResultStore::scenario_key(other, false), key);
  other = base;
  other.engine.max_cycles += 1;
  EXPECT_NE(ResultStore::scenario_key(other, false), key);
  EXPECT_NE(ResultStore::scenario_key(base, true), key);  // verify flag
}

// ---- fault-injection harness (IO side) -----------------------------------

TEST(StoreFaults, TornAppendThrowsAndRetryLandsInFreshSegment) {
  const ScratchDir dir("faulty_torn");
  FaultyFileIo io(real_file_io());
  // Op 0 is the header rotation append? No: rotation uses
  // write_file_atomic; append op 0 is the first record. Tear it at byte 7.
  IoFault torn;
  torn.kind = IoFaultKind::TornAppend;
  torn.op_index = 0;
  torn.offset = 7;
  io.add(torn);
  StoreOptions opts;
  opts.io = &io;
  ResultStore store(dir.path(), opts);
  EXPECT_THROW(store.put(sample_record(1)), store_io_error);
  // Retry (the executor's put_with_retry does this): must succeed and land
  // in a NEW segment, leaving the torn tail behind for recovery to drop.
  store.put(sample_record(1));
  EXPECT_EQ(segments(dir.path()).size(), 2u);

  ResultStore reopened(dir.path());
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.dropped_records(), 1u);  // the torn 7-byte tail
  StoredResult out;
  ASSERT_TRUE(reopened.find(1, &out));
  EXPECT_EQ(out, sample_record(1));
}

TEST(StoreFaults, TransientFailAppendSucceedsOnRetry) {
  const ScratchDir dir("faulty_fail");
  FaultyFileIo io(real_file_io());
  IoFault fail;
  fail.kind = IoFaultKind::FailAppend;
  fail.op_index = 0;
  io.add(fail);
  StoreOptions opts;
  opts.io = &io;
  ResultStore store(dir.path(), opts);
  EXPECT_THROW(store.put(sample_record(9)), store_io_error);
  store.put(sample_record(9));
  EXPECT_TRUE(store.contains(9));
  EXPECT_EQ(ResultStore(dir.path()).size(), 1u);
}

TEST(StoreFaults, BitFlipAppendIsCaughtByChecksumAtReopen) {
  const ScratchDir dir("faulty_flip");
  FaultyFileIo io(real_file_io());
  IoFault flip;
  flip.kind = IoFaultKind::BitFlipAppend;
  flip.op_index = 1;  // second record
  flip.offset = 15;
  flip.mask = 0x20;
  io.add(flip);
  StoreOptions opts;
  opts.io = &io;
  {
    ResultStore store(dir.path(), opts);
    store.put(sample_record(1));
    store.put(sample_record(2));  // silently corrupted on disk
    store.put(sample_record(3));
    EXPECT_EQ(store.size(), 3u);  // in-memory index is still intact
  }
  ResultStore reopened(dir.path());
  EXPECT_TRUE(reopened.contains(1));
  EXPECT_FALSE(reopened.contains(2));
  EXPECT_EQ(reopened.dropped_records(), 1u);
}

TEST(StoreFaults, ShortReadDropsOnlyTheTruncatedTail) {
  const ScratchDir dir("faulty_short");
  std::size_t full_size = 0;
  {
    ResultStore store(dir.path());
    store.put(sample_record(1));
    store.put(sample_record(2));
    full_size = read_all(segments(dir.path()).at(0)).size();
  }
  FaultyFileIo io(real_file_io());
  IoFault short_read;
  short_read.kind = IoFaultKind::ShortRead;
  short_read.op_index = 0;
  short_read.offset = full_size - 5;  // lose the 2nd record's checksum tail
  io.add(short_read);
  StoreOptions opts;
  opts.io = &io;
  ResultStore reopened(dir.path(), opts);
  EXPECT_TRUE(reopened.contains(1));
  EXPECT_FALSE(reopened.contains(2));
  EXPECT_EQ(reopened.dropped_records(), 1u);
}

// ---- concurrency ---------------------------------------------------------

TEST(Store, ConcurrentPutsAreSerializedAndAllDurable) {
  const ScratchDir dir("concurrent");
  StoreOptions small;
  small.max_segment_bytes = 512;  // force rotations under contention
  {
    ResultStore store(dir.path(), small);
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t)
      workers.emplace_back([&store, t] {
        for (std::uint64_t k = 0; k < 8; ++k)
          store.put(sample_record(static_cast<std::uint64_t>(t) * 100 + k));
      });
    for (auto& w : workers) w.join();
    EXPECT_EQ(store.size(), 32u);
  }
  ResultStore reopened(dir.path());
  EXPECT_EQ(reopened.size(), 32u);
  EXPECT_EQ(reopened.dropped_records(), 0u);
  for (int t = 0; t < 4; ++t)
    for (std::uint64_t k = 0; k < 8; ++k)
      EXPECT_TRUE(
          reopened.contains(static_cast<std::uint64_t>(t) * 100 + k));
}

}  // namespace
}  // namespace smache::sweep
