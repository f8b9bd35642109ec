// Unit tests for the StreamBuffer: the delay-line invariant (every tap age
// sees the stream delayed by exactly that many shifts), the hybrid
// register/BRAM equivalence, stall robustness, and the ledger charges. The
// testbench owns each window, so its settle() is the clock edge.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "model/planner.hpp"
#include "rtl/stream_buffer.hpp"
#include "sim/simulator.hpp"

namespace smache::rtl {
namespace {

model::BufferPlan make_plan(std::size_t h, std::size_t w,
                            model::StreamImpl impl,
                            std::size_t threshold = 4) {
  model::PlannerOptions o;
  o.stream_impl = impl;
  o.bram_segment_threshold = threshold;
  return model::Planner(o).plan(h, w, grid::StencilShape::von_neumann4(),
                                grid::BoundarySpec::paper_example());
}

TEST(StreamBuffer, DelayLineInvariantRegisterOnly) {
  sim::Simulator sim;
  const auto plan = make_plan(11, 11, model::StreamImpl::RegisterOnly);
  StreamBuffer sb(sim, "sb", plan);
  // Feed the sequence 1000, 1001, ...; after n shifts, the tap at age a
  // must hold element n - a.
  const std::size_t total = 3 * plan.window_len();
  for (std::size_t n = 1; n <= total; ++n) {
    sb.shift(static_cast<word_t>(1000 + n - 1));
    sb.settle();
    for (std::size_t age = 1; age <= plan.window_len(); ++age) {
      if (n >= age) {
        EXPECT_EQ(sb.tap(age), 1000 + n - age)
            << "n=" << n << " age=" << age;
      }
    }
  }
}

TEST(StreamBuffer, DelayLineInvariantHybridTaps) {
  sim::Simulator sim;
  const auto plan = make_plan(11, 11, model::StreamImpl::Hybrid);
  StreamBuffer sb(sim, "sb", plan);
  const std::size_t total = 4 * plan.window_len();
  for (std::size_t n = 1; n <= total; ++n) {
    sb.shift(static_cast<word_t>(5000 + n - 1));
    sb.settle();
    // From the first shift: ages no shift has reached yet read 0.
    for (std::size_t age : plan.tap_ages())
      EXPECT_EQ(sb.tap(age), n >= age ? 5000 + n - age : 0)
          << "n=" << n << " age=" << age;
  }
}

/// Feed 3 * window_len random F-word cells through a window built from
/// `plan`, with random stall cycles (no shift) in between, and check after
/// EVERY cycle that each register age holds, in every field, the cell
/// shifted in exactly that many shifts ago — or 0 while no shift has
/// reached that age yet.
void check_delay_line(const model::BufferPlan& plan, std::size_t fields,
                      std::uint64_t seed) {
  sim::Simulator sim;
  StreamBuffer sb(sim, "sb", plan, fields);
  Rng rng(seed);
  std::vector<word_t> fed;  // fed[i * F + f]: field f of the i-th cell
  std::vector<word_t> cell(fields);
  const std::size_t shifts = 3 * plan.window_len();
  while (fed.size() < shifts * fields) {
    if (rng.chance(1, 3)) {
      sb.settle();  // stall cycle: no shift
    } else {
      for (word_t& w : cell) w = static_cast<word_t>(rng.next_u64());
      sb.shift_cell(cell.data());
      fed.insert(fed.end(), cell.begin(), cell.end());
      sb.settle();
    }
    const std::size_t n = fed.size() / fields;
    for (std::size_t age : plan.reg_ages()) {
      const std::size_t slot = sb.slot_of_age(age);
      for (std::size_t f = 0; f < fields; ++f) {
        const word_t want = age <= n ? fed[(n - age) * fields + f] : 0;
        ASSERT_EQ(sb.tap_slot(slot + f), want)
            << "n=" << n << " age=" << age << " field=" << f;
      }
      ASSERT_EQ(sb.tap(age), age <= n ? fed[(n - age) * fields] : 0)
          << "n=" << n << " age=" << age;
    }
  }
}

TEST(StreamBuffer, DelayLineEveryRegisterAgeAndFieldWithStalls) {
  std::uint64_t seed = 1;
  for (std::size_t side : {11u, 16u})
    for (model::StreamImpl impl :
         {model::StreamImpl::RegisterOnly, model::StreamImpl::Hybrid})
      for (std::size_t fields : {1u, 3u}) {
        SCOPED_TRACE("side=" + std::to_string(side) + " hybrid=" +
                     std::to_string(impl == model::StreamImpl::Hybrid) +
                     " F=" + std::to_string(fields));
        const auto plan = make_plan(side, side, impl);
        if (impl == model::StreamImpl::Hybrid) {
          ASSERT_FALSE(plan.fifo_segments().empty());
        }
        check_delay_line(plan, fields, seed++);
      }
}

TEST(StreamBuffer, HybridMatchesRegisterOnlyAtEveryTap) {
  sim::Simulator sim;
  const auto plan_h = make_plan(16, 16, model::StreamImpl::Hybrid);
  const auto plan_r = make_plan(16, 16, model::StreamImpl::RegisterOnly);
  StreamBuffer h(sim, "h", plan_h), r(sim, "r", plan_r);
  Rng rng(42);
  for (int n = 1; n <= 300; ++n) {
    const auto v = static_cast<word_t>(rng.next_u64());
    h.shift(v);
    r.shift(v);
    h.settle();
    r.settle();
    if (n > static_cast<int>(plan_h.window_len())) {
      for (std::size_t age : plan_h.tap_ages())
        EXPECT_EQ(h.tap(age), r.tap(age)) << "age " << age;
    }
  }
}

TEST(StreamBuffer, StallsPreserveContents) {
  sim::Simulator sim;
  const auto plan = make_plan(11, 11, model::StreamImpl::Hybrid);
  StreamBuffer sb(sim, "sb", plan);
  Rng rng(7);
  std::size_t n = 0;
  std::vector<word_t> fed;
  // Interleave shifts with random stalls; the delay-line property must be
  // unaffected by when the stalls happen (BRAM rdata holds).
  while (n < 200) {
    if (rng.chance(1, 3)) {
      sb.settle();  // stall cycle: no shift
      continue;
    }
    const auto v = static_cast<word_t>(rng.next_u64() & 0xFFFF);
    fed.push_back(v);
    sb.shift(v);
    sb.settle();
    ++n;
    if (n >= plan.window_len()) {
      for (std::size_t age : plan.tap_ages())
        ASSERT_EQ(sb.tap(age), fed[n - age]) << "n=" << n << " age=" << age;
    }
  }
}

TEST(StreamBuffer, TapOnBramAgeRejected) {
  sim::Simulator sim;
  const auto plan = make_plan(11, 11, model::StreamImpl::Hybrid);
  StreamBuffer sb(sim, "sb", plan);
  // Age 5 lies inside the first BRAM segment for the 11-wide plan.
  ASSERT_FALSE(sb.is_reg_age(5));
  EXPECT_THROW(sb.tap(5), contract_error);
}

TEST(StreamBuffer, ResourceChargesSplitRegAndBram) {
  sim::Simulator sim;
  const auto plan = make_plan(11, 11, model::StreamImpl::Hybrid);
  StreamBuffer sb(sim, "top", plan);
  // 11 register stages * 32 bits.
  EXPECT_EQ(sim.ledger().total(sim::ResKind::RegisterBits,
                               "top/stream/window_regs"),
            352u);
  // Two FIFO segments of 7, physically rounded to 8 words each.
  EXPECT_EQ(sim.ledger().total(sim::ResKind::BramBits, "top/stream"), 512u);
}

TEST(StreamBuffer, ThreeFieldLedgerIsPinned) {
  // 16x16 vn4/paper hybrid plan at F = 3: every register age widens to
  // three words, every FIFO segment gets one bank per field (field 0 on
  // the segment path, fields 1..2 under /f<k>), and the segments keep one
  // shared pointer register each.
  sim::Simulator sim;
  const auto plan = make_plan(16, 16, model::StreamImpl::Hybrid);
  ASSERT_EQ(plan.window_len(), 35u);
  ASSERT_EQ(plan.reg_ages().size(), 11u);
  ASSERT_EQ(plan.fifo_segments().size(), 2u);
  for (const model::FifoSegment& fs : plan.fifo_segments())
    ASSERT_EQ(fs.bram_len, 12u);
  StreamBuffer sb(sim, "top", plan, 3);
  const sim::ResourceLedger& l = sim.ledger();
  using sim::ResKind;
  EXPECT_EQ(l.total(ResKind::RegisterBits, "top/stream/window_regs"),
            11u * 3 * 32);
  for (std::size_t s = 0; s < 2; ++s) {
    const std::string fifo = "top/stream/fifo" + std::to_string(s);
    SCOPED_TRACE(fifo);
    // 12 logical slots round up to 16 physical words of 32 bits: 512 bits,
    // one M20K block, per field bank.
    for (const std::string& bank : {fifo + "/f1", fifo + "/f2"}) {
      EXPECT_EQ(l.total(ResKind::BramBits, bank), 512u) << bank;
      EXPECT_EQ(l.total(ResKind::BramBlocks, bank), 1u) << bank;
      EXPECT_EQ(l.total(ResKind::RegisterBits, bank), 0u) << bank;
    }
    // The prefix total covers the field-0 bank at the segment path plus
    // the two above, so field 0 charged exactly 512 bits and one block.
    EXPECT_EQ(l.total(ResKind::BramBits, fifo), 3u * 512);
    EXPECT_EQ(l.total(ResKind::BramBlocks, fifo), 3u);
    // The shared pointer: addr_bits(12) = 4 register bits, the segment's
    // only register charge.
    EXPECT_EQ(l.total(ResKind::RegisterBits, fifo + "/ptr"), 4u);
    EXPECT_EQ(l.total(ResKind::RegisterBits, fifo), 4u);
    EXPECT_EQ(l.total(ResKind::BramBits, fifo + "/ptr"), 0u);
  }
  EXPECT_EQ(l.total(ResKind::RegisterBits, "top"), 11u * 3 * 32 + 2 * 4);
  EXPECT_EQ(l.total(ResKind::BramBits, "top"), 6u * 512);
  EXPECT_EQ(l.total(ResKind::BramBlocks, "top"), 6u);
}

TEST(StreamBuffer, WiderThresholdMovesElementsToRegisters) {
  sim::Simulator sim;
  const auto plan = make_plan(32, 32, model::StreamImpl::Hybrid, 16);
  // Gap of 30 interior elements still exceeds threshold 16 -> FIFOs; but
  // with threshold 40 everything is registers.
  const auto plan_all = make_plan(32, 32, model::StreamImpl::Hybrid, 40);
  EXPECT_GT(plan.bram_window_elems(), 0u);
  EXPECT_EQ(plan_all.bram_window_elems(), 0u);
  EXPECT_EQ(plan_all.reg_window_elems(), plan_all.window_len());
}

}  // namespace
}  // namespace smache::rtl
