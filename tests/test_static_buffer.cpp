// Unit tests for static buffers: synchronous reads, double-buffer swap
// semantics, write-through capture, replica coherence. The testbench owns
// the banks, so their settle() is the clock edge.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "model/planner.hpp"
#include "rtl/static_buffer.hpp"
#include "sim/simulator.hpp"

namespace smache::rtl {
namespace {

model::StaticBufferSpec make_spec(std::size_t row, std::size_t len,
                                  std::size_t replicas) {
  model::StaticBufferSpec s;
  s.name = "row" + std::to_string(row);
  s.grid_row = row;
  s.length = len;
  s.replicas = replicas;
  s.write_through = true;
  return s;
}

TEST(StaticBuffer, ActiveWriteThenReadBack) {
  sim::Simulator sim;
  StaticBufferBank bank(sim, "b", make_spec(0, 8, 1));
  bank.active_write(3, 77);
  bank.settle();
  bank.read(0, 3);
  bank.settle();
  EXPECT_EQ(bank.rdata(0), 77u);
}

TEST(StaticBuffer, ShadowInvisibleUntilSwap) {
  sim::Simulator sim;
  StaticBufferBank bank(sim, "b", make_spec(0, 4, 1));
  bank.active_write(0, 1);
  bank.settle();
  const word_t captured = 2;
  bank.shadow_write_cell(0, &captured);
  bank.settle();
  bank.read(0, 0);
  bank.settle();
  EXPECT_EQ(bank.rdata(0), 1u) << "shadow data must be hidden before swap";
  bank.swap();
  bank.settle();
  bank.read(0, 0);
  bank.settle();
  EXPECT_EQ(bank.rdata(0), 2u) << "swap exposes the captured copy";
}

TEST(StaticBuffer, DoubleSwapRestoresOriginal) {
  sim::Simulator sim;
  StaticBufferBank bank(sim, "b", make_spec(0, 4, 1));
  bank.active_write(1, 10);
  bank.settle();
  const word_t captured = 20;
  bank.shadow_write_cell(1, &captured);
  bank.settle();
  bank.swap();
  bank.settle();
  bank.swap();
  bank.settle();
  bank.read(0, 1);
  bank.settle();
  EXPECT_EQ(bank.rdata(0), 10u);
}

TEST(StaticBuffer, OneSettleLandsReadWriteAndSwapTogether) {
  // A read of cell i on the active copy, a shadow write of cell i and a
  // swap, all in one cycle, land at a single settle(): the read latches
  // the old active word before the copies swap, the write fills the old
  // shadow, and the swap makes it active. rdata() reads the output
  // register of the copy active when it is called, so the latched old word
  // shows again once the copies swap back.
  for (std::size_t fields : {1u, 3u}) {
    SCOPED_TRACE("F=" + std::to_string(fields));
    sim::Simulator sim;
    constexpr std::size_t kReplicas = 2;
    StaticBufferBank bank(sim, "b", make_spec(0, 4, kReplicas), fields);
    const std::size_t i = 2;
    std::vector<word_t> old_word(fields), captured(fields);
    for (std::size_t f = 0; f < fields; ++f) {
      old_word[f] = static_cast<word_t>(10 + f);
      captured[f] = static_cast<word_t>(20 + f);
      bank.active_write(i * fields + f, old_word[f]);  // one bank per field
    }
    bank.settle();

    for (std::size_t rep = 0; rep < kReplicas; ++rep) bank.read(rep, i);
    bank.shadow_write_cell(i, captured.data());
    bank.swap();
    bank.settle();
    for (std::size_t f = 0; f < fields; ++f) {
      EXPECT_EQ(bank.peek_active(i * fields + f), captured[f])
          << "the write and the swap land at one settle, field " << f;
      for (std::size_t rep = 0; rep < kReplicas; ++rep)
        EXPECT_EQ(bank.rdata(rep, f), 0u)
            << "no read has latched the new active copy yet, replica "
            << rep << " field " << f;
    }

    for (std::size_t rep = 0; rep < kReplicas; ++rep) bank.read(rep, i);
    bank.settle();
    for (std::size_t rep = 0; rep < kReplicas; ++rep)
      for (std::size_t f = 0; f < fields; ++f)
        EXPECT_EQ(bank.rdata(rep, f), captured[f])
            << "replica " << rep << " field " << f;

    bank.swap();
    bank.settle();
    for (std::size_t rep = 0; rep < kReplicas; ++rep)
      for (std::size_t f = 0; f < fields; ++f)
        EXPECT_EQ(bank.rdata(rep, f), old_word[f])
            << "the first settle latched the old active word, replica "
            << rep << " field " << f;
  }
}

TEST(StaticBuffer, ReplicasStayCoherent) {
  sim::Simulator sim;
  StaticBufferBank bank(sim, "b", make_spec(0, 4, 3));
  bank.active_write(2, 5);
  bank.settle();
  for (std::size_t rep = 0; rep < 3; ++rep) bank.read(rep, 2);
  bank.settle();
  for (std::size_t rep = 0; rep < 3; ++rep)
    EXPECT_EQ(bank.rdata(rep), 5u) << "replica " << rep;
}

TEST(StaticBuffer, ReplicasAllowConcurrentDistinctReads) {
  sim::Simulator sim;
  StaticBufferBank bank(sim, "b", make_spec(0, 4, 2));
  bank.active_write(0, 100);  // one write port per copy: one write/cycle
  bank.settle();
  bank.active_write(1, 101);
  bank.settle();
  bank.read(0, 0);
  bank.read(1, 1);  // same cycle, different replica: legal
  bank.settle();
  EXPECT_EQ(bank.rdata(0), 100u);
  EXPECT_EQ(bank.rdata(1), 101u);
}

TEST(StaticBuffer, ResourceChargeIsTwoCopiesPerReplica) {
  sim::Simulator sim;
  StaticBufferBank bank(sim, "top/static/row0", make_spec(0, 11, 1));
  // 2 copies x physical depth 12 x 32 bits.
  EXPECT_EQ(sim.ledger().total(sim::ResKind::BramBits, "top/static"),
            2u * 12 * 32);
}

TEST(StaticBufferSet, CaptureRoutesByRow) {
  sim::Simulator sim;
  model::PlannerOptions o;
  const auto plan = model::Planner(o).plan(
      11, 11, grid::StencilShape::von_neumann4(),
      grid::BoundarySpec::paper_example());
  StaticBufferSet set(sim, "top", plan);
  ASSERT_EQ(set.count(), 2u);
  // Capture one-word cells into row 0 and row 10 and an uninteresting row.
  const word_t top = 111, bottom = 222, elsewhere = 999;
  set.capture_output_cell(0, 4, &top);
  set.settle();
  set.capture_output_cell(10, 4, &bottom);
  set.settle();
  set.capture_output_cell(5, 4, &elsewhere);  // no bank holds row 5: no-op
  set.settle();
  set.swap_all();
  set.settle();
  for (std::size_t b = 0; b < set.count(); ++b) {
    set.bank(b).read(0, 4);
  }
  set.settle();
  for (std::size_t b = 0; b < set.count(); ++b) {
    const auto row = set.bank(b).spec().grid_row;
    EXPECT_EQ(set.bank(b).rdata(0), row == 0 ? 111u : 222u);
  }
}

}  // namespace
}  // namespace smache::rtl
