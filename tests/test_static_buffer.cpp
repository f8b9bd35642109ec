// Unit tests for static buffers: synchronous reads, double-buffer swap
// semantics, write-through capture, replica coherence.
#include <gtest/gtest.h>

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
  sim.step();
  bank.read(0, 3);
  sim.step();
  EXPECT_EQ(bank.rdata(0), 77u);
}

TEST(StaticBuffer, ShadowInvisibleUntilSwap) {
  sim::Simulator sim;
  StaticBufferBank bank(sim, "b", make_spec(0, 4, 1));
  bank.active_write(0, 1);
  sim.step();
  const word_t captured = 2;
  bank.shadow_write_cell(0, &captured);
  sim.step();
  bank.read(0, 0);
  sim.step();
  EXPECT_EQ(bank.rdata(0), 1u) << "shadow data must be hidden before swap";
  bank.swap();
  sim.step();
  bank.read(0, 0);
  sim.step();
  EXPECT_EQ(bank.rdata(0), 2u) << "swap exposes the captured copy";
}

TEST(StaticBuffer, DoubleSwapRestoresOriginal) {
  sim::Simulator sim;
  StaticBufferBank bank(sim, "b", make_spec(0, 4, 1));
  bank.active_write(1, 10);
  sim.step();
  const word_t captured = 20;
  bank.shadow_write_cell(1, &captured);
  sim.step();
  bank.swap();
  sim.step();
  bank.swap();
  sim.step();
  bank.read(0, 1);
  sim.step();
  EXPECT_EQ(bank.rdata(0), 10u);
}

TEST(StaticBuffer, ReplicasStayCoherent) {
  sim::Simulator sim;
  StaticBufferBank bank(sim, "b", make_spec(0, 4, 3));
  bank.active_write(2, 5);
  sim.step();
  for (std::size_t rep = 0; rep < 3; ++rep) bank.read(rep, 2);
  sim.step();
  for (std::size_t rep = 0; rep < 3; ++rep)
    EXPECT_EQ(bank.rdata(rep), 5u) << "replica " << rep;
}

TEST(StaticBuffer, ReplicasAllowConcurrentDistinctReads) {
  sim::Simulator sim;
  StaticBufferBank bank(sim, "b", make_spec(0, 4, 2));
  bank.active_write(0, 100);  // one write port per copy: one write/cycle
  sim.step();
  bank.active_write(1, 101);
  sim.step();
  bank.read(0, 0);
  bank.read(1, 1);  // same cycle, different replica: legal
  sim.step();
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
  sim.step();
  set.capture_output_cell(10, 4, &bottom);
  sim.step();
  set.capture_output_cell(5, 4, &elsewhere);  // no bank holds row 5: no-op
  sim.step();
  set.swap_all();
  sim.step();
  for (std::size_t b = 0; b < set.count(); ++b) {
    set.bank(b).read(0, 4);
  }
  sim.step();
  for (std::size_t b = 0; b < set.count(); ++b) {
    const auto row = set.bank(b).spec().grid_row;
    EXPECT_EQ(set.bank(b).rdata(0), row == 0 ? 111u : 222u);
  }
}

}  // namespace
}  // namespace smache::rtl
