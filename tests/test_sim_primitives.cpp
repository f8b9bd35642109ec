// Unit tests for the simulation substrate: the owner-settled RegGroup (one
// register and a group), Fifo, FsmState, ResourceLedger, Simulator
// scheduling semantics.
#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "sim/fifo.hpp"
#include "sim/fsm.hpp"
#include "sim/reg.hpp"
#include "sim/resources.hpp"
#include "sim/ring_buffer.hpp"
#include "sim/simulator.hpp"

namespace smache::sim {
namespace {

// A single register: a RegGroup of one plain value, charged at one path.

TEST(Reg, HoldsUntilCommitted) {
  Simulator sim;
  RegGroup<int> r(sim, "r", 7, 32);
  EXPECT_EQ(r.q(), 7);
  r.d() = 42;
  EXPECT_EQ(r.q(), 7) << "write must not be visible before the clock edge";
  r.settle();
  EXPECT_EQ(r.q(), 42);
}

TEST(Reg, HoldsValueWithoutWrite) {
  Simulator sim;
  RegGroup<int> r(sim, "r", 5, 32);
  r.settle();
  r.settle();
  EXPECT_EQ(r.q(), 5);
}

TEST(Reg, LastWriteInCycleWins) {
  Simulator sim;
  RegGroup<int> r(sim, "r", 0, 32);
  r.d() = 1;
  r.d() = 2;
  r.settle();
  EXPECT_EQ(r.q(), 2);
}

TEST(Reg, ChargesExplicitBits) {
  Simulator sim;
  RegGroup<int> a(sim, "grp/a", 0, 7);
  RegGroup<bool> b(sim, "grp/b", false, 1);
  EXPECT_EQ(sim.ledger().total(ResKind::RegisterBits, "grp"), 8u);
}

struct GroupState {
  int a = 0;
  int b = 0;
  bool flag = false;
};

TEST(RegGroup, OwnerReadsCommittedValueUntilSettle) {
  Simulator sim;
  RegGroup<GroupState> g(sim, GroupState{1, 2, false}, {});
  g.d().a = 10;
  g.d().flag = true;
  EXPECT_EQ(g.q().a, 1) << "a write must not be visible before settle()";
  EXPECT_FALSE(g.q().flag);
  // Stepping the simulator does not settle a group: only its owner does.
  sim.step();
  EXPECT_EQ(g.q().a, 1);
  g.settle();
  EXPECT_EQ(g.q().a, 10);
  EXPECT_TRUE(g.q().flag);
}

TEST(RegGroup, UnwrittenFieldsHold) {
  Simulator sim;
  RegGroup<GroupState> g(sim, GroupState{1, 2, true}, {});
  g.d().b = 5;
  g.settle();
  EXPECT_EQ(g.q().a, 1);
  EXPECT_EQ(g.q().b, 5);
  EXPECT_TRUE(g.q().flag);
  // A settle with no write republishes the held values.
  g.settle();
  EXPECT_EQ(g.q().a, 1);
  EXPECT_EQ(g.q().b, 5);
  EXPECT_TRUE(g.q().flag);
  // The last write before a settle wins.
  g.d().a = 7;
  g.d().a = 8;
  g.settle();
  EXPECT_EQ(g.q().a, 8);
}

TEST(RegGroup, ChargesEachFieldItsOwnPath) {
  Simulator sim;
  RegGroup<GroupState> g(sim, GroupState{},
                         {{"top/ctrl/a", 7}, {"top/ctrl/b", 12},
                          {"top/ctrl/flag", 1}});
  EXPECT_EQ(sim.ledger().total(ResKind::RegisterBits, "top/ctrl/a"), 7u);
  EXPECT_EQ(sim.ledger().total(ResKind::RegisterBits, "top/ctrl/b"), 12u);
  EXPECT_EQ(sim.ledger().total(ResKind::RegisterBits, "top/ctrl/flag"), 1u);
  EXPECT_EQ(sim.ledger().total(ResKind::RegisterBits, "top"), 20u);
}

TEST(Fifo, PushVisibleNextCycle) {
  Simulator sim;
  Fifo<int> f(sim, "f", 4);
  EXPECT_FALSE(f.can_pop());
  f.push(1);
  EXPECT_FALSE(f.can_pop()) << "pushed data must not be poppable same cycle";
  sim.step();
  ASSERT_TRUE(f.can_pop());
  EXPECT_EQ(f.front(), 1);
}

TEST(Fifo, SinglePushPerCycleEnforced) {
  Simulator sim;
  Fifo<int> f(sim, "f", 4);
  f.push(1);
  EXPECT_FALSE(f.can_push());
  EXPECT_THROW(f.push(2), contract_error);
}

TEST(Fifo, SinglePopPerCycleEnforced) {
  Simulator sim;
  Fifo<int> f(sim, "f", 4);
  f.push(1);
  sim.step();
  f.push(2);
  sim.step();
  EXPECT_EQ(f.pop(), 1);
  EXPECT_FALSE(f.can_pop());
  EXPECT_THROW(f.pop(), contract_error);
}

TEST(Fifo, RegisteredFullSemantics) {
  // A pop in the same cycle does NOT free space for a push (full flag is
  // registered), keeping producer/consumer order irrelevant.
  Simulator sim;
  Fifo<int> f(sim, "f", 1);
  f.push(1);
  sim.step();
  EXPECT_FALSE(f.can_push());
  EXPECT_EQ(f.pop(), 1);
  EXPECT_FALSE(f.can_push()) << "same-cycle pop must not unlock can_push";
  sim.step();
  EXPECT_TRUE(f.can_push());
}

TEST(Fifo, FifoOrderPreserved) {
  Simulator sim;
  Fifo<int> f(sim, "f", 8);
  for (int i = 0; i < 5; ++i) {
    f.push(i);
    sim.step();
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(f.can_pop());
    EXPECT_EQ(f.pop(), i);
    sim.step();
  }
  EXPECT_TRUE(f.empty());
}

TEST(Fifo, ConcurrentPushPopSteadyState) {
  Simulator sim;
  Fifo<int> f(sim, "f", 2);
  f.push(0);
  sim.step();
  // Push and pop every cycle: occupancy stays put, data flows in order.
  for (int i = 1; i < 20; ++i) {
    ASSERT_TRUE(f.can_pop());
    EXPECT_EQ(f.pop(), i - 1);
    ASSERT_TRUE(f.can_push());
    f.push(i);
    sim.step();
  }
}

TEST(Fifo, CommittedViewHoldsUntilTheClockEdge) {
  // A push or pop changes the ring at once, but every reader sees the
  // start-of-cycle occupancy until step(); only the one-push-one-pop port
  // rule moves can_push()/can_pop() within the cycle.
  Simulator sim;
  Fifo<int> f(sim, "f", 2);
  f.push(1);  // into an empty FIFO
  EXPECT_EQ(f.size(), 0u);
  EXPECT_TRUE(f.empty());
  EXPECT_FALSE(f.can_pop());
  EXPECT_FALSE(f.can_push()) << "one push per cycle";
  sim.step();
  EXPECT_EQ(f.size(), 1u);
  EXPECT_TRUE(f.can_push());
  EXPECT_TRUE(f.can_pop());

  EXPECT_EQ(f.pop(), 1);  // a pop and a push in one cycle
  f.push(2);
  EXPECT_EQ(f.size(), 1u);
  EXPECT_FALSE(f.empty());
  EXPECT_FALSE(f.can_push());
  EXPECT_FALSE(f.can_pop()) << "one pop per cycle";
  sim.step();
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.front(), 2);

  f.push(3);  // fills the FIFO at the edge...
  sim.step();
  EXPECT_EQ(f.size(), 2u);
  EXPECT_EQ(f.pop(), 2);  // ...and a pop on a full FIFO frees no space yet
  EXPECT_EQ(f.size(), 2u);
  EXPECT_FALSE(f.empty());
  EXPECT_FALSE(f.can_push()) << "registered full";
  sim.step();
  EXPECT_EQ(f.size(), 1u);
  EXPECT_TRUE(f.can_push());
  EXPECT_EQ(f.pop(), 3);
  sim.step();
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.size(), 0u);
}

TEST(Fifo, FrontThrowsUnlessCanPop) {
  Simulator sim;
  Fifo<int> f(sim, "f", 4);
  EXPECT_THROW(f.front(), contract_error);
  f.push(1);
  EXPECT_THROW(f.front(), contract_error)
      << "a push into an empty FIFO is not poppable before the clock edge";
  sim.step();
  f.push(2);
  sim.step();
  EXPECT_EQ(f.front(), 1);
  EXPECT_EQ(f.pop(), 1);
  EXPECT_THROW(f.front(), contract_error)
      << "after a same-cycle pop nothing is poppable until the clock edge";
  sim.step();
  EXPECT_EQ(f.front(), 2);
}

TEST(Fifo, FrontReferenceSurvivesDropAndSameCyclePush) {
  // A consumer may read a wide message in place: the reference taken
  // before drop() must still read the same element after a same-cycle
  // push, at every ring position.
  Simulator sim;
  Fifo<int> f(sim, "f", 2);
  f.push(0);
  sim.step();
  for (int i = 1; i < 12; ++i) {
    ASSERT_TRUE(f.can_pop());
    const int& msg = f.front();
    f.drop();
    ASSERT_TRUE(f.can_push());
    f.push(100 + i);
    EXPECT_EQ(msg, i == 1 ? 0 : 100 + i - 1) << "cycle " << i;
    sim.step();
  }
}

TEST(Fifo, HighWaterMarkIsCommittedOccupancyPlusOne) {
  Simulator sim;
  sim.enable_profiling();
  Fifo<int> f(sim, "f", 4);
  f.push(1);
  sim.step();
  f.push(2);
  sim.step();
  EXPECT_EQ(sim.metrics().value("f/hwm"), 2u);
  // Committed occupancy is 2 at this push: the same-cycle pop before it
  // does not lower it.
  EXPECT_EQ(f.pop(), 1);
  f.push(3);
  EXPECT_EQ(sim.metrics().value("f/hwm"), 3u);
  sim.step();
  EXPECT_EQ(f.size(), 2u);
}

enum class St { A, B, C };

TEST(FsmState, TransitionNextCycle) {
  Simulator sim;
  FsmState<St> fsm(sim, "fsm", St::A, 3);
  EXPECT_TRUE(fsm.is(St::A));
  fsm.go(St::B);
  EXPECT_TRUE(fsm.is(St::A));
  fsm.settle();
  EXPECT_TRUE(fsm.is(St::B));
}

TEST(FsmState, ChargesBinaryEncodingBits) {
  Simulator sim;
  FsmState<St> fsm(sim, "fsm3", St::A, 3);
  EXPECT_EQ(sim.ledger().total(ResKind::RegisterBits, "fsm3"), 2u);
}

TEST(Ledger, PrefixMatchingIsSegmentAware) {
  ResourceLedger ledger;
  ledger.add("a/b", ResKind::RegisterBits, 1);
  ledger.add("a/bc", ResKind::RegisterBits, 2);
  ledger.add("a/b/c", ResKind::RegisterBits, 4);
  EXPECT_EQ(ledger.total(ResKind::RegisterBits, "a/b"), 5u);
  EXPECT_EQ(ledger.total(ResKind::RegisterBits, "a"), 7u);
  EXPECT_EQ(ledger.total(ResKind::RegisterBits), 7u);
}

TEST(Ledger, SeparatesKinds) {
  ResourceLedger ledger;
  ledger.add("x", ResKind::RegisterBits, 10);
  ledger.add("x", ResKind::BramBits, 20);
  EXPECT_EQ(ledger.total(ResKind::RegisterBits, "x"), 10u);
  EXPECT_EQ(ledger.total(ResKind::BramBits, "x"), 20u);
}

/// Counts cycles in a register it owns and settles.
struct Counter : Module {
  RegGroup<int>& r;
  explicit Counter(RegGroup<int>& reg) : r(reg) {}
  void eval() override {
    r.d() = r.q() + 1;
    r.settle();
  }
};

TEST(Simulator, RunUntilStopsOnPredicate) {
  Simulator sim;
  RegGroup<int> r(sim, "r", 0, 32);
  Counter counter(r);
  sim.add_module(&counter);
  const auto cycles = sim.run_until([&] { return r.q() == 10; }, 100);
  EXPECT_EQ(cycles, 10u);
  EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, RunUntilThrowsOnBudgetExhaustion) {
  Simulator sim;
  EXPECT_THROW(sim.run_until([] { return false; }, 5), contract_error);
}

TEST(RingBuffer, WrapsAroundManyTimes) {
  RingBuffer<int> rb(3);
  int next_in = 0, next_out = 0;
  for (int round = 0; round < 50; ++round) {
    while (!rb.full()) rb.append() = next_in++;
    EXPECT_EQ(rb.size(), 3u);
    EXPECT_EQ(rb.at(0), next_out);
    EXPECT_EQ(rb.at(2), next_out + 2);
    rb.pop_front();
    ++next_out;
    EXPECT_EQ(rb.front(), next_out);
  }
  EXPECT_THROW(rb.at(3), smache::contract_error);
}

TEST(RingBuffer, AppendFillsTheSlotPastTheBackInPlace) {
  // append() returns the slot it just published, for the caller to fill;
  // after a pop it is the slot just past the old back, so a reference to
  // the popped front survives unless the buffer was full before the pop.
  RingBuffer<int> rb(3);
  rb.append() = 10;
  rb.append() = 11;
  const int& popped = rb.front();
  rb.pop_front();
  int& slot = rb.append();
  EXPECT_EQ(rb.size(), 2u);
  slot = 12;
  EXPECT_EQ(popped, 10) << "append must not reuse the just-freed front slot";
  EXPECT_EQ(rb.at(0), 11);
  EXPECT_EQ(rb.at(1), 12);
  rb.append() = 13;
  EXPECT_TRUE(rb.full());
  EXPECT_THROW(rb.append(), smache::contract_error);
}

TEST(Fifo, PushSlotAndDropMatchPushAndPop) {
  // The zero-copy producer/consumer calls must be cycle-for-cycle
  // equivalent to push()/pop().
  Simulator sim;
  Fifo<int> copy(sim, "copy", 2);
  Fifo<int> zero(sim, "zero", 2);
  int popped_copy = -1, popped_zero = -1;
  for (int cycle = 0; cycle < 40; ++cycle) {
    EXPECT_EQ(copy.can_pop(), zero.can_pop());
    EXPECT_EQ(copy.can_push(), zero.can_push());
    if (copy.can_pop() && cycle % 3 != 0) {
      popped_copy = copy.pop();
      popped_zero = zero.front();
      zero.drop();
      EXPECT_EQ(popped_copy, popped_zero);
    }
    if (copy.can_push() && cycle % 2 == 0) {
      copy.push(cycle);
      zero.push_slot() = cycle;
    }
    sim.step();
    EXPECT_EQ(copy.size(), zero.size());
  }
}

TEST(Simulator, RunUntilDoneMatchesPerCycleChecking) {
  // With a sound lower bound the burst-stepping driver must return the
  // exact cycle count of the per-cycle-checked loop.
  const int target = 37;
  Simulator per_cycle;
  RegGroup<int> r1(per_cycle, "r", 0, 32);
  Counter c1(r1);
  per_cycle.add_module(&c1);
  const auto cycles_a =
      per_cycle.run_until([&] { return r1.q() == target; }, 1000);

  Simulator batched;
  RegGroup<int> r2(batched, "r", 0, 32);
  Counter c2(r2);
  batched.add_module(&c2);
  const auto cycles_b = batched.run_until_done(
      [&] { return r2.q() == target; },
      [&] { return static_cast<std::uint64_t>(target - r2.q()); }, 1000);
  EXPECT_EQ(cycles_a, cycles_b);
  EXPECT_EQ(per_cycle.now(), batched.now());
  EXPECT_EQ(r1.q(), r2.q());
}

TEST(Simulator, RunUntilDoneThrowsOnBudgetExhaustion) {
  // The bound must never let a run sail past max_cycles: a bound larger
  // than the remaining budget is clamped, and the throw happens exactly
  // at the budget like the per-cycle loop.
  Simulator sim;
  RegGroup<int> r(sim, "r", 0, 32);
  Counter counter(r);
  sim.add_module(&counter);
  EXPECT_THROW(sim.run_until_done([] { return false; },
                                  [] { return std::uint64_t{1000000}; }, 5),
               contract_error);
  EXPECT_EQ(sim.now(), 5u) << "budget overrun: stepped past max_cycles";
}

TEST(Simulator, ModuleOrderIrrelevantForChannelComms) {
  // Two modules exchange values over two FIFOs, each echoing the other's
  // last value plus one; whichever order they are registered in, every
  // cycle each sees the value the other pushed on the PREVIOUS cycle.
  struct Echo : Module {
    Fifo<int>&out, &in;
    int seen;
    Echo(Fifo<int>& o, Fifo<int>& i, int init) : out(o), in(i), seen(init) {}
    void eval() override {
      if (in.can_pop()) seen = in.pop();
      out.push(seen + 1);
    }
  };
  for (int order = 0; order < 2; ++order) {
    Simulator sim;
    Fifo<int> ab(sim, "ab", 2), ba(sim, "ba", 2);
    Echo ea(ab, ba, 0), eb(ba, ab, 100);
    if (order == 0) {
      sim.add_module(&ea);
      sim.add_module(&eb);
    } else {
      sim.add_module(&eb);
      sim.add_module(&ea);
    }
    sim.step();
    EXPECT_EQ(ea.seen, 0) << "order " << order;
    EXPECT_EQ(eb.seen, 100) << "order " << order;
    ASSERT_TRUE(ab.can_pop());
    EXPECT_EQ(ab.front(), 1);
    EXPECT_EQ(ba.front(), 101);
    sim.step();
    EXPECT_EQ(ea.seen, 101) << "order " << order;
    EXPECT_EQ(eb.seen, 1) << "order " << order;
    EXPECT_EQ(ab.front(), 102);
    EXPECT_EQ(ba.front(), 2);
  }
}

}  // namespace
}  // namespace smache::sim
