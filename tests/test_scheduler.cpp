// Activity-gated eval scheduling (PR 3 tentpole).
//
// Part 1 — unit tests of the scheduler machinery itself: sleep/wake via
// FIFO push/pop events (the end-of-cycle wake, in either eval order),
// wake-at-cycle timers, explicit wake(), force-eval mode, and the
// all-asleep fast-forward.
//
// Part 2 — the equivalence property: for randomized problem configurations
// with DRAM stall injection and tight (back-pressuring) channel depths,
// the gated scheduler must produce BIT-IDENTICAL results — cycle counts,
// DRAM counters, outputs — to force-eval-everything mode. Quiescence
// declarations are module contracts; this is the test that catches a wrong
// one.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/simulator.hpp"
#include "support/test_grids.hpp"
#include "sweep/workloads.hpp"

namespace smache {
namespace {

/// Consumer that drains a FIFO one element per cycle and sleeps whenever
/// the channel is empty, relying on the push-commit wake.
class SleepyConsumer : public sim::Module {
 public:
  SleepyConsumer(sim::Simulator& sim, sim::Fifo<int>& in) : in_(in) {
    in_.set_consumer(this);
    sim.add_module(this);
  }
  void eval() override {
    ++evals;
    if (!in_.can_pop()) {
      sleep();
      return;
    }
    values.push_back(in_.pop());
  }
  std::vector<int> values;
  std::uint64_t evals = 0;

 private:
  sim::Fifo<int>& in_;
};

TEST(Scheduler, ConsumerSleepsUntilPushCommit) {
  sim::Simulator sim;
  sim::Fifo<int> chan(sim, "chan", 4);
  SleepyConsumer consumer(sim, chan);

  // Cycle 0: empty channel -> consumer evals once and goes to sleep.
  sim.step();
  EXPECT_EQ(consumer.evals, 1u);
  EXPECT_TRUE(consumer.asleep());
  EXPECT_EQ(sim.awake_module_count(), 0u);

  // Idle cycles: the sleeping module is not evaluated at all.
  sim.step();
  sim.step();
  EXPECT_EQ(consumer.evals, 1u);

  // A push from the testbench commits at the end of this cycle and wakes
  // the consumer exactly when the value becomes poppable: it pops on the
  // NEXT cycle, one flip-flop stage after the push — the same cycle a
  // never-sleeping consumer would pop on.
  chan.push(7);
  sim.step();  // push commits here; consumer still asleep this cycle
  EXPECT_EQ(consumer.evals, 1u);
  sim.step();  // woken: pops the value
  EXPECT_EQ(consumer.values, std::vector<int>{7});

  // Nothing further arrives: one more eval (sees empty, sleeps), then
  // silence.
  sim.step();
  const std::uint64_t evals_after_drain = consumer.evals;
  sim.step();
  sim.step();
  EXPECT_EQ(consumer.evals, evals_after_drain);
}

/// Module that sleeps for a fixed interval and records the cycles at which
/// it was evaluated.
class TimerSleeper : public sim::Module {
 public:
  TimerSleeper(sim::Simulator& sim, std::uint64_t interval)
      : sim_(sim), interval_(interval) {
    sim.add_module(this);
  }
  void eval() override {
    eval_cycles.push_back(sim_.now());
    sleep_for(interval_);
  }
  std::vector<std::uint64_t> eval_cycles;

 private:
  sim::Simulator& sim_;
  std::uint64_t interval_;
};

TEST(Scheduler, SleepForWakesExactlyOnSchedule) {
  sim::Simulator sim;
  TimerSleeper mod(sim, 5);
  for (int i = 0; i < 16; ++i) sim.step();
  // Evaluated at cycle 0, then exactly every 5 cycles.
  EXPECT_EQ(mod.eval_cycles,
            (std::vector<std::uint64_t>{0, 5, 10, 15}));
}

TEST(Scheduler, RunUntilFastForwardsThroughAllAsleepStretch) {
  sim::Simulator sim;
  TimerSleeper mod(sim, 1000);
  // Between the timer wakes nothing is active and nothing is pending
  // commit, so the burst stepping jumps whole idle stretches in O(1) —
  // with unchanged cycle arithmetic: the run reports the exact same cycle
  // count per-cycle stepping would.
  const std::uint64_t stepped = sim.run_until_done(
      [&] { return mod.eval_cycles.size() >= 3; },
      // Sound lower bound: the third eval happens at cycle 2000, so done()
      // first holds once cycle 2000 has completed.
      [&] {
        return mod.eval_cycles.size() >= 3 ? 0 : 2001 - sim.now();
      },
      100000);
  EXPECT_EQ(stepped, 2001u);  // evals at 0, 1000, 2000
  EXPECT_EQ(sim.now(), 2001u);
  EXPECT_EQ(mod.eval_cycles, (std::vector<std::uint64_t>{0, 1000, 2000}));
}

TEST(Scheduler, ExplicitWakeCancelsTimerSleep) {
  sim::Simulator sim;
  TimerSleeper mod(sim, 100);
  sim.step();  // evals at 0, sleeps until 100
  EXPECT_TRUE(mod.asleep());
  mod.wake();
  sim.step();  // evals at 1 (re-arms its timer from there)
  EXPECT_EQ(mod.eval_cycles, (std::vector<std::uint64_t>{0, 1}));
}

TEST(Scheduler, ForceEvalAllDisablesSleeping) {
  sim::Simulator sim;
  sim.set_force_eval_all(true);
  sim::Fifo<int> chan(sim, "chan", 4);
  SleepyConsumer consumer(sim, chan);
  for (int i = 0; i < 10; ++i) sim.step();
  EXPECT_EQ(consumer.evals, 10u);  // sleep() was a no-op every time
  EXPECT_FALSE(consumer.asleep());
}

TEST(Scheduler, ForceEvalAllWakesCurrentSleepers) {
  sim::Simulator sim;
  sim::Fifo<int> chan(sim, "chan", 4);
  SleepyConsumer consumer(sim, chan);
  sim.step();
  EXPECT_TRUE(consumer.asleep());
  sim.set_force_eval_all(true);
  EXPECT_FALSE(consumer.asleep());
  sim.step();
  EXPECT_EQ(consumer.evals, 2u);
}

// ---------------------------------------------------------------------------
// Channel wakes do not depend on eval order. A push or pop wakes the other
// end of the channel at the end of the cycle, whether that module went to
// sleep before the push/pop (it is queued) or after it in the same cycle
// (its sleep sees the cycle stamp and queues it then). Each scenario runs
// with the two modules registered in both orders.
// ---------------------------------------------------------------------------

/// Eval order of a two-module scenario.
enum class Order { ProducerFirst, ConsumerFirst };

/// Builds the producer and the consumer in the given order (modules are
/// evaluated in registration order).
template <typename P, typename C, typename MakeP, typename MakeC>
std::pair<std::unique_ptr<P>, std::unique_ptr<C>> register_in_order(
    Order order, MakeP make_producer, MakeC make_consumer) {
  std::unique_ptr<P> p;
  std::unique_ptr<C> c;
  if (order == Order::ProducerFirst) {
    p = make_producer();
    c = make_consumer();
  } else {
    c = make_consumer();
    p = make_producer();
  }
  return {std::move(p), std::move(c)};
}

/// Steps the simulator to cycle `target` through the burst loop (the
/// engine's path, idle fast-forward included).
void run_to(sim::Simulator& sim, std::uint64_t target) {
  sim.run_until_done([&] { return sim.now() >= target; },
                     [&] { return target - sim.now(); }, target - sim.now());
}

/// The scheduler's attribution counters (sched/*) after the last step.
std::map<std::string, std::uint64_t> sched_metrics(sim::Simulator& sim) {
  sim.finalize_observability();
  std::map<std::string, std::uint64_t> out;
  for (const obs::MetricSample& m : sim.metrics().snapshot())
    if (m.path.rfind("sched/", 0) == 0) out[m.path] = m.value;
  return out;
}

/// Producer that pushes 0, 1, 2, ... on scripted cycles (or as soon after
/// as the channel takes it) and sleeps on a timer in between.
class ScriptedProducer : public sim::Module {
 public:
  ScriptedProducer(sim::Simulator& sim, sim::Fifo<int>& out,
                   std::vector<std::uint64_t> push_at)
      : sim_(sim), out_(out), push_at_(std::move(push_at)) {
    out_.set_producer(this);
    set_obs_name("producer");
    sim.add_module(this);
  }
  void eval() override {
    const std::uint64_t now = sim_.now();
    if (next_ < push_at_.size() && push_at_[next_] <= now &&
        out_.can_push()) {
      out_.push(static_cast<int>(next_));
      push_cycles.push_back(now);
      ++next_;
    }
    if (next_ == push_at_.size())
      sleep();
    else if (push_at_[next_] > now)
      sleep_for(push_at_[next_] - now);
  }
  std::vector<std::uint64_t> push_cycles;

 private:
  sim::Simulator& sim_;
  sim::Fifo<int>& out_;
  std::vector<std::uint64_t> push_at_;
  std::size_t next_ = 0;
};

/// SleepyConsumer that also records the cycle of every eval.
class StampedConsumer : public SleepyConsumer {
 public:
  StampedConsumer(sim::Simulator& sim, sim::Fifo<int>& in)
      : SleepyConsumer(sim, in), sim_(sim) {
    set_obs_name("consumer");
  }
  void eval() override {
    eval_cycles.push_back(sim_.now());
    SleepyConsumer::eval();
  }
  std::vector<std::uint64_t> eval_cycles;

 private:
  sim::Simulator& sim_;
};

struct PushRun {
  std::vector<std::uint64_t> consumer_evals;
  std::vector<int> values;
  std::map<std::string, std::uint64_t> sched;
};

PushRun run_scripted_pushes(Order order) {
  sim::Simulator sim;
  sim.enable_profiling();
  sim::Fifo<int> chan(sim, "chan", 4);
  // The pushes at cycles 0 and 3 find the consumer awake on an empty
  // channel, so it sleeps in the cycle of the push; those at 7 and 20 find
  // it already asleep.
  auto [producer, consumer] =
      register_in_order<ScriptedProducer, StampedConsumer>(
          order,
          [&] {
            return std::make_unique<ScriptedProducer>(
                sim, chan, std::vector<std::uint64_t>{0, 1, 3, 7, 8, 20});
          },
          [&] { return std::make_unique<StampedConsumer>(sim, chan); });
  run_to(sim, 40);
  return PushRun{consumer->eval_cycles, consumer->values, sched_metrics(sim)};
}

TEST(Scheduler, PushWakesASameCycleSleeperInEitherEvalOrder) {
  const PushRun a = run_scripted_pushes(Order::ProducerFirst);
  const PushRun b = run_scripted_pushes(Order::ConsumerFirst);
  // Each push is popped on the cycle after it (one flip-flop stage): the
  // consumer evaluates on every cycle it can pop (1, 2, 4, 8, 9, 21) and
  // once on an empty channel before each sleep (0, 3, 5, 10, 22).
  EXPECT_EQ(a.consumer_evals,
            (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 8, 9, 10, 21, 22}));
  EXPECT_EQ(a.values, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(b.consumer_evals, a.consumer_evals);
  EXPECT_EQ(b.values, a.values);
  EXPECT_EQ(b.sched, a.sched);
  for (const char* key :
       {"sched/wakes/channel", "sched/cycles/eval", "sched/cycles/idle",
        "sched/cycles/fastforward", "sched/module/producer/awake",
        "sched/module/producer/asleep", "sched/module/consumer/awake",
        "sched/module/consumer/asleep"})
    EXPECT_EQ(a.sched.count(key), 1u) << key;
  EXPECT_EQ(a.sched.at("sched/module/consumer/awake"), 11u);
  EXPECT_GT(a.sched.at("sched/wakes/channel"), 0u);
  EXPECT_GT(a.sched.at("sched/cycles/fastforward"), 0u);
}

/// Producer that pushes 0, 1, 2, ... whenever the channel takes it and
/// sleeps while the channel is full, relying on the pop wake.
class GreedyProducer : public sim::Module {
 public:
  GreedyProducer(sim::Simulator& sim, sim::Fifo<int>& out)
      : sim_(sim), out_(out) {
    out_.set_producer(this);
    set_obs_name("producer");
    sim.add_module(this);
  }
  void eval() override {
    if (!out_.can_push()) {
      sleep();
      return;
    }
    out_.push(next_++);
    push_cycles.push_back(sim_.now());
  }
  std::vector<std::uint64_t> push_cycles;

 private:
  sim::Simulator& sim_;
  sim::Fifo<int>& out_;
  int next_ = 0;
};

/// Consumer that pops one element at or after each scripted cycle and
/// otherwise sleeps: on a timer until the next pop is due, on the channel
/// while a due pop finds it empty.
class ScriptedConsumer : public sim::Module {
 public:
  ScriptedConsumer(sim::Simulator& sim, sim::Fifo<int>& in,
                   std::vector<std::uint64_t> pop_at)
      : sim_(sim), in_(in), pop_at_(std::move(pop_at)) {
    in_.set_consumer(this);
    set_obs_name("consumer");
    sim.add_module(this);
  }
  void eval() override {
    const std::uint64_t now = sim_.now();
    if (next_ < pop_at_.size() && pop_at_[next_] <= now && in_.can_pop()) {
      values.push_back(in_.pop());
      ++next_;
    }
    if (next_ == pop_at_.size() || pop_at_[next_] <= now)
      sleep();
    else
      sleep_for(pop_at_[next_] - now);
  }
  std::vector<int> values;

 private:
  sim::Simulator& sim_;
  sim::Fifo<int>& in_;
  std::vector<std::uint64_t> pop_at_;
  std::size_t next_ = 0;
};

struct PopRun {
  std::vector<std::uint64_t> push_cycles;
  std::vector<int> values;
  std::map<std::string, std::uint64_t> sched;
};

PopRun run_scripted_pops(Order order) {
  sim::Simulator sim;
  sim.enable_profiling();
  sim::Fifo<int> chan(sim, "chan", 1);
  auto [producer, consumer] =
      register_in_order<GreedyProducer, ScriptedConsumer>(
          order, [&] { return std::make_unique<GreedyProducer>(sim, chan); },
          [&] {
            return std::make_unique<ScriptedConsumer>(
                sim, chan, std::vector<std::uint64_t>{1, 2, 5, 9});
          });
  run_to(sim, 30);
  return PopRun{producer->push_cycles, consumer->values, sched_metrics(sim)};
}

TEST(Scheduler, PopWakesAProducerSleepingOnAFullChannelInEitherEvalOrder) {
  const PopRun a = run_scripted_pops(Order::ProducerFirst);
  const PopRun b = run_scripted_pops(Order::ConsumerFirst);
  // The 1-deep channel is full from the cycle after each push; the
  // producer sleeps on it in the very cycle the consumer's pop frees it,
  // and pushes again on the next cycle.
  EXPECT_EQ(a.push_cycles, (std::vector<std::uint64_t>{0, 2, 4, 6, 10}));
  EXPECT_EQ(a.values, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(b.push_cycles, a.push_cycles);
  EXPECT_EQ(b.values, a.values);
  EXPECT_EQ(b.sched, a.sched);
}

/// Channel consumer that pops whatever is there and then sleeps on a
/// 100-cycle timer.
class PatientConsumer : public sim::Module {
 public:
  PatientConsumer(sim::Simulator& sim, sim::Fifo<int>& in)
      : sim_(sim), in_(in) {
    in_.set_consumer(this);
    set_obs_name("consumer");
    sim.add_module(this);
  }
  void eval() override {
    eval_cycles.push_back(sim_.now());
    if (in_.can_pop()) values.push_back(in_.pop());
    sleep_for(100);
  }
  std::vector<std::uint64_t> eval_cycles;
  std::vector<int> values;

 private:
  sim::Simulator& sim_;
  sim::Fifo<int>& in_;
};

TEST(Scheduler, SameCycleChannelEventCutsATimedSleepShort) {
  for (const Order order : {Order::ProducerFirst, Order::ConsumerFirst}) {
    sim::Simulator sim;
    sim::Fifo<int> chan(sim, "chan", 4);
    // Pushes land in cycles where the consumer evaluates and calls
    // sleep_for(100): it must evaluate on the next cycle, not at +100.
    auto [producer, consumer] =
        register_in_order<ScriptedProducer, PatientConsumer>(
            order,
            [&] {
              return std::make_unique<ScriptedProducer>(
                  sim, chan, std::vector<std::uint64_t>{0, 101});
            },
            [&] { return std::make_unique<PatientConsumer>(sim, chan); });
    run_to(sim, 250);
    const char* label =
        order == Order::ProducerFirst ? "producer first" : "consumer first";
    EXPECT_EQ(consumer->eval_cycles,
              (std::vector<std::uint64_t>{0, 1, 101, 102, 202}))
        << label;
    EXPECT_EQ(consumer->values, (std::vector<int>{0, 1})) << label;
  }
}

TEST(Scheduler, RegisteredChannelMovesNeverStepAnIdleCycle) {
  // Every push and pop below notifies a registered module, which is awake
  // on the next cycle anyway: queued if asleep, stamped if awake. So no
  // cycle is stepped with every module asleep. Each one either evaluates a
  // module or is fast-forwarded, in either registration order.
  for (const Order order : {Order::ProducerFirst, Order::ConsumerFirst}) {
    const char* label =
        order == Order::ProducerFirst ? "producer first" : "consumer first";
    const PushRun push = run_scripted_pushes(order);
    EXPECT_EQ(push.sched.at("sched/cycles/total"), 40u) << label;
    EXPECT_EQ(push.sched.at("sched/cycles/eval"), 13u) << label;
    EXPECT_EQ(push.sched.at("sched/cycles/idle"), 0u) << label;
    EXPECT_EQ(push.sched.at("sched/cycles/fastforward"), 27u) << label;
    EXPECT_EQ(push.sched.at("sched/wakes/channel"), 10u) << label;
    EXPECT_EQ(push.sched.at("sched/wakes/timer"), 4u) << label;
    EXPECT_EQ(push.sched.at("sched/wakes/explicit"), 0u) << label;

    const PopRun pop = run_scripted_pops(order);
    EXPECT_EQ(pop.sched.at("sched/cycles/total"), 30u) << label;
    EXPECT_EQ(pop.sched.at("sched/cycles/eval"), 11u) << label;
    EXPECT_EQ(pop.sched.at("sched/cycles/idle"), 0u) << label;
    EXPECT_EQ(pop.sched.at("sched/cycles/fastforward"), 19u) << label;
    EXPECT_EQ(pop.sched.at("sched/wakes/channel"), 9u) << label;
    EXPECT_EQ(pop.sched.at("sched/wakes/timer"), 2u) << label;
    EXPECT_EQ(pop.sched.at("sched/wakes/explicit"), 0u) << label;
  }
}

TEST(Scheduler, TestbenchChannelMoveHoldsTwoIdleCyclesBeforeFastForward) {
  // A FIFO with no producer or consumer wakes nobody, but its push or pop
  // keeps the cycle it happened on and the one after as stepped idle
  // cycles before the burst loop may fast-forward again.
  sim::Simulator sim;
  sim.enable_profiling();
  sim::Fifo<int> chan(sim, "chan", 2);
  TimerSleeper mod(sim, 1000);  // evaluates at 0, then sleeps past the end
  run_to(sim, 10);              // eval 1, fast-forward 9
  chan.push(1);
  run_to(sim, 20);  // idle 10, 11; fast-forward 8
  EXPECT_EQ(chan.size(), 1u);
  EXPECT_EQ(chan.pop(), 1);
  run_to(sim, 30);  // idle 20, 21; fast-forward 8
  EXPECT_TRUE(chan.empty());
  const auto sched = sched_metrics(sim);
  EXPECT_EQ(sched.at("sched/cycles/total"), 30u);
  EXPECT_EQ(sched.at("sched/cycles/eval"), 1u);
  EXPECT_EQ(sched.at("sched/cycles/idle"), 4u);
  EXPECT_EQ(sched.at("sched/cycles/fastforward"), 25u);
  EXPECT_EQ(sched.at("sched/wakes/channel"), 0u);
}

// ---------------------------------------------------------------------------
// Part 2: gated vs force-eval equivalence property.
// ---------------------------------------------------------------------------

struct RunDigest {
  std::uint64_t cycles;
  std::uint64_t warmup;
  mem::DramStats dram;
  grid::Grid<word_t> output{1, 1};
};

RunDigest digest(const RunResult& r) {
  return RunDigest{r.cycles, r.warmup_cycles, r.dram, *r.output};
}

void expect_same(const RunDigest& gated, const RunDigest& forced,
                 const std::string& label) {
  EXPECT_EQ(gated.cycles, forced.cycles) << label;
  EXPECT_EQ(gated.warmup, forced.warmup) << label;
  EXPECT_EQ(gated.dram.read_requests, forced.dram.read_requests) << label;
  EXPECT_EQ(gated.dram.words_read, forced.dram.words_read) << label;
  EXPECT_EQ(gated.dram.words_written, forced.dram.words_written) << label;
  EXPECT_EQ(gated.dram.row_hits, forced.dram.row_hits) << label;
  EXPECT_EQ(gated.dram.row_misses, forced.dram.row_misses) << label;
  EXPECT_EQ(gated.dram.read_busy_cycles, forced.dram.read_busy_cycles)
      << label;
  EXPECT_EQ(gated.dram.injected_stall_cycles,
            forced.dram.injected_stall_cycles)
      << label;
  EXPECT_TRUE(gated.output == forced.output) << label;
}

TEST(SchedulerEquivalence, RandomizedStallAndBackpressureSweep) {
  Rng rng(0x5EED);
  const grid::StencilShape shapes[] = {grid::StencilShape::von_neumann4(),
                                       grid::StencilShape::moore9(),
                                       grid::StencilShape::upwind3()};
  const grid::BoundarySpec bcs[] = {
      grid::BoundarySpec::paper_example(), grid::BoundarySpec::all_open(),
      grid::BoundarySpec::all_mirror(),
      {grid::AxisBoundary::constant_halo(5), grid::AxisBoundary::open()}};

  for (int trial = 0; trial < 24; ++trial) {
    ProblemSpec p;
    p.height = 4 + rng.next_below(8);
    p.width = 4 + rng.next_below(8);
    p.shape = shapes[rng.next_below(3)];
    p.bc = bcs[rng.next_below(4)];
    p.steps = 1 + rng.next_below(3);
    const auto rspan = static_cast<std::size_t>(p.shape.dr_max() -
                                                p.shape.dr_min());
    const auto cspan = static_cast<std::size_t>(p.shape.dc_max() -
                                                p.shape.dc_min());
    if (p.height <= rspan || p.width <= cspan) continue;

    EngineOptions opts;
    opts.arch =
        rng.next_below(2) == 0 ? Architecture::Smache : Architecture::Baseline;
    // Randomized stall injection: periodic multi-cycle DRAM freezes.
    if (rng.next_below(2) == 0) {
      opts.dram.stall_every = 5 + rng.next_below(40);
      opts.dram.stall_cycles = 1 + rng.next_below(9);
    }
    // Randomized back-pressure: tight data/request queues and a deeper
    // read latency force every freeze/wake path in the DRAM and tops.
    opts.dram.read_latency = 1 + rng.next_below(8);
    opts.dram.data_queue_depth = 1 + rng.next_below(3);
    opts.dram.req_queue_depth = 1 + rng.next_below(3);
    opts.dram.write_queue_depth = 1 + rng.next_below(3);

    const auto init = test_support::random_grid(
        p.height, p.width, 7000 + static_cast<std::uint64_t>(trial));

    EngineOptions forced = opts;
    forced.force_eval_all = true;
    const std::string label =
        "trial " + std::to_string(trial) + " " + to_string(opts.arch) + " " +
        std::to_string(p.height) + "x" + std::to_string(p.width) +
        " stall_every=" + std::to_string(opts.dram.stall_every) +
        " lat=" + std::to_string(opts.dram.read_latency);

    expect_same(digest(Engine(opts).run(p, init)),
                digest(Engine(forced).run(p, init)), label);
  }
}

TEST(SchedulerEquivalence, CascadeGatedMatchesForced) {
  ProblemSpec p;
  p.height = 10;
  p.width = 10;
  p.shape = grid::StencilShape::von_neumann4();
  p.bc = grid::BoundarySpec::all_open();
  p.steps = 6;
  EngineOptions opts = EngineOptions::smache();
  opts.dram.stall_every = 13;
  opts.dram.stall_cycles = 4;
  opts.dram.data_queue_depth = 2;
  EngineOptions forced = opts;
  forced.force_eval_all = true;
  const auto init = test_support::random_grid(10, 10, 4711);
  expect_same(digest(Engine(opts).run_cascade(p, init, 3)),
              digest(Engine(forced).run_cascade(p, init, 3)), "cascade");
}

TEST(SchedulerEquivalence, MultiFieldTinyQueuesGatedMatchesForced) {
  // F-word cells cross one-word DRAM channels through each top's gather
  // staging and write-back drain; with 1-3 slot queues, stalls on and off,
  // their sleep/wake paths must be as exact as the single-word datapath.
  for (const char* kernel : {"hotspot", "fdtd"}) {
    ProblemSpec p;
    p.height = 10;
    p.width = 12;
    p.shape = sweep::make_stencil("star5");
    p.bc = grid::BoundarySpec::all_open();
    p.kernel = sweep::make_kernel(kernel);
    p.steps = 2;
    const auto init = sweep::make_input(
        std::string(kernel) == "hotspot" ? "hotspot-chip" : "fdtd-cavity", 10,
        12, 1, 4712);
    for (const char* top : {"smache", "cascade", "baseline"}) {
      for (std::uint32_t q = 1; q <= 3; ++q) {
        for (const bool stall : {false, true}) {
          EngineOptions opts = std::string(top) == "baseline"
                                   ? EngineOptions::baseline()
                                   : EngineOptions::smache();
          opts.dram.req_queue_depth = q;
          opts.dram.data_queue_depth = q;
          opts.dram.write_queue_depth = q;
          if (stall) {
            opts.dram.stall_every = 13;
            opts.dram.stall_cycles = 4;
          }
          EngineOptions forced = opts;
          forced.force_eval_all = true;
          const auto run = [&](const EngineOptions& o) {
            const Engine engine(o);
            return digest(std::string(top) == "cascade"
                              ? engine.run_cascade(p, init, 2)
                              : engine.run(p, init));
          };
          expect_same(run(opts), run(forced),
                      std::string(top) + " " + kernel +
                          " queues=" + std::to_string(q) +
                          " stall=" + std::to_string(stall));
        }
      }
    }
  }
}

TEST(SchedulerEquivalence, DdrLikeRowModelGatedMatchesForced) {
  ProblemSpec p = ProblemSpec::paper_example();
  p.height = 16;
  p.width = 16;
  p.steps = 4;
  EngineOptions opts = EngineOptions::smache();
  opts.dram = mem::DramConfig::ddr_like();
  EngineOptions forced = opts;
  forced.force_eval_all = true;
  const auto init = test_support::random_grid(16, 16, 99);
  expect_same(digest(Engine(opts).run(p, init)),
              digest(Engine(forced).run(p, init)), "ddr_like");
}

}  // namespace
}  // namespace smache
