// The engine's process-wide plan table: every run of one design shares one
// immutable BufferPlan, that plan equals a fresh planner's, every key field
// separates designs, a rejected design is never cached, and a table that
// has started over still serves correct plans.
//
// Other tests in the same process may fill the table, so pointer equality
// is asserted only between back-to-back runs of one design.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "core/engine.hpp"
#include "grid/tiling.hpp"
#include "support/test_grids.hpp"

namespace smache {
namespace {

/// Everything a BufferPlan holds, as one string: its description, the
/// inputs it records, the window geometry, the static buffers and every
/// gather source of every case.
std::string fingerprint(const model::BufferPlan& plan) {
  std::ostringstream out;
  out << plan.describe() << "extents " << plan.height() << ' '
      << plan.width() << ' ' << plan.depth() << "\nstencil "
      << plan.shape().name() << ':';
  for (const grid::Offset2& o : plan.shape().offsets())
    out << ' ' << o.ds << ',' << o.dr << ',' << o.dc;
  out << "\nbc:";
  for (const grid::AxisBoundary& a :
       {plan.bc().rows, plan.bc().cols, plan.bc().slices})
    out << ' ' << grid::to_string(a.kind) << '=' << a.constant;
  out << "\nimpl " << model::to_string(plan.stream_impl()) << "\nwindow "
      << plan.window_len() << " centre " << plan.center_age()
      << "\nregisters:";
  for (const std::size_t age : plan.reg_ages()) out << ' ' << age;
  out << "\nfifos:";
  for (const model::FifoSegment& s : plan.fifo_segments())
    out << ' ' << s.in_stage_age << '/' << s.bram_len << '/'
        << s.out_stage_age;
  out << "\ntaps:";
  for (const std::size_t age : plan.tap_ages()) out << ' ' << age;
  out << "\nstatics:";
  for (const model::StaticBufferSpec& b : plan.static_buffers())
    out << ' ' << b.name << '/' << b.grid_row << '/' << b.length << '/'
        << b.replicas << '/' << b.write_through;
  for (std::size_t id = 0; id < plan.cases().case_count(); ++id) {
    out << "\ncase " << id << ':';
    for (const model::GatherSource& g : plan.gather(id))
      out << ' ' << static_cast<int>(g.kind) << '/' << g.window_age << '/'
          << g.static_index << '/' << g.replica << '/' << g.col_shift
          << '/' << g.constant;
  }
  return out.str();
}

model::BufferPlan fresh_plan(const ProblemSpec& p, const EngineOptions& o) {
  model::PlannerOptions popts;
  popts.stream_impl = o.stream_impl;
  popts.bram_segment_threshold = o.bram_segment_threshold;
  return model::Planner(popts).plan(p.height, p.width, p.depth, p.shape,
                                    p.bc);
}

ProblemSpec open_problem() {
  ProblemSpec p;
  p.height = 12;
  p.width = 10;
  p.shape = grid::StencilShape::von_neumann4();
  p.bc = grid::BoundarySpec::all_open();
  p.steps = 2;
  return p;
}

TEST(PlanTable, BackToBackRunsShareOnePlan) {
  const ProblemSpec p = open_problem();
  const EngineOptions opts = EngineOptions::smache();
  const Engine engine(opts);
  const auto init = test_support::random_grid(p.height, p.width, 7, 1000);
  const RunResult run = engine.run(p, init);
  const RunResult elaborated = engine.elaborate_only(p);
  const RunResult cascade = engine.run_cascade(p, init, 2);
  const RunResult untiled = engine.run_tiled(p, init, {});
  const RunResult other = Engine(opts).run(p, init);
  ASSERT_NE(run.plan, nullptr);
  EXPECT_EQ(elaborated.plan, run.plan);
  EXPECT_EQ(cascade.plan, run.plan);
  EXPECT_EQ(untiled.plan, run.plan);
  EXPECT_EQ(other.plan, run.plan);
  EXPECT_EQ(fingerprint(*run.plan), fingerprint(fresh_plan(p, opts)));
  const auto golden = reference_run(p, init);
  EXPECT_EQ(run.output, golden);
  EXPECT_EQ(cascade.output, golden);
  EXPECT_EQ(other.output, golden);
}

TEST(PlanTable, TilePassesShareTheirSubPlan) {
  // A periodic axis split in two gives every tile full halos and an open
  // sub-boundary: one sub-design for all four tiles, so a run inserts at
  // most one plan and the next run finds it.
  ProblemSpec p = open_problem();
  p.width = 12;
  p.bc = grid::BoundarySpec::all_periodic();
  const EngineOptions opts = EngineOptions::smache();
  const Engine engine(opts);
  const auto init = test_support::random_grid(p.height, p.width, 8, 1000);
  const TilingSpec mesh{2, 2, 2, 1};
  const RunResult first = engine.run_tiled(p, init, mesh);
  const RunResult second = engine.run_tiled(p, init, mesh);
  ASSERT_NE(first.plan, nullptr);
  EXPECT_EQ(second.plan, first.plan);
  EXPECT_EQ(first.output, reference_run(p, init));

  const grid::TileGeometry tile0 =
      grid::plan_tiling(p.height, p.width, p.depth, 2, 2, 1, p.shape, p.bc,
                        1)
          .tiles[0];
  ProblemSpec sub = p;
  sub.height = tile0.sub_height();
  sub.width = tile0.sub_width();
  sub.bc = tile0.sub_bc;
  EXPECT_EQ(fingerprint(*first.plan), fingerprint(fresh_plan(sub, opts)));
}

TEST(PlanTable, EveryKeyFieldSeparatesDesigns) {
  // A 3D design with a constant halo on every axis, so that each kind,
  // each constant and the slice axis reach the gather table.
  ProblemSpec base;
  base.height = 12;
  base.width = 11;
  base.depth = 3;
  base.shape = grid::StencilShape::star7();
  base.bc = {grid::AxisBoundary::constant_halo(1),
             grid::AxisBoundary::constant_halo(2),
             grid::AxisBoundary::constant_halo(3)};
  base.steps = 1;
  const EngineOptions base_opts = EngineOptions::smache();

  using Edit = std::function<void(ProblemSpec&, EngineOptions&)>;
  const std::vector<std::pair<std::string, Edit>> edits = {
      {"height", [](ProblemSpec& p, EngineOptions&) { p.height = 13; }},
      {"width", [](ProblemSpec& p, EngineOptions&) { p.width = 12; }},
      {"depth", [](ProblemSpec& p, EngineOptions&) { p.depth = 4; }},
      {"offsets under one name",
       [](ProblemSpec& p, EngineOptions&) {
         auto offsets = p.shape.offsets();
         offsets.pop_back();
         p.shape = grid::StencilShape::custom(p.shape.name(), offsets);
       }},
      {"offset order",
       [](ProblemSpec& p, EngineOptions&) {
         auto offsets = p.shape.offsets();
         std::swap(offsets[1], offsets[2]);
         p.shape = grid::StencilShape::custom(p.shape.name(), offsets);
       }},
      {"stencil name",
       [](ProblemSpec& p, EngineOptions&) {
         p.shape = grid::StencilShape::custom("renamed", p.shape.offsets());
       }},
      {"rows kind",
       [](ProblemSpec& p, EngineOptions&) {
         p.bc.rows = grid::AxisBoundary::periodic();
       }},
      {"rows constant",
       [](ProblemSpec& p, EngineOptions&) { p.bc.rows.constant = 9; }},
      {"cols kind",
       [](ProblemSpec& p, EngineOptions&) {
         p.bc.cols = grid::AxisBoundary::mirror();
       }},
      {"cols constant",
       [](ProblemSpec& p, EngineOptions&) { p.bc.cols.constant = 9; }},
      {"slices kind",
       [](ProblemSpec& p, EngineOptions&) {
         p.bc.slices = grid::AxisBoundary::open();
       }},
      {"slices constant",
       [](ProblemSpec& p, EngineOptions&) { p.bc.slices.constant = 9; }},
      {"stream_impl",
       [](ProblemSpec&, EngineOptions& o) {
         o.stream_impl = model::StreamImpl::RegisterOnly;
       }},
      {"bram_segment_threshold",
       [](ProblemSpec&, EngineOptions& o) { o.bram_segment_threshold = 16; }},
  };

  const RunResult base_run = Engine(base_opts).elaborate_only(base);
  ASSERT_NE(base_run.plan, nullptr);
  const std::string base_print = fingerprint(*base_run.plan);
  EXPECT_EQ(base_print, fingerprint(fresh_plan(base, base_opts)));
  for (const auto& [field, edit] : edits) {
    ProblemSpec p = base;
    EngineOptions o = base_opts;
    edit(p, o);
    const RunResult run = Engine(o).elaborate_only(p);
    ASSERT_NE(run.plan, nullptr) << field;
    EXPECT_NE(run.plan, base_run.plan) << field;
    const std::string print = fingerprint(*run.plan);
    EXPECT_EQ(print, fingerprint(fresh_plan(p, o))) << field;
    EXPECT_NE(print, base_print) << field;
  }
}

std::string rejection(const Engine& engine, const ProblemSpec& p) {
  try {
    engine.elaborate_only(p);
  } catch (const contract_error& e) {
    return e.what();
  }
  return "accepted";
}

TEST(PlanTable, RejectedDesignsFailTheSameWayEveryTime) {
  ProblemSpec p = ProblemSpec::paper_example();
  p.steps = 1;
  EngineOptions opts = EngineOptions::smache();
  opts.bram_segment_threshold = 2;  // the planner refuses it
  const Engine planner_rejects(opts);
  const std::string first = rejection(planner_rejects, p);
  EXPECT_NE(first.find("bram_segment_threshold"), std::string::npos)
      << first;
  EXPECT_EQ(rejection(planner_rejects, p), first);
  EXPECT_EQ(rejection(planner_rejects, p), first);

  ProblemSpec narrow = p;
  narrow.width = 2;  // vn4 spans three columns; validate() refuses it
  const Engine engine(EngineOptions::smache());
  const std::string narrow_first = rejection(engine, narrow);
  EXPECT_NE(narrow_first.find("column span"), std::string::npos)
      << narrow_first;
  EXPECT_EQ(rejection(engine, narrow), narrow_first);

  // The legal neighbours of both still plan.
  opts.bram_segment_threshold = 3;
  EXPECT_EQ(rejection(Engine(opts), p), "accepted");
  EXPECT_EQ(rejection(engine, p), "accepted");
}

TEST(PlanTable, StartingOverKeepsEveryPlanCorrect) {
  ProblemSpec p = ProblemSpec::paper_example();
  p.height = 4;
  p.width = 4;
  p.steps = 1;
  const EngineOptions opts = EngineOptions::smache();
  const Engine engine(opts);
  const RunResult held = engine.elaborate_only(p);
  ASSERT_NE(held.plan, nullptr);
  // More distinct designs than the table holds: it starts over at least
  // once while `held` still owns its plan.
  for (std::size_t i = 1; i <= Engine::kPlanTableCapacity + 8; ++i) {
    ProblemSpec taller = p;
    taller.height = p.height + i;
    ASSERT_NE(engine.elaborate_only(taller).plan, nullptr) << i;
  }
  const std::string expected = fingerprint(fresh_plan(p, opts));
  EXPECT_EQ(fingerprint(*held.plan), expected);
  EXPECT_EQ(fingerprint(*engine.elaborate_only(p).plan), expected);
  const auto init = test_support::random_grid(p.height, p.width, 9, 1000);
  EXPECT_EQ(engine.run(p, init).output, reference_run(p, init));
}

}  // namespace
}  // namespace smache
