#include "rtl/smache_top.hpp"

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace smache::rtl {

std::vector<sim::RegGroup<SmacheTop::Ctrl>::FieldCharge>
SmacheTop::ctrl_charges(const std::string& path,
                        const model::BufferPlan& plan, std::size_t steps,
                        std::size_t cells, std::size_t fields) {
  // warm_idx counts the words of one static row: width * F. The F > 1
  // gather/write-back staging registers belong to the cell port.
  std::vector<sim::RegGroup<Ctrl>::FieldCharge> charges = {
      {path + "/ctrl/instance", smache::count_bits(steps)},
      {path + "/ctrl/shifts", smache::count_bits(cells + plan.window_len())},
      {path + "/ctrl/emit_next", smache::count_bits(cells)},
      {path + "/ctrl/rdata_center", smache::count_bits(cells) + 1},
      {path + "/ctrl/req_issued", 1},
      {path + "/ctrl/wb_count", smache::count_bits(cells)},
      {path + "/ctrl/warm_bank",
       smache::count_bits(plan.static_buffers().size() + 1)},
      {path + "/ctrl/warm_idx", smache::count_bits(plan.width() * fields)},
      {path + "/ctrl/warm_req", 1}};
  return charges;
}

SmacheTop::SmacheTop(sim::Simulator& sim, const std::string& path,
                     const model::BufferPlan& plan,
                     const KernelSpec& kernel_spec, mem::DramModel& dram,
                     std::size_t steps)
    : plan_(plan),
      dram_(dram),
      steps_(steps),
      cells_(plan.cells()),
      fields_(kernel_spec.fields()),
      words_(cells_ * kernel_spec.fields()),
      center_(plan.center_age()),
      sim_(sim),
      window_(sim, path, plan, kernel_spec.fields()),
      statics_(sim, path, plan, kernel_spec.fields()),
      // The kernel sits OUTSIDE the Smache module (Figure 1b), so its
      // resources are charged under their own hierarchy root.
      kernel_(sim, "kernel", kernel_spec, plan.shape().size(), cells_),
      top_(sim, path + "/ctrl/top_fsm",
           plan.needs_warmup() ? Top::Warmup : Top::Run, 4),
      ctrl_(sim, Ctrl{},
            ctrl_charges(path, plan, steps, cells_, kernel_spec.fields())),
      reader_(sim, path, path + "/ctrl", dram.read_data(), fields_),
      writer_(sim, path, dram.write_req(), fields_, cells_),
      mreg_(&sim.metrics()),
      s_req_bp_(mreg_->slot(path, "/stall/request_backpressure",
                            obs::MetricKind::Counter)),
      s_dram_wait_(
          mreg_->slot(path, "/stall/dram_wait", obs::MetricKind::Counter)),
      s_kernel_bp_(mreg_->slot(path, "/stall/kernel_backpressure",
                               obs::MetricKind::Counter)) {
  SMACHE_REQUIRE(steps >= 1);
  set_obs_name(path);
  SMACHE_REQUIRE_MSG(dram.size_words() >= 2 * words_,
                     "DRAM must hold two grid regions (ping-pong)");
  for (std::size_t b = 0; b < plan_.static_buffers().size(); ++b)
    warm_order_.push_back(b);
  // Activity gating: these channel commits are the only external events
  // that can unblock a starved Run/Warmup state (data arriving, space
  // freeing), so a quiescent controller sleeps on them.
  dram_.read_req().set_producer(this);
  dram_.read_data().set_consumer(this);
  dram_.write_req().set_producer(this);
  kernel_.in().set_producer(this);
  kernel_.out().set_consumer(this);
  sim.add_module(this);
}

void SmacheTop::build_cell_tables() {
  case_of_cell_ = build_case_table(plan_.cases(), plan_.height(),
                                   plan_.width(), plan_.depth());
  row_of_cell_.reserve(cells_);
  col_of_cell_.reserve(cells_);
  // row_of_cell_ holds GLOBAL rows (s * height + r): static banks, the
  // capture path and the DRAM layout all speak the slice-major stream.
  for (std::size_t s = 0; s < plan_.depth(); ++s) {
    for (std::size_t r = 0; r < plan_.height(); ++r) {
      for (std::size_t c = 0; c < plan_.width(); ++c) {
        row_of_cell_.push_back(
            static_cast<std::uint32_t>(s * plan_.height() + r));
        col_of_cell_.push_back(static_cast<std::uint32_t>(c));
      }
    }
  }
  // Pre-resolve every case's gather sources: window ages to register
  // slots, static indices to bank pointers. The per-cycle emit loop then
  // touches no plan/map structures at all, and interior cases skip the
  // static pre-issue loop outright.
  case_plans_ = build_case_plans(plan_, window_, &statics_);
  capture_row_.assign(plan_.global_rows(), 0);
  for (std::size_t b = 0; b < plan_.static_buffers().size(); ++b) {
    const auto& spec = plan_.static_buffers()[b];
    if (spec.write_through) capture_row_[spec.grid_row] = 1;
  }
}

bool SmacheTop::done() const noexcept { return top_.is(Top::Done); }

std::uint64_t SmacheTop::in_base() const noexcept {
  return (ctrl_.q().instance % 2 == 0) ? 0 : words_;
}

std::uint64_t SmacheTop::out_base() const noexcept {
  return (ctrl_.q().instance % 2 == 0) ? words_ : 0;
}

std::uint64_t SmacheTop::output_base() const noexcept {
  return (steps_ % 2 == 0) ? 0 : words_;
}

void SmacheTop::eval() {
  if (case_of_cell_.empty()) build_cell_tables();
  switch (top_.state()) {
    case Top::Warmup: eval_warmup(); break;
    case Top::Run: eval_run(); break;
    case Top::Swap: eval_swap(); break;
    case Top::Done:
      // Terminal: nothing can ever change again.
      sleep();
      break;
  }
}

// ---------------------------------------------------------------------------
// FSM-1: warm-up prefetch of static buffers.
// ---------------------------------------------------------------------------
void SmacheTop::eval_warmup() {
  const Ctrl& c = ctrl_.q();
  if (c.warm_bank >= warm_order_.size()) {
    warmup_end_ = sim_.now();
    top_.go(Top::Run);
    return;
  }
  StaticBufferBank& bank = statics_.bank(warm_order_[c.warm_bank]);
  // One row = width cells = width * F DRAM words; active_write is
  // word-indexed, so the burst streams straight into the field banks.
  const std::size_t w = plan_.width() * fields_;
  if (!c.warm_req) {
    if (dram_.read_req().can_push()) {
      dram_.read_req().push(mem::DramReadReq{
          in_base() + bank.spec().grid_row * w,
          static_cast<std::uint32_t>(w)});
      ctrl_.d().warm_req = true;
    } else {
      mreg_->count(s_req_bp_);
      sleep();  // wake: read_req pop commit frees a request slot
    }
    return;
  }
  if (dram_.read_data().can_pop()) {
    const word_t v = dram_.read_data().pop();
    bank.active_write(c.warm_idx, v);
    if (c.warm_idx + 1 == w) {
      ctrl_.d().warm_idx = 0;
      ctrl_.d().warm_req = false;
      ctrl_.d().warm_bank = c.warm_bank + 1;
    } else {
      ctrl_.d().warm_idx = c.warm_idx + 1;
    }
  } else {
    mreg_->count(s_dram_wait_);
    sleep();  // wake: read_data push commit delivers the next burst word
  }
}

// ---------------------------------------------------------------------------
// FSM-2 (gather) + FSM-3 (write-back), concurrent within Run.
// ---------------------------------------------------------------------------
void SmacheTop::issue_static_reads(std::uint64_t cell) {
  const CasePlan& cp = case_plans_[case_of_cell_[cell]];
  if (cp.statics.empty()) return;  // interior case: nothing to pre-issue
  const std::size_t w = plan_.width();
  const std::size_t c = col_of_cell_[cell];
  for (const StaticIssue& s : cp.statics) {
    const auto idx = static_cast<std::int64_t>(c) + s.col_shift;
    SMACHE_ASSERT(idx >= 0 && idx < static_cast<std::int64_t>(w));
    s.bank->read(s.replica, static_cast<std::size_t>(idx));
  }
}

void SmacheTop::eval_run() {
  const Ctrl& c = ctrl_.q();
  const std::uint64_t n = c.shifts;
  const std::uint64_t emit_i = c.emit_next;
  const std::size_t center = center_;
  bool did_work = false;

  // -- FSM-2a: whole-grid burst request, once per instance --
  if (!c.req_issued) {
    if (dram_.read_req().can_push()) {
      dram_.read_req().push(
          mem::DramReadReq{in_base(), static_cast<std::uint32_t>(words_)});
      ctrl_.d().req_issued = true;
      did_work = true;
    } else {
      mreg_->count(s_req_bp_);
    }
  }

  // -- FSM-2b: tuple emission --
  bool emitting = false;
  if (emit_i < cells_ && n >= emit_i + center &&
      c.rdata_center == static_cast<std::int64_t>(emit_i)) {
    if (kernel_.in().can_push()) {
      emit_tuple(kernel_.in().push_slot(), emit_i,
                 case_plans_[case_of_cell_[emit_i]], window_, fields_);
      ctrl_.d().emit_next = emit_i + 1;
      emitting = true;
      did_work = true;
    } else {
      mreg_->count(s_kernel_bp_);
    }
  }

  // -- FSM-2c: pre-issue static reads for the next centre. Re-issues for
  // a centre the token already points at are skipped: BRAM read data holds
  // between issues and the statics' active copies are not written during
  // Run, so re-latching would republish identical values --
  const std::uint64_t next_center = emitting ? emit_i + 1 : emit_i;
  if (next_center < cells_ &&
      c.rdata_center != static_cast<std::int64_t>(next_center)) {
    issue_static_reads(next_center);
    ctrl_.d().rdata_center = static_cast<std::int64_t>(next_center);
    did_work = true;
  }

  // -- FSM-2d: window shift. A shift moves one whole CELL into the
  // window, on the arrival cycle of the cell's last DRAM word; past the
  // last real cell, zero cells flush the window. --
  const std::uint64_t emit_eff = emitting ? emit_i + 1 : emit_i;
  const bool more_shifts = n < cells_ - 1 + center;
  const bool window_room = n < emit_eff + center;
  if (more_shifts && window_room) {
    if (n >= cells_) {
      const word_t zero_cell[kMaxFields] = {};
      window_.shift_cell(zero_cell);
      ctrl_.d().shifts = n + 1;
      did_work = true;
    } else if (reader_.can_pop()) {
      word_t cell[kMaxFields];
      if (reader_.pop(cell)) {
        window_.shift_cell(cell);
        ctrl_.d().shifts = n + 1;
      }
      did_work = true;
    } else {
      mreg_->count(s_dram_wait_);
    }
  }

  // -- FSM-3: write-back + shadow capture. The kernel retires one result
  // CELL per pop and the writer posts it to DRAM one word per cycle; the
  // capture path stores the whole cell on the pop cycle (on-chip banks are
  // word-parallel). wb_count counts fully written cells. --
  CellWriter::Step wb = CellWriter::Step::Idle;
  if (writer_.draining()) {
    wb = writer_.drain(out_base());
  } else if (kernel_.out().can_pop() && writer_.ready()) {
    const ResultMsg res = kernel_.out().pop();
    const std::uint32_t row = row_of_cell_[res.index];
    if (capture_row_[row])
      statics_.capture_output_cell(row, col_of_cell_[res.index],
                                   res.values.data());
    wb = writer_.write(out_base(), res.index, res.values);
  }
  if (wb != CellWriter::Step::Idle) did_work = true;
  if (wb == CellWriter::Step::Cell) {
    ctrl_.d().wb_count = c.wb_count + 1;
    if (c.wb_count + 1 == cells_)
      top_.go(c.instance + 1 == steps_ ? Top::Done : Top::Swap);
  }

  // Starved: every blocker above is an external channel condition (data
  // not yet delivered, space not yet freed), and each is subscribed to in
  // the constructor, so the controller can sleep until one commits.
  if (!did_work) sleep();
}

// ---------------------------------------------------------------------------
// Instance boundary: drain writes, swap buffers and regions.
// ---------------------------------------------------------------------------
void SmacheTop::eval_swap() {
  // Memory fence: the next instance reads the region we just wrote.
  if (!dram_.write_req().empty() || !dram_.idle()) {
    // Exact re-check scheduling: min_cycles_to_idle is a sound lower bound
    // on the first cycle the fence can pass (same argument as
    // run_until_done), so sleeping until then never overshoots. Write
    // drains additionally wake us early through the write_req producer
    // subscription; the re-check simply goes back to sleep.
    sleep_for(dram_.min_cycles_to_idle());
    return;
  }
  const Ctrl& c = ctrl_.q();
  statics_.swap_all();
  Ctrl& d = ctrl_.d();
  d.instance = c.instance + 1;
  d.shifts = 0;
  d.emit_next = 0;
  d.rdata_center = -1;
  d.req_issued = false;
  d.wb_count = 0;
  top_.go(Top::Run);
}

}  // namespace smache::rtl
