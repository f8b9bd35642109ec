#include "rtl/smache_top.hpp"

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace smache::rtl {

std::size_t SmacheTop::checked_passes(const model::BufferPlan& plan,
                                      std::size_t steps, std::size_t depth) {
  SMACHE_REQUIRE(steps >= 1 && depth >= 1 && steps % depth == 0);
  if (depth > 1)
    SMACHE_REQUIRE_MSG(plan.static_buffers().empty(),
                       "cascading requires boundaries whose tuples resolve "
                       "in-stream (open/mirror/constant); periodic wraps "
                       "need SmacheTop's double-buffered static buffers");
  return steps / depth;
}

std::vector<sim::RegGroup<SmacheTop::Ctrl>::FieldCharge>
SmacheTop::ctrl_charges(const std::string& path,
                        const model::BufferPlan& plan, std::size_t passes,
                        bool static_path, std::size_t cells,
                        std::size_t fields) {
  const std::uint32_t shifts_bits =
      smache::count_bits(cells + plan.window_len());
  if (!static_path) {
    // Fused: the pass counter, and stage 0's counters under its stage id.
    return {{path + "/ctrl/pass", smache::count_bits(passes)},
            {path + "/ctrl/req_issued", 1},
            {path + "/ctrl/wb_count", smache::count_bits(cells)},
            {path + "/ctrl/stage0/shifts", shifts_bits},
            {path + "/ctrl/stage0/emit_next", smache::count_bits(cells)}};
  }
  // warm_idx counts the words of one static row: width * F. The F > 1
  // gather/write-back staging registers belong to the cell port.
  return {{path + "/ctrl/instance", smache::count_bits(passes)},
          {path + "/ctrl/shifts", shifts_bits},
          {path + "/ctrl/emit_next", smache::count_bits(cells)},
          {path + "/ctrl/rdata_center", smache::count_bits(cells) + 1},
          {path + "/ctrl/req_issued", 1},
          {path + "/ctrl/wb_count", smache::count_bits(cells)},
          {path + "/ctrl/warm_bank",
           smache::count_bits(plan.static_buffers().size() + 1)},
          {path + "/ctrl/warm_idx", smache::count_bits(plan.width() * fields)},
          {path + "/ctrl/warm_req", 1}};
}

SmacheTop::SmacheTop(sim::Simulator& sim, const std::string& path,
                     const model::BufferPlan& plan,
                     const KernelSpec& kernel_spec, mem::DramModel& dram,
                     std::size_t steps, std::size_t depth)
    : plan_(plan),
      dram_(dram),
      passes_(checked_passes(plan, steps, depth)),
      cells_(plan.cells()),
      fields_(kernel_spec.fields()),
      words_(cells_ * kernel_spec.fields()),
      center_(plan.center_age()),
      static_path_(depth == 1),
      sim_(sim),
      statics_(sim, path, plan, kernel_spec.fields()),
      top_(sim, path + "/ctrl/top_fsm",
           plan.needs_warmup() ? Top::Warmup : Top::Run, 4),
      ctrl_(sim, Ctrl{},
            ctrl_charges(path, plan, passes_, static_path_, cells_,
                         kernel_spec.fields())),
      reader_(sim, path,
              static_path_ ? path + "/ctrl" : path + "/ctrl/stage0",
              dram.read_data(), fields_),
      writer_(sim, path, dram.write_req(), fields_, cells_),
      mreg_(&sim.metrics()),
      s_req_bp_(mreg_->slot(path, "/stall/request_backpressure",
                            obs::MetricKind::Counter)),
      s_dram_wait_(
          mreg_->slot(path, "/stall/dram_wait", obs::MetricKind::Counter)),
      s_kernel_bp_(mreg_->slot(path, "/stall/kernel_backpressure",
                               obs::MetricKind::Counter)) {
  set_obs_name(path);
  SMACHE_REQUIRE_MSG(dram.size_words() >= 2 * words_,
                     "DRAM must hold two grid regions (ping-pong)");
  if (!static_path_) {
    s_interstage_wait_ = mreg_->slot(path, "/stall/interstage_wait",
                                     obs::MetricKind::Counter);
    s_interstage_bp_ = mreg_->slot(path, "/stall/interstage_backpressure",
                                   obs::MetricKind::Counter);
  }
  stages_.reserve(depth);
  for (std::size_t k = 0; k < depth; ++k) {
    const std::string stage_id = "stage" + std::to_string(k);
    Stage st;
    // Windows charge under <path>/stream/... (entries accumulate across
    // stages, so the ledger's stream totals cover the whole chain). The
    // kernels sit OUTSIDE the Smache module (Figure 1b), so their
    // resources are charged under their own hierarchy root.
    st.window = std::make_unique<StreamBuffer>(sim, path, plan, fields_);
    st.kernel = std::make_unique<KernelPipeline>(
        sim, static_path_ ? "kernel" : "kernel/" + stage_id, kernel_spec,
        plan.shape().size(), cells_);
    if (k > 0) {
      st.ctrl = std::make_unique<sim::RegGroup<StageCtrl>>(
          sim, StageCtrl{},
          std::initializer_list<sim::RegGroup<StageCtrl>::FieldCharge>{
              {path + "/ctrl/" + stage_id + "/shifts",
               smache::count_bits(cells_ + plan.window_len())},
              {path + "/ctrl/" + stage_id + "/emit_next",
               smache::count_bits(cells_)}});
      st.input = std::make_unique<sim::Fifo<CellMsg>>(
          sim, path + "/ctrl/" + stage_id + "/input", 4,
          static_cast<std::uint32_t>(kWordBits * fields_));
    }
    stages_.push_back(std::move(st));
  }
  for (std::size_t b = 0; b < plan_.static_buffers().size(); ++b)
    warm_order_.push_back(b);
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
  // static pre-issue loop outright. The stage windows share one layout,
  // so one table serves all.
  case_plans_ = build_case_plans(plan_, *stages_.front().window, statics_);
  capture_row_.assign(plan_.global_rows(), 0);
  for (std::size_t b = 0; b < plan_.static_buffers().size(); ++b) {
    const auto& spec = plan_.static_buffers()[b];
    if (spec.write_through) capture_row_[spec.grid_row] = 1;
  }
}

bool SmacheTop::done() const noexcept { return top_.is(Top::Done); }

std::uint64_t SmacheTop::in_base() const noexcept {
  return (ctrl_.q().pass % 2 == 0) ? 0 : words_;
}

std::uint64_t SmacheTop::out_base() const noexcept {
  return (ctrl_.q().pass % 2 == 0) ? words_ : 0;
}

std::uint64_t SmacheTop::output_base() const noexcept {
  return (passes_ % 2 == 0) ? 0 : words_;
}

void SmacheTop::eval() {
  if (case_of_cell_.empty()) build_cell_tables();
  switch (top_.state()) {
    case Top::Warmup: eval_warmup(); break;
    case Top::Run: eval_run(); break;
    case Top::Swap: eval_swap(); break;
    case Top::Done: break;  // terminal: nothing can ever change again
  }
  // The clock edge of the state only this top reads. The static banks are
  // settled only on evals that touched them, and the cell port stages
  // nothing at F = 1.
  top_.settle();
  ctrl_.settle();
  for (Stage& st : stages_) st.window->settle();
  for (std::size_t k = 1; k < stages_.size(); ++k) stages_[k].ctrl->settle();
  if (statics_touched_) {
    statics_.settle();
    statics_touched_ = false;
  }
  if (fields_ > 1) {
    reader_.settle();
    writer_.settle();
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
    }
    return;
  }
  if (dram_.read_data().can_pop()) {
    const word_t v = dram_.read_data().pop();
    bank.active_write(c.warm_idx, v);
    statics_touched_ = true;
    if (c.warm_idx + 1 == w) {
      ctrl_.d().warm_idx = 0;
      ctrl_.d().warm_req = false;
      ctrl_.d().warm_bank = c.warm_bank + 1;
    } else {
      ctrl_.d().warm_idx = c.warm_idx + 1;
    }
  } else {
    mreg_->count(s_dram_wait_);
  }
}

// ---------------------------------------------------------------------------
// FSM-2 (gather) + FSM-3 (write-back), concurrent within Run.
// ---------------------------------------------------------------------------
void SmacheTop::issue_static_reads(std::uint64_t cell) {
  const CasePlan& cp = case_plans_[case_of_cell_[cell]];
  if (cp.statics.empty()) return;  // interior case: nothing to pre-issue
  statics_touched_ = true;
  const std::size_t w = plan_.width();
  const std::size_t c = col_of_cell_[cell];
  for (const StaticIssue& s : cp.statics) {
    const auto idx = static_cast<std::int64_t>(c) + s.col_shift;
    SMACHE_ASSERT(idx >= 0 && idx < static_cast<std::int64_t>(w));
    s.bank->read(s.replica, static_cast<std::size_t>(idx));
  }
}

template <bool Head>
void SmacheTop::eval_stage(std::size_t k) {
  Stage& st = stages_[k];
  StreamBuffer& window = *st.window;
  KernelPipeline& kernel = *st.kernel;
  const Ctrl& c = ctrl_.q();
  const StageCtrl& q = Head ? c.head : st.ctrl->q();
  const auto next = [&]() -> StageCtrl& {
    if constexpr (Head) return ctrl_.d().head;
    else return st.ctrl->d();
  };
  const std::uint64_t n = q.shifts;
  const std::uint64_t emit_i = q.emit_next;
  const std::size_t center = center_;

  // -- FSM-2b: tuple emission (on the static path, only once the centre's
  // static reads were pre-issued) --
  bool emitting = false;
  if (emit_i < cells_ && n >= emit_i + center &&
      (!static_path_ ||
       c.rdata_center == static_cast<std::int64_t>(emit_i))) {
    if (kernel.in().can_push()) {
      emit_tuple(kernel.in().push_slot(), emit_i,
                 case_plans_[case_of_cell_[emit_i]], window, fields_);
      next().emit_next = emit_i + 1;
      emitting = true;
    } else {
      mreg_->count(s_kernel_bp_);
    }
  }

  // -- FSM-2c (static path): pre-issue static reads for the next centre.
  // Re-issues for a centre the token already points at are skipped: BRAM
  // read data holds between issues and the statics' active copies are not
  // written during Run, so re-latching would republish identical values --
  const std::uint64_t emit_eff = emitting ? emit_i + 1 : emit_i;
  if (static_path_ && emit_eff < cells_ &&
      c.rdata_center != static_cast<std::int64_t>(emit_eff)) {
    issue_static_reads(emit_eff);
    ctrl_.d().rdata_center = static_cast<std::int64_t>(emit_eff);
  }

  // -- FSM-2d: window shift. A shift moves one whole CELL into the
  // window: stage 0 on the arrival cycle of the cell's last DRAM word,
  // later stages as the previous stage hands a result on; past the last
  // real cell, zero cells flush the window. --
  const bool more_shifts = n < cells_ - 1 + center;
  const bool window_room = n < emit_eff + center;
  if (more_shifts && window_room) {
    if (n >= cells_) {
      const word_t zero_cell[kMaxFields] = {};
      window.shift_cell(zero_cell);
      next().shifts = n + 1;
    } else if constexpr (Head) {
      if (reader_.can_pop()) {
        word_t cell[kMaxFields];
        if (reader_.pop(cell)) {
          window.shift_cell(cell);
          next().shifts = n + 1;
        }
      } else {
        mreg_->count(s_dram_wait_);
      }
    } else if (st.input->can_pop()) {
      window.shift_cell(st.input->pop().w.data());
      next().shifts = n + 1;
    } else {
      mreg_->count(s_interstage_wait_);
    }
  }

  // -- hand the kernel's results on: to the next stage, or to DRAM --
  if (k + 1 == stages_.size()) {
    write_back(kernel);
    return;
  }
  sim::Fifo<CellMsg>& next_in = *stages_[k + 1].input;
  if (kernel.out().can_pop()) {
    if (next_in.can_push()) {
      next_in.push_slot().w = kernel.out().pop().values;
    } else {
      mreg_->count(s_interstage_bp_);
    }
  }
}

// FSM-3: write-back + shadow capture. The kernel retires one result CELL
// per pop and the writer posts it to DRAM one word per cycle; the capture
// path stores the whole cell on the pop cycle (on-chip banks are
// word-parallel). wb_count counts fully written cells.
void SmacheTop::write_back(KernelPipeline& last) {
  const Ctrl& c = ctrl_.q();
  CellWriter::Step wb = CellWriter::Step::Idle;
  if (writer_.draining()) {
    wb = writer_.drain(out_base());
  } else if (last.out().can_pop() && writer_.ready()) {
    const ResultMsg res = last.out().pop();
    if (static_path_) {
      const std::uint32_t row = row_of_cell_[res.index];
      if (capture_row_[row]) {
        statics_.capture_output_cell(row, col_of_cell_[res.index],
                                     res.values.data());
        statics_touched_ = true;
      }
    } else if (warmup_end_ == 0) {
      warmup_end_ = sim_.now();  // fused: the chain's fill ends here
    }
    wb = writer_.write(out_base(), res.index, res.values);
  }
  if (wb == CellWriter::Step::Cell) {
    ctrl_.d().wb_count = c.wb_count + 1;
    if (c.wb_count + 1 == cells_)
      top_.go(c.pass + 1 == passes_ ? Top::Done : Top::Swap);
  }
}

// The per-cycle path. flatten inlines every channel and register helper
// the stage body calls: left to its own heuristics, GCC keeps the FIFO
// pops out of line here, which costs the depth-1 loop several percent.
// Stage 0 (eval_stage<true>) is compiled into eval_run() itself; the later
// stages of a fused chain stay out of line, so the depth-1 cycle remains
// one compact body. (A runtime `k == 0` test in place of the
// template parameter ran ~10% slower on perfbench paper_stream, GCC 12,
// 4-vCPU x86-64.)
[[gnu::noinline, gnu::flatten]] void SmacheTop::eval_later_stages() {
  for (std::size_t k = 1; k < stages_.size(); ++k) eval_stage<false>(k);
}

[[gnu::flatten]] void SmacheTop::eval_run() {
  // -- FSM-2a: whole-grid burst request, once per pass --
  if (!ctrl_.q().req_issued) {
    if (dram_.read_req().can_push()) {
      dram_.read_req().push(
          mem::DramReadReq{in_base(), static_cast<std::uint32_t>(words_)});
      ctrl_.d().req_issued = true;
    } else {
      mreg_->count(s_req_bp_);
    }
  }

  eval_stage<true>(0);
  if (stages_.size() > 1) eval_later_stages();
}

// ---------------------------------------------------------------------------
// Pass boundary: drain writes, swap buffers and regions.
// ---------------------------------------------------------------------------
void SmacheTop::eval_swap() {
  // Memory fence: the next pass reads the region we just wrote.
  if (!dram_.write_req().empty() || !dram_.idle()) return;
  const Ctrl& c = ctrl_.q();
  statics_.swap_all();
  statics_touched_ = true;
  Ctrl& d = ctrl_.d();
  d.pass = c.pass + 1;
  d.head = StageCtrl{};
  d.rdata_center = -1;
  d.req_issued = false;
  d.wb_count = 0;
  for (std::size_t k = 1; k < stages_.size(); ++k)
    stages_[k].ctrl->d() = StageCtrl{};
  top_.go(Top::Run);
}

}  // namespace smache::rtl
