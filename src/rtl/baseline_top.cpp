#include "rtl/baseline_top.hpp"

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace smache::rtl {

namespace {

/// The collector's tuple registers, charged where the constructor builds
/// them so the ledger keeps its charge order.
std::vector<word_t> tuple_registers(sim::Simulator& sim,
                                    const std::string& path,
                                    std::size_t words) {
  sim.ledger().add(path + "/datapath/tuple_regs", sim::ResKind::RegisterBits,
                   static_cast<std::uint64_t>(words) * kWordBits);
  return std::vector<word_t>(words, 0);
}

}  // namespace

BaselineTop::BaselineTop(sim::Simulator& sim, const std::string& path,
                         std::size_t height, std::size_t width,
                         const grid::StencilShape& shape,
                         const grid::BoundarySpec& bc,
                         const KernelSpec& kernel_spec, mem::DramModel& dram,
                         std::size_t steps, std::size_t depth)
    : height_(height),
      width_(width),
      depth_(depth),
      cells_(height * width * depth),
      fields_(kernel_spec.fields()),
      words_(height * width * depth * kernel_spec.fields()),
      steps_(steps),
      shape_(shape),
      cases_(height, width, depth, shape),
      kernel_spec_(kernel_spec),
      dram_(dram),
      top_(sim, path + "/ctrl/top_fsm", Top::Run, 3),
      ctrl_(sim, Ctrl{},
            // col_elem counts tuple WORDS (taps * F).
            {{path + "/ctrl/instance", smache::count_bits(steps)},
             {path + "/ctrl/req_cell", smache::count_bits(cells_)},
             {path + "/ctrl/req_elem", smache::count_bits(shape.size())},
             {path + "/ctrl/col_cell", smache::count_bits(cells_)},
             {path + "/ctrl/col_elem",
              smache::count_bits(shape.size() * fields_)},
             {path + "/ctrl/wb_count", smache::count_bits(cells_)}}),
      tuple_(tuple_registers(sim, path,
                             shape.size() * kernel_spec.fields())),
      writer_(sim, path, dram.write_req(), fields_, cells_),
      mreg_(&sim.metrics()),
      s_req_bp_(mreg_->slot(path, "/stall/request_backpressure",
                            obs::MetricKind::Counter)),
      s_dram_wait_(
          mreg_->slot(path, "/stall/dram_wait", obs::MetricKind::Counter)) {
  SMACHE_REQUIRE(steps >= 1);
  set_obs_name(path);
  SMACHE_REQUIRE_MSG(dram.size_words() >= 2 * words_,
                     "DRAM must hold two grid regions (ping-pong)");
  scratch_.resize(shape.size() * fields_);

  // Build the per-case source table (the baseline's address/mask logic).
  const std::size_t n_cases = cases_.case_count();
  sources_.assign(n_cases * shape.size(), Source{});
  for (std::size_t zs = 0; zs < cases_.slices().count(); ++zs) {
  for (std::size_t zr = 0; zr < cases_.rows().count(); ++zr) {
    for (std::size_t zc = 0; zc < cases_.cols().count(); ++zc) {
      const std::size_t id = cases_.case_id(zs, zr, zc);
      const std::size_t s_rep = cases_.slices().representative(zs);
      const std::size_t r_rep = cases_.rows().representative(zr);
      const std::size_t c_rep = cases_.cols().representative(zc);
      for (std::size_t j = 0; j < shape.size(); ++j) {
        const grid::Offset2 o = shape.offsets()[j];
        const grid::Resolved res =
            grid::resolve(s_rep, r_rep, c_rep, o.ds, o.dr, o.dc, depth,
                          height, width, bc);
        Source& s = sources_[id * shape.size() + j];
        switch (res.kind) {
          case grid::Resolved::Kind::Missing:
            // Dummy read of the centre; masked out of the compute.
            s.is_data = false;
            break;
          case grid::Resolved::Kind::Constant:
            s.is_data = false;
            s.is_constant = true;
            s.constant = res.constant;
            break;
          case grid::Resolved::Kind::Cell:
            s.is_data = true;
            s.row_shift = static_cast<std::int64_t>(res.r) -
                          static_cast<std::int64_t>(r_rep);
            s.col_shift = static_cast<std::int64_t>(res.c) -
                          static_cast<std::int64_t>(c_rep);
            s.slice_shift = static_cast<std::int64_t>(res.s) -
                            static_cast<std::int64_t>(s_rep);
            s.lin_shift = (s.slice_shift * static_cast<std::int64_t>(height) +
                           s.row_shift) *
                              static_cast<std::int64_t>(width) +
                          s.col_shift;
            break;
        }
      }
    }
  }
  }
  sim.add_module(this);
}

bool BaselineTop::done() const noexcept { return top_.is(Top::Done); }

std::uint64_t BaselineTop::in_base() const noexcept {
  return (ctrl_.q().instance % 2 == 0) ? 0 : words_;
}
std::uint64_t BaselineTop::out_base() const noexcept {
  return (ctrl_.q().instance % 2 == 0) ? words_ : 0;
}
std::uint64_t BaselineTop::output_base() const noexcept {
  return (steps_ % 2 == 0) ? 0 : words_;
}

void BaselineTop::eval_run() {
  const std::size_t tuple = shape_.size();
  const std::size_t tuple_words = tuple * fields_;
  const Ctrl& c = ctrl_.q();

  // -- requester: one read request per tuple element per cycle (an F-word
  //    burst: the whole cell of the addressed grid point) --
  if (c.req_cell < cells_) {
    if (dram_.read_req().can_push()) {
      const Source& s =
          sources_[case_of_cell_[c.req_cell] * tuple + c.req_elem];
      dram_.read_req().push(
          mem::DramReadReq{element_addr(c.req_cell, s),
                           static_cast<std::uint32_t>(fields_)});
      if (c.req_elem + 1 == tuple) {
        ctrl_.d().req_elem = 0;
        ctrl_.d().req_cell = c.req_cell + 1;
      } else {
        ctrl_.d().req_elem = c.req_elem + 1;
      }
    } else {
      mreg_->count(s_req_bp_);
    }
  }

  // -- collector: one data word per cycle; kernel + write on the last. The
  // writer drains a result cell's fields 1..F-1 before the collector takes
  // further tuple words. --
  CellWriter::Step wb = CellWriter::Step::Idle;
  if (writer_.draining()) {
    wb = writer_.drain(out_base());
  } else if (c.col_cell < cells_ && !dram_.read_data().can_pop()) {
    mreg_->count(s_dram_wait_);
  } else if (c.col_cell < cells_) {
    const bool last = c.col_elem + 1 == tuple_words;
    // On the final word the write must be postable in the same cycle.
    if (!last || writer_.ready()) {
      const word_t v = dram_.read_data().pop();
      if (!last) {
        SMACHE_ASSERT(c.col_elem < tuple_.size());
        tuple_[c.col_elem] = v;
        ctrl_.d().col_elem = c.col_elem + 1;
      } else {
        const std::uint64_t cell = c.col_cell;
        const Source* srcs = &sources_[case_of_cell_[cell] * tuple];
        for (std::size_t j = 0; j < tuple; ++j) {
          const Source& s = srcs[j];
          for (std::size_t f = 0; f < fields_; ++f) {
            const std::size_t w = j * fields_ + f;
            SMACHE_ASSERT(w < tuple_.size());
            const word_t raw = w + 1 == tuple_words ? v : tuple_[w];
            if (s.is_data) scratch_[w] = grid::TupleElem{raw, true};
            else if (s.is_constant)
              scratch_[w] = grid::TupleElem{s.constant, true};
            else
              scratch_[w] = grid::TupleElem{0, false};
          }
        }
        std::array<word_t, kMaxFields> out{};
        apply_kernel_cells(kernel_spec_, scratch_, fields_, out.data());
        wb = writer_.write(out_base(), cell, out);
        ctrl_.d().col_elem = 0;
        ctrl_.d().col_cell = cell + 1;
      }
    }
  }
  if (wb == CellWriter::Step::Cell) {
    ctrl_.d().wb_count = c.wb_count + 1;
    if (c.wb_count + 1 == cells_)
      top_.go(c.instance + 1 == steps_ ? Top::Done : Top::Gap);
  }
}

void BaselineTop::eval() {
  if (case_of_cell_.empty())
    case_of_cell_ = build_case_table(cases_, height_, width_, depth_);
  switch (top_.state()) {
    case Top::Run:
      eval_run();
      break;
    case Top::Gap:
      // Memory fence between instances: the next instance reads the
      // region the writes are still draining into.
      if (dram_.write_req().empty() && dram_.idle()) {
        const Ctrl& c = ctrl_.q();
        Ctrl& d = ctrl_.d();
        d.instance = c.instance + 1;
        d.req_cell = 0;
        d.req_elem = 0;
        d.col_cell = 0;
        d.col_elem = 0;
        d.wb_count = 0;
        top_.go(Top::Run);
      }
      break;
    case Top::Done: break;  // terminal: nothing can ever change again
  }
  // The clock edge of the registers only this top reads. The writer stages
  // nothing at F = 1.
  top_.settle();
  ctrl_.settle();
  if (fields_ > 1) writer_.settle();
}

}  // namespace smache::rtl
