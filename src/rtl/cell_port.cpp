#include "rtl/cell_port.hpp"

#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace smache::rtl {

namespace {

/// Register bits of the F-1 staged words of one cell.
std::uint32_t staged_words_bits(std::size_t fields) {
  return static_cast<std::uint32_t>((fields - 1) * kWordBits);
}

}  // namespace

CellReader::CellReader(sim::Simulator& sim, const std::string& top,
                       const std::string& reg_path, sim::Fifo<word_t>& data,
                       std::size_t fields)
    : data_(data),
      fields_(static_cast<std::uint32_t>(fields)),
      stage_(sim, Stage{},
             fields > 1
                 ? std::vector<sim::RegGroup<Stage>::FieldCharge>{
                       {reg_path + "/in_fill", smache::count_bits(fields)},
                       {reg_path + "/in_cell", staged_words_bits(fields)}}
                 : std::vector<sim::RegGroup<Stage>::FieldCharge>{}),
      mreg_(&sim.metrics()),
      s_staging_(mreg_->slot(top, "/gather_staging_cycles",
                             obs::MetricKind::Counter)) {
  SMACHE_REQUIRE(fields >= 1 && fields <= kMaxFields);
}

CellWriter::CellWriter(sim::Simulator& sim, const std::string& top,
                       sim::Fifo<mem::DramWriteReq>& req, std::size_t fields,
                       std::size_t cells)
    : req_(req),
      fields_(static_cast<std::uint32_t>(fields)),
      stage_(sim, Stage{},
             fields > 1
                 ? std::vector<sim::RegGroup<Stage>::FieldCharge>{
                       {top + "/ctrl/wb_field", smache::count_bits(fields)},
                       {top + "/ctrl/wb_index", smache::count_bits(cells)},
                       {top + "/ctrl/wb_vals", staged_words_bits(fields)}}
                 : std::vector<sim::RegGroup<Stage>::FieldCharge>{}),
      mreg_(&sim.metrics()),
      s_drain_(mreg_->slot(top, "/writeback_drain_cycles",
                           obs::MetricKind::Counter)),
      s_backpressure_(mreg_->slot(top, "/stall/writeback_backpressure",
                                  obs::MetricKind::Counter)) {
  SMACHE_REQUIRE(fields >= 1 && fields <= kMaxFields);
}

}  // namespace smache::rtl
