#include "rtl/static_buffer.hpp"

#include "common/assert.hpp"

namespace smache::rtl {

StaticBufferBank::StaticBufferBank(sim::Simulator& sim,
                                   const std::string& path,
                                   const model::StaticBufferSpec& spec,
                                   std::size_t fields)
    : spec_(spec),
      fields_(fields),
      active_(sim, path + "/active_sel", false, 1) {
  SMACHE_REQUIRE(spec.length >= 1);
  SMACHE_REQUIRE(spec.replicas >= 1);
  SMACHE_REQUIRE(fields >= 1 && fields <= kMaxFields);
  for (std::size_t r = 0; r < spec.replicas; ++r) {
    for (int phase = 0; phase < 2; ++phase) {
      const std::string base = path + "/rep" + std::to_string(r) +
                               (phase == 0 ? "/ping" : "/pong");
      // Field 0 keeps the original bank path (F = 1 ledger unchanged);
      // extra fields get parallel banks under a /f<k> suffix.
      for (std::size_t f = 0; f < fields_; ++f) {
        const std::string fpath =
            f == 0 ? base : base + "/f" + std::to_string(f);
        copies_.push_back(std::make_unique<mem::BramBank>(
            sim, fpath, spec.length, kWordBits, mem::BramBank::Mode::Ram));
      }
    }
  }
}

mem::BramBank& StaticBufferBank::bank(std::size_t replica, bool shadow,
                                      std::size_t field) const {
  SMACHE_REQUIRE(replica < spec_.replicas && field < fields_);
  const bool phase = active_.q() ^ shadow;
  return *copies_[(replica * 2 + (phase ? 1 : 0)) * fields_ + field];
}

void StaticBufferBank::read(std::size_t replica, std::size_t index) {
  for (std::size_t f = 0; f < fields_; ++f)
    bank(replica, /*shadow=*/false, f).read(index);
}

word_t StaticBufferBank::rdata(std::size_t replica,
                               std::size_t field) const {
  return static_cast<word_t>(bank(replica, /*shadow=*/false, field).rdata());
}

void StaticBufferBank::shadow_write_cell(std::size_t cell_index,
                                         const word_t* cell) {
  for (std::size_t r = 0; r < spec_.replicas; ++r)
    for (std::size_t f = 0; f < fields_; ++f)
      bank(r, /*shadow=*/true, f).write(cell_index, cell[f]);
}

void StaticBufferBank::active_write(std::size_t index, word_t value) {
  const std::size_t cell = index / fields_;
  const std::size_t field = index % fields_;
  for (std::size_t r = 0; r < spec_.replicas; ++r)
    bank(r, /*shadow=*/false, field).write(cell, value);
}

void StaticBufferBank::swap() { active_.d() = !active_.q(); }

void StaticBufferBank::settle() noexcept {
  for (auto& copy : copies_) copy->settle();
  active_.settle();
}

word_t StaticBufferBank::peek_active(std::size_t index) const {
  return static_cast<word_t>(
      bank(0, /*shadow=*/false, index % fields_).peek(index / fields_));
}

StaticBufferSet::StaticBufferSet(sim::Simulator& sim, const std::string& path,
                                 const model::BufferPlan& plan,
                                 std::size_t fields) {
  for (const auto& spec : plan.static_buffers())
    banks_.push_back(std::make_unique<StaticBufferBank>(
        sim, path + "/static/" + spec.name, spec, fields));
}

StaticBufferBank& StaticBufferSet::bank(std::size_t i) {
  SMACHE_REQUIRE(i < banks_.size());
  return *banks_[i];
}

const StaticBufferBank& StaticBufferSet::bank(std::size_t i) const {
  SMACHE_REQUIRE(i < banks_.size());
  return *banks_[i];
}

void StaticBufferSet::capture_output_cell(std::size_t row, std::size_t col,
                                          const word_t* cell) {
  for (auto& b : banks_)
    if (b->spec().write_through && b->spec().grid_row == row)
      b->shadow_write_cell(col, cell);
}

void StaticBufferSet::swap_all() {
  for (auto& b : banks_) b->swap();
}

void StaticBufferSet::settle() noexcept {
  for (auto& b : banks_) b->settle();
}

}  // namespace smache::rtl
