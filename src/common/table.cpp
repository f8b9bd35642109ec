#include "common/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/assert.hpp"
#include "common/escape.hpp"

namespace smache {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  SMACHE_REQUIRE(!headers_.empty());
  align_.assign(headers_.size(), Align::Right);
  align_[0] = Align::Left;
}

void TextTable::begin_row() { rows_.emplace_back(); }

void TextTable::add_cell(std::string text) {
  SMACHE_REQUIRE_MSG(!rows_.empty(), "begin_row before add_cell");
  SMACHE_REQUIRE_MSG(rows_.back().size() < headers_.size(),
                     "row has more cells than headers");
  rows_.back().push_back(std::move(text));
}

void TextTable::add_cell(double value, int precision) {
  add_cell(format_fixed(value, precision));
}

void TextTable::add_cell(std::uint64_t value) {
  add_cell(std::to_string(value));
}

void TextTable::add_cell(std::int64_t value) {
  add_cell(std::to_string(value));
}

void TextTable::add_row(std::vector<std::string> cells) {
  SMACHE_REQUIRE(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

void TextTable::set_align(std::size_t column, Align align) {
  SMACHE_REQUIRE(column < align_.size());
  align_[column] = align;
}

std::string TextTable::to_ascii() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto emit_row = [&](std::ostringstream& out,
                      const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string cell = c < cells.size() ? cells[c] : "";
      const std::size_t pad = width[c] - cell.size();
      if (c != 0) out << "  ";
      if (align_[c] == Align::Right) out << std::string(pad, ' ') << cell;
      else out << cell << std::string(pad, ' ');
    }
    out << '\n';
  };

  std::ostringstream out;
  emit_row(out, headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c)
    total += width[c] + (c == 0 ? 0 : 2);
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(out, row);
  return out.str();
}

std::string TextTable::to_csv() const {
  std::ostringstream out;
  for (std::size_t c = 0; c < headers_.size(); ++c)
    out << (c ? "," : "") << csv_quote(headers_[c]);
  out << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c)
      out << (c ? "," : "") << csv_quote(row[c]);
    out << '\n';
  }
  return out.str();
}

std::string format_fixed(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

std::string format_kib(std::uint64_t bytes) {
  return format_fixed(static_cast<double>(bytes) / 1024.0, 1);
}

}  // namespace smache
